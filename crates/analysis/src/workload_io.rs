//! Workload file I/O: the versioned JSONL packet-trace format
//! (`--record-trace` / `--workload trace:FILE`) and the flow-DAG file
//! format (`--workload dag:FILE`), both emitted and parsed through
//! [`crate::jsonl`] so the hand-rolled JSON lives in one place.
//!
//! ## Trace format (version 1)
//!
//! Line 1 is the header, then one flat object per recorded entry:
//!
//! ```json
//! {"format": "meshpath-trace", "version": 1, "horizon": 120, "entries": 2}
//! {"cycle": 0, "src_x": 1, "src_y": 2, "dst_x": 5, "dst_y": 0, "len": 4, "flow": 4294967295, "drop": 0}
//! {"cycle": 3, "src_x": 0, "src_y": 0, "dst_x": 7, "dst_y": 7, "len": 0, "flow": 4294967295, "drop": 1}
//! ```
//!
//! `drop` is 0 for injected packets, 1 for unroutable rejections and 2
//! for TTL rejections; rejections carry `len: 0` and exist so a replay
//! reproduces the recording run's drop counters (and RNG-free
//! admission schedule) exactly. `horizon` is the recording run's
//! generation horizon (`warmup + measure` for synthetic runs): the
//! replay holds the simulation open until it so both runs terminate on
//! the same cycle.
//!
//! ## DAG format (version 1)
//!
//! Line 1 is the header, then one flow per line; `deps` names flows by
//! their `name` field and must form a DAG:
//!
//! ```json
//! {"format": "meshpath-dag", "version": 1, "flows": 2}
//! {"name": "a", "src_x": 0, "src_y": 0, "dst_x": 7, "dst_y": 7, "len": 8, "deps": [], "earliest": 0}
//! {"name": "b", "src_x": 7, "src_y": 7, "dst_x": 0, "dst_y": 0, "len": 4, "deps": ["a"], "earliest": 0}
//! ```

use std::fmt;

use meshpath_mesh::Coord;
use meshpath_traffic::TraceEntry;
use meshpath_workload::{DagSpec, FlowDag, FlowSpec};

use crate::jsonl::{parse_flat, FlatValue, JsonObject};

/// Current version of both on-disk formats.
pub(crate) const WORKLOAD_FORMAT_VERSION: u64 = 1;

/// Why a workload file failed to parse.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadIoError {
    /// The file is empty or its header line is missing/invalid.
    BadHeader(String),
    /// The header names a format or version this reader cannot take.
    UnsupportedFormat {
        /// The `format` string found (empty if absent).
        format: String,
        /// The `version` found (0 if absent).
        version: u64,
    },
    /// A body line failed to parse (1-based line number + reason).
    BadLine(usize, String),
    /// The parsed DAG failed validation (unknown dep, cycle, ...).
    InvalidDag(String),
}

impl fmt::Display for WorkloadIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadIoError::BadHeader(why) => write!(f, "bad workload file header: {why}"),
            WorkloadIoError::UnsupportedFormat { format, version } => {
                write!(f, "unsupported workload file format {format:?} version {version}")
            }
            WorkloadIoError::BadLine(n, why) => write!(f, "line {n}: {why}"),
            WorkloadIoError::InvalidDag(why) => write!(f, "invalid DAG: {why}"),
        }
    }
}

impl std::error::Error for WorkloadIoError {}

/// Renders a recorded trace in the version-1 format.
pub fn write_trace(entries: &[TraceEntry], horizon: u64) -> String {
    let mut out = String::with_capacity(64 + 96 * entries.len());
    let mut header = JsonObject::new();
    header
        .string("format", "meshpath-trace")
        .field("version", WORKLOAD_FORMAT_VERSION)
        .field("horizon", horizon)
        .field("entries", entries.len());
    out.push_str(&header.render());
    out.push('\n');
    for e in entries {
        let mut o = JsonObject::new();
        o.field("cycle", e.cycle)
            .field("src_x", e.src.x)
            .field("src_y", e.src.y)
            .field("dst_x", e.dst.x)
            .field("dst_y", e.dst.y)
            .field("len", e.len)
            .field("flow", e.flow)
            .field("drop", e.drop);
        out.push_str(&o.render());
        out.push('\n');
    }
    out
}

/// Looks up `key` in a parsed flat object.
fn get<'a>(pairs: &'a [(String, FlatValue)], key: &str) -> Option<&'a FlatValue> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_u64(pairs: &[(String, FlatValue)], key: &str) -> Result<u64, String> {
    get(pairs, key)
        .and_then(FlatValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn get_u32(pairs: &[(String, FlatValue)], key: &str) -> Result<u32, String> {
    let v = get_u64(pairs, key)?;
    u32::try_from(v).map_err(|_| format!("field {key:?} = {v} exceeds u32"))
}

fn get_coord(pairs: &[(String, FlatValue)], xk: &str, yk: &str) -> Result<Coord, String> {
    let range = f64::from(i32::MIN)..=f64::from(i32::MAX);
    let read = |key: &str| -> Result<i32, String> {
        match get(pairs, key) {
            Some(FlatValue::Num(n)) if n.fract() == 0.0 && range.contains(n) => Ok(*n as i32),
            _ => Err(format!("missing, non-integer or out-of-i32 field {key:?}")),
        }
    };
    Ok(Coord::new(read(xk)?, read(yk)?))
}

/// Parses and validates the header line; returns its pairs.
fn read_header(text: &str, format: &str) -> Result<Vec<(String, FlatValue)>, WorkloadIoError> {
    let first =
        text.lines().next().ok_or_else(|| WorkloadIoError::BadHeader("empty file".to_string()))?;
    let pairs = parse_flat(first).map_err(WorkloadIoError::BadHeader)?;
    let found = get(&pairs, "format").and_then(FlatValue::as_str).unwrap_or("").to_string();
    let version = get(&pairs, "version").and_then(FlatValue::as_u64).unwrap_or(0);
    if found != format || version != WORKLOAD_FORMAT_VERSION {
        return Err(WorkloadIoError::UnsupportedFormat { format: found, version });
    }
    Ok(pairs)
}

/// Parses a version-1 trace file into its entries and horizon.
pub fn read_trace(text: &str) -> Result<(Vec<TraceEntry>, u64), WorkloadIoError> {
    let header = read_header(text, "meshpath-trace")?;
    let horizon = get_u64(&header, "horizon").map_err(WorkloadIoError::BadHeader)?;
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let pairs = parse_flat(line).map_err(|e| WorkloadIoError::BadLine(i + 1, e))?;
        let bad = |e| WorkloadIoError::BadLine(i + 1, e);
        let len = get_u32(&pairs, "len").map_err(bad)?;
        let drop = match get_u64(&pairs, "drop").map_err(bad)? {
            d @ 0..=2 => d as u8,
            d => return Err(bad(format!("drop = {d} is not 0, 1 or 2"))),
        };
        if drop == 0 && len == 0 {
            return Err(bad("an injected entry needs len >= 1".to_string()));
        }
        entries.push(TraceEntry {
            cycle: get_u64(&pairs, "cycle").map_err(bad)?,
            src: get_coord(&pairs, "src_x", "src_y").map_err(bad)?,
            dst: get_coord(&pairs, "dst_x", "dst_y").map_err(bad)?,
            len,
            flow: get_u32(&pairs, "flow").map_err(bad)?,
            drop,
        });
    }
    check_count(&header, "entries", entries.len())?;
    Ok((entries, horizon))
}

/// Checks the header's optional line count `key` against the `found`
/// body lines.
fn check_count(
    header: &[(String, FlatValue)],
    key: &str,
    found: usize,
) -> Result<(), WorkloadIoError> {
    match get(header, key) {
        Some(v) if v.as_u64() != Some(found as u64) => Err(WorkloadIoError::BadHeader(format!(
            "header promises {v:?} {key}, file has {found}"
        ))),
        _ => Ok(()),
    }
}

/// Renders a DAG spec in the version-1 format.
#[cfg(test)]
fn write_dag(spec: &DagSpec) -> String {
    let mut out = String::with_capacity(64 + 96 * spec.flows.len());
    let mut header = JsonObject::new();
    header
        .string("format", "meshpath-dag")
        .field("version", WORKLOAD_FORMAT_VERSION)
        .field("flows", spec.flows.len());
    out.push_str(&header.render());
    out.push('\n');
    for f in &spec.flows {
        let mut o = JsonObject::new();
        o.string("name", &f.name)
            .field("src_x", f.src.x)
            .field("src_y", f.src.y)
            .field("dst_x", f.dst.x)
            .field("dst_y", f.dst.y)
            .field("len", f.len)
            // `field` takes the raw (unquoted) form, which is how the
            // string array rides through the emitter.
            .field("deps", render_deps(&f.deps))
            .field("earliest", f.earliest);
        out.push_str(&o.render());
        out.push('\n');
    }
    out
}

// `JsonObject` has no string-array emitter; render deps inline through
// its `field` raw path (the names share the restricted charset the
// emitter enforces for strings).
#[cfg(test)]
fn render_deps(deps: &[String]) -> String {
    let mut s = String::from("[");
    for (i, d) in deps.iter().enumerate() {
        assert!(
            d.chars().all(|c| c.is_ascii_alphanumeric() || "_-.".contains(c)),
            "DAG flow names stay in the restricted charset: {d:?}"
        );
        if i > 0 {
            s.push_str(", ");
        }
        s.push('"');
        s.push_str(d);
        s.push('"');
    }
    s.push(']');
    s
}

/// Parses a version-1 DAG file and validates it (via [`FlowDag::new`],
/// the validating constructor), returning the spec.
pub fn read_dag(text: &str) -> Result<DagSpec, WorkloadIoError> {
    let header = read_header(text, "meshpath-dag")?;
    let mut flows = Vec::new();
    for (i, line) in text.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let pairs = parse_flat(line).map_err(|e| WorkloadIoError::BadLine(i + 1, e))?;
        let bad = |e| WorkloadIoError::BadLine(i + 1, e);
        flows.push(FlowSpec {
            name: get(&pairs, "name")
                .and_then(FlatValue::as_str)
                .ok_or_else(|| bad("missing string field \"name\"".to_string()))?
                .to_string(),
            src: get_coord(&pairs, "src_x", "src_y").map_err(bad)?,
            dst: get_coord(&pairs, "dst_x", "dst_y").map_err(bad)?,
            len: get_u32(&pairs, "len").map_err(bad)?,
            deps: match get(&pairs, "deps") {
                None => Vec::new(),
                Some(v) => v
                    .as_strs()
                    .ok_or_else(|| bad("field \"deps\" is not a string array".to_string()))?
                    .to_vec(),
            },
            earliest: match get(&pairs, "earliest") {
                None => 0,
                Some(_) => get_u64(&pairs, "earliest").map_err(bad)?,
            },
        });
    }
    check_count(&header, "flows", flows.len())?;
    let spec = DagSpec { flows };
    FlowDag::new(spec.clone()).map_err(|e| WorkloadIoError::InvalidDag(e.to_string()))?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshpath_traffic::NO_FLOW;
    use meshpath_workload::FlowSpec;

    #[test]
    fn traces_round_trip() {
        let entries = vec![
            TraceEntry {
                cycle: 0,
                src: Coord::new(1, 2),
                dst: Coord::new(5, 0),
                len: 4,
                flow: NO_FLOW,
                drop: 0,
            },
            TraceEntry {
                cycle: 3,
                src: Coord::new(0, 0),
                dst: Coord::new(7, 7),
                len: 0,
                flow: NO_FLOW,
                drop: 1,
            },
        ];
        let text = write_trace(&entries, 120);
        assert!(text.starts_with(
            "{\"format\": \"meshpath-trace\", \"version\": 1, \"horizon\": 120, \"entries\": 2}\n"
        ));
        let (parsed, horizon) = read_trace(&text).expect("round trip");
        assert_eq!(horizon, 120);
        assert_eq!(parsed, entries);
    }

    #[test]
    fn trace_header_is_checked() {
        assert!(matches!(read_trace(""), Err(WorkloadIoError::BadHeader(_))));
        let wrong = "{\"format\": \"meshpath-dag\", \"version\": 1, \"horizon\": 3}\n";
        assert!(matches!(read_trace(wrong), Err(WorkloadIoError::UnsupportedFormat { .. })));
        let future = "{\"format\": \"meshpath-trace\", \"version\": 2, \"horizon\": 3}\n";
        assert!(matches!(read_trace(future), Err(WorkloadIoError::UnsupportedFormat { .. })));
        for count in ["7", "0.9", "-1", "\"0\""] {
            let miscount =
                write_trace(&[], 5).replace("\"entries\": 0", &format!("\"entries\": {count}"));
            assert!(matches!(read_trace(&miscount), Err(WorkloadIoError::BadHeader(_))), "{count}");
        }
    }

    #[test]
    fn dags_round_trip_and_validate() {
        let spec = DagSpec {
            flows: vec![
                FlowSpec::root("a", Coord::new(0, 0), Coord::new(7, 7), 8),
                FlowSpec::after("b", Coord::new(7, 7), Coord::new(0, 0), 4, &["a"]),
            ],
        };
        let text = write_dag(&spec);
        assert!(text.contains("\"deps\": [\"a\"]"), "{text}");
        let parsed = read_dag(&text).expect("round trip");
        assert_eq!(parsed, spec);

        let cyclic = text.replace("\"deps\": []", "\"deps\": [\"b\"]");
        assert!(matches!(read_dag(&cyclic), Err(WorkloadIoError::InvalidDag(_))));
        let numeric = text.replacen("\"deps\": []", "\"deps\": 5", 1);
        assert!(matches!(read_dag(&numeric), Err(WorkloadIoError::BadLine(2, _))));
        let unnamed = text.replace("\"name\": \"a\", ", "");
        assert!(matches!(read_dag(&unnamed), Err(WorkloadIoError::BadLine(2, _))));
        let fractional = text.replace("\"flows\": 2", "\"flows\": 2.5");
        assert!(matches!(read_dag(&fractional), Err(WorkloadIoError::BadHeader(_))));
    }

    /// A one-entry trace file, read after each `(from, to)` edit.
    fn trace(edits: &[(&str, &str)]) -> Result<(Vec<TraceEntry>, u64), WorkloadIoError> {
        let text = r#"{"format": "meshpath-trace", "version": 1, "horizon": 10}
{"cycle": 0, "src_x": 1, "src_y": 2, "dst_x": 5, "dst_y": 0, "len": 4, "flow": 9, "drop": 0}"#;
        read_trace(&edits.iter().fold(text.to_string(), |t, (from, to)| t.replace(from, to)))
    }

    fn bad_line(r: Result<(Vec<TraceEntry>, u64), WorkloadIoError>) -> bool {
        matches!(r, Err(WorkloadIoError::BadLine(2, _)))
    }

    #[test]
    fn a_drop_marker_past_2_is_rejected_not_truncated() {
        assert!(trace(&[("\"drop\": 0", "\"drop\": 2")]).is_ok());
        assert!(bad_line(trace(&[("\"drop\": 0", "\"drop\": 3")])));
        assert!(bad_line(trace(&[("\"drop\": 0", "\"drop\": 256")])), "256 must not replay as 0");
    }

    #[test]
    fn trace_values_past_u32_are_rejected_not_wrapped() {
        assert!(bad_line(trace(&[("\"len\": 4", "\"len\": 4294967296")])));
        assert!(bad_line(trace(&[("\"flow\": 9", "\"flow\": 4294967296")])));
        assert!(trace(&[("\"flow\": 9", "\"flow\": 4294967295")]).is_ok(), "NO_FLOW is valid");
    }

    #[test]
    fn an_injected_entry_of_len_0_is_rejected() {
        let len_0 = ("\"len\": 4", "\"len\": 0");
        assert!(bad_line(trace(&[len_0])));
        assert!(
            trace(&[len_0, ("\"drop\": 0", "\"drop\": 1")]).is_ok(),
            "a drop marker's len is 0"
        );
    }

    #[test]
    fn coordinates_past_i32_are_rejected_not_saturated() {
        assert!(bad_line(trace(&[("\"src_x\": 1", "\"src_x\": 2147483648")])));
        assert!(bad_line(trace(&[("\"dst_y\": 0", "\"dst_y\": -2147483649")])));
        let far = dag_text().replace("\"dst_x\": 7", "\"dst_x\": 2147483648");
        assert!(matches!(read_dag(&far), Err(WorkloadIoError::BadLine(2, _))));
    }

    #[test]
    fn a_dag_len_past_u32_is_rejected_not_wrapped() {
        let long = dag_text().replace("\"len\": 8", "\"len\": 4294967297");
        assert!(matches!(read_dag(&long), Err(WorkloadIoError::BadLine(2, _))));
    }

    /// Seeded hostile input over the three readers: byte flips,
    /// truncations, repeated keys, huge numbers and runs of `[` applied to
    /// valid trace, DAG and flat-object documents. Every read must return
    /// rather than panic, and each edit that always breaks a document
    /// must come back as an error.
    #[test]
    fn hostile_inputs_are_errors_not_panics() {
        use crate::jsonl::parse_flat;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const HUGE: [&str; 5] =
            ["1e999", "-1e999", "18446744073709551616", "1e20", "-9223372036854775809"];
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for round in 0..10_000 {
            let c = |rng: &mut StdRng| Coord::new(rng.gen_range(0..64), rng.gen_range(0..64));
            let doc = match round % 3 {
                0 => {
                    let entries: Vec<TraceEntry> = (0..rng.gen_range(1..4))
                        .map(|_| TraceEntry {
                            cycle: rng.gen_range(0..1000),
                            src: c(&mut rng),
                            dst: c(&mut rng),
                            len: rng.gen_range(1..9),
                            flow: NO_FLOW,
                            drop: 0,
                        })
                        .collect();
                    write_trace(&entries, 1000)
                }
                1 => write_dag(&DagSpec {
                    flows: vec![
                        FlowSpec::root("a", c(&mut rng), c(&mut rng), rng.gen_range(1..9)),
                        FlowSpec::after("b", c(&mut rng), c(&mut rng), 4, &["a"]),
                    ],
                }),
                _ => {
                    let mut o = JsonObject::new();
                    o.field("n", rng.gen_range(0..1000)).string("s", "x-y").array_u64("v", &[1, 2]);
                    o.render()
                }
            };
            let is_err = |text: &str| match round % 3 {
                0 => read_trace(text).is_err(),
                1 => read_dag(text).is_err(),
                _ => parse_flat(text).is_err(),
            };
            let at = rng.gen_range(0..doc.len());
            match rng.gen_range(0..5) {
                0 => {
                    let mut bytes = doc.clone().into_bytes();
                    bytes[at] ^= rng.gen_range(1..=255u8);
                    is_err(&String::from_utf8_lossy(&bytes));
                }
                1 => {
                    let cut = &doc[..at];
                    let partial_line = !cut.ends_with('\n') && !cut.ends_with('}');
                    assert!(is_err(cut) || !partial_line, "truncated: {cut:?}");
                }
                2 => {
                    let first = doc.find(", ").expect("every line has two fields");
                    let twice = format!("{{{}{}", &doc[1..first + 2], &doc[1..]);
                    assert!(is_err(&twice), "repeated key: {twice:?}");
                }
                3 => {
                    let values: Vec<usize> = doc.match_indices(": ").map(|(i, _)| i + 2).collect();
                    let from = values[rng.gen_range(0..values.len())];
                    let len = doc[from..].find(|c: char| !c.is_ascii_digit()).unwrap_or(0);
                    let huge = HUGE[rng.gen_range(0..HUGE.len())];
                    let text = format!("{}{huge}{}", &doc[..from], &doc[from + len..]);
                    // The flat-object reader takes any number; the two
                    // file readers range-check every numeric field.
                    assert!(len == 0 || round % 3 == 2 || is_err(&text), "huge: {text:?}");
                }
                _ => {
                    let run = "[".repeat(rng.gen_range(1..4096));
                    let text = format!("{}{run}{}", &doc[..at], &doc[at..]);
                    assert!(is_err(&text), "a run of '[' at {at} of {doc:?}");
                }
            }
        }
    }

    fn dag_text() -> String {
        write_dag(&DagSpec {
            flows: vec![FlowSpec::root("a", Coord::new(0, 0), Coord::new(7, 7), 8)],
        })
    }
}
