//! Harness-side spans: one per call (or batch of calls) into a pinned
//! entry point of the stack, held in memory and written out as JSONL
//! when the run ends. Spans inside the program are a later issue
//! (ROADMAP item 1); everything here is timed from outside.

use std::fmt::Write as _;
use std::time::Instant;

use crate::json::Json;

/// The stack's layers (= crates), plus the harness itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Mesh,
    Fault,
    Info,
    Route,
    Meshpath,
    Traffic,
    Workload,
    Harness,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Mesh,
        Layer::Fault,
        Layer::Info,
        Layer::Route,
        Layer::Meshpath,
        Layer::Traffic,
        Layer::Workload,
        Layer::Harness,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Mesh => "mesh",
            Layer::Fault => "fault",
            Layer::Info => "info",
            Layer::Route => "route",
            Layer::Meshpath => "meshpath",
            Layer::Traffic => "traffic",
            Layer::Workload => "workload",
            Layer::Harness => "harness",
        }
    }
}

/// Index of a recorded span (`NO_PARENT` for roots).
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// Shared by every span of one operation (an instance's set-up, one
    /// repetition, one update).
    pub op: u64,
    /// Calls the span covers (> 1 for batched sub-microsecond calls).
    pub calls: u64,
    /// Harness thread that made the call (0 = main).
    pub thread: u8,
    /// A replay of a parent's children on identical inputs, run beside
    /// the parent to split its time; not part of the workload's wall.
    pub replay: bool,
}

/// Self time per layer (seconds, [`Layer::ALL`] order) and how much the
/// replays claimed beyond the calls they split.
#[derive(Clone, Copy, Debug)]
pub struct Attribution {
    pub self_s: [f64; Layer::ALL.len()],
    pub overshoot_s: f64,
}

impl Attribution {
    /// The workload's traced wall: every layer's self time together.
    pub fn wall_s(&self) -> f64 {
        self.self_s.iter().sum()
    }
}

/// Span recorder. With recording off (`--trace 0`) [`Tracer::time`]
/// still times its closure — set-up durations feed `setup_s` — but
/// keeps nothing.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Times `f` as one span of `layer` and returns its result with the
    /// elapsed seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        layer: Layer,
        parent: SpanId,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, layer, parent, op, 1, start, end);
        (out, (end - start).as_secs_f64())
    }

    /// Like [`Tracer::time`], marking the span as a replay.
    pub fn time_replay<R>(
        &mut self,
        name: &'static str,
        layer: Layer,
        parent: SpanId,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let (out, secs) = self.time(name, layer, parent, op, f);
        if self.on {
            self.spans.last_mut().expect("span just recorded").replay = true;
        }
        (out, secs)
    }

    /// Records a span the caller timed itself (batched hot loops, other
    /// threads); returns its id, or `NO_PARENT` with recording off.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        name: &'static str,
        layer: Layer,
        parent: SpanId,
        op: u64,
        calls: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.ns_of(start),
            end_ns: self.ns_of(end),
            parent,
            op,
            calls,
            thread: 0,
            replay: false,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span to be closed later (a parent around nested calls).
    pub fn open(&mut self, name: &'static str, layer: Layer, parent: SpanId, op: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, layer, parent, op, 1, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        if id != NO_PARENT {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Tags the most recent `n` spans as made by harness thread `thread`.
    pub fn tag_thread(&mut self, n: usize, thread: u8) {
        let len = self.spans.len();
        for s in &mut self.spans[len - n.min(len)..] {
            s.thread = thread;
        }
    }

    /// Splits the recorded wall between the layers. A span's self time
    /// is its duration minus the part its direct children cover; replay
    /// spans cover their parent but belong to no layer (they are not
    /// workload time). `transfers` then move `(from, to, seconds)` out
    /// of an opaque call into the layer a replay showed spent it; what a
    /// replay claims beyond its parent's self time is `overshoot_s`.
    pub fn attribution(&self, transfers: &[(Layer, Layer, f64)]) -> Attribution {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in self.spans.iter().filter(|s| s.parent != NO_PARENT) {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        let mut self_s = [0.0; Layer::ALL.len()];
        for (s, &covered) in self.spans.iter().zip(&child_ns) {
            if !s.replay {
                let own = (s.end_ns - s.start_ns).saturating_sub(covered);
                self_s[s.layer as usize] += own as f64 * 1e-9;
            }
        }
        let mut overshoot_s = 0.0;
        for &(from, to, seconds) in transfers {
            let taken = seconds.min(self_s[from as usize]);
            self_s[from as usize] -= taken;
            self_s[to as usize] += taken;
            overshoot_s += seconds - taken;
        }
        Attribution { self_s, overshoot_s }
    }

    /// JSONL: the manifest on the first line, then one span per line.
    pub fn to_jsonl(&self, manifest: &Json) -> String {
        let mut out = String::with_capacity(128 * (self.spans.len() + 1));
        out.push_str(&manifest.render());
        out.push('\n');
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": ",
                s.name,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            );
            if s.parent == NO_PARENT {
                out.push_str("null");
            } else {
                let _ = write!(out, "{}", s.parent);
            }
            let _ = writeln!(
                out,
                ", \"op\": {}, \"calls\": {}, \"thread\": {}, \"replay\": {}}}",
                s.op, s.calls, s.thread, s.replay
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_skips_replays() {
        let ms = |n| std::thread::sleep(std::time::Duration::from_millis(n));
        let mut t = Tracer::new(true);
        let root = t.open("setup", Layer::Harness, NO_PARENT, 0);
        let (_, build_s) = t.time("route.net_build", Layer::Route, root, 0, || ms(6));
        let (_, replay_s) = t.time_replay("fault.mcc_build", Layer::Fault, root, 0, || ms(2));
        t.close(root);
        let a = t.attribution(&[]);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
        assert!(close(a.self_s[Layer::Route as usize], build_s));
        assert_eq!(a.self_s[Layer::Fault as usize], 0.0, "replays are not workload time");
        assert!(a.self_s[Layer::Harness as usize] < 0.002, "the root keeps only its gaps");
        // The replay's time moves out of the opaque call; a claim beyond
        // the call's self time is reported, not invented.
        let a = t.attribution(&[
            (Layer::Route, Layer::Fault, replay_s),
            (Layer::Route, Layer::Info, 1.0),
        ]);
        assert!(close(a.self_s[Layer::Fault as usize], replay_s));
        assert_eq!(a.self_s[Layer::Route as usize], 0.0);
        assert!(close(a.overshoot_s, 1.0 - (build_s - replay_s)));
        assert_eq!(t.to_jsonl(&Json::obj()).lines().count(), 4);
    }
}
