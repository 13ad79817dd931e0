//! The merged run report: [`ObsReport`] assembly from per-shard
//! accumulators, plus text heatmap renderers.
//!
//! Assembly is deterministic: per-node arrays merge at each shard's
//! node offset (every node is recorded by exactly one shard), scalars
//! are sums, histograms merge commutatively, and event streams
//! concatenate in shard-index order.
//! Running the same simulation at any thread count therefore produces
//! the same simulation statistics, while the report's per-shard section
//! reflects the actual partitioning used.

use crate::metrics::LogHistogram;
use crate::postmortem::{find_cycle, Postmortem, WaitEdge};
use crate::probe::ShardObs;
use crate::profile::PhaseProfile;
use crate::trace::{StopKind, TraceEvent};

/// How much the simulator records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ObsLevel {
    /// Nothing: the probe is compiled out ([`NoProbe`]).
    ///
    /// [`NoProbe`]: crate::probe::NoProbe
    #[default]
    Off,
    /// Counters and histograms only (no per-event trace ring).
    Metrics,
    /// Metrics plus the packet-lifecycle flight recorder.
    Trace,
}

impl ObsLevel {
    /// Stable lower-case name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Metrics => "metrics",
            ObsLevel::Trace => "trace",
        }
    }
}

/// Flat id of the node fed by the link out of `node` toward `dir`
/// (`Dir::ALL` order: +x, -x, +y, -y), if it stays inside the mesh.
fn neighbor(width: usize, height: usize, node: u32, dir: u8) -> Option<u32> {
    let w = width as u32;
    let (x, y) = (node % w, node / w);
    match dir {
        0 if x + 1 < w => Some(node + 1),
        1 if x > 0 => Some(node - 1),
        2 if y + 1 < height as u32 => Some(node + w),
        3 if y > 0 => Some(node - w),
        _ => None,
    }
}

/// Per-shard slice of the report (partitioning-dependent data).
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Shard index (row bands, bottom rows first).
    pub shard: usize,
    /// First node id of the rows the shard owned.
    pub node_start: u32,
    /// End of the shard's node ids (exclusive).
    pub node_end: u32,
    /// Boundary messages sent to the band before (`-y`).
    pub boundary_to_prev: u64,
    /// Boundary messages sent to the band after (`+y`).
    pub boundary_to_next: u64,
    /// Coordinator barriers this shard's worker synchronized on (one
    /// per granted window, the same count on every shard of a run;
    /// `cycles / barriers` is the realized window length).
    pub barriers: u64,
    /// Accumulated wall-clock per worker phase.
    pub phases: PhaseProfile,
    /// Trace events offered to this shard's flight recorder.
    pub events_seen: u64,
}

/// The merged observability report for one simulation run.
#[derive(Clone, Debug)]
pub struct ObsReport {
    /// Mesh width (nodes per row).
    pub width: usize,
    /// Mesh height (rows).
    pub height: usize,
    /// Recording level the run used.
    pub level: ObsLevel,
    /// Why the run stopped.
    pub stop: StopKind,
    /// Cycle the run stopped on.
    pub stopped_at: u64,
    /// Packets injected into the fabric.
    pub injected: u64,
    /// Packets whose tail ejected at a destination.
    pub delivered: u64,
    /// Packets dropped at sources by fault churn.
    pub dropped: u64,
    /// Flits sent per (node, direction): index `node*4 + dir`,
    /// `Dir::ALL` order (+x, -x, +y, -y).
    pub link_flits: Vec<u64>,
    /// Escape-class entries per node.
    pub escape_entries: Vec<u64>,
    /// Histogram of parked-head stall ages at grant time (cycles).
    pub stall_cycles: LogHistogram,
    /// Histogram of busy input VCs per active node, sampled at
    /// `stats_window` boundaries.
    pub vc_occupancy: LogHistogram,
    /// Per-shard partitioning-dependent data, in shard order.
    pub shards: Vec<ShardReport>,
    /// Flight-recorder contents, concatenated in shard order.
    pub recent_events: Vec<TraceEvent>,
    /// Present when the run stopped wedged
    /// ([`StopKind::is_wedged`]): the deadlock post-mortem.
    pub postmortem: Option<Postmortem>,
}

impl ObsReport {
    /// Merges per-shard accumulators (given in shard-index order) into
    /// the run report.
    pub fn assemble(width: usize, height: usize, shards: Vec<ShardObs>) -> ObsReport {
        assert!(!shards.is_empty(), "a report needs at least one shard");
        let nodes = width * height;
        let level = shards[0].level;
        let stop = shards.iter().find_map(|s| s.stop).unwrap_or(StopKind::Clean);
        let stopped_at = shards.iter().map(|s| s.stop_cycle).max().unwrap_or(0);
        let mut link_flits = vec![0u64; nodes * 4];
        let mut escape_entries = vec![0u64; nodes];
        let mut stall_cycles = LogHistogram::new();
        let mut vc_occupancy = LogHistogram::new();
        let (mut injected, mut delivered, mut dropped) = (0u64, 0u64, 0u64);
        let mut reports = Vec::with_capacity(shards.len());
        let mut recent_events = Vec::new();
        let mut stalled = Vec::new();
        let mut wait_edges = Vec::new();
        for s in &shards {
            // Each node is recorded by exactly one shard, at its
            // offset into the shard's node range.
            let a = s.start as usize;
            for (i, v) in s.link_flits.iter().enumerate() {
                link_flits[a * 4 + i] += v;
            }
            for (i, v) in s.escape_entries.iter().enumerate() {
                escape_entries[a + i] += v;
            }
            stall_cycles.merge(&s.stall_cycles);
            vc_occupancy.merge(&s.vc_occupancy);
            injected += s.injected;
            delivered += s.delivered;
            dropped += s.dropped;
            reports.push(ShardReport {
                shard: s.shard,
                node_start: s.start,
                node_end: s.end,
                boundary_to_prev: s.boundary_to_prev,
                boundary_to_next: s.boundary_to_next,
                barriers: s.barriers,
                phases: s.phases,
                events_seen: s.ring.seen(),
            });
            recent_events.extend(s.ring.events().copied());
            stalled.extend(s.stalled.iter().copied());
            wait_edges.extend(s.wait_edges.iter().copied());
        }
        // Resolve credit-starved waits: the holder of an unowned but
        // starved channel is the packet at the front of the downstream
        // input VC it feeds — possibly recorded by a different shard,
        // which is why resolution happens here and not in the fabric.
        let fronts: std::collections::HashMap<(u32, u8, u8), u32> = shards
            .iter()
            .flat_map(|s| s.fronts.iter())
            .map(|f| ((f.node, f.port, f.vc), f.packet))
            .collect();
        for b in shards.iter().flat_map(|s| s.blocked.iter()) {
            let Some(next) = neighbor(width, height, b.node, b.dir) else { continue };
            // The incoming port at the neighbor is the opposite
            // direction (`Dir::ALL` pairs +x/-x and +y/-y: xor 1).
            if let Some(&holder) = fronts.get(&(next, b.dir ^ 1, b.vc)) {
                if holder != b.waiter {
                    wait_edges.push(WaitEdge {
                        waiter: b.waiter,
                        holder,
                        node: b.node,
                        dir: b.dir,
                        vc: b.vc,
                    });
                }
            }
        }
        let postmortem = if stop.is_wedged() {
            let cycle_packets = find_cycle(&wait_edges);
            Some(Postmortem {
                cycle: stopped_at,
                reason: Some(stop),
                stalled,
                wait_edges,
                cycle_packets,
                recent_events: recent_events.clone(),
            })
        } else {
            None
        };
        ObsReport {
            width,
            height,
            level,
            stop,
            stopped_at,
            injected,
            delivered,
            dropped,
            link_flits,
            escape_entries,
            stall_cycles,
            vc_occupancy,
            shards: reports,
            recent_events,
            postmortem,
        }
    }

    /// Total flits sent over the links out of `node`.
    pub(crate) fn node_link_flits(&self, node: usize) -> u64 {
        self.link_flits[node * 4..node * 4 + 4].iter().sum()
    }

    /// Text heatmap of per-node link utilization (sum over the four
    /// outgoing links), highest mesh row first.
    pub fn link_heatmap(&self) -> String {
        let values: Vec<u64> =
            (0..self.width * self.height).map(|n| self.node_link_flits(n)).collect();
        self.heatmap("link flits per node", &values)
    }

    /// Text heatmap of per-node escape-class entries.
    pub fn escape_heatmap(&self) -> String {
        self.heatmap("escape entries per node", &self.escape_entries)
    }

    fn heatmap(&self, title: &str, values: &[u64]) -> String {
        const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
        let max = values.iter().copied().max().unwrap_or(0);
        let mut out =
            format!("{title} (max {max}, ramp \"{}\")\n", RAMP.iter().collect::<String>());
        for y in (0..self.height).rev() {
            for x in 0..self.width {
                let v = values[y * self.width + x];
                let i = if max == 0 {
                    0
                } else {
                    ((v as u128 * (RAMP.len() - 1) as u128) / max as u128) as usize
                };
                out.push(RAMP[i]);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{FabricProbe, GrantInfo};

    fn grant(node: u32, packet: u32, stalled: u32) -> GrantInfo {
        GrantInfo { node, packet, dir: 0, vc: 0, class: 0, fresh_vc: true, stalled }
    }

    #[test]
    fn assembly_merges_disjoint_bands_deterministically() {
        // 4x4 mesh split into two row bands of 8 nodes each.
        let mut lo = ShardObs::new(0, 0, 8, ObsLevel::Trace);
        let mut hi = ShardObs::new(1, 8, 16, ObsLevel::Trace);
        lo.cycle_start(1);
        hi.cycle_start(1);
        lo.inject(2, 10);
        lo.head_grant(grant(2, 10, 0));
        lo.link_flit(2, 2);
        hi.escape_entered(9, 11);
        hi.head_grant(grant(9, 11, 5));
        hi.delivered(9, 11);
        hi.boundary_out(3, 0);
        let report = ObsReport::assemble(4, 4, vec![lo, hi]);
        assert_eq!(report.injected, 1);
        assert_eq!(report.delivered, 1);
        assert_eq!(report.node_link_flits(2), 1);
        assert_eq!(report.escape_entries[9], 1);
        assert_eq!(report.stall_cycles.count(), 2);
        assert_eq!(report.stall_cycles.max(), 5);
        assert_eq!(report.shards.len(), 2);
        assert_eq!(report.shards[1].boundary_to_prev, 3);
        assert_eq!(report.stop, StopKind::Clean);
        assert!(report.postmortem.is_none());
        // Events concatenate in shard order: lo emits Inject +
        // HopGranted + VcAllocated, hi emits EscapeEntered +
        // HopGranted + VcAllocated + Delivered.
        assert_eq!(report.recent_events.len(), 7);
    }

    #[test]
    fn wedged_stops_produce_a_postmortem_with_a_cycle() {
        use crate::postmortem::{StalledPacket, WaitEdge};
        let mut s = ShardObs::new(0, 0, 16, ObsLevel::Trace);
        s.run_stopped(500, StopKind::Deadlock);
        for (w, h) in [(1u32, 2u32), (2, 1)] {
            s.wait_edge(WaitEdge { waiter: w, holder: h, node: 0, dir: 0, vc: 0 });
            s.stalled_packet(StalledPacket {
                packet: w,
                node: 0,
                src: (0, 0),
                dst: (3, 3),
                class: 0,
                stalled: 0,
                generated_at: 1,
            });
        }
        let report = ObsReport::assemble(4, 4, vec![s]);
        assert_eq!(report.stop, StopKind::Deadlock);
        let pm = report.postmortem.expect("wedged stop dumps a post-mortem");
        assert_eq!(pm.cycle, 500);
        assert_eq!(pm.stalled.len(), 2);
        assert_eq!(pm.cycle_packets, vec![1, 2]);
    }

    #[test]
    fn credit_starved_waits_resolve_against_the_downstream_vc_front() {
        use crate::postmortem::{BlockedWait, VcFront};
        // 4x4 mesh, two row bands. Packet 7, parked at node 2 in the
        // lower shard, is starved on its +y channel (dir 2); the
        // downstream buffer at node 6 — owned by the upper shard — has
        // packet 9 at the front of the -y input port (dir 2 ^ 1 = 3).
        let mut lo = ShardObs::new(0, 0, 8, ObsLevel::Metrics);
        let mut hi = ShardObs::new(1, 8, 16, ObsLevel::Metrics);
        lo.run_stopped(100, StopKind::Deadlock);
        lo.wait_blocked(BlockedWait { waiter: 7, node: 2, dir: 2, vc: 0 });
        // An off-mesh starve (node 12 has no +y neighbor on 4x4) and a
        // self-wait must both resolve to nothing.
        hi.wait_blocked(BlockedWait { waiter: 8, node: 12, dir: 2, vc: 0 });
        hi.wait_blocked(BlockedWait { waiter: 9, node: 10, dir: 0, vc: 0 });
        hi.vc_front(VcFront { node: 6, port: 3, vc: 0, packet: 9 });
        hi.vc_front(VcFront { node: 11, port: 1, vc: 0, packet: 9 });
        let report = ObsReport::assemble(4, 4, vec![lo, hi]);
        let pm = report.postmortem.expect("deadlock stop dumps a post-mortem");
        assert_eq!(pm.wait_edges, vec![WaitEdge { waiter: 7, holder: 9, node: 2, dir: 2, vc: 0 }]);
    }

    #[test]
    fn heatmaps_render_row_major_top_down() {
        let mut s = ShardObs::new(0, 0, 4, ObsLevel::Metrics);
        // Node 3 = (x=1, y=1) on a 2x2 mesh: top-right cell.
        s.link_flit(3, 0);
        let report = ObsReport::assemble(2, 2, vec![s]);
        let map = report.link_heatmap();
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], " @");
        assert_eq!(lines[2], "  ");
    }
}
