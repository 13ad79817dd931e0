//! Deadlock post-mortem: the VC wait-for graph and its cycle witness.
//!
//! When a run stops wedged ([`StopKind::is_wedged`]), each shard walks
//! its input VCs: every *parked head* (a head flit with no allocated
//! route) re-asks its router for candidates and reports what each
//! candidate virtual channel is blocked on. Two flavors exist:
//!
//! * the VC is **owned** by another worm — a direct [`WaitEdge`]
//!   `waiter -> holder`;
//! * the VC is unowned but **credit-starved** — the previous worm's
//!   tail has passed, yet the downstream input buffer the channel
//!   feeds is still full. The shard emits a [`BlockedWait`] naming the
//!   channel plus [`VcFront`] occupancy records for its own input VCs;
//!   report assembly resolves each `BlockedWait` against the
//!   *downstream* VC front (which may live in a different shard) into
//!   a `WaitEdge` whose holder is the packet at that front.
//!
//! A directed cycle among the resolved edges is the wormhole-deadlock
//! witness — the packets on it each hold buffer space the next one
//! needs — and `find_cycle` names them.
//!
//! The graph uses *waits-on-any* semantics: a head with several
//! candidate VCs emits one edge per blocked candidate, so a cycle is
//! evidence of a circular wait among those candidates (the classic
//! single-candidate deterministic-routing case makes it exact).
//!
//! [`StopKind::is_wedged`]: crate::trace::StopKind::is_wedged

use crate::trace::{StopKind, TraceEvent};

/// A parked head flit at the moment the run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StalledPacket {
    /// Packet id.
    pub packet: u32,
    /// Flat node id where the head is parked.
    pub node: u32,
    /// Source coordinate `(x, y)`.
    pub src: (i32, i32),
    /// Destination coordinate `(x, y)`.
    pub dst: (i32, i32),
    /// VC class discriminant the packet is committed to.
    pub class: u8,
    /// Consecutive cycles parked (0 under deterministic policies,
    /// whose fabric does not age stall clocks).
    pub stalled: u32,
    /// Cycle the packet was generated on.
    pub generated_at: u64,
}

/// One edge of the VC wait-for graph: `waiter`'s parked head wants a
/// virtual channel owned by `holder`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitEdge {
    /// The blocked packet.
    pub waiter: u32,
    /// The packet owning the wanted VC.
    pub holder: u32,
    /// Flat node id where the waiter is parked.
    pub node: u32,
    /// Output direction index of the wanted VC.
    pub dir: u8,
    /// Virtual-channel index of the wanted VC.
    pub vc: u8,
}

/// A parked head blocked on a candidate VC that is *credit-starved*
/// while unowned: the previous worm's tail released ownership, but the
/// downstream input buffer the channel feeds is still full, so no
/// credits return. Resolved into a [`WaitEdge`] during report assembly
/// using the downstream [`VcFront`] as the holder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockedWait {
    /// The blocked packet.
    pub waiter: u32,
    /// Flat node id where the waiter is parked.
    pub node: u32,
    /// Output direction index of the starved VC.
    pub dir: u8,
    /// Virtual-channel index of the starved VC.
    pub vc: u8,
}

/// The packet at the front of one occupied directional input VC at
/// stop time — the occupancy side of [`BlockedWait`] resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VcFront {
    /// Flat node id owning the input VC.
    pub node: u32,
    /// Input port index (`Dir as usize` of the incoming link).
    pub port: u8,
    /// Virtual-channel index within the port.
    pub vc: u8,
    /// Packet whose flit is at the queue front.
    pub packet: u32,
}

/// The assembled post-mortem dumped when deadlock or drain-stall
/// detection fires.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Postmortem {
    /// Cycle the run stopped on.
    pub cycle: u64,
    /// Why it stopped.
    pub reason: Option<StopKind>,
    /// Every parked head at stop time, in shard then node order.
    pub stalled: Vec<StalledPacket>,
    /// The VC wait-for graph, in shard then node order.
    pub wait_edges: Vec<WaitEdge>,
    /// Packet ids on one directed cycle of the wait-for graph (empty
    /// when the graph is acyclic — e.g. a drain stall caused by
    /// congestion rather than deadlock).
    pub cycle_packets: Vec<u32>,
    /// The merged flight-recorder contents (most recent events per
    /// shard, concatenated in shard order).
    pub recent_events: Vec<TraceEvent>,
}

impl Postmortem {
    /// Renders a human-readable dump.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let reason = self.reason.map_or("unknown", |r| r.name());
        out.push_str(&format!(
            "post-mortem @ cycle {}: {} ({} parked heads, {} wait-for edges)\n",
            self.cycle,
            reason,
            self.stalled.len(),
            self.wait_edges.len()
        ));
        if self.cycle_packets.is_empty() {
            out.push_str("no cycle in the wait-for graph\n");
        } else {
            out.push_str("cyclic wait: ");
            for (i, p) in self.cycle_packets.iter().enumerate() {
                if i > 0 {
                    out.push_str(" -> ");
                }
                out.push_str(&format!("#{p}"));
            }
            out.push_str(&format!(" -> #{}\n", self.cycle_packets[0]));
        }
        for s in &self.stalled {
            out.push_str(&format!(
                "  parked #{} at node {} ({},{})->({},{}) class {} stalled {} born @{}\n",
                s.packet,
                s.node,
                s.src.0,
                s.src.1,
                s.dst.0,
                s.dst.1,
                s.class,
                s.stalled,
                s.generated_at
            ));
        }
        for e in &self.wait_edges {
            out.push_str(&format!(
                "  wait #{} -> #{} (node {} dir {} vc {})\n",
                e.waiter, e.holder, e.node, e.dir, e.vc
            ));
        }
        out
    }
}

/// Finds one directed cycle in the wait-for graph and returns the
/// packet ids on it (empty if the graph is acyclic).
///
/// Deterministic: vertices are visited in ascending packet-id order
/// and edges in input order, so the same graph always yields the same
/// witness.
pub(crate) fn find_cycle(edges: &[WaitEdge]) -> Vec<u32> {
    let mut verts: Vec<u32> = edges.iter().flat_map(|e| [e.waiter, e.holder]).collect();
    verts.sort_unstable();
    verts.dedup();
    let index = |p: u32| verts.binary_search(&p).expect("vertex indexed");
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); verts.len()];
    for e in edges {
        adj[index(e.waiter)].push(index(e.holder));
    }
    // Iterative DFS with tricolor marking; a back edge to a vertex on
    // the current stack closes a cycle.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; verts.len()];
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..verts.len() {
        if color[start] != WHITE {
            continue;
        }
        color[start] = GRAY;
        stack.push((start, 0));
        while let Some(top) = stack.len().checked_sub(1) {
            let (v, next) = stack[top];
            if next < adj[v].len() {
                stack[top].1 += 1;
                let w = adj[v][next];
                match color[w] {
                    WHITE => {
                        color[w] = GRAY;
                        stack.push((w, 0));
                    }
                    GRAY => {
                        // Unwind the stack from w to the top: that
                        // path plus the back edge is the cycle.
                        let pos = stack
                            .iter()
                            .position(|&(u, _)| u == w)
                            .expect("gray vertex is on the stack");
                        return stack[pos..].iter().map(|&(u, _)| verts[u]).collect();
                    }
                    _ => {}
                }
            } else {
                color[v] = BLACK;
                stack.pop();
            }
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(waiter: u32, holder: u32) -> WaitEdge {
        WaitEdge { waiter, holder, node: 0, dir: 0, vc: 0 }
    }

    #[test]
    fn acyclic_graphs_have_no_witness() {
        assert!(find_cycle(&[]).is_empty());
        assert!(find_cycle(&[edge(1, 2), edge(2, 3), edge(1, 3)]).is_empty());
    }

    #[test]
    fn a_two_cycle_is_found() {
        let cycle = find_cycle(&[edge(5, 9), edge(9, 5)]);
        assert_eq!(cycle, vec![5, 9]);
    }

    #[test]
    fn the_cycle_is_reported_not_the_tail_leading_into_it() {
        // 1 -> 2 -> 3 -> 4 -> 2: the witness is [2, 3, 4], not [1, ...].
        let cycle = find_cycle(&[edge(1, 2), edge(2, 3), edge(3, 4), edge(4, 2)]);
        assert_eq!(cycle, vec![2, 3, 4]);
    }

    #[test]
    fn self_loops_count_as_cycles() {
        assert_eq!(find_cycle(&[edge(3, 3)]), vec![3]);
    }

    #[test]
    fn render_names_the_cycle() {
        let pm = Postmortem {
            cycle: 1234,
            reason: Some(StopKind::Deadlock),
            stalled: vec![StalledPacket {
                packet: 5,
                node: 10,
                src: (0, 0),
                dst: (3, 3),
                class: 0,
                stalled: 44,
                generated_at: 100,
            }],
            wait_edges: vec![edge(5, 9), edge(9, 5)],
            cycle_packets: vec![5, 9],
            recent_events: Vec::new(),
        };
        let text = pm.render();
        assert!(text.contains("deadlock"));
        assert!(text.contains("#5 -> #9 -> #5"));
        assert!(text.contains("parked #5 at node 10"));
    }
}
