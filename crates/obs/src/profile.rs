//! Phase profiler: coarse scoped timing of the simulator's per-cycle
//! phases, accumulated per shard.
//!
//! The shard worker brackets each phase with `Instant` reads **only
//! when a probe is active** (`P::ACTIVE`), so the disabled fast path
//! never touches a clock. Wall-clock nanoseconds are inherently
//! non-deterministic; they live in the [`ObsReport`] only and never
//! feed back into simulation state, so determinism of the simulation
//! itself is untouched.
//!
//! [`ObsReport`]: crate::report::ObsReport

/// A per-cycle phase of the shard worker (or the route service).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Injection, routing decisions and switch allocation
    /// (`plan_and_grant`).
    Plan,
    /// Boundary-message exchange with neighbor shards.
    Boundary,
    /// Cycle commit: arrival/credit application and stats accounting.
    Commit,
    /// Blocked on the coordinator's control lane between windows (a
    /// worker thread only; an inline shard never waits, so 0 there).
    Fence,
}

impl Phase {
    /// All phases, in fixed report order.
    pub(crate) const ALL: [Phase; 4] = [Phase::Plan, Phase::Boundary, Phase::Commit, Phase::Fence];

    /// Stable lower-case name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Plan => "plan",
            Phase::Boundary => "boundary_sync",
            Phase::Commit => "commit",
            Phase::Fence => "fence",
        }
    }
}

/// Accumulated nanoseconds per phase for one shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    ns: [u64; Phase::ALL.len()],
}

impl PhaseProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `ns` nanoseconds to a phase.
    #[inline]
    pub(crate) fn add(&mut self, phase: Phase, ns: u64) {
        self.ns[phase as usize] += ns;
    }

    /// Accumulated nanoseconds for a phase.
    pub fn get(&self, phase: Phase) -> u64 {
        self.ns[phase as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_independently() {
        let mut p = PhaseProfile::new();
        p.add(Phase::Plan, 10);
        p.add(Phase::Plan, 5);
        p.add(Phase::Commit, 7);
        p.add(Phase::Fence, 3);
        assert_eq!(p.get(Phase::Plan), 15);
        assert_eq!(p.get(Phase::Boundary), 0);
        assert_eq!(p.get(Phase::Commit), 7);
        assert_eq!(p.get(Phase::Fence), 3);
        assert_eq!(Phase::ALL.map(|p| p as usize), [0, 1, 2, 3]);
        assert_eq!(Phase::Boundary.name(), "boundary_sync");
    }
}
