//! The wormhole-switched router fabric: input-buffered virtual
//! channels, credit-based flow control, and a per-cycle switch
//! allocator, with head-flit routing decided *per hop* by a
//! [`HopRouter`].
//!
//! ## Microarchitecture
//!
//! Every node is a router with five input ports — one per incoming mesh
//! direction plus a local injection port — and five output ports — one
//! per outgoing direction plus ejection. Directional input ports carry
//! `vcs` virtual channels of `vc_depth` flits each; the injection port
//! has a single channel (one network interface per core).
//!
//! The `vcs` channels of every output port are partitioned into
//! [`VcClass`]es: the topmost index is the *escape* class (up*/down*
//! spanning-forest traffic only) and the indices below it are
//! *adaptive* (usable by any compiled route). See [`crate::routing`]
//! for why this keeps the escape network deadlock-free, and why an
//! escape commitment made under an older epoch drains.
//!
//! Each cycle the switch allocator walks the output ports in fixed
//! order and grants at most one flit per output port and one per input
//! port (the crossbar constraint), round-robin over the requesting
//! `(input port, VC)` pairs for fairness. A head flit with no output
//! allocated yet asks the hop router for a decision — `(direction, VC
//! class)` candidates in preference order — and additionally acquires a
//! free downstream virtual channel *of the decided class* on its output
//! port (lowest free index within the class); the whole packet then
//! holds that channel until its tail passes — wormhole switching.
//! Credits mirror downstream buffer slots: a flit consumes one on link
//! traversal and the credit returns when the downstream router drains
//! the slot (a 2-cycle round trip, so `vc_depth >= 2` is needed to
//! stream at link rate).
//!
//! ## Storage
//!
//! A shard keeps its routers' state in flat arrays indexed by *local*
//! node (row-major within the band: global node id minus the band's
//! first), laid out so a grant reads little:
//!
//! * an input VC is a 5-byte control word (`route` + ring cursors) over
//!   a fixed ring of `vc_depth` slots in one zero-initialised slab; a
//!   slot is one `u64` holding the flit and, for a head flit, the
//!   handle of its packet's state. Rings no flit visits are never
//!   touched, so they cost no resident memory;
//! * traveling [`PacketState`]s live in a per-shard pool with a free
//!   list. A state is allocated when its head enters the shard
//!   (injection or boundary arrival), updated in place while the head
//!   hops inside the band, parked on the input VC (one handle per VC)
//!   while the packet drains through the ejection port, and released
//!   when the head leaves the band or the tail ejects. Beside each
//!   state the pool keeps the packet's route (a [`Head`]), which leaves
//!   with the state, so a waiting head's decision hashes nothing;
//! * credits sit apart from VC owners in a byte array, and a
//!   per-`(node, direction)` bitmask says which output VCs are owned:
//!   stepping reads and writes those two. The owner array itself (which
//!   packet holds the VC) is written at a worm's head and tail grants
//!   and read only by the post-mortem;
//! * the active set, staged arrivals and staged credit returns name local
//!   nodes plus a slot or VC; a neighbor is one edge-bit test and a
//!   per-direction index offset (`±1` / `± mesh width`) away, and a
//!   per-node coordinate table feeds [`HopRouter::decide`].
//!   Global node ids appear only in probes and [`BoundaryMsg`]s.
//!
//! What a grant touches: the router's occupancy word and round-robin
//! byte, the input VC's control word and one ring slot, then either
//! the output VC's credit and the port's free and owned mask words
//! plus one staged arrival (link) or the pooled state (ejecting head or
//! tail) — and one staged credit return. The free bit is derived from
//! what the grant already knows (did it allocate the VC, was this the
//! tail, is a credit left), not from an owner read. Head grants also
//! update the pooled state, and head and tail grants write the owner.
//!
//! ## Timing contract
//!
//! Flits injected at cycle `t` become visible to allocation at `t + 1`
//! (injection link); each router hop costs one cycle; ejection costs
//! one more (ejection link). Zero-load head latency is therefore
//! `hops + PIPELINE_DEPTH` ([`crate::PIPELINE_DEPTH`] = 2), and a
//! packet of `L` flits finishes `L - 1` cycles after its head.
//!
//! ## Event-driven stepping
//!
//! A router with no occupied input VC can grant nothing, so stepping
//! visits only *active* routers: one bit per node, set when a ring
//! fills and cleared by the visit that empties the router, walked in
//! ascending node order — the reference scan's order, so the staged
//! arrivals and credits commit in near memory order too. At the
//! paper-relevant injection rates (0.2%–5%) the fabric is over 95%
//! idle, and an idle router costs one bit.
//!
//! Most visits — about seven in ten on the loaded 64x64 RB2 fabric —
//! find exactly one occupied input VC (`occ & (occ - 1) == 0`). Nothing
//! competes with that slot's front flit, so the visit is straight-line:
//! look at the one slot, ask the hop router and pick a VC if it is an
//! unrouted head, grant it if it may move, return — no request masks,
//! no arbitration loop, no re-pick. The grant and the round-robin byte it
//! leaves are exactly what the general path below produces for a
//! single requester.
//!
//! With several occupants the per-cycle work is bitmask-driven:
//!
//! * the *occupancy mask* (one bit per `(input port, VC)` slot) feeds
//!   the switch allocator, so only occupied slots are examined;
//! * per output port, a *request mask* of the slots whose front flit
//!   wants that port this cycle — the grant is `first set bit at or
//!   after the round-robin pointer`;
//! * per `(output direction, VC class)`, a *free-VC mask* (bit set
//!   while the VC is unowned and credited) turns the lowest-free-VC
//!   probe in VC allocation into `trailing_zeros`.
//!
//! Request masks are planned once per router per cycle (one
//! [`HopRouter::decide`] call per parked head, its candidates kept in
//! per-shard scratch that is never cleared: only the slots the visit's
//! head mask names are read) and *replanned* for the still-pending
//! unrouted heads whenever a grant changes an output port's free-VC
//! mask — exactly the state a per-pass re-evaluation would have seen,
//! so the grant sequence is bit-identical to scan order (pinned by the
//! golden-equivalence suite in `crate::golden` against the retained
//! test-only scan-order reference stepper (`Shard::allocate_reference`),
//! which shares the grant and boundary commits but probes the owner
//! array, never the masks). Each visit ends by aging the heads it left
//! parked (escape patience), so a cycle is one pass.
//!
//! ## Sharded stepping and the boundary-exchange protocol
//!
//! The mesh is spatially partitioned into **row-band shards**
//! (`Shard::bands`): band `r` of `R` owns every column of rows
//! `[r*H/R, (r+1)*H/R)`, a contiguous range of node ids. (A two-column
//! tile grid was measured against bands at 2 and 4 shards and did not
//! separate from them: `BENCH/pr24-knobs.json`.) Each shard owns *all*
//! state of its nodes — rings, state pool, credits and owners,
//! round-robin pointers, bitmasks and active set — so two shards share
//! **no** mutable state and can step concurrently (`crate::sim` steps
//! band 0 on the coordinator's thread and every other band on a worker
//! thread of its own when [`SimConfig::threads`](crate::SimConfig) > 1).
//!
//! There is no global packet table: a packet's mutable state
//! ([`PacketState`] — `head_hop`, escape `mode`, `stalled` clock) and
//! its route **travel with its head flit**, in the pool of the shard
//! holding the head, by value inside a cross-shard arrival, and the
//! state finally to the
//! run loop in a [`Delivery`] when the tail ejects. Body and tail flits
//! carry nothing. Exactly one router holds a packet's head at any time,
//! so its state has exactly one owner — by construction, not by
//! locking.
//!
//! A cycle then runs in two phases with one synchronization point,
//! which is the *same* staged-commit boundary the sequential stepper
//! always had:
//!
//! 1. **Plan/grant** (parallel): every shard allocates its active
//!    routers and ages its parked heads. Grants whose link or credit
//!    return stays inside the shard are staged locally, exactly as
//!    before. Grants that cross a band edge — a `±Y` hop out of the
//!    shard's border rows, or a credit owed to an upstream router in
//!    the adjacent band — are appended to one of two **outboxes** (the
//!    band before, the band after) as [`BoundaryMsg`]s (`Arrival`
//!    carries the flit plus, for heads, the traveling [`Head`];
//!    `Credit` names the upstream output VC).
//! 2. **Exchange + commit**: each shard hands its outboxes to the two
//!    adjacent bands (a single hop crosses at most one band edge) and
//!    merges the inboxes into its staged
//!    arrival/credit lists, then commits the cycle boundary: arrivals
//!    land (activating their routers), credits return (refreshing
//!    free-VC bits). The apply order of inboxes is irrelevant: two
//!    same-cycle arrivals can never target the same input VC (wormhole
//!    allocation), and staged credits are commutative increments.
//!
//! No shard ever observes another shard's mid-cycle state: everything a
//! neighbor did this cycle arrives as staged messages applied at the
//! boundary, which is precisely how same-cycle grants at *different
//! routers* were already isolated in the sequential stepper. Stepping
//! is therefore **bit-identical at every shard count** — the
//! golden-equivalence suite (`crate::golden`) pins shard counts 1/2/4
//! against the scan-order reference stepper.
//!
//! ## Determinism
//!
//! Arrivals and credit returns are staged and committed at the cycle
//! boundary, so allocation at one router never observes another
//! router's same-cycle grants — which is why neither the visit order,
//! nor where aging runs, nor the shard count, nor a state's pool handle
//! can influence results. Hop-router decisions depend only on packet
//! and network state, so two runs with identical inputs are
//! bit-identical.

use std::ops::Range;

use meshpath_mesh::{Coord, Dir, HopSeq, Mesh};
#[cfg(test)]
use meshpath_obs::NoProbe;
use meshpath_obs::{BlockedWait, FabricProbe, GrantInfo, StalledPacket, VcFront, WaitEdge};

use crate::routing::{HopCandidates, HopDecision, HopRouter, VcClass};

/// Directional ports (index = `Dir as usize`: `+X, -X, +Y, -Y`).
const DIRS: usize = 4;
/// Input-port index of the local injection port.
const LOCAL_PORT: usize = 4;
/// Input ports per router.
const IN_PORTS: usize = 5;
/// Output-port index of the ejection port.
const EJECT_PORT: usize = 4;
/// Output ports per router.
const OUT_PORTS: usize = 5;
/// Upper bound on `(input port, VC)` slots per router — the occupancy
/// and request bitmasks pack one bit per slot into a `u64`.
const MAX_SLOTS: usize = 64;
/// Upper bound on VCs per port implied by `MAX_SLOTS` (and by the
/// per-direction free-VC masks being `u32`).
const MAX_VCS: usize = MAX_SLOTS / IN_PORTS;
/// Upper bound on `vc_depth`: the ring cursors of an [`InVc`] and the
/// per-output-VC credit counters are `u8`.
pub(crate) const MAX_VC_DEPTH: usize = u8::MAX as usize;

/// One flit on the wire. Packet ids are opaque tokens the run loop
/// allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Flit {
    /// Owning packet.
    pub packet: u32,
    /// First flit of the packet (makes routing + VC allocation).
    pub is_head: bool,
    /// Last flit (releases channels as it passes).
    pub is_tail: bool,
}

/// Per-packet state the fabric and the hop routers share. There is no
/// global packet table: this state **travels with the head flit** —
/// parked in the input VC holding the head, shipped inside cross-hop
/// (and cross-shard) arrivals, and returned to the driver in a
/// [`Delivery`] when the tail ejects. The endpoints plus the head's
/// progress are what a [`HopRouter`] needs to re-derive (or override)
/// the next hop locally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PacketState {
    /// Where the packet's route starts: its source, or the node of its
    /// last re-plan.
    pub src: Coord,
    /// Destination node (ejection test + tree-route target).
    pub dst: Coord,
    /// Links the head flit has crossed since `src` (the index into its
    /// route while on the adaptive class).
    pub head_hop: u32,
    /// Generation cycle (latency reference point).
    pub generated_at: u64,
    /// Flits in the packet.
    pub len: u32,
    /// The VC class the packet is committed to. Starts [`Adaptive`]
    /// (follow the compiled route); set to the escape class by the
    /// fabric when an escape VC is granted, after which the packet
    /// rides that class until delivery (or a publication drains it).
    ///
    /// [`Adaptive`]: VcClass::Adaptive
    pub mode: VcClass,
    /// Consecutive cycles the head has been parked without an output
    /// grant (escape-patience clock; reset on every grant).
    pub stalled: u32,
    /// The epoch of the packet's route (fault churn; always 0 without
    /// it): stamped at admission, and moved on by the re-plan of the
    /// first decision after a publication, so every `Route` decision
    /// leaves it current. From an escape commitment on, the epoch of
    /// the forest it committed on — a later publication drains it.
    pub epoch: u32,
    /// Set by an online router when the packet can no longer reach its
    /// destination (it sits on, or heads to, a node that failed after
    /// admission): the fabric drains it through the ejection port and
    /// the driver accounts it as `churn_killed` instead of delivered.
    pub killed: bool,
    /// The application flow this packet carries
    /// ([`NO_FLOW`](crate::source::NO_FLOW) for synthetic traffic).
    /// Travels with the head so the [`Delivery`] feedback can close the
    /// loop to a coordinator-side workload scheduler.
    pub flow: u32,
}

impl PacketState {
    /// A fresh packet of `len` flits from `src` to `dst` at epoch 0:
    /// admission stamps the current one.
    pub(crate) fn new(src: Coord, dst: Coord, generated_at: u64, len: u32) -> Self {
        PacketState {
            src,
            dst,
            head_hop: 0,
            generated_at,
            len,
            mode: VcClass::Adaptive,
            stalled: 0,
            epoch: 0,
            killed: false,
            flow: crate::source::NO_FLOW,
        }
    }
}

/// A completed packet: its id plus the final traveling state (latency
/// reference `generated_at`, final escape `mode`, …), reported by a
/// band's plan/grant phase when the tail clears the ejection port. The
/// delivery completes one cycle later — the ejection link; the run loop
/// adds that cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Delivery {
    /// The delivered packet.
    pub packet: u32,
    /// Its traveling state at ejection.
    pub state: PacketState,
}

/// What travels with a packet's head flit: its state and its route —
/// pooled in the band holding the head, carried by value in a
/// cross-band arrival, dropped when the tail ejects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Head {
    pub state: PacketState,
    /// The packet's route from `state.src` (see [`HopRouter::decide`]):
    /// compiled at admission and again only by a re-plan; `None` once
    /// no route leads on.
    pub route: Option<HopSeq>,
}

/// One cross-shard effect of a grant, exchanged between the plan/grant
/// phase and the commit phase (see the module docs on the
/// boundary-exchange protocol). All coordinates are global node ids.
#[derive(Clone, Debug)]
pub(crate) enum BoundaryMsg {
    /// A flit crossing a band edge into `node`'s input port `in_port`,
    /// downstream VC `vc`. Head flits carry their state and route.
    Arrival {
        /// Destination router (global node id, owned by the receiver).
        node: u32,
        /// Input port at the destination (`Dir as usize`).
        in_port: u8,
        /// Virtual channel within that port.
        vc: u8,
        /// The flit itself.
        flit: Flit,
        /// The traveling state and route (heads only).
        head: Option<Head>,
    },
    /// A credit returning to the upstream router `node`, output
    /// direction `dir`, VC `vc` (all owned by the receiver).
    Credit {
        /// Upstream router (global node id).
        node: u32,
        /// Output direction at the upstream router.
        dir: u8,
        /// Virtual channel within that output.
        vc: u8,
    },
}

/// An input virtual channel's control word: the output allocation held
/// by the packet currently draining through it and the cursors of its
/// flit ring (the ring's storage is the shard's `rings` slab).
#[derive(Clone, Copy, Debug, Default)]
struct InVc {
    /// `(output port, output vc)` held from head grant to tail grant.
    route: Option<(u8, u8)>,
    /// Ring index of the oldest queued flit.
    q_head: u8,
    /// Queued flits (`<= vc_depth`).
    q_len: u8,
}

/// One slot of an input VC's flit ring: the flit plus — for head flits —
/// the pool handle of the packet's traveling state, packed into one
/// word so the slab is a plain integer vector (`vec![0; n]` is a zeroed
/// allocation, so rings no flit ever visits cost no resident memory).
/// Packet id in bits `0..32`, state handle in bits `32..62`, `is_head`
/// at bit 62, `is_tail` at bit 63.
type RingSlot = u64;

const SLOT_HEAD: RingSlot = 1 << 62;
const SLOT_TAIL: RingSlot = 1 << 63;
/// Largest state-pool handle a [`RingSlot`] can carry.
const MAX_HANDLE: u32 = (1 << 30) - 1;

// The layout is the optimisation: a grant reads one control word and
// one ring slot. Keep it from silently regrowing.
const _: () = assert!(std::mem::size_of::<PacketState>() <= 48);
const _: () = assert!(std::mem::size_of::<RingSlot>() <= 16);
const _: () = assert!(std::mem::size_of::<InVc>() <= 8);

#[inline]
fn pack_slot(flit: Flit, handle: u32) -> RingSlot {
    debug_assert!(handle <= MAX_HANDLE);
    RingSlot::from(flit.packet)
        | RingSlot::from(handle) << 32
        | if flit.is_head { SLOT_HEAD } else { 0 }
        | if flit.is_tail { SLOT_TAIL } else { 0 }
}

#[inline]
fn slot_flit(word: RingSlot) -> Flit {
    Flit { packet: word as u32, is_head: word & SLOT_HEAD != 0, is_tail: word & SLOT_TAIL != 0 }
}

/// The state handle of a head flit's slot (meaningless for body and
/// tail flits).
#[inline]
fn slot_handle(word: RingSlot) -> usize {
    ((word >> 32) as u32 & MAX_HANDLE) as usize
}

/// The traveling [`Head`]s resident in one shard: one per head flit
/// queued or staged here, plus one per eject-draining input VC.
/// Handles are recycled through a free list, so the pool's size tracks
/// the shard's peak head count, not its traffic volume.
#[derive(Default)]
struct StatePool {
    entries: Vec<Head>,
    free: Vec<u32>,
}

impl StatePool {
    fn alloc(&mut self, entry: Head) -> u32 {
        if let Some(h) = self.free.pop() {
            self.entries[h as usize] = entry;
            return h;
        }
        let h = self.entries.len() as u32;
        assert!(h <= MAX_HANDLE, "state pool outgrew the ring-slot handle field");
        self.entries.push(entry);
        h
    }

    fn release(&mut self, handle: usize) -> Head {
        self.free.push(handle as u32);
        let entry = &mut self.entries[handle];
        Head { state: entry.state, route: entry.route.take() }
    }
}

/// A flit staged for the cycle boundary: it lands at the tail of ring
/// `(lnode, slot)`.
#[derive(Clone, Copy)]
struct Arrival {
    lnode: u32,
    slot: u8,
    word: RingSlot,
}

/// A credit staged for the cycle boundary: it returns to output VC
/// `(lnode, dir, vc)`.
#[derive(Clone, Copy)]
struct CreditReturn {
    lnode: u32,
    dir: u8,
    vc: u8,
}

/// What one cycle's plan/grant phase did in one band.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct StepReport {
    /// Flits that traversed the switch (progress indicator).
    pub(crate) moved: u64,
    /// Flits consumed by ejection ports this cycle.
    pub(crate) flits_ejected: u64,
    /// Packets that committed to an escape class this cycle (a
    /// per-cycle delta, so cycles a window runs past the stop decision
    /// never pollute the run total).
    pub(crate) escape_entries: u64,
}

/// One row-band shard of the fabric: every router of a contiguous run
/// of rows, with all of its buffers, credits, allocator state and
/// active set — plus staged arrivals/credits and one outbox of
/// [`BoundaryMsg`]s per adjacent band. `Send`, so the run loop can move
/// shards onto worker threads.
///
/// Everything inside is addressed by *local* node index (global node
/// id minus the band's first); global node ids appear only in
/// [`BoundaryMsg`]s and probe calls.
pub(crate) struct Shard {
    mesh: Mesh,
    vcs: usize,
    vc_depth: usize,
    /// Global node ids `[start, end)` of the rows this band owns.
    start: usize,
    end: usize,
    /// Mesh coordinate of every local node.
    coords: Vec<Coord>,
    /// Per local node, bit `dir` is set when the neighbor in that
    /// direction is not this band's (a band or mesh edge).
    edge: Vec<u8>,
    /// Local-index offset of the in-band neighbor in each direction:
    /// `±1` along X, `± mesh width` along Y.
    step: [isize; DIRS],
    /// Input port of every `(input port, VC)` slot.
    slot_port: [u8; MAX_SLOTS],
    /// `[local node][in_port][vc]` flattened.
    in_vcs: Vec<InVc>,
    /// The flit rings: `vc_depth` slots per input VC, at
    /// `in_vc index * vc_depth`.
    rings: Vec<RingSlot>,
    /// Per input VC, the state handle of the packet draining through
    /// the ejection port (meaningful only while the VC's `route` is the
    /// ejection port: the head flit is gone, the state waits for the
    /// tail).
    ejecting: Vec<u32>,
    /// Traveling states of the packets whose head is in this shard.
    pool: StatePool,
    /// Free downstream buffer slots per output VC, `[local node]
    /// [out_dir][vc]` flattened — all the plan phase reads of an
    /// output VC.
    credits: Vec<u8>,
    /// Wormhole allocation per output VC (same indexing): the packet
    /// holding it from head grant to tail grant. Written at those two
    /// grants and read only by the post-mortem (and the reference
    /// stepper's linear probe): stepping asks `owned` instead.
    owners: Vec<Option<u32>>,
    /// Per-`(local node, dir)` ownership bitmask: bit `vc` is set while
    /// `owners` holds a packet for that output VC.
    owned: Vec<u32>,
    /// Round-robin grant pointers, `[local node][out_port]` flattened.
    rr: Vec<u8>,
    /// Staged link/injection arrivals, applied at the cycle boundary.
    arrivals: Vec<Arrival>,
    /// Staged credit returns, applied at the boundary.
    credit_returns: Vec<CreditReturn>,
    /// Boundary messages for the band before (`-Y`) and the band after
    /// (`+Y`).
    out_boxes: [Vec<BoundaryMsg>; 2],
    /// Flits currently inside this shard (buffers + staged arrivals).
    pub(crate) in_flight: u64,
    /// Per-local-node occupancy bitmask: bit `in_port * vcs + vc` is
    /// set while that input VC's ring is non-empty.
    occ_mask: Vec<u64>,
    /// Per-`(local node, dir)` free-VC bitmask: bit `vc` is set while
    /// the output VC is allocatable (`owner == None && credits > 0`).
    free_mask: Vec<u32>,
    /// VC-index masks of the two [`VcClass`]es.
    class_masks: [u32; 2],
    /// Active routers, one bit per local node: set when a ring of the
    /// node becomes non-empty, cleared by the visit that leaves it empty.
    active: Vec<u64>,
    /// Plan-phase scratch of the router being allocated, per slot: the
    /// candidate list of its parked head and the `(VC, class)` it would
    /// allocate. Only entries named by the visit's head mask are read,
    /// so nothing is cleared between visits.
    head_cands: [HopCandidates; MAX_SLOTS],
    head_pick: [(u8, VcClass); MAX_SLOTS],
}

impl Shard {
    /// The fabric over `mesh`, as `bands` row-band shards (clamped to
    /// the mesh height; see the module docs on the boundary-exchange
    /// protocol): band `r` of `R` owns rows `[r*H/R, (r+1)*H/R)`. Every
    /// directional input port carries `vcs` virtual channels of
    /// `vc_depth` flits, the top one of which is the reserved escape
    /// class.
    ///
    /// # Panics
    /// Panics when `vcs` is below 2 (the escape channel would leave no
    /// adaptive one), when `vc_depth` is zero, when `vcs`
    /// exceeds `MAX_VCS` = 12 (the occupancy/request bitmasks pack
    /// `IN_PORTS * vcs` slots into a `u64`), or when `vc_depth` exceeds
    /// `MAX_VC_DEPTH` = 255 (the flit-ring cursors and credit counters
    /// are `u8`).
    pub(crate) fn bands(mesh: Mesh, vcs: usize, vc_depth: usize, bands: usize) -> Vec<Shard> {
        assert!(vcs >= 2, "escape class must leave at least one adaptive VC");
        assert!(vcs <= MAX_VCS, "at most {MAX_VCS} VCs per port (bitmask width)");
        assert!(vc_depth > 0, "need at least one buffer slot per VC");
        assert!(
            vc_depth <= MAX_VC_DEPTH,
            "vc_depth = {vc_depth} exceeds the flit-ring cursor limit of {MAX_VC_DEPTH} slots per VC"
        );
        let height = mesh.height() as usize;
        let bands = bands.clamp(1, height);
        (0..bands)
            .map(|r| {
                let rows = (r * height / bands)..((r + 1) * height / bands);
                Shard::new(mesh, vcs, vc_depth, rows)
            })
            .collect()
    }

    fn new(mesh: Mesh, vcs: usize, vc_depth: usize, rows: Range<usize>) -> Self {
        let width = mesh.width() as usize;
        let nodes = width * (rows.end - rows.start);
        let bits = |r: Range<usize>| ((1u32 << r.end) - 1) & !((1u32 << r.start) - 1);
        let coords: Vec<Coord> = rows
            .clone()
            .flat_map(|y| (0..width).map(move |x| Coord::new(x as i32, y as i32)))
            .collect();
        let edge = coords
            .iter()
            .map(|c| {
                let (x, y) = (c.x as usize, c.y as usize);
                u8::from(x + 1 == width) << Dir::PlusX as usize
                    | u8::from(x == 0) << Dir::MinusX as usize
                    | u8::from(y + 1 == rows.end) << Dir::PlusY as usize
                    | u8::from(y == rows.start) << Dir::MinusY as usize
            })
            .collect();
        let stride = width as isize;
        let mut slot_port = [0u8; MAX_SLOTS];
        for (slot, port) in slot_port.iter_mut().enumerate().take(IN_PORTS * vcs) {
            *port = (slot / vcs) as u8;
        }
        let mut shard = Shard {
            mesh,
            vcs,
            vc_depth,
            start: rows.start * width,
            end: rows.end * width,
            coords,
            edge,
            step: [1, -1, stride, -stride],
            slot_port,
            in_vcs: vec![InVc::default(); nodes * IN_PORTS * vcs],
            rings: vec![0; nodes * IN_PORTS * vcs * vc_depth],
            ejecting: vec![0; nodes * IN_PORTS * vcs],
            pool: StatePool::default(),
            credits: vec![vc_depth as u8; nodes * DIRS * vcs],
            owners: vec![None; nodes * DIRS * vcs],
            owned: vec![0; nodes * DIRS],
            rr: vec![0; nodes * OUT_PORTS],
            arrivals: Vec::new(),
            credit_returns: Vec::new(),
            out_boxes: [Vec::new(), Vec::new()],
            in_flight: 0,
            occ_mask: vec![0; nodes],
            free_mask: vec![bits(0..vcs); nodes * DIRS],
            class_masks: [0; 2],
            active: vec![0; nodes.div_ceil(64)],
            head_cands: [HopCandidates::new(); MAX_SLOTS],
            head_pick: [(0, VcClass::Adaptive); MAX_SLOTS],
        };
        for class in [VcClass::Adaptive, VcClass::EscapeTree] {
            shard.class_masks[class as usize] = bits(shard.class_range(class));
        }
        shard
    }

    /// The global node ids `[start, end)` this band owns.
    pub(crate) fn node_range(&self) -> Range<usize> {
        self.start..self.end
    }

    /// Number of nodes this band owns.
    #[inline]
    fn nodes(&self) -> usize {
        self.coords.len()
    }

    /// The band's shorter side in nodes (its rows, or the mesh width).
    pub(crate) fn short_edge(&self) -> usize {
        let width = self.mesh.width() as usize;
        (self.nodes() / width).min(width)
    }

    #[inline]
    pub(crate) fn contains_node(&self, node: usize) -> bool {
        (self.start..self.end).contains(&node)
    }

    /// Local (band-internal) index of an owned global node id.
    #[inline]
    pub(crate) fn local_of(&self, node: usize) -> usize {
        debug_assert!(self.contains_node(node), "local index of an unowned node");
        node - self.start
    }

    /// Global node id of a local (band-internal) index.
    #[inline]
    fn global_of(&self, lnode: usize) -> u32 {
        (self.start + lnode) as u32
    }

    /// Local index of the neighbor of `lnode` in direction `dir` when
    /// this band owns it, or `None` when the hop leaves the band: one
    /// edge-bit test plus the direction's index offset.
    #[inline]
    fn local_neighbor(&self, lnode: usize, dir: Dir) -> Option<usize> {
        let inside = self.edge[lnode] & (1 << dir as usize) == 0;
        inside.then(|| lnode.wrapping_add_signed(self.step[dir as usize]))
    }

    #[inline]
    fn in_idx(&self, lnode: usize, port: usize, vc: usize) -> usize {
        (lnode * IN_PORTS + port) * self.vcs + vc
    }

    #[inline]
    fn out_idx(&self, lnode: usize, dir: usize, vc: usize) -> usize {
        (lnode * DIRS + dir) * self.vcs + vc
    }

    /// The oldest queued flit's slot of input VC `in_idx`, if any.
    #[inline]
    fn front(&self, in_idx: usize) -> Option<RingSlot> {
        let v = self.in_vcs[in_idx];
        (v.q_len > 0).then(|| self.rings[in_idx * self.vc_depth + v.q_head as usize])
    }

    /// The queued slots of input VC `in_idx`, oldest first (test
    /// walks only — the stepping path never iterates a ring).
    #[cfg(test)]
    fn queued(&self, in_idx: usize) -> impl Iterator<Item = RingSlot> + '_ {
        let v = self.in_vcs[in_idx];
        let depth = self.vc_depth;
        (0..v.q_len as usize)
            .map(move |k| self.rings[in_idx * depth + (v.q_head as usize + k) % depth])
    }

    /// VC index range of a class on an output port: the escape class is
    /// the topmost channel.
    #[inline]
    fn class_range(&self, class: VcClass) -> Range<usize> {
        match class {
            VcClass::Adaptive => 0..self.vcs - 1,
            VcClass::EscapeTree => self.vcs - 1..self.vcs,
        }
    }

    /// Lowest free (unowned, credited) VC of `class` on `(lnode, dir)`,
    /// resolved from the free-VC bitmask in two instructions.
    #[inline]
    fn free_vc(&self, lnode: usize, dir: usize, class: VcClass) -> Option<usize> {
        let m = self.free_mask[lnode * DIRS + dir] & self.class_masks[class as usize];
        (m != 0).then(|| m.trailing_zeros() as usize)
    }

    /// The first candidate with an allocatable VC this cycle:
    /// `(out port, out vc, class)`, or `None` (the head waits).
    #[inline]
    fn pick_candidate(
        &self,
        lnode: usize,
        cands: &HopCandidates,
    ) -> Option<(usize, usize, VcClass)> {
        cands.iter().find_map(|c| {
            self.free_vc(lnode, c.dir as usize, c.class).map(|v| (c.dir as usize, v, c.class))
        })
    }

    /// The outbox for a hop out of this band in direction `dir`: `-Y`
    /// leads to the band before, `+Y` to the band after, and a hop along
    /// X never leaves a band.
    #[inline]
    fn outbox(&mut self, dir: Dir) -> &mut Vec<BoundaryMsg> {
        debug_assert!(
            match dir {
                Dir::MinusY => self.start > 0,
                Dir::PlusY => self.end < self.mesh.len(),
                Dir::PlusX | Dir::MinusX => false,
            },
            "boundary message off the mesh"
        );
        &mut self.out_boxes[usize::from(dir == Dir::PlusY)]
    }

    /// Stages one flit onto local node `lnode`'s injection channel
    /// (head flits carry their state and route); it becomes visible to
    /// allocation next cycle.
    pub(crate) fn inject(&mut self, lnode: usize, flit: Flit, head: Option<Head>) {
        debug_assert_eq!(flit.is_head, head.is_some(), "heads travel with their state");
        let handle = head.map_or(0, |h| self.pool.alloc(h));
        self.arrivals.push(Arrival {
            lnode: lnode as u32,
            slot: (LOCAL_PORT * self.vcs) as u8,
            word: pack_slot(flit, handle),
        });
        self.in_flight += 1;
    }

    /// Occupancy of local node `lnode`'s injection channel (applied
    /// flits only).
    pub(crate) fn local_occupancy(&self, lnode: usize) -> usize {
        self.in_vcs[self.in_idx(lnode, LOCAL_PORT, 0)].q_len as usize
    }

    /// Drains the outboxes (called between the plan/grant phase and
    /// commit): the messages for the band before, then those for the
    /// band after.
    pub(crate) fn take_outboxes(&mut self) -> [Vec<BoundaryMsg>; 2] {
        std::mem::take(&mut self.out_boxes)
    }

    /// Merges a neighbor's boundary messages into this shard's staged
    /// arrival/credit lists (before commit). An arriving head's state
    /// and route move into this shard's pool.
    pub(crate) fn apply_boundary(&mut self, msgs: Vec<BoundaryMsg>) {
        for m in msgs {
            match m {
                BoundaryMsg::Arrival { node, in_port, vc, flit, head } => {
                    debug_assert!(self.contains_node(node as usize), "misrouted boundary arrival");
                    debug_assert_eq!(flit.is_head, head.is_some(), "heads travel with their state");
                    let lnode = self.local_of(node as usize) as u32;
                    self.in_flight += 1;
                    let handle = head.map_or(0, |h| self.pool.alloc(h));
                    self.arrivals.push(Arrival {
                        lnode,
                        slot: (in_port as usize * self.vcs + vc as usize) as u8,
                        word: pack_slot(flit, handle),
                    });
                }
                BoundaryMsg::Credit { node, dir, vc } => {
                    debug_assert!(self.contains_node(node as usize), "misrouted boundary credit");
                    let lnode = self.local_of(node as usize) as u32;
                    self.credit_returns.push(CreditReturn { lnode, dir, vc });
                }
            }
        }
    }

    /// Plan/grant phase over this shard's active routers in ascending
    /// node order (see the module docs on event-driven stepping): each
    /// visit allocates one router, then ages the heads it left parked.
    pub(crate) fn allocate_active<P: FabricProbe>(
        &mut self,
        router: &mut dyn HopRouter,
        report: &mut StepReport,
        deliveries: &mut Vec<Delivery>,
        probe: &mut P,
    ) {
        for w in 0..self.active.len() {
            let mut bits = self.active[w];
            while bits != 0 {
                let lnode = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // (A reference step may leave an emptied router's bit set.)
                if self.occ_mask[lnode] != 0 {
                    self.allocate_node(lnode, router, report, deliveries, probe);
                    self.age_parked(lnode, probe);
                }
                if self.occ_mask[lnode] == 0 {
                    self.active[w] &= !(1 << (lnode % 64));
                }
            }
        }
    }

    /// Switch allocation for one active router. With a single occupied
    /// input VC — most visits — nothing competes with its front flit,
    /// so there is nothing to arbitrate: it moves if it may. Otherwise:
    /// plan what every occupied input VC requests this cycle, then
    /// grant each output port round-robin from its request mask.
    fn allocate_node<P: FabricProbe>(
        &mut self,
        lnode: usize,
        router: &mut dyn HopRouter,
        report: &mut StepReport,
        deliveries: &mut Vec<Delivery>,
        probe: &mut P,
    ) {
        let vcs = self.vcs;
        let in_base = lnode * IN_PORTS * vcs;
        let occ = self.occ_mask[lnode];
        debug_assert!(occ != 0, "only active routers are visited");
        if occ & (occ - 1) == 0 {
            // The grant, and the round-robin byte it leaves, are
            // exactly what the phases below produce for one requester.
            let slot = occ.trailing_zeros() as usize;
            let in_idx = in_base + slot;
            let v = self.in_vcs[in_idx];
            let (out_port, link) = match v.route {
                Some((p, ov)) if (p as usize) != EJECT_PORT => {
                    if self.credits[self.out_idx(lnode, p as usize, ov as usize)] == 0 {
                        return;
                    }
                    (p as usize, Some((ov as usize, None)))
                }
                Some(_) => (EJECT_PORT, None),
                None => {
                    let word = self.rings[in_idx * self.vc_depth + v.q_head as usize];
                    debug_assert!(word & SLOT_HEAD != 0, "body flit at head of an unrouted VC");
                    let pk = &mut self.pool.entries[slot_handle(word)];
                    match router.decide(self.coords[lnode], &mut pk.state, &mut pk.route) {
                        HopDecision::Eject => (EJECT_PORT, None),
                        HopDecision::Route(candidates) => {
                            match self.pick_candidate(lnode, &candidates) {
                                Some((port, ov, class)) => (port, Some((ov, Some(class)))),
                                None => return,
                            }
                        }
                    }
                }
            };
            self.commit_grant(lnode, slot, out_port, link, report, deliveries, probe);
            return;
        }
        let here = self.coords[lnode];

        // Phase 1 — plan. For every occupied slot, which output port
        // does its queue-head flit want (request masks), and — for
        // unrouted heads — which (VC, class) would it allocate
        // (`head_pick`). Heads keep their full candidate list
        // (`head_cands`) so they can re-pick after a grant changes VC
        // availability.
        let mut requests = [0u64; OUT_PORTS];
        let mut head_mask = 0u64;
        let mut m = occ;
        while m != 0 {
            let slot = m.trailing_zeros() as usize;
            m &= m - 1;
            let in_idx = in_base + slot;
            let v = self.in_vcs[in_idx];
            match v.route {
                // Body/tail of a routed worm: follow the held VC, gated
                // on a credit.
                Some((p, ov)) if (p as usize) != EJECT_PORT => {
                    if self.credits[self.out_idx(lnode, p as usize, ov as usize)] > 0 {
                        requests[p as usize] |= 1 << slot;
                    }
                }
                Some(_) => requests[EJECT_PORT] |= 1 << slot,
                // Unrouted head: ask the hop router (once per cycle).
                None => {
                    let word = self.rings[in_idx * self.vc_depth + v.q_head as usize];
                    debug_assert!(word & SLOT_HEAD != 0, "body flit at head of an unrouted VC");
                    let pk = &mut self.pool.entries[slot_handle(word)];
                    match router.decide(here, &mut pk.state, &mut pk.route) {
                        HopDecision::Eject => requests[EJECT_PORT] |= 1 << slot,
                        HopDecision::Route(candidates) => {
                            head_mask |= 1 << slot;
                            self.head_cands[slot] = candidates;
                            // First candidate with an allocatable VC
                            // this cycle wins; none => the head waits.
                            if let Some((port, ov, class)) = self.pick_candidate(lnode, &candidates)
                            {
                                requests[port] |= 1 << slot;
                                self.head_pick[slot] = (ov as u8, class);
                            }
                        }
                    }
                }
            }
        }

        // Phase 2 — grant. One flit per output port, one per input port
        // (the crossbar constraint, enforced through `usable`),
        // round-robin from each port's request mask.
        let mut usable = !0u64;
        for out_port in 0..OUT_PORTS {
            let cand = requests[out_port] & usable;
            if cand == 0 {
                continue;
            }
            // The pointer is `last granted slot + 1 <= slots < 64`, and
            // no request bit lies at or above `slots`: a pointer at the
            // end wraps through the empty `hi`.
            let start = self.rr[lnode * OUT_PORTS + out_port];
            let hi = cand & (!0u64 << start);
            let slot = if hi != 0 { hi.trailing_zeros() } else { cand.trailing_zeros() } as usize;
            let link = match self.in_vcs[in_base + slot].route {
                Some((p, ov)) if (p as usize) != EJECT_PORT => {
                    debug_assert_eq!(p as usize, out_port);
                    Some((ov as usize, None))
                }
                Some(_) => None,
                None => {
                    let (ov, class) = self.head_pick[slot];
                    if out_port == EJECT_PORT {
                        None
                    } else {
                        Some((ov as usize, Some(class)))
                    }
                }
            };
            let freed = self.commit_grant(lnode, slot, out_port, link, report, deliveries, probe);
            usable &= !(((1u64 << vcs) - 1) << (self.slot_port[slot] as usize * vcs));
            if freed {
                // A VC on `out_port` was allocated or released:
                // still-pending unrouted heads re-pick their first
                // allocatable candidate — exactly the state a per-pass
                // re-evaluation (the reference stepper) would see.
                let mut hm = head_mask & usable;
                while hm != 0 {
                    let s = hm.trailing_zeros() as usize;
                    hm &= hm - 1;
                    for r in requests.iter_mut() {
                        *r &= !(1u64 << s);
                    }
                    if let Some((port, ov, class)) = self.pick_candidate(lnode, &self.head_cands[s])
                    {
                        requests[port] |= 1 << s;
                        self.head_pick[s] = (ov as u8, class);
                    }
                }
            }
        }
    }

    /// Executes one grant: pops the flit, maintains the occupancy mask,
    /// advances the round-robin pointer, stages the upstream credit
    /// (locally or as a boundary message) and either consumes the flit
    /// at the ejection port or forwards it across the link. `link` is
    /// `None` for ejection and `Some((out_vc, newly_allocated_class))`
    /// for a link grant. Returns whether the grant flipped a free-VC
    /// bit on `out_port`.
    #[allow(clippy::too_many_arguments)]
    fn commit_grant<P: FabricProbe>(
        &mut self,
        lnode: usize,
        slot: usize,
        out_port: usize,
        link: Option<(usize, Option<VcClass>)>,
        report: &mut StepReport,
        deliveries: &mut Vec<Delivery>,
        probe: &mut P,
    ) -> bool {
        let vcs = self.vcs;
        let in_port = self.slot_port[slot] as usize;
        let vc = slot - in_port * vcs;
        let in_idx = lnode * IN_PORTS * vcs + slot;
        let v = &mut self.in_vcs[in_idx];
        assert!(v.q_len > 0, "granted slots are occupied");
        let word = self.rings[in_idx * self.vc_depth + v.q_head as usize];
        v.q_head = if v.q_head as usize + 1 == self.vc_depth { 0 } else { v.q_head + 1 };
        v.q_len -= 1;
        if v.q_len == 0 {
            self.occ_mask[lnode] &= !(1u64 << slot);
        }
        let flit = slot_flit(word);
        self.rr[lnode * OUT_PORTS + out_port] = (slot + 1) as u8;
        report.moved += 1;

        // Credit back to the upstream router that feeds this input VC
        // (none for the local injection port). Upstream routers in an
        // adjacent band get theirs as a boundary message.
        if in_port != LOCAL_PORT {
            let to_upstream = Dir::ALL[in_port];
            let dir = to_upstream.opposite() as u8;
            match self.local_neighbor(lnode, to_upstream) {
                Some(up) => {
                    self.credit_returns.push(CreditReturn { lnode: up as u32, dir, vc: vc as u8 })
                }
                None => {
                    let node = self.mesh.id(self.coords[lnode].step(to_upstream)).0;
                    self.outbox(to_upstream).push(BoundaryMsg::Credit { node, dir, vc: vc as u8 });
                }
            }
        }

        if out_port == EJECT_PORT {
            self.in_flight -= 1;
            report.flits_ejected += 1;
            if flit.is_head {
                // The state outlives its head flit: park the handle on
                // the VC until the tail drains.
                let handle = slot_handle(word);
                self.in_vcs[in_idx].route = Some((EJECT_PORT as u8, 0));
                self.ejecting[in_idx] = handle as u32;
                self.pool.entries[handle].state.stalled = 0;
            }
            if flit.is_tail {
                self.in_vcs[in_idx].route = None;
                let state = self.pool.release(self.ejecting[in_idx] as usize).state;
                deliveries.push(Delivery { packet: flit.packet, state });
                // A churn-killed worm drains through the ejection port
                // like a delivery, but the lifecycle event is a drop.
                if P::ACTIVE {
                    if state.killed {
                        probe.dropped(self.global_of(lnode), flit.packet);
                    } else {
                        probe.delivered(self.global_of(lnode), flit.packet);
                    }
                }
            }
            false
        } else {
            let (ov, new_class) = link.expect("links always carry a VC pick");
            let out_idx = self.out_idx(lnode, out_port, ov);
            // A granted head's traveling state moves on with it: bump
            // the hop count, reset the patience clock, and record an
            // escape commitment when the granted VC is an escape one.
            let mut grant_stalled = 0u32;
            let mut entered_escape = false;
            if flit.is_head {
                let st = &mut self.pool.entries[slot_handle(word)].state;
                grant_stalled = st.stalled;
                st.head_hop += 1;
                st.stalled = 0;
                if let Some(class) = new_class {
                    if class != VcClass::Adaptive && st.mode == VcClass::Adaptive {
                        st.mode = class;
                        report.escape_entries += 1;
                        entered_escape = true;
                    }
                }
            }
            if P::ACTIVE {
                let node = self.global_of(lnode);
                probe.link_flit(node, out_port as u8);
                if flit.is_head {
                    probe.head_grant(GrantInfo {
                        node,
                        packet: flit.packet,
                        dir: out_port as u8,
                        vc: ov as u8,
                        class: new_class.map_or(0, |c| c as u8),
                        fresh_vc: new_class.is_some(),
                        stalled: grant_stalled,
                    });
                }
                if entered_escape {
                    probe.escape_entered(node, flit.packet);
                }
            }
            // The wormhole allocation: taken by a head's fresh pick,
            // held by the worm's later flits, released by its tail.
            let port = lnode * DIRS + out_port;
            let bit = 1u32 << ov;
            if new_class.is_some() {
                self.owners[out_idx] = Some(flit.packet);
                self.owned[port] |= bit;
            }
            self.credits[out_idx] -= 1;
            if flit.is_tail {
                self.owners[out_idx] = None;
                self.owned[port] &= !bit;
                self.in_vcs[in_idx].route = None;
            } else {
                self.in_vcs[in_idx].route = Some((out_port as u8, ov as u8));
            }
            // The VC's free bit (unowned and credited) from what this
            // grant knows, no owner read: it was set iff this grant
            // allocated the VC (a head picks only free ones, later
            // flits ride an owned one) and is set now iff the tail just
            // released it with a credit to spare.
            let now_free = flit.is_tail && self.credits[out_idx] > 0;
            if now_free {
                self.free_mask[port] |= bit;
            } else {
                self.free_mask[port] &= !bit;
            }
            let freed = now_free != new_class.is_some();
            let dir = Dir::ALL[out_port];
            let next_in = dir.opposite() as usize;
            match self.local_neighbor(lnode, dir) {
                // In-band hop: the state stays in the pool and the slot
                // word (flit + handle) is all that moves.
                Some(next) => self.arrivals.push(Arrival {
                    lnode: next as u32,
                    slot: (next_in * vcs + ov) as u8,
                    word,
                }),
                // The flit leaves this shard: hand it (and, for heads,
                // the traveling state and route) to the adjacent band.
                None => {
                    self.in_flight -= 1;
                    let head = flit.is_head.then(|| self.pool.release(slot_handle(word)));
                    let node = self.mesh.id(self.coords[lnode].step(dir)).0;
                    self.outbox(dir).push(BoundaryMsg::Arrival {
                        node,
                        in_port: next_in as u8,
                        vc: ov as u8,
                        flit,
                        head,
                    });
                }
            }
            freed
        }
    }

    /// Escape-patience clock: the heads `lnode` still holds parked
    /// without an output after its allocation age by one (arrivals are
    /// staged, so no other router's grant changes what this reads).
    fn age_parked<P: FabricProbe>(&mut self, lnode: usize, probe: &mut P) {
        let in_base = lnode * IN_PORTS * self.vcs;
        let mut m = self.occ_mask[lnode];
        while m != 0 {
            let in_idx = in_base + m.trailing_zeros() as usize;
            m &= m - 1;
            let v = self.in_vcs[in_idx];
            if v.route.is_some() {
                continue;
            }
            let word = self.rings[in_idx * self.vc_depth + v.q_head as usize];
            if word & SLOT_HEAD != 0 {
                let st = &mut self.pool.entries[slot_handle(word)].state;
                st.stalled += 1;
                let stalled = st.stalled;
                if P::ACTIVE {
                    probe.head_stalled(self.global_of(lnode), word as u32, stalled);
                }
            }
        }
    }

    /// Records a per-node VC-occupancy sample for every router with at
    /// least one occupied input VC. Called at `stats_window` boundaries
    /// when a probe is active; pure observation.
    pub(crate) fn sample_occupancy<P: FabricProbe>(&self, probe: &mut P) {
        for (lnode, m) in self.occ_mask.iter().enumerate() {
            if *m != 0 {
                probe.occupancy_sample(self.global_of(lnode), m.count_ones());
            }
        }
    }

    /// Post-mortem walk after a wedged stop. Two kinds of record come
    /// out of it:
    ///
    /// * every parked head (an occupied input VC whose queue front is
    ///   an unrouted head flit) re-asks the router for its candidates
    ///   and reports what each candidate VC is blocked on — a direct
    ///   wait-for edge `waiter -> holder` when the VC is owned by
    ///   another worm, or a `BlockedWait` when the VC is unowned but
    ///   credit-starved (the previous worm's tail passed; its flits
    ///   still fill the downstream buffer);
    /// * the packet at the front of every occupied directional input
    ///   VC (`VcFront`), which is how report assembly resolves
    ///   `BlockedWait`s — the downstream buffer may belong to another
    ///   shard, so the join happens there, not here.
    ///
    /// A directed cycle among the resolved edges is the
    /// wormhole-deadlock witness.
    pub(crate) fn collect_wait_graph<P: FabricProbe>(
        &self,
        router: &mut dyn HopRouter,
        probe: &mut P,
    ) {
        let slots = IN_PORTS * self.vcs;
        for lnode in 0..self.nodes() {
            let node = self.global_of(lnode);
            let here = self.coords[lnode];
            let mut m = self.occ_mask[lnode];
            while m != 0 {
                let slot = m.trailing_zeros() as usize;
                m &= m - 1;
                let port = self.slot_port[slot] as usize;
                let in_vc = slot - port * self.vcs;
                let in_idx = lnode * slots + slot;
                let Some(word) = self.front(in_idx) else { continue };
                let f = slot_flit(word);
                if port != LOCAL_PORT {
                    probe.vc_front(VcFront {
                        node,
                        port: port as u8,
                        vc: in_vc as u8,
                        packet: f.packet,
                    });
                }
                if self.in_vcs[in_idx].route.is_some() || !f.is_head {
                    continue;
                }
                // Copy the state and its route: the postmortem must not
                // perturb them.
                let Head { state: mut pk, mut route } =
                    self.pool.entries[slot_handle(word)].clone();
                probe.stalled_packet(StalledPacket {
                    packet: f.packet,
                    node,
                    src: (pk.src.x, pk.src.y),
                    dst: (pk.dst.x, pk.dst.y),
                    class: pk.mode as u8,
                    stalled: pk.stalled,
                    generated_at: pk.generated_at,
                });
                let HopDecision::Route(cands) = router.decide(here, &mut pk, &mut route) else {
                    continue;
                };
                for c in cands.iter() {
                    let dir = c.dir as usize;
                    for vc in self.class_range(c.class) {
                        let idx = self.out_idx(lnode, dir, vc);
                        if let Some(owner) = self.owners[idx] {
                            probe.wait_edge(WaitEdge {
                                waiter: f.packet,
                                holder: owner,
                                node,
                                dir: dir as u8,
                                vc: vc as u8,
                            });
                        } else if self.credits[idx] == 0 {
                            probe.wait_blocked(BlockedWait {
                                waiter: f.packet,
                                node,
                                dir: dir as u8,
                                vc: vc as u8,
                            });
                        }
                    }
                }
            }
        }
    }

    /// Cycle boundary: arrivals land (activating their routers),
    /// credits return (refreshing free-VC bits).
    pub(crate) fn commit_boundary(&mut self) {
        let vcs = self.vcs;
        let slots = IN_PORTS * vcs;
        let depth = self.vc_depth;
        for a in self.arrivals.drain(..) {
            let (lnode, slot) = (a.lnode as usize, a.slot as usize);
            let in_idx = lnode * slots + slot;
            let v = &mut self.in_vcs[in_idx];
            // A ring overwrites where a deque grew: a broken credit
            // count must stop here, not corrupt a live flit.
            assert!(
                (v.q_len as usize) < depth,
                "buffer overflow at local node {lnode} slot {slot}: credit accounting broken"
            );
            let mut tail = v.q_head as usize + v.q_len as usize;
            if tail >= depth {
                tail -= depth;
            }
            self.rings[in_idx * depth + tail] = a.word;
            v.q_len += 1;
            if v.q_len == 1 {
                self.occ_mask[lnode] |= 1u64 << slot;
                self.active[lnode / 64] |= 1 << (lnode % 64);
            }
        }
        for c in self.credit_returns.drain(..) {
            let port = c.lnode as usize * DIRS + c.dir as usize;
            let idx = port * vcs + c.vc as usize;
            self.credits[idx] += 1;
            assert!(
                self.credits[idx] as usize <= depth,
                "credit overflow at local node {} dir {} vc {}",
                c.lnode,
                c.dir,
                c.vc
            );
            self.free_mask[port] |= (1 << c.vc) & !self.owned[port];
        }
    }

    /// Searches this shard for packet `id`'s traveling state: staged
    /// arrivals first, then the parked/queued heads (linear in shard
    /// state). `None` once the packet has been delivered, and
    /// transiently for a multi-flit packet whose head was consumed at
    /// the ejection port while its remaining flits are stalled upstream.
    #[cfg(test)]
    fn find_packet(&self, id: u32) -> Option<PacketState> {
        let is_head_of = |word: RingSlot| word & SLOT_HEAD != 0 && slot_flit(word).packet == id;
        if let Some(a) = self.arrivals.iter().find(|a| is_head_of(a.word)) {
            return Some(self.pool.entries[slot_handle(a.word)].state);
        }
        for (in_idx, v) in self.in_vcs.iter().enumerate() {
            // An eject-draining packet's head flit is gone; its state
            // is identifiable while one of its flits fronts the VC.
            if matches!(v.route, Some((p, _)) if (p as usize) == EJECT_PORT)
                && self.front(in_idx).is_some_and(|w| slot_flit(w).packet == id)
            {
                return Some(self.pool.entries[self.ejecting[in_idx] as usize].state);
            }
            if let Some(word) = self.queued(in_idx).find(|&w| is_head_of(w)) {
                return Some(self.pool.entries[slot_handle(word)].state);
            }
        }
        None
    }

    /// Reference-stepper grant pass for one output port of one node
    /// (the original linear scan; see `step_bands`).
    /// Unrouted heads consume the decisions planned once at the start
    /// of the node's cycle — NOT a fresh `decide` per output port: the
    /// router consultation schedule is observable under online churn
    /// (a replan re-keys the packet onto the *current* epoch), so both
    /// steppers must ask on exactly the same cycles.
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    fn allocate_output_reference(
        &mut self,
        lnode: usize,
        out_port: usize,
        decisions: &[Option<HopDecision>; MAX_SLOTS],
        in_port_used: &mut [bool; IN_PORTS],
        report: &mut StepReport,
        deliveries: &mut Vec<Delivery>,
    ) {
        let slots = IN_PORTS * self.vcs;
        let start = self.rr[lnode * OUT_PORTS + out_port] as usize;
        for k in 0..slots {
            let slot = (start + k) % slots;
            let (in_port, vc) = (slot / self.vcs, slot % self.vcs);
            if in_port_used[in_port] {
                continue;
            }
            if in_port == LOCAL_PORT && vc != 0 {
                continue; // single injection channel
            }
            let in_idx = self.in_idx(lnode, in_port, vc);
            let Some(word) = self.front(in_idx) else {
                continue;
            };
            // Desired output of the flit at the queue head, plus the VC
            // to take on it: `Some((vc, newly_allocated_class))` for
            // links, `None` for ejection.
            let (desired, link): (usize, Option<(usize, Option<VcClass>)>) =
                match self.in_vcs[in_idx].route {
                    Some((p, v)) if (p as usize) != EJECT_PORT => {
                        if p as usize != out_port {
                            continue;
                        }
                        if self.credits[self.out_idx(lnode, p as usize, v as usize)] == 0 {
                            continue;
                        }
                        (p as usize, Some((v as usize, None)))
                    }
                    Some(_) => (EJECT_PORT, None),
                    None => {
                        debug_assert!(word & SLOT_HEAD != 0, "body flit at head of an unrouted VC");
                        // A head that became the queue front only after
                        // this cycle's plan pass (its predecessor's tail
                        // left this cycle) has no decision yet: it waits
                        // for the next cycle, exactly as in the
                        // event-driven stepper.
                        let Some(decision) = decisions[slot] else {
                            continue;
                        };
                        match decision {
                            HopDecision::Eject => (EJECT_PORT, None),
                            HopDecision::Route(candidates) => {
                                // Linear free-VC probe, independent of
                                // the free-mask bookkeeping.
                                let pick = candidates.iter().find_map(|c| {
                                    self.class_range(c.class)
                                        .find(|&v| {
                                            let o = self.out_idx(lnode, c.dir as usize, v);
                                            self.owners[o].is_none() && self.credits[o] > 0
                                        })
                                        .map(|v| (c.dir as usize, v, c.class))
                                });
                                let Some((port, v, class)) = pick else {
                                    continue;
                                };
                                (port, Some((v, Some(class))))
                            }
                        }
                    }
                };
            if desired != out_port {
                continue;
            }
            in_port_used[in_port] = true;
            self.commit_grant(lnode, slot, out_port, link, report, deliveries, &mut NoProbe);
            return; // one grant per output port per cycle
        }
    }

    /// The original scan-order allocation pass over every node of this
    /// shard, in global node order (see `step_bands`).
    /// Per node, every parked unrouted head asks the hop router exactly
    /// once — before any grant — mirroring the event-driven plan phase.
    #[cfg(test)]
    pub(crate) fn allocate_reference(
        &mut self,
        router: &mut dyn HopRouter,
        report: &mut StepReport,
        deliveries: &mut Vec<Delivery>,
    ) {
        let slots = IN_PORTS * self.vcs;
        for lnode in 0..self.nodes() {
            let here = self.coords[lnode];
            let mut decisions: [Option<HopDecision>; MAX_SLOTS] = [None; MAX_SLOTS];
            let mut m = self.occ_mask[lnode];
            while m != 0 {
                let slot = m.trailing_zeros() as usize;
                m &= m - 1;
                let in_idx = lnode * slots + slot;
                if self.in_vcs[in_idx].route.is_none() {
                    let word = self.front(in_idx).expect("occupied slot");
                    let pk = &mut self.pool.entries[slot_handle(word)];
                    decisions[slot] = Some(router.decide(here, &mut pk.state, &mut pk.route));
                }
            }
            let mut in_port_used = [false; IN_PORTS];
            for out_port in 0..OUT_PORTS {
                self.allocate_output_reference(
                    lnode,
                    out_port,
                    &decisions,
                    &mut in_port_used,
                    report,
                    deliveries,
                );
            }
        }
    }

    /// The original aging pass: every input VC of this shard, in index
    /// order (see `step_bands`).
    #[cfg(test)]
    pub(crate) fn age_reference(&mut self) {
        for in_idx in 0..self.in_vcs.len() {
            if self.in_vcs[in_idx].route.is_none() {
                if let Some(word) = self.front(in_idx) {
                    if word & SLOT_HEAD != 0 {
                        self.pool.entries[slot_handle(word)].state.stalled += 1;
                    }
                }
            }
        }
    }

    /// Flits downstream of an output VC, as seen from the downstream
    /// side: queued in input VC `(lnode, slot)` plus staged for it.
    #[cfg(test)]
    fn ring_load(&self, lnode: usize, slot: usize) -> usize {
        let staged = self
            .arrivals
            .iter()
            .filter(|a| (a.lnode as usize, a.slot as usize) == (lnode, slot))
            .count();
        self.in_vcs[lnode * IN_PORTS * self.vcs + slot].q_len as usize + staged
    }

    /// Free slots an output VC knows of, as seen from the upstream
    /// side: its credits plus the credit returns staged for it.
    #[cfg(test)]
    fn credit_load(&self, lnode: usize, dir: usize, vc: usize) -> usize {
        let staged = self
            .credit_returns
            .iter()
            .filter(|c| (c.lnode as usize, c.dir as usize, c.vc as usize) == (lnode, dir, vc))
            .count();
        self.credits[self.out_idx(lnode, dir, vc)] as usize + staged
    }

    /// Asserts the invariants both steppers maintain, at any point
    /// between two phases of a cycle:
    ///
    /// * the occupancy and free-VC bitmasks and the active set agree with
    ///   the ground truth (ring occupancy, owner/credit state);
    /// * flit conservation on every link that stays inside this band:
    ///   `credits + downstream ring occupancy + arrivals staged for it +
    ///   credit returns staged for it == vc_depth` (the fabric tests
    ///   check the links that cross a band edge);
    /// * state conservation: every queued or staged head flit and every
    ///   eject-draining VC holds one pooled state, no handle is held
    ///   twice, and every other handle is on the free list.
    #[cfg(test)]
    pub(crate) fn assert_masks_consistent(&self) {
        let slots = IN_PORTS * self.vcs;
        let mut held = vec![false; self.pool.entries.len()];
        let mut hold = |handle: usize, what: &str| {
            assert!(
                !std::mem::replace(&mut held[handle], true),
                "state {handle} held twice ({what})"
            );
        };
        for a in &self.arrivals {
            if a.word & SLOT_HEAD != 0 {
                hold(slot_handle(a.word), "staged head");
            }
        }
        for lnode in 0..self.nodes() {
            for slot in 0..slots {
                let in_idx = lnode * slots + slot;
                let v = self.in_vcs[in_idx];
                assert!(
                    (v.q_head as usize) < self.vc_depth && v.q_len as usize <= self.vc_depth,
                    "ring cursors out of range at local node {lnode} slot {slot}"
                );
                let occupied = v.q_len > 0;
                assert_eq!(
                    self.occ_mask[lnode] & (1 << slot) != 0,
                    occupied,
                    "occ_mask stale at local node {lnode} slot {slot}"
                );
                if occupied {
                    assert!(
                        self.active[lnode / 64] & 1 << (lnode % 64) != 0,
                        "occupied local node {lnode} not in the active set"
                    );
                }
                for word in self.queued(in_idx).filter(|w| w & SLOT_HEAD != 0) {
                    hold(slot_handle(word), "queued head");
                }
                if matches!(v.route, Some((p, _)) if (p as usize) == EJECT_PORT) {
                    hold(self.ejecting[in_idx] as usize, "eject-draining VC");
                }
            }
            for dir in 0..DIRS {
                let next = self.local_neighbor(lnode, Dir::ALL[dir]);
                let next_in = Dir::ALL[dir].opposite() as usize;
                for v in 0..self.vcs {
                    let idx = self.out_idx(lnode, dir, v);
                    assert_eq!(
                        self.free_mask[lnode * DIRS + dir] & (1 << v) != 0,
                        self.owners[idx].is_none() && self.credits[idx] > 0,
                        "free_mask stale at local node {lnode} dir {dir} vc {v}"
                    );
                    assert_eq!(
                        self.owned[lnode * DIRS + dir] & (1 << v) != 0,
                        self.owners[idx].is_some(),
                        "owned mask stale at local node {lnode} dir {dir} vc {v}"
                    );
                    if let Some(next) = next {
                        assert_eq!(
                            self.credit_load(lnode, dir, v)
                                + self.ring_load(next, next_in * self.vcs + v),
                            self.vc_depth,
                            "flits not conserved on local node {lnode} dir {dir} vc {v}"
                        );
                    }
                }
            }
        }
        for &h in &self.pool.free {
            hold(h as usize, "free list");
        }
        assert!(held.iter().all(|&h| h), "a pooled state is neither held nor free");
    }

    /// Asserts that a shard with no flit holds no traveling state once
    /// the run stopped `reason`. A clean stop allows none. A run cut
    /// short (deadline, deadlock, observer) may stop mid-worm: a worm
    /// whose head ejected here while its tail is still queued in
    /// another band keeps its state parked on the ejecting VC, so
    /// exactly those states are allowed then.
    #[cfg(test)]
    pub(crate) fn assert_pool_drained(&self, reason: meshpath_obs::StopKind) {
        if self.in_flight == 0 {
            let ejecting = self
                .in_vcs
                .iter()
                .filter(|v| v.route.is_some_and(|(p, _)| p as usize == EJECT_PORT))
                .count();
            let parked = if reason == meshpath_obs::StopKind::Clean { 0 } else { ejecting };
            let held = self.pool.entries.len() - self.pool.free.len();
            assert_eq!(held, parked, "state leaked from the pool ({reason:?} stop)");
        }
    }
}

/// Steps `bands` one cycle in process, as the run loop steps them on
/// its threads: plan/grant on every band, the boundary exchange, then
/// the commit. Band `i` routes with `routers[i % routers.len()]` — one
/// router for every band, or one per band.
///
/// With `reference` set, plan/grant runs the original scan-order
/// stepper, retained as the golden reference: every node in global
/// order, every output port, a linear round-robin walk over all
/// `(input port, VC)` slots, and a linear free-VC probe straight off the
/// owner/credit state (it never reads the bitmasks, so it cannot
/// inherit a bookkeeping bug from them). It shares
/// `Shard::commit_grant` and `Shard::commit_boundary` with the
/// event-driven stepper, which keep the masks and active set maintained —
/// the two steppers can be interleaved mid-run, at any shard count.
#[cfg(test)]
pub(crate) fn step_bands(
    bands: &mut [Shard],
    routers: &mut [&mut dyn HopRouter],
    reference: bool,
    deliveries: &mut Vec<Delivery>,
) -> StepReport {
    let mut report = StepReport::default();
    for (i, s) in bands.iter_mut().enumerate() {
        let router = &mut *routers[i % routers.len()];
        if reference {
            s.allocate_reference(router, &mut report, deliveries);
            s.age_reference();
        } else {
            s.allocate_active(router, &mut report, deliveries, &mut NoProbe);
        }
    }
    for i in 0..bands.len() {
        let [before, after] = bands[i].take_outboxes();
        if !before.is_empty() {
            bands[i - 1].apply_boundary(before);
        }
        if !after.is_empty() {
            bands[i + 1].apply_boundary(after);
        }
    }
    bands.iter_mut().for_each(Shard::commit_boundary);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::HopChoice;
    use meshpath_mesh::FxHashMap;

    /// Two adaptive channels and the escape channel.
    const TEST_VCS: usize = 3;
    const TEST_DEPTH: usize = 4;

    /// The bands of one mesh, stepped in process through [`step_bands`].
    struct Fabric {
        mesh: Mesh,
        shards: Vec<Shard>,
    }

    /// A packet fed into its source's injection channel: its id, its
    /// traveling state, its route until the head goes in, and how many
    /// of its flits went in.
    struct Worm {
        id: u32,
        state: PacketState,
        route: Option<HopSeq>,
        sent: u32,
    }

    impl Worm {
        /// A worm without a route, for routers that keep their own.
        fn new(id: u32, state: PacketState) -> Self {
            Worm { id, state, route: None, sent: 0 }
        }
    }

    impl Fabric {
        fn new(mesh: Mesh, vcs: usize, depth: usize, bands: usize) -> Self {
            Fabric { mesh, shards: Shard::bands(mesh, vcs, depth, bands) }
        }

        /// The band owning global node id `node`, and the node's local
        /// index in it.
        fn band(&mut self, node: usize) -> (&mut Shard, usize) {
            let s = self.shards.iter_mut().find(|s| s.contains_node(node)).expect("on the mesh");
            let lnode = s.local_of(node);
            (s, lnode)
        }

        /// Stages the next flit of `worm` at its source when one is left
        /// and the injection channel has room: one flit a cycle, as a
        /// network interface feeds it.
        fn feed(&mut self, worm: &mut Worm) {
            let (s, lnode) = self.band(self.mesh.id(worm.state.src).index());
            if worm.sent < worm.state.len && s.local_occupancy(lnode) < s.vc_depth {
                let is_head = worm.sent == 0;
                let flit =
                    Flit { packet: worm.id, is_head, is_tail: worm.sent + 1 == worm.state.len };
                let head = is_head.then(|| Head { state: worm.state, route: worm.route.take() });
                s.inject(lnode, flit, head);
                worm.sent += 1;
            }
        }

        /// One cycle on the event-driven stepper.
        fn step(&mut self, hop: &mut dyn HopRouter, deliveries: &mut Vec<Delivery>) -> StepReport {
            step_bands(&mut self.shards, &mut [hop], false, deliveries)
        }

        /// Flits inside the fabric (buffers + staged arrivals).
        fn in_flight(&self) -> u64 {
            self.shards.iter().map(|s| s.in_flight).sum()
        }

        /// Packet `id`'s traveling state while its head is in the fabric.
        fn packet_state(&self, id: u32) -> Option<PacketState> {
            self.shards.iter().find_map(|s| s.find_packet(id))
        }

        /// Seizes or releases an output VC directly while keeping the
        /// ownership and free-VC masks consistent.
        fn set_test_owner(&mut self, node: usize, dir: usize, vc: usize, owner: Option<u32>) {
            let (s, lnode) = self.band(node);
            let (idx, port, bit) = (s.out_idx(lnode, dir, vc), lnode * DIRS + dir, 1u32 << vc);
            s.owners[idx] = owner;
            let free = owner.is_none() && s.credits[idx] > 0;
            s.owned[port] =
                if owner.is_some() { s.owned[port] | bit } else { s.owned[port] & !bit };
            s.free_mask[port] =
                if free { s.free_mask[port] | bit } else { s.free_mask[port] & !bit };
        }

        /// Asserts every shard's invariants (`Shard::assert_masks_consistent`)
        /// plus flit conservation on the links that cross a band edge.
        /// Call after the boundary exchange: a message still in an outbox
        /// is on neither side of its link.
        fn assert_masks_consistent(&self) {
            for (i, s) in self.shards.iter().enumerate() {
                s.assert_masks_consistent();
                assert!(s.out_boxes.iter().all(Vec::is_empty), "boundary messages not exchanged");
                for lnode in 0..s.nodes() {
                    let here = s.coords[lnode];
                    for dir in Dir::ALL {
                        let next = here.step(dir);
                        if s.local_neighbor(lnode, dir).is_some() || !self.mesh.contains(next) {
                            continue;
                        }
                        // Off this band but on the mesh: one band up or down.
                        let t = &self.shards[if dir == Dir::PlusY { i + 1 } else { i - 1 }];
                        let next = t.local_of(self.mesh.id(next).index());
                        for v in 0..s.vcs {
                            assert_eq!(
                                s.credit_load(lnode, dir as usize, v)
                                    + t.ring_load(next, dir.opposite() as usize * s.vcs + v),
                                s.vc_depth,
                                "flits not conserved across the band edge at {here:?} {dir:?} vc {v}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// A scripted hop router for fabric unit tests: replays explicit
    /// direction sequences keyed by `(src, dst)`, adaptive class only.
    struct ScriptedHop {
        scripts: FxHashMap<(Coord, Coord), Vec<Dir>>,
    }

    impl ScriptedHop {
        fn new() -> Self {
            ScriptedHop { scripts: FxHashMap::default() }
        }

        /// Registers a script and returns `(src, dst)` for the packet.
        fn script(&mut self, src: Coord, dirs: &[Dir]) -> (Coord, Coord) {
            let mut dst = src;
            for &d in dirs {
                dst = dst.step(d);
            }
            self.scripts.insert((src, dst), dirs.to_vec());
            (src, dst)
        }
    }

    impl HopRouter for ScriptedHop {
        fn admit(&mut self, pk: &mut PacketState) -> Option<HopSeq> {
            self.scripts.get(&(pk.src, pk.dst)).map(|dirs| dirs.iter().copied().collect())
        }

        fn decide(
            &mut self,
            here: Coord,
            pk: &mut PacketState,
            _route: &mut Option<HopSeq>,
        ) -> HopDecision {
            if here == pk.dst {
                return HopDecision::Eject;
            }
            let path = &self.scripts[&(pk.src, pk.dst)];
            HopDecision::route1(HopChoice {
                dir: path[pk.head_hop as usize],
                class: VcClass::Adaptive,
            })
        }
    }

    /// The delivered packet ids of a delivery list.
    fn ids(deliveries: &[Delivery]) -> Vec<u32> {
        deliveries.iter().map(|d| d.packet).collect()
    }

    /// Drives one packet through an idle fabric (optionally sharded)
    /// and returns the cycle at which its tail was ejected.
    fn run_single_sharded(mesh: Mesh, path: &[Dir], len: u32, shards: usize) -> u64 {
        let mut f = Fabric::new(mesh, TEST_VCS, TEST_DEPTH, shards);
        let mut hop = ScriptedHop::new();
        let (s, d) = hop.script(Coord::new(0, 0), path);
        let mut worm = Worm::new(0, PacketState::new(s, d, 0, len));
        let mut ejected = Vec::new();
        for cycle in 0.. {
            f.feed(&mut worm);
            f.step(&mut hop, &mut ejected);
            if !ejected.is_empty() {
                assert_eq!(ids(&ejected), vec![0]);
                assert_eq!(f.in_flight(), 0);
                return cycle + 1; // ejection link
            }
            assert!(cycle < 1000, "packet stuck");
        }
        unreachable!()
    }

    fn run_single(mesh: Mesh, path: &[Dir], len: u32) -> u64 {
        run_single_sharded(mesh, path, len, 1)
    }

    #[test]
    fn single_flit_latency_is_hops_plus_pipeline() {
        let mesh = Mesh::square(8);
        // 0 hops is impossible (a packet to self is never generated);
        // 1..=7 hops along +X.
        for hops in 1..=7usize {
            let path: Vec<Dir> = std::iter::repeat_n(Dir::PlusX, hops).collect();
            let done = run_single(mesh, &path, 1);
            assert_eq!(done, hops as u64 + crate::PIPELINE_DEPTH, "hops = {hops}");
        }
    }

    #[test]
    fn multi_flit_latency_adds_serialization() {
        let mesh = Mesh::square(8);
        let path = [Dir::PlusX, Dir::PlusX, Dir::PlusY];
        for len in [2u32, 4, 7] {
            let done = run_single(mesh, &path, len);
            assert_eq!(done, 3 + crate::PIPELINE_DEPTH + u64::from(len) - 1, "len = {len}");
        }
    }

    #[test]
    fn turning_paths_arrive() {
        let mesh = Mesh::square(6);
        let path = [Dir::PlusX, Dir::PlusY, Dir::PlusX, Dir::MinusY, Dir::PlusX];
        let done = run_single(mesh, &path, 4);
        assert_eq!(done, 5 + crate::PIPELINE_DEPTH + 3);
    }

    #[test]
    fn sharded_fabric_matches_single_shard_timing() {
        // A worm that crosses every band edge (+Y the whole way), at
        // every shard count: latency must equal the 1-shard run exactly
        // — the boundary exchange adds no cycles and loses no state.
        let mesh = Mesh::square(8);
        let path: Vec<Dir> = std::iter::repeat_n(Dir::PlusY, 7).collect();
        let reference = run_single(mesh, &path, 5);
        for shards in [2, 3, 4, 8] {
            assert_eq!(
                run_single_sharded(mesh, &path, 5, shards),
                reference,
                "{shards} shards diverged"
            );
        }
        assert_eq!(reference, 7 + crate::PIPELINE_DEPTH + 4);
    }

    #[test]
    fn two_packets_share_a_link_fairly() {
        // Packets from two different sources converge on the same link
        // (1,0) -> (2,0): a runs (0,0) -> +X +X, b runs (1,1) -> -Y +X.
        // The switch allocator must interleave them — both complete,
        // and neither is starved while the other's worm drains.
        let mesh = Mesh::square(4);
        let mut f = Fabric::new(mesh, TEST_VCS, TEST_DEPTH, 1);
        let mut hop = ScriptedHop::new();
        let len = 3u32;
        let (sa, da) = hop.script(Coord::new(0, 0), &[Dir::PlusX, Dir::PlusX]);
        let (sb, db) = hop.script(Coord::new(1, 1), &[Dir::MinusY, Dir::PlusX]);
        let mut worms = [
            Worm::new(0, PacketState::new(sa, da, 0, len)),
            Worm::new(1, PacketState::new(sb, db, 0, len)),
        ];
        let mut ejected = Vec::new();
        let mut done = Vec::new();
        for cycle in 0..100 {
            worms.iter_mut().for_each(|w| f.feed(w));
            f.step(&mut hop, &mut ejected);
            done.extend(ejected.drain(..).map(|d| (d.packet, cycle)));
            if done.len() == 2 {
                break;
            }
        }
        assert_eq!(done.len(), 2, "both packets must complete: {done:?}");
        assert_eq!(f.in_flight(), 0);
        // Both worms cross the contended link, so at least one is
        // delayed past its zero-load completion time — but only by a
        // bounded amount (no starvation): zero-load tail arrival is
        // hops + PIPELINE_DEPTH + (len - 1) = 6, and the loser waits at
        // most one worm (len flits) behind the winner.
        let zero_load = 2 + crate::PIPELINE_DEPTH + u64::from(len) - 1;
        for &(pk, cycle) in &done {
            let lat = cycle + 1;
            assert!(lat >= zero_load, "packet {pk} beat the zero-load bound");
            assert!(
                lat <= zero_load + u64::from(len) + 2,
                "packet {pk} starved: finished at {lat}, bound {}",
                zero_load + u64::from(len) + 2
            );
        }
    }

    #[test]
    fn frontier_reports_parked_flits() {
        // Park a worm behind a missing grant: inject its head and stop
        // mid-flight. The traveling state must be findable there, and
        // gone once the packet delivered.
        let mesh = Mesh::square(4);
        let mut f = Fabric::new(mesh, TEST_VCS, TEST_DEPTH, 1);
        let mut hop = ScriptedHop::new();
        let (s, d) = hop.script(Coord::new(0, 0), &[Dir::PlusX, Dir::PlusX]);
        let mut worm = Worm::new(0, PacketState::new(s, d, 0, 2));
        f.feed(&mut worm);
        let mut ejected = Vec::new();
        f.step(&mut hop, &mut ejected); // head lands in the injection channel
        assert_eq!(f.packet_state(0).expect("in flight").head_hop, 0);
        f.feed(&mut worm);
        for _ in 0..20 {
            f.step(&mut hop, &mut ejected);
        }
        assert!(!ejected.is_empty());
        assert_eq!(f.in_flight(), 0);
        assert!(f.packet_state(0).is_none(), "delivered packets leave the fabric");
    }

    #[test]
    fn credits_bound_buffer_occupancy() {
        // A long packet whose head makes progress; occupancy must never
        // exceed vc_depth (debug_assert in step would fire otherwise).
        let mesh = Mesh::square(8);
        let path: Vec<Dir> = std::iter::repeat_n(Dir::PlusX, 7).collect();
        let done = run_single(mesh, &path, 12);
        assert_eq!(done, 7 + crate::PIPELINE_DEPTH + 11);
    }

    #[test]
    fn cross_band_credits_flow_back() {
        // A long worm along +Y with 2 shards: every credit for the
        // band-edge link is a boundary message. If those were lost the
        // upstream VC would run out of credits and the worm would
        // wedge; completion at the exact zero-load time proves the
        // credit path.
        let mesh = Mesh::square(6);
        let path: Vec<Dir> = std::iter::repeat_n(Dir::PlusY, 5).collect();
        let done = run_single_sharded(mesh, &path, 12, 2);
        assert_eq!(done, 5 + crate::PIPELINE_DEPTH + 11);
    }

    /// A hop router that always offers the escape fallback; used to pin
    /// the class partition and the escape commitment.
    struct EscapeEager;

    impl HopRouter for EscapeEager {
        fn admit(&mut self, _pk: &mut PacketState) -> Option<HopSeq> {
            Some(HopSeq::new())
        }

        fn decide(
            &mut self,
            here: Coord,
            pk: &mut PacketState,
            _route: &mut Option<HopSeq>,
        ) -> HopDecision {
            if here == pk.dst {
                return HopDecision::Eject;
            }
            HopDecision::Route(
                [
                    HopChoice { dir: Dir::PlusX, class: VcClass::Adaptive },
                    HopChoice { dir: Dir::PlusX, class: VcClass::EscapeTree },
                ]
                .into_iter()
                .collect(),
            )
        }
    }

    #[test]
    fn class_partition_reserves_the_top_index() {
        // 4 VCs: adaptive = {0, 1, 2}, escape = {3}.
        let mesh = Mesh::square(4);
        let f = &Shard::bands(mesh, 4, TEST_DEPTH, 1)[0];
        assert_eq!(f.class_range(VcClass::Adaptive), 0..3);
        assert_eq!(f.class_range(VcClass::EscapeTree), 3..4);
        let f2 = &Shard::bands(mesh, 2, TEST_DEPTH, 1)[0];
        assert_eq!(f2.class_range(VcClass::Adaptive), 0..1);
        assert_eq!(f2.class_range(VcClass::EscapeTree), 1..2);
    }

    #[test]
    fn escape_class_is_reserved_and_commitment_sticks() {
        // 2 VCs: adaptive = {0}, escape = {1}. Park a fake
        // owner on the adaptive VC of the packet's output: the head
        // must take the escape VC, flip its mode and count as an escape
        // entry.
        let mesh = Mesh::square(4);
        let mut f = Fabric::new(mesh, 2, TEST_DEPTH, 1);
        let mut hop = EscapeEager;
        let src = Coord::new(0, 1);
        let dst = Coord::new(2, 1);
        let b = 0;
        let mut ejected = Vec::new();
        f.set_test_owner(mesh.id(src).index(), Dir::PlusX as usize, 0, Some(999));
        f.feed(&mut Worm::new(b, PacketState::new(src, dst, 0, 1)));
        let mut entries = f.step(&mut hop, &mut ejected).escape_entries; // arrival lands
        entries += f.step(&mut hop, &mut ejected).escape_entries; // head granted -> escape VC
        let st = f.packet_state(b).expect("in flight");
        assert_eq!(st.mode, VcClass::EscapeTree, "adaptive held; B must escape");
        assert_eq!(entries, 1);
        // The escape commitment sticks across later hops.
        for _ in 0..10 {
            entries += f.step(&mut hop, &mut ejected).escape_entries;
        }
        assert_eq!(entries, 1, "one commitment per packet");
        let done = ejected.iter().find(|d| d.packet == b).expect("escaped packet must deliver");
        assert_eq!(done.state.mode, VcClass::EscapeTree);
    }

    #[test]
    fn stall_clock_ticks_only_for_parked_unrouted_heads() {
        // A head that cannot get a grant ages; a granted head resets to
        // zero.
        let mesh = Mesh::square(4);
        let mut f = Fabric::new(mesh, 2, TEST_DEPTH, 1);
        let src = Coord::new(0, 0);
        let dst = Coord::new(2, 0);
        let mut hop = EscapeEager;
        let id = 0;
        // Park fake owners on BOTH classes of the +X output so the head
        // cannot move.
        for v in 0..2 {
            f.set_test_owner(mesh.id(src).index(), Dir::PlusX as usize, v, Some(999));
        }
        f.feed(&mut Worm::new(id, PacketState::new(src, dst, 0, 2))); // the head only
        let mut ejected = Vec::new();
        f.step(&mut hop, &mut ejected); // arrival lands
        f.assert_masks_consistent();
        assert_eq!(f.packet_state(id).unwrap().stalled, 0);
        for want in 1..=3 {
            f.step(&mut hop, &mut ejected);
            assert_eq!(f.packet_state(id).unwrap().stalled, want, "parked head must age");
        }
        // Free the escape VC: the head moves and the clock resets.
        f.set_test_owner(mesh.id(src).index(), Dir::PlusX as usize, 1, None);
        f.step(&mut hop, &mut ejected);
        assert_eq!(f.packet_state(id).unwrap().stalled, 0, "grant must reset the clock");
        f.assert_masks_consistent();
    }

    #[test]
    fn every_node_belongs_to_one_band_at_its_offset() {
        for (w, h, shards) in [(1, 6, 2), (5, 3, 1), (7, 7, 3), (16, 9, 4), (4, 2, 5)] {
            let mesh = Mesh::new(w, h);
            let bands = Shard::bands(mesh, 2, 2, shards);
            assert_eq!(bands.len(), shards.min(h as usize), "bands hold at least a row");
            for n in 0..mesh.len() {
                assert_eq!(bands.iter().filter(|s| s.contains_node(n)).count(), 1);
                let owner = bands.iter().find(|s| s.contains_node(n)).expect("owned");
                assert_eq!(owner.global_of(owner.local_of(n)) as usize, n);
                assert_eq!(
                    owner.coords[owner.local_of(n)],
                    mesh.coord(meshpath_mesh::NodeId(n as u32))
                );
            }
        }
    }

    /// Collects the post-mortem records of `Shard::collect_wait_graph`.
    #[derive(Default)]
    struct WaitGraph {
        stalled: Vec<StalledPacket>,
        edges: Vec<WaitEdge>,
        fronts: Vec<VcFront>,
    }

    impl FabricProbe for WaitGraph {
        const ACTIVE: bool = true;
        fn stalled_packet(&mut self, p: StalledPacket) {
            self.stalled.push(p);
        }
        fn wait_edge(&mut self, e: WaitEdge) {
            self.edges.push(e);
        }
        fn vc_front(&mut self, f: VcFront) {
            self.fronts.push(f);
        }
    }

    /// A stream of equal-length packets from one source over one
    /// scripted route, injected back to back as the buffer allows.
    struct Stream {
        f: Fabric,
        hop: ScriptedHop,
        /// The packets in stream order.
        worms: Vec<Worm>,
        ejected: Vec<Delivery>,
    }

    impl Stream {
        /// One cycle: feed the next flit of the first `upto` packets if
        /// it fits, step, check every invariant.
        fn cycle(&mut self, upto: usize) {
            if let Some(w) = self.worms[..upto].iter_mut().find(|w| w.sent < w.state.len) {
                self.f.feed(w);
            }
            self.f.step(&mut self.hop, &mut self.ejected);
            self.f.assert_masks_consistent();
        }
    }

    #[test]
    fn wrapped_rings_keep_back_to_back_packets_and_their_states_apart() {
        // One adaptive VC per port, so every packet of the +Y stream
        // shares the same rings, at non-power-of-two and minimal depths.
        // Packet 0 passes through first and leaves every ring cursor
        // mid-ring; then the stream is dammed at (0,2), so the rings
        // behind it fill across their wrap point with the tail of one
        // packet and the head of the next. The diagnostics must read
        // those rings in queue order, with every head matched to its
        // own state — on one shard and with the dam just past a band
        // edge.
        for (depth, shards) in [(2usize, 1usize), (2, 2), (3, 1), (3, 2)] {
            let len = (5 - depth) as u32; // never a multiple of depth
            let mesh = Mesh::square(4);
            let f = Fabric::new(mesh, 2, depth, shards);
            let mut hop = ScriptedHop::new();
            let (s, d) = hop.script(Coord::new(0, 0), &[Dir::PlusY; 3]);
            let dam = mesh.id(Coord::new(0, 2)).index();
            // `generated_at` doubles as a marker tying a state to its id.
            let worms =
                (0..6).map(|k| Worm::new(k as u32, PacketState::new(s, d, k, len))).collect();
            let mut st = Stream { f, hop, worms, ejected: Vec::new() };
            let pk: Vec<u32> = (0..6).collect();
            for _ in 0..12 {
                st.cycle(1);
            }
            assert_eq!(ids(&st.ejected), vec![pk[0]], "packet 0 clears the path");
            st.f.set_test_owner(dam, Dir::PlusY as usize, 0, Some(999));
            for _ in 0..40 {
                st.cycle(6);
            }
            assert_eq!(st.ejected.len(), 1, "the dam holds");
            let rings: Vec<InVc> =
                st.f.shards.iter().flat_map(|sh| sh.in_vcs.iter().copied()).collect();
            assert_eq!(rings.iter().filter(|v| v.q_len as usize == depth).count(), 3);
            assert!(
                rings.iter().any(|v| v.q_head as usize + v.q_len as usize > depth),
                "no ring wrapped: the test lost its subject"
            );

            // find_packet: every packet whose head is in the fabric has
            // its own state, and heads sit in stream order along +Y.
            let mut hops = Vec::new();
            for w in st.worms.iter().skip(1).filter(|w| w.sent > 0) {
                let state = st.f.packet_state(w.id).expect("head in the fabric");
                assert_eq!(state.generated_at, u64::from(w.id), "state of another packet");
                hops.push(state.head_hop);
            }
            assert_eq!(hops[0], 2, "packet 1's head is parked at the dam");
            assert!(hops.windows(2).all(|w| w[0] >= w[1]), "heads out of order: {hops:?}");

            // collect_wait_graph: the parked head waits on the dam's
            // owner; the link VC fronts are in stream order from the dam
            // back to the source.
            let mut graph = WaitGraph::default();
            for sh in &st.f.shards {
                sh.collect_wait_graph(&mut st.hop, &mut graph);
            }
            // (A head fronting the source's ring may be parked too,
            // credit-starved rather than waiting on an owner.)
            let parked: Vec<(u32, usize)> =
                graph.stalled.iter().map(|p| (p.packet, p.node as usize)).collect();
            assert!(parked.contains(&(pk[1], dam)), "dammed head not reported: {parked:?}");
            for p in &graph.stalled {
                assert_eq!(pk[p.generated_at as usize], p.packet, "state of another packet");
            }
            assert_eq!(
                graph.edges,
                vec![WaitEdge {
                    waiter: pk[1],
                    holder: 999,
                    node: dam as u32,
                    dir: Dir::PlusY as u8,
                    vc: 0
                }]
            );
            let mut fronts: Vec<(u32, u32)> =
                graph.fronts.iter().map(|v| (v.node, v.packet)).collect();
            fronts.sort_unstable();
            let at = |y: i32| mesh.id(Coord::new(0, y)).0;
            assert_eq!(fronts.iter().map(|f| f.0).collect::<Vec<_>>(), [at(1), at(2)]);
            assert_eq!(fronts[1].1, pk[1], "packet 1 fronts the dam");
            assert!(fronts[1].1 <= fronts[0].1, "fronts out of stream order: {fronts:?}");

            // Open the dam: everything drains in order and the pools
            // end up empty.
            st.f.set_test_owner(dam, Dir::PlusY as usize, 0, None);
            for _ in 0..80 {
                st.cycle(6);
            }
            assert_eq!(ids(&st.ejected), pk, "stream order survives the wrap");
            assert!(st.ejected.iter().all(|dl| dl.state.head_hop == 3));
            assert_eq!(st.f.in_flight(), 0);
            for sh in &st.f.shards {
                sh.assert_pool_drained(meshpath_obs::StopKind::Clean);
            }
        }
    }

    #[test]
    fn lone_occupants_are_granted_exactly_as_the_reference_scan_grants_them() {
        // Two fabrics fed the same low-load traffic, one on each
        // stepper, compared field by field every cycle. Worms of three
        // flits leave (0,0) for (1,4) every 11 cycles and cross the
        // band edge past y = 2; worms of two join them at (0,1) every
        // 17 — so heads, bodies, tails, ejections and boundary
        // messages all pass, mostly through routers with one occupied
        // input VC and now and then through a contended one.
        let mesh = Mesh::square(6);
        let fabric = || Fabric::new(mesh, TEST_VCS, TEST_DEPTH, 2);
        let (mut event, mut scan) = (fabric(), fabric());
        let mut hop = ScriptedHop::new();
        use Dir::{MinusX, PlusX, PlusY};
        let streams = [
            (hop.script(Coord::new(0, 0), &[PlusY, PlusY, PlusY, PlusY, PlusX]), 3u32, 11u64),
            (hop.script(Coord::new(1, 1), &[MinusX, PlusY, PlusY, PlusY]), 2, 17),
        ];
        // Per stream: the packet being fed, once on each fabric.
        let mut feeding: [Option<[Worm; 2]>; 2] = [None, None];
        let mut next_id = 0;
        let (mut lone, mut visits) = (0u32, 0u32);
        let mut delivered = 0;
        for cycle in 0..400u64 {
            for (k, &((s, d), len, every)) in streams.iter().enumerate() {
                let fed = feeding[k].as_ref().is_none_or(|[w, _]| w.sent == len);
                if fed && cycle % every == 0 && cycle < 300 {
                    let state = PacketState::new(s, d, cycle, len);
                    feeding[k] = Some([Worm::new(next_id, state), Worm::new(next_id, state)]);
                    next_id += 1;
                }
                if let Some([on_event, on_scan]) = &mut feeding[k] {
                    event.feed(on_event);
                    scan.feed(on_scan);
                }
            }
            for m in event.shards.iter().flat_map(|s| &s.occ_mask).filter(|&&m| m != 0) {
                visits += 1;
                lone += u32::from(m.count_ones() == 1);
            }
            let (mut now, mut now_by_scan) = (Vec::new(), Vec::new());
            let report = event.step(&mut hop, &mut now);
            let by_scan = step_bands(&mut scan.shards, &mut [&mut hop], true, &mut now_by_scan);
            assert_eq!(report, by_scan, "cycle {cycle}");
            // (Within a cycle, deliveries come in visiting order.)
            now.sort_by_key(|d| d.packet);
            now_by_scan.sort_by_key(|d| d.packet);
            assert_eq!(now, now_by_scan, "cycle {cycle}");
            delivered += now.len();
            for (a, b) in event.shards.iter().zip(&scan.shards) {
                assert_eq!(a.rr, b.rr, "round-robin bytes, cycle {cycle}");
                assert_eq!(a.occ_mask, b.occ_mask, "cycle {cycle}");
                assert_eq!(a.free_mask, b.free_mask, "cycle {cycle}");
                assert_eq!(a.owned, b.owned, "cycle {cycle}");
                assert_eq!(a.credits, b.credits, "cycle {cycle}");
            }
            event.assert_masks_consistent();
        }
        assert_eq!(delivered, 28 + 18, "every worm arrives");
        assert_eq!(event.in_flight(), 0);
        assert!(lone * 10 >= visits * 8, "{lone} of {visits} visits had one occupant");
        assert!(lone < visits, "no contended visit: the streams never met");
    }

    #[test]
    fn a_packet_carries_its_route_across_bands() {
        use crate::routing::{Epoch, EscapeHop, PathTable, RoutingKind};
        use meshpath_mesh::FaultSet;
        use meshpath_route::NetView;
        use std::sync::Arc;

        // Two row bands stepped as the run loop steps them: each shard
        // on its own router over its own table, both sharing one epoch.
        let mesh = Mesh::square(6);
        let view = NetView::build(FaultSet::none(mesh));
        let tables = [RoutingKind::Rb2; 2].map(|kind| PathTable::new(&view, kind));
        let epoch = Arc::new(Epoch::first(&tables[0]));
        let [mut r0, mut r1] =
            tables.each_ref().map(|table| EscapeHop::new(table.for_band(), Arc::clone(&epoch), 4));
        let mut f = Fabric::new(mesh, TEST_VCS, TEST_DEPTH, 2);
        let (s, d) = (Coord::new(1, 0), Coord::new(1, 5));
        let mut pk = PacketState::new(s, d, 0, 2);
        let route = r0.admit(&mut pk);
        assert!(route.is_some());
        let mut worm = Worm { route, ..Worm::new(0, pk) };
        let mut delivered = Vec::new();
        for _ in 0..20 {
            f.feed(&mut worm);
            step_bands(&mut f.shards, &mut [&mut r0, &mut r1], false, &mut delivered);
            f.assert_masks_consistent();
        }
        assert_eq!(ids(&delivered), vec![0]);
        assert_eq!(delivered[0].state.head_hop, 5);
        // Three routers decided in the band of rows 0..3 and two (plus
        // the ejection) in the band of rows 3..6, all reading the route
        // admission compiled.
        assert_eq!(tables[0].compiles(), 1, "admission compiled");
        assert_eq!(tables[1].compiles(), 0, "the route crossed with the packet");
    }

    #[test]
    #[should_panic(expected = "flit-ring cursor limit of 255")]
    fn depths_beyond_the_ring_cursors_are_rejected() {
        Shard::bands(Mesh::square(2), 2, 256, 1);
    }

    #[test]
    fn steppers_interleave_and_masks_stay_consistent() {
        // The event-driven and reference steppers share all grant and
        // boundary bookkeeping, so a run may alternate between them at
        // any cycle — and shard counts must not matter either: two
        // converging worms must complete exactly as under either pure
        // stepper, with the masks valid throughout.
        let run_mixed = |pick: fn(u64) -> bool, shards: usize| -> Vec<(u32, u64)> {
            let mesh = Mesh::square(4);
            let mut f = Fabric::new(mesh, TEST_VCS, TEST_DEPTH, shards);
            let mut hop = ScriptedHop::new();
            let len = 3u32;
            let (sa, da) = hop.script(Coord::new(0, 0), &[Dir::PlusX, Dir::PlusX]);
            let (sb, db) = hop.script(Coord::new(1, 1), &[Dir::MinusY, Dir::PlusX]);
            let mut worms = [
                Worm::new(0, PacketState::new(sa, da, 0, len)),
                Worm::new(1, PacketState::new(sb, db, 0, len)),
            ];
            let mut ejected = Vec::new();
            let mut done = Vec::new();
            for cycle in 0..100u64 {
                worms.iter_mut().for_each(|w| f.feed(w));
                step_bands(&mut f.shards, &mut [&mut hop], !pick(cycle), &mut ejected);
                f.assert_masks_consistent();
                done.extend(ejected.drain(..).map(|d| (d.packet, cycle)));
                if done.len() == 2 {
                    break;
                }
            }
            assert_eq!(f.in_flight(), 0);
            done
        };
        let optimized = run_mixed(|_| true, 1);
        let reference = run_mixed(|_| false, 1);
        let alternating = run_mixed(|c| c % 2 == 0, 1);
        assert_eq!(optimized, reference, "steppers must grant identically");
        assert_eq!(optimized, alternating, "steppers must interleave freely");
        for shards in [2, 4] {
            assert_eq!(run_mixed(|_| true, shards), optimized, "{shards}-shard event-driven");
            assert_eq!(run_mixed(|_| false, shards), optimized, "{shards}-shard reference");
            assert_eq!(run_mixed(|c| c % 3 == 0, shards), optimized, "{shards}-shard interleaved");
        }
    }
}
