//! The struct-of-arrays executor of the fast engine: cohort stepping over
//! the lanes that can act, slot-cached routing over the routers that hold
//! wavelets. It steps cycle by cycle like the reference engine, but a PE that
//! merely waits costs it nothing.
//!
//! Every fabric with programs on most of its PEs runs here, whether those
//! PEs compute or wait for a wavefront to reach them (the entry test counts
//! unfinished programs, see [the dense regime](super)). On entry the hot
//! state of the whole fabric is *extracted* into flat mirrors:
//!
//! * per-PE execution state (pc, progress counters, pending no-ops, finish
//!   cycles, statistics) as parallel arrays indexed by PE,
//! * a compact descriptor of each PE's current instruction (kind, colors,
//!   offsets, length, flags) refreshed whenever the lane advances,
//! * the ramp FIFOs as fixed-stride circular rings in two flat arrays,
//! * per-router routing state: a color→slot map plus the active rule of
//!   every script (accept direction, forward set, advance trigger, cursor)
//!   as flat slot records, so routing a wavelet touches no `Vec` of rules
//!   and no linear color scan,
//! * a neighbour table, a per-router occupied-port mask, and two bitsets:
//!   the **live** lanes (unfinished and not parked) and the **active**
//!   routers (non-zero port mask).
//!
//! Each simulated cycle then runs in three passes. A read-only **plan** pass
//! walks the live lanes and buckets them into cohorts by instruction kind —
//! the lanes that will act, the lanes that stall, and the `f32` operands of
//! every `Recv`+reduce / `RecvForward` lane gathered into contiguous scratch.
//! An **execute** pass drains each cohort in a tight loop, applying reduce
//! operators through the chunked kernels of [`crate::kernel`]. A **routing**
//! pass replays the reference engine's exact ascending router / port /
//! fairness order over the active routers — itself split into a gather
//! sub-pass (collect every occupied port's visible head, warming the slot
//! and destination lines with independent loads) and a commit sub-pass
//! (decide and move, with per-rule destination caches and a full-queue
//! bitset keeping the decide path off the destination's cache line). Both
//! walks are ascending bitset walks: routing order is part of the semantics,
//! and for lanes it is the order in which the mirrors lie in memory (an
//! unordered live list cost the all-busy 48x48 Reduce 12%). On exit every
//! mirror is written back, so the fabric is byte-identical to one advanced
//! by the reference engine.
//!
//! # Parked lanes
//!
//! A stalled lane whose stall only a router move can end leaves the live
//! set: a `Send` (its up ring is full), a receive on an *empty* down ring, a
//! `RecvForward` on an empty down ring or with a consumable head and a full
//! up ring, an `Exchange` of which neither half acted and whose receive side
//! is done or has nothing queued. A head that is queued but not ready yet is
//! a timed wait and keeps its lane live. The stall of the parking cycle
//! `now` is counted by the cohort as always; `since = now + 1` is then the
//! first cycle nobody has counted, and the rest is credited lazily:
//!
//! * the router pushing onto the lane's down ring, or popping its up ring,
//!   in cycle `now` wakes it with `now + 1 - since` stalls (it would have
//!   stalled in phase 1 of `now` too),
//! * a noise no-op drawn for it before the plan pass of `now` wakes it with
//!   `now - since` (in `now` it takes the no-op instead),
//! * `writeback(through)` credits `through - since` to whatever is still
//!   parked: `through` is `fabric.cycle` on completion, cycle limit,
//!   deadlock and hand-back (the cycle counter has advanced, or the cycle
//!   has not started), `now` when the plan pass abandons the cycle (the
//!   scalar replay steps those PEs itself) and `now + 1` on a routing error
//!   (every PE has taken its phase-1 step of `now`).
//!
//! A spurious wake costs one stalled step and a re-park; a missed one is a
//! hang. Termination and the hand-back density count live *plus* parked
//! lanes, so segments begin and end on the cycles they would without
//! parking, and no parking state outlives `writeback`.
//!
//! Two more details preserve byte-identity on the edges:
//!
//! * **Errors.** Phase-1 steps of one cycle are mutually independent, so
//!   cohort order is free — *except* that the reference engine returns the
//!   error of the lowest-indexed erroring PE, leaving later PEs unstepped
//!   that cycle. The plan pass therefore detects any lane that would raise a
//!   program error and, instead of executing, writes the mirrors back and
//!   replays the whole cycle through the scalar [`PeState::step`] path,
//!   which reproduces the reference's precedence and partial-cycle state
//!   exactly. Routing errors already surface in reference order because the
//!   routing pass is sequential.
//! * **Noise.** Stepping never skips cycles, so it also runs under a noise
//!   model: the RNG is sampled once per PE per cycle in index order, exactly
//!   like the reference engine, and lanes with pending no-ops take the no-op
//!   branch instead of their cohort's action.

use std::collections::VecDeque;
use std::mem;

use super::{Fabric, FabricError, RunReport, INBUF_CAPACITY};
use crate::geometry::{Direction, DirectionSet};
use crate::kernel;
use crate::pe::DenseHot;
use crate::program::{Instruction, RecvMode, ReduceOp};
use crate::wavelet::{Color, Wavelet};

/// Default value of [`super::FabricParams::dense_threshold_pct`].
pub(super) const DEFAULT_THRESHOLD_PCT: u32 = 40;

/// Ramp capacities beyond this disable dense stepping: the ring mirrors are
/// capacity-strided flat arrays, so a pathological ramp latency would make
/// extraction cost more than it saves.
const MAX_RAMP_CAPACITY: usize = 256;

/// `Direction::ALL[pos].index()` for every arbitration position (the four
/// mesh directions followed by the ramp).
const ALL_IDX: [usize; 5] = [3, 1, 0, 2, 4];
/// Position of [`Direction::Ramp`] in `Direction::ALL`.
const RAMP_ALL_POS: usize = 4;

/// Sentinel for "no script slot" in the color→slot maps.
const NO_SLOT: u8 = u8::MAX;

/// Sentinel for "no queue yet for this color" in the input-port maps.
const NO_QUEUE: u8 = u8::MAX;

/// Sentinel accept direction of an exhausted (or empty) script: no port
/// index equals it, so every candidate stalls.
const NO_ACCEPT: u8 = 5;

const OPS: [ReduceOp; 4] = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::Prod];

fn op_index(op: ReduceOp) -> usize {
    match op {
        ReduceOp::Sum => 0,
        ReduceOp::Max => 1,
        ReduceOp::Min => 2,
        ReduceOp::Prod => 3,
    }
}

#[cfg(test)]
static SEGMENTS_ENTERED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

#[cfg(test)]
pub(super) fn segments_entered() -> u64 {
    SEGMENTS_ENTERED.load(std::sync::atomic::Ordering::Relaxed)
}

#[cfg(test)]
static SEGMENTS_HANDED_BACK: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

#[cfg(test)]
pub(super) fn segments_handed_back() -> u64 {
    SEGMENTS_HANDED_BACK.load(std::sync::atomic::Ordering::Relaxed)
}

// Lanes the plan pass looked at / routers the gather pass looked at, per test
// thread (so a test's delta is exact while other tests run beside it).
#[cfg(test)]
thread_local! {
    static LANE_VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static ROUTER_VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// `since` of a lane that is not parked.
const NOT_PARKED: u64 = u64::MAX;

/// Ascending walk over the set bits of a bit-per-PE set. Each word is read
/// when the walk reaches it and the slice is borrowed only per step, so the
/// loop body may take `&mut` of the owner.
#[derive(Default)]
struct BitWalk {
    /// Index of the word after the one being drained.
    next_word: usize,
    /// Unvisited bits of the current word.
    word: u64,
}

impl BitWalk {
    #[inline]
    fn next(&mut self, words: &[u64]) -> Option<usize> {
        while self.word == 0 {
            self.word = *words.get(self.next_word)?;
            self.next_word += 1;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some((self.next_word - 1) * 64 + bit)
    }
}

/// The effective dense entry threshold (as a percentage), or `None` if dense
/// stepping is disabled for this fabric.
pub(super) fn entry_threshold(fabric: &Fabric) -> Option<usize> {
    let pct = fabric.params.dense_threshold_pct.unwrap_or(DEFAULT_THRESHOLD_PCT);
    let cap = fabric.pes[0].dense_ramp_capacity();
    (pct <= 100 && cap <= MAX_RAMP_CAPACITY).then_some(pct as usize)
}

/// The current instruction kind of a lane — the cohort key. Reduce operators
/// are folded in so each cohort's execute loop applies exactly one operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Compute,
    Send,
    RecvStore,
    RecvReduce(ReduceOp),
    Forward(ReduceOp),
    Exchange,
    /// Program counter past the end with the finish cycle not yet recorded —
    /// a never-programmed PE, which retires on its first step.
    Epilogue,
}

/// `Direction` by its `index()` (the inverse of `Direction::index`).
const DIR_BY_INDEX: [Direction; 5] =
    [Direction::North, Direction::East, Direction::South, Direction::West, Direction::Ramp];

/// Marks a multi-target forward in [`SlotState::fwd_one`].
const MULTICAST: u8 = u8::MAX;

/// `Direction::Ramp.index()`.
const RAMP_INDEX: usize = 4;

/// `d.opposite().index()` by `d.index()`, for the four mesh directions.
const OPP_INDEX: [usize; 4] = [2, 3, 0, 1];

/// The mirrored active rule and cursor of one router script.
#[derive(Debug, Clone, Copy)]
struct SlotState {
    /// `Direction::index()` of the accepting port, or [`NO_ACCEPT`].
    accept_from: u8,
    /// `Direction::index()` of the single forward target, or [`MULTICAST`]
    /// — the overwhelmingly common single-target case skips the set walk.
    fwd_one: u8,
    /// The rule can never advance (`advance_after` unset, no control
    /// trigger): the cursor update reduces to a count increment.
    advance_never: bool,
    advance_on_control: bool,
    forward: DirectionSet,
    /// Accepted-wavelet count that advances the rule; `u64::MAX` for never.
    advance_after: u64,
    pos: u32,
    count: u64,
    /// Cached destination of a single-target mesh forward: the absolute
    /// input-port base at the neighbour, `u32::MAX` until first resolved
    /// (reset whenever the rule changes).
    dest_pb: u32,
    /// Cached destination queue base; `u32::MAX` while the queue does not
    /// exist yet. Stable once set — queues are never removed and a port's
    /// color→queue map never changes.
    dest_qb: u32,
}

fn load_rule(slot: &mut SlotState, rules: &[crate::router::RouteRule]) {
    match rules.get(slot.pos as usize) {
        None => {
            slot.accept_from = NO_ACCEPT;
            slot.fwd_one = MULTICAST;
            slot.advance_never = true;
            slot.advance_on_control = false;
            slot.forward = DirectionSet::EMPTY;
            slot.advance_after = u64::MAX;
            slot.dest_pb = u32::MAX;
            slot.dest_qb = u32::MAX;
        }
        Some(rule) => {
            slot.accept_from = rule.accept_from.index() as u8;
            slot.fwd_one = match rule.forward_to.len() {
                1 => rule.forward_to.iter().next().expect("one target").index() as u8,
                _ => MULTICAST,
            };
            slot.advance_on_control = rule.advance_on_control;
            slot.advance_never = rule.advance_after.is_none() && !rule.advance_on_control;
            slot.forward = rule.forward_to;
            slot.advance_after = rule.advance_after.unwrap_or(u64::MAX);
            slot.dest_pb = u32::MAX;
            slot.dest_qb = u32::MAX;
        }
    }
}

/// Gathered operands of one reduce cohort: parallel lanes of accumulator,
/// incoming value and local index.
#[derive(Debug, Default)]
struct OpScratch {
    pe: Vec<u32>,
    acc: Vec<f32>,
    inc: Vec<f32>,
    idx: Vec<u32>,
}

impl OpScratch {
    fn clear(&mut self) {
        self.pe.clear();
        self.acc.clear();
        self.inc.clear();
        self.idx.clear();
    }
}

/// The mirrored statistics counters of one PE, packed so a lane update
/// touches a single cache line.
#[derive(Debug, Clone, Copy, Default)]
struct LaneStats {
    sent: u64,
    received: u64,
    stalls: u64,
    noops: u64,
}

/// The packed descriptor of one PE's current instruction. Field meaning
/// depends on the lane's [`Kind`]: `color`/`off` describe the receive side,
/// `color2`/`off2` the send side of `RecvForward`/`Exchange`.
#[derive(Debug, Clone, Copy)]
struct Desc {
    color: Color,
    color2: Color,
    op: ReduceOp,
    last_control: bool,
    keep: bool,
    store: bool,
    off: u32,
    off2: u32,
    len: u32,
}

impl Default for Desc {
    fn default() -> Self {
        Desc {
            color: Color(0),
            color2: Color(0),
            op: ReduceOp::Sum,
            last_control: false,
            keep: false,
            store: false,
            off: 0,
            off2: 0,
            len: 0,
        }
    }
}

/// Packed per-queue metadata of one input-port color queue: ring cursor,
/// the queue's color, and the cached slot index of that color at the owning
/// router ([`NO_SLOT`] if unconfigured). One 4-byte load covers everything
/// the router sweep needs besides the ring entries themselves.
#[derive(Debug, Clone, Copy, Default)]
struct QMeta {
    head: u8,
    len: u8,
    color: u8,
    slot: u8,
}

/// One input-port color queue: packed metadata and the ring entries it
/// indexes, adjacent so the head probe and the entry load share a cache
/// line.
#[derive(Debug, Clone, Copy)]
struct QBlock {
    meta: QMeta,
    ring: [(u64, Wavelet); INBUF_CAPACITY],
}

impl Default for QBlock {
    fn default() -> Self {
        Self { meta: QMeta::default(), ring: [(0, Wavelet::data(Color(0), 0)); INBUF_CAPACITY] }
    }
}

/// Packed ramp-ring cursors of one PE: both FIFOs in a single 8-byte load.
#[derive(Debug, Clone, Copy, Default)]
struct RMeta {
    up_head: u16,
    up_len: u16,
    down_head: u16,
    down_len: u16,
}

/// Planned actions of one `Exchange` lane (sends and receives progress
/// independently).
#[derive(Debug, Clone, Copy)]
struct ExchPlan {
    pe: u32,
    send: bool,
    recv: bool,
    send_val: f32,
    recv_val: f32,
}

/// A routing candidate gathered by the first routing pass: the visible head
/// wavelet of one occupied input port, plus where it came from.
#[derive(Debug, Clone, Copy)]
struct Cand {
    /// Router (PE) index.
    i: u32,
    /// Source port as a `Direction::ALL` position (4 = ramp).
    pos: u8,
    /// Fairness-rotation step the head was found at (mesh ports only);
    /// later queues are retried from `k + 1` if this candidate fails.
    k: u8,
    /// Router-relative slot of the wavelet's color.
    slot: u8,
    /// Absolute source port base, `u32::MAX` for the ramp.
    pb: u32,
    /// Absolute source queue block, `u32::MAX` for the ramp.
    qb: u32,
    w: Wavelet,
}

/// Per-cycle cohort scratch, reused across cycles.
#[derive(Debug, Default)]
struct Scratch {
    cands: Vec<Cand>,
    noop: Vec<u32>,
    epilogue: Vec<u32>,
    compute: Vec<u32>,
    /// Lanes that stall on a maturing head — a timed wait: they stay live.
    stalled: Vec<u32>,
    /// Lanes that stall until a router move unblocks them: they park.
    park: Vec<u32>,
    send_pe: Vec<u32>,
    send_val: Vec<f32>,
    store_pe: Vec<u32>,
    store_val: Vec<f32>,
    store_idx: Vec<u32>,
    red: [OpScratch; 4],
    fwd: [OpScratch; 4],
    exch: Vec<ExchPlan>,
}

impl Scratch {
    fn clear(&mut self) {
        self.noop.clear();
        self.epilogue.clear();
        self.compute.clear();
        self.stalled.clear();
        self.park.clear();
        self.send_pe.clear();
        self.send_val.clear();
        self.store_pe.clear();
        self.store_val.clear();
        self.store_idx.clear();
        for s in &mut self.red {
            s.clear();
        }
        for s in &mut self.fwd {
            s.clear();
        }
        self.exch.clear();
    }
}

/// The struct-of-arrays mirrors of the whole fabric for one dense segment.
struct DenseState {
    n: usize,
    /// Ring stride: the (uniform) ramp FIFO capacity.
    cap: usize,
    t_r: u64,
    /// Whether any pending no-ops can exist (noise model attached, or
    /// leftovers from before extraction). When false the per-lane pending
    /// check is skipped entirely.
    noisy: bool,

    // Per-PE execution mirrors (indexed by PE).
    kind: Vec<Kind>,
    pc: Vec<usize>,
    progress: Vec<u32>,
    progress_alt: Vec<u32>,
    pending: Vec<u32>,
    /// Finish cycle, `u64::MAX` while unfinished.
    finish: Vec<u64>,
    stats: Vec<LaneStats>,
    /// All PE local memories, concatenated; `local_base[pe]..local_base[pe+1]`
    /// is PE `pe`'s slice (`n + 1` entries).
    local: Vec<f32>,
    local_base: Vec<u32>,

    /// Current-instruction descriptor per PE (field meaning depends on
    /// `kind` — recv color / send color / recv offset / send offset / length).
    desc: Vec<Desc>,

    // Ramp FIFOs as fixed-stride circular rings, cursors packed per PE.
    up: Vec<(u64, Wavelet)>,
    down: Vec<(u64, Wavelet)>,
    ramp: Vec<RMeta>,
    /// Ready cycle of each up ring's head, `u64::MAX` when empty: the hot
    /// not-ready probe is one compare instead of two dependent ring loads.
    up_head_ready: Vec<u64>,
    /// Same for the down rings (probed by every waiting recv lane).
    down_head_ready: Vec<u64>,

    // Routing mirrors.
    /// Neighbour PE index per mesh direction (`Direction::index()` order),
    /// `u32::MAX` off-grid.
    nbr: Vec<[u32; 4]>,
    color_slot: Vec<[u8; Color::MAX_COLORS as usize]>,
    /// Start of PE `i`'s slots in `slots`; `n + 1` entries (last is the total).
    slot_base: Vec<u32>,
    slots: Vec<SlotState>,
    /// Occupied input ports per router, as a bitmask over
    /// `Direction::index()` (bit 4 = the up ring). The routing scan tests
    /// one bit instead of walking a port's queues to find it empty.
    port_mask: Vec<u8>,
    /// Wavelet count per (router, mesh port), across that port's queues;
    /// drives the `port_mask` bit reset on pop.
    port_load: Vec<u16>,

    // Input-port mirrors: per (router, mesh port), up to `qcap` per-color
    // queues in creation order (the order drives the fairness rotation),
    // each a fixed ring of `INBUF_CAPACITY` entries. `qcap` bounds the
    // per-port queue count by the number of distinct colors configured or
    // in flight anywhere — a queue is only ever created for a wavelet some
    // router accepted.
    qcap: usize,
    /// Per-queue blocks: packed cursor/color/slot plus the ring entries.
    ib_q: Vec<QBlock>,
    /// One bit per queue block, set while the queue is full. The space check
    /// on the routing decide path tests this small L1-resident bitset
    /// instead of loading the destination queue's cache line.
    ib_full: Vec<u64>,
    /// Queue count per (router, port).
    ib_nq: Vec<u8>,
    /// Color id → queue index per (router, port), [`NO_QUEUE`] if absent.
    ib_color_qi: Vec<[u8; Color::MAX_COLORS as usize]>,

    // Global wavelet counts for the termination test.
    ramp_wavelets: u64,
    inbuf_wavelets: u64,

    /// The stepped set: unfinished lanes that are not parked (bit per PE).
    live: Vec<u64>,
    /// Unfinished lanes, live plus parked — what the termination test and
    /// the hand-back density count.
    unfinished: usize,
    /// First cycle of each parked lane whose stall is not yet credited;
    /// [`NOT_PARKED`] otherwise.
    since: Vec<u64>,
    /// Number of parked lanes (0 short-circuits every wake check).
    parked: usize,
    /// Routers with a non-zero `port_mask` (bit per PE), kept in step with it.
    routers: Vec<u64>,
    sc: Scratch,
}

/// What the plan pass concluded about this cycle.
#[derive(Debug, PartialEq, Eq)]
enum Plan {
    Clean,
    /// Some lane would raise a program error: abandon the cycle (nothing has
    /// been mutated) and replay it through the scalar path.
    WouldError,
}

/// Run dense cycles until the fabric completes (`Ok(Some(report))`), the
/// live-lane density drops below half of `entry_pct` (`Ok(None)` — the
/// event-driven loop takes over), or the run fails. `idle_cycles` is the
/// shared no-progress counter, threaded through so deadlocks fire at the
/// same cycle as in the reference engine.
pub(super) fn run_segment(
    fabric: &mut Fabric,
    idle_cycles: &mut u64,
    entry_pct: usize,
) -> Result<Option<RunReport>, FabricError> {
    #[cfg(test)]
    SEGMENTS_ENTERED.fetch_add(1, std::sync::atomic::Ordering::Relaxed);

    let tolerance = fabric.idle_tolerance();
    let mut st = DenseState::extract(fabric);

    loop {
        if st.unfinished == 0 && st.ramp_wavelets == 0 && st.inbuf_wavelets == 0 {
            st.writeback(fabric, fabric.cycle);
            debug_assert!(fabric.finished());
            return Ok(Some(fabric.report()));
        }
        if fabric.cycle >= fabric.params.max_cycles {
            st.writeback(fabric, fabric.cycle);
            return Err(FabricError::CycleLimitExceeded { limit: fabric.params.max_cycles });
        }
        let now = fabric.cycle;

        // Phase A: noise draws for every PE, in index order (identical RNG
        // stream to the reference engine). A no-op landing on a parked lane
        // wakes it: this cycle it takes the no-op, not another stall.
        if let Some(noise) = &mut fabric.noise {
            for pe in 0..st.n {
                let noops = noise.sample_noops();
                if noops > 0 {
                    st.pending[pe] = st.pending[pe].saturating_add(noops);
                    st.wake(pe, now);
                }
            }
        }

        // Phase B: plan (read-only), then execute per cohort.
        st.sc.clear();
        if st.plan(now) == Plan::WouldError {
            // The scalar replay steps cycle `now` for every PE itself.
            st.writeback(fabric, now);
            scalar_cycle(fabric, idle_cycles, tolerance)?;
            return Ok(None);
        }
        let mut progress = st.execute(fabric, now);

        // Phase C: routing, in the reference's exact order.
        match st.route_all(fabric, now) {
            Ok(moved) => progress |= moved,
            Err(e) => {
                // Every PE has taken its phase-1 step of `now`.
                st.writeback(fabric, now + 1);
                return Err(e);
            }
        }

        fabric.cycle += 1;
        if progress {
            *idle_cycles = 0;
        } else {
            *idle_cycles += 1;
            if *idle_cycles > tolerance {
                st.writeback(fabric, fabric.cycle);
                return Err(fabric.deadlock_error());
            }
        }

        // Hand-back: only when the fabric goes idle *and* the unfinished-lane
        // density has dropped below half the entry threshold. A flowing
        // pipeline is cheaper to step here than in the event-driven loop
        // regardless of density (no cycle can be skipped while wavelets
        // move), but an idle cycle at low density is exactly the situation
        // the skip-ahead loop exists for. With an entry threshold of 0 the
        // density clause never fires: the segment runs to completion.
        if !progress && st.unfinished * 200 < entry_pct * st.n {
            #[cfg(test)]
            SEGMENTS_HANDED_BACK.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            st.writeback(fabric, fabric.cycle);
            return Ok(None);
        }
    }
}

/// Replay one full cycle through the scalar reference path, after the plan
/// pass predicted a program error and the mirrors were written back. Noise
/// for this cycle has already been injected. If the prediction was exact the
/// step loop returns the reference's error; if it was conservative the cycle
/// simply completes scalar and the caller re-enters whichever regime fits.
fn scalar_cycle(
    fabric: &mut Fabric,
    idle_cycles: &mut u64,
    tolerance: u64,
) -> Result<(), FabricError> {
    let now = fabric.cycle;
    let t_r = fabric.params.ramp_latency;
    let mut progress = false;
    for i in 0..fabric.pes.len() {
        match fabric.pes[i].step(now, t_r) {
            Ok(adv) => progress |= adv,
            Err(e) => return Err(FabricError::Program(e)),
        }
    }
    for i in 0..fabric.pes.len() {
        progress |= fabric.route_one(i, now, None)?;
    }
    fabric.cycle += 1;
    if progress {
        *idle_cycles = 0;
    } else {
        *idle_cycles += 1;
        if *idle_cycles > tolerance {
            return Err(fabric.deadlock_error());
        }
    }
    Ok(())
}

impl DenseState {
    fn extract(fabric: &mut Fabric) -> DenseState {
        let n = fabric.pes.len();
        let cap = fabric.pes[0].dense_ramp_capacity();
        let null = (0u64, Wavelet::data(Color(0), 0));

        // A port can hold at most one queue per distinct wavelet color, and
        // every wavelet that reaches an input port was accepted by some
        // router's script for its color — so the configured (or already
        // queued) colors bound the per-port queue count.
        let mut color_seen = [false; Color::MAX_COLORS as usize];
        for i in 0..n {
            for (_, color) in fabric.routers[i].slots() {
                color_seen[color.id() as usize] = true;
            }
            for port in &fabric.inbuf[i] {
                for (color, _) in &port.queues {
                    color_seen[color.id() as usize] = true;
                }
            }
        }
        let qcap = color_seen.iter().filter(|&&seen| seen).count().max(1);
        let mut st = DenseState {
            n,
            cap,
            t_r: fabric.params.ramp_latency,
            noisy: fabric.noise.is_some(),
            kind: Vec::with_capacity(n),
            pc: Vec::with_capacity(n),
            progress: Vec::with_capacity(n),
            progress_alt: Vec::with_capacity(n),
            pending: Vec::with_capacity(n),
            finish: Vec::with_capacity(n),
            stats: Vec::with_capacity(n),
            local: Vec::new(),
            local_base: Vec::with_capacity(n + 1),
            desc: vec![Desc::default(); n],
            up: vec![null; n * cap],
            down: vec![null; n * cap],
            ramp: Vec::with_capacity(n),
            up_head_ready: Vec::with_capacity(n),
            down_head_ready: Vec::with_capacity(n),
            nbr: Vec::with_capacity(n),
            color_slot: Vec::with_capacity(n),
            slot_base: Vec::with_capacity(n + 1),
            slots: Vec::new(),
            port_mask: Vec::with_capacity(n),
            port_load: vec![0; n * 4],
            qcap,
            ib_q: vec![QBlock::default(); n * 4 * qcap],
            ib_full: vec![0; (n * 4 * qcap).div_ceil(64)],
            ib_nq: vec![0; n * 4],
            ib_color_qi: vec![[NO_QUEUE; Color::MAX_COLORS as usize]; n * 4],
            ramp_wavelets: 0,
            inbuf_wavelets: 0,
            live: vec![0; n.div_ceil(64)],
            unfinished: 0,
            since: vec![NOT_PARKED; n],
            parked: 0,
            routers: vec![0; n.div_ceil(64)],
            sc: Scratch::default(),
        };

        let mut tmp_up = Vec::new();
        let mut tmp_down = Vec::new();
        for i in 0..n {
            let hot = fabric.pes[i].dense_extract(&mut tmp_up, &mut tmp_down);
            st.pc.push(hot.pc);
            st.progress.push(hot.progress);
            st.progress_alt.push(hot.progress_alt);
            st.pending.push(hot.pending_noops);
            st.noisy |= hot.pending_noops > 0;
            st.finish.push(hot.finish_cycle.unwrap_or(u64::MAX));
            st.stats.push(LaneStats {
                sent: hot.stats.sent,
                received: hot.stats.received,
                stalls: hot.stats.stall_cycles,
                noops: hot.stats.noop_cycles,
            });
            st.local_base.push(st.local.len() as u32);
            st.local.extend_from_slice(&hot.local);
            st.up[i * cap..i * cap + tmp_up.len()].copy_from_slice(&tmp_up);
            st.down[i * cap..i * cap + tmp_down.len()].copy_from_slice(&tmp_down);
            st.up_head_ready.push(tmp_up.first().map_or(u64::MAX, |e| e.0));
            st.down_head_ready.push(tmp_down.first().map_or(u64::MAX, |e| e.0));
            st.ramp.push(RMeta {
                up_head: 0,
                up_len: tmp_up.len() as u16,
                down_head: 0,
                down_len: tmp_down.len() as u16,
            });
            st.ramp_wavelets += (tmp_up.len() + tmp_down.len()) as u64;

            let instr = if hot.finish_cycle.is_none() {
                fabric.pes[i].instruction_at(hot.pc)
            } else {
                None
            };
            st.kind.push(Kind::Epilogue);
            st.set_descriptor(i, instr);
            if hot.finish_cycle.is_none() {
                st.live[i >> 6] |= 1 << (i & 63);
                st.unfinished += 1;
            }
        }
        st.local_base.push(st.local.len() as u32);

        for i in 0..n {
            let here = fabric.dim.coord(i);
            let mut nb = [u32::MAX; 4];
            for d in Direction::MESH {
                if let Some(nc) = fabric.dim.neighbor(here, d) {
                    nb[d.index()] = fabric.dim.index(nc) as u32;
                }
            }
            st.nbr.push(nb);

            st.slot_base.push(st.slots.len() as u32);
            let mut map = [NO_SLOT; Color::MAX_COLORS as usize];
            let router = &fabric.routers[i];
            for (s, color) in router.slots() {
                debug_assert!(s < NO_SLOT as usize);
                map[color.id() as usize] = s as u8;
                let (pos, count) = router.slot_cursor(s);
                let mut slot = SlotState {
                    accept_from: NO_ACCEPT,
                    fwd_one: MULTICAST,
                    advance_never: false,
                    advance_on_control: false,
                    forward: DirectionSet::EMPTY,
                    advance_after: u64::MAX,
                    pos: pos as u32,
                    count,
                    dest_pb: u32::MAX,
                    dest_qb: u32::MAX,
                };
                load_rule(&mut slot, router.slot_rules(s));
                st.slots.push(slot);
            }
            st.color_slot.push(map);

            let mut mask = 0u8;
            if st.ramp[i].up_len > 0 {
                mask |= 1 << RAMP_INDEX;
            }
            for (p, port) in fabric.inbuf[i].iter().enumerate() {
                let pb = i * 4 + p;
                debug_assert!(port.queues.len() <= qcap);
                st.ib_nq[pb] = port.queues.len() as u8;
                let mut load = 0u16;
                for (qi, (color, q)) in port.queues.iter().enumerate() {
                    let qb = pb * qcap + qi;
                    st.ib_q[qb].meta = QMeta {
                        head: 0,
                        len: q.len() as u8,
                        color: color.id(),
                        slot: map[color.id() as usize],
                    };
                    st.ib_color_qi[pb][color.id() as usize] = qi as u8;
                    for (k, &entry) in q.iter().enumerate() {
                        st.ib_q[qb].ring[k] = entry;
                    }
                    if q.len() >= INBUF_CAPACITY {
                        st.ib_full[qb >> 6] |= 1 << (qb & 63);
                    }
                    load += q.len() as u16;
                    st.inbuf_wavelets += q.len() as u64;
                }
                st.port_load[pb] = load;
                if load > 0 {
                    mask |= 1 << p;
                }
            }
            st.port_mask.push(mask);
            if mask != 0 {
                st.routers[i >> 6] |= 1 << (i & 63);
            }
        }
        st.slot_base.push(st.slots.len() as u32);
        st
    }

    /// Write every mirror back, crediting still-parked lanes their stalls of
    /// the cycles `since..through` (see the module docs for `through`).
    fn writeback(&mut self, fabric: &mut Fabric, through: u64) {
        let cap = self.cap;
        let mut tmp_up = Vec::with_capacity(cap);
        let mut tmp_down = Vec::with_capacity(cap);
        for i in 0..self.n {
            if self.since[i] != NOT_PARKED {
                self.stats[i].stalls += through - self.since[i];
            }
            tmp_up.clear();
            tmp_down.clear();
            let base = i * cap;
            let rm = self.ramp[i];
            for k in 0..rm.up_len as usize {
                tmp_up.push(self.up[base + (rm.up_head as usize + k) % cap]);
            }
            for k in 0..rm.down_len as usize {
                tmp_down.push(self.down[base + (rm.down_head as usize + k) % cap]);
            }
            let hot = DenseHot {
                pc: self.pc[i],
                progress: self.progress[i],
                progress_alt: self.progress_alt[i],
                pending_noops: self.pending[i],
                finish_cycle: (self.finish[i] != u64::MAX).then_some(self.finish[i]),
                stats: crate::pe::PeStats {
                    sent: self.stats[i].sent,
                    received: self.stats[i].received,
                    stall_cycles: self.stats[i].stalls,
                    noop_cycles: self.stats[i].noops,
                },
                local: self.local[self.local_base[i] as usize..self.local_base[i + 1] as usize]
                    .to_vec(),
            };
            fabric.pes[i].dense_writeback(hot, tmp_up.drain(..), tmp_down.drain(..));

            let sb = self.slot_base[i] as usize;
            let se = self.slot_base[i + 1] as usize;
            for (s, slot) in self.slots[sb..se].iter().enumerate() {
                fabric.routers[i].set_slot_cursor(s, slot.pos as usize, slot.count);
            }

            // Rebuild the live input ports from the mirrors, preserving
            // queue creation order (drained queues included — the reference
            // keeps them, and the order drives the fairness rotation).
            for (p, port) in fabric.inbuf[i].iter_mut().enumerate() {
                let pb = i * 4 + p;
                port.queues.clear();
                for qi in 0..self.ib_nq[pb] as usize {
                    let qb = pb * self.qcap + qi;
                    let b = self.ib_q[qb];
                    let mut q = VecDeque::with_capacity(INBUF_CAPACITY);
                    for k in 0..b.meta.len as usize {
                        q.push_back(b.ring[(b.meta.head as usize + k) % INBUF_CAPACITY]);
                    }
                    let m = b.meta;
                    port.queues.push((Color(m.color), q));
                }
            }
        }
    }

    /// Whether the `color` queue of input port `p` of router `pe` can take
    /// one more wavelet (a missing queue is created on push).
    #[inline]
    fn ib_has_space(&self, pe: usize, p: usize, color: Color) -> bool {
        let pb = pe * 4 + p;
        let qi = self.ib_color_qi[pb][color.id() as usize];
        if qi == NO_QUEUE {
            return true;
        }
        let qb = pb * self.qcap + qi as usize;
        self.ib_full[qb >> 6] & (1 << (qb & 63)) == 0
    }

    #[inline]
    fn ib_push(&mut self, pe: usize, p: usize, arrival: u64, w: Wavelet) {
        let pb = pe * 4 + p;
        let cid = w.color.id() as usize;
        let mut qi = self.ib_color_qi[pb][cid];
        if qi == NO_QUEUE {
            qi = self.ib_nq[pb];
            debug_assert!((qi as usize) < self.qcap);
            self.ib_nq[pb] = qi + 1;
            self.ib_color_qi[pb][cid] = qi;
            self.ib_q[pb * self.qcap + qi as usize].meta =
                QMeta { head: 0, len: 0, color: w.color.id(), slot: self.color_slot[pe][cid] };
        }
        let qb = pb * self.qcap + qi as usize;
        let b = &mut self.ib_q[qb];
        debug_assert!((b.meta.len as usize) < INBUF_CAPACITY);
        let slot = (b.meta.head as usize + b.meta.len as usize) % INBUF_CAPACITY;
        b.meta.len += 1;
        b.ring[slot] = (arrival, w);
        if b.meta.len as usize == INBUF_CAPACITY {
            self.ib_full[qb >> 6] |= 1 << (qb & 63);
        }
    }

    /// Refresh the descriptor arrays of `pe` from its current instruction.
    fn set_descriptor(&mut self, pe: usize, instr: Option<Instruction>) {
        let d = &mut self.desc[pe];
        self.kind[pe] = match instr {
            None => Kind::Epilogue,
            Some(Instruction::Compute { cycles }) => {
                d.len = cycles;
                Kind::Compute
            }
            Some(Instruction::Send { color, offset, len, last_control }) => {
                d.color = color;
                d.off = offset;
                d.len = len;
                d.last_control = last_control;
                Kind::Send
            }
            Some(Instruction::Recv { color, offset, len, mode }) => {
                d.color = color;
                d.off = offset;
                d.len = len;
                match mode {
                    RecvMode::Store => Kind::RecvStore,
                    RecvMode::Reduce(op) => Kind::RecvReduce(op),
                }
            }
            Some(Instruction::RecvForward {
                recv_color,
                send_color,
                offset,
                len,
                op,
                keep,
                last_control,
            }) => {
                d.color = recv_color;
                d.color2 = send_color;
                d.off = offset;
                d.len = len;
                d.keep = keep;
                d.last_control = last_control;
                Kind::Forward(op)
            }
            Some(Instruction::Exchange {
                send_color,
                send_offset,
                recv_color,
                recv_offset,
                len,
                mode,
            }) => {
                d.color = recv_color;
                d.color2 = send_color;
                d.off = recv_offset;
                d.off2 = send_offset;
                d.len = len;
                match mode {
                    RecvMode::Store => d.store = true,
                    RecvMode::Reduce(op) => {
                        d.store = false;
                        d.op = op;
                    }
                }
                Kind::Exchange
            }
        };
    }

    /// The visible head of `pe`'s downward ramp ring, if consumable now.
    #[inline]
    fn down_ready(&self, pe: usize, now: u64) -> Option<Wavelet> {
        if self.down_head_ready[pe] > now {
            return None;
        }
        let m = self.ramp[pe];
        Some(self.down[pe * self.cap + m.down_head as usize].1)
    }

    #[inline]
    fn down_pop(&mut self, pe: usize) {
        let cap = self.cap;
        let base = pe * cap;
        let m = &mut self.ramp[pe];
        debug_assert!(m.down_len > 0);
        let h = m.down_head as usize + 1;
        let h = if h == cap { 0 } else { h };
        m.down_head = h as u16;
        m.down_len -= 1;
        self.down_head_ready[pe] = if m.down_len == 0 { u64::MAX } else { self.down[base + h].0 };
    }

    #[inline]
    fn down_push(&mut self, pe: usize, ready: u64, w: Wavelet) {
        let cap = self.cap;
        let m = &mut self.ramp[pe];
        debug_assert!((m.down_len as usize) < cap);
        let pos = (m.down_head as usize + m.down_len as usize) % cap;
        if m.down_len == 0 {
            self.down_head_ready[pe] = ready;
        }
        m.down_len += 1;
        self.down[pe * cap + pos] = (ready, w);
    }

    /// The head of `pe`'s upward ramp ring, if visible to the router now.
    #[inline]
    fn up_ready(&self, pe: usize, now: u64) -> Option<Wavelet> {
        if self.up_head_ready[pe] > now {
            return None;
        }
        let m = self.ramp[pe];
        Some(self.up[pe * self.cap + m.up_head as usize].1)
    }

    /// Advance the upward ring past its head (the caller already holds the
    /// head wavelet from [`Self::up_ready`]).
    #[inline]
    fn up_pop(&mut self, pe: usize) {
        let cap = self.cap;
        let base = pe * cap;
        let m = &mut self.ramp[pe];
        debug_assert!(m.up_len > 0);
        let h = m.up_head as usize + 1;
        let h = if h == cap { 0 } else { h };
        m.up_head = h as u16;
        m.up_len -= 1;
        self.up_head_ready[pe] = if m.up_len == 0 { u64::MAX } else { self.up[base + h].0 };
    }

    #[inline]
    fn up_push(&mut self, pe: usize, ready: u64, w: Wavelet) {
        let cap = self.cap;
        let m = &mut self.ramp[pe];
        debug_assert!((m.up_len as usize) < cap);
        let pos = (m.up_head as usize + m.up_len as usize) % cap;
        if m.up_len == 0 {
            self.up_head_ready[pe] = ready;
        }
        m.up_len += 1;
        self.up[pe * cap + pos] = (ready, w);
    }

    /// Take `pe` out of the live set; its stalls from `since` on are owed.
    #[inline]
    fn park(&mut self, pe: usize, since: u64) {
        self.live[pe >> 6] &= !(1 << (pe & 63));
        self.since[pe] = since;
        self.parked += 1;
    }

    /// Return `pe` to the live set if it is parked, crediting its stalls of
    /// the cycles `since..through`. Out of line past the first test: while
    /// nothing is parked (the all-busy regime) a wake site costs one compare.
    #[inline]
    fn wake(&mut self, pe: usize, through: u64) {
        if self.parked != 0 {
            self.wake_parked(pe, through);
        }
    }

    #[inline(never)]
    fn wake_parked(&mut self, pe: usize, through: u64) {
        if self.since[pe] == NOT_PARKED {
            return;
        }
        self.stats[pe].stalls += through - self.since[pe];
        self.since[pe] = NOT_PARKED;
        self.parked -= 1;
        self.live[pe >> 6] |= 1 << (pe & 63);
    }

    /// `pe`'s program finished at `now`.
    #[inline]
    fn retire(&mut self, pe: usize, now: u64) {
        self.finish[pe] = now;
        self.live[pe >> 6] &= !(1 << (pe & 63));
        self.unfinished -= 1;
    }

    /// Mark input port `bit` of router `i` occupied.
    #[inline]
    fn port_fill(&mut self, i: usize, bit: usize) {
        if self.port_mask[i] == 0 {
            self.routers[i >> 6] |= 1 << (i & 63);
        }
        self.port_mask[i] |= 1 << bit;
    }

    /// Mark input port `bit` of router `i` drained.
    #[inline]
    fn port_drain(&mut self, i: usize, bit: usize) {
        self.port_mask[i] &= !(1 << bit);
        if self.port_mask[i] == 0 {
            self.routers[i >> 6] &= !(1 << (i & 63));
        }
    }

    /// Cohort of a receive that found no consumable head: park on an empty
    /// down ring, stay live while a queued head matures.
    #[inline]
    fn wait_on_down(&mut self, pe32: u32) {
        if self.down_head_ready[pe32 as usize] == u64::MAX {
            self.sc.park.push(pe32);
        } else {
            self.sc.stalled.push(pe32);
        }
    }

    /// The read-only plan pass: bucket every live lane into its cohort and
    /// gather operands. Detects lanes that would raise a program error
    /// *before anything mutates*, mirroring the error conditions of
    /// [`crate::pe::PeState::step`] exactly (including checks that the
    /// reference performs before its own capacity checks).
    fn plan(&mut self, now: u64) -> Plan {
        let noisy = self.noisy;
        let cap = self.cap;
        let mut walk = BitWalk::default();
        while let Some(pe) = walk.next(&self.live) {
            #[cfg(test)]
            LANE_VISITS.with(|c| c.set(c.get() + 1));
            let pe32 = pe as u32;
            if noisy && self.pending[pe] > 0 {
                self.sc.noop.push(pe32);
                continue;
            }
            let d = self.desc[pe];
            // The PE's slice of the flat local buffer; indices pushed into
            // the cohorts are absolute (pre-offset by `lb`).
            let lb = self.local_base[pe] as usize;
            let le = self.local_base[pe + 1] as usize;
            match self.kind[pe] {
                Kind::Epilogue => self.sc.epilogue.push(pe32),
                Kind::Compute => self.sc.compute.push(pe32),
                Kind::Send => {
                    if (self.ramp[pe].up_len as usize) < cap {
                        let idx = lb + (d.off + self.progress[pe]) as usize;
                        if idx >= le {
                            return Plan::WouldError;
                        }
                        self.sc.send_pe.push(pe32);
                        self.sc.send_val.push(self.local[idx]);
                    } else {
                        self.sc.park.push(pe32);
                    }
                }
                Kind::RecvStore => match self.down_ready(pe, now) {
                    Some(w) => {
                        if w.color != d.color {
                            return Plan::WouldError;
                        }
                        let idx = lb + (d.off + self.progress[pe]) as usize;
                        if idx >= le {
                            return Plan::WouldError;
                        }
                        self.sc.store_pe.push(pe32);
                        self.sc.store_val.push(w.as_f32());
                        self.sc.store_idx.push(idx as u32);
                    }
                    None => self.wait_on_down(pe32),
                },
                Kind::RecvReduce(op) => match self.down_ready(pe, now) {
                    Some(w) => {
                        if w.color != d.color {
                            return Plan::WouldError;
                        }
                        let idx = lb + (d.off + self.progress[pe]) as usize;
                        if idx >= le {
                            return Plan::WouldError;
                        }
                        let s = &mut self.sc.red[op_index(op)];
                        s.pe.push(pe32);
                        s.acc.push(self.local[idx]);
                        s.inc.push(w.as_f32());
                        s.idx.push(idx as u32);
                    }
                    None => self.wait_on_down(pe32),
                },
                Kind::Forward(op) => match self.down_ready(pe, now) {
                    Some(w) => {
                        // The color check precedes the ramp-space check in
                        // the scalar step, so it must here too.
                        if w.color != d.color {
                            return Plan::WouldError;
                        }
                        if (self.ramp[pe].up_len as usize) < cap {
                            let idx = lb + (d.off + self.progress[pe]) as usize;
                            if idx >= le {
                                return Plan::WouldError;
                            }
                            let s = &mut self.sc.fwd[op_index(op)];
                            s.pe.push(pe32);
                            s.acc.push(self.local[idx]);
                            s.inc.push(w.as_f32());
                            s.idx.push(idx as u32);
                        } else {
                            // Head consumable, so the up ring is what is full.
                            self.sc.park.push(pe32);
                        }
                    }
                    None => self.wait_on_down(pe32),
                },
                Kind::Exchange => {
                    let len = d.len;
                    let mut p = ExchPlan {
                        pe: pe32,
                        send: false,
                        recv: false,
                        send_val: 0.0,
                        recv_val: 0.0,
                    };
                    if self.progress_alt[pe] < len && (self.ramp[pe].up_len as usize) < cap {
                        let idx = lb + (d.off2 + self.progress_alt[pe]) as usize;
                        if idx >= le {
                            return Plan::WouldError;
                        }
                        p.send = true;
                        p.send_val = self.local[idx];
                    }
                    if self.progress[pe] < len {
                        if let Some(w) = self.down_ready(pe, now) {
                            if w.color != d.color {
                                return Plan::WouldError;
                            }
                            let idx = lb + (d.off + self.progress[pe]) as usize;
                            if idx >= le {
                                return Plan::WouldError;
                            }
                            p.recv = true;
                            p.recv_val = w.as_f32();
                        }
                    }
                    self.sc.exch.push(p);
                }
            }
        }
        Plan::Clean
    }

    /// Drain every cohort, in tight per-kind loops. Returns whether any lane
    /// advanced (the phase-1 contribution to the deadlock progress flag).
    fn execute(&mut self, fabric: &mut Fabric, now: u64) -> bool {
        let mut progress = false;

        // Thermal no-ops.
        for li in 0..self.sc.noop.len() {
            let pe = self.sc.noop[li] as usize;
            self.pending[pe] -= 1;
            self.stats[pe].noops += 1;
        }
        progress |= !self.sc.noop.is_empty();

        // Epilogue retirements (no instruction-finish record — the scalar
        // path does not push one either).
        for li in 0..self.sc.epilogue.len() {
            let pe = self.sc.epilogue[li] as usize;
            self.retire(pe, now);
        }
        progress |= !self.sc.epilogue.is_empty();

        // Compute.
        let cohort = mem::take(&mut self.sc.compute);
        for &pe32 in &cohort {
            let pe = pe32 as usize;
            self.progress[pe] += 1;
            if self.progress[pe] >= self.desc[pe].len {
                self.advance(fabric, pe, now);
            }
        }
        progress |= !cohort.is_empty();
        self.sc.compute = cohort;

        // Send.
        let cohort = mem::take(&mut self.sc.send_pe);
        for (k, &pe32) in cohort.iter().enumerate() {
            let pe = pe32 as usize;
            let d = self.desc[pe];
            let p = self.progress[pe];
            let is_last = p + 1 == d.len;
            let w = Wavelet::from_f32(d.color, self.sc.send_val[k])
                .with_control(is_last && d.last_control);
            self.up_push(pe, now + self.t_r, w);
            self.ramp_wavelets += 1;
            self.port_fill(pe, RAMP_INDEX);
            self.stats[pe].sent += 1;
            self.progress[pe] = p + 1;
            if is_last {
                self.advance(fabric, pe, now);
            }
        }
        progress |= !cohort.is_empty();
        self.sc.send_pe = cohort;

        // Recv + store.
        let cohort = mem::take(&mut self.sc.store_pe);
        for (k, &pe32) in cohort.iter().enumerate() {
            let pe = pe32 as usize;
            self.down_pop(pe);
            self.ramp_wavelets -= 1;
            self.stats[pe].received += 1;
            let idx = self.sc.store_idx[k] as usize;
            self.local[idx] = self.sc.store_val[k];
            self.progress[pe] += 1;
            if self.progress[pe] >= self.desc[pe].len {
                self.advance(fabric, pe, now);
            }
        }
        progress |= !cohort.is_empty();
        self.sc.store_pe = cohort;

        // Recv + reduce: one chunked kernel call per operator, then scatter.
        for (o, &op) in OPS.iter().enumerate() {
            {
                let s = &mut self.sc.red[o];
                if s.pe.is_empty() {
                    continue;
                }
                kernel::reduce_into(op, &mut s.acc, &s.inc);
            }
            let cohort = mem::take(&mut self.sc.red[o].pe);
            for (k, &pe32) in cohort.iter().enumerate() {
                let pe = pe32 as usize;
                self.down_pop(pe);
                self.ramp_wavelets -= 1;
                self.stats[pe].received += 1;
                let idx = self.sc.red[o].idx[k] as usize;
                self.local[idx] = self.sc.red[o].acc[k];
                self.progress[pe] += 1;
                if self.progress[pe] >= self.desc[pe].len {
                    self.advance(fabric, pe, now);
                }
            }
            progress = true;
            self.sc.red[o].pe = cohort;
        }

        // RecvForward: combine through the kernel, then pop/forward/keep.
        for (o, &op) in OPS.iter().enumerate() {
            {
                let s = &mut self.sc.fwd[o];
                if s.pe.is_empty() {
                    continue;
                }
                kernel::reduce_into(op, &mut s.acc, &s.inc);
            }
            let cohort = mem::take(&mut self.sc.fwd[o].pe);
            for (k, &pe32) in cohort.iter().enumerate() {
                let pe = pe32 as usize;
                self.down_pop(pe);
                self.stats[pe].received += 1;
                let combined = self.sc.fwd[o].acc[k];
                let d = self.desc[pe];
                if d.keep {
                    let idx = self.sc.fwd[o].idx[k] as usize;
                    self.local[idx] = combined;
                }
                let p = self.progress[pe];
                let is_last = p + 1 == d.len;
                let out =
                    Wavelet::from_f32(d.color2, combined).with_control(is_last && d.last_control);
                // One cycle to combine, then the ramp latency upwards.
                self.up_push(pe, now + 1 + self.t_r, out);
                self.port_fill(pe, RAMP_INDEX);
                self.stats[pe].sent += 1;
                self.progress[pe] = p + 1;
                if is_last {
                    self.advance(fabric, pe, now);
                }
            }
            progress = true;
            self.sc.fwd[o].pe = cohort;
        }

        // Exchange (scalar per lane: sends and receives are independent).
        let cohort = mem::take(&mut self.sc.exch);
        for plan in &cohort {
            let pe = plan.pe as usize;
            let d = self.desc[pe];
            if plan.send {
                let w = Wavelet::from_f32(d.color2, plan.send_val);
                self.up_push(pe, now + self.t_r, w);
                self.ramp_wavelets += 1;
                self.port_fill(pe, RAMP_INDEX);
                self.stats[pe].sent += 1;
                self.progress_alt[pe] += 1;
            }
            if plan.recv {
                self.down_pop(pe);
                self.ramp_wavelets -= 1;
                self.stats[pe].received += 1;
                let idx = self.local_base[pe] as usize + (d.off + self.progress[pe]) as usize;
                self.local[idx] = if d.store {
                    plan.recv_val
                } else {
                    d.op.apply(self.local[idx], plan.recv_val)
                };
                self.progress[pe] += 1;
            }
            let stalled = !(plan.send || plan.recv);
            if stalled {
                self.stats[pe].stalls += 1;
            } else {
                progress = true;
            }
            if self.progress[pe] >= d.len && self.progress_alt[pe] >= d.len {
                self.advance(fabric, pe, now);
            } else if stalled
                && (self.progress[pe] >= d.len || self.down_head_ready[pe] == u64::MAX)
            {
                // Neither half acted and no head is maturing.
                self.park(pe, now + 1);
            }
        }
        self.sc.exch = cohort;

        // Stalled lanes: this cycle's stall is counted here either way.
        for li in 0..self.sc.stalled.len() {
            let pe = self.sc.stalled[li] as usize;
            self.stats[pe].stalls += 1;
        }
        for li in 0..self.sc.park.len() {
            let pe = self.sc.park[li] as usize;
            self.stats[pe].stalls += 1;
            self.park(pe, now + 1);
        }

        progress
    }

    /// Advance `pe` past a completed instruction, mirroring
    /// `PeState::next_instruction`.
    fn advance(&mut self, fabric: &mut Fabric, pe: usize, now: u64) {
        fabric.pes[pe].record_instruction_finish(now);
        self.pc[pe] += 1;
        self.progress[pe] = 0;
        self.progress_alt[pe] = 0;
        match fabric.pes[pe].instruction_at(self.pc[pe]) {
            Some(instr) => self.set_descriptor(pe, Some(instr)),
            None => self.retire(pe, now),
        }
    }

    /// Phase C: route every router holding wavelets, ascending, with the
    /// reference engine's port order and per-port fairness rotation.
    fn route_all(&mut self, fabric: &mut Fabric, now: u64) -> Result<bool, FabricError> {
        let mut progress = false;
        let offset = now as usize;
        let qcap = self.qcap;

        // Pass 1: gather the first visible head per occupied input port.
        // This is sound because nothing pass 2 does can change a head pass 1
        // saw: a port's queues are only popped at that port's own (single)
        // turn, and pushes either append behind an existing head or create a
        // head that arrives *this* cycle and is invisible until the next.
        // Gathering first turns the per-event chain of dependent loads
        // (queue block -> slot -> destination block) into independent loads
        // across ~hundreds of ports that the core can overlap; pass 2 then
        // re-reads them from warm cache.
        let mut cands = std::mem::take(&mut self.sc.cands);
        let mut walk = BitWalk::default();
        while let Some(i) = walk.next(&self.routers) {
            #[cfg(test)]
            ROUTER_VISITS.with(|c| c.set(c.get() + 1));
            let in_mask = self.port_mask[i];
            // Remap the occupancy mask from `index()` bit positions to
            // `Direction::ALL` order (W,E,N,S,Ramp) so the loop visits only
            // occupied ports while preserving the reference port order.
            let mut rem = ((in_mask >> 3) & 1)
                | (in_mask & 0b10)
                | ((in_mask & 1) << 2)
                | ((in_mask & 0b100) << 1)
                | (in_mask & 0b1_0000);
            while rem != 0 {
                let pos = rem.trailing_zeros() as usize;
                rem &= rem - 1;
                if pos == RAMP_ALL_POS {
                    if let Some(w) = self.up_ready(i, now) {
                        let slot = self.color_slot[i][w.color.id() as usize];
                        self.touch_route_lines(i, slot);
                        cands.push(Cand {
                            i: i as u32,
                            pos: pos as u8,
                            k: 0,
                            slot,
                            pb: u32::MAX,
                            qb: u32::MAX,
                            w,
                        });
                    }
                } else {
                    let pb = i * 4 + ALL_IDX[pos];
                    let nq = self.ib_nq[pb] as usize;
                    for k in 0..nq {
                        let qi = if nq == 1 { 0 } else { (k + offset) % nq };
                        let qb = pb * qcap + qi;
                        let b = &self.ib_q[qb];
                        let m = b.meta;
                        if m.len == 0 {
                            continue;
                        }
                        let (arrival, w) = b.ring[m.head as usize];
                        // Visible only if it arrived in an earlier cycle.
                        if arrival >= now {
                            continue;
                        }
                        self.touch_route_lines(i, m.slot);
                        cands.push(Cand {
                            i: i as u32,
                            pos: pos as u8,
                            k: k as u8,
                            slot: m.slot,
                            pb: pb as u32,
                            qb: qb as u32,
                            w,
                        });
                        break;
                    }
                }
            }
        }

        // Pass 2: attempt each candidate in gathering order (= the reference
        // router/port order). Output-port occupancy resets per router.
        let mut cur = usize::MAX;
        let mut out_used = 0u8;
        for c in &cands {
            let i = c.i as usize;
            if i != cur {
                cur = i;
                out_used = 0;
            }
            let port = Direction::ALL[c.pos as usize];
            if c.pb == u32::MAX {
                progress |= self.try_route(
                    fabric,
                    i,
                    port,
                    c.w,
                    c.slot,
                    usize::MAX,
                    usize::MAX,
                    &mut out_used,
                )?;
                continue;
            }
            if self.try_route(
                fabric,
                i,
                port,
                c.w,
                c.slot,
                c.pb as usize,
                c.qb as usize,
                &mut out_used,
            )? {
                progress = true;
                continue;
            }
            // The head candidate could not route: give the port's remaining
            // queues their turn, continuing the fairness rotation.
            let pb = c.pb as usize;
            let nq = self.ib_nq[pb] as usize;
            for k in (c.k as usize + 1)..nq {
                let qi = (k + offset) % nq;
                let qb = pb * qcap + qi;
                let b = &self.ib_q[qb];
                let m = b.meta;
                if m.len == 0 {
                    continue;
                }
                let (arrival, w) = b.ring[m.head as usize];
                if arrival >= now {
                    continue;
                }
                if self.try_route(fabric, i, port, w, m.slot, pb, qb, &mut out_used)? {
                    progress = true;
                    // At most one wavelet per input port per cycle.
                    break;
                }
            }
        }
        cands.clear();
        self.sc.cands = cands;
        Ok(progress)
    }

    /// Warm the cache lines [`Self::try_route`] will need for a candidate:
    /// its routing slot and (via the slot's destination cache) the
    /// destination queue block whose space it checks. The loaded values are
    /// discarded — only the cache side effect matters.
    #[inline]
    fn touch_route_lines(&self, i: usize, slot: u8) {
        if slot == NO_SLOT {
            return;
        }
        let si = self.slot_base[i] as usize + slot as usize;
        std::hint::black_box(self.slots[si].dest_qb);
    }

    /// The dense mirror of `Fabric::try_route`: decide via the slot cache,
    /// check all forward targets (multicast all-or-nothing), then commit.
    /// `slot_rel` is the router-relative slot of the wavelet's color (cached
    /// per queue, looked up for the ramp); `pb`/`qb` are the absolute source
    /// port and queue bases for mesh ports (ignored for the ramp).
    #[allow(clippy::too_many_arguments)]
    fn try_route(
        &mut self,
        fabric: &mut Fabric,
        i: usize,
        port: Direction,
        w: Wavelet,
        slot_rel: u8,
        pb: usize,
        qb: usize,
        out_used: &mut u8,
    ) -> Result<bool, FabricError> {
        if slot_rel == NO_SLOT {
            return Err(FabricError::UnconfiguredColor { pe: i, color: w.color, from: port });
        }
        let si = self.slot_base[i] as usize + slot_rel as usize;
        let s = &self.slots[si];
        if s.accept_from != port.index() as u8 {
            return Ok(false);
        }
        let fwd_one = s.fwd_one;
        if fwd_one == MULTICAST {
            return self.try_route_multi(fabric, i, port, w, slot_rel, si, pb, qb, out_used);
        }
        let advance_never = s.advance_never;

        // Single forward target — virtually every rule of a real collective.
        // The destination port/queue are fixed per rule, so they resolve
        // once and come from the slot cache on every later route.
        let di = fwd_one as usize;
        if *out_used & (1 << di) != 0 {
            return Ok(false);
        }
        let mut dest_pb = 0usize;
        let mut dest_qb = u32::MAX;
        if di == RAMP_INDEX {
            if self.ramp[i].down_len as usize >= self.cap {
                return Ok(false);
            }
        } else {
            let cached_pb = s.dest_pb;
            if cached_pb == u32::MAX {
                let ni = self.nbr[i][di];
                if ni == u32::MAX {
                    return Err(FabricError::ForwardOffGrid { pe: i, direction: DIR_BY_INDEX[di] });
                }
                dest_pb = ni as usize * 4 + OPP_INDEX[di];
                let qi = self.ib_color_qi[dest_pb][w.color.id() as usize];
                if qi != NO_QUEUE {
                    dest_qb = (dest_pb * self.qcap + qi as usize) as u32;
                }
                let sm = &mut self.slots[si];
                sm.dest_pb = dest_pb as u32;
                sm.dest_qb = dest_qb;
            } else {
                dest_pb = cached_pb as usize;
                dest_qb = s.dest_qb;
            }
            if dest_qb != u32::MAX
                && self.ib_full[dest_qb as usize >> 6] & (1 << (dest_qb & 63)) != 0
            {
                return Ok(false);
            }
        }

        // Commit: pop the source (the head wavelet is already in hand)…
        self.pop_source(i, port, pb, qb, fabric.cycle);

        // …forward…
        *out_used |= 1 << di;
        if di == RAMP_INDEX {
            self.down_push(i, now_plus_ramp(fabric), w);
            self.wake(i, fabric.cycle + 1);
            self.ramp_wavelets += 1;
        } else {
            if dest_qb == u32::MAX {
                // First wavelet of this color into that port: the push
                // creates the queue; remember it. This happens before the
                // cursor advance so a rule switch rightly re-clears it.
                self.ib_push(dest_pb >> 2, dest_pb & 3, fabric.cycle, w);
                let qi = self.ib_color_qi[dest_pb][w.color.id() as usize];
                self.slots[si].dest_qb = (dest_pb * self.qcap + qi as usize) as u32;
            } else {
                let b = &mut self.ib_q[dest_qb as usize];
                let slot = (b.meta.head as usize + b.meta.len as usize) % INBUF_CAPACITY;
                b.meta.len += 1;
                b.ring[slot] = (fabric.cycle, w);
                if b.meta.len as usize == INBUF_CAPACITY {
                    self.ib_full[dest_qb as usize >> 6] |= 1 << (dest_qb & 63);
                }
            }
            self.inbuf_wavelets += 1;
            self.port_load[dest_pb] += 1;
            self.port_fill(dest_pb >> 2, dest_pb & 3);
            fabric.energy_hops += 1;
            fabric.link_load[i][di] += 1;
        }

        // …and advance the mirrored cursor (last: `load_rule` on a rule
        // switch resets the destination cache, which must stick).
        self.advance_cursor(fabric, i, si, slot_rel, advance_never, w.control);
        Ok(true)
    }

    /// The multicast tail of [`Self::try_route`]: check every forward target
    /// (all-or-nothing), then commit and duplicate to each.
    #[allow(clippy::too_many_arguments)]
    fn try_route_multi(
        &mut self,
        fabric: &mut Fabric,
        i: usize,
        port: Direction,
        w: Wavelet,
        slot_rel: u8,
        si: usize,
        pb: usize,
        qb: usize,
        out_used: &mut u8,
    ) -> Result<bool, FabricError> {
        let s = &self.slots[si];
        let advance_never = s.advance_never;
        let forward = s.forward;
        for d in forward.iter() {
            if *out_used & (1 << d.index()) != 0 {
                return Ok(false);
            }
            if d == Direction::Ramp {
                if self.ramp[i].down_len as usize >= self.cap {
                    return Ok(false);
                }
            } else {
                let ni = self.nbr[i][d.index()];
                if ni == u32::MAX {
                    return Err(FabricError::ForwardOffGrid { pe: i, direction: d });
                }
                if !self.ib_has_space(ni as usize, OPP_INDEX[d.index()], w.color) {
                    return Ok(false);
                }
            }
        }

        self.pop_source(i, port, pb, qb, fabric.cycle);
        self.advance_cursor(fabric, i, si, slot_rel, advance_never, w.control);

        for d in forward.iter() {
            *out_used |= 1 << d.index();
            if d == Direction::Ramp {
                self.down_push(i, now_plus_ramp(fabric), w);
                self.wake(i, fabric.cycle + 1);
                self.ramp_wavelets += 1;
            } else {
                let ni = self.nbr[i][d.index()] as usize;
                let p2 = OPP_INDEX[d.index()];
                self.ib_push(ni, p2, fabric.cycle, w);
                self.inbuf_wavelets += 1;
                self.port_load[ni * 4 + p2] += 1;
                self.port_fill(ni, p2);
                fabric.energy_hops += 1;
                fabric.link_load[i][d.index()] += 1;
            }
        }
        Ok(true)
    }

    /// Pop the routed wavelet off its source (up ring or mesh queue `qb` of
    /// port `pb`), clearing the port's occupancy bit when it empties and
    /// waking a lane parked on the full up ring.
    #[inline]
    fn pop_source(&mut self, i: usize, port: Direction, pb: usize, qb: usize, now: u64) {
        if port == Direction::Ramp {
            self.ramp_wavelets -= 1;
            self.up_pop(i);
            self.wake(i, now + 1);
            if self.ramp[i].up_len == 0 {
                self.port_drain(i, RAMP_INDEX);
            }
        } else {
            self.inbuf_wavelets -= 1;
            let m = &mut self.ib_q[qb].meta;
            m.head = ((m.head as usize + 1) % INBUF_CAPACITY) as u8;
            m.len -= 1;
            self.ib_full[qb >> 6] &= !(1 << (qb & 63));
            self.port_load[pb] -= 1;
            if self.port_load[pb] == 0 {
                self.port_drain(i, port.index());
            }
        }
    }

    /// Advance the mirrored slot cursor after an accepted wavelet. A
    /// never-advancing rule — the steady state of every forever-rule — only
    /// counts.
    #[inline]
    fn advance_cursor(
        &mut self,
        fabric: &Fabric,
        i: usize,
        si: usize,
        slot_rel: u8,
        advance_never: bool,
        control: bool,
    ) {
        if advance_never {
            self.slots[si].count += 1;
        } else {
            let slot = &mut self.slots[si];
            slot.count += 1;
            let advance = (slot.advance_after != u64::MAX && slot.count >= slot.advance_after)
                || (slot.advance_on_control && control);
            if advance {
                slot.pos += 1;
                slot.count = 0;
                load_rule(slot, fabric.routers[i].slot_rules(slot_rel as usize));
            }
        }
    }
}

#[inline]
fn now_plus_ramp(fabric: &Fabric) -> u64 {
    fabric.cycle + fabric.params.ramp_latency
}

#[cfg(test)]
mod tests {
    use super::super::tests::{configure_message, message_fabric};
    use super::super::{EngineKind, Fabric, FabricError, FabricParams, RunReport};
    use crate::clock::NoiseModel;
    use crate::geometry::{Coord, Direction, DirectionSet, GridDim};
    use crate::program::{PeProgram, ReduceOp};
    use crate::router::{ColorScript, RouteRule};
    use crate::wavelet::Color;

    /// Like `fast::tests::assert_engines_agree`, but the fast engine is
    /// forced into the dense executor from cycle 0 (threshold 0), so every
    /// tested behaviour exercises the dense path end to end.
    fn assert_dense_agrees(
        build: impl Fn(&mut Fabric),
        dim: GridDim,
        params: FabricParams,
        noise: Option<NoiseModel>,
    ) -> Result<RunReport, FabricError> {
        let mut results = Vec::new();
        for (engine, threshold) in [(EngineKind::Reference, 101), (EngineKind::Fast, 0)] {
            let mut fabric =
                Fabric::new(dim, params.with_engine(engine).with_dense_threshold(threshold));
            build(&mut fabric);
            fabric.set_noise(noise.clone());
            let outcome = fabric.run();
            let locals: Vec<Vec<f32>> =
                (0..dim.num_pes()).map(|i| fabric.local(dim.coord(i)).to_vec()).collect();
            let finishes: Vec<Vec<u64>> = (0..dim.num_pes())
                .map(|i| fabric.instruction_finish(dim.coord(i)).to_vec())
                .collect();
            results.push((outcome, locals, finishes));
        }
        let (reference, dense) = (results.remove(0), results.remove(0));
        assert_eq!(reference.0, dense.0, "dense path disagrees on the run outcome");
        assert_eq!(reference.1, dense.1, "dense path disagrees on PE local memory");
        assert_eq!(reference.2, dense.2, "dense path disagrees on instruction finish cycles");
        reference.0
    }

    #[test]
    fn dense_matches_reference_on_messages() {
        for (p, b) in [(2u32, 1u32), (4, 8), (16, 64), (64, 16)] {
            assert_dense_agrees(
                |fabric| configure_message(fabric, p, b),
                GridDim::row(p),
                FabricParams::default(),
                None,
            )
            .expect("message runs succeed");
        }
    }

    #[test]
    fn dense_matches_reference_under_noise() {
        for seed in 0..8u64 {
            let noise = NoiseModel::new(0.05, seed);
            assert_dense_agrees(
                |fabric| configure_message(fabric, 6, 24),
                GridDim::row(6),
                FabricParams::default(),
                Some(noise),
            )
            .expect("noisy message runs succeed");
        }
    }

    #[test]
    fn dense_matches_reference_across_ramp_latencies() {
        for t_r in [0u64, 1, 2, 5, 9, 40] {
            assert_dense_agrees(
                |fabric| configure_message(fabric, 5, 17),
                GridDim::row(5),
                FabricParams::with_ramp_latency(t_r),
                None,
            )
            .expect("message runs succeed for every ramp latency");
        }
    }

    #[test]
    fn dense_matches_reference_on_errors() {
        // Program error detected by the plan pass: a RecvForward expecting
        // color 1 is fed color 0 by its own router. The scalar replay must
        // reproduce the reference error and the exact partial-cycle state
        // (compared via locals and finish records).
        let fwd_mismatch = assert_dense_agrees(
            |fabric| {
                let c0 = Color::new(0);
                let mut sender = PeProgram::new();
                sender.send(c0, 0, 2);
                fabric.set_program(Coord::new(1, 0), &sender);
                fabric.set_local(Coord::new(1, 0), &[1.0, 2.0]);
                fabric.set_router_script(
                    Coord::new(1, 0),
                    c0,
                    ColorScript::new(vec![RouteRule::forever(
                        Direction::Ramp,
                        DirectionSet::single(Direction::West),
                    )]),
                );
                let mut forwarder = PeProgram::new();
                forwarder.recv_forward(Color::new(1), Color::new(2), 0, 2, ReduceOp::Sum, true);
                fabric.set_program(Coord::new(0, 0), &forwarder);
                fabric.set_router_script(
                    Coord::new(0, 0),
                    c0,
                    ColorScript::new(vec![RouteRule::forever(
                        Direction::East,
                        DirectionSet::single(Direction::Ramp),
                    )]),
                );
            },
            GridDim::row(2),
            FabricParams::default(),
            None,
        )
        .unwrap_err();
        assert!(matches!(fwd_mismatch, FabricError::Program(_)), "got {fwd_mismatch:?}");

        // Wrong-color delivery: PE 0 expects color 1 but receives color 0.
        let wrong_color = assert_dense_agrees(
            |fabric| {
                let c0 = Color::new(0);
                let mut sender = PeProgram::new();
                sender.send(c0, 0, 2);
                fabric.set_program(Coord::new(1, 0), &sender);
                fabric.set_local(Coord::new(1, 0), &[1.0, 2.0]);
                fabric.set_router_script(
                    Coord::new(1, 0),
                    c0,
                    ColorScript::new(vec![RouteRule::forever(
                        Direction::Ramp,
                        DirectionSet::single(Direction::West),
                    )]),
                );
                let mut receiver = PeProgram::new();
                receiver.recv_store(Color::new(1), 0, 2);
                fabric.set_program(Coord::new(0, 0), &receiver);
                fabric.set_local(Coord::new(0, 0), &[0.0, 0.0]);
                fabric.set_router_script(
                    Coord::new(0, 0),
                    c0,
                    ColorScript::new(vec![RouteRule::forever(
                        Direction::East,
                        DirectionSet::single(Direction::Ramp),
                    )]),
                );
            },
            GridDim::row(2),
            FabricParams::default(),
            None,
        )
        .unwrap_err();
        assert!(matches!(wrong_color, FabricError::Program(_)), "got {wrong_color:?}");

        // Deadlock and cycle limit at the same cycles as the reference.
        let deadlock = assert_dense_agrees(
            |fabric| {
                let color = Color::new(0);
                let mut prog = PeProgram::new();
                prog.send(color, 0, 1);
                fabric.set_program(Coord::new(1, 0), &prog);
                fabric.set_local(Coord::new(1, 0), &[1.0]);
                fabric.set_router_script(
                    Coord::new(1, 0),
                    color,
                    ColorScript::new(vec![RouteRule::forever(
                        Direction::West,
                        DirectionSet::single(Direction::East),
                    )]),
                );
            },
            GridDim::row(2),
            FabricParams::default(),
            None,
        )
        .unwrap_err();
        assert!(matches!(deadlock, FabricError::Deadlock { .. }));

        let limited = assert_dense_agrees(
            |fabric| configure_message(fabric, 8, 32),
            GridDim::row(8),
            FabricParams { max_cycles: 10, ..FabricParams::default() },
            None,
        )
        .unwrap_err();
        assert!(matches!(limited, FabricError::CycleLimitExceeded { limit: 10 }));
    }

    #[test]
    fn dense_handles_exchange_reduce_and_store() {
        // Two PEs running a full-duplex exchange — both modes.
        for store in [false, true] {
            assert_dense_agrees(
                |fabric| {
                    let (ca, cb) = (Color::new(0), Color::new(1));
                    let mode = if store {
                        crate::program::RecvMode::Store
                    } else {
                        crate::program::RecvMode::Reduce(ReduceOp::Sum)
                    };
                    for (x, tx, rx) in [(0u32, ca, cb), (1u32, cb, ca)] {
                        let at = Coord::new(x, 0);
                        let mut prog = PeProgram::new();
                        prog.exchange(tx, 0, rx, 4, 4, mode);
                        fabric.set_program(at, &prog);
                        let data: Vec<f32> = (0..8).map(|i| (x * 100 + i) as f32).collect();
                        fabric.set_local(at, &data);
                        let out = if x == 0 { Direction::East } else { Direction::West };
                        fabric.set_router_script(
                            at,
                            tx,
                            ColorScript::new(vec![RouteRule::forever(
                                Direction::Ramp,
                                DirectionSet::single(out),
                            )]),
                        );
                        fabric.set_router_script(
                            at,
                            rx,
                            ColorScript::new(vec![RouteRule::forever(
                                out,
                                DirectionSet::single(Direction::Ramp),
                            )]),
                        );
                    }
                },
                GridDim::row(2),
                FabricParams::default(),
                None,
            )
            .expect("exchange runs succeed");
        }
    }

    fn visits() -> (u64, u64) {
        (super::LANE_VISITS.with(|c| c.get()), super::ROUTER_VISITS.with(|c| c.get()))
    }

    #[test]
    fn a_lane_parked_and_woken_in_one_cycle_is_credited_once() {
        // A 2-PE message with T_R = 2: the wavelet sent at cycle 0 reaches
        // the receiver's down ring in the routing pass of cycle 3. Three
        // pending no-ops keep the receiver busy through cycle 2, so its first
        // stall — on an empty down ring, which parks it — is in cycle 3, the
        // very cycle the router's push wakes it again. That stall must be
        // counted once (by the parking cohort, nothing by the wake), and the
        // lane must be back in the stepped set for cycle 4 (head maturing)
        // and cycle 5 (consume).
        let run = |engine: EngineKind, threshold: u32| {
            let params = FabricParams::default().with_engine(engine);
            let mut fabric = Fabric::new(GridDim::row(2), params.with_dense_threshold(threshold));
            configure_message(&mut fabric, 2, 1);
            fabric.pes[0].inject_noops(3);
            let report = fabric.run().expect("message run succeeds");
            (report, fabric.pe_stats(Coord::new(0, 0)))
        };
        let (lanes_before, _) = visits();
        let (report, receiver) = run(EngineKind::Fast, 0);
        let (lanes_after, _) = visits();
        assert_eq!((report.clone(), receiver), run(EngineKind::Reference, 101));
        assert_eq!((receiver.noop_cycles, receiver.stall_cycles), (3, 2));
        assert_eq!(report.finish_of(0), 5);
        // The sender's one step plus the receiver's cycles 0..=5, each once.
        assert_eq!(lanes_after - lanes_before, 7);
    }

    #[test]
    fn waiting_pes_and_empty_routers_are_not_visited() {
        // A 32x32 flood Broadcast of 8 elements from the north-west corner:
        // a wavefront crossing a fabric of blocked receivers. The gear must
        // visit the lanes and routers the wavefront touches, not the waiters
        // (before parking, lane visits equalled PE-steps and router visits
        // were cycles x PEs).
        let dim = GridDim::new(32, 32);
        let (b, color) = (8u32, Color::new(0));
        let build = |fabric: &mut Fabric| {
            for at in dim.iter() {
                let mut forward = DirectionSet::EMPTY;
                if at.y == 0 && at.x + 1 < dim.width {
                    forward = forward.with(Direction::East);
                }
                if at.y + 1 < dim.height {
                    forward = forward.with(Direction::South);
                }
                let mut program = PeProgram::new();
                let accept_from = if at == Coord::new(0, 0) {
                    program.send(color, 0, b);
                    fabric.set_local(at, &(0..b).map(|i| i as f32 + 0.5).collect::<Vec<_>>());
                    Direction::Ramp
                } else {
                    program.recv_store(color, 0, b);
                    forward = forward.with(Direction::Ramp);
                    if at.y == 0 {
                        Direction::West
                    } else {
                        Direction::North
                    }
                };
                fabric.set_program(at, &program);
                let rule = RouteRule::counted(accept_from, forward, b as u64);
                fabric.set_router_script(at, color, ColorScript::new(vec![rule]));
            }
        };
        let (lanes_before, routers_before) = visits();
        let report = assert_dense_agrees(build, dim, FabricParams::default(), None)
            .expect("broadcast succeeds");
        let (lanes_after, routers_after) = visits();

        let pes = dim.num_pes() as u64;
        let received = (pes - 1) * b as u64;
        let pe_steps = report.stall_cycles + received + b as u64;
        assert!(report.stall_cycles > 4 * received, "the fabric must be mostly waiting");
        let (lane_visits, router_visits) =
            (lanes_after - lanes_before, routers_after - routers_before);
        assert!(lane_visits < pe_steps / 4, "{lane_visits} lane visits for {pe_steps} PE-steps");
        assert!(
            router_visits < report.cycles * pes / 4,
            "{router_visits} router visits in {} cycles x {pes} PEs",
            report.cycles
        );
    }

    #[test]
    fn dense_engages_on_dense_workloads_by_default() {
        // Every PE of a 2-PE row is programmed: 100% density, above the
        // default threshold, so the default-parameter fast engine must enter
        // at least one dense segment.
        let before = super::segments_entered();
        let mut fabric = message_fabric(2, 4);
        assert_eq!(fabric.params().engine, EngineKind::Fast);
        fabric.run().expect("message run succeeds");
        assert!(super::segments_entered() > before, "dense segment never entered");
    }

    #[test]
    fn dense_exits_and_hands_back_to_the_event_driven_loop() {
        // Six PEs compute briefly; one then computes for a long tail. Density
        // starts at 100% and collapses to 1/6 < 20% (half the default 40%),
        // but the lone computing lane keeps making progress every cycle, so
        // the segment deliberately stays dense to completion — a flowing
        // fabric is cheaper here than in the event-driven loop. Results must
        // still match the reference engine exactly.
        let report = assert_dense_agrees(
            |fabric| {
                for x in 0..6 {
                    let mut prog = PeProgram::new();
                    prog.compute(3);
                    if x == 0 {
                        prog.compute(200);
                    }
                    fabric.set_program(Coord::new(x, 0), &prog);
                }
            },
            GridDim::row(6),
            FabricParams::default(),
            None,
        )
        .expect("two-phase compute run succeeds");
        assert_eq!(report.max_finish(), 202);

        // A long idle stretch at low density *does* hand back: one message
        // crawling up a 40-cycle ramp while the other five PEs are done is
        // exactly the gap the event-driven loop skips over. The receiver is
        // parked when that happens, so the hand-back is what credits its
        // stalls: the report must still equal the reference engine's.
        let handed = super::segments_handed_back();
        let run_ramp_message = |engine: EngineKind| {
            let params = FabricParams::with_ramp_latency(40).with_engine(engine);
            let mut fabric = Fabric::new(GridDim::row(6), params);
            let color = Color::new(0);
            let mut sender = PeProgram::new();
            sender.send(color, 0, 1);
            fabric.set_program(Coord::new(1, 0), &sender);
            fabric.set_local(Coord::new(1, 0), &[7.5]);
            fabric.set_router_script(
                Coord::new(1, 0),
                color,
                ColorScript::new(vec![RouteRule::forever(
                    Direction::Ramp,
                    DirectionSet::single(Direction::West),
                )]),
            );
            let mut receiver = PeProgram::new();
            receiver.recv_store(color, 0, 1);
            fabric.set_program(Coord::new(0, 0), &receiver);
            fabric.set_local(Coord::new(0, 0), &[0.0]);
            fabric.set_router_script(
                Coord::new(0, 0),
                color,
                ColorScript::new(vec![RouteRule::forever(
                    Direction::East,
                    DirectionSet::single(Direction::Ramp),
                )]),
            );
            // Two computing PEs push the initial working density over the 40%
            // entry bar.
            for x in 2..4 {
                let mut prog = PeProgram::new();
                prog.compute(2);
                fabric.set_program(Coord::new(x, 0), &prog);
            }
            let report = fabric.run().expect("ramp-latency message run succeeds");
            assert_eq!(fabric.local(Coord::new(0, 0)), &[7.5]);
            report
        };
        let report = run_ramp_message(EngineKind::Fast);
        assert!(
            super::segments_handed_back() > handed,
            "an idle stretch at low density must hand back to the event-driven loop"
        );
        assert_eq!(report, run_ramp_message(EngineKind::Reference));

        // And the same workload under the *default* threshold (not forced):
        // the default fast engine must agree with the reference too.
        let run = |engine: EngineKind| {
            let mut fabric =
                Fabric::new(GridDim::row(6), FabricParams::default().with_engine(engine));
            for x in 0..6 {
                let mut prog = PeProgram::new();
                prog.compute(3);
                if x == 0 {
                    prog.compute(200);
                }
                fabric.set_program(Coord::new(x, 0), &prog);
            }
            fabric.run().expect("run succeeds")
        };
        assert_eq!(run(EngineKind::Fast), run(EngineKind::Reference));
    }

    #[test]
    fn threshold_above_100_disables_dense_stepping() {
        let before = super::segments_entered();
        let mut fabric =
            Fabric::new(GridDim::row(2), FabricParams::default().with_dense_threshold(101));
        configure_message(&mut fabric, 2, 4);
        fabric.run().expect("message run succeeds");
        assert_eq!(super::segments_entered(), before, "dense must stay disabled");
    }

    #[test]
    fn dense_rerun_on_a_reset_fabric_reproduces_itself() {
        let mut fabric =
            Fabric::new(GridDim::row(6), FabricParams::default().with_dense_threshold(0));
        configure_message(&mut fabric, 6, 24);
        let first = fabric.run().expect("first dense run succeeds");
        fabric.reset();
        configure_message(&mut fabric, 6, 24);
        let again = fabric.run().expect("rerun succeeds");
        assert_eq!(first, again);
    }

    #[test]
    fn dense_resumes_a_hand_stepped_fabric() {
        // `run` may be called mid-flight: extraction must pick up partially
        // executed programs, in-flight ramp wavelets and advanced router
        // cursors. Hand-step the reference engine for a few cycles, then
        // finish under both engines and compare.
        let run_tail = |threshold: u32| {
            let mut fabric = Fabric::new(
                GridDim::row(4),
                FabricParams::default()
                    .with_engine(EngineKind::Fast)
                    .with_dense_threshold(threshold),
            );
            configure_message(&mut fabric, 4, 12);
            for _ in 0..5 {
                fabric.step().expect("hand step succeeds");
            }
            let report = fabric.run().expect("tail run succeeds");
            let locals: Vec<Vec<f32>> =
                (0..4).map(|i| fabric.local(Coord::new(i, 0)).to_vec()).collect();
            (report, locals)
        };
        assert_eq!(run_tail(0), run_tail(101));
    }
}
