//! The fabric engines: a reference cycle-stepper and a fast event-driven
//! engine, byte-identical in everything they report.
//!
//! Both engines advance the grid with the same per-cycle semantics:
//!
//! 1. every PE executes one cycle of its program (consuming at most one
//!    wavelet from its ramp and injecting at most one),
//! 2. every router moves at most one wavelet per input port, subject to the
//!    active routing rule, output-link bandwidth (one wavelet per direction
//!    per cycle) and downstream buffer space; multicast forwards are
//!    all-or-nothing, and
//! 3. wavelets handed to a neighbouring router become visible there in the
//!    next cycle.
//!
//! This reproduces the behaviour the performance model abstracts: one-hop
//! per cycle links, per-PE pipelining limited by the single ramp port,
//! contention stalls at over-subscribed PEs, and loose synchronisation
//! through routing-configuration switches.
//!
//! # The two engines
//!
//! [`EngineKind::Reference`] is the exhaustive stepper: every PE and all
//! five router input ports of every PE are visited every cycle, whether or
//! not they hold work. It is deliberately simple — its loop *is* the
//! semantics above — and stays the correctness oracle.
//!
//! [`EngineKind::Fast`], the default, has two gears, and which one runs is
//! decided by how much of the grid holds an unfinished program — not by how
//! busy those programs are. Whenever the PEs that are unfinished *and still
//! have program instructions* make up at least
//! [`FabricParams::dense_threshold_pct`] of the grid (default 40%), the
//! struct-of-arrays gear of `engine/dense.rs` runs. A collective programs
//! every PE it spans, and a PE blocked in a `Recv` is as unfinished as one
//! streaming data, so this is where whole-grid collectives run from cycle 0 —
//! the all-busy 2D reduces and the wavefronts (a broadcast crossing a 96x96
//! grid, a chain reduce down a 512-PE line) alike; every workload of the
//! repository's benchmark does. The event-driven loop of `engine/fast.rs`
//! runs otherwise: a short message across a mostly unprogrammed grid, or a
//! tail the other gear hands back. It keeps *active sets* — only unfinished
//! PEs are stepped and only routers that hold wavelets are routed,
//! maintained incrementally as wavelets move — and when the earliest future
//! event (a ramp-latency maturation or an inbuf head becoming visible) is
//! more than one cycle away it advances the clock in one jump instead of
//! idling through the gap.
//!
//! # The dense regime
//!
//! The gear of `engine/dense.rs` moves the hot per-PE state (program
//! counters, progress, ramp FIFOs, routing cursors) into struct-of-arrays
//! mirrors, steps cohorts of PEs executing the same instruction kind in
//! tight loops, applies [`crate::program::ReduceOp`]s through the chunked
//! kernels of [`crate::kernel`] over contiguous `f32` scratch slices, and
//! routes in two passes — a gather pass that collects each occupied input
//! port's visible head wavelet (turning the per-event chain of dependent
//! loads into independent, overlappable ones) and a commit pass that moves
//! them through per-rule destination caches and an L1-resident full-queue
//! bitset instead of per-wavelet linear scans.
//!
//! It steps every cycle but visits only what can act. A lane whose stall
//! only a router move can end — a `Send` on a full up ring, a receive on an
//! empty down ring — is **parked**: it leaves the live-lane bitset the plan
//! pass walks and is put back by one of three wake sources, the router's push
//! onto its down ring, the router's pop of its up ring, or a noise no-op
//! drawn for it. Its stalls are credited lazily, `wake - parked_since`, and
//! every exit of the gear (completion, cycle limit, deadlock, hand-back, a
//! cycle abandoned to the scalar replay, a routing error) first credits the
//! lanes still parked through exactly the cycle the reference engine has
//! stepped them through — the rule per exit is spelled out in the module docs
//! of `engine/dense.rs`. A lane waiting for a queued head to mature is a
//! timed wait and stays live. The routing pass likewise walks a bitset of
//! the routers that hold wavelets. Both walks are ascending: for routers
//! that is the reference's order and part of the semantics, for lanes it
//! keeps the mirrors streaming through the cache in memory order.
//!
//! The executor hands control back to the event-driven loop only when a
//! cycle makes no progress while the unfinished-lane density (live plus
//! parked) has dropped below *half* the entry threshold: a flowing pipeline
//! is cheaper to step here regardless of density, but an idle cycle at low
//! density is exactly what skip-ahead exists for. A run may alternate
//! between the two gears any number of times. Setting the knob above 100
//! disables the dense path, 0 forces it from the first cycle (and, since the
//! density clause then never fires, pins the whole run to it).
//!
//! Dense stepping makes no skip-ahead jumps and is therefore also used
//! under a noise model. Byte-identity is preserved by construction: PE
//! phase-1 steps of one cycle are mutually independent (so cohort order does
//! not matter), a parked lane is one whose step is provably a stall, routing
//! replays the reference's exact ascending router / port / fairness order
//! against the mirrored state, and any cycle in which a lane *would* raise a
//! program error is abandoned before mutation and replayed through the
//! scalar [`crate::pe::PeState::step`] path, which reproduces the
//! reference's first-erroring-PE precedence exactly.
//!
//! # Equivalence contract
//!
//! The fast engine is *observably byte-identical* to the reference engine:
//! for any fabric configuration, with or without a [`NoiseModel`] attached,
//! both engines produce the same [`RunReport`] (cycle counts, per-PE finish
//! cycles, `energy_hops`, `links_used`, link loads, stall and no-op
//! counters), the same PE local memories, and the same [`FabricError`] on
//! failing configurations (deadlock declared at the same cycle, identical
//! cycle-limit and unconfigured-color errors). The contract is enforced by
//! the unit tests in this module, the property suite in
//! `crates/fabric/tests/property_fabric.rs` and the plan-level proptest
//! suite in `tests/engine_equivalence.rs`. The only tolerated divergence is
//! internal state *after* an error has been returned (e.g. the noise RNG
//! position), which no API reports and which [`Fabric::reset`] discards.

mod dense;
mod fast;
mod reference;

use std::collections::VecDeque;

use crate::clock::NoiseModel;
use crate::geometry::{Coord, Direction, GridDim};
use crate::pe::{PeError, PeState, PeStats, Wake};
use crate::program::PeProgram;
use crate::router::{ColorScript, RouteDecision, Router};
use crate::wavelet::{Color, Wavelet};

/// Capacity of each router input queue (per mesh direction and color). Two
/// entries are enough to sustain one wavelet per cycle through a full
/// pipeline while still providing backpressure.
const INBUF_CAPACITY: usize = 2;

/// The per-color input queues of one mesh port of a router.
///
/// The hardware keeps per-color state in the router; modelling the input
/// buffering per color (rather than as a single FIFO per port) is what
/// prevents head-of-line blocking between colors: a wavelet whose color is
/// currently stalled by the routing configuration must not block wavelets of
/// other colors that arrived behind it.
#[derive(Debug, Clone, Default)]
struct PortQueues {
    queues: Vec<(Color, VecDeque<(u64, Wavelet)>)>,
}

impl PortQueues {
    fn has_space(&self, color: Color) -> bool {
        self.queues.iter().find(|(c, _)| *c == color).is_none_or(|(_, q)| q.len() < INBUF_CAPACITY)
    }

    fn push(&mut self, arrival: u64, wavelet: Wavelet) {
        if let Some((_, q)) = self.queues.iter_mut().find(|(c, _)| *c == wavelet.color) {
            q.push_back((arrival, wavelet));
        } else {
            let mut q = VecDeque::with_capacity(INBUF_CAPACITY);
            q.push_back((arrival, wavelet));
            self.queues.push((wavelet.color, q));
        }
    }

    /// Number of per-color queues this port currently tracks (drained queues
    /// are kept, so this only grows).
    fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// The head wavelet of the `k`-th queue in fairness order (queue order
    /// rotated by `offset`), if it is visible this cycle (arrived in an
    /// earlier cycle). Must only be called with `k < num_queues()`.
    fn visible_head_at(&self, now: u64, offset: usize, k: usize) -> Option<Wavelet> {
        let (color, q) = &self.queues[(k + offset) % self.queues.len()];
        match q.front() {
            Some(&(arrival, w)) if arrival < now => {
                debug_assert_eq!(w.color, *color);
                Some(w)
            }
            _ => None,
        }
    }

    /// The earliest cycle at which any queue head becomes visible, if any
    /// wavelet is queued (a head that arrived at cycle `a` is visible from
    /// `a + 1`).
    fn earliest_visibility(&self) -> Option<u64> {
        self.queues.iter().filter_map(|(_, q)| q.front().map(|&(arrival, _)| arrival + 1)).min()
    }

    fn pop(&mut self, color: Color) -> Wavelet {
        let (_, q) =
            self.queues.iter_mut().find(|(c, _)| *c == color).expect("pop of an unknown color");
        q.pop_front().expect("pop of an empty queue").1
    }

    fn is_empty(&self) -> bool {
        self.queues.iter().all(|(_, q)| q.is_empty())
    }

    fn clear(&mut self) {
        self.queues.clear();
    }
}

/// Base tolerance (in cycles) for consecutive no-progress cycles before
/// declaring a deadlock. The effective tolerance also scales with the grid
/// semi-perimeter — see [`FabricParams::deadlock_patience`].
const DEADLOCK_PATIENCE: u64 = 16;

/// Which engine [`Fabric::run`] uses to advance the fabric.
///
/// Both engines implement the identical architecture and are observably
/// byte-identical; see the [module docs](self) for the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// Visits only the PEs and routers that can act — parked lanes in the
    /// struct-of-arrays gear, active sets and clock skip-ahead in the
    /// event-driven one (see the [module docs](self)). The default.
    #[default]
    Fast,
    /// Exhaustive cycle-stepper: visits every PE and every router port every
    /// cycle. The correctness oracle, and the engine behind [`Fabric::step`].
    Reference,
}

/// Hardware parameters of the simulated fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FabricParams {
    /// Ramp latency `T_R` in cycles (2 on the WSE-2).
    pub ramp_latency: u64,
    /// Safety limit on the number of simulated cycles.
    pub max_cycles: u64,
    /// Engine used by [`Fabric::run`].
    pub engine: EngineKind,
    /// Consecutive no-progress cycles (beyond the ramp latency) tolerated
    /// before declaring a deadlock. `None` picks
    /// `max(16, grid width + grid height)`: large grids, whose legitimate
    /// quiet gaps grow with their diameter, cannot trip a false deadlock,
    /// while small grids keep the historical fixed 16.
    pub deadlock_patience: Option<u64>,
    /// Percentage (0–100) of PEs that must be unfinished *with instructions
    /// remaining* for [`EngineKind::Fast`] to switch to its lane-batched
    /// dense executor (see the [module docs](self)). The executor exits
    /// again, with hysteresis, when the live-lane fraction drops below half
    /// this value. `None` picks the default of 40. Values above 100 disable
    /// dense stepping; 0 forces it from the first cycle. Purely a
    /// performance knob: results are byte-identical for every setting.
    pub dense_threshold_pct: Option<u32>,
}

impl Default for FabricParams {
    fn default() -> Self {
        FabricParams {
            ramp_latency: 2,
            max_cycles: 200_000_000,
            engine: EngineKind::default(),
            deadlock_patience: None,
            dense_threshold_pct: None,
        }
    }
}

impl FabricParams {
    /// Parameters with a custom ramp latency.
    pub fn with_ramp_latency(ramp_latency: u64) -> Self {
        FabricParams { ramp_latency, ..Default::default() }
    }

    /// The same parameters with a different engine.
    pub fn with_engine(self, engine: EngineKind) -> Self {
        FabricParams { engine, ..self }
    }

    /// The same parameters with a different dense-regime entry threshold
    /// (see [`FabricParams::dense_threshold_pct`]).
    pub fn with_dense_threshold(self, pct: u32) -> Self {
        FabricParams { dense_threshold_pct: Some(pct), ..self }
    }
}

/// A fatal simulation error.
#[derive(Debug, Clone, PartialEq)]
pub enum FabricError {
    /// A PE raised a program error (wrong color, out-of-bounds access).
    Program(PeError),
    /// A wavelet reached a router that has no routing script for its color.
    UnconfiguredColor {
        /// Linear index of the router.
        pe: usize,
        /// Color of the offending wavelet.
        color: Color,
        /// Direction it arrived from.
        from: Direction,
    },
    /// A routing rule forwards off the edge of the grid.
    ForwardOffGrid {
        /// Linear index of the router.
        pe: usize,
        /// The direction that leaves the grid.
        direction: Direction,
    },
    /// No wavelet moved and no PE made progress for many cycles while the
    /// collective had not completed.
    Deadlock {
        /// Cycle at which the deadlock was declared.
        cycle: u64,
        /// Indices of PEs that have not finished their programs.
        stuck_pes: Vec<usize>,
    },
    /// The safety cycle limit was exceeded.
    CycleLimitExceeded {
        /// The limit that was hit.
        limit: u64,
    },
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::Program(e) => write!(f, "PE {} program error: {}", e.pe, e.message),
            FabricError::UnconfiguredColor { pe, color, from } => {
                write!(f, "router {pe} has no script for {color} (wavelet from {from})")
            }
            FabricError::ForwardOffGrid { pe, direction } => {
                write!(f, "router {pe} forwards off the grid towards {direction}")
            }
            FabricError::Deadlock { cycle, stuck_pes } => {
                write!(f, "deadlock at cycle {cycle}: {} PEs stuck", stuck_pes.len())
            }
            FabricError::CycleLimitExceeded { limit } => {
                write!(f, "cycle limit of {limit} exceeded")
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// Aggregate statistics of a completed run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Cycle at which the last PE finished and the fabric drained.
    pub cycles: u64,
    /// Per-PE cycle at which its program finished.
    pub pe_finish: Vec<u64>,
    /// Total number of router-to-router hops (the measured energy term).
    pub energy_hops: u64,
    /// Number of distinct directed links that carried at least one wavelet.
    pub links_used: u64,
    /// The largest number of wavelets carried by any single directed link.
    pub max_link_load: u64,
    /// The largest number of wavelets any PE received (measured contention).
    pub max_received: u64,
    /// The largest number of wavelets any PE sent.
    pub max_sent: u64,
    /// Total PE cycles spent stalled.
    pub stall_cycles: u64,
    /// Total thermal no-op cycles inserted by the noise model.
    pub noop_cycles: u64,
}

impl RunReport {
    /// The finish cycle of the PE with the given linear index.
    pub fn finish_of(&self, index: usize) -> u64 {
        self.pe_finish[index]
    }

    /// The latest finish cycle over all PEs (the collective's completion
    /// time as measured by the §8.3 methodology).
    pub fn max_finish(&self) -> u64 {
        self.pe_finish.iter().copied().max().unwrap_or(0)
    }
}

/// The simulated wafer fabric: a grid of PEs, their routers and the mesh
/// links between them.
#[derive(Debug)]
pub struct Fabric {
    dim: GridDim,
    params: FabricParams,
    pes: Vec<PeState>,
    routers: Vec<Router>,
    /// Input queues per PE and mesh direction (indexed by `Direction::index`).
    inbuf: Vec<[PortQueues; 4]>,
    /// Wavelets carried per PE and outgoing mesh direction.
    link_load: Vec<[u64; 4]>,
    cycle: u64,
    energy_hops: u64,
    noise: Option<NoiseModel>,
}

impl Fabric {
    /// Create an idle fabric of the given dimensions.
    pub fn new(dim: GridDim, params: FabricParams) -> Self {
        let n = dim.num_pes();
        Fabric {
            dim,
            params,
            pes: (0..n).map(|i| PeState::new(i, params.ramp_latency)).collect(),
            routers: vec![Router::new(); n],
            inbuf: vec![Default::default(); n],
            link_load: vec![[0; 4]; n],
            cycle: 0,
            energy_hops: 0,
            noise: None,
        }
    }

    /// The grid dimensions.
    pub fn dim(&self) -> GridDim {
        self.dim
    }

    /// Return the fabric to its post-construction state while keeping every
    /// allocation (PE local memories, router script tables, input queues).
    ///
    /// This is the reuse path for execution sessions: installing a plan on a
    /// reset fabric behaves identically to installing it on a freshly
    /// constructed one, but skips re-allocating the whole mesh. Programs and
    /// routing scripts are removed, local memories zeroed, queues drained and
    /// all counters (cycle, energy, link loads, per-PE statistics) cleared;
    /// the noise model is detached so a reused fabric does not silently
    /// inherit the previous run's noise.
    pub fn reset(&mut self) {
        for pe in &mut self.pes {
            pe.reset();
        }
        for router in &mut self.routers {
            router.clear();
        }
        for bufs in &mut self.inbuf {
            for queues in bufs.iter_mut() {
                queues.clear();
            }
        }
        for loads in &mut self.link_load {
            *loads = [0; 4];
        }
        self.cycle = 0;
        self.energy_hops = 0;
        self.noise = None;
    }

    /// The hardware parameters.
    pub fn params(&self) -> FabricParams {
        self.params
    }

    /// Attach a thermal-noise model (random no-op insertion, §8.1).
    pub fn set_noise(&mut self, noise: Option<NoiseModel>) {
        self.noise = noise;
    }

    /// Install the routing script of one color on one router.
    pub fn set_router_script(&mut self, at: Coord, color: Color, script: ColorScript) {
        let idx = self.dim.index(at);
        self.routers[idx].set_script(color, script);
    }

    /// Install the program of one PE.
    pub fn set_program(&mut self, at: Coord, program: &PeProgram) {
        let idx = self.dim.index(at);
        self.pes[idx].set_program(program);
    }

    /// Set the local input vector of one PE.
    pub fn set_local(&mut self, at: Coord, data: &[f32]) {
        let idx = self.dim.index(at);
        self.pes[idx].set_local(data);
    }

    /// Write an input slice into one PE's local memory starting at `offset`,
    /// leaving memory outside the slice untouched.
    pub fn set_local_at(&mut self, at: Coord, offset: u32, data: &[f32]) {
        let idx = self.dim.index(at);
        self.pes[idx].set_local_at(offset, data);
    }

    /// The local vector of a PE (result inspection after a run).
    pub fn local(&self, at: Coord) -> &[f32] {
        self.pes[self.dim.index(at)].local()
    }

    /// Per-PE statistics.
    pub fn pe_stats(&self, at: Coord) -> PeStats {
        self.pes[self.dim.index(at)].stats()
    }

    /// The cycle at which each instruction of the PE at `at` completed, in
    /// program order (used by the measurement methodology of §8.3).
    pub fn instruction_finish(&self, at: Coord) -> &[u64] {
        self.pes[self.dim.index(at)].instruction_finish()
    }

    /// The current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether every program has finished and every buffer has drained.
    pub fn finished(&self) -> bool {
        self.pes.iter().all(|pe| pe.finished() && pe.ramps_empty())
            && self.inbuf.iter().all(|bufs| bufs.iter().all(PortQueues::is_empty))
    }

    /// Run until completion with the engine selected by
    /// [`FabricParams::engine`], returning the run report.
    pub fn run(&mut self) -> Result<RunReport, FabricError> {
        match self.params.engine {
            EngineKind::Fast => fast::run(self),
            EngineKind::Reference => self.run_reference(),
        }
    }

    /// The no-progress tolerance both engines apply before declaring a
    /// deadlock: wavelets may legitimately sit in a ramp for `T_R` cycles,
    /// plus the configured (or diameter-scaled) patience on top.
    fn idle_tolerance(&self) -> u64 {
        let patience = self.params.deadlock_patience.unwrap_or_else(|| {
            DEADLOCK_PATIENCE.max(self.dim.width as u64 + self.dim.height as u64)
        });
        self.params.ramp_latency + patience
    }

    /// Build the deadlock error for the current cycle.
    fn deadlock_error(&self) -> FabricError {
        let stuck: Vec<usize> =
            self.pes.iter().enumerate().filter(|(_, pe)| !pe.finished()).map(|(i, _)| i).collect();
        FabricError::Deadlock { cycle: self.cycle, stuck_pes: stuck }
    }

    /// Draw this cycle's thermal no-ops for every PE, in PE index order.
    ///
    /// Both engines draw exactly one sample per PE per simulated cycle —
    /// including PEs whose programs have finished — so the noise RNG stream
    /// stays aligned between them.
    fn inject_noise_all(&mut self) {
        if let Some(noise) = &mut self.noise {
            for pe in &mut self.pes {
                let noops = noise.sample_noops();
                if noops > 0 {
                    pe.inject_noops(noops);
                }
            }
        }
    }

    /// Whether router `i` holds any wavelet (a non-empty input queue or a
    /// wavelet travelling up the PE's ramp). This is the fast engine's
    /// router-activity predicate.
    fn router_has_work(&self, i: usize) -> bool {
        !self.pes[i].ramp_up_is_empty() || self.inbuf[i].iter().any(|q| !q.is_empty())
    }

    /// The earliest cycle at which router `i` could have a visible candidate
    /// wavelet: `Wake::Now` if one is visible this cycle, `Wake::At` for a
    /// queued wavelet maturing later, `Wake::Never` if it holds nothing.
    fn router_wake(&self, i: usize, now: u64) -> Wake {
        let mut at = u64::MAX;
        if let Some(ready) = self.pes[i].ramp_up_ready() {
            if ready <= now {
                return Wake::Now;
            }
            at = ready;
        }
        for bufs in &self.inbuf[i] {
            if let Some(vis) = bufs.earliest_visibility() {
                if vis <= now {
                    return Wake::Now;
                }
                at = at.min(vis);
            }
        }
        if at == u64::MAX {
            Wake::Never
        } else {
            Wake::At(at)
        }
    }

    /// Route the input ports of router `i` for the current cycle: move at
    /// most one wavelet per input port, at most one per output direction,
    /// multicast all-or-nothing. Returns whether any wavelet moved; when
    /// `activated` is provided, pushes the linear index of every neighbour
    /// that received a wavelet (duplicates possible).
    ///
    /// Shared by both engines — the reference stepper calls it for every
    /// router, the fast engine only for routers that hold wavelets. It never
    /// reads or writes the mutable state of a wavelet-free router, which is
    /// what makes the fast engine's active-set subsetting exact.
    fn route_one(
        &mut self,
        i: usize,
        now: u64,
        mut activated: Option<&mut Vec<usize>>,
    ) -> Result<bool, FabricError> {
        let here = self.dim.coord(i);
        let mut progress = false;
        // One outgoing wavelet per direction per cycle, shared across this
        // router's five input ports.
        let mut out_used = [false; 5];
        for port in Direction::ALL {
            if port == Direction::Ramp {
                // The ramp input port has a single candidate: the ramp head.
                if let Some(w) = self.pes[i].ramp_up_head(now) {
                    progress |=
                        self.try_route(i, here, port, w, &mut out_used, activated.as_deref_mut())?;
                }
            } else {
                // Candidate wavelets of a mesh port: the visible head of each
                // per-color queue, in fairness order. Nothing mutates these
                // queues until a candidate commits, and the first commit ends
                // the port's turn, so reading heads lazily in place is
                // equivalent to snapshotting them up front (and allocates
                // nothing).
                let nq = self.inbuf[i][port.index()].num_queues();
                for k in 0..nq {
                    let Some(w) = self.inbuf[i][port.index()].visible_head_at(now, now as usize, k)
                    else {
                        continue;
                    };
                    if self.try_route(i, here, port, w, &mut out_used, activated.as_deref_mut())? {
                        progress = true;
                        // At most one wavelet per input port per cycle.
                        break;
                    }
                }
            }
        }
        Ok(progress)
    }

    /// Try to route candidate wavelet `w` sitting on input `port` of router
    /// `i`: commits the move and returns `Ok(true)` if the routing rule
    /// accepts it and every forward target has capacity, `Ok(false)` if it
    /// stalls or is infeasible this cycle.
    fn try_route(
        &mut self,
        i: usize,
        here: Coord,
        port: Direction,
        w: Wavelet,
        out_used: &mut [bool; 5],
        mut activated: Option<&mut Vec<usize>>,
    ) -> Result<bool, FabricError> {
        let forward = match self.routers[i].decide(w.color, port) {
            RouteDecision::Unconfigured => {
                return Err(FabricError::UnconfiguredColor { pe: i, color: w.color, from: port })
            }
            RouteDecision::Stall => return Ok(false),
            RouteDecision::Accept(set) => set,
        };

        // Check that every forward target can take the wavelet this cycle
        // (multicast is all-or-nothing).
        for d in forward.iter() {
            if out_used[d.index()] {
                return Ok(false);
            }
            if d == Direction::Ramp {
                if !self.pes[i].ramp_down_has_space() {
                    return Ok(false);
                }
            } else {
                let Some(nc) = self.dim.neighbor(here, d) else {
                    return Err(FabricError::ForwardOffGrid { pe: i, direction: d });
                };
                let ni = self.dim.index(nc);
                if !self.inbuf[ni][d.opposite().index()].has_space(w.color) {
                    return Ok(false);
                }
            }
        }

        // Commit the move.
        let now = self.cycle;
        let t_r = self.params.ramp_latency;
        let w = if port == Direction::Ramp {
            self.pes[i].pop_ramp_up()
        } else {
            self.inbuf[i][port.index()].pop(w.color)
        };
        self.routers[i].accept(&w, port);
        for d in forward.iter() {
            out_used[d.index()] = true;
            if d == Direction::Ramp {
                let ok = self.pes[i].offer_ramp_down(now + t_r, w);
                debug_assert!(ok, "ramp-down space checked above");
            } else {
                let ni = self.dim.index(self.dim.neighbor(here, d).unwrap());
                self.inbuf[ni][d.opposite().index()].push(now, w);
                self.energy_hops += 1;
                self.link_load[i][d.index()] += 1;
                if let Some(list) = activated.as_deref_mut() {
                    list.push(ni);
                }
            }
        }
        Ok(true)
    }

    /// Build the report for the current (completed) state.
    pub fn report(&self) -> RunReport {
        let pe_finish: Vec<u64> =
            self.pes.iter().map(|pe| pe.finish_cycle().unwrap_or(self.cycle)).collect();
        let mut links_used = 0u64;
        let mut max_link_load = 0u64;
        for loads in &self.link_load {
            for &l in loads {
                if l > 0 {
                    links_used += 1;
                    max_link_load = max_link_load.max(l);
                }
            }
        }
        let mut max_received = 0;
        let mut max_sent = 0;
        let mut stall_cycles = 0;
        let mut noop_cycles = 0;
        for pe in &self.pes {
            let s = pe.stats();
            max_received = max_received.max(s.received);
            max_sent = max_sent.max(s.sent);
            stall_cycles += s.stall_cycles;
            noop_cycles += s.noop_cycles;
        }
        RunReport {
            cycles: self.cycle,
            pe_finish,
            energy_hops: self.energy_hops,
            links_used,
            max_link_load,
            max_received,
            max_sent,
            stall_cycles,
            noop_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::DirectionSet;
    use crate::program::{PeProgram, ReduceOp};
    use crate::router::RouteRule;

    fn c(id: u8) -> Color {
        Color::new(id)
    }

    fn west_ramp() -> DirectionSet {
        DirectionSet::single(Direction::West).with(Direction::Ramp)
    }

    /// Build a fabric where the rightmost PE of a row sends `b` elements to
    /// the leftmost PE (the Message primitive of §4.1).
    pub(super) fn message_fabric(p: u32, b: u32) -> Fabric {
        let dim = GridDim::row(p);
        let mut fabric = Fabric::new(dim, FabricParams::default());
        configure_message(&mut fabric, p, b);
        fabric
    }

    /// Install the message configuration of [`message_fabric`] on an existing
    /// (fresh or reset) fabric.
    pub(super) fn configure_message(fabric: &mut Fabric, p: u32, b: u32) {
        let color = c(0);
        let data: Vec<f32> = (0..b).map(|i| i as f32 + 1.0).collect();

        // Sender: rightmost PE.
        let sender = Coord::new(p - 1, 0);
        let mut prog = PeProgram::new();
        prog.send(color, 0, b);
        fabric.set_program(sender, &prog);
        fabric.set_local(sender, &data);
        fabric.set_router_script(
            sender,
            color,
            ColorScript::new(vec![RouteRule::forever(
                Direction::Ramp,
                DirectionSet::single(Direction::West),
            )]),
        );

        // Intermediate PEs forward westwards.
        for x in 1..p - 1 {
            fabric.set_router_script(
                Coord::new(x, 0),
                color,
                ColorScript::new(vec![RouteRule::forever(
                    Direction::East,
                    DirectionSet::single(Direction::West),
                )]),
            );
        }

        // Receiver: leftmost PE.
        let receiver = Coord::new(0, 0);
        let mut prog = PeProgram::new();
        prog.recv_store(color, 0, b);
        fabric.set_program(receiver, &prog);
        fabric.set_local(receiver, &vec![0.0; b as usize]);
        fabric.set_router_script(
            receiver,
            color,
            ColorScript::new(vec![RouteRule::forever(
                Direction::East,
                DirectionSet::single(Direction::Ramp),
            )]),
        );
    }

    #[test]
    fn message_delivers_data_in_order() {
        let mut fabric = message_fabric(4, 8);
        let report = fabric.run().expect("run succeeds");
        let expected: Vec<f32> = (0..8).map(|i| i as f32 + 1.0).collect();
        assert_eq!(fabric.local(Coord::new(0, 0))[..8], expected[..]);
        assert_eq!(report.max_received, 8);
        assert_eq!(report.max_sent, 8);
        // Energy: 8 wavelets over 3 links.
        assert_eq!(report.energy_hops, 24);
        assert_eq!(report.links_used, 3);
        assert_eq!(report.max_link_load, 8);
    }

    #[test]
    fn message_runtime_tracks_the_model() {
        // T_Message = B + P + 2 T_R; the simulator adds a couple of cycles of
        // router pipelining, so check a tight band rather than equality.
        for (p, b) in [(4u32, 8u32), (16, 64), (64, 16), (32, 256)] {
            let mut fabric = message_fabric(p, b);
            let report = fabric.run().expect("run succeeds");
            let measured = report.finish_of(0) as f64;
            let model = (b + p) as f64 + 4.0;
            let rel = (measured - model).abs() / model;
            assert!(rel < 0.25, "p={p} b={b}: measured {measured} vs model {model} (rel {rel:.3})");
        }
    }

    #[test]
    fn broadcast_multicasts_to_every_pe() {
        // Flooding broadcast from the rightmost PE of a row (§4.2): every
        // router duplicates the stream to its processor and onwards.
        let p = 6u32;
        let b = 5u32;
        let dim = GridDim::row(p);
        let mut fabric = Fabric::new(dim, FabricParams::default());
        let color = c(3);
        let data: Vec<f32> = (0..b).map(|i| (i * i) as f32).collect();

        let root = Coord::new(p - 1, 0);
        let mut prog = PeProgram::new();
        prog.send(color, 0, b);
        fabric.set_program(root, &prog);
        fabric.set_local(root, &data);
        fabric.set_router_script(
            root,
            color,
            ColorScript::new(vec![RouteRule::forever(
                Direction::Ramp,
                DirectionSet::single(Direction::West),
            )]),
        );

        for x in 0..p - 1 {
            let at = Coord::new(x, 0);
            let forward = if x == 0 { DirectionSet::single(Direction::Ramp) } else { west_ramp() };
            fabric.set_router_script(
                at,
                color,
                ColorScript::new(vec![RouteRule::forever(Direction::East, forward)]),
            );
            let mut prog = PeProgram::new();
            prog.recv_store(color, 0, b);
            fabric.set_program(at, &prog);
            fabric.set_local(at, &vec![0.0; b as usize]);
        }

        let report = fabric.run().expect("run succeeds");
        for x in 0..p - 1 {
            assert_eq!(fabric.local(Coord::new(x, 0))[..b as usize], data[..]);
        }
        // Broadcast energy matches a single message: B wavelets over P-1 links.
        assert_eq!(report.energy_hops, (b * (p - 1)) as u64);
        // Broadcast completes in about B + P + 2 T_R cycles.
        let model = (b + p) as f64 + 4.0;
        assert!((report.max_finish() as f64 - model).abs() / model < 0.35);
    }

    #[test]
    fn hand_built_chain_reduce_sums_vectors() {
        // Chain Reduce on a row of 4 PEs with alternating colors, root at x=0.
        let p = 4u32;
        let b = 6u32;
        let dim = GridDim::row(p);
        let mut fabric = Fabric::new(dim, FabricParams::default());
        let op = ReduceOp::Sum;
        let color_of = |x: u32| c((x % 2) as u8); // color a PE *sends* on

        for x in 0..p {
            let at = Coord::new(x, 0);
            let data: Vec<f32> = (0..b).map(|i| (x * 10 + i) as f32).collect();
            fabric.set_local(at, &data);
            let mut prog = PeProgram::new();
            if x == p - 1 {
                prog.send(color_of(x), 0, b);
            } else if x == 0 {
                prog.recv_reduce(color_of(x + 1), 0, b, op);
            } else {
                prog.recv_forward(color_of(x + 1), color_of(x), 0, b, op, false);
            }
            fabric.set_program(at, &prog);

            // Router: deliver the incoming color to the ramp, send own color west.
            if x < p - 1 {
                fabric.set_router_script(
                    at,
                    color_of(x + 1),
                    ColorScript::new(vec![RouteRule::forever(
                        Direction::East,
                        DirectionSet::single(Direction::Ramp),
                    )]),
                );
            }
            if x > 0 {
                fabric.set_router_script(
                    at,
                    color_of(x),
                    ColorScript::new(vec![RouteRule::forever(
                        Direction::Ramp,
                        DirectionSet::single(Direction::West),
                    )]),
                );
            }
        }

        let report = fabric.run().expect("run succeeds");
        let expected: Vec<f32> = (0..b).map(|i| (10 + 20 + 30 + 4 * i) as f32).collect();
        assert_eq!(fabric.local(Coord::new(0, 0))[..b as usize], expected[..]);
        // T_Chain = B + (2 T_R + 2)(P - 1) = 6 + 18 = 24; allow pipeline slack.
        let model = 24.0;
        let measured = report.finish_of(0) as f64;
        assert!((measured - model).abs() / model < 0.3, "measured {measured} vs model {model}");
        assert_eq!(report.max_received, b as u64);
    }

    #[test]
    fn unconfigured_color_is_an_error() {
        let dim = GridDim::row(2);
        let mut fabric = Fabric::new(dim, FabricParams::default());
        let mut prog = PeProgram::new();
        prog.send(c(0), 0, 1);
        fabric.set_program(Coord::new(1, 0), &prog);
        fabric.set_local(Coord::new(1, 0), &[1.0]);
        let err = fabric.run().unwrap_err();
        assert!(matches!(err, FabricError::UnconfiguredColor { pe: 1, .. }));
    }

    #[test]
    fn wrong_direction_rule_deadlocks() {
        let dim = GridDim::row(2);
        let mut fabric = Fabric::new(dim, FabricParams::default());
        let color = c(0);
        let mut prog = PeProgram::new();
        prog.send(color, 0, 1);
        fabric.set_program(Coord::new(1, 0), &prog);
        fabric.set_local(Coord::new(1, 0), &[1.0]);
        // The router only accepts from the West, but the wavelet arrives on
        // the ramp: it stalls forever.
        fabric.set_router_script(
            Coord::new(1, 0),
            color,
            ColorScript::new(vec![RouteRule::forever(
                Direction::West,
                DirectionSet::single(Direction::East),
            )]),
        );
        let err = fabric.run().unwrap_err();
        assert!(matches!(err, FabricError::Deadlock { .. }));
    }

    #[test]
    fn forwarding_off_the_grid_is_an_error() {
        let dim = GridDim::row(2);
        let mut fabric = Fabric::new(dim, FabricParams::default());
        let color = c(0);
        let mut prog = PeProgram::new();
        prog.send(color, 0, 1);
        fabric.set_program(Coord::new(1, 0), &prog);
        fabric.set_local(Coord::new(1, 0), &[1.0]);
        fabric.set_router_script(
            Coord::new(1, 0),
            color,
            ColorScript::new(vec![RouteRule::forever(
                Direction::Ramp,
                DirectionSet::single(Direction::East),
            )]),
        );
        let err = fabric.run().unwrap_err();
        assert!(matches!(err, FabricError::ForwardOffGrid { pe: 1, direction: Direction::East }));
    }

    #[test]
    fn counted_rules_serialise_two_senders() {
        // Two PEs send to a middle receiver on the same color; the receiver's
        // router first accepts everything from the East, then everything from
        // the West (Figure 3's loose synchronisation).
        let dim = GridDim::row(3);
        let mut fabric = Fabric::new(dim, FabricParams::default());
        let color = c(1);
        let b = 4u32;

        for (x, dir) in [(0u32, Direction::West), (2u32, Direction::East)] {
            let at = Coord::new(x, 0);
            let mut prog = PeProgram::new();
            prog.send(color, 0, b);
            fabric.set_program(at, &prog);
            fabric.set_local(at, &vec![x as f32 + 1.0; b as usize]);
            fabric.set_router_script(
                at,
                color,
                ColorScript::new(vec![RouteRule::forever(
                    Direction::Ramp,
                    DirectionSet::single(dir.opposite()),
                )]),
            );
        }

        let middle = Coord::new(1, 0);
        let mut prog = PeProgram::new();
        prog.recv_reduce(color, 0, b, ReduceOp::Sum);
        prog.recv_reduce(color, 0, b, ReduceOp::Sum);
        fabric.set_program(middle, &prog);
        fabric.set_local(middle, &vec![0.0; b as usize]);
        fabric.set_router_script(
            middle,
            color,
            ColorScript::new(vec![
                RouteRule::counted(
                    Direction::East,
                    DirectionSet::single(Direction::Ramp),
                    b as u64,
                ),
                RouteRule::counted(
                    Direction::West,
                    DirectionSet::single(Direction::Ramp),
                    b as u64,
                ),
            ]),
        );

        fabric.run().expect("run succeeds");
        assert_eq!(fabric.local(middle)[..b as usize], vec![4.0; b as usize][..]);
    }

    #[test]
    fn fabric_types_cross_thread_boundaries() {
        // Batch executors move whole fabrics (and their noise models and run
        // reports) between pool and worker threads; these bounds are part of
        // the crate's contract, so losing them (e.g. by introducing an `Rc`
        // or a raw pointer) must fail loudly here rather than in a
        // downstream crate.
        fn assert_send_sync_static<T: Send + Sync + 'static>() {}
        assert_send_sync_static::<Fabric>();
        assert_send_sync_static::<NoiseModel>();
        assert_send_sync_static::<RunReport>();
        assert_send_sync_static::<FabricParams>();
        assert_send_sync_static::<FabricError>();
        assert_send_sync_static::<EngineKind>();
    }

    #[test]
    fn reset_fabric_reruns_identically_to_a_fresh_one() {
        // A reused (reset) fabric must be indistinguishable from a fresh one:
        // same results, same report — including after a run that left router
        // cursors advanced and statistics populated.
        let mut reused = message_fabric(6, 24);
        let first = reused.run().expect("first run succeeds");

        reused.reset();
        assert_eq!(reused.cycle(), 0);
        assert!(reused.finished(), "a reset fabric has no pending work");

        configure_message(&mut reused, 6, 24);
        let again = reused.run().expect("rerun on the reset fabric succeeds");
        assert_eq!(again, first);
        let expected: Vec<f32> = (0..24).map(|i| i as f32 + 1.0).collect();
        assert_eq!(reused.local(Coord::new(0, 0))[..24], expected[..]);
    }

    #[test]
    fn reset_clears_leftover_local_memory() {
        let mut fabric = message_fabric(4, 8);
        fabric.run().expect("run succeeds");
        assert!(fabric.local(Coord::new(0, 0)).iter().any(|v| *v != 0.0));
        fabric.reset();
        for x in 0..4 {
            assert!(fabric.local(Coord::new(x, 0)).iter().all(|v| *v == 0.0));
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut fabric = message_fabric(8, 32);
            fabric.run().expect("run succeeds")
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn pipelining_sustains_one_wavelet_per_cycle() {
        // For a long vector over a short row the runtime must be close to B,
        // not 2B: the pipeline moves one wavelet per cycle per link.
        let b = 512u32;
        let mut fabric = message_fabric(3, b);
        let report = fabric.run().expect("run succeeds");
        assert!(
            (report.finish_of(0) as f64) < b as f64 * 1.1 + 20.0,
            "pipeline too slow: {} cycles for {} wavelets",
            report.finish_of(0),
            b
        );
    }

    #[test]
    fn default_patience_scales_with_grid_diameter() {
        // Small grids keep the historical fixed patience; grids whose
        // semi-perimeter exceeds it scale up so long quiet gaps on big
        // fabrics are not misread as deadlocks. An explicit patience wins
        // over both.
        let small = Fabric::new(GridDim::row(2), FabricParams::default());
        assert_eq!(small.idle_tolerance(), 2 + 16);
        let large = Fabric::new(GridDim::new(40, 30), FabricParams::default());
        assert_eq!(large.idle_tolerance(), 2 + 70);
        let pinned = Fabric::new(
            GridDim::new(40, 30),
            FabricParams { deadlock_patience: Some(5), ..FabricParams::default() },
        );
        assert_eq!(pinned.idle_tolerance(), 2 + 5);
    }
}
