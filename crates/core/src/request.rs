//! The unified collective request API.
//!
//! The paper's workflow (§1.3, §10) is *model → select → generate → run*. A
//! [`CollectiveRequest`] is the value form of the first half of that
//! pipeline: one plain-data description of any collective this crate can
//! build — Reduce / AllReduce / Broadcast, on a 1D line or a 2D grid, with a
//! [`Schedule`] that is either an explicit pattern or [`Schedule::Auto`]
//! model-driven selection. Requests are cheap to copy, hashable and
//! comparable, which is what lets [`crate::session::Session`] key its plan
//! cache on them directly.
//!
//! # The collective suite
//!
//! Every [`CollectiveKind`] maps to a paper-grounded phase decomposition
//! (the building blocks live in [`crate::phases`] and
//! [`crate::collectives`]) and a per-PE I/O shape contract, with
//! `c = vector_len / p` the shard ("chunk") size:
//!
//! | kind            | paper      | phase decomposition                    | input per PE `x` | output per PE `x` |
//! |-----------------|------------|----------------------------------------|------------------|-------------------|
//! | `Reduce`        | §5         | selected reduction tree                | full vector      | root: full vector |
//! | `AllReduce`     | §6         | reduce+bcast, or RS rounds + AG rounds | full vector      | full vector       |
//! | `Broadcast`     | §4.2, §7.1 | flood                                  | root: full       | full vector       |
//! | `ReduceScatter` | §6.2 half  | RS rounds + homing rotation            | full vector      | `c` at `x·c`      |
//! | `AllGather`     | §6.2 half  | AG rounds                              | `c` at `x·c`     | full vector       |
//! | `Gather`        | §4.1, §5   | pipelined westward line stream         | `c` at `x·c`     | root: full vector |
//! | `Scatter`       | §4.1, §5   | pipelined eastward line stream         | root: full       | `c` at `x·c`      |
//! | `AllToAll`      | §6.2 ring  | `p-1` store-and-forward rotations      | full vector      | full vector       |
//!
//! The sharded kinds share one layout — shard `i` at offset `i·c` — so
//! their outputs feed the next collective's inputs without host-side
//! reshuffling (`Scatter → ReduceScatter → AllGather` is the
//! `examples/mlp_layer.rs` pipeline). Rooted kinds (`Reduce`, `Broadcast`,
//! `Gather`, `Scatter`) accept [`CollectiveRequest::with_root`]; the
//! symmetric kinds reject it with
//! [`CollectiveError::RootlessCollective`].

use wse_fabric::geometry::{Coord, GridDim};
use wse_fabric::program::ReduceOp;
use wse_fabric::wavelet::Color;
use wse_model::selection::{self, ChosenAlgorithm};
use wse_model::Machine;

use crate::allreduce::{
    allreduce_1d_plan, allreduce_1d_plan_with, allreduce_2d_plan, allreduce_2d_plan_with,
    xy_allreduce_2d_plan_with, AllReducePattern,
};
use crate::broadcast::{flood_broadcast_2d_plan, flood_broadcast_plan};
use crate::collectives::{
    all_to_all_rotate_plan, allgather_ring_plan, gather_line_plan, reduce_scatter_ring_plan,
    scatter_line_plan,
};
use crate::error::CollectiveError;
use crate::path::LinePath;
use crate::plan::CollectivePlan;
use crate::reduce::{
    reduce_1d_plan, reduce_1d_plan_with, reduce_2d_plan, reduce_2d_plan_with, AxisSolvers,
    Reduce2dPattern, ReducePattern, BROADCAST_COLOR,
};

/// An opaque tenant identity for per-tenant admission budgets.
///
/// Tenants are a *submission-side* attribute: a request's results do not
/// depend on who submitted it, so the tenant is deliberately **not** part of
/// [`CollectiveRequest`] (which is the plan-cache key — tenants sharing a
/// request shape must share its cached plan, not fragment the cache). The
/// serving front-end accepts the tenant next to the request
/// (`CollectiveService::submit_as`) and meters each tenant's token bucket in
/// [`crate::serve::AdmissionConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The tenant unattributed submissions (`submit`/`try_submit`) are
    /// accounted to.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Which collective a request describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Reduce to the root PE.
    Reduce,
    /// Reduce whose result ends up on every participating PE.
    AllReduce,
    /// Flooding broadcast of the root's vector (§4.2, §7.1).
    Broadcast,
    /// Reduce whose result is sharded over the PEs: PE `x` ends with the
    /// fully reduced shard `x` (the first half of the Ring AllReduce).
    ReduceScatter,
    /// Concatenate the PEs' shards onto every PE (the second half of the
    /// Ring AllReduce).
    AllGather,
    /// Concatenate the PEs' shards onto the root PE.
    Gather,
    /// Distribute the root's vector as shards over the PEs.
    Scatter,
    /// Personalised exchange: PE `x` sends chunk `d` of its vector to PE
    /// `d` and receives chunk `s` from every PE `s`.
    AllToAll,
}

impl CollectiveKind {
    /// Whether the collective has a distinguished root PE. The symmetric
    /// kinds reject [`CollectiveRequest::with_root`] with
    /// [`CollectiveError::RootlessCollective`].
    pub fn is_rooted(&self) -> bool {
        matches!(
            self,
            CollectiveKind::Reduce
                | CollectiveKind::Broadcast
                | CollectiveKind::Gather
                | CollectiveKind::Scatter
        )
    }
}

/// The set of PEs a collective runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// A row of `p` PEs (the 1D setting of §4–§6).
    Line(u32),
    /// A full 2D grid (§7).
    Grid(GridDim),
}

impl Topology {
    /// A row of `p` PEs.
    pub fn line(p: u32) -> Self {
        Topology::Line(p)
    }

    /// A `width × height` grid.
    pub fn grid(width: u32, height: u32) -> Self {
        Topology::Grid(GridDim::new(width, height))
    }

    /// The grid the topology occupies.
    pub fn dim(&self) -> GridDim {
        match self {
            Topology::Line(p) => GridDim::row(*p),
            Topology::Grid(dim) => *dim,
        }
    }

    /// Number of participating PEs.
    pub fn num_pes(&self) -> usize {
        self.dim().num_pes()
    }
}

/// How the plan for a request is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// Let the performance model pick the best fixed algorithm for the
    /// request's shape (the paper's §1.3/§10 workflow; the regions of
    /// Figures 8, 10 and 13).
    Auto,
    /// An explicit 1D Reduce pattern (valid for `Reduce` on a line).
    Reduce1d(ReducePattern),
    /// An explicit 2D Reduce pattern (valid for `Reduce` on a grid).
    Reduce2d(Reduce2dPattern),
    /// An explicit 1D AllReduce pattern (valid for `AllReduce` on a line).
    AllReduce1d(AllReducePattern),
    /// An explicit 2D AllReduce: the given 2D Reduce followed by the 2D
    /// flooding Broadcast (§7.4; valid for `AllReduce` on a grid).
    AllReduce2d(Reduce2dPattern),
    /// The bandwidth-inefficient per-axis X-Y AllReduce of §7.4, provided so
    /// the paper's comparison can be reproduced (valid for `AllReduce` on a
    /// grid).
    AllReduceXy(ReducePattern),
    /// The ring ReduceScatter (valid for `ReduceScatter` on a line).
    ReduceScatterRing,
    /// The ring AllGather (valid for `AllGather` on a line).
    AllGatherRing,
    /// The pipelined line Gather (valid for `Gather` on a line).
    GatherLine,
    /// The pipelined line Scatter (valid for `Scatter` on a line).
    ScatterLine,
    /// The store-and-forward rotation All-to-All (valid for `AllToAll` on a
    /// line).
    AllToAllRotate,
}

impl Schedule {
    /// The 1D Reduce pattern whose trees an explicit schedule is built from.
    fn phase_pattern(&self) -> Option<ReducePattern> {
        match *self {
            Schedule::Reduce1d(pattern)
            | Schedule::AllReduce1d(AllReducePattern::ReduceBroadcast(pattern))
            | Schedule::Reduce2d(Reduce2dPattern::Xy(pattern))
            | Schedule::AllReduce2d(Reduce2dPattern::Xy(pattern))
            | Schedule::AllReduceXy(pattern) => Some(pattern),
            _ => None,
        }
    }
}

/// A fully specified collective request: the cache key and the input to plan
/// generation.
///
/// Build one with [`CollectiveRequest::reduce`],
/// [`CollectiveRequest::allreduce`] or [`CollectiveRequest::broadcast`] and
/// refine it with the `with_*` builders:
///
/// ```
/// use wse_collectives::prelude::*;
///
/// let request = CollectiveRequest::reduce(Topology::line(16), 256)
///     .with_op(ReduceOp::Max)
///     .with_schedule(Schedule::Reduce1d(ReducePattern::TwoPhase));
/// assert_eq!(request.vector_len, 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CollectiveRequest {
    /// The collective to perform.
    pub kind: CollectiveKind,
    /// Where it runs.
    pub topology: Topology,
    /// Vector length in 32-bit wavelets per participating PE.
    pub vector_len: u32,
    /// The element-wise reduction operation (ignored by `Broadcast`).
    pub op: ReduceOp,
    /// Explicit pattern or model-driven selection.
    pub schedule: Schedule,
    /// The root PE. All plans of this reproduction root at the north-west
    /// corner `(0, 0)`, matching the paper's layouts.
    pub root: Coord,
}

impl CollectiveRequest {
    fn new(kind: CollectiveKind, topology: Topology, vector_len: u32) -> Self {
        CollectiveRequest {
            kind,
            topology,
            vector_len,
            op: ReduceOp::Sum,
            schedule: Schedule::Auto,
            root: Coord::new(0, 0),
        }
    }

    /// A Reduce request (sum, model-selected schedule by default).
    pub fn reduce(topology: Topology, vector_len: u32) -> Self {
        Self::new(CollectiveKind::Reduce, topology, vector_len)
    }

    /// An AllReduce request (sum, model-selected schedule by default).
    pub fn allreduce(topology: Topology, vector_len: u32) -> Self {
        Self::new(CollectiveKind::AllReduce, topology, vector_len)
    }

    /// A Broadcast request.
    pub fn broadcast(topology: Topology, vector_len: u32) -> Self {
        Self::new(CollectiveKind::Broadcast, topology, vector_len)
    }

    /// A ReduceScatter request (sum, model-selected schedule by default).
    /// `vector_len` is the *full* per-PE input length; outputs are one
    /// `vector_len / p` shard per PE.
    pub fn reduce_scatter(topology: Topology, vector_len: u32) -> Self {
        Self::new(CollectiveKind::ReduceScatter, topology, vector_len)
    }

    /// An AllGather request. `vector_len` is the *gathered* length; inputs
    /// are one `vector_len / p` shard per PE.
    pub fn allgather(topology: Topology, vector_len: u32) -> Self {
        Self::new(CollectiveKind::AllGather, topology, vector_len)
    }

    /// A Gather request (to the canonical root). `vector_len` is the
    /// gathered length; inputs are one `vector_len / p` shard per PE.
    pub fn gather(topology: Topology, vector_len: u32) -> Self {
        Self::new(CollectiveKind::Gather, topology, vector_len)
    }

    /// A Scatter request (from the canonical root). `vector_len` is the
    /// root's full input length; outputs are one `vector_len / p` shard per
    /// PE.
    pub fn scatter(topology: Topology, vector_len: u32) -> Self {
        Self::new(CollectiveKind::Scatter, topology, vector_len)
    }

    /// An All-to-All request: chunk `d` of PE `x`'s `vector_len`-element
    /// input goes to PE `d`, chunk slot `s` of its output comes from PE `s`.
    pub fn all_to_all(topology: Topology, vector_len: u32) -> Self {
        Self::new(CollectiveKind::AllToAll, topology, vector_len)
    }

    /// Use the given reduction operation.
    pub fn with_op(mut self, op: ReduceOp) -> Self {
        self.op = op;
        self
    }

    /// Use the given schedule instead of model-driven selection.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Use the given root PE on a rooted collective (`Reduce`, `Broadcast`,
    /// `Gather`, `Scatter`). Rootless kinds — every participant of an
    /// AllReduce, ReduceScatter, AllGather or All-to-All plays the same
    /// role — are rejected with [`CollectiveError::RootlessCollective`]
    /// instead of silently ignoring the hint. Only the canonical `(0, 0)`
    /// root is currently supported; other values are rejected at resolution
    /// time.
    pub fn with_root(mut self, root: Coord) -> Result<Self, CollectiveError> {
        if !self.kind.is_rooted() {
            return Err(CollectiveError::RootlessCollective { kind: self.kind });
        }
        self.root = root;
        Ok(self)
    }

    /// Check the request's parameters without building a plan.
    pub fn validate(&self) -> Result<(), CollectiveError> {
        if self.vector_len == 0 {
            return Err(CollectiveError::InvalidRequest {
                reason: "collectives operate on at least one wavelet".into(),
            });
        }
        match self.topology {
            Topology::Line(0) => {
                return Err(CollectiveError::InvalidRequest {
                    reason: "a line topology needs at least one PE".into(),
                })
            }
            Topology::Grid(dim) if dim.num_pes() == 0 => {
                return Err(CollectiveError::InvalidRequest {
                    reason: "a grid topology needs at least one PE".into(),
                })
            }
            _ => {}
        }
        if self.root != Coord::new(0, 0) {
            return Err(CollectiveError::InvalidRequest {
                reason: format!("only the canonical root (0, 0) is supported, got {}", self.root),
            });
        }
        if matches!(
            self.kind,
            CollectiveKind::ReduceScatter
                | CollectiveKind::AllGather
                | CollectiveKind::Gather
                | CollectiveKind::Scatter
                | CollectiveKind::AllToAll
        ) {
            let Topology::Line(p) = self.topology else {
                return Err(CollectiveError::InvalidRequest {
                    reason: format!("{:?} is only implemented on 1D lines", self.kind),
                });
            };
            if p < 2 {
                return Err(CollectiveError::InvalidRequest {
                    reason: format!("{:?} needs at least two PEs", self.kind),
                });
            }
            if !self.vector_len.is_multiple_of(p) {
                return Err(CollectiveError::InvalidRequest {
                    reason: format!(
                        "{:?} requires the vector length ({}) to be divisible by the PE \
                         count ({p})",
                        self.kind, self.vector_len
                    ),
                });
            }
        }
        if self.kind == CollectiveKind::AllReduce {
            if let (Topology::Line(p), Schedule::AllReduce1d(AllReducePattern::Ring)) =
                (self.topology, self.schedule)
            {
                if p >= 2 && !self.vector_len.is_multiple_of(p) {
                    return Err(CollectiveError::InvalidRequest {
                        reason: format!(
                            "the ring all-reduce requires the vector length ({}) to be \
                             divisible by the PE count ({p})",
                            self.vector_len
                        ),
                    });
                }
                if p < 2 {
                    return Err(CollectiveError::InvalidRequest {
                        reason: "the ring needs at least two PEs".into(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Whether the request's schedule can realise its kind on its topology —
    /// the plan-free mirror of the [`CollectiveRequest::resolve`] match. An
    /// exhaustive test pins the two against each other across every
    /// kind × topology × schedule combination.
    fn schedule_fits(&self) -> bool {
        use CollectiveKind as K;
        use Schedule as S;
        use Topology as T;
        matches!(
            (self.kind, self.topology, self.schedule),
            (K::Reduce, T::Line(_), S::Auto | S::Reduce1d(_))
                | (K::Reduce, T::Grid(_), S::Auto | S::Reduce2d(_))
                | (K::AllReduce, T::Line(_), S::Auto | S::AllReduce1d(_))
                | (K::AllReduce, T::Grid(_), S::Auto | S::AllReduce2d(_) | S::AllReduceXy(_))
                | (K::Broadcast, _, S::Auto)
                | (K::ReduceScatter, T::Line(_), S::Auto | S::ReduceScatterRing)
                | (K::AllGather, T::Line(_), S::Auto | S::AllGatherRing)
                | (K::Gather, T::Line(_), S::Auto | S::GatherLine)
                | (K::Scatter, T::Line(_), S::Auto | S::ScatterLine)
                | (K::AllToAll, T::Line(_), S::Auto | S::AllToAllRotate)
        )
    }

    /// The request's input contract without building a plan: how many input
    /// vectors a caller must supply and the length of each (the `input per
    /// PE x` column of the table in the [module docs](self)).
    ///
    /// Validates the request first, so the shard division below is exact.
    pub fn input_shape(&self) -> Result<(usize, u32), CollectiveError> {
        self.validate()?;
        let p = self.topology.num_pes();
        Ok(match self.kind {
            // Rooted single-source kinds: one full vector at the root.
            CollectiveKind::Broadcast | CollectiveKind::Scatter => (1, self.vector_len),
            // Sharded-input kinds: one chunk per PE (validate() guarantees
            // divisibility).
            CollectiveKind::AllGather | CollectiveKind::Gather => (p, self.vector_len / p as u32),
            // Full-vector-per-PE kinds.
            CollectiveKind::Reduce
            | CollectiveKind::AllReduce
            | CollectiveKind::ReduceScatter
            | CollectiveKind::AllToAll => (p, self.vector_len),
        })
    }

    /// Check, **without building a plan**, whether this request and these
    /// inputs would execute: parameter validation, schedule compatibility
    /// and the per-kind input contract, reporting the same typed error (and
    /// checking in the same order) as the plan-building path
    /// ([`CollectiveRequest::resolve`] followed by input validation against
    /// the plan).
    ///
    /// This is the admission layer's validity oracle: the serving front-end
    /// must know *at submission time* whether an item will consume a
    /// noise-run index — exactly the items a [`crate::session::Session`]
    /// would execute — and it must know without paying for plan generation
    /// on the submit path.
    pub fn check_submission(&self, inputs: &[Vec<f32>]) -> Result<(), CollectiveError> {
        self.validate()?;
        if !self.schedule_fits() {
            return Err(self.schedule_mismatch());
        }
        let (count, len) = self.input_shape()?;
        if inputs.len() != count {
            return Err(CollectiveError::InputCountMismatch { expected: count, got: inputs.len() });
        }
        for (index, input) in inputs.iter().enumerate() {
            if input.len() != len as usize {
                return Err(CollectiveError::InputLengthMismatch {
                    index,
                    expected: len,
                    got: input.len(),
                });
            }
        }
        Ok(())
    }

    /// The model's predicted runtime for this request in cycles, **without
    /// building a plan** — the pure §1.3 "model" step.
    ///
    /// Every fixed pattern, every suite kind and [`Schedule::Auto`] is
    /// priced in closed form, a few hundred nanoseconds. An explicit
    /// Auto-Gen schedule is priced by solving its DP, `O(P²)` in the row
    /// length: about 0.2 ms at `P = 64` and 2.5 ms at `P = 256`. The
    /// serving submit path pays that only for a request whose plan is not
    /// cached yet; a cached [`ResolvedPlan`] carries the prediction.
    ///
    /// The prediction equals the one the resolved plan records
    /// ([`ResolvedPlan::predicted_cycles`]). Invalid requests and
    /// mismatched schedules return the same typed errors as
    /// [`CollectiveRequest::resolve`].
    pub fn predicted_cycles(&self, machine: &Machine) -> Result<f64, CollectiveError> {
        self.validate()?;
        if !self.schedule_fits() {
            return Err(self.schedule_mismatch());
        }
        Ok(self.price(machine, &self.solvers()))
    }

    fn schedule_mismatch(&self) -> CollectiveError {
        CollectiveError::ScheduleMismatch {
            kind: self.kind,
            topology: self.topology,
            schedule: self.schedule,
        }
    }

    /// The Auto-Gen tables this request's schedule needs (none unless it
    /// names the Auto-Gen pattern).
    fn solvers(&self) -> AxisSolvers {
        AxisSolvers::new(self.schedule.phase_pattern(), self.topology.dim())
    }

    /// Price a valid request whose schedule fits, reading Auto-Gen costs
    /// from `solvers`.
    fn price(&self, machine: &Machine, solvers: &AxisSolvers) -> f64 {
        let b = self.vector_len as u64;
        match (self.kind, self.topology, self.schedule) {
            (CollectiveKind::Reduce, Topology::Line(p), schedule) => match schedule {
                Schedule::Reduce1d(pattern) => {
                    pattern.model_algorithm().cycles(p as u64, b, machine, solvers.row())
                }
                _ => selection::choose_reduce_1d(p as u64, b, machine).predicted_cycles,
            },
            (CollectiveKind::Reduce, Topology::Grid(dim), schedule) => {
                let (m, n) = (dim.height as u64, dim.width as u64);
                match schedule {
                    Schedule::Reduce2d(pattern) => pattern.model_algorithm().cycles(
                        m,
                        n,
                        b,
                        machine,
                        solvers.row(),
                        solvers.col(),
                    ),
                    _ => selection::choose_reduce_2d(m, n, b, machine).predicted_cycles,
                }
            }
            (CollectiveKind::AllReduce, Topology::Line(p), schedule) => match schedule {
                Schedule::AllReduce1d(pattern) => {
                    pattern.model_algorithm().cycles(p as u64, b, machine, solvers.row())
                }
                _ => selection::choose_allreduce_1d(p as u64, b, machine).predicted_cycles,
            },
            (CollectiveKind::AllReduce, Topology::Grid(dim), schedule) => {
                let (m, n) = (dim.height as u64, dim.width as u64);
                match schedule {
                    Schedule::AllReduce2d(pattern) => pattern.model_algorithm().allreduce_cycles(
                        m,
                        n,
                        b,
                        machine,
                        solvers.row(),
                        solvers.col(),
                    ),
                    Schedule::AllReduceXy(pattern) => {
                        // Per-axis Reduce-then-Broadcast with the given 1D
                        // pattern (§7.4), including Auto-Gen phases (which
                        // the fixed-phase `costs_2d::xy_allreduce` excludes).
                        let alg = pattern.model_algorithm();
                        let x = alg.cycles(n, b, machine, solvers.row());
                        let y = alg.cycles(m, b, machine, solvers.col());
                        wse_model::costs_1d::reduce_then_broadcast(x, n, b, machine)
                            + wse_model::costs_1d::reduce_then_broadcast(y, m, b, machine)
                    }
                    _ => selection::choose_allreduce_2d(m, n, b, machine).predicted_cycles,
                }
            }
            (CollectiveKind::Broadcast, Topology::Line(p), _) => {
                selection::choose_broadcast_1d(p as u64, b, machine).predicted_cycles
            }
            (CollectiveKind::Broadcast, Topology::Grid(dim), _) => {
                selection::choose_broadcast_2d(dim.height as u64, dim.width as u64, b, machine)
                    .predicted_cycles
            }
            (CollectiveKind::ReduceScatter, Topology::Line(p), _) => {
                selection::choose_reduce_scatter_1d(p as u64, b, machine).predicted_cycles
            }
            (CollectiveKind::AllGather, Topology::Line(p), _) => {
                selection::choose_allgather_1d(p as u64, b, machine).predicted_cycles
            }
            (CollectiveKind::Gather, Topology::Line(p), _) => {
                selection::choose_gather_1d(p as u64, b, machine).predicted_cycles
            }
            (CollectiveKind::Scatter, Topology::Line(p), _) => {
                selection::choose_scatter_1d(p as u64, b, machine).predicted_cycles
            }
            (CollectiveKind::AllToAll, Topology::Line(p), _) => {
                selection::choose_all_to_all_1d(p as u64, b, machine).predicted_cycles
            }
            (
                CollectiveKind::ReduceScatter
                | CollectiveKind::AllGather
                | CollectiveKind::Gather
                | CollectiveKind::Scatter
                | CollectiveKind::AllToAll,
                Topology::Grid(_),
                _,
            ) => unreachable!("validate() rejects suite kinds on grid topologies"),
        }
    }

    /// Resolve the request into an executable plan (uncached).
    ///
    /// [`Schedule::Auto`] requests consult the performance model
    /// ([`wse_model::selection`]) and record the model's structured
    /// [`wse_model::Choice`]; explicit schedules go straight to the plan
    /// builders. Sessions call this through their plan cache — prefer
    /// [`crate::session::Session::plan`] when resolving repeatedly.
    pub fn resolve(&self, machine: &Machine) -> Result<ResolvedPlan, CollectiveError> {
        self.validate()?;
        let mismatch = || self.schedule_mismatch();
        // An explicit Auto-Gen schedule is solved once: the same tables
        // price the request and yield the trees of its plan.
        let solvers = self.solvers();
        let explicit = |plan: CollectivePlan, algorithm: &str| {
            ResolvedPlan::explicit(plan, algorithm, self.price(machine, &solvers))
        };
        let b = self.vector_len;
        match (self.kind, self.topology) {
            (CollectiveKind::Reduce, Topology::Line(p)) => match self.schedule {
                Schedule::Auto => {
                    let choice = selection::choose_reduce_1d(p as u64, b as u64, machine);
                    let ChosenAlgorithm::Reduce1d(alg) = choice.algorithm else {
                        unreachable!("choose_reduce_1d returns a 1D Reduce algorithm");
                    };
                    let pattern = ReducePattern::from_model(alg);
                    Ok(ResolvedPlan::auto(reduce_1d_plan(pattern, p, b, self.op, machine), choice))
                }
                Schedule::Reduce1d(pattern) => Ok(explicit(
                    reduce_1d_plan_with(pattern, p, b, self.op, machine, &solvers),
                    pattern.name(),
                )),
                _ => Err(mismatch()),
            },
            (CollectiveKind::Reduce, Topology::Grid(dim)) => match self.schedule {
                Schedule::Auto => {
                    let choice = selection::choose_reduce_2d(
                        dim.height as u64,
                        dim.width as u64,
                        b as u64,
                        machine,
                    );
                    let ChosenAlgorithm::Reduce2d(alg) = choice.algorithm else {
                        unreachable!("choose_reduce_2d returns a 2D Reduce algorithm");
                    };
                    let pattern = Reduce2dPattern::from_model(alg);
                    Ok(ResolvedPlan::auto(
                        reduce_2d_plan(pattern, dim, b, self.op, machine),
                        choice,
                    ))
                }
                Schedule::Reduce2d(pattern) => Ok(explicit(
                    reduce_2d_plan_with(pattern, dim, b, self.op, machine, &solvers),
                    &pattern.name(),
                )),
                _ => Err(mismatch()),
            },
            (CollectiveKind::AllReduce, Topology::Line(p)) => match self.schedule {
                Schedule::Auto => {
                    let choice = selection::choose_allreduce_1d(p as u64, b as u64, machine);
                    let ChosenAlgorithm::AllReduce1d(alg) = choice.algorithm else {
                        unreachable!("choose_allreduce_1d returns a 1D AllReduce algorithm");
                    };
                    let pattern = AllReducePattern::from_model(alg);
                    // The ring requires the vector to split evenly over the
                    // PEs; fall back to the best reduce-then-broadcast plan
                    // otherwise (the model still reports its original choice).
                    let pattern = match pattern {
                        AllReducePattern::Ring if p < 2 || !b.is_multiple_of(p) => {
                            AllReducePattern::ReduceBroadcast(ReducePattern::AutoGen)
                        }
                        other => other,
                    };
                    Ok(ResolvedPlan::auto(
                        allreduce_1d_plan(pattern, p, b, self.op, machine),
                        choice,
                    ))
                }
                Schedule::AllReduce1d(pattern) => Ok(explicit(
                    allreduce_1d_plan_with(pattern, p, b, self.op, machine, &solvers),
                    pattern.name(),
                )),
                _ => Err(mismatch()),
            },
            (CollectiveKind::AllReduce, Topology::Grid(dim)) => match self.schedule {
                Schedule::Auto => {
                    let choice = selection::choose_allreduce_2d(
                        dim.height as u64,
                        dim.width as u64,
                        b as u64,
                        machine,
                    );
                    let ChosenAlgorithm::AllReduce2d(alg) = choice.algorithm else {
                        unreachable!("choose_allreduce_2d returns a 2D algorithm");
                    };
                    let pattern = Reduce2dPattern::from_model(alg);
                    Ok(ResolvedPlan::auto(
                        allreduce_2d_plan(pattern, dim, b, self.op, machine),
                        choice,
                    ))
                }
                Schedule::AllReduce2d(pattern) => Ok(explicit(
                    allreduce_2d_plan_with(pattern, dim, b, self.op, machine, &solvers),
                    &pattern.name(),
                )),
                Schedule::AllReduceXy(pattern) => Ok(explicit(
                    xy_allreduce_2d_plan_with(pattern, dim, b, self.op, machine, &solvers),
                    &format!("X-Y AllReduce {}", pattern.name()),
                )),
                _ => Err(mismatch()),
            },
            (CollectiveKind::Broadcast, Topology::Line(p)) => match self.schedule {
                Schedule::Auto => {
                    let path = LinePath::row(GridDim::row(p), 0);
                    Ok(explicit(
                        flood_broadcast_plan(&path, b, Color::new(BROADCAST_COLOR)),
                        "Flood",
                    ))
                }
                _ => Err(mismatch()),
            },
            (CollectiveKind::Broadcast, Topology::Grid(dim)) => match self.schedule {
                Schedule::Auto => Ok(explicit(
                    flood_broadcast_2d_plan(dim, b, Color::new(BROADCAST_COLOR)),
                    "2D Flood",
                )),
                _ => Err(mismatch()),
            },
            (CollectiveKind::ReduceScatter, Topology::Line(p)) => match self.schedule {
                Schedule::Auto => Ok(ResolvedPlan::auto(
                    reduce_scatter_ring_plan(p, b, self.op),
                    selection::choose_reduce_scatter_1d(p as u64, b as u64, machine),
                )),
                Schedule::ReduceScatterRing => {
                    Ok(explicit(reduce_scatter_ring_plan(p, b, self.op), "Ring-ReduceScatter"))
                }
                _ => Err(mismatch()),
            },
            (CollectiveKind::AllGather, Topology::Line(p)) => match self.schedule {
                Schedule::Auto => Ok(ResolvedPlan::auto(
                    allgather_ring_plan(p, b),
                    selection::choose_allgather_1d(p as u64, b as u64, machine),
                )),
                Schedule::AllGatherRing => {
                    Ok(explicit(allgather_ring_plan(p, b), "Ring-AllGather"))
                }
                _ => Err(mismatch()),
            },
            (CollectiveKind::Gather, Topology::Line(p)) => match self.schedule {
                Schedule::Auto => Ok(ResolvedPlan::auto(
                    gather_line_plan(p, b),
                    selection::choose_gather_1d(p as u64, b as u64, machine),
                )),
                Schedule::GatherLine => Ok(explicit(gather_line_plan(p, b), "Line-Gather")),
                _ => Err(mismatch()),
            },
            (CollectiveKind::Scatter, Topology::Line(p)) => match self.schedule {
                Schedule::Auto => Ok(ResolvedPlan::auto(
                    scatter_line_plan(p, b),
                    selection::choose_scatter_1d(p as u64, b as u64, machine),
                )),
                Schedule::ScatterLine => Ok(explicit(scatter_line_plan(p, b), "Line-Scatter")),
                _ => Err(mismatch()),
            },
            (CollectiveKind::AllToAll, Topology::Line(p)) => match self.schedule {
                Schedule::Auto => Ok(ResolvedPlan::auto(
                    all_to_all_rotate_plan(p, b),
                    selection::choose_all_to_all_1d(p as u64, b as u64, machine),
                )),
                Schedule::AllToAllRotate => {
                    Ok(explicit(all_to_all_rotate_plan(p, b), "Rotate-AllToAll"))
                }
                _ => Err(mismatch()),
            },
            (
                CollectiveKind::ReduceScatter
                | CollectiveKind::AllGather
                | CollectiveKind::Gather
                | CollectiveKind::Scatter
                | CollectiveKind::AllToAll,
                Topology::Grid(_),
            ) => {
                unreachable!("validate() rejects suite kinds on grid topologies")
            }
        }
    }
}

/// The output of resolving a request: the executable plan plus how it was
/// chosen.
#[derive(Debug, Clone)]
pub struct ResolvedPlan {
    /// The executable plan.
    pub plan: CollectivePlan,
    /// Name of the algorithm realised by the plan (for explicit schedules)
    /// or chosen by the model (for `Auto`).
    pub algorithm: String,
    /// The model's structured choice, present for `Auto` schedules.
    pub choice: Option<wse_model::Choice>,
    /// What [`CollectiveRequest::predicted_cycles`] returns for the request,
    /// computed once while resolving.
    predicted: f64,
}

impl ResolvedPlan {
    fn explicit(plan: CollectivePlan, algorithm: &str, predicted: f64) -> Self {
        ResolvedPlan { plan, algorithm: algorithm.to_string(), choice: None, predicted }
    }

    fn auto(plan: CollectivePlan, choice: wse_model::Choice) -> Self {
        ResolvedPlan {
            plan,
            algorithm: choice.algorithm.name().to_string(),
            choice: Some(choice),
            predicted: choice.predicted_cycles,
        }
    }

    /// The model's predicted runtime in cycles: the `Auto` choice's, or the
    /// explicit schedule's own price. Always `Some`; a cached plan answers
    /// this without running the model again.
    pub fn predicted_cycles(&self) -> Option<f64> {
        Some(self.predicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{assert_outputs_close, expected_reduce, run_plan, RunConfig};

    fn machine() -> Machine {
        Machine::wse2()
    }

    fn inputs(p: usize, b: usize) -> Vec<Vec<f32>> {
        (0..p).map(|i| (0..b).map(|j| (i + 2 * j) as f32 * 0.125 - 1.0).collect()).collect()
    }

    #[test]
    fn requests_are_cache_key_material() {
        use std::collections::HashSet;
        let a = CollectiveRequest::reduce(Topology::line(16), 64);
        let b = a.with_op(ReduceOp::Max);
        let c = CollectiveRequest::reduce(Topology::grid(4, 4), 64);
        let mut set = HashSet::new();
        set.insert(a);
        set.insert(b);
        set.insert(c);
        set.insert(a); // duplicate
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn every_kind_and_topology_resolves_and_runs() {
        let m = machine();
        let cases = [
            CollectiveRequest::reduce(Topology::line(12), 16),
            CollectiveRequest::reduce(Topology::grid(4, 3), 8),
            CollectiveRequest::allreduce(Topology::line(8), 24),
            CollectiveRequest::allreduce(Topology::grid(3, 3), 8),
        ];
        for request in cases {
            let resolved = request.resolve(&m).expect("auto requests resolve");
            assert!(resolved.choice.is_some(), "{request:?} should carry a model choice");
            let data = inputs(request.topology.num_pes(), request.vector_len as usize);
            let outcome = run_plan(&resolved.plan, &data, &RunConfig::default()).unwrap();
            assert_outputs_close(&outcome, &expected_reduce(&data, request.op), 1e-4);
        }
    }

    #[test]
    fn suite_kinds_resolve_and_run_with_kind_aware_shapes() {
        let m = machine();
        let (p, b) = (4u32, 16u32);
        let chunk = (b / p) as usize;
        let full = inputs(p as usize, b as usize);
        let shards: Vec<Vec<f32>> =
            (0..p as usize).map(|x| full[0][x * chunk..(x + 1) * chunk].to_vec()).collect();

        let rs = CollectiveRequest::reduce_scatter(Topology::line(p), b).resolve(&m).unwrap();
        assert_eq!(rs.algorithm, "Ring-ReduceScatter");
        assert!(rs.choice.is_some());
        let outcome = run_plan(&rs.plan, &full, &RunConfig::default()).unwrap();
        let reduced = expected_reduce(&full, ReduceOp::Sum);
        for (x, (_, shard)) in outcome.outputs.iter().enumerate() {
            assert_eq!(shard, &reduced[x * chunk..(x + 1) * chunk]);
        }

        let ag = CollectiveRequest::allgather(Topology::line(p), b).resolve(&m).unwrap();
        assert_eq!(ag.algorithm, "Ring-AllGather");
        let outcome = run_plan(&ag.plan, &shards, &RunConfig::default()).unwrap();
        for (_, out) in &outcome.outputs {
            assert_eq!(out, &full[0]);
        }

        let gather = CollectiveRequest::gather(Topology::line(p), b).resolve(&m).unwrap();
        assert_eq!(gather.algorithm, "Line-Gather");
        let outcome = run_plan(&gather.plan, &shards, &RunConfig::default()).unwrap();
        assert_eq!(outcome.outputs.len(), 1);
        assert_eq!(outcome.outputs[0].1, full[0]);

        let scatter = CollectiveRequest::scatter(Topology::line(p), b).resolve(&m).unwrap();
        assert_eq!(scatter.algorithm, "Line-Scatter");
        let outcome = run_plan(&scatter.plan, &full[..1], &RunConfig::default()).unwrap();
        for (x, (_, shard)) in outcome.outputs.iter().enumerate() {
            assert_eq!(shard, &shards[x]);
        }

        let a2a = CollectiveRequest::all_to_all(Topology::line(p), b).resolve(&m).unwrap();
        assert_eq!(a2a.algorithm, "Rotate-AllToAll");
        let outcome = run_plan(&a2a.plan, &full, &RunConfig::default()).unwrap();
        for (x, (_, out)) in outcome.outputs.iter().enumerate() {
            let expected: Vec<f32> = (0..p as usize)
                .flat_map(|s| full[s][x * chunk..(x + 1) * chunk].iter().copied())
                .collect();
            assert_eq!(out, &expected);
        }

        // Wrong-shaped inputs are rejected by the kind-aware contract: the
        // AllGather expects chunk-sized shards, not full vectors.
        let err = run_plan(&ag.plan, &full, &RunConfig::default()).unwrap_err();
        assert_eq!(
            err,
            CollectiveError::InputLengthMismatch {
                index: 0,
                expected: chunk as u32,
                got: b as usize
            }
        );
    }

    #[test]
    fn rootless_collectives_reject_with_root() {
        for request in [
            CollectiveRequest::allreduce(Topology::line(4), 8),
            CollectiveRequest::reduce_scatter(Topology::line(4), 8),
            CollectiveRequest::allgather(Topology::line(4), 8),
            CollectiveRequest::all_to_all(Topology::line(4), 8),
        ] {
            let err = request.with_root(Coord::new(0, 0)).unwrap_err();
            assert_eq!(err, CollectiveError::RootlessCollective { kind: request.kind });
        }
        for request in [
            CollectiveRequest::reduce(Topology::line(4), 8),
            CollectiveRequest::broadcast(Topology::line(4), 8),
            CollectiveRequest::gather(Topology::line(4), 8),
            CollectiveRequest::scatter(Topology::line(4), 8),
        ] {
            assert!(request.with_root(Coord::new(0, 0)).is_ok(), "{:?} is rooted", request.kind);
        }
    }

    #[test]
    fn broadcast_requests_resolve_for_both_topologies() {
        let m = machine();
        for request in [
            CollectiveRequest::broadcast(Topology::line(9), 12),
            CollectiveRequest::broadcast(Topology::grid(4, 5), 7),
        ] {
            let resolved = request.resolve(&m).unwrap();
            let data = inputs(1, request.vector_len as usize);
            let outcome = run_plan(&resolved.plan, &data, &RunConfig::default()).unwrap();
            assert_eq!(outcome.outputs.len(), request.topology.num_pes());
            for (_, out) in &outcome.outputs {
                assert_eq!(out, &data[0]);
            }
        }
    }

    #[test]
    fn explicit_schedules_build_the_named_pattern() {
        let m = machine();
        let request = CollectiveRequest::reduce(Topology::line(16), 64)
            .with_schedule(Schedule::Reduce1d(ReducePattern::TwoPhase));
        let resolved = request.resolve(&m).unwrap();
        assert_eq!(resolved.algorithm, "Two-Phase");
        assert!(resolved.choice.is_none());
        assert!(resolved.plan.name().contains("Two-Phase"));
    }

    #[test]
    fn mismatched_schedules_are_rejected() {
        let m = machine();
        let request = CollectiveRequest::reduce(Topology::line(8), 16)
            .with_schedule(Schedule::Reduce2d(Reduce2dPattern::Snake));
        assert!(matches!(request.resolve(&m), Err(CollectiveError::ScheduleMismatch { .. })));
        let request = CollectiveRequest::broadcast(Topology::line(8), 16)
            .with_schedule(Schedule::Reduce1d(ReducePattern::Star));
        assert!(matches!(request.resolve(&m), Err(CollectiveError::ScheduleMismatch { .. })));
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let m = machine();
        let zero_b = CollectiveRequest::reduce(Topology::line(8), 0);
        assert!(matches!(zero_b.resolve(&m), Err(CollectiveError::InvalidRequest { .. })));
        let bad_root = CollectiveRequest::reduce(Topology::line(8), 4)
            .with_root(Coord::new(1, 0))
            .expect("Reduce is rooted");
        assert!(matches!(bad_root.resolve(&m), Err(CollectiveError::InvalidRequest { .. })));
        let grid_suite = CollectiveRequest::allgather(Topology::grid(4, 4), 16);
        assert!(matches!(grid_suite.resolve(&m), Err(CollectiveError::InvalidRequest { .. })));
        let indivisible_suite = CollectiveRequest::all_to_all(Topology::line(4), 13);
        assert!(matches!(
            indivisible_suite.resolve(&m),
            Err(CollectiveError::InvalidRequest { .. })
        ));
        let indivisible_ring = CollectiveRequest::allreduce(Topology::line(4), 13)
            .with_schedule(Schedule::AllReduce1d(AllReducePattern::Ring));
        assert!(matches!(
            indivisible_ring.resolve(&m),
            Err(CollectiveError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn auto_ring_choice_falls_back_when_indivisible() {
        let m = machine();
        // b = 4098 is not divisible by p = 4; the model may pick the ring but
        // the resolved plan must still be runnable.
        let request = CollectiveRequest::allreduce(Topology::line(4), 4098);
        let resolved = request.resolve(&m).unwrap();
        let data = inputs(4, 4098);
        let outcome = run_plan(&resolved.plan, &data, &RunConfig::default()).unwrap();
        assert_outputs_close(&outcome, &expected_reduce(&data, ReduceOp::Sum), 1e-3);
    }

    fn request_for(kind: CollectiveKind, topology: Topology, vector_len: u32) -> CollectiveRequest {
        CollectiveRequest {
            kind,
            topology,
            vector_len,
            op: ReduceOp::Sum,
            schedule: Schedule::Auto,
            root: Coord::new(0, 0),
        }
    }

    /// One representative schedule per `Schedule` variant family, including
    /// the Auto-Gen patterns (whose predictions require a solver).
    fn schedule_matrix() -> Vec<Schedule> {
        vec![
            Schedule::Auto,
            Schedule::Reduce1d(ReducePattern::Star),
            Schedule::Reduce1d(ReducePattern::AutoGen),
            Schedule::Reduce2d(Reduce2dPattern::Xy(ReducePattern::Chain)),
            Schedule::Reduce2d(Reduce2dPattern::Snake),
            Schedule::AllReduce1d(AllReducePattern::ReduceBroadcast(ReducePattern::Tree)),
            Schedule::AllReduce1d(AllReducePattern::Ring),
            Schedule::AllReduce2d(Reduce2dPattern::Xy(ReducePattern::TwoPhase)),
            Schedule::AllReduceXy(ReducePattern::AutoGen),
            Schedule::ReduceScatterRing,
            Schedule::AllGatherRing,
            Schedule::GatherLine,
            Schedule::ScatterLine,
            Schedule::AllToAllRotate,
        ]
    }

    fn kind_matrix() -> [CollectiveKind; 8] {
        [
            CollectiveKind::Reduce,
            CollectiveKind::AllReduce,
            CollectiveKind::Broadcast,
            CollectiveKind::ReduceScatter,
            CollectiveKind::AllGather,
            CollectiveKind::Gather,
            CollectiveKind::Scatter,
            CollectiveKind::AllToAll,
        ]
    }

    #[test]
    fn check_submission_mirrors_the_plan_building_path() {
        let m = machine();
        // b = 16 divides the line's p = 4 (valid suite requests); b = 13
        // exercises the divisibility rejections; b = 0 the basic validation.
        for kind in kind_matrix() {
            for topology in [Topology::line(4), Topology::grid(2, 3)] {
                for schedule in schedule_matrix() {
                    for b in [16u32, 13, 0] {
                        let request = request_for(kind, topology, b).with_schedule(schedule);
                        // Candidate input sets: the contract shape (when one
                        // exists), an off-by-one count, an off-by-one length
                        // and a generic junk shape.
                        let mut candidates = vec![vec![vec![0.0f32; 3]; 2]];
                        if let Ok((count, len)) = request.input_shape() {
                            candidates.push(vec![vec![0.0; len as usize]; count]);
                            candidates.push(vec![vec![0.0; len as usize]; count + 1]);
                            let mut long = vec![vec![0.0; len as usize]; count];
                            long[0].push(0.0);
                            candidates.push(long);
                        }
                        for inputs in candidates {
                            let via_plan = request
                                .resolve(&m)
                                .and_then(|r| crate::runner::check_inputs(&r.plan, &inputs));
                            let plan_free = request.check_submission(&inputs);
                            assert_eq!(
                                plan_free,
                                via_plan,
                                "check_submission diverges from resolve+check_inputs for \
                                 {request:?} with {} inputs",
                                inputs.len()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn predicted_cycles_matches_resolution_for_auto_and_errors_in_step() {
        let m = machine();
        for kind in kind_matrix() {
            for topology in [Topology::line(4), Topology::grid(2, 3)] {
                for schedule in schedule_matrix() {
                    for b in [16u32, 13, 0] {
                        let request = request_for(kind, topology, b).with_schedule(schedule);
                        match (request.predicted_cycles(&m), request.resolve(&m)) {
                            (Ok(predicted), Ok(resolved)) => {
                                assert!(
                                    predicted.is_finite() && predicted >= 0.0,
                                    "{request:?} predicted {predicted}"
                                );
                                // The resolved plan records the same
                                // prediction, and for Auto it is the choice's.
                                assert_eq!(
                                    Some(predicted),
                                    resolved.predicted_cycles(),
                                    "plan-free prediction diverges for {request:?}"
                                );
                                if let Some(choice) = resolved.choice {
                                    assert_eq!(predicted, choice.predicted_cycles);
                                }
                            }
                            (Err(a), Err(b)) => {
                                assert_eq!(a, b, "error mismatch for {request:?}")
                            }
                            (a, b) => panic!(
                                "predicted_cycles and resolve disagree on viability for \
                                 {request:?}: {a:?} vs {:?}",
                                b.map(|r| r.algorithm)
                            ),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn explicit_predictions_never_beat_the_auto_choice() {
        let m = machine();
        // Auto minimises over the same candidate families the explicit
        // schedules come from, so an explicit pick can tie but never win.
        let cases = [
            (
                CollectiveRequest::reduce(Topology::line(12), 64),
                Schedule::Reduce1d(ReducePattern::Star),
            ),
            (
                CollectiveRequest::reduce(Topology::line(12), 64),
                Schedule::Reduce1d(ReducePattern::AutoGen),
            ),
            (
                CollectiveRequest::reduce(Topology::grid(4, 5), 32),
                Schedule::Reduce2d(Reduce2dPattern::Snake),
            ),
            (
                CollectiveRequest::allreduce(Topology::line(8), 64),
                Schedule::AllReduce1d(AllReducePattern::Ring),
            ),
            (
                CollectiveRequest::allreduce(Topology::grid(3, 4), 16),
                Schedule::AllReduce2d(Reduce2dPattern::Xy(ReducePattern::Chain)),
            ),
        ];
        for (auto_request, explicit) in cases {
            let auto = auto_request.predicted_cycles(&m).unwrap();
            let pinned = auto_request.with_schedule(explicit).predicted_cycles(&m).unwrap();
            assert!(
                pinned >= auto - 1e-9,
                "explicit {explicit:?} predicts {pinned}, beating Auto's {auto}"
            );
        }
        // The XY AllReduce is not in Auto's candidate set; its prediction
        // just has to be a sane positive number.
        let xy = CollectiveRequest::allreduce(Topology::grid(3, 4), 16)
            .with_schedule(Schedule::AllReduceXy(ReducePattern::Tree))
            .predicted_cycles(&m)
            .unwrap();
        assert!(xy.is_finite() && xy > 0.0);
    }

    #[test]
    fn input_shape_matches_the_resolved_plan_contract() {
        let m = machine();
        let (p, b) = (4u32, 16u32);
        let cases = [
            CollectiveRequest::reduce(Topology::line(p), b),
            CollectiveRequest::allreduce(Topology::line(p), b),
            CollectiveRequest::broadcast(Topology::line(p), b),
            CollectiveRequest::broadcast(Topology::grid(2, 3), b),
            CollectiveRequest::reduce_scatter(Topology::line(p), b),
            CollectiveRequest::allgather(Topology::line(p), b),
            CollectiveRequest::gather(Topology::line(p), b),
            CollectiveRequest::scatter(Topology::line(p), b),
            CollectiveRequest::all_to_all(Topology::line(p), b),
        ];
        for request in cases {
            let (count, len) = request.input_shape().unwrap();
            let plan = request.resolve(&m).unwrap().plan;
            assert_eq!(count, plan.data_pes().len(), "{:?} input count", request.kind);
            for (_, expected) in plan.input_specs() {
                assert_eq!(len, *expected, "{:?} input length", request.kind);
            }
        }
    }

    #[test]
    fn tenant_ids_order_and_display() {
        assert_eq!(TenantId::DEFAULT, TenantId(0));
        assert!(TenantId(1) < TenantId(2));
        assert_eq!(TenantId(7).to_string(), "tenant-7");
    }
}
