//! AllReduce plans: Reduce-then-Broadcast (§6.1), the Ring AllReduce (§6.2)
//! and the 2D composition of §7.4.

use wse_fabric::geometry::{Coord, GridDim};
use wse_fabric::program::ReduceOp;
use wse_fabric::wavelet::Color;
use wse_model::Machine;

use crate::broadcast::{append_flood_broadcast, append_flood_broadcast_2d};
use crate::path::LinePath;
use crate::phases::{
    append_allgather_rounds, append_reduce_scatter_rounds, append_ring_routes, RingColors,
};
use crate::plan::CollectivePlan;
use crate::reduce::{
    reduce_2d_plan_with, AxisSolvers, Reduce2dPattern, ReducePattern, BROADCAST_COLOR,
};
use crate::tree_plan::append_tree_reduce;

/// The 1D AllReduce algorithms that can be compiled to a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllReducePattern {
    /// Reduce with the given pattern, then the flooding Broadcast (§6.1).
    ReduceBroadcast(ReducePattern),
    /// The Ring AllReduce (§6.2): reduce-scatter followed by all-gather.
    Ring,
}

impl AllReducePattern {
    /// Name as used in the paper's figures. Returns `&'static str`,
    /// consistent with [`ReducePattern::name`].
    pub fn name(&self) -> &'static str {
        match self {
            Self::ReduceBroadcast(ReducePattern::Star) => "Star+Bcast",
            Self::ReduceBroadcast(ReducePattern::Chain) => "Chain+Bcast",
            Self::ReduceBroadcast(ReducePattern::Tree) => "Tree+Bcast",
            Self::ReduceBroadcast(ReducePattern::TwoPhase) => "Two-Phase+Bcast",
            Self::ReduceBroadcast(ReducePattern::AutoGen) => "Auto-Gen+Bcast",
            Self::Ring => "Ring",
        }
    }

    /// The plan-side pattern corresponding to a model-side algorithm label.
    ///
    /// The Butterfly is analysed by the model only (§6.3); its plan-side
    /// stand-in is the Ring, exactly as in the model's own best-algorithm
    /// regions.
    pub fn from_model(alg: wse_model::AllReduce1dAlgorithm) -> Self {
        use wse_model::AllReduce1dAlgorithm as A;
        match alg {
            A::StarBcast => AllReducePattern::ReduceBroadcast(ReducePattern::Star),
            A::ChainBcast => AllReducePattern::ReduceBroadcast(ReducePattern::Chain),
            A::TreeBcast => AllReducePattern::ReduceBroadcast(ReducePattern::Tree),
            A::TwoPhaseBcast => AllReducePattern::ReduceBroadcast(ReducePattern::TwoPhase),
            A::AutoGenBcast => AllReducePattern::ReduceBroadcast(ReducePattern::AutoGen),
            A::Ring | A::Butterfly => AllReducePattern::Ring,
        }
    }

    /// The corresponding model-side algorithm label.
    ///
    /// `Ring` maps to the model's Ring (never the Butterfly): the plan
    /// actually built is the ring, so that is the honest prediction.
    pub fn model_algorithm(&self) -> wse_model::AllReduce1dAlgorithm {
        use wse_model::AllReduce1dAlgorithm as A;
        match self {
            Self::ReduceBroadcast(ReducePattern::Star) => A::StarBcast,
            Self::ReduceBroadcast(ReducePattern::Chain) => A::ChainBcast,
            Self::ReduceBroadcast(ReducePattern::Tree) => A::TreeBcast,
            Self::ReduceBroadcast(ReducePattern::TwoPhase) => A::TwoPhaseBcast,
            Self::ReduceBroadcast(ReducePattern::AutoGen) => A::AutoGenBcast,
            Self::Ring => A::Ring,
        }
    }
}

/// Build a 1D AllReduce plan for a row of `p` PEs.
pub fn allreduce_1d_plan(
    pattern: AllReducePattern,
    p: u32,
    vector_len: u32,
    op: ReduceOp,
    machine: &Machine,
) -> CollectivePlan {
    let phase = match pattern {
        AllReducePattern::ReduceBroadcast(reduce) => Some(reduce),
        AllReducePattern::Ring => None,
    };
    let solvers = AxisSolvers::new(phase, GridDim::row(p));
    allreduce_1d_plan_with(pattern, p, vector_len, op, machine, &solvers)
}

/// [`allreduce_1d_plan`] reading Auto-Gen trees from `solvers`.
pub(crate) fn allreduce_1d_plan_with(
    pattern: AllReducePattern,
    p: u32,
    vector_len: u32,
    op: ReduceOp,
    machine: &Machine,
    solvers: &AxisSolvers,
) -> CollectivePlan {
    match pattern {
        AllReducePattern::ReduceBroadcast(reduce) => {
            let dim = GridDim::row(p);
            let path = LinePath::row(dim, 0);
            let mut plan = CollectivePlan::new(
                format!("allreduce-1d-{}-p{}-b{}", pattern.name(), p, vector_len),
                dim,
                path.root(),
                vector_len,
            );
            let tree = reduce.tree_with(p as usize, vector_len, machine, solvers.row());
            let colors = [Color::new(0), Color::new(1)];
            append_tree_reduce(&mut plan, &path, &tree, vector_len, op, colors, false);
            append_flood_broadcast(&mut plan, &path, vector_len, 0, Color::new(BROADCAST_COLOR));
            for c in path.coords() {
                plan.add_data_pe(*c);
                plan.add_result_pe(*c);
            }
            plan
        }
        AllReducePattern::Ring => ring_allreduce_plan(p, vector_len, op),
    }
}

/// Build the Ring AllReduce plan on a row of `p` PEs (§6.2, simple mapping
/// of Figure 7a).
///
/// The vector length must be divisible by `p`: the algorithm runs `p - 1`
/// rounds of reduce-scatter followed by `p - 1` rounds of all-gather on
/// chunks of `vector_len / p` elements. Although the paper analyses the ring
/// only with its model (and concludes it is never the best choice on the
/// WSE, §8.6), the implementation is provided so the prediction can be
/// validated on the simulator.
///
/// # Panics
///
/// Panics when `p < 2` or `vector_len` is not divisible by `p`. The
/// request API rejects the same shapes with a typed
/// [`crate::error::CollectiveError::InvalidRequest`] before reaching this
/// builder ([`crate::request::CollectiveRequest::validate`]); the panic
/// here is the contract for callers constructing plans by hand.
pub fn ring_allreduce_plan(p: u32, vector_len: u32, op: ReduceOp) -> CollectivePlan {
    assert!(p >= 2, "the ring needs at least two PEs");
    assert_eq!(
        vector_len % p,
        0,
        "the ring all-reduce requires the vector length to be divisible by the PE count"
    );
    let dim = GridDim::row(p);
    let chunk = vector_len / p;
    let colors = RingColors::default();
    let mut plan = CollectivePlan::new(
        format!("allreduce-1d-Ring-p{p}-b{vector_len}"),
        dim,
        Coord::new(0, 0),
        vector_len,
    );
    // The ring is the composition of the shared phase builders: static ring
    // routes, p - 1 reduce-scatter rounds and p - 1 all-gather rounds that
    // pick up at the chunk the reduce-scatter finished (base 1). The phase
    // module's golden test pins this to the pre-refactor emission byte for
    // byte.
    append_ring_routes(&mut plan, p, &colors);
    append_reduce_scatter_rounds(&mut plan, p, chunk, op, &colors);
    append_allgather_rounds(&mut plan, p, chunk, &colors, 1);
    for x in 0..p {
        let at = Coord::new(x, 0);
        plan.add_data_pe(at);
        plan.add_result_pe(at);
    }
    plan
}

/// Build the X-Y AllReduce of §7.4 (first approach): an AllReduce inside
/// every row (Reduce towards the leftmost PE, then a row broadcast back),
/// followed by an AllReduce inside every column.
///
/// The paper analyses this variant and shows it is bandwidth-inefficient —
/// it effectively broadcasts twice — which is why Reduce-then-2D-Broadcast
/// ([`allreduce_2d_plan`]) is preferred; the implementation is provided so
/// that the comparison can be reproduced on the simulator.
pub fn xy_allreduce_2d_plan(
    pattern: ReducePattern,
    dim: GridDim,
    vector_len: u32,
    op: ReduceOp,
    machine: &Machine,
) -> CollectivePlan {
    let solvers = AxisSolvers::new(Some(pattern), dim);
    xy_allreduce_2d_plan_with(pattern, dim, vector_len, op, machine, &solvers)
}

/// [`xy_allreduce_2d_plan`] reading Auto-Gen trees from `solvers`.
pub(crate) fn xy_allreduce_2d_plan_with(
    pattern: ReducePattern,
    dim: GridDim,
    vector_len: u32,
    op: ReduceOp,
    machine: &Machine,
    solvers: &AxisSolvers,
) -> CollectivePlan {
    let mut plan = CollectivePlan::new(
        format!("allreduce-2d-XY-{}-{}x{}-b{}", pattern.name(), dim.height, dim.width, vector_len),
        dim,
        Coord::new(0, 0),
        vector_len,
    );
    let x_colors = [Color::new(0), Color::new(1)];
    let x_bcast = Color::new(2);
    let y_colors = [Color::new(3), Color::new(4)];
    let y_bcast = Color::new(5);
    // X phase: AllReduce inside every row.
    if dim.width > 1 {
        let row_tree = pattern.tree_with(dim.width as usize, vector_len, machine, solvers.row());
        for y in 0..dim.height {
            let path = LinePath::row(dim, y);
            append_tree_reduce(&mut plan, &path, &row_tree, vector_len, op, x_colors, false);
            append_flood_broadcast(&mut plan, &path, vector_len, 0, x_bcast);
        }
    }
    // Y phase: AllReduce inside every column (every PE now holds its row's
    // sum, so the column AllReduce completes the global sum everywhere).
    if dim.height > 1 {
        let col_tree = pattern.tree_with(dim.height as usize, vector_len, machine, solvers.col());
        for x in 0..dim.width {
            let path = LinePath::column(dim, x);
            append_tree_reduce(&mut plan, &path, &col_tree, vector_len, op, y_colors, false);
            append_flood_broadcast(&mut plan, &path, vector_len, 0, y_bcast);
        }
    }
    for c in dim.iter() {
        plan.add_data_pe(c);
        plan.add_result_pe(c);
    }
    plan
}

/// Build a 2D AllReduce plan: the given 2D Reduce followed by the 2D
/// flooding Broadcast (§7.4).
pub fn allreduce_2d_plan(
    pattern: Reduce2dPattern,
    dim: GridDim,
    vector_len: u32,
    op: ReduceOp,
    machine: &Machine,
) -> CollectivePlan {
    let solvers = AxisSolvers::new(pattern.phase(), dim);
    allreduce_2d_plan_with(pattern, dim, vector_len, op, machine, &solvers)
}

/// [`allreduce_2d_plan`] reading Auto-Gen trees from `solvers`.
pub(crate) fn allreduce_2d_plan_with(
    pattern: Reduce2dPattern,
    dim: GridDim,
    vector_len: u32,
    op: ReduceOp,
    machine: &Machine,
    solvers: &AxisSolvers,
) -> CollectivePlan {
    let mut plan = reduce_2d_plan_with(pattern, dim, vector_len, op, machine, solvers);
    append_flood_broadcast_2d(&mut plan, dim, vector_len, 0, Color::new(BROADCAST_COLOR));
    // After the broadcast every PE holds the result.
    plan.clear_result_pes();
    for c in dim.iter() {
        plan.add_result_pe(c);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{assert_outputs_close, expected_reduce, run_plan, RunConfig};

    fn machine() -> Machine {
        Machine::wse2()
    }

    fn inputs(p: usize, b: usize) -> Vec<Vec<f32>> {
        (0..p).map(|i| (0..b).map(|j| ((i * b + j) % 17) as f32 * 0.5 - 2.0).collect()).collect()
    }

    #[test]
    fn reduce_then_broadcast_allreduce_is_correct_for_every_pattern() {
        let p = 10u32;
        let b = 12u32;
        let data = inputs(p as usize, b as usize);
        let expected = expected_reduce(&data, ReduceOp::Sum);
        for pattern in ReducePattern::all() {
            let plan = allreduce_1d_plan(
                AllReducePattern::ReduceBroadcast(pattern),
                p,
                b,
                ReduceOp::Sum,
                &machine(),
            );
            let outcome = run_plan(&plan, &data, &RunConfig::default())
                .unwrap_or_else(|e| panic!("{} failed: {e}", pattern.name()));
            assert_eq!(outcome.outputs.len(), p as usize);
            assert_outputs_close(&outcome, &expected, 1e-4);
            assert!(plan.colors_used().len() <= 3);
        }
    }

    #[test]
    fn ring_allreduce_is_correct() {
        for (p, b) in [(4u32, 16u32), (6, 12), (8, 32)] {
            let data = inputs(p as usize, b as usize);
            let expected = expected_reduce(&data, ReduceOp::Sum);
            let plan = ring_allreduce_plan(p, b, ReduceOp::Sum);
            let outcome = run_plan(&plan, &data, &RunConfig::default())
                .unwrap_or_else(|e| panic!("ring p={p} b={b} failed: {e}"));
            assert_eq!(outcome.outputs.len(), p as usize);
            assert_outputs_close(&outcome, &expected, 1e-4);
            assert!(plan.colors_used().len() <= 3);
        }
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn ring_rejects_indivisible_vectors() {
        let _ = ring_allreduce_plan(4, 13, ReduceOp::Sum);
    }

    #[test]
    fn allreduce_2d_is_correct() {
        let dim = GridDim::new(4, 4);
        let b = 8u32;
        let data = inputs(16, b as usize);
        let expected = expected_reduce(&data, ReduceOp::Sum);
        for pattern in [
            Reduce2dPattern::Xy(ReducePattern::Chain),
            Reduce2dPattern::Xy(ReducePattern::TwoPhase),
            Reduce2dPattern::Xy(ReducePattern::AutoGen),
            Reduce2dPattern::Snake,
        ] {
            let plan = allreduce_2d_plan(pattern, dim, b, ReduceOp::Sum, &machine());
            let outcome = run_plan(&plan, &data, &RunConfig::default())
                .unwrap_or_else(|e| panic!("{} failed: {e}", pattern.name()));
            assert_eq!(outcome.outputs.len(), 16);
            assert_outputs_close(&outcome, &expected, 1e-4);
            assert!(plan.colors_used().len() <= 5, "{}", pattern.name());
        }
    }

    #[test]
    fn xy_allreduce_is_correct_but_slower_than_reduce_then_2d_broadcast() {
        // §7.4: all-reducing each axis broadcasts twice, which is bandwidth
        // inefficient compared to Reduce + 2D Broadcast for larger vectors.
        let dim = GridDim::new(6, 4);
        let b = 64u32;
        let data = inputs(24, b as usize);
        let expected = expected_reduce(&data, ReduceOp::Sum);
        let m = machine();

        let xy = xy_allreduce_2d_plan(ReducePattern::TwoPhase, dim, b, ReduceOp::Sum, &m);
        assert!(xy.colors_used().len() <= 6);
        let xy_outcome = run_plan(&xy, &data, &RunConfig::default()).unwrap();
        assert_eq!(xy_outcome.outputs.len(), 24);
        assert_outputs_close(&xy_outcome, &expected, 1e-4);

        let rb = allreduce_2d_plan(
            Reduce2dPattern::Xy(ReducePattern::TwoPhase),
            dim,
            b,
            ReduceOp::Sum,
            &m,
        );
        let rb_outcome = run_plan(&rb, &data, &RunConfig::default()).unwrap();
        assert_outputs_close(&rb_outcome, &expected, 1e-4);
        assert!(
            rb_outcome.runtime_cycles() <= xy_outcome.runtime_cycles(),
            "reduce+2D-broadcast ({}) should not lose to the X-Y AllReduce ({})",
            rb_outcome.runtime_cycles(),
            xy_outcome.runtime_cycles()
        );
    }

    #[test]
    fn ring_beats_chain_broadcast_for_few_pes_and_huge_vectors() {
        // Figure 8's ring region: few PEs, bandwidth-bound vectors.
        let p = 4u32;
        let b = 1024u32;
        let data = inputs(p as usize, b as usize);
        let ring =
            run_plan(&ring_allreduce_plan(p, b, ReduceOp::Sum), &data, &RunConfig::default())
                .unwrap()
                .runtime_cycles();
        let chain = run_plan(
            &allreduce_1d_plan(
                AllReducePattern::ReduceBroadcast(ReducePattern::Chain),
                p,
                b,
                ReduceOp::Sum,
                &machine(),
            ),
            &data,
            &RunConfig::default(),
        )
        .unwrap()
        .runtime_cycles();
        assert!(ring < chain, "ring {ring} vs chain+bcast {chain}");
    }

    #[test]
    fn allreduce_runtime_exceeds_reduce_runtime() {
        let p = 16u32;
        let b = 64u32;
        let data = inputs(p as usize, b as usize);
        let m = machine();
        let reduce = run_plan(
            &crate::reduce::reduce_1d_plan(ReducePattern::TwoPhase, p, b, ReduceOp::Sum, &m),
            &data,
            &RunConfig::default(),
        )
        .unwrap()
        .runtime_cycles();
        let allreduce = run_plan(
            &allreduce_1d_plan(
                AllReducePattern::ReduceBroadcast(ReducePattern::TwoPhase),
                p,
                b,
                ReduceOp::Sum,
                &m,
            ),
            &data,
            &RunConfig::default(),
        )
        .unwrap()
        .runtime_cycles();
        assert!(allreduce > reduce);
        // ... by roughly the cost of a broadcast (B + P), not by another full
        // reduce.
        assert!((allreduce - reduce) as f64 <= 2.0 * (b + p + 10) as f64);
    }
}
