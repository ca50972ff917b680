//! Reduce plans: the fixed 1D patterns of §5, the Auto-Gen schedule of §5.5,
//! and the 2D compositions of §7.

use wse_fabric::geometry::{Coord, GridDim};
use wse_fabric::program::ReduceOp;
use wse_fabric::wavelet::Color;
use wse_model::autogen::{AutogenSolver, ReductionTree};
use wse_model::Machine;

use crate::path::LinePath;
use crate::plan::CollectivePlan;
use crate::tree_plan::append_tree_reduce;

/// The 1D Reduce patterns that can be compiled to a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReducePattern {
    /// Star Reduce (§5.1): every PE sends directly to the root.
    Star,
    /// Chain Reduce (§5.2): fully pipelined nearest-neighbour chain (the
    /// vendor library's pattern).
    Chain,
    /// Binary Tree Reduce (§5.3).
    Tree,
    /// Two-Phase Reduce (§5.4) with group size `≈ sqrt(P)`.
    TwoPhase,
    /// Auto-Gen Reduce (§5.5): the tree is chosen by the performance model
    /// for the given vector length.
    AutoGen,
}

impl ReducePattern {
    /// All patterns, in the paper's order.
    pub fn all() -> [ReducePattern; 5] {
        [Self::Star, Self::Chain, Self::Tree, Self::TwoPhase, Self::AutoGen]
    }

    /// Name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Star => "Star",
            Self::Chain => "Chain",
            Self::Tree => "Tree",
            Self::TwoPhase => "Two-Phase",
            Self::AutoGen => "Auto-Gen",
        }
    }

    /// The reduction tree this pattern uses on `p` PEs for vectors of
    /// `vector_len` wavelets.
    pub fn tree(&self, p: usize, vector_len: u32, machine: &Machine) -> ReductionTree {
        let solver = (*self == Self::AutoGen).then(|| AutogenSolver::new(p as u64));
        self.tree_with(p, vector_len, machine, solver.as_ref())
    }

    /// [`ReducePattern::tree`] reading the Auto-Gen tree from `solver`, the
    /// table for `p` PEs (only Auto-Gen needs one).
    pub(crate) fn tree_with(
        &self,
        p: usize,
        vector_len: u32,
        machine: &Machine,
        solver: Option<&AutogenSolver>,
    ) -> ReductionTree {
        match self {
            Self::Star => ReductionTree::star(p),
            Self::Chain => ReductionTree::chain(p),
            Self::Tree => ReductionTree::binary_tree(p),
            Self::TwoPhase => {
                let s = wse_model::costs_1d::two_phase_default_group(p as u64) as usize;
                ReductionTree::two_phase(p, s)
            }
            Self::AutoGen => {
                let solver = solver.expect("an Auto-Gen tree is read from its solved table");
                assert_eq!(solver.pes(), p as u64, "solver built for a different PE count");
                solver.best_tree(vector_len as u64, machine)
            }
        }
    }

    /// The plan-side pattern corresponding to a model-side algorithm label.
    pub fn from_model(alg: wse_model::Reduce1dAlgorithm) -> Self {
        match alg {
            wse_model::Reduce1dAlgorithm::Star => ReducePattern::Star,
            wse_model::Reduce1dAlgorithm::Chain => ReducePattern::Chain,
            wse_model::Reduce1dAlgorithm::Tree => ReducePattern::Tree,
            wse_model::Reduce1dAlgorithm::TwoPhase => ReducePattern::TwoPhase,
            wse_model::Reduce1dAlgorithm::AutoGen => ReducePattern::AutoGen,
        }
    }

    /// The corresponding model-side algorithm label.
    pub fn model_algorithm(&self) -> wse_model::Reduce1dAlgorithm {
        match self {
            Self::Star => wse_model::Reduce1dAlgorithm::Star,
            Self::Chain => wse_model::Reduce1dAlgorithm::Chain,
            Self::Tree => wse_model::Reduce1dAlgorithm::Tree,
            Self::TwoPhase => wse_model::Reduce1dAlgorithm::TwoPhase,
            Self::AutoGen => wse_model::Reduce1dAlgorithm::AutoGen,
        }
    }
}

/// The Auto-Gen DP tables for the two axes of one plan.
///
/// Resolving a request prices it and builds its plan; both read the same
/// tables, so each axis is solved once per resolve, and a square grid's two
/// equal axes share one table.
#[derive(Debug)]
pub(crate) struct AxisSolvers {
    row: Option<AutogenSolver>,
    col: Option<AutogenSolver>,
}

impl AxisSolvers {
    /// Solve what a schedule whose per-axis phases use `phase` needs on
    /// `dim` (a line is a one-row grid): nothing unless that is Auto-Gen.
    pub(crate) fn new(phase: Option<ReducePattern>, dim: GridDim) -> Self {
        if phase != Some(ReducePattern::AutoGen) {
            return AxisSolvers { row: None, col: None };
        }
        let row = AutogenSolver::new(dim.width as u64);
        let col = (dim.height != dim.width).then(|| AutogenSolver::new(dim.height as u64));
        AxisSolvers { row: Some(row), col }
    }

    /// The solver for a row (`dim.width` PEs).
    pub(crate) fn row(&self) -> Option<&AutogenSolver> {
        self.row.as_ref()
    }

    /// The solver for a column (`dim.height` PEs).
    pub(crate) fn col(&self) -> Option<&AutogenSolver> {
        self.col.as_ref().or(self.row.as_ref())
    }
}

/// The two colors used by 1D Reduce plans (X-axis phases).
pub const REDUCE_X_COLORS: [u8; 2] = [0, 1];
/// The two colors used by the Y-axis phase of 2D Reduce plans.
pub const REDUCE_Y_COLORS: [u8; 2] = [2, 3];
/// The color used by broadcast phases (AllReduce).
pub const BROADCAST_COLOR: u8 = 4;

fn x_colors() -> [Color; 2] {
    [Color::new(REDUCE_X_COLORS[0]), Color::new(REDUCE_X_COLORS[1])]
}

fn y_colors() -> [Color; 2] {
    [Color::new(REDUCE_Y_COLORS[0]), Color::new(REDUCE_Y_COLORS[1])]
}

/// Build a Reduce plan along a path using an explicit reduction tree.
pub fn tree_reduce_plan(
    name: impl Into<String>,
    path: &LinePath,
    tree: &ReductionTree,
    vector_len: u32,
    op: ReduceOp,
) -> CollectivePlan {
    let mut plan = CollectivePlan::new(name, path.dim(), path.root(), vector_len);
    append_tree_reduce(&mut plan, path, tree, vector_len, op, x_colors(), false);
    for c in path.coords() {
        plan.add_data_pe(*c);
    }
    plan.add_result_pe(path.root());
    plan
}

/// Build a 1D Reduce plan for a row of `p` PEs with the given pattern.
///
/// The root is the leftmost PE of the row. For the Auto-Gen pattern the
/// machine model decides the tree shape based on the vector length.
pub fn reduce_1d_plan(
    pattern: ReducePattern,
    p: u32,
    vector_len: u32,
    op: ReduceOp,
    machine: &Machine,
) -> CollectivePlan {
    let solvers = AxisSolvers::new(Some(pattern), GridDim::row(p));
    reduce_1d_plan_with(pattern, p, vector_len, op, machine, &solvers)
}

/// [`reduce_1d_plan`] reading Auto-Gen trees from `solvers`.
pub(crate) fn reduce_1d_plan_with(
    pattern: ReducePattern,
    p: u32,
    vector_len: u32,
    op: ReduceOp,
    machine: &Machine,
    solvers: &AxisSolvers,
) -> CollectivePlan {
    let dim = GridDim::row(p);
    let path = LinePath::row(dim, 0);
    let tree = pattern.tree_with(p as usize, vector_len, machine, solvers.row());
    tree_reduce_plan(
        format!("reduce-1d-{}-p{}-b{}", pattern.name(), p, vector_len),
        &path,
        &tree,
        vector_len,
        op,
    )
}

/// The 2D Reduce patterns of §7 that can be compiled to a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reduce2dPattern {
    /// X-Y Reduce (§7.2) with the given 1D pattern on both axes.
    Xy(ReducePattern),
    /// Snake Reduce (§7.3): the chain mapped boustrophedon over the grid.
    Snake,
}

impl Reduce2dPattern {
    /// The 1D pattern of the per-axis phases, when the pattern has them.
    pub(crate) fn phase(&self) -> Option<ReducePattern> {
        match *self {
            Self::Xy(pattern) => Some(pattern),
            Self::Snake => None,
        }
    }

    /// Name as used in the paper's figures.
    pub fn name(&self) -> String {
        match self {
            Self::Xy(p) => format!("X-Y {}", p.name()),
            Self::Snake => "Snake".to_string(),
        }
    }

    /// The plan-side pattern corresponding to a model-side algorithm label.
    pub fn from_model(alg: wse_model::Reduce2dAlgorithm) -> Self {
        match alg {
            wse_model::Reduce2dAlgorithm::XyStar => Reduce2dPattern::Xy(ReducePattern::Star),
            wse_model::Reduce2dAlgorithm::XyChain => Reduce2dPattern::Xy(ReducePattern::Chain),
            wse_model::Reduce2dAlgorithm::XyTree => Reduce2dPattern::Xy(ReducePattern::Tree),
            wse_model::Reduce2dAlgorithm::XyTwoPhase => {
                Reduce2dPattern::Xy(ReducePattern::TwoPhase)
            }
            wse_model::Reduce2dAlgorithm::XyAutoGen => Reduce2dPattern::Xy(ReducePattern::AutoGen),
            wse_model::Reduce2dAlgorithm::Snake => Reduce2dPattern::Snake,
        }
    }

    /// The corresponding model-side algorithm label.
    pub fn model_algorithm(&self) -> wse_model::Reduce2dAlgorithm {
        match self {
            Self::Xy(ReducePattern::Star) => wse_model::Reduce2dAlgorithm::XyStar,
            Self::Xy(ReducePattern::Chain) => wse_model::Reduce2dAlgorithm::XyChain,
            Self::Xy(ReducePattern::Tree) => wse_model::Reduce2dAlgorithm::XyTree,
            Self::Xy(ReducePattern::TwoPhase) => wse_model::Reduce2dAlgorithm::XyTwoPhase,
            Self::Xy(ReducePattern::AutoGen) => wse_model::Reduce2dAlgorithm::XyAutoGen,
            Self::Snake => wse_model::Reduce2dAlgorithm::Snake,
        }
    }
}

/// Build a 2D Reduce plan over an `height × width` grid, rooted at `(0, 0)`.
///
/// The X-Y variant first reduces every row to its leftmost PE (colors 0/1),
/// then reduces the first column to the root (colors 2/3), exactly like the
/// paper's implementation; the Snake variant maps a single chain over the
/// whole grid.
pub fn reduce_2d_plan(
    pattern: Reduce2dPattern,
    dim: GridDim,
    vector_len: u32,
    op: ReduceOp,
    machine: &Machine,
) -> CollectivePlan {
    let solvers = AxisSolvers::new(pattern.phase(), dim);
    reduce_2d_plan_with(pattern, dim, vector_len, op, machine, &solvers)
}

/// [`reduce_2d_plan`] reading Auto-Gen trees from `solvers`.
pub(crate) fn reduce_2d_plan_with(
    pattern: Reduce2dPattern,
    dim: GridDim,
    vector_len: u32,
    op: ReduceOp,
    machine: &Machine,
    solvers: &AxisSolvers,
) -> CollectivePlan {
    let mut plan = CollectivePlan::new(
        format!("reduce-2d-{}-{}x{}-b{}", pattern.name(), dim.height, dim.width, vector_len),
        dim,
        Coord::new(0, 0),
        vector_len,
    );
    match pattern {
        Reduce2dPattern::Snake => {
            let path = LinePath::snake(dim);
            let tree = ReductionTree::chain(path.len());
            append_tree_reduce(&mut plan, &path, &tree, vector_len, op, x_colors(), false);
        }
        Reduce2dPattern::Xy(p1d) => {
            // X phase: reduce every row towards its leftmost PE. Rows are
            // disjoint, so they share the same pair of colors.
            if dim.width > 1 {
                let row_tree =
                    p1d.tree_with(dim.width as usize, vector_len, machine, solvers.row());
                for y in 0..dim.height {
                    let path = LinePath::row(dim, y);
                    append_tree_reduce(
                        &mut plan,
                        &path,
                        &row_tree,
                        vector_len,
                        op,
                        x_colors(),
                        false,
                    );
                }
            }
            // Y phase: reduce the first column towards the root.
            if dim.height > 1 {
                let col_tree =
                    p1d.tree_with(dim.height as usize, vector_len, machine, solvers.col());
                let path = LinePath::column(dim, 0);
                append_tree_reduce(&mut plan, &path, &col_tree, vector_len, op, y_colors(), false);
            }
        }
    }
    for c in dim.iter() {
        plan.add_data_pe(c);
    }
    plan.add_result_pe(Coord::new(0, 0));
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
        (0..p).map(|i| (0..b).map(|j| (i + 1) as f32 * 0.25 + j as f32 * 0.125).collect()).collect()
    }

    #[test]
    fn every_1d_pattern_reduces_correctly() {
        let p = 12u32;
        let b = 16u32;
        let data = inputs(p as usize, b as usize);
        let expected = expected_reduce(&data, ReduceOp::Sum);
        for pattern in ReducePattern::all() {
            let plan = reduce_1d_plan(pattern, p, b, ReduceOp::Sum, &machine());
            let outcome = run_plan(&plan, &data, &RunConfig::default())
                .unwrap_or_else(|e| panic!("{} failed: {e}", pattern.name()));
            assert_outputs_close(&outcome, &expected, 1e-4);
            assert!(plan.colors_used().len() <= 2);
        }
    }

    #[test]
    fn pattern_runtimes_are_ordered_as_the_model_predicts() {
        // For a long vector the chain beats the star; for a short vector on
        // many PEs the tree beats the chain (§5.7).
        let m = machine();
        let run = |pattern, p, b| {
            let plan = reduce_1d_plan(pattern, p, b, ReduceOp::Sum, &m);
            let data = inputs(p as usize, b as usize);
            run_plan(&plan, &data, &RunConfig::default()).unwrap().runtime_cycles()
        };
        let chain_long = run(ReducePattern::Chain, 8, 512);
        let star_long = run(ReducePattern::Star, 8, 512);
        assert!(chain_long < star_long, "chain {chain_long} vs star {star_long}");

        let tree_short = run(ReducePattern::Tree, 32, 4);
        let chain_short = run(ReducePattern::Chain, 32, 4);
        assert!(tree_short < chain_short, "tree {tree_short} vs chain {chain_short}");
    }

    #[test]
    fn autogen_is_never_slower_than_the_vendor_chain() {
        let m = machine();
        for (p, b) in [(16u32, 4u32), (16, 64), (32, 16), (24, 256)] {
            let data = inputs(p as usize, b as usize);
            let auto = run_plan(
                &reduce_1d_plan(ReducePattern::AutoGen, p, b, ReduceOp::Sum, &m),
                &data,
                &RunConfig::default(),
            )
            .unwrap()
            .runtime_cycles();
            let chain = run_plan(
                &reduce_1d_plan(ReducePattern::Chain, p, b, ReduceOp::Sum, &m),
                &data,
                &RunConfig::default(),
            )
            .unwrap()
            .runtime_cycles();
            // Allow a small constant slack for start-up effects.
            assert!(
                auto as f64 <= chain as f64 * 1.05 + 16.0,
                "p={p} b={b}: auto-gen {auto} vs chain {chain}"
            );
        }
    }

    #[test]
    fn xy_reduce_2d_is_correct_for_every_pattern() {
        let dim = GridDim::new(4, 3);
        let b = 8u32;
        let data = inputs(12, b as usize);
        let expected = expected_reduce(&data, ReduceOp::Sum);
        for p1d in [
            ReducePattern::Star,
            ReducePattern::Chain,
            ReducePattern::Tree,
            ReducePattern::TwoPhase,
            ReducePattern::AutoGen,
        ] {
            let plan = reduce_2d_plan(Reduce2dPattern::Xy(p1d), dim, b, ReduceOp::Sum, &machine());
            let outcome = run_plan(&plan, &data, &RunConfig::default())
                .unwrap_or_else(|e| panic!("X-Y {} failed: {e}", p1d.name()));
            assert_outputs_close(&outcome, &expected, 1e-4);
            assert!(plan.colors_used().len() <= 4);
        }
    }

    #[test]
    fn snake_reduce_2d_is_correct() {
        let dim = GridDim::new(5, 4);
        let b = 6u32;
        let data = inputs(20, b as usize);
        let expected = expected_reduce(&data, ReduceOp::Sum);
        let plan = reduce_2d_plan(Reduce2dPattern::Snake, dim, b, ReduceOp::Sum, &machine());
        let outcome = run_plan(&plan, &data, &RunConfig::default()).unwrap();
        assert_outputs_close(&outcome, &expected, 1e-4);
        assert!(plan.colors_used().len() <= 2);
    }

    #[test]
    fn two_phase_beats_chain_and_star_at_intermediate_sizes_on_the_simulator() {
        // The headline qualitative claim of §5.7 checked end-to-end on the
        // simulator: at P ≈ B the Two-Phase pattern wins against both the
        // vendor chain and the star.
        let m = machine();
        let p = 32u32;
        let b = 64u32;
        let data = inputs(p as usize, b as usize);
        let run = |pattern| {
            run_plan(
                &reduce_1d_plan(pattern, p, b, ReduceOp::Sum, &m),
                &data,
                &RunConfig::default(),
            )
            .unwrap()
            .runtime_cycles()
        };
        let two_phase = run(ReducePattern::TwoPhase);
        let chain = run(ReducePattern::Chain);
        let star = run(ReducePattern::Star);
        assert!(two_phase < chain, "two-phase {two_phase} vs chain {chain}");
        assert!(two_phase < star, "two-phase {two_phase} vs star {star}");
    }

    #[test]
    fn degenerate_grids_reduce_correctly() {
        let m = machine();
        // A single row grid through the 2D entry point.
        let dim = GridDim::new(6, 1);
        let b = 5;
        let data = inputs(6, b as usize);
        let expected = expected_reduce(&data, ReduceOp::Sum);
        let plan =
            reduce_2d_plan(Reduce2dPattern::Xy(ReducePattern::Chain), dim, b, ReduceOp::Sum, &m);
        let outcome = run_plan(&plan, &data, &RunConfig::default()).unwrap();
        assert_outputs_close(&outcome, &expected, 1e-4);
        // A single column.
        let dim = GridDim::new(1, 6);
        let plan =
            reduce_2d_plan(Reduce2dPattern::Xy(ReducePattern::TwoPhase), dim, b, ReduceOp::Sum, &m);
        let outcome = run_plan(&plan, &data, &RunConfig::default()).unwrap();
        assert_outputs_close(&outcome, &expected, 1e-4);
    }
}
