//! Auto-Gen Reduce: model-driven search over pre-order reduction trees (§5.5).
//!
//! The paper's Auto-Gen algorithm picks, for every combination of PE count
//! `P` and vector length `B`, a reduction tree that (approximately) minimises
//! the Eq. (1) runtime estimate, and then generates per-PE code realising
//! that tree. Every fixed pattern of §5 (Star, Chain, Tree, Two-Phase) is a
//! special case of such a tree, so the generated schedule matches or
//! outperforms them under the model.
//!
//! The search has two ingredients:
//!
//! * a dynamic program over `(P, depth budget D, contention budget C)` that
//!   computes the minimum-energy pre-order tree (`E_AutoGen` in the paper,
//!   computed here for a scalar and scaled by `B`), with backtracking to
//!   reconstruct the tree, and
//! * a family of parametric candidates (chain, star, two-phase with every
//!   group size) which covers the very deep, low-contention regime that the
//!   capped DP does not explore for large `P`. Because every parametric
//!   candidate is itself a valid pre-order tree, the final schedule is
//!   always feasible and still dominates the fixed patterns.
//!
//! # Cost of the DP
//!
//! The paper's recurrence scans every split of every state, `O(P²)` per
//! `(D, C)` row and `O(P⁴)` over all budgets. Here a row costs `O(P)`, so
//! the table costs `O(D·C·P)`: `O(P²)` under the default `O(√P)` budget
//! caps (a few milliseconds at `P = 256`), `O(P³)` with the caps lifted.
//!
//! A row is linear because it is a min-plus convolution of convex
//! sequences. With `E(d, c, ·)` the row of the state `(d, c)`,
//!
//! ```text
//! E(d, c, q) = min over i + j = q of  (E(d, c-1, i) + i) + E(d-1, c, j)
//! ```
//!
//! The base rows (`d = 0` or `c = 0`) are `{1: 0, else ∞}`, which is convex;
//! adding the linear term `i` keeps a sequence convex; and the min-plus
//! convolution of two convex sequences is convex, its slopes being the two
//! slope lists merged in order. The convolution defines a row from `q = 2`
//! on and entry 1 is the base case 0; the first slope is then 1 and every
//! later one at least 1 (one more PE costs at least one more hop), so the
//! row stays convex across that seam. By induction every row is convex, and
//! the crate's `minplus::ConvexMerge` produces it in one merge pass. Ties
//! between the two lists advance the second part, so the recorded split is
//! the smallest optimal `i`, the same one the scan over all splits keeps.

use crate::minplus::ConvexMerge;
use crate::{CostTerms, Machine};

/// Sentinel for infeasible DP states.
const INFEASIBLE: u32 = u32::MAX / 4;

/// A pre-order reduction tree over a row of PEs `0..p`, rooted at PE 0 (the
/// leftmost PE).
///
/// Every non-root PE sends its (partially reduced) vector to exactly one
/// other PE — its parent — after having received the vectors of all its
/// children, in order. Communication edges never partially overlap, which is
/// what allows the schedule to be realised with the mesh's ordered routing
/// configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionTree {
    /// `parent[i]` is the PE that PE `i` sends its partial result to;
    /// `None` exactly for the root (PE 0).
    pub parent: Vec<Option<usize>>,
    /// `children[i]` lists the PEs whose partial results PE `i` receives,
    /// in arrival order.
    pub children: Vec<Vec<usize>>,
}

impl ReductionTree {
    /// Build a tree from a parent array (children are ordered by increasing
    /// PE index, i.e. nearest child first).
    pub fn from_parents(parent: Vec<Option<usize>>) -> Self {
        let n = parent.len();
        let mut children = vec![Vec::new(); n];
        for (i, &p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[p].push(i);
            }
        }
        for c in &mut children {
            c.sort_unstable();
        }
        ReductionTree { parent, children }
    }

    /// The chain pattern: PE `i` receives from PE `i + 1` (§5.2).
    pub fn chain(p: usize) -> Self {
        assert!(p >= 1);
        let parent = (0..p).map(|i| if i == 0 { None } else { Some(i - 1) }).collect();
        Self::from_parents(parent)
    }

    /// The star pattern: every PE sends directly to the root (§5.1).
    pub fn star(p: usize) -> Self {
        assert!(p >= 1);
        let parent = (0..p).map(|i| if i == 0 { None } else { Some(0) }).collect();
        Self::from_parents(parent)
    }

    /// The binary-tree pattern of §5.3: `ceil(log2 P)` rounds of pairwise
    /// combining with doubling stride.
    pub fn binary_tree(p: usize) -> Self {
        assert!(p >= 1);
        let mut parent: Vec<Option<usize>> = vec![None; p];
        let mut stride = 1usize;
        while stride < p {
            let mut i = 0usize;
            while i + stride < p {
                if parent[i + stride].is_none() && i + stride != 0 {
                    parent[i + stride] = Some(i);
                }
                i += 2 * stride;
            }
            stride *= 2;
        }
        Self::from_parents(parent)
    }

    /// The Two-Phase pattern of §5.4 with group size `s`: chains inside
    /// groups of `s` consecutive PEs (groups assigned starting from the
    /// rightmost PE, so the root's group may be smaller), then a chain over
    /// the group leaders.
    pub fn two_phase(p: usize, s: usize) -> Self {
        assert!(p >= 1 && s >= 1);
        let mut starts = Vec::new();
        let mut hi = p;
        while hi > 0 {
            let lo = hi.saturating_sub(s);
            starts.push(lo);
            hi = lo;
        }
        starts.reverse(); // group start indices, leftmost group first
        let mut parent: Vec<Option<usize>> = vec![None; p];
        for (g, &lo) in starts.iter().enumerate() {
            let hi = if g + 1 < starts.len() { starts[g + 1] } else { p };
            for (i, slot) in parent.iter_mut().enumerate().take(hi).skip(lo + 1) {
                *slot = Some(i - 1);
            }
            if g > 0 {
                parent[lo] = Some(starts[g - 1]);
            }
        }
        Self::from_parents(parent)
    }

    /// Number of PEs covered by the tree.
    pub fn num_pes(&self) -> usize {
        self.parent.len()
    }

    /// Height of the tree: the depth term `D` of the schedule.
    pub fn height(&self) -> u64 {
        let n = self.num_pes();
        let mut depth = vec![u64::MAX; n];
        // PEs are processed right-to-left: every child has a larger index
        // than... not necessarily (children of the root may appear anywhere),
        // so compute depths iteratively from the root instead.
        let mut stack = vec![0usize];
        depth[0] = 0;
        let mut max = 0;
        while let Some(v) = stack.pop() {
            for &c in &self.children[v] {
                depth[c] = depth[v] + 1;
                max = max.max(depth[c]);
                stack.push(c);
            }
        }
        max
    }

    /// The largest number of messages any PE receives (the per-message
    /// contention; multiply by `B` for the wavelet contention).
    pub fn max_in_degree(&self) -> u64 {
        self.children.iter().map(|c| c.len() as u64).max().unwrap_or(0).max(1)
    }

    /// Total hop count of a scalar reduction over this tree (the energy term
    /// for `B = 1`).
    pub fn scalar_energy(&self) -> u64 {
        self.parent
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (i as i64 - p as i64).unsigned_abs()))
            .sum()
    }

    /// Check the structural invariants: a single tree rooted at PE 0 whose
    /// communication edges never partially overlap (Figure 6).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_pes();
        if n == 0 {
            return Err("empty tree".into());
        }
        if self.parent[0].is_some() {
            return Err("PE 0 must be the root".into());
        }
        // Every non-root PE has a parent and is reachable from the root.
        let mut reached = vec![false; n];
        let mut stack = vec![0usize];
        reached[0] = true;
        while let Some(v) = stack.pop() {
            for &c in &self.children[v] {
                if reached[c] {
                    return Err(format!("PE {c} reached twice"));
                }
                if self.parent[c] != Some(v) {
                    return Err(format!("child list of {v} inconsistent with parent of {c}"));
                }
                reached[c] = true;
                stack.push(c);
            }
        }
        if let Some(unreached) = reached.iter().position(|&r| !r) {
            return Err(format!("PE {unreached} is not part of the tree"));
        }
        // Non-overlap: the intervals spanned by any two edges are either
        // disjoint or nested.
        let edges: Vec<(usize, usize)> = self
            .parent
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (i.min(p), i.max(p))))
            .collect();
        for (a, &(lo1, hi1)) in edges.iter().enumerate() {
            for &(lo2, hi2) in edges.iter().skip(a + 1) {
                let disjoint = hi1 <= lo2 || hi2 <= lo1;
                let nested = (lo1 <= lo2 && hi2 <= hi1) || (lo2 <= lo1 && hi1 <= hi2);
                if !disjoint && !nested {
                    return Err(format!("edges ({lo1},{hi1}) and ({lo2},{hi2}) partially overlap"));
                }
            }
        }
        Ok(())
    }

    /// Spatial cost terms of executing this tree on vectors of `b` wavelets,
    /// following the Auto-Gen cost expression of §5.5 (distance and link
    /// count are those of the row).
    pub fn cost_terms(&self, b: u64) -> CostTerms {
        let p = self.num_pes() as u64;
        if p <= 1 {
            return CostTerms::new(0, 0, 0, 0, 0);
        }
        CostTerms::new(
            b * self.scalar_energy(),
            p - 1,
            self.height(),
            b * self.max_in_degree(),
            p - 1,
        )
    }

    /// Pre-order listing of the PEs (root first, then each child subtree in
    /// receive order). The paper stores the tree in exactly this order.
    pub fn preorder(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.num_pes());
        fn visit(t: &ReductionTree, v: usize, out: &mut Vec<usize>) {
            out.push(v);
            for &c in &t.children[v] {
                visit(t, c, out);
            }
        }
        visit(self, 0, &mut out);
        out
    }
}

/// How the best Auto-Gen schedule for a particular `(P, B)` was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// Reconstructed from the `(depth, contention)` DP state.
    DpTree {
        /// Depth budget of the chosen DP state.
        depth: u64,
        /// Contention budget of the chosen DP state.
        contention: u64,
    },
    /// The chain pattern.
    Chain,
    /// The star pattern.
    Star,
    /// A two-phase pattern with the given group size.
    TwoPhase {
        /// Group size of the first phase.
        group: u64,
    },
}

/// The outcome of the Auto-Gen search for one vector length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutogenCost {
    /// Predicted runtime in cycles under Eq. (1).
    pub cycles: f64,
    /// Which schedule achieves it.
    pub kind: ScheduleKind,
}

/// The Auto-Gen solver for a fixed row length `p`.
///
/// Construction runs the energy DP once (independent of the vector length);
/// [`AutogenSolver::best_cost`] and [`AutogenSolver::best_tree`] can then be
/// queried for any `B` cheaply.
#[derive(Debug, Clone)]
pub struct AutogenSolver {
    p: usize,
    d_cap: usize,
    c_cap: usize,
    /// `energy[(d * (c_cap+1) + c) * (p+1) + q]` = minimum scalar energy of a
    /// pre-order reduce over `q` PEs with depth ≤ d and contention ≤ c.
    energy: Vec<u32>,
    /// Split choice used for backtracking (the `i` of the recursion).
    choice: Vec<u16>,
}

impl AutogenSolver {
    /// Default caps for the DP budgets: generous for small `p`, on the order
    /// of `3·sqrt(p)` for large `p` (the deep/low-contention regime beyond
    /// the cap is covered by the parametric candidates).
    fn default_caps(p: usize) -> (usize, usize) {
        if p <= 2 {
            return (1.max(p.saturating_sub(1)), 1.max(p.saturating_sub(1)));
        }
        let sqrt = (p as f64).sqrt().ceil() as usize;
        let cap = (3 * sqrt + 10).min(p - 1);
        (cap, cap)
    }

    /// Build the solver for a row of `p` PEs using the default budget caps.
    pub fn new(p: u64) -> Self {
        let (d, c) = Self::default_caps(p as usize);
        Self::with_caps(p, d as u64, c as u64)
    }

    /// Build the solver with explicit depth and contention caps (both are
    /// clamped to `p - 1`).
    pub fn with_caps(p: u64, d_cap: u64, c_cap: u64) -> Self {
        assert!(p >= 1);
        let p = p as usize;
        let d_cap = (d_cap as usize).min(p.saturating_sub(1)).max(1);
        let c_cap = (c_cap as usize).min(p.saturating_sub(1)).max(1);
        let stride_q = p + 1;
        let states = (d_cap + 1) * (c_cap + 1) * stride_q;
        let mut energy = vec![INFEASIBLE; states];
        let mut choice = vec![0u16; states];
        let idx = |d: usize, c: usize, q: usize| (d * (c_cap + 1) + c) * stride_q + q;
        // Base case: a single PE needs no communication.
        for d in 0..=d_cap {
            for c in 0..=c_cap {
                energy[idx(d, c, 1)] = 0;
            }
        }
        for d in 1..=d_cap {
            for c in 1..=c_cap {
                // First part: i PEs including the root, depth d, contention
                // c - 1 (the root will receive one more message). Second
                // part: q - i PEs whose result is the last message, depth
                // d - 1, contention c. The last message travels i hops.
                let (first, second, row) = (idx(d, c - 1, 0), idx(d - 1, c, 0), idx(d, c, 0));
                let mut merge = ConvexMerge::new();
                for q in 2..=p {
                    let e = merge.next(
                        |i| u64::from(energy[first + i]) + i as u64,
                        |j| u64::from(energy[second + j]),
                    );
                    if e >= u64::from(INFEASIBLE) {
                        // Rows are finite on a prefix only.
                        break;
                    }
                    energy[row + q] = e as u32;
                    choice[row + q] = merge.split() as u16;
                }
            }
        }
        AutogenSolver { p, d_cap, c_cap, energy, choice }
    }

    /// Number of PEs the solver was built for.
    pub fn pes(&self) -> u64 {
        self.p as u64
    }

    /// Depth cap used by the DP.
    pub fn depth_cap(&self) -> u64 {
        self.d_cap as u64
    }

    /// Contention cap used by the DP.
    pub fn contention_cap(&self) -> u64 {
        self.c_cap as u64
    }

    fn idx(&self, d: usize, c: usize, q: usize) -> usize {
        (d * (self.c_cap + 1) + c) * (self.p + 1) + q
    }

    /// Minimum scalar energy of a pre-order Reduce over all `p` PEs with
    /// depth ≤ `d` and contention ≤ `c` (messages, not wavelets), or `None`
    /// if no such tree exists within the caps.
    pub fn dp_energy(&self, d: u64, c: u64) -> Option<u64> {
        if self.p == 1 {
            return Some(0);
        }
        let d = d.min(self.d_cap as u64) as usize;
        let c = c.min(self.c_cap as u64) as usize;
        let e = self.energy[self.idx(d, c, self.p)];
        if e >= INFEASIBLE {
            None
        } else {
            Some(e as u64)
        }
    }

    /// Reconstruct the minimum-energy tree for the DP state `(d, c)`.
    /// Panics if the state is infeasible.
    pub fn dp_tree(&self, d: u64, c: u64) -> ReductionTree {
        assert!(self.dp_energy(d, c).is_some(), "no feasible tree for depth {d}, contention {c}");
        let mut parent: Vec<Option<usize>> = vec![None; self.p];
        let mut order: Vec<Vec<usize>> = vec![Vec::new(); self.p];
        self.rebuild(
            0,
            self.p,
            d.min(self.d_cap as u64) as usize,
            c.min(self.c_cap as u64) as usize,
            &mut parent,
            &mut order,
        );
        let mut tree = ReductionTree { parent, children: order };
        // Ensure children are stored in receive order (they already are by
        // construction of `rebuild`, which appends the last-received child
        // after the earlier ones), but normalise empty allocations.
        for c in &mut tree.children {
            c.shrink_to_fit();
        }
        tree
    }

    fn rebuild(
        &self,
        lo: usize,
        hi: usize,
        d: usize,
        c: usize,
        parent: &mut Vec<Option<usize>>,
        children: &mut Vec<Vec<usize>>,
    ) {
        let q = hi - lo;
        if q <= 1 {
            return;
        }
        let i = self.choice[self.idx(d, c, q)] as usize;
        debug_assert!(i >= 1 && i < q, "invalid split for q={q} d={d} c={c}");
        // Earlier receives of the root: the first i PEs, contention budget c-1.
        self.rebuild(lo, lo + i, d, c - 1, parent, children);
        // The last message: the segment [lo + i, hi) rooted at lo + i.
        self.rebuild(lo + i, hi, d - 1, c, parent, children);
        parent[lo + i] = Some(lo);
        children[lo].push(lo + i);
    }

    /// Candidate group sizes for the parametric two-phase family.
    fn group_candidates(p: u64) -> Vec<u64> {
        let mut out = vec![];
        let mut s = 2u64;
        while s < p {
            out.push(s);
            // Geometric-ish progression keeps the candidate count ~O(log P)
            // while still covering the interesting range densely.
            s = (s + 1).max(s * 5 / 4);
        }
        let sq = (p as f64).sqrt().round() as u64;
        for extra in [sq.saturating_sub(1), sq, sq + 1] {
            if extra >= 2 && extra < p {
                out.push(extra);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The best Auto-Gen schedule cost for vectors of `b` wavelets.
    pub fn best_cost(&self, b: u64, machine: &Machine) -> AutogenCost {
        self.search(b, machine).0
    }

    /// The reduction tree realising [`AutogenSolver::best_cost`].
    pub fn best_tree(&self, b: u64, machine: &Machine) -> ReductionTree {
        let (cost, dp_tree) = self.search(b, machine);
        match cost.kind {
            ScheduleKind::Chain => ReductionTree::chain(self.p),
            ScheduleKind::Star => ReductionTree::star(self.p),
            ScheduleKind::TwoPhase { group } => ReductionTree::two_phase(self.p, group as usize),
            ScheduleKind::DpTree { .. } => dp_tree.expect("search reconstructs a winning DP tree"),
        }
    }

    /// One pass over every candidate: the cheapest schedule for vectors of
    /// `b` wavelets and, when a DP state wins, its reconstructed tree (the
    /// parametric winners are rebuilt from their kind).
    fn search(&self, b: u64, machine: &Machine) -> (AutogenCost, Option<ReductionTree>) {
        assert!(b >= 1);
        if self.p <= 1 {
            return (AutogenCost { cycles: 0.0, kind: ScheduleKind::Chain }, None);
        }
        let p = self.p as u64;
        let pf = p as f64;
        let bf = b as f64;
        let overhead = machine.depth_overhead() as f64;
        let eval = |energy: u64, depth: u64, contention: u64| -> f64 {
            (contention as f64 * bf).max(energy as f64 * bf / (pf - 1.0) + (pf - 1.0))
                + depth as f64 * overhead
        };

        let mut best = AutogenCost { cycles: eval(p - 1, p - 1, 1), kind: ScheduleKind::Chain };
        let star = eval(p * (p - 1) / 2, 1, p - 1);
        if star < best.cycles {
            best = AutogenCost { cycles: star, kind: ScheduleKind::Star };
        }
        for s in Self::group_candidates(p) {
            let (energy, height, in_degree) = two_phase_stats(p, s);
            let c = eval(energy, height, in_degree);
            if c < best.cycles {
                best = AutogenCost { cycles: c, kind: ScheduleKind::TwoPhase { group: s } };
            }
        }
        for d in 1..=self.d_cap {
            for c in 1..=self.c_cap {
                let e = self.energy[self.idx(d, c, self.p)];
                if e >= INFEASIBLE {
                    continue;
                }
                let cost = eval(e as u64, d as u64, c as u64);
                if cost < best.cycles {
                    best = AutogenCost {
                        cycles: cost,
                        kind: ScheduleKind::DpTree { depth: d as u64, contention: c as u64 },
                    };
                }
            }
        }
        // The DP evaluation charges the full (d, c) budget; the reconstructed
        // tree may be shallower or less contended, so refine the estimate
        // with the realised tree statistics.
        let ScheduleKind::DpTree { depth, contention } = best.kind else {
            return (best, None);
        };
        let tree = self.dp_tree(depth, contention);
        let refined = eval(tree.scalar_energy(), tree.height(), tree.max_in_degree());
        best.cycles = best.cycles.min(refined);
        (best, Some(tree))
    }
}

/// Scalar energy, height and largest in-degree of
/// [`ReductionTree::two_phase`]`(p, s)` for `1 <= s < p`, without building
/// the tree.
fn two_phase_stats(p: u64, s: u64) -> (u64, u64, u64) {
    debug_assert!(1 <= s && s < p);
    let groups = p.div_ceil(s);
    // Groups are cut from the right, so only the root's may be short.
    let root_group = p - (groups - 1) * s;
    // `p - groups` unit hops inside the groups; the leader chain spans
    // everything left of the last group, `p - s` hops.
    let energy = (p - groups) + (p - s);
    // The deepest PE is the tail of the last group.
    let height = (groups - 1) + (s - 1);
    // A leader hears its own group's chain and the next leader.
    let two_senders = (s >= 2 && groups >= 3) || root_group >= 2;
    (energy, height, if two_senders { 2 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{costs_1d, lower_bound::LowerBound1d, Machine};

    fn m() -> Machine {
        Machine::wse2()
    }

    /// The recurrence as the paper states it: every entry scans every split
    /// `i` and keeps the first (smallest) minimiser. `with_caps` must fill
    /// exactly these tables.
    fn scan_every_split(p: usize, d_cap: usize, c_cap: usize) -> (Vec<u32>, Vec<u16>) {
        let stride_q = p + 1;
        let states = (d_cap + 1) * (c_cap + 1) * stride_q;
        let mut energy = vec![INFEASIBLE; states];
        let mut choice = vec![0u16; states];
        let idx = |d: usize, c: usize, q: usize| (d * (c_cap + 1) + c) * stride_q + q;
        for d in 0..=d_cap {
            for c in 0..=c_cap {
                energy[idx(d, c, 1)] = 0;
            }
        }
        for d in 1..=d_cap {
            for c in 1..=c_cap {
                for q in 2..=p {
                    let mut best = INFEASIBLE;
                    let mut best_i = 0u16;
                    for i in 1..q {
                        let a = energy[idx(d, c - 1, i)];
                        let b = energy[idx(d - 1, c, q - i)];
                        if a >= INFEASIBLE || b >= INFEASIBLE {
                            continue;
                        }
                        let cand = a + b + i as u32;
                        if cand < best {
                            best = cand;
                            best_i = i as u16;
                        }
                    }
                    energy[idx(d, c, q)] = best;
                    choice[idx(d, c, q)] = best_i;
                }
            }
        }
        (energy, choice)
    }

    fn assert_tables_match_the_scan(solver: &AutogenSolver) {
        let (p, d_cap, c_cap) = (solver.p, solver.d_cap, solver.c_cap);
        let (energy, choice) = scan_every_split(p, d_cap, c_cap);
        assert!(solver.energy == energy, "energy differs at p={p} caps=({d_cap},{c_cap})");
        // Energies can agree while splits differ (a tie broken the other
        // way), and a different split is a different tree and plan.
        assert!(solver.choice == choice, "choice differs at p={p} caps=({d_cap},{c_cap})");
    }

    #[test]
    fn merged_rows_equal_the_split_scan_tables() {
        for p in 2..=96u64 {
            assert_tables_match_the_scan(&AutogenSolver::new(p));
            if p <= 48 {
                assert_tables_match_the_scan(&AutogenSolver::with_caps(p, p - 1, p - 1));
            }
        }
        for p in [128u64, 256] {
            assert_tables_match_the_scan(&AutogenSolver::new(p));
        }
    }

    #[test]
    fn fixed_pattern_trees_have_expected_shape() {
        let chain = ReductionTree::chain(8);
        assert_eq!(chain.height(), 7);
        assert_eq!(chain.max_in_degree(), 1);
        assert_eq!(chain.scalar_energy(), 7);
        chain.validate().unwrap();

        let star = ReductionTree::star(8);
        assert_eq!(star.height(), 1);
        assert_eq!(star.max_in_degree(), 7);
        assert_eq!(star.scalar_energy(), 28);
        star.validate().unwrap();

        let tree = ReductionTree::binary_tree(8);
        assert_eq!(tree.height(), 3);
        tree.validate().unwrap();
        assert_eq!(tree.scalar_energy(), 4 + 2 * 2 + 4);

        let tp = ReductionTree::two_phase(16, 4);
        assert_eq!(tp.height(), 3 + 3);
        assert_eq!(tp.max_in_degree(), 2);
        tp.validate().unwrap();
    }

    #[test]
    fn two_phase_tree_assigns_groups_from_the_end() {
        // 10 PEs with group size 4: groups are [0,1], [2..6), [6..10) — the
        // leftmost (root) group is the smaller one.
        let t = ReductionTree::two_phase(10, 4);
        t.validate().unwrap();
        assert_eq!(t.parent[1], Some(0));
        assert_eq!(t.parent[2], Some(0)); // leader of the middle group
        assert_eq!(t.parent[6], Some(2)); // leader of the last group
        assert_eq!(t.parent[5], Some(4));
        assert_eq!(t.height(), (4 - 1) + 2);
    }

    #[test]
    fn two_phase_stats_equal_the_built_tree() {
        for p in 2..=64usize {
            for s in 1..p {
                let tree = ReductionTree::two_phase(p, s);
                assert_eq!(
                    two_phase_stats(p as u64, s as u64),
                    (tree.scalar_energy(), tree.height(), tree.max_in_degree()),
                    "p={p} s={s}"
                );
            }
        }
    }

    #[test]
    fn preorder_lists_every_pe_once_root_first() {
        for tree in [
            ReductionTree::chain(9),
            ReductionTree::star(9),
            ReductionTree::two_phase(9, 3),
            ReductionTree::binary_tree(9),
        ] {
            let order = tree.preorder();
            assert_eq!(order.len(), 9);
            assert_eq!(order[0], 0);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..9).collect::<Vec<_>>());
        }
    }

    #[test]
    fn validate_rejects_overlapping_edges() {
        // PE 3 -> PE 0 and PE 4 -> PE 2 partially overlap (Figure 6's
        // counter-example).
        let parent = vec![None, Some(0), Some(1), Some(0), Some(2)];
        let tree = ReductionTree::from_parents(parent);
        assert!(tree.validate().is_err());
    }

    #[test]
    fn validate_rejects_cycles_and_forests() {
        let detached = ReductionTree::from_parents(vec![None, Some(2), Some(1), Some(0)]);
        assert!(detached.validate().is_err());
    }

    #[test]
    fn dp_energy_matches_known_small_cases() {
        let solver = AutogenSolver::with_caps(4, 3, 3);
        // Depth 3, contention 1: only the chain is possible -> energy 3.
        assert_eq!(solver.dp_energy(3, 1), Some(3));
        // Depth 1: every PE sends to the root directly -> energy 1+2+3 = 6.
        assert_eq!(solver.dp_energy(1, 3), Some(6));
        // Depth 1, contention 1: impossible for 4 PEs.
        assert_eq!(solver.dp_energy(1, 1), None);
        // Depth 2, contention 2: e.g. 1->0, 3->2, 2->0 gives energy 1+1+2 = 4.
        assert_eq!(solver.dp_energy(2, 2), Some(4));
    }

    #[test]
    fn dp_tree_reconstruction_matches_dp_energy() {
        let p = 24u64;
        let solver = AutogenSolver::new(p);
        for d in 1..=solver.depth_cap() {
            for c in 1..=solver.contention_cap() {
                if let Some(e) = solver.dp_energy(d, c) {
                    let tree = solver.dp_tree(d, c);
                    tree.validate().unwrap();
                    assert_eq!(tree.num_pes(), p as usize);
                    assert_eq!(tree.scalar_energy(), e, "tree energy mismatch at d={d} c={c}");
                    assert!(tree.height() <= d, "height exceeds budget at d={d} c={c}");
                    assert!(tree.max_in_degree() <= c, "in-degree exceeds budget at d={d} c={c}");
                }
            }
        }
    }

    #[test]
    fn autogen_matches_or_beats_every_fixed_pattern() {
        let mach = m();
        for p in [4u64, 8, 16, 32, 64, 128, 256, 512] {
            let solver = AutogenSolver::new(p);
            for b in [1u64, 4, 16, 64, 256, 1024, 8192] {
                let auto = solver.best_cost(b, &mach).cycles;
                let fixed = [
                    costs_1d::star(p, b).predict(&mach),
                    costs_1d::chain(p, b).predict(&mach),
                    costs_1d::tree(p, b).predict(&mach),
                    costs_1d::two_phase_default(p, b).predict(&mach),
                ];
                for (i, f) in fixed.iter().enumerate() {
                    assert!(
                        auto <= f + 1e-6,
                        "p={p} b={b}: auto-gen {auto} worse than fixed pattern {i} ({f})"
                    );
                }
            }
        }
    }

    #[test]
    fn autogen_stays_above_the_lower_bound() {
        let mach = m();
        for p in [4u64, 8, 16, 32, 64, 128, 256, 512] {
            let solver = AutogenSolver::new(p);
            let lb = LowerBound1d::new(p);
            for b in [1u64, 8, 128, 1024, 8192] {
                let auto = solver.best_cost(b, &mach).cycles;
                let bound = lb.t_star(b, &mach);
                assert!(
                    auto + 1e-6 >= bound,
                    "p={p} b={b}: auto-gen {auto} below the lower bound {bound}"
                );
            }
        }
    }

    #[test]
    fn autogen_is_near_optimal_for_a_row() {
        // Figure 1e: the Auto-Gen schedule stays within 1.4x of the lower
        // bound across the sweep, up to the paper's 512-PE rows.
        let mach = m();
        for p in [64u64, 128, 256, 512] {
            let solver = AutogenSolver::new(p);
            let lb = LowerBound1d::new(p);
            for b in [1u64, 2, 8, 32, 128, 512, 2048, 8192] {
                let auto = solver.best_cost(b, &mach).cycles;
                let bound = lb.t_star(b, &mach);
                let ratio = auto / bound;
                assert!(
                    ratio <= 1.45,
                    "p={p} b={b}: optimality ratio {ratio:.3} exceeds the paper's 1.4"
                );
            }
        }
    }

    #[test]
    fn best_tree_realises_best_cost() {
        let mach = m();
        let p = 32u64;
        let solver = AutogenSolver::new(p);
        for b in [1u64, 16, 256, 4096] {
            let cost = solver.best_cost(b, &mach);
            let tree = solver.best_tree(b, &mach);
            tree.validate().unwrap();
            let realised = {
                let t = tree.cost_terms(b);
                // Evaluate with the Auto-Gen cost expression (same as eval in
                // best_cost): contention vs energy/(P-1) + P-1 plus depth.
                (t.contention).max(t.energy / (p as f64 - 1.0) + (p as f64 - 1.0))
                    + t.depth * mach.depth_overhead() as f64
            };
            assert!(
                (realised - cost.cycles).abs() < 1e-6,
                "b={b}: realised {realised} vs predicted {}",
                cost.cycles
            );
        }
    }

    #[test]
    fn scalar_reduce_prefers_low_depth() {
        // For B = 1 the depth overhead dominates, so the chosen schedule must
        // have a small height; for huge B the chain (depth P-1) wins.
        let mach = m();
        let p = 64u64;
        let solver = AutogenSolver::new(p);
        let small = solver.best_tree(1, &mach);
        assert!(small.height() <= 8);
        let large = solver.best_tree(16384, &mach);
        assert!(large.height() >= 32);
    }

    #[test]
    fn single_pe_solver_is_trivial() {
        let solver = AutogenSolver::new(1);
        let mach = m();
        assert_eq!(solver.best_cost(128, &mach).cycles, 0.0);
    }
}
