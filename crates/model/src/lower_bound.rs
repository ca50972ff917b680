//! Lower bounds for the runtime of Reduce (§5.6 and §7.5 of the paper).
//!
//! The 1D bound follows Lemma 5.5: for every depth budget `D` the minimum
//! energy `E*(P, 1, D)` needed to reduce a scalar over `P` consecutive PEs is
//! bounded from below by a recursion over the last message the root receives.
//! The bound on the runtime then minimises over all depths:
//!
//! ```text
//! T*(P, B) >= min_D  B·E*(P, 1, D)/(P - 1) + (P - 1) + D·(2·T_R + 1)
//! ```
//!
//! The 2D bound (Lemma 7.2) only uses simple counting arguments and is
//! correspondingly loose; the paper points this out as an open problem.

use crate::minplus::ConvexMerge;
use crate::Machine;

/// Sentinel for infeasible dynamic-programming states.
const INFEASIBLE: u64 = u64::MAX / 4;

/// Lower bound on the minimum energy and runtime of a 1D Reduce over `p`
/// consecutive PEs, for every depth budget.
///
/// Construction is `O(P²)` (well under a millisecond at `P = 256`);
/// evaluating [`LowerBound1d::t_star`] afterwards is `O(P)` per vector
/// length, so the table is still worth reusing across a sweep over `B`.
///
/// The recurrence charges the last message `min(i, j + 1)` hops for a split
/// into `i` and `j` PEs, so a row of depth `d` is the smaller of two
/// min-plus convolutions with the row of depth `d - 1`: `(L_d + i) ⊕ L_{d-1}`
/// and `L_d ⊕ (L_{d-1} + j + 1)`. Each is produced by one pass of the
/// crate's `minplus::ConvexMerge`, reading only entries of `L_d` that are
/// already written. A merge step is exact when the rows it reads are
/// convex. Unlike Auto-Gen's rows these are a minimum of two convolutions,
/// which need not be convex in general, so the builder checks the slope of
/// every entry it writes and panics rather than return a wrong bound; every
/// row is convex for all `P` up to 32768, the largest size checked.
#[derive(Debug, Clone)]
pub struct LowerBound1d {
    p: u64,
    /// `scalar_energy[d]` = lower bound on `E*(p, 1, d)` for depth budget `d`
    /// (index 0 is unused / infeasible for `p >= 2`).
    scalar_energy: Vec<u64>,
}

impl LowerBound1d {
    /// Build the lower-bound table for a row of `p` PEs.
    pub fn new(p: u64) -> Self {
        assert!(p >= 1, "lower bound requires at least one PE");
        let p_us = p as usize;
        if p == 1 {
            return LowerBound1d { p, scalar_energy: vec![0] };
        }
        let max_d = p_us - 1;
        // e[d][q] = lower bound on the energy to reduce a scalar over q
        // consecutive PEs with depth at most d.
        let mut prev = vec![INFEASIBLE; p_us + 1]; // d = 0
        prev[1] = 0;
        let mut per_depth = vec![INFEASIBLE; max_d + 1];
        let mut cur = vec![0u64; p_us + 1];
        for (d, depth_slot) in per_depth.iter_mut().enumerate().skip(1) {
            cur[0] = INFEASIBLE;
            cur[1] = 0;
            // First part: i PEs including the root, still depth d. Second
            // part: j = q - i PEs whose result arrives last, depth d - 1.
            // The last message costs min(i, j + 1), so the row is the
            // smaller of two convolutions, one charging i and one j + 1.
            let mut charge_first = ConvexMerge::new();
            let mut charge_second = ConvexMerge::new();
            for q in 2..=p_us {
                let a = charge_first.next(|i| cur[i] + i as u64, |j| prev[j]);
                let b = charge_second.next(|i| cur[i], |j| prev[j] + j as u64 + 1);
                cur[q] = a.min(b);
                // The next merge step is exact only over convex rows.
                assert!(
                    q < 3 || cur[q] + cur[q - 2] >= 2 * cur[q - 1],
                    "Lemma 5.5 row d={d} is not convex at q={q}"
                );
            }
            *depth_slot = cur[p_us];
            std::mem::swap(&mut prev, &mut cur);
        }
        LowerBound1d { p, scalar_energy: per_depth }
    }

    /// Number of PEs this table was built for.
    pub fn pes(&self) -> u64 {
        self.p
    }

    /// Lower bound on the energy `E*(p, 1, d)` of a scalar Reduce with depth
    /// at most `d`. Returns `None` if no Reduce with that depth exists.
    pub fn scalar_energy(&self, d: u64) -> Option<u64> {
        if self.p == 1 {
            return Some(0);
        }
        let v = *self.scalar_energy.get(d as usize)?;
        if v >= INFEASIBLE {
            None
        } else {
            Some(v)
        }
    }

    /// The runtime lower bound `T*(P, B)` in cycles (§5.6).
    pub fn t_star(&self, b: u64, machine: &Machine) -> f64 {
        if self.p == 1 {
            return 0.0;
        }
        let p = self.p as f64;
        let b = b as f64;
        let overhead = machine.depth_overhead() as f64;
        let mut best = f64::INFINITY;
        for (d, &e) in self.scalar_energy.iter().enumerate() {
            if e >= INFEASIBLE {
                continue;
            }
            let t = b * e as f64 / (p - 1.0) + (p - 1.0) + d as f64 * overhead;
            if t < best {
                best = t;
            }
        }
        best
    }
}

/// Convenience wrapper: the 1D Reduce lower bound `T*(p, b)` in cycles.
///
/// Builds the whole DP table; for sweeps over `b`, construct a
/// [`LowerBound1d`] once and call [`LowerBound1d::t_star`] repeatedly.
pub fn t_star_1d(p: u64, b: u64, machine: &Machine) -> f64 {
    LowerBound1d::new(p).t_star(b, machine)
}

/// Counting lower bound for a 1D ReduceScatter over `p` PEs: every PE must
/// absorb the other `p - 1` contributions to its `b/p`-wavelet shard
/// through its single ramp, and some wavelet travels at least `p - 1` hops.
pub fn t_star_reduce_scatter_1d(p: u64, b: u64, _machine: &Machine) -> f64 {
    shard_exchange_bound(p, b)
}

/// Counting lower bound for a 1D AllGather over `p` PEs: every PE must
/// receive the `p - 1` foreign shards (`(p-1)·b/p` wavelets) through its
/// ramp, and the farthest shard travels `p - 1` hops.
pub fn t_star_allgather_1d(p: u64, b: u64, _machine: &Machine) -> f64 {
    shard_exchange_bound(p, b)
}

/// Counting lower bound for a 1D Gather to a root: the root must drain
/// `(p-1)·b/p` foreign wavelets through its ramp.
pub fn t_star_gather_1d(p: u64, b: u64, _machine: &Machine) -> f64 {
    shard_exchange_bound(p, b)
}

/// Counting lower bound for a 1D Scatter from a root: the root must inject
/// `(p-1)·b/p` wavelets through its ramp.
pub fn t_star_scatter_1d(p: u64, b: u64, _machine: &Machine) -> f64 {
    shard_exchange_bound(p, b)
}

/// Bisection lower bound for a 1D All-to-All over `p` PEs: the
/// `floor(p/2)·ceil(p/2)` chunks headed across the central cut share one
/// link per direction.
pub fn t_star_all_to_all_1d(p: u64, b: u64, _machine: &Machine) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let chunk = b as f64 / p as f64;
    let crossing = (p / 2) as f64 * p.div_ceil(2) as f64 * chunk;
    crossing.max((p - 1) as f64)
}

/// Shared counting bound: `max((p-1)·b/p, p-1)` — the busiest ramp moves
/// the `p - 1` foreign shards, and the farthest wavelet crosses the whole
/// row. Unlike the Reduce bound the two terms take a `max`, not a sum, and
/// no ramp-latency constant is added: pure data movement pipelines the
/// drain behind the travel (the line Gather in fact finishes in exactly
/// `(p-1)·b/p` steady-state cycles once the pipe is full), and the
/// simulator's fencepost accounting starts the clock at the first
/// injection, so only the hop count itself is unconditionally unavoidable.
fn shard_exchange_bound(p: u64, b: u64) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let foreign = (p - 1) as f64 * b as f64 / p as f64;
    foreign.max((p - 1) as f64)
}

/// The simple 2D Reduce lower bound of Lemma 7.2 for an `m × n` grid:
///
/// `T*(M, N) >= max(B, B/8 + M + N - 1) + 2·T_R + 1`.
pub fn t_star_2d(m: u64, n: u64, b: u64, machine: &Machine) -> f64 {
    if m * n <= 1 {
        return 0.0;
    }
    let b = b as f64;
    let steady = b.max(b / 8.0 + (m + n - 1) as f64);
    steady + machine.depth_overhead() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{autogen::ReductionTree, costs_1d, Machine};

    fn m() -> Machine {
        Machine::wse2()
    }

    /// Lemma 5.5's recurrence as stated: every entry scans every split.
    /// Row `d` of the table does not depend on the row length, so one call
    /// yields `e[d][q]` for every `d < p` and `q <= p`.
    fn scan_every_split(p: usize) -> Vec<Vec<u64>> {
        let mut rows = vec![vec![INFEASIBLE; p + 1]];
        rows[0][1] = 0;
        for d in 1..p {
            let mut cur = vec![INFEASIBLE; p + 1];
            cur[1] = 0;
            for q in 2..=p {
                for i in 1..q {
                    let (a, b) = (cur[i], rows[d - 1][q - i]);
                    if a < INFEASIBLE && b < INFEASIBLE {
                        cur[q] = cur[q].min(a + b + i.min(q - i + 1) as u64);
                    }
                }
            }
            rows.push(cur);
        }
        rows
    }

    #[test]
    fn merged_rows_equal_the_split_scan_table() {
        let rows = scan_every_split(757);
        for p in (2..=256).chain([384, 512, 757]) {
            let lb = LowerBound1d::new(p as u64);
            let scanned: Vec<u64> = rows[..p].iter().map(|row| row[p]).collect();
            assert!(lb.scalar_energy == scanned, "scalar_energy differs at p={p}");
        }
    }

    #[test]
    fn two_pes_scalar_energy_is_one() {
        let lb = LowerBound1d::new(2);
        assert_eq!(lb.scalar_energy(1), Some(1));
        assert_eq!(lb.scalar_energy(0), None);
    }

    #[test]
    fn single_pe_bound_is_zero() {
        let lb = LowerBound1d::new(1);
        assert_eq!(lb.t_star(1000, &m()), 0.0);
    }

    #[test]
    fn scalar_energy_is_monotone_in_depth() {
        // Allowing more depth can only reduce the required energy.
        let lb = LowerBound1d::new(33);
        let mut prev = u64::MAX;
        for d in 1..33 {
            let e = lb.scalar_energy(d).expect("feasible depth");
            assert!(e <= prev, "energy increased from depth {} to {}", d - 1, d);
            prev = e;
        }
    }

    #[test]
    fn chain_energy_matches_bound_at_full_depth() {
        // With depth P-1 the chain achieves energy exactly P-1, and the lower
        // bound must not exceed that.
        for p in [4u64, 8, 17, 32] {
            let lb = LowerBound1d::new(p);
            let e = lb.scalar_energy(p - 1).unwrap();
            assert!(e < p, "p={p}: bound {e} exceeds chain energy {}", p - 1);
            assert!(e >= 1);
        }
    }

    #[test]
    fn star_energy_respects_depth_one_bound() {
        // With depth 1 every PE must send directly to the root; the star's
        // energy P(P-1)/2 must be at least the bound at depth 1.
        for p in [4u64, 8, 16, 31] {
            let lb = LowerBound1d::new(p);
            let bound = lb.scalar_energy(1).unwrap();
            let star = p * (p - 1) / 2;
            assert!(bound <= star, "p={p}: bound {bound} exceeds star energy {star}");
        }
    }

    #[test]
    fn t_star_is_below_every_fixed_algorithm() {
        let mach = m();
        for p in [4u64, 8, 16, 32, 64, 128, 256, 512] {
            let lb = LowerBound1d::new(p);
            for b in [1u64, 4, 64, 256, 2048, 8192] {
                let t = lb.t_star(b, &mach);
                let algorithms = [
                    costs_1d::star(p, b).predict(&mach),
                    costs_1d::chain(p, b).predict(&mach),
                    costs_1d::tree(p, b).predict(&mach),
                    costs_1d::two_phase_default(p, b).predict(&mach),
                ];
                for (i, &a) in algorithms.iter().enumerate() {
                    assert!(
                        t <= a + 1e-6,
                        "p={p} b={b}: lower bound {t} exceeds algorithm {i} cost {a}"
                    );
                }
            }
        }
    }

    #[test]
    fn t_star_is_below_arbitrary_trees() {
        // The bound must hold for any pre-order reduction tree, not only the
        // named algorithms.
        let mach = m();
        let p = 24u64;
        let lb = LowerBound1d::new(p);
        let trees = [
            ReductionTree::chain(p as usize),
            ReductionTree::star(p as usize),
            ReductionTree::two_phase(p as usize, 4),
            ReductionTree::two_phase(p as usize, 6),
            ReductionTree::two_phase(p as usize, 12),
        ];
        for b in [1u64, 16, 256, 4096] {
            let bound = lb.t_star(b, &mach);
            for tree in &trees {
                let cost = tree.cost_terms(b).predict(&mach);
                assert!(bound <= cost + 1e-6, "b={b}: bound {bound} exceeds tree cost {cost}");
            }
        }
    }

    #[test]
    fn t_star_grows_with_vector_length_and_pe_count() {
        let mach = m();
        let lb64 = LowerBound1d::new(64);
        assert!(lb64.t_star(1024, &mach) > lb64.t_star(16, &mach));
        let lb8 = LowerBound1d::new(8);
        assert!(lb64.t_star(256, &mach) > lb8.t_star(256, &mach));
    }

    #[test]
    fn suite_bounds_stay_below_their_algorithms() {
        let mach = m();
        for p in [2u64, 3, 4, 8, 64] {
            for b in [p, 8 * p, 512 * p] {
                assert!(
                    t_star_reduce_scatter_1d(p, b, &mach)
                        <= costs_1d::ring_reduce_scatter(p, b).predict(&mach) + 1e-6,
                    "reduce-scatter p={p} b={b}"
                );
                assert!(
                    t_star_allgather_1d(p, b, &mach)
                        <= costs_1d::ring_allgather(p, b).predict(&mach) + 1e-6,
                    "allgather p={p} b={b}"
                );
                assert!(
                    t_star_gather_1d(p, b, &mach)
                        <= costs_1d::line_gather(p, b).predict(&mach) + 1e-6,
                    "gather p={p} b={b}"
                );
                assert!(
                    t_star_scatter_1d(p, b, &mach)
                        <= costs_1d::line_scatter(p, b).predict(&mach) + 1e-6,
                    "scatter p={p} b={b}"
                );
                assert!(
                    t_star_all_to_all_1d(p, b, &mach)
                        <= costs_1d::rotate_all_to_all(p, b).predict(&mach) + 1e-6,
                    "all-to-all p={p} b={b}"
                );
            }
        }
    }

    #[test]
    fn all_to_all_bound_exceeds_the_shard_exchange_bound() {
        // Bisection beats counting once p > 2: crossing traffic grows
        // quadratically with the cut population.
        let mach = m();
        for p in [4u64, 8, 32] {
            let b = 64 * p;
            assert!(t_star_all_to_all_1d(p, b, &mach) > t_star_allgather_1d(p, b, &mach));
        }
    }

    #[test]
    fn t_star_2d_matches_lemma_7_2() {
        let mach = m();
        let t = t_star_2d(512, 512, 4096, &mach);
        let expected = (4096f64).max(4096.0 / 8.0 + 1023.0) + 5.0;
        assert!((t - expected).abs() < 1e-9);
        // Distance-dominated regime.
        let t_small = t_star_2d(512, 512, 8, &mach);
        assert!((t_small - (8.0f64.max(1.0 + 1023.0) + 5.0)).abs() < 1e-9);
    }

    #[test]
    fn t_star_2d_is_below_snake_and_xy_patterns() {
        use crate::costs_2d::{self, Phase1d};
        let mach = m();
        for (rows, cols) in [(4u64, 4u64), (16, 16), (64, 64)] {
            for b in [1u64, 64, 1024, 8192] {
                let bound = t_star_2d(rows, cols, b, &mach);
                assert!(bound <= costs_2d::snake_reduce(rows, cols, b, &mach) + 1e-6);
                for pat in Phase1d::all() {
                    assert!(
                        bound <= costs_2d::xy_reduce(rows, cols, b, pat, &mach) + 1e-6,
                        "{rows}x{cols} b={b} pattern {:?}",
                        pat
                    );
                }
            }
        }
    }
}
