//! The event-driven gear of the fast engine: active sets plus skip-ahead.
//!
//! Observably byte-identical to the reference stepper (see the
//! [equivalence contract](super)); it gets its speed from two sources:
//!
//! * **Active sets.** Only PEs whose programs have not finished are stepped
//!   (a finished PE's `step` is a no-op in the reference engine), and only
//!   routers that hold at least one wavelet — in an input queue or on the
//!   PE's upward ramp — are routed. Wavelet-free routers neither read nor
//!   write anything in the reference engine, so routing the active subset in
//!   ascending index order interleaves identically with the reference's full
//!   sweep. The router set is maintained incrementally: a router activates
//!   when a wavelet is pushed towards it and deactivates when it drains.
//!
//! * **Skip-ahead.** Each cycle the engine computes the earliest cycle at
//!   which anything could act: a visible input-queue head or matured ramp
//!   wavelet for a router, and per unfinished PE whatever its current
//!   instruction waits for (ramp-down maturation, ramp-up space, …). If that
//!   wake-up cycle lies in the future, every unfinished PE provably stalls
//!   (+1 `stall_cycles`) and no wavelet moves on each intervening cycle, so
//!   the clock jumps there in one step, crediting the stalls and idle cycles
//!   in bulk. The jump is clamped to the deadlock horizon and the cycle
//!   limit so both errors fire at exactly the reference cycle.
//!
//! With a noise model attached, skip-ahead is disabled: the reference
//! engine draws one RNG sample per PE per cycle, so cycles cannot be
//! skipped without desynchronising the noise stream. The active-set
//! machinery still applies (sampling touches all PEs, stepping and routing
//! only active ones).
//!
//! This loop carries a run only while the PEs that still have instructions
//! to execute are fewer than [`super::FabricParams::dense_threshold_pct`] of
//! the grid: a short message across a mostly unprogrammed fabric, or the
//! tail of a collective. Above that share — which a whole-grid collective
//! reaches at cycle 0 however few of its PEs are busy, since a PE blocked in
//! a receive is unfinished too — the run loop hands whole segments to the
//! struct-of-arrays executor of [`super::dense`], which parks waiting PEs
//! itself, and resumes here when that executor goes idle at low density (see
//! [the dense regime](super)).

use super::{dense, Fabric, FabricError, RunReport};
use crate::pe::Wake;

/// The [`super::EngineKind::Fast`] run loop.
pub(super) fn run(fabric: &mut Fabric) -> Result<RunReport, FabricError> {
    let tolerance = fabric.idle_tolerance();
    let noisy = fabric.noise.is_some();
    let n = fabric.pes.len();

    // Seed the active sets from the current state: `run` may be called on a
    // fabric that was already hand-stepped. Both lists stay sorted ascending
    // so phase order (and therefore error precedence) matches the reference.
    let dense_threshold = dense::entry_threshold(fabric);
    let mut unfinished: Vec<usize> = (0..n).filter(|&i| !fabric.pes[i].finished()).collect();
    let mut router_active: Vec<bool> = (0..n).map(|i| fabric.router_has_work(i)).collect();
    let mut active: Vec<usize> = (0..n).filter(|&i| router_active[i]).collect();
    let mut snapshot: Vec<usize> = Vec::new();
    let mut fresh: Vec<usize> = Vec::new();
    let mut pushed: Vec<usize> = Vec::new();
    let mut idle_cycles = 0u64;

    loop {
        // Termination. The cheap emptiness test gates the O(n) `finished()`
        // sweep, which therefore runs at most a handful of times per run
        // (at completion, or when a finished PE left wavelets stranded in
        // its downward ramp — a plan bug that ends in a deadlock below).
        if unfinished.is_empty() && active.is_empty() && fabric.finished() {
            return Ok(fabric.report());
        }
        if fabric.cycle >= fabric.params.max_cycles {
            return Err(FabricError::CycleLimitExceeded { limit: fabric.params.max_cycles });
        }

        // Dense regime. The cheap unfinished-count gate keeps the O(n)
        // working-lane scan off the steady sparse path; the scan itself
        // excludes unfinished-but-unprogrammed PEs (their one-step epilogue
        // would otherwise read as 100% density on an idle fabric).
        if let Some(pct) = dense_threshold {
            if unfinished.len() * 100 >= pct * n
                && unfinished
                    .iter()
                    .filter(|&&i| fabric.pes[i].has_instructions_remaining())
                    .count()
                    * 100
                    >= pct * n
            {
                match dense::run_segment(fabric, &mut idle_cycles, pct)? {
                    Some(report) => return Ok(report),
                    None => {
                        // Density dropped (or a cycle was replayed scalar):
                        // reseed the active sets from the fabric and resume
                        // event-driven stepping.
                        unfinished.clear();
                        unfinished.extend((0..n).filter(|&i| !fabric.pes[i].finished()));
                        for (i, slot) in router_active.iter_mut().enumerate() {
                            *slot = fabric.router_has_work(i);
                        }
                        active.clear();
                        active.extend((0..n).filter(|&i| router_active[i]));
                        continue;
                    }
                }
            }
        }

        if !noisy {
            let now = fabric.cycle;
            let wake = next_wake(fabric, &unfinished, &active);
            if wake > now {
                // Nothing can act before `wake`: every intervening cycle is
                // a reference-engine cycle with no progress in which each
                // unfinished PE stalls once. Jump there, clamped so the
                // deadlock and cycle-limit checks fire at the same cycle the
                // reference engine would report.
                let gap = if wake == u64::MAX { u64::MAX } else { wake - now };
                let jump = gap.min(tolerance + 1 - idle_cycles).min(fabric.params.max_cycles - now);
                debug_assert!(jump >= 1);
                fabric.cycle += jump;
                idle_cycles += jump;
                for &i in &unfinished {
                    fabric.pes[i].add_stall_cycles(jump);
                }
                if idle_cycles > tolerance {
                    return Err(fabric.deadlock_error());
                }
                continue;
            }
        }

        // Step one cycle over the active sets.
        let now = fabric.cycle;
        let t_r = fabric.params.ramp_latency;
        let mut progress = false;

        // Phase 1: noise for all PEs (keeps the RNG stream aligned with the
        // reference engine, which draws for finished PEs too), then program
        // execution for unfinished ones. A `Send` can surface the first ramp
        // wavelet of a quiet router, so activation is collected immediately —
        // with a zero ramp latency it must route this very cycle. Walking
        // `unfinished` ascending makes `fresh` sorted by construction.
        fabric.inject_noise_all();
        fresh.clear();
        for &i in &unfinished {
            match fabric.pes[i].step(now, t_r) {
                Ok(adv) => progress |= adv,
                Err(e) => return Err(FabricError::Program(e)),
            }
            if !router_active[i] && fabric.router_has_work(i) {
                router_active[i] = true;
                fresh.push(i);
            }
        }
        unfinished.retain(|&i| !fabric.pes[i].finished());

        // Phase 2: route the routers that were active entering the cycle
        // plus any activated in phase 1, merged in one pass (no O(n)
        // mid-vector inserts). Routers that receive their first wavelet
        // *this* cycle join for the next one — their new head is not visible
        // before then anyway.
        snapshot.clear();
        merge_sorted(&active, &fresh, &mut snapshot);
        pushed.clear();
        for &i in &snapshot {
            progress |= fabric.route_one(i, now, Some(&mut pushed))?;
        }
        fresh.clear();
        for &ni in &pushed {
            // `router_active` doubles as the dedup set: a router already in
            // `snapshot` (or pushed to twice) is skipped here and kept, if
            // still loaded, by the retain below.
            if !router_active[ni] {
                router_active[ni] = true;
                fresh.push(ni);
            }
        }
        fresh.sort_unstable();
        active.clear();
        merge_sorted(&snapshot, &fresh, &mut active);
        active.retain(|&i| {
            let keep = fabric.router_has_work(i);
            if !keep {
                router_active[i] = false;
            }
            keep
        });

        fabric.cycle += 1;
        if progress {
            idle_cycles = 0;
        } else {
            idle_cycles += 1;
            if idle_cycles > tolerance {
                return Err(fabric.deadlock_error());
            }
        }
    }
}

/// The earliest cycle at which any PE or router could act, `u64::MAX` if
/// none ever will (the deadlock horizon takes over). Returns `now` as soon
/// as one immediate candidate is found.
fn next_wake(fabric: &Fabric, unfinished: &[usize], active: &[usize]) -> u64 {
    let now = fabric.cycle;
    let mut wake = u64::MAX;
    for &i in unfinished {
        match fabric.pes[i].next_wake(now) {
            Wake::Now => return now,
            Wake::At(t) => {
                debug_assert!(t > now);
                wake = wake.min(t);
            }
            Wake::Never => {}
        }
    }
    for &i in active {
        match fabric.router_wake(i, now) {
            Wake::Now => return now,
            Wake::At(t) => {
                debug_assert!(t > now);
                wake = wake.min(t);
            }
            Wake::Never => {}
        }
    }
    wake
}

/// Merge two sorted, disjoint index lists into `out` (cleared by the caller).
fn merge_sorted(a: &[usize], b: &[usize], out: &mut Vec<usize>) {
    out.reserve(a.len() + b.len());
    let (mut ia, mut ib) = (0, 0);
    while ia < a.len() && ib < b.len() {
        debug_assert_ne!(a[ia], b[ib], "merge inputs must be disjoint");
        if a[ia] < b[ib] {
            out.push(a[ia]);
            ia += 1;
        } else {
            out.push(b[ib]);
            ib += 1;
        }
    }
    out.extend_from_slice(&a[ia..]);
    out.extend_from_slice(&b[ib..]);
}

#[cfg(test)]
mod tests {
    use super::super::tests::{configure_message, message_fabric};
    use super::super::{EngineKind, Fabric, FabricError, FabricParams, RunReport};
    use crate::clock::NoiseModel;
    use crate::geometry::{Coord, Direction, DirectionSet, GridDim};
    use crate::program::PeProgram;
    use crate::router::{ColorScript, RouteRule};
    use crate::wavelet::Color;

    /// Run the same configuration under both engines and demand identical
    /// observable results: report (or error) and every PE's local memory.
    fn assert_engines_agree(
        build: impl Fn(&mut Fabric),
        dim: GridDim,
        params: FabricParams,
        noise: Option<NoiseModel>,
    ) -> Result<RunReport, FabricError> {
        let mut results = Vec::new();
        for engine in [EngineKind::Reference, EngineKind::Fast] {
            let mut fabric = Fabric::new(dim, params.with_engine(engine));
            build(&mut fabric);
            fabric.set_noise(noise.clone());
            let outcome = fabric.run();
            let locals: Vec<Vec<f32>> =
                (0..dim.num_pes()).map(|i| fabric.local(dim.coord(i)).to_vec()).collect();
            results.push((outcome, locals));
        }
        let (reference, fast) = (results.remove(0), results.remove(0));
        assert_eq!(reference.0, fast.0, "engines disagree on the run outcome");
        assert_eq!(reference.1, fast.1, "engines disagree on PE local memory");
        reference.0
    }

    #[test]
    fn fast_matches_reference_on_a_message() {
        for (p, b) in [(2u32, 1u32), (4, 8), (16, 64), (64, 16)] {
            let report = assert_engines_agree(
                |fabric| configure_message(fabric, p, b),
                GridDim::row(p),
                FabricParams::default(),
                None,
            )
            .expect("message runs succeed");
            assert_eq!(report.max_received, b as u64);
        }
    }

    #[test]
    fn fast_matches_reference_under_noise() {
        for seed in 0..8u64 {
            let noise = NoiseModel::new(0.05, seed);
            assert_engines_agree(
                |fabric| configure_message(fabric, 6, 24),
                GridDim::row(6),
                FabricParams::default(),
                Some(noise),
            )
            .expect("noisy message runs succeed");
        }
    }

    #[test]
    fn fast_matches_reference_on_errors() {
        let dim = GridDim::row(2);
        // Deadlock: the router only accepts from the West but the wavelet
        // arrives on the ramp.
        let deadlock = assert_engines_agree(
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
            dim,
            FabricParams::default(),
            None,
        )
        .unwrap_err();
        assert!(matches!(deadlock, FabricError::Deadlock { .. }));

        // Unconfigured color: no routing script at all.
        let unconfigured = assert_engines_agree(
            |fabric| {
                let mut prog = PeProgram::new();
                prog.send(Color::new(0), 0, 1);
                fabric.set_program(Coord::new(1, 0), &prog);
                fabric.set_local(Coord::new(1, 0), &[1.0]);
            },
            dim,
            FabricParams::default(),
            None,
        )
        .unwrap_err();
        assert!(matches!(unconfigured, FabricError::UnconfiguredColor { pe: 1, .. }));

        // Forward off the grid.
        let off_grid = assert_engines_agree(
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
                        Direction::Ramp,
                        DirectionSet::single(Direction::East),
                    )]),
                );
            },
            dim,
            FabricParams::default(),
            None,
        )
        .unwrap_err();
        assert!(matches!(off_grid, FabricError::ForwardOffGrid { pe: 1, .. }));

        // Cycle limit: a healthy run cut short at the same cycle.
        let limited = assert_engines_agree(
            |fabric| configure_message(fabric, 8, 32),
            GridDim::row(8),
            FabricParams { max_cycles: 10, ..FabricParams::default() },
            None,
        )
        .unwrap_err();
        assert!(matches!(limited, FabricError::CycleLimitExceeded { limit: 10 }));
    }

    #[test]
    fn fast_matches_reference_across_ramp_latencies() {
        for t_r in [0u64, 1, 2, 5, 9] {
            assert_engines_agree(
                |fabric| configure_message(fabric, 5, 17),
                GridDim::row(5),
                FabricParams::with_ramp_latency(t_r),
                None,
            )
            .expect("message runs succeed for every ramp latency");
        }
    }

    #[test]
    fn skip_ahead_credits_stalls_like_the_reference() {
        // A large ramp latency opens long event-free gaps that the fast
        // engine jumps over; stall and idle accounting must still match the
        // reference cycle-for-cycle (checked via the full report).
        let report = assert_engines_agree(
            |fabric| configure_message(fabric, 3, 4),
            GridDim::row(3),
            FabricParams::with_ramp_latency(40),
            None,
        )
        .expect("high-latency message run succeeds");
        assert!(report.stall_cycles > 0, "the receiver must have stalled while waiting");
    }

    #[test]
    fn fast_rerun_on_a_reset_fabric_reproduces_itself() {
        // Regression: the fast engine seeds its active sets from fabric
        // state, so a reset + reinstall must reproduce the first run exactly.
        let mut fabric = message_fabric(6, 24);
        assert_eq!(fabric.params().engine, EngineKind::Fast);
        let first = fabric.run().expect("first fast run succeeds");
        fabric.reset();
        configure_message(&mut fabric, 6, 24);
        let again = fabric.run().expect("rerun succeeds");
        assert_eq!(first, again);
    }

    #[test]
    fn fast_handles_a_fabric_with_no_work() {
        // Unprogrammed PEs still take one cycle to retire (their programs
        // finish on the first step) — in both engines, identically.
        let report =
            assert_engines_agree(|_| {}, GridDim::new(3, 3), FabricParams::default(), None)
                .expect("an idle fabric completes");
        assert_eq!(report.cycles, 1);
        assert_eq!(report.energy_hops, 0);
    }
}
