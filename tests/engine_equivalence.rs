//! Property-based equivalence of the two fabric engines.
//!
//! The fast event-driven engine (`EngineKind::Fast`, the default) must be
//! *observably byte-identical* to the reference cycle-stepper
//! (`EngineKind::Reference`) — same [`wse_fabric::RunReport`] (cycles,
//! per-PE finish times, energy, link loads, stall/no-op counters), same
//! outputs, same errors — across every collective the library can plan,
//! with and without thermal noise. These properties drive randomly shaped
//! 1D/2D plans through both engines via the public request API and compare
//! whole outcomes with `==`, not tolerances.

use proptest::prelude::*;

use wse_collectives::prelude::*;
use wse_fabric::pe::PeStats;
use wse_fabric::program::PeProgram;
use wse_fabric::router::{ColorScript, RouteRule};
use wse_fabric::{
    Color, Coord, Direction, DirectionSet, Fabric, FabricError, FabricParams, NoiseModel,
};
use wse_integration_tests::deterministic_inputs;
use wse_model::Machine;

/// Deterministic inputs of the shape `request` takes: one vector at the root
/// of a Broadcast, one per PE otherwise.
fn inputs_for(request: &CollectiveRequest) -> Vec<Vec<f32>> {
    let sources =
        if request.kind == CollectiveKind::Broadcast { 1 } else { request.topology.num_pes() };
    deterministic_inputs(sources, request.vector_len as usize)
}

/// Run one request through both engines and assert byte-identity of the
/// full outcome (report and outputs).
fn assert_engines_agree(request: &CollectiveRequest, ramp_latency: u64, noise: Option<NoiseModel>) {
    let machine = Machine::wse2();
    let resolved = request.resolve(&machine).expect("request resolves");
    let inputs = inputs_for(request);

    let mut fast = RunConfig::with_ramp_latency(ramp_latency);
    fast.noise = noise;
    let reference = fast.clone().with_engine(EngineKind::Reference);

    let fast_outcome = run_plan(&resolved.plan, &inputs, &fast).expect("fast run succeeds");
    let reference_outcome =
        run_plan(&resolved.plan, &inputs, &reference).expect("reference run succeeds");

    assert_eq!(fast_outcome.report, reference_outcome.report, "reports diverge: {request:?}");
    assert_eq!(fast_outcome.outputs, reference_outcome.outputs, "outputs diverge: {request:?}");
}

/// Build a random collective request from sampled primitives: 1D and 2D
/// topologies, all three kinds, all reduce ops, explicit and Auto schedules.
fn build_request(
    shape: u32,
    p: u32,
    w: u32,
    h: u32,
    b: u32,
    op: u32,
    schedule: u32,
) -> CollectiveRequest {
    let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::Prod][op as usize % 4];
    match shape % 6 {
        0 => {
            let pattern = [
                ReducePattern::Star,
                ReducePattern::Chain,
                ReducePattern::Tree,
                ReducePattern::TwoPhase,
                ReducePattern::AutoGen,
            ][schedule as usize % 5];
            CollectiveRequest::reduce(Topology::line(p), b)
                .with_op(op)
                .with_schedule(Schedule::Reduce1d(pattern))
        }
        1 => CollectiveRequest::allreduce(Topology::line(p), b).with_op(op),
        2 => CollectiveRequest::broadcast(Topology::line(p), b),
        3 => CollectiveRequest::reduce(Topology::grid(w, h), b).with_op(op),
        4 => CollectiveRequest::allreduce(Topology::grid(w, h), b),
        _ => CollectiveRequest::broadcast(Topology::grid(w, h), b),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Any plannable collective, any ramp latency: identical reports and
    /// outputs on both engines.
    #[test]
    fn engines_agree_on_noiseless_runs(
        shape in 0u32..6,
        p in 2u32..14,
        w in 2u32..5,
        h in 2u32..5,
        b in 1u32..24,
        op in 0u32..4,
        schedule in 0u32..5,
        ramp_latency in 0u64..6,
    ) {
        let request = build_request(shape, p, w, h, b, op, schedule);
        assert_engines_agree(&request, ramp_latency, None);
    }

    /// With a thermal-noise model attached (which disables skip-ahead but
    /// not active-set routing), the engines still agree draw for draw.
    #[test]
    fn engines_agree_under_noise(
        shape in 0u32..6,
        p in 2u32..12,
        w in 2u32..4,
        h in 2u32..4,
        b in 1u32..16,
        op in 0u32..4,
        schedule in 0u32..5,
        probability in 0.01f64..0.25,
        seed in 0u64..1_000_000,
    ) {
        let request = build_request(shape, p, w, h, b, op, schedule);
        assert_engines_agree(&request, 2, Some(NoiseModel::new(probability, seed)));
    }
}

/// Everything observable about a fabric mid- or post-run, gathered through
/// the public API: where it stopped, every PE's memory, statistics and
/// per-instruction finish times.
#[derive(Debug, PartialEq)]
struct FabricSnapshot {
    cycle: u64,
    locals: Vec<Vec<f32>>,
    stats: Vec<PeStats>,
    instruction_finish: Vec<Vec<u64>>,
}

impl FabricSnapshot {
    fn take(fabric: &Fabric) -> Self {
        let dim = fabric.dim();
        let coords = (0..dim.height).flat_map(|y| (0..dim.width).map(move |x| Coord::new(x, y)));
        let mut snap = FabricSnapshot {
            cycle: fabric.cycle(),
            locals: Vec::new(),
            stats: Vec::new(),
            instruction_finish: Vec::new(),
        };
        for at in coords {
            snap.locals.push(fabric.local(at).to_vec());
            snap.stats.push(fabric.pe_stats(at));
            snap.instruction_finish.push(fabric.instruction_finish(at).to_vec());
        }
        snap
    }
}

/// Run `plan` on a raw fabric with the given engine until it fails, and
/// return the error together with a full state snapshot at the failure
/// point.
fn run_until_failure(
    plan: &wse_collectives::prelude::CollectivePlan,
    inputs: &[Vec<f32>],
    params: FabricParams,
    noise: Option<NoiseModel>,
) -> (FabricError, FabricSnapshot) {
    let mut fabric = Fabric::new(plan.dim(), params);
    fabric.set_noise(noise);
    plan.apply(&mut fabric);
    for (at, data) in plan.data_pes().iter().zip(inputs) {
        fabric.set_local(*at, data);
    }
    let err = fabric.run().expect_err("run is expected to fail");
    (err, FabricSnapshot::take(&fabric))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Dense-shape coverage: 2D allreduce grids up to 16x16 — every PE
    /// holds a program, so the fast engine's dense SoA executor carries
    /// (nearly) the whole run — with and without a noise model.
    #[test]
    fn engines_agree_on_dense_allreduce_grids(
        w in 2u32..17,
        h in 2u32..17,
        b in 1u32..33,
        op in 0u32..4,
        ramp_latency in 0u64..6,
        noise_sel in 0u32..3,
        probability in 0.01f64..0.25,
        seed in 0u64..1_000_000,
    ) {
        let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::Prod][op as usize % 4];
        let request = CollectiveRequest::allreduce(Topology::grid(w, h), b).with_op(op);
        let noise = (noise_sel > 0).then(|| NoiseModel::new(probability, seed));
        assert_engines_agree(&request, ramp_latency, noise);
    }

    /// Cycle-limit truncation: stopping both engines mid-collective (at a
    /// limit drawn from inside the run) must leave byte-identical errors
    /// *and* byte-identical intermediate state — memories, statistics,
    /// instruction finish times — however far the dense executor had taken
    /// the fast engine. Besides all-busy AllReduce grids the shapes include
    /// wavefronts (grid and line Broadcast, a line Chain Reduce) whose PEs
    /// mostly wait: the cut then lands on lanes the dense executor has parked
    /// and whose stalls it credits only at writeback.
    #[test]
    fn engines_agree_on_cycle_limit_truncation(
        shape in 0u32..4,
        w in 2u32..17,
        h in 2u32..17,
        p in 2u32..49,
        b in 1u32..17,
        limit_seed in 0u64..1_000_000,
        noise_sel in 0u32..3,
        probability in 0.01f64..0.25,
        seed in 0u64..1_000_000,
    ) {
        let request = match shape {
            0 => CollectiveRequest::allreduce(Topology::grid(w.min(12), h.min(12)), b),
            1 => CollectiveRequest::broadcast(Topology::grid(w, h), b),
            2 => CollectiveRequest::reduce(Topology::line(p), b)
                .with_schedule(Schedule::Reduce1d(ReducePattern::Chain)),
            _ => CollectiveRequest::broadcast(Topology::line(p), b),
        };
        let resolved = request.resolve(&Machine::wse2()).expect("request resolves");
        let inputs = inputs_for(&request);
        let noise = (noise_sel > 0).then(|| NoiseModel::new(probability, seed));

        let config = RunConfig { noise: noise.clone(), ..RunConfig::default() };
        let natural =
            run_plan(&resolved.plan, &inputs, &config).expect("untruncated run succeeds").report.cycles;
        prop_assume!(natural >= 2);
        let limit = 1 + limit_seed % (natural - 1);

        let params = FabricParams { max_cycles: limit, ..FabricParams::default() };
        let fast = params.with_engine(EngineKind::Fast);
        let reference = params.with_engine(EngineKind::Reference);
        let (fast_err, fast_snap) = run_until_failure(&resolved.plan, &inputs, fast, noise.clone());
        let (ref_err, ref_snap) = run_until_failure(&resolved.plan, &inputs, reference, noise);
        assert!(
            matches!(fast_err, FabricError::CycleLimitExceeded { .. }),
            "expected a cycle-limit error at limit {limit}, got {fast_err:?}"
        );
        assert_eq!(fast_err, ref_err, "truncation errors diverge at limit {limit}");
        assert_eq!(fast_snap, ref_snap, "truncated state diverges at limit {limit}");
    }
}

/// Deadlock truncation in the dense regime: every PE participates (half
/// send, half under-consume, and a last row waits for a colour nobody
/// sends), so the fast engine is deep in its SoA dense path when the fabric
/// wedges — with the senders parked on full up rings and the waiters parked
/// on empty down rings, their stalls credited only by the deadlock exit.
/// Both engines must report the same deadlock cycle and stuck-PE set, and
/// leave byte-identical state behind.
///
/// No noise variant: injected no-ops count as architectural progress in
/// both engines, so a noisy fabric never strings together enough idle
/// cycles to trip deadlock detection — it would run to the cycle limit
/// instead (the noisy truncation path is covered by
/// `engines_agree_on_cycle_limit_truncation`).
#[test]
fn engines_agree_on_dense_deadlock() {
    let dim = GridDim::new(8, 9);
    let color = Color::new(0);
    let east = DirectionSet::single(Direction::East);
    let ramp = DirectionSet::single(Direction::Ramp);

    let run = |engine: EngineKind| {
        let mut fabric = Fabric::new(dim, FabricParams::default().with_engine(engine));
        // The last row blocks in a receive from the first cycle to the last.
        for x in 0..dim.width {
            let mut program = PeProgram::new();
            program.recv_store(Color::new(1), 0, 1);
            fabric.set_program(Coord::new(x, dim.height - 1), &program);
        }
        // Pair adjacent PEs: even columns send 16 values east, odd columns
        // consume only 2 — the rest back up through the ramp and inbufs
        // until nothing can move.
        for y in 0..dim.height - 1 {
            for x in (0..dim.width).step_by(2) {
                let sender = Coord::new(x, y);
                let mut program = PeProgram::new();
                program.send(color, 0, 16);
                fabric.set_program(sender, &program);
                fabric.set_local(sender, &(0..16).map(|i| i as f32 + 1.0).collect::<Vec<_>>());
                fabric.set_router_script(
                    sender,
                    color,
                    ColorScript::new(vec![RouteRule::forever(Direction::Ramp, east)]),
                );

                let receiver = Coord::new(x + 1, y);
                let mut program = PeProgram::new();
                program.recv_store(color, 0, 2);
                fabric.set_program(receiver, &program);
                fabric.set_local(receiver, &[0.0; 2]);
                fabric.set_router_script(
                    receiver,
                    color,
                    ColorScript::new(vec![RouteRule::forever(Direction::West, ramp)]),
                );
            }
        }
        let err = fabric.run().expect_err("the over-sent exchange deadlocks");
        (err, FabricSnapshot::take(&fabric))
    };

    let (fast_err, fast_snap) = run(EngineKind::Fast);
    let (ref_err, ref_snap) = run(EngineKind::Reference);
    assert!(
        matches!(fast_err, FabricError::Deadlock { .. }),
        "expected a deadlock, got {fast_err:?}"
    );
    assert_eq!(fast_err, ref_err, "deadlock errors diverge");
    assert_eq!(fast_snap, ref_snap, "deadlocked state diverges");
}

/// An 8x8 fabric of blocked receivers (every PE but two waits on `waiting`,
/// which nobody sends) crossed, after 40 cycles of `Compute`, by a two-wavelet
/// message on colour 0 travelling east along row 3 from PE (0,3). `fail_at`
/// configures the router where the message goes wrong. By then the dense
/// executor has had every waiter parked for dozens of cycles — rows 0–2 at
/// indices below the failing PE, rows 4–7 above — so the error exit taken is
/// what credits their stalls.
fn run_late_error(
    engine: EngineKind,
    fail_x: u32,
    fail_at: impl Fn(&mut Fabric, Coord),
) -> (FabricError, FabricSnapshot) {
    let dim = GridDim::new(8, 8);
    let (message, waiting) = (Color::new(0), Color::new(1));
    let east = DirectionSet::single(Direction::East);
    let mut fabric = Fabric::new(dim, FabricParams::default().with_engine(engine));
    for at in dim.iter() {
        let mut program = PeProgram::new();
        program.recv_store(waiting, 0, 1);
        fabric.set_program(at, &program);
    }
    let sender = Coord::new(0, 3);
    let mut program = PeProgram::new();
    program.compute(40);
    program.send(message, 0, 2);
    fabric.set_program(sender, &program);
    fabric.set_local(sender, &[1.5, 2.5]);
    let script = |from| ColorScript::new(vec![RouteRule::forever(from, east)]);
    fabric.set_router_script(sender, message, script(Direction::Ramp));
    for x in 1..fail_x {
        fabric.set_router_script(Coord::new(x, 3), message, script(Direction::West));
    }
    fail_at(&mut fabric, Coord::new(fail_x, 3));
    let err = fabric.run().expect_err("the message is built to fail");
    (err, FabricSnapshot::take(&fabric))
}

fn assert_late_error_agrees(
    fail_x: u32,
    fail_at: impl Fn(&mut Fabric, Coord),
    expected: impl Fn(&FabricError) -> bool,
) {
    let (fast_err, fast_snap) = run_late_error(EngineKind::Fast, fail_x, &fail_at);
    let (ref_err, ref_snap) = run_late_error(EngineKind::Reference, fail_x, &fail_at);
    assert!(expected(&fast_err), "unexpected error {fast_err:?}");
    assert_eq!(fast_err, ref_err, "errors diverge");
    assert!(fast_snap.cycle > 40, "the failure must come late, got cycle {}", fast_snap.cycle);
    let (below, above) = (fast_snap.stats[0], fast_snap.stats[63]);
    assert!(below.stall_cycles > 40 && above.stall_cycles > 40, "waiters on both sides");
    assert_eq!(fast_snap, ref_snap, "state at the error diverges");
}

/// Routing-error exit of the dense executor with parked lanes: every PE has
/// taken its phase-1 step of the failing cycle, so the waiters' stalls run
/// through that cycle inclusive.
#[test]
fn engines_agree_on_late_routing_errors_among_parked_pes() {
    // The message reaches a router with no script for its colour.
    assert_late_error_agrees(
        4,
        |_, _| {},
        |e| matches!(e, FabricError::UnconfiguredColor { pe: 28, .. }),
    );
    // The last router of the row forwards off the grid.
    assert_late_error_agrees(
        7,
        |fabric, at| {
            let east = DirectionSet::single(Direction::East);
            let rule = RouteRule::forever(Direction::West, east);
            fabric.set_router_script(at, Color::new(0), ColorScript::new(vec![rule]));
        },
        |e| matches!(e, FabricError::ForwardOffGrid { pe: 31, direction: Direction::East }),
    );
}

/// Program-error exit with parked lanes: the failing router delivers the
/// message to its own PE, which expects the other colour. The dense plan pass
/// abandons that cycle and the scalar replay steps it — stalling the waiters
/// below the failing PE once more and never reaching those above — so the
/// parked lanes must have been credited through the cycle before, no further.
#[test]
fn engines_agree_on_late_program_errors_among_parked_pes() {
    assert_late_error_agrees(
        4,
        |fabric, at| {
            let ramp = DirectionSet::single(Direction::Ramp);
            let rule = RouteRule::forever(Direction::West, ramp);
            fabric.set_router_script(at, Color::new(0), ColorScript::new(vec![rule]));
        },
        |e| matches!(e, FabricError::Program(p) if p.pe == 28),
    );
}

/// A fast-engine run repeated on the session's reset fabric reproduces
/// itself exactly — the event-driven state (active sets, wake times) leaves
/// no residue behind `Fabric::reset`.
#[test]
fn fast_rerun_on_reset_fabric_reproduces_itself() {
    let mut session = Session::new();
    let requests = [
        CollectiveRequest::reduce(Topology::line(12), 32),
        CollectiveRequest::allreduce(Topology::grid(3, 3), 16),
        CollectiveRequest::broadcast(Topology::line(9), 24),
    ];
    for request in &requests {
        let inputs = inputs_for(request);
        let first = session.run(request, &inputs).unwrap();
        let second = session.run(request, &inputs).unwrap();
        assert_eq!(first.report, second.report, "{request:?}");
        assert_eq!(first.outputs, second.outputs, "{request:?}");
    }
    assert!(session.stats().fabric_reuses >= 3, "reruns must exercise the reset path");
}
