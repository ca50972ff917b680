//! The six workloads: which requests each one issues, and the reference
//! outcome every measured response is compared against.
//!
//! Only the durable request API is used here — `CollectiveRequest`
//! constructors, `with_schedule`, `resolve`, `predicted_cycles` — so the
//! legacy free functions stay free to be deleted.

use wse_collectives::{
    expected_reduce, run_plan, AllReducePattern, CollectiveKind, CollectiveRequest, ReducePattern,
    RunConfig, RunOutcome, Schedule, Topology,
};
use wse_fabric::ReduceOp;
use wse_model::{lower_bound, Machine};

use crate::rng::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServePacedSmall,
    ServeBurstAdmit,
    BatchSmallDoors,
    EngineDense2d,
    EngineWaveSparse,
    PaperSweepCold,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::ServePacedSmall,
        Workload::ServeBurstAdmit,
        Workload::BatchSmallDoors,
        Workload::EngineDense2d,
        Workload::EngineWaveSparse,
        Workload::PaperSweepCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePacedSmall => "serve_paced_small",
            Workload::ServeBurstAdmit => "serve_burst_admit",
            Workload::BatchSmallDoors => "batch_small_doors",
            Workload::EngineDense2d => "engine_dense_2d",
            Workload::EngineWaveSparse => "engine_wave_sparse",
            Workload::PaperSweepCold => "paper_sweep_cold",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (also the `why` of
    /// `BENCHMARK.json`; the README has the long form).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServePacedSmall => {
                "open loop, 1500 req/s of warm small line collectives: queue, batch window, \
                 dispatch and wake-up dominate and the engine does little"
            }
            Workload::ServeBurstAdmit => {
                "open loop, bursts of large all-to-alls plus small reduces through admission \
                 and shortest-first batching: size flushes, a real backlog, fabric half the work"
            }
            Workload::BatchSmallDoors => {
                "closed loop, one 64-item batch alternately through Session and Executor: plan-cache \
                 hits, fabric checkout and thread spawn dominate, no serve code runs"
            }
            Workload::EngineDense2d => {
                "closed loop, warm bandwidth-bound 2D collectives on 24x24 and 48x48 grids: \
                 Fabric::run with every PE busy is nearly all of the wall time"
            }
            Workload::EngineWaveSparse => {
                "closed loop, warm latency-bound collectives where a wavefront crosses a mostly \
                 idle fabric (96x96 broadcast, 512-PE lines): skip-ahead, apply and reset matter"
            }
            Workload::PaperSweepCold => {
                "closed loop, a cold (p,b) sweep that resolves and runs each point once: Auto-Gen, \
                 selection, lower bound and plan builders dominate; carries the accuracy metrics"
            }
        }
    }

    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServePacedSmall | Workload::ServeBurstAdmit)
    }

    /// The distinct requests of the workload, in a fixed order. `quick`
    /// drops the sweep's large-`p` points (results are then marked quick and
    /// `compare` refuses them).
    pub fn requests(self, quick: bool) -> Vec<CollectiveRequest> {
        let line = Topology::line;
        let reduce = CollectiveRequest::reduce;
        let allreduce = CollectiveRequest::allreduce;
        match self {
            Workload::ServePacedSmall | Workload::BatchSmallDoors => small_hot_set(),
            Workload::ServeBurstAdmit => {
                vec![CollectiveRequest::all_to_all(line(8), 2048), reduce(line(8), 64)]
            }
            Workload::EngineDense2d => vec![
                allreduce(Topology::grid(48, 48), 64),
                reduce(Topology::grid(48, 48), 128),
                reduce(Topology::grid(24, 24), 256),
                allreduce(Topology::grid(24, 24), 64),
            ],
            Workload::EngineWaveSparse => vec![
                CollectiveRequest::broadcast(Topology::grid(96, 96), 16),
                reduce(line(512), 8).with_schedule(Schedule::Reduce1d(ReducePattern::Chain)),
                reduce(line(512), 64),
                CollectiveRequest::broadcast(line(512), 64),
            ],
            Workload::PaperSweepCold => sweep_grid(quick),
        }
    }
}

/// Twelve small line Reduce/AllReduce requests (p 4–16, b 16–128) that the
/// serving and batch workloads keep hot.
fn small_hot_set() -> Vec<CollectiveRequest> {
    let reduces = [(4, 16), (4, 64), (8, 32), (8, 64), (8, 128), (12, 48), (16, 64), (16, 128)];
    let allreduces = [(4, 32), (8, 16), (8, 64), (16, 32)];
    reduces
        .into_iter()
        .map(|(p, b)| CollectiveRequest::reduce(Topology::line(p), b))
        .chain(
            allreduces.into_iter().map(|(p, b)| CollectiveRequest::allreduce(Topology::line(p), b)),
        )
        .collect()
}

/// The cold sweep: at every (p, b) the explicit Chain/Tree/Two-Phase/Auto-Gen
/// Reduce and `Schedule::Auto`; Auto-Gen-based AllReduce on three lines; the
/// five suite kinds. 73 distinct requests, so a 64-entry plan cache could not
/// hold them even if a pass reused its session. The single p=256 column keeps
/// Auto-Gen's cubic DP (≈0.2 s per solve there) from being the whole pass.
fn sweep_grid(quick: bool) -> Vec<CollectiveRequest> {
    let explicit = [
        ReducePattern::Chain,
        ReducePattern::Tree,
        ReducePattern::TwoPhase,
        ReducePattern::AutoGen,
    ];
    let mut points: Vec<(u32, u32)> = Vec::new();
    let ps: &[u32] = if quick { &[16, 64] } else { &[16, 64, 128] };
    for &p in ps {
        for b in [1, 16, 256, 1024] {
            points.push((p, b));
        }
    }
    if !quick {
        points.push((256, 64));
    }
    let mut requests = Vec::new();
    for (p, b) in points {
        let base = CollectiveRequest::reduce(Topology::line(p), b);
        for pattern in explicit {
            requests.push(base.with_schedule(Schedule::Reduce1d(pattern)));
        }
        requests.push(base);
    }
    for &p in ps {
        requests.push(CollectiveRequest::allreduce(Topology::line(p), 256).with_schedule(
            Schedule::AllReduce1d(AllReducePattern::ReduceBroadcast(ReducePattern::AutoGen)),
        ));
    }
    let suite = Topology::line(64);
    requests.push(CollectiveRequest::reduce_scatter(suite, 64));
    requests.push(CollectiveRequest::allgather(suite, 64));
    requests.push(CollectiveRequest::gather(suite, 256));
    requests.push(CollectiveRequest::scatter(suite, 256));
    requests.push(CollectiveRequest::all_to_all(Topology::line(16), 1024));
    requests
}

/// One distinct request of a workload with its generated inputs and the
/// reference every measured response must equal.
#[derive(Debug, Clone)]
pub struct Case {
    pub label: String,
    pub request: CollectiveRequest,
    pub inputs: Vec<Vec<f32>>,
    /// `run_plan` on a fresh, noise-free fabric at set-up time.
    pub reference: RunOutcome,
    /// Why the reference itself is wrong (semantic check or lower bound), if
    /// it is; every measured run of such a case counts as failed.
    pub defect: Option<String>,
    pub predicted_cycles: f64,
    pub lower_bound: Option<f64>,
    pub wavelets_sent: u64,
}

impl Case {
    pub fn measured_cycles(&self) -> u64 {
        self.reference.runtime_cycles()
    }

    pub fn pes(&self) -> u64 {
        self.request.topology.num_pes() as u64
    }

    /// Simulated PE-cycles of one run (`RunReport.cycles × PEs`).
    pub fn pe_cycles(&self) -> u64 {
        self.reference.report.cycles * self.pes()
    }

    pub fn model_error_pct(&self) -> f64 {
        let measured = self.measured_cycles() as f64;
        (measured - self.predicted_cycles).abs() / measured.max(1.0) * 100.0
    }
}

pub fn describe(request: &CollectiveRequest) -> String {
    let topology = match request.topology {
        Topology::Line(p) => format!("line({p})"),
        Topology::Grid(dim) => format!("grid({}x{})", dim.width, dim.height),
    };
    let schedule = match request.schedule {
        Schedule::Auto => "Auto".to_string(),
        other => format!("{other:?}"),
    };
    format!("{:?} {topology} b={} {schedule}", request.kind, request.vector_len)
}

pub fn generate_inputs(request: &CollectiveRequest, rng: &mut Rng) -> Vec<Vec<f32>> {
    let (count, len) = request.input_shape().expect("workload requests are valid");
    (0..count).map(|_| (0..len).map(|_| rng.element()).collect()).collect()
}

/// The lower bound the measured cycle count of a request may never undercut.
/// An AllReduce contains a Reduce, so it inherits the Reduce bound; a
/// Broadcast has no bound in the model.
pub fn lower_bound_cycles(request: &CollectiveRequest, machine: &Machine) -> Option<f64> {
    let b = u64::from(request.vector_len);
    match (request.kind, request.topology) {
        (CollectiveKind::Broadcast, _) => None,
        (CollectiveKind::Reduce | CollectiveKind::AllReduce, Topology::Line(p)) => {
            Some(lower_bound::t_star_1d(u64::from(p), b, machine))
        }
        (_, Topology::Grid(dim)) => {
            Some(lower_bound::t_star_2d(u64::from(dim.height), u64::from(dim.width), b, machine))
        }
        (kind, Topology::Line(p)) => {
            let p = u64::from(p);
            Some(match kind {
                CollectiveKind::ReduceScatter => {
                    lower_bound::t_star_reduce_scatter_1d(p, b, machine)
                }
                CollectiveKind::AllGather => lower_bound::t_star_allgather_1d(p, b, machine),
                CollectiveKind::Gather => lower_bound::t_star_gather_1d(p, b, machine),
                CollectiveKind::Scatter => lower_bound::t_star_scatter_1d(p, b, machine),
                _ => lower_bound::t_star_all_to_all_1d(p, b, machine),
            })
        }
    }
}

/// Build a case: generate inputs, resolve, run once on a fresh fabric, and
/// check that reference against the collective's definition.
pub fn build_case(request: CollectiveRequest, rng: &mut Rng, machine: &Machine) -> Case {
    let inputs = generate_inputs(&request, rng);
    let resolved = request.resolve(machine).expect("workload requests resolve");
    let reference = run_plan(&resolved.plan, &inputs, &RunConfig::default())
        .expect("workload requests run to completion");
    let predicted_cycles = request.predicted_cycles(machine).expect("workload requests are priced");
    let lower_bound = lower_bound_cycles(&request, machine);
    let mut defect = semantic_defect(&request, &inputs, &reference);
    if let Some(bound) = lower_bound {
        // The simulator starts its clock at the first injection, so measured
        // counts sit a constant couple of cycles under the model's origin
        // (a Chain measures its prediction minus 2). One depth step of the
        // model's fixed overhead, 2·T_R + 1, is the slack — far inside the
        // 16 cycles the repository's own tests allow.
        if reference.runtime_cycles() as f64 + (machine.depth_overhead() as f64) < bound {
            defect = Some(format!(
                "measured {} cycles undercut the lower bound {bound:.1}",
                reference.runtime_cycles()
            ));
        }
    }
    Case {
        label: describe(&request),
        wavelets_sent: resolved.plan.total_wavelets_sent(),
        request,
        inputs,
        reference,
        defect,
        predicted_cycles,
        lower_bound,
    }
}

/// Check an outcome against what the collective is defined to compute, from
/// the inputs alone. Inputs are multiples of 1/8, so sums are exact and the
/// comparison is bit for bit whatever the reduction tree's shape.
fn semantic_defect(
    request: &CollectiveRequest,
    inputs: &[Vec<f32>],
    outcome: &RunOutcome,
) -> Option<String> {
    let p = request.topology.num_pes();
    let chunk = request.vector_len as usize / p.max(1);
    let shard = |full: &[f32], x: usize| full[x * chunk..(x + 1) * chunk].to_vec();
    let expected: Vec<Vec<f32>> = match request.kind {
        CollectiveKind::Reduce => vec![expected_reduce(inputs, ReduceOp::Sum)],
        CollectiveKind::AllReduce => vec![expected_reduce(inputs, ReduceOp::Sum); p],
        CollectiveKind::Broadcast => vec![inputs[0].clone(); p],
        CollectiveKind::ReduceScatter => {
            let reduced = expected_reduce(inputs, ReduceOp::Sum);
            (0..p).map(|x| shard(&reduced, x)).collect()
        }
        CollectiveKind::AllGather => vec![inputs.concat(); p],
        CollectiveKind::Gather => vec![inputs.concat()],
        CollectiveKind::Scatter => (0..p).map(|x| shard(&inputs[0], x)).collect(),
        CollectiveKind::AllToAll => {
            (0..p).map(|x| (0..p).flat_map(|s| shard(&inputs[s], x)).collect()).collect()
        }
    };
    if outcome.outputs.len() != expected.len() {
        return Some(format!(
            "{} outputs where the definition has {}",
            outcome.outputs.len(),
            expected.len()
        ));
    }
    outcome
        .outputs
        .iter()
        .zip(&expected)
        .find(|((_, got), want)| got != *want)
        .map(|((at, _), _)| format!("output at {at} differs from the collective's definition"))
}

pub fn build_cases(workload: Workload, quick: bool, seed: u64, machine: &Machine) -> Vec<Case> {
    let mut rng = Rng::new(seed).fork(1);
    workload.requests(quick).into_iter().map(|r| build_case(r, &mut rng, machine)).collect()
}

/// The deterministic accuracy figures of a case set (the paper's claims).
#[derive(Debug, Clone, PartialEq)]
pub struct Accuracy {
    pub sim_cycles_total: u64,
    pub model_error_mean_pct: f64,
    pub model_error_max_pct: f64,
    /// Over the Reduce points (topology, b): best measured schedule ÷ bound.
    pub optimality_ratio_max: f64,
    /// Over points with both an Auto and an explicit request: Auto ÷ best
    /// explicit; 1.0 when the workload has no such point.
    pub auto_vs_best_ratio_max: f64,
}

pub fn accuracy(cases: &[Case]) -> Accuracy {
    let errors: Vec<f64> = cases.iter().map(Case::model_error_pct).collect();
    let mut optimality: f64 = 0.0;
    let mut regret: f64 = 1.0;
    for case in cases {
        let same_point = |other: &&Case| {
            other.request.kind == case.request.kind
                && other.request.topology == case.request.topology
                && other.request.vector_len == case.request.vector_len
        };
        let best_here = |pool: &mut dyn Iterator<Item = &Case>| {
            pool.map(Case::measured_cycles).min().map(|c| c as f64)
        };
        if case.request.kind == CollectiveKind::Reduce {
            if let (Some(bound), Some(best)) =
                (case.lower_bound, best_here(&mut cases.iter().filter(same_point)))
            {
                optimality = optimality.max(best / bound.max(1.0));
            }
        }
        if case.request.schedule == Schedule::Auto {
            let mut explicit =
                cases.iter().filter(same_point).filter(|c| c.request.schedule != Schedule::Auto);
            if let Some(best) = best_here(&mut explicit) {
                regret = regret.max(case.measured_cycles() as f64 / best.max(1.0));
            }
        }
    }
    Accuracy {
        sim_cycles_total: cases.iter().map(|c| c.reference.report.cycles).sum(),
        model_error_mean_pct: crate::stats::mean(&errors),
        model_error_max_pct: errors.iter().copied().fold(0.0, f64::max),
        optimality_ratio_max: optimality,
        auto_vs_best_ratio_max: regret,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_request_is_distinct_and_valid() {
        for workload in Workload::ALL {
            let requests = workload.requests(false);
            let distinct: std::collections::HashSet<_> = requests.iter().collect();
            assert_eq!(distinct.len(), requests.len(), "{}", workload.name());
            assert!(requests.iter().all(|r| r.validate().is_ok()));
            assert!(workload.why().len() <= 200 && !workload.why().contains('\n'));
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert!(Workload::PaperSweepCold.requests(false).len() > 64);
    }

    #[test]
    fn references_satisfy_the_definitions_and_the_bounds() {
        let machine = Machine::wse2();
        for workload in [Workload::ServePacedSmall, Workload::ServeBurstAdmit] {
            for case in build_cases(workload, false, 3, &machine) {
                assert_eq!(case.defect, None, "{}", case.label);
            }
        }
        let mut rng = Rng::new(5);
        let suite = Topology::line(4);
        for request in [
            CollectiveRequest::reduce_scatter(suite, 16),
            CollectiveRequest::allgather(suite, 16),
            CollectiveRequest::gather(suite, 16),
            CollectiveRequest::scatter(suite, 16),
            CollectiveRequest::all_to_all(suite, 16),
            CollectiveRequest::broadcast(Topology::grid(3, 2), 5),
        ] {
            let case = build_case(request, &mut rng, &machine);
            assert_eq!(case.defect, None, "{}", case.label);
        }
    }

    #[test]
    fn a_wrong_output_is_caught_by_the_semantic_check() {
        let machine = Machine::wse2();
        let mut case = build_case(
            CollectiveRequest::allreduce(Topology::line(4), 8),
            &mut Rng::new(1),
            &machine,
        );
        case.reference.outputs[2].1[3] += 0.125;
        assert!(semantic_defect(&case.request, &case.inputs, &case.reference).is_some());
    }

    #[test]
    fn accuracy_figures_follow_their_definitions() {
        let machine = Machine::wse2();
        let mut rng = Rng::new(2);
        let base = CollectiveRequest::reduce(Topology::line(16), 256);
        let cases: Vec<Case> = [
            base,
            base.with_schedule(Schedule::Reduce1d(ReducePattern::Tree)),
            base.with_schedule(Schedule::Reduce1d(ReducePattern::Chain)),
        ]
        .into_iter()
        .map(|r| build_case(r, &mut rng, &machine))
        .collect();
        let figures = accuracy(&cases);
        let best = cases.iter().map(Case::measured_cycles).min().unwrap() as f64;
        assert_eq!(figures.optimality_ratio_max, best / cases[0].lower_bound.unwrap());
        let best_explicit = cases[1].measured_cycles().min(cases[2].measured_cycles()) as f64;
        let expected = (cases[0].measured_cycles() as f64 / best_explicit).max(1.0);
        assert_eq!(figures.auto_vs_best_ratio_max, expected);
        assert_eq!(
            figures.sim_cycles_total,
            cases.iter().map(|c| c.reference.report.cycles).sum::<u64>()
        );
        assert!(figures.model_error_max_pct >= figures.model_error_mean_pct);
        // No Auto/explicit pair: nothing to regret.
        assert_eq!(accuracy(&cases[..1]).auto_vs_best_ratio_max, 1.0);
    }
}
