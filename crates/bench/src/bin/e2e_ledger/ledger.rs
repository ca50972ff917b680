//! The per-layer ledger: every layer timed from outside, one public call at
//! a time, on the workload's own requests and inputs. This is what says what
//! a cold resolve, a cache hit or a fabric reset costs even on a workload
//! whose measured window never pays for one.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use wse_collectives::{
    AllReducePattern, BatchItem, CollectiveKind, CollectiveRequest, Executor, ReducePattern,
    Schedule, Session, Topology,
};
use wse_model::{AutogenSolver, Machine};

use crate::direct::replay;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::workloads::{lower_bound_cycles, Case};

/// At most this many of a workload's cases are probed (evenly spaced).
const MAX_PROBED: usize = 12;
/// Repetitions per stage when the time budget allows.
const REPEATS: usize = 7;
/// Auto-Gen's DP is cubic in the line length; longer lines are not probed.
const MAX_SOLVER_LINE: u32 = 256;

fn time_us<T>(f: impl FnOnce() -> T) -> f64 {
    let started = Instant::now();
    black_box(f());
    started.elapsed().as_secs_f64() * 1e6
}

/// The line length whose Auto-Gen solve a request's plan generation pays
/// for, if its schedule is Auto-Gen based.
fn autogen_line(request: &CollectiveRequest) -> Option<u32> {
    match (request.schedule, request.topology) {
        (
            Schedule::Reduce1d(ReducePattern::AutoGen)
            | Schedule::AllReduce1d(AllReducePattern::ReduceBroadcast(ReducePattern::AutoGen)),
            Topology::Line(p),
        ) => Some(p),
        _ => None,
    }
}

/// The selection call `resolve` makes for a `Schedule::Auto` request: under
/// `Auto`, `predicted_cycles` is exactly that `selection::choose_*` call.
fn select(request: &CollectiveRequest, machine: &Machine) -> f64 {
    request
        .with_schedule(Schedule::Auto)
        .predicted_cycles(machine)
        .expect("every workload request is valid under Schedule::Auto")
}

/// The model work hidden inside `resolve`, repeated on its own so a cold
/// resolve can be split into model time and plan-builder time: the Auto-Gen
/// solve for Auto-Gen schedules, the selection for `Schedule::Auto`.
pub fn model_work_in_resolve(request: &CollectiveRequest, machine: &Machine) {
    if let Some(p) = autogen_line(request) {
        black_box(AutogenSolver::new(p.into()).best_tree(request.vector_len.into(), machine));
    } else if request.schedule == Schedule::Auto && request.kind != CollectiveKind::Broadcast {
        black_box(select(request, machine));
    }
}

/// Median stage times of one case, in microseconds.
#[derive(Debug, Clone, Default)]
struct CaseTimes {
    stages: BTreeMap<&'static str, f64>,
}

impl CaseTimes {
    fn get(&self, stage: &str) -> f64 {
        self.stages.get(stage).copied().unwrap_or(0.0)
    }

    /// What one warm run costs below the session: checkout (reset) through
    /// read-back, plus the plan-cache hit.
    fn warm_stage_sum(&self) -> f64 {
        ["cache.hit", "fabric.reset", "fabric.apply", "fabric.load", "fabric.run", "fabric.read"]
            .iter()
            .map(|s| self.get(s))
            .sum()
    }
}

#[derive(Debug, Default)]
pub struct Ledger {
    /// Metric name → value, for the layer metrics the probes produce.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Samples behind each `_p50` (per probed case or per probe target).
    pub samples: BTreeMap<&'static str, usize>,
    /// The probed cases' median stage times.
    per_case: Vec<(CollectiveRequest, CaseTimes)>,
}

impl Ledger {
    /// Median time of one stage on one case, in µs (the mean over the probed
    /// cases if this one was not probed).
    pub fn case_stage_us(&self, case: &Case, stage: &str) -> f64 {
        match self.per_case.iter().find(|(request, _)| *request == case.request) {
            Some((_, times)) => times.get(stage),
            None => mean(&self.per_case.iter().map(|(_, t)| t.get(stage)).collect::<Vec<_>>()),
        }
    }
}

fn probed(cases: &[Case]) -> Vec<&Case> {
    let n = cases.len().min(MAX_PROBED);
    (0..n).map(|i| &cases[i * cases.len() / n]).collect()
}

fn probe_case(case: &Case, machine: &Machine, deadline: Instant) -> (CaseTimes, usize) {
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut session = Session::new();
    let resolved = session.plan(&case.request).expect("set-up resolved this request");
    let mut repeats = 0;
    while repeats < REPEATS && (repeats == 0 || Instant::now() < deadline) {
        repeats += 1;
        let mut push = |stage: &'static str, us: f64| samples.entry(stage).or_default().push(us);
        push("model.predict", time_us(|| case.request.predicted_cycles(machine)));
        push("model.select", time_us(|| select(&case.request, machine)));
        let resolve_us = time_us(|| case.request.resolve(machine));
        let model_us = time_us(|| model_work_in_resolve(&case.request, machine));
        push("plan.resolve_cold", (resolve_us - model_us).max(0.0));
        push(
            "cache.hit",
            time_us(|| (0..64).for_each(|_| drop(black_box(session.plan(&case.request))))) / 64.0,
        );
        push("session.run", time_us(|| session.run(&case.request, &case.inputs)));
        // A fresh map pays `Fabric::new`; the second replay pays `reset`.
        let mut tracer = Tracer::new();
        let mut fabrics = HashMap::new();
        for _ in 0..2 {
            let _ = black_box(replay(&mut fabrics, &resolved.plan, &case.inputs, 0, &mut tracer));
        }
        for span in &tracer.spans {
            push(span.name, span.duration_ns() as f64 / 1e3);
        }
    }
    let stages = samples.into_iter().map(|(stage, values)| (stage, median(&values))).collect();
    (CaseTimes { stages }, repeats)
}

/// Probe every layer on (a sample of) the workload's cases within roughly
/// `budget_s` seconds. Every probe runs at least once, so a tight budget
/// makes the ledger thinner, never incomplete.
pub fn probe(cases: &[Case], budget_s: f64, machine: &Machine) -> Ledger {
    let opened = Instant::now();
    let at = |share: f64| opened + std::time::Duration::from_secs_f64(budget_s * share);
    let sample = probed(cases);
    let mut ledger = Ledger::default();

    // 60 % of the budget: the per-case stage probes.
    let mut times = Vec::new();
    let mut min_repeats = usize::MAX;
    for (i, case) in sample.iter().enumerate() {
        let (case_times, repeats) =
            probe_case(case, machine, at(0.6 * (i + 1) as f64 / sample.len() as f64));
        times.push(case_times);
        min_repeats = min_repeats.min(repeats);
    }
    let over_cases = |stage: &str| mean(&times.iter().map(|t| t.get(stage)).collect::<Vec<_>>());
    for (metric, stage) in [
        ("model.predict_us_p50", "model.predict"),
        ("model.select_us_p50", "model.select"),
        ("plan.resolve_cold_us_p50", "plan.resolve_cold"),
        ("cache.hit_us_p50", "cache.hit"),
        ("fabric.new_us_p50", "fabric.new"),
        ("fabric.apply_us_p50", "fabric.apply"),
        ("fabric.load_us_p50", "fabric.load"),
        ("fabric.run_us_p50", "fabric.run"),
        ("fabric.read_us_p50", "fabric.read"),
        ("fabric.reset_us_p50", "fabric.reset"),
        ("session.run_us_p50", "session.run"),
    ] {
        ledger.metrics.insert(metric, over_cases(stage));
        ledger.samples.insert(metric, min_repeats);
    }
    let self_us: Vec<f64> =
        times.iter().map(|t| (t.get("session.run") - t.warm_stage_sum()).max(0.0)).collect();
    ledger.metrics.insert("session.self_us_p50", mean(&self_us));
    ledger.samples.insert("session.self_us_p50", min_repeats);

    // Host time per simulated event, over the probed cases' fabric.run.
    let run_ns: f64 = times.iter().map(|t| t.get("fabric.run") * 1e3).sum();
    let pe_cycles: u64 = sample.iter().map(|c| c.pe_cycles()).sum();
    let hops: u64 = sample.iter().map(|c| c.reference.report.energy_hops).sum();
    ledger.metrics.insert("fabric.host_ns_per_pe_cycle", run_ns / pe_cycles.max(1) as f64);
    ledger.metrics.insert("fabric.host_ns_per_hop", run_ns / hops.max(1) as f64);

    // 15 %: the Auto-Gen solve per distinct line length (a grid reduces
    // along its rows), and the lower bound per distinct topology.
    let mut lines: Vec<u32> = cases
        .iter()
        .map(|c| match c.request.topology {
            Topology::Line(p) => p,
            Topology::Grid(dim) => dim.width,
        })
        .filter(|p| *p <= MAX_SOLVER_LINE)
        .collect();
    lines.sort_unstable();
    lines.dedup();
    let mut solve_ms = vec![Vec::new(); lines.len()];
    let mut bound_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut bounded: Vec<&Case> = Vec::new();
    for case in cases.iter().filter(|c| c.lower_bound.is_some()) {
        if !bounded.iter().any(|seen| seen.request.topology == case.request.topology) {
            bounded.push(case);
        }
    }
    let mut repeats = 0;
    while repeats < 5 && (repeats == 0 || Instant::now() < at(0.75)) {
        repeats += 1;
        for (slot, &p) in solve_ms.iter_mut().zip(&lines) {
            slot.push(time_us(|| AutogenSolver::new(p.into()).best_cost(64, machine)) / 1e3);
        }
        for case in &bounded {
            let key = format!("{:?}", case.request.topology);
            let ms = time_us(|| lower_bound_cycles(&case.request, machine)) / 1e3;
            bound_ms.entry(key).or_default().push(ms);
        }
    }
    let medians = |groups: &mut dyn Iterator<Item = &Vec<f64>>| {
        mean(&groups.map(|g| median(g)).collect::<Vec<_>>())
    };
    ledger.metrics.insert("model.autogen_solve_ms_p50", medians(&mut solve_ms.iter()));
    ledger.metrics.insert("model.lower_bound_ms_p50", medians(&mut bound_ms.values()));
    ledger.samples.insert("model.autogen_solve_ms_p50", repeats);
    ledger.samples.insert("model.lower_bound_ms_p50", repeats);

    // The rest: the two batch doors on the probed cases, twice each so the
    // executor's pool is reused within a batch.
    let batch: Vec<BatchItem> = sample
        .iter()
        .chain(sample.iter())
        .map(|c| BatchItem::new(c.request, c.inputs.clone()))
        .collect();
    let executor = Executor::new();
    let mut session = Session::new();
    black_box(executor.run_batch(&batch));
    black_box(session.run_batch(&batch));
    let (mut executor_us, mut session_us) = (Vec::new(), Vec::new());
    let mut repeats = 0;
    while repeats < 5 && (repeats == 0 || Instant::now() < at(1.0)) {
        repeats += 1;
        executor_us.push(time_us(|| executor.run_batch(&batch)));
        session_us.push(time_us(|| session.run_batch(&batch)));
    }
    let batch_us = median(&executor_us);
    let workers = std::thread::available_parallelism().map_or(1, usize::from).min(batch.len());
    let useful_us: f64 = 2.0 * times.iter().map(CaseTimes::warm_stage_sum).sum::<f64>();
    let stats = executor.stats();
    ledger.metrics.insert("executor.batch_us_p50", batch_us);
    ledger.metrics.insert(
        "executor.self_us_per_item",
        (batch_us * workers as f64 - useful_us).max(0.0) / batch.len() as f64,
    );
    ledger.metrics.insert(
        "executor.pool_reuse_ratio",
        stats.fabric_reuses as f64 / (stats.fabric_reuses + stats.fabrics_created).max(1) as f64,
    );
    ledger.metrics.insert("executor.speedup_vs_session", median(&session_us) / batch_us.max(1e-9));
    for metric in
        ["executor.batch_us_p50", "executor.self_us_per_item", "executor.speedup_vs_session"]
    {
        ledger.samples.insert(metric, repeats);
    }
    ledger.per_case = sample.iter().map(|c| c.request).zip(times).collect();
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{build_cases, Workload};

    #[test]
    fn a_tight_budget_still_fills_every_probe() {
        let machine = Machine::wse2();
        let cases = build_cases(Workload::ServeBurstAdmit, false, 1, &machine);
        let ledger = probe(&cases, 0.0, &machine);
        for metric in [
            "model.predict_us_p50",
            "model.autogen_solve_ms_p50",
            "model.lower_bound_ms_p50",
            "plan.resolve_cold_us_p50",
            "cache.hit_us_p50",
            "fabric.new_us_p50",
            "fabric.reset_us_p50",
            "fabric.run_us_p50",
            "session.run_us_p50",
            "executor.batch_us_p50",
            "executor.speedup_vs_session",
        ] {
            assert!(ledger.metrics[metric] > 0.0, "{metric} was not measured");
        }
        assert!(ledger.metrics["fabric.host_ns_per_pe_cycle"] > 0.0);
        assert!((0.0..=1.0).contains(&ledger.metrics["executor.pool_reuse_ratio"]));
    }
}
