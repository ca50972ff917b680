//! One run of one workload: set up, measure a window, turn what was
//! measured into named metrics. `--trace 0` gives the end-to-end metrics,
//! `--trace 1` the per-layer ledger.

use std::collections::BTreeMap;
use std::time::Instant;

use wse_model::Machine;

use crate::direct::{self, ClosedLoop, Failures, Window};
use crate::host;
use crate::json::Json;
use crate::ledger::{self, model_work_in_resolve};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::serve::{self, Record, ServeRun};
use crate::stats::{
    highest_supported, mean, median, percentile, split_points, supported, Segmented,
};
use crate::trace::{attributed_ns, self_times, Tracer};
use crate::workloads::{accuracy, build_cases, Case, Workload};

/// Segments per window: enough for a median that shrugs off one stall, few
/// enough that each still holds many requests.
pub const SEGMENTS: usize = 5;
/// Unmeasured lead-in before every window: after an idle spell this host
/// runs ~6 % slow for about a second, which is not the system's doing.
const LEAD_IN_S: f64 = 1.0;
/// Set-up is repeated and its median reported, so one slow page-in does not
/// read as a set-up regression: at least three times, and — for set-ups of a
/// few milliseconds — until 0.3 s have gone into it or fifteen are done.
const SETUP_REPEATS: std::ops::RangeInclusive<usize> = 3..=15;
const SETUP_BUDGET_S: f64 = 0.3;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

#[derive(Debug, Clone, Default)]
pub struct Value {
    pub value: f64,
    /// Per-segment (or per-repeat) values behind `value`; empty for a metric
    /// measured once.
    pub segments: Vec<f64>,
    /// Timing samples behind the metric; 0 where that has no meaning.
    pub samples: usize,
}

impl Value {
    fn once(value: f64) -> Value {
        Value { value, ..Value::default() }
    }

    fn of(segmented: &Segmented, samples: usize) -> Value {
        Value { value: segmented.value(), segments: segmented.segments.clone(), samples }
    }
}

#[derive(Debug)]
pub struct RunResult {
    pub workload: Workload,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Context printed under the metrics: worst model errors, self-time ledger.
    pub notes: Vec<String>,
    /// Metric name → value, for exactly the metrics of this run's table.
    pub metrics: BTreeMap<&'static str, Value>,
    pub trace: Option<Json>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn units(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let metrics = self.units().into_iter().map(|(name, unit)| {
            let value = self.metrics.get(name).map_or(0.0, |v| v.value);
            (name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// Everything `compare` and the results file need.
    pub fn detail_json(&self) -> Json {
        let metrics = self.units().into_iter().map(|(name, unit)| {
            let v = self.metrics.get(name).cloned().unwrap_or_default();
            let mut fields = vec![("value", Json::Num(v.value)), ("unit", Json::str(unit))];
            if !v.segments.is_empty() {
                fields.push((
                    "segments",
                    Json::Arr(v.segments.iter().map(|s| Json::Num(*s)).collect()),
                ));
            }
            if v.samples > 0 {
                fields.push(("samples", Json::Num(v.samples as f64)));
            }
            (name, Json::obj(fields))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failures", Json::Arr(self.failures.iter().map(Json::str).collect())),
            ("notes", Json::Arr(self.notes.iter().map(Json::str).collect())),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Every metric by name with its unit, for people.
    pub fn print(&self) {
        let mode = if self.traced { "per-layer (traced run)" } else { "end-to-end" };
        println!("== {} · {mode} ==", self.workload.name());
        for (name, unit) in self.units() {
            let v = self.metrics.get(name).cloned().unwrap_or_default();
            let mut line = format!("{name:<36} {:>16.4} {unit}", v.value);
            if v.segments.len() > 1 {
                let seg = Segmented::new(v.segments.clone());
                line += &format!(
                    "   [{:.4} .. {:.4} over {}]",
                    seg.min(),
                    seg.max(),
                    seg.segments.len()
                );
            }
            if v.samples > 0 {
                line += &format!("   n={}", v.samples);
            }
            println!("{line}");
        }
        for note in &self.notes {
            println!("  {note}");
        }
        println!(
            "attempted {}  failed {}  correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for failure in &self.failures {
            println!("FAILED {failure}");
        }
    }
}

/// What a window measured, per segment.
struct Measured {
    attempted: u64,
    failed: u64,
    throughput: Segmented,
    pe_rate: Segmented,
    p50_us: Segmented,
    p90_us: Segmented,
    latency_samples: usize,
}

impl Measured {
    /// From one `[throughput, PE-cycle rate, p50 µs, p90 µs]` row per segment.
    fn new(attempted: u64, failed: u64, latency_samples: usize, rows: &[[f64; 4]]) -> Measured {
        let column = |i: usize| Segmented::new(rows.iter().map(|row| row[i]).collect());
        Measured {
            attempted,
            failed,
            throughput: column(0),
            pe_rate: column(1),
            p50_us: column(2),
            p90_us: column(3),
            latency_samples,
        }
    }

    fn throughput_rps(&self) -> f64 {
        self.throughput.value()
    }
}

/// The `q`-th percentile over a closed loop's *distinct operations* of each
/// operation's median latency. The simulator is deterministic, so how one
/// operation's latency varies over time is host noise by construction; how
/// latency varies across the operations of the mix is the system's. p50 is
/// the typical kind of request, p90 the heavy kind.
fn across_operations(samples: &[(u32, f64)], q: f64) -> f64 {
    let mut by_class: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for (class, value) in samples {
        by_class.entry(*class).or_default().push(*value);
    }
    percentile(&by_class.values().map(|v| median(v)).collect::<Vec<_>>(), q)
}

fn measure_direct(window: &Window) -> Measured {
    let mut rows = Vec::new();
    let mut first_round = 0;
    for end_round in split_points(window.rounds.len(), SEGMENTS) {
        let (ops_from, ns_from) =
            if first_round == 0 { (0, 0) } else { window.rounds[first_round - 1] };
        let ops = &window.ops[ops_from..window.rounds[end_round - 1].0];
        // Every round carries the same requests, so a segment's rate is one
        // round's work over the segment's *median* round time: host noise
        // only ever adds time, and a mean would keep every burst of it.
        let rounds = &window.rounds[first_round..end_round];
        let mut previous = ns_from;
        let round_s: Vec<f64> = rounds
            .iter()
            .map(|(_, ns)| (ns - std::mem::replace(&mut previous, *ns)) as f64 / 1e9)
            .collect();
        let per_round = |total: f64| total / rounds.len() as f64 / median(&round_s);
        let latencies: Vec<(u32, f64)> =
            ops.iter().map(|op| (op.class, op.latency_ns as f64 / 1e3)).collect();
        rows.push([
            per_round(ops.iter().map(|op| f64::from(op.items)).sum()),
            per_round(ops.iter().map(|op| op.pe_cycles as f64).sum()),
            across_operations(&latencies, 0.5),
            across_operations(&latencies, 0.9),
        ]);
        first_round = end_round;
    }
    let failed = window.ops.iter().map(|op| u64::from(op.failed)).sum();
    Measured::new(window.items(), failed, window.ops.len(), &rows)
}

fn measure_serve(cases: &[Case], run: &ServeRun, window_ns: u64) -> Measured {
    let mut rows = Vec::new();
    for segment in 0..SEGMENTS as u64 {
        let (from, to) =
            (segment * window_ns / SEGMENTS as u64, (segment + 1) * window_ns / SEGMENTS as u64);
        let records: Vec<&Record> =
            run.records.iter().filter(|r| r.ok && (from..to).contains(&r.due_ns)).collect();
        if records.is_empty() {
            continue;
        }
        // From the segment's first due instant to its last completion: the
        // rate the service achieved, not the rate it was offered.
        let last = records.iter().map(|r| r.completed_ns()).max().unwrap_or(to);
        let seconds = last.saturating_sub(from).max(1) as f64 / 1e9;
        let latencies: Vec<f64> = records.iter().map(|r| r.latency_ns() as f64 / 1e3).collect();
        rows.push([
            records.len() as f64 / seconds,
            records.iter().map(|r| cases[r.case].pe_cycles() as f64).sum::<f64>() / seconds,
            percentile(&latencies, 0.5),
            percentile(&latencies, 0.9),
        ]);
    }
    let done = run.records.iter().filter(|r| r.ok).count();
    Measured::new(run.records.len() as u64, (run.records.len() - done) as u64, done, &rows)
}

fn window_ns(plan: &[serve::Due]) -> u64 {
    // The schedule is periodic: the window ends one period after the last
    // due instant.
    let last = plan.last().map_or(0, |d| d.due_ns);
    let period = plan.iter().map(|d| d.due_ns).find(|due| *due > 0).unwrap_or(1);
    last + period
}

/// The front door of a workload after set-up.
enum Door<'a> {
    Loop(Box<dyn ClosedLoop + 'a>),
    Service(wse_collectives::CollectiveService),
}

fn open_door<'a>(options: &Options, cases: &'a [Case], failures: &mut Failures) -> Door<'a> {
    if options.workload.is_serve() {
        Door::Service(serve::warm_service(options.workload, cases, failures))
    } else {
        Door::Loop(direct::build_loop(options.workload, cases, options.seed, failures))
    }
}

/// What one window through a door produced.
struct Ran {
    measured: Measured,
    /// The service's side of an open-loop window.
    served: Option<ServeRun>,
    /// Plan-cache `(hits, misses)` of the front door over the window.
    cache: (u64, u64),
    /// Wall time of the measured window itself (lead-in excluded).
    wall_ns: u64,
}

/// Run a window through an opened door.
fn run_door(
    options: &Options,
    cases: &[Case],
    door: Door<'_>,
    seconds: f64,
    failures: &mut Failures,
    tracer: Option<&mut Tracer>,
) -> Ran {
    let lead_in = if options.quick { 0.0 } else { LEAD_IN_S };
    match door {
        Door::Loop(mut driver) => {
            if lead_in > 0.0 {
                direct::run_window(driver.as_mut(), lead_in, failures, None);
            }
            let before = driver.cache_counts();
            let window = direct::run_window(driver.as_mut(), seconds, failures, tracer);
            let after = driver.cache_counts();
            Ran {
                measured: measure_direct(&window),
                served: None,
                cache: (after.0 - before.0, after.1 - before.1),
                wall_ns: window.rounds.last().map_or(0, |(_, ns)| *ns),
            }
        }
        Door::Service(service) => {
            // The lead-in is part of the schedule; its requests are dropped
            // and the clock rebased before anything is measured.
            let plan =
                serve::schedule(options.workload, cases.len(), seconds + lead_in, options.seed);
            let traced = tracer.is_some();
            let mut run =
                serve::run_window(options.workload, cases, service, &plan, traced, failures);
            let skip_ns =
                plan.iter().map(|d| d.due_ns).find(|due| *due as f64 >= lead_in * 1e9).unwrap_or(0);
            run.drop_lead_in(skip_ns);
            let wall_ns = window_ns(&plan) - skip_ns;
            Ran {
                measured: measure_serve(cases, &run, wall_ns),
                cache: (run.executor.plan_hits, run.executor.plan_misses),
                served: Some(run),
                wall_ns,
            }
        }
    }
}

pub fn run(options: &Options) -> RunResult {
    if options.trace {
        run_traced(options)
    } else {
        run_untraced(options)
    }
}

fn run_untraced(options: &Options) -> RunResult {
    let machine = Machine::wse2();
    let mut failures = Failures::default();
    // Set-up, timed whole: inputs, references, front door, warm-up. The
    // early repeats are thrown away; the window runs on the last.
    let mut setup_s: Vec<f64> = Vec::new();
    while !options.quick
        && setup_s.len() + 1 < *SETUP_REPEATS.end()
        && (setup_s.len() + 1 < *SETUP_REPEATS.start()
            || setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let started = Instant::now();
        let cases = build_cases(options.workload, options.quick, options.seed, &machine);
        if let Door::Service(service) = open_door(options, &cases, &mut Failures::default()) {
            service.shutdown();
        }
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let started = Instant::now();
    let cases = build_cases(options.workload, options.quick, options.seed, &machine);
    let door = open_door(options, &cases, &mut failures);
    setup_s.push(started.elapsed().as_secs_f64());

    let Ran { measured, served, .. } =
        run_door(options, &cases, door, options.seconds, &mut failures, None);
    let figures = accuracy(&cases);
    let setup = Segmented::new(setup_s);
    let attempted = measured.attempted.max(1);
    let failed = failures.count.max(measured.failed).min(attempted);
    let n = measured.latency_samples;
    let metrics = BTreeMap::from([
        ("setup_s", Value::of(&setup, 0)),
        ("throughput_rps", Value::of(&measured.throughput, attempted as usize)),
        ("sim_pe_cycles_per_s", Value::of(&measured.pe_rate, attempted as usize)),
        ("latency_p50_us", Value::of(&measured.p50_us, n)),
        ("latency_p90_us", Value::of(&measured.p90_us, n)),
        ("peak_rss_mb", Value::once(host::peak_rss_mb())),
        ("ok_share", Value::once((attempted - failed) as f64 / attempted as f64)),
        ("sim_cycles_total", Value::once(figures.sim_cycles_total as f64)),
        ("model_error_mean_pct", Value::once(figures.model_error_mean_pct)),
        ("model_error_max_pct", Value::once(figures.model_error_max_pct)),
        ("optimality_ratio_max", Value::once(figures.optimality_ratio_max)),
        ("auto_vs_best_ratio_max", Value::once(figures.auto_vs_best_ratio_max)),
    ]);
    // Where `model_error_max_pct` comes from, so an outlier has a name.
    let mut by_error: Vec<&Case> = cases.iter().collect();
    by_error.sort_by(|a, b| b.model_error_pct().total_cmp(&a.model_error_pct()));
    let mut notes: Vec<String> = by_error
        .iter()
        .take(3)
        .map(|c| {
            format!(
                "model error {:.1} %: {} predicted {:.1} measured {}",
                c.model_error_pct(),
                c.label,
                c.predicted_cycles,
                c.measured_cycles()
            )
        })
        .collect();
    if let Some(run) = &served {
        // An open loop is only as good as its generator: say how late it ran.
        let late: Vec<f64> = run.records.iter().map(|r| r.late_ns() as f64 / 1e3).collect();
        notes.push(format!(
            "generator late: p50 {:.0} us, p99 {:.0} us, max {:.0} us over {} requests",
            percentile(&late, 0.5),
            percentile(&late, 0.99),
            late.iter().copied().fold(0.0, f64::max),
            late.len()
        ));
        if !supported(n, 0.9) {
            notes.push(format!(
                "fewer than ten of the {n} latency samples lie beyond p90: indicative only"
            ));
        }
    }
    RunResult {
        workload: options.workload,
        traced: false,
        attempted,
        failed,
        failures: failures.examples,
        notes,
        metrics,
        trace: None,
    }
}

/// Spans of a served request, assembled after the fact from the clocks the
/// generator and collector took: the request (due → completion) with its
/// `serve.submit` and `serve.wait` children; what neither covers —
/// lateness, queueing, the batch window, execution — stays the request's
/// self time and is attributed by subtraction.
fn serve_spans(tracer: &mut Tracer, run: &ServeRun) {
    for (id, r) in run.records.iter().enumerate() {
        let request =
            tracer.push("request", None, id as u64, r.due_ns, r.completed_ns().max(r.wake_ns));
        tracer.push("serve.submit", Some(request), id as u64, r.call_ns, r.ret_ns);
        tracer.push("serve.wait", Some(request), id as u64, r.wait_start_ns, r.wake_ns);
    }
    tracer.count("serve.requests", run.records.len() as u64);
    tracer.count("serve.batches", run.service.batches);
}

fn run_traced(options: &Options) -> RunResult {
    let machine = Machine::wse2();
    let mut failures = Failures::default();
    let cases = build_cases(options.workload, options.quick, options.seed, &machine);
    let phase = options.seconds / 4.0;

    // Phase A: an untraced window, the base of `trace.overhead_pct`.
    let door = open_door(options, &cases, &mut failures);
    let plain = run_door(options, &cases, door, phase, &mut failures, None).measured;

    // Phase B: the same window with spans around every layer call.
    let door = open_door(options, &cases, &mut failures);
    let mut tracer = Tracer::new();
    let Ran { measured: traced, served, cache: (hits, misses), wall_ns } =
        run_door(options, &cases, door, phase, &mut failures, Some(&mut tracer));
    if options.workload == Workload::PaperSweepCold {
        // Outside the window: repeat the model work each cold resolve hid,
        // so resolve time splits into model and plan-builder.
        for case in &cases {
            tracer.span("model.replay", 0, || model_work_in_resolve(&case.request, &machine));
        }
    }
    if let Some(run) = &served {
        serve_spans(&mut tracer, run);
    }

    // Phase C: the layer probes.
    let probes = ledger::probe(&cases, options.seconds / 2.0, &machine);

    let mut metrics: BTreeMap<&'static str, Value> = BTreeMap::new();
    for (name, value) in &probes.metrics {
        let samples = probes.samples.get(name).copied().unwrap_or(0);
        metrics.insert(name, Value { value: *value, segments: Vec::new(), samples });
    }
    let mut put = |name: &'static str, value: f64| {
        metrics.insert(name, Value::once(value));
    };
    let total = |f: fn(&Case) -> u64| cases.iter().map(f).sum::<u64>() as f64;
    put("plan.wavelets_sent_total", total(|c| c.wavelets_sent));
    put("fabric.energy_hops_total", total(|c| c.reference.report.energy_hops));
    put("fabric.stall_cycles_total", total(|c| c.reference.report.stall_cycles));
    put("cache.hit_ratio", hits as f64 / (hits + misses).max(1) as f64);

    let self_ns = self_times(&tracer.spans);
    let of = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
    match &served {
        None => {
            // Shares of the traced window's wall time. On the sweep the
            // replayed model work moves from `plan.resolve` to the model;
            // rounds per window differ, so scale the one replay pass.
            let passes = traced.attempted as f64 / cases.len() as f64;
            let hidden_model = of("model.replay") * passes;
            let wall = wall_ns as f64;
            put(
                "model.time_share",
                (of("model.predict") + of("model.lower_bound") + hidden_model) / wall,
            );
            put("plan.time_share", (of("plan.resolve") - hidden_model).max(0.0) / wall);
            put("fabric.run_share", of("fabric.run") / wall);
            let replayed = self_ns.get("model.replay").copied().unwrap_or(0);
            put("trace.accounted_share", (attributed_ns(&self_ns) - replayed) as f64 / wall);
            // No serve code runs on a closed loop.
            for layer in PER_LAYER.iter().filter(|m| m.name.starts_with("serve.")) {
                put(layer.name, 0.0);
            }
        }
        Some(run) => {
            // Requests overlap, so shares are of a request's latency: what
            // the layer costs for this mix ÷ the mean due-to-done latency.
            let probes = &probes;
            let weight = |stage: &str| {
                let per_request =
                    run.records.iter().map(|r| probes.case_stage_us(&cases[r.case], stage));
                mean(&per_request.collect::<Vec<_>>())
            };
            let latency_us =
                mean(&run.records.iter().map(|r| r.latency_ns() as f64 / 1e3).collect::<Vec<_>>());
            let priced = options.workload == Workload::ServeBurstAdmit;
            put(
                "model.time_share",
                if priced { weight("model.predict") / latency_us } else { 0.0 },
            );
            put("plan.time_share", 0.0);
            put("fabric.run_share", weight("fabric.run") / latency_us);
            let covered = attributed_ns(&self_ns) as f64;
            put("trace.accounted_share", covered / (covered + of("request")).max(1.0));
            serve_metrics(&mut put, run, &cases, traced.p50_us.value(), weight("session.run"));
        }
    }
    let base = plain.throughput_rps();
    put("trace.overhead_pct", (base - traced.throughput_rps()) / base.max(1e-9) * 100.0);
    put("trace.spans", tracer.spans.len() as f64);

    // The self-time ledger of the traced window, largest first.
    let mut ledger: Vec<(&&str, &u64)> = self_ns.iter().collect();
    ledger.sort_by(|a, b| b.1.cmp(a.1));
    let all_self: u64 = self_ns.values().sum();
    let notes = ledger
        .iter()
        .map(|(name, ns)| {
            format!(
                "self time {name:<20} {:>10.3} ms  {:>5.1} %",
                **ns as f64 / 1e6,
                **ns as f64 / all_self.max(1) as f64 * 100.0
            )
        })
        .collect();

    let attempted = (plain.attempted + traced.attempted).max(1);
    RunResult {
        workload: options.workload,
        traced: true,
        attempted,
        failed: failures.count.min(attempted),
        failures: failures.examples,
        notes,
        metrics,
        trace: Some(tracer.to_json(options.workload.name())),
    }
}

fn serve_metrics(
    put: &mut dyn FnMut(&'static str, f64),
    run: &ServeRun,
    cases: &[Case],
    latency_p50_us: f64,
    session_run_us: f64,
) {
    let done: Vec<&Record> = run.records.iter().filter(|r| r.ok).collect();
    let us =
        |f: &dyn Fn(&Record) -> u64| done.iter().map(|r| f(r) as f64 / 1e3).collect::<Vec<f64>>();
    put("serve.submit_us_p50", percentile(&us(&|r| r.ret_ns - r.call_ns), 0.5));
    // Queue + batch window + dispatch + wake-up: what the service adds to
    // running the same mix directly on a warm session.
    put("serve.overhead_us_p50", (latency_p50_us - session_run_us).max(0.0));
    // Where the collector really had to wait: its wake-up against the
    // service's own completion clock.
    let wakes: Vec<f64> = done
        .iter()
        .filter(|r| r.blocked)
        .map(|r| r.wake_ns.saturating_sub(r.completed_ns()) as f64 / 1e3)
        .collect();
    put("serve.wake_us_p50", percentile(&wakes, 0.5));
    put("serve.mean_batch_size", run.service.mean_batch_size());
    put(
        "serve.deadline_flush_share",
        run.service.deadline_flushes as f64 / run.service.batches.max(1) as f64,
    );
    put("serve.max_queue_depth", run.max_queue_depth as f64);
    put("serve.rejected", (run.service.rejected + run.service.deferral_overflow) as f64);
    put("serve.deferred", run.service.deferred as f64);
    put("serve.over_budget", run.service.over_budget as f64);
    // Small and large: the halves of the mix by predicted cycles.
    let mut predicted: Vec<f64> = cases.iter().map(|c| c.predicted_cycles).collect();
    predicted.sort_by(f64::total_cmp);
    let cut = predicted[(predicted.len() - 1) / 2];
    let class = |large: bool| {
        let values: Vec<f64> = done
            .iter()
            .filter(|r| (cases[r.case].predicted_cycles > cut) == large)
            .map(|r| r.latency_ns() as f64 / 1e3)
            .collect();
        percentile(&values, 0.5)
    };
    put("serve.small_latency_p50_us", class(false));
    put("serve.large_latency_p50_us", class(true));
    let latencies = us(&|r| r.latency_ns());
    // Named p99; with fewer than a thousand requests it is the highest
    // percentile that still has ten samples beyond it.
    put("serve.latency_p99_us", percentile(&latencies, highest_supported(latencies.len())));
    put(
        "serve.prediction_error_mean_cycles",
        run.executor.prediction.mean_signed_error_cycles.abs(),
    );
    put("serve.generator_late_us_p99", percentile(&us(&|r| r.late_ns()), 0.99));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_percentiles_rank_operations_not_moments() {
        // Three operations; the slow one is hit by noise once. Its median —
        // and so every percentile across operations — does not move.
        let mut samples: Vec<(u32, f64)> = Vec::new();
        for _ in 0..5 {
            samples.extend([(0, 10.0), (1, 50.0), (2, 1000.0)]);
        }
        samples.push((2, 9000.0));
        assert_eq!(across_operations(&samples, 0.5), 50.0);
        assert_eq!(across_operations(&samples, 0.9), 1000.0);
    }

    #[test]
    fn quick_runs_produce_every_metric_of_their_table() {
        for workload in [Workload::BatchSmallDoors, Workload::ServePacedSmall] {
            for trace in [false, true] {
                let options = Options { workload, seed: 2, seconds: 0.2, trace, quick: true };
                let result = run(&options);
                assert!(result.correct(), "{:?}", result.failures);
                let line = Json::parse(&result.result_line()).unwrap();
                let metrics = line.get("metrics").unwrap().as_obj().unwrap();
                let expected = if trace { PER_LAYER.len() } else { END_TO_END.len() };
                assert_eq!(metrics.len(), expected);
                assert_eq!(
                    line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                    ["correct", "attempted", "failed", "metrics"]
                );
                for (name, _) in result.units() {
                    assert!(
                        result.metrics.contains_key(name),
                        "{name} missing on {}",
                        workload.name()
                    );
                }
                assert_eq!(result.trace.is_some(), trace);
            }
        }
    }
}
