//! The four closed-loop workloads: one client that issues its next request
//! when the previous one returns. A window is a whole number of *rounds*
//! (one pass over the workload's fixed request list), so every segment of
//! the window has the same composition and differs only by host noise.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use wse_collectives::{BatchItem, CollectiveError, CollectivePlan, Executor, RunOutcome, Session};
use wse_fabric::{Fabric, FabricParams, GridDim};
use wse_model::Machine;

use crate::rng::Rng;
use crate::trace::Tracer;
use crate::workloads::{lower_bound_cycles, Case, Workload};

/// One timed operation of a closed loop.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Which distinct operation of the workload this was.
    pub class: u32,
    pub latency_ns: u64,
    /// Requests the operation carried (64 for a batch, else 1).
    pub items: u32,
    pub failed: u32,
    pub cycles: u64,
    pub pe_cycles: u64,
}

/// Failed requests, by description; the list is capped, the count is not.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub examples: Vec<String>,
}

impl Failures {
    pub fn record(&mut self, what: impl FnOnce() -> String) {
        self.count += 1;
        if self.examples.len() < 20 {
            self.examples.push(what());
        }
    }
}

/// Compare a measured result with its case's reference.
pub fn verify(
    case: &Case,
    result: &Result<RunOutcome, CollectiveError>,
    failures: &mut Failures,
) -> bool {
    let problem = match (result, &case.defect) {
        (Err(error), _) => Some(format!("error: {error}")),
        (Ok(_), Some(defect)) => Some(defect.clone()),
        (Ok(outcome), None) if *outcome != case.reference => {
            Some("RunOutcome differs from the set-up-time reference".to_string())
        }
        _ => None,
    };
    match problem {
        Some(problem) => {
            failures.record(|| format!("{}: {problem}", case.label));
            false
        }
        None => true,
    }
}

/// What `runner::execute_on` does, one public call at a time, with a span
/// around each stage: checkout (`Fabric::new` or `reset`) → `apply` →
/// `set_local*` → `run` → `local`.
pub fn replay(
    fabrics: &mut HashMap<GridDim, Fabric>,
    plan: &CollectivePlan,
    inputs: &[Vec<f32>],
    request: u64,
    tracer: &mut Tracer,
) -> Result<RunOutcome, CollectiveError> {
    let dim = plan.dim();
    if let Some(fabric) = fabrics.get_mut(&dim) {
        tracer.span("fabric.reset", request, || fabric.reset());
    } else {
        let fabric =
            tracer.span("fabric.new", request, || Fabric::new(dim, FabricParams::default()));
        fabrics.insert(dim, fabric);
    }
    let fabric = fabrics.get_mut(&dim).expect("inserted above");
    tracer.span("fabric.apply", request, || plan.apply(fabric));
    tracer.span("fabric.load", request, || {
        for ((at, (offset, _)), data) in plan.data_pes().iter().zip(plan.input_specs()).zip(inputs)
        {
            if *offset == 0 {
                fabric.set_local(*at, data);
            } else {
                fabric.set_local_at(*at, *offset, data);
            }
        }
    });
    let report = tracer.span("fabric.run", request, || fabric.run())?;
    tracer.count("fabric.runs", 1);
    tracer.count("fabric.cycles", report.cycles);
    let outputs = tracer.span("fabric.read", request, || {
        plan.result_pes()
            .iter()
            .zip(plan.output_specs())
            .map(|(at, (offset, len))| {
                let start = *offset as usize;
                (*at, fabric.local(*at)[start..start + *len as usize].to_vec())
            })
            .collect()
    });
    Ok(RunOutcome { report, outputs })
}

/// A closed-loop workload. `round` issues the fixed request list once;
/// with a tracer it replays `Session::run` stage by stage instead.
pub trait ClosedLoop {
    fn round(
        &mut self,
        ops: &mut Vec<OpSample>,
        failures: &mut Failures,
        tracer: Option<&mut Tracer>,
    );
    /// `(plan hits, plan misses)` of the front doors so far.
    fn cache_counts(&self) -> (u64, u64);
}

fn op_sample(class: usize, case: &Case, latency_ns: u64, ok: bool) -> OpSample {
    OpSample {
        class: class as u32,
        latency_ns,
        items: 1,
        failed: u32::from(!ok),
        cycles: case.reference.report.cycles,
        pe_cycles: case.pe_cycles(),
    }
}

/// The request order of one round: every case once, shuffled by the seed.
fn seeded_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed).fork(2).shuffle(&mut order);
    order
}

/// `engine_dense_2d` / `engine_wave_sparse`: warm `Session::run`.
pub struct EngineLoop<'a> {
    cases: &'a [Case],
    order: Vec<usize>,
    session: Session,
    fabrics: HashMap<GridDim, Fabric>,
    sequence: u64,
}

impl<'a> EngineLoop<'a> {
    /// Builds the session and runs every case once, so plans are cached and
    /// fabrics allocated before the window opens.
    pub fn warm(cases: &'a [Case], seed: u64, failures: &mut Failures) -> Self {
        let mut session = Session::new();
        for case in cases {
            verify(case, &session.run(&case.request, &case.inputs), failures);
        }
        EngineLoop {
            cases,
            order: seeded_order(cases.len(), seed),
            session,
            fabrics: HashMap::new(),
            sequence: 0,
        }
    }
}

impl ClosedLoop for EngineLoop<'_> {
    fn round(
        &mut self,
        ops: &mut Vec<OpSample>,
        failures: &mut Failures,
        mut tracer: Option<&mut Tracer>,
    ) {
        for &index in &self.order {
            let case = &self.cases[index];
            self.sequence += 1;
            let started = Instant::now();
            let result = match tracer.as_deref_mut() {
                None => self.session.run(&case.request, &case.inputs),
                Some(tracer) => {
                    let span = tracer.begin("request", self.sequence);
                    let result = tracer
                        .span("cache.hit", self.sequence, || self.session.plan(&case.request))
                        .and_then(|resolved| {
                            replay(
                                &mut self.fabrics,
                                &resolved.plan,
                                &case.inputs,
                                self.sequence,
                                tracer,
                            )
                        });
                    tracer.end(span);
                    result
                }
            };
            let latency_ns = started.elapsed().as_nanos() as u64;
            let ok = verify(case, &result, failures);
            ops.push(op_sample(index, case, latency_ns, ok));
        }
    }

    fn cache_counts(&self) -> (u64, u64) {
        let stats = self.session.stats();
        (stats.plan_hits, stats.plan_misses)
    }
}

/// `batch_small_doors`: the same 64-item batch through `Session::run_batch`
/// then `Executor::run_batch`, every outcome compared with its reference
/// (hence the two doors with each other) each round.
pub struct DoorsLoop<'a> {
    cases: &'a [Case],
    /// Case index of each batch item.
    items: Vec<usize>,
    batch: Vec<BatchItem>,
    session: Session,
    executor: Executor,
    fabrics: HashMap<GridDim, Fabric>,
    sequence: u64,
}

pub const DOOR_BATCH: usize = 64;
/// Batches per door in one timed operation.
const DOOR_GROUP: u64 = 8;

impl<'a> DoorsLoop<'a> {
    pub fn warm(cases: &'a [Case], seed: u64, failures: &mut Failures) -> Self {
        // Every case ⌊64/n⌋ or ⌈64/n⌉ times whatever the seed — the seed
        // only permutes the batch, so two seeds time the same work.
        let mut items: Vec<usize> = (0..DOOR_BATCH).map(|i| i % cases.len()).collect();
        Rng::new(seed).fork(2).shuffle(&mut items);
        let batch: Vec<BatchItem> = items
            .iter()
            .map(|&i| BatchItem::new(cases[i].request, cases[i].inputs.clone()))
            .collect();
        let mut doors = DoorsLoop {
            cases,
            items,
            batch,
            session: Session::new(),
            executor: Executor::new(),
            fabrics: HashMap::new(),
            sequence: 0,
        };
        // Two warm rounds: the first fills the caches, the second fills the
        // executor's fabric pool to its steady size.
        for _ in 0..2 {
            doors.round(&mut Vec::new(), failures, None);
        }
        doors
    }

    /// Verify one batch's results and add them to its door's sample.
    fn account(
        &self,
        results: &[Result<RunOutcome, CollectiveError>],
        sample: &mut OpSample,
        failures: &mut Failures,
    ) {
        sample.items += DOOR_BATCH as u32;
        for (&index, result) in self.items.iter().zip(results) {
            let case = &self.cases[index];
            sample.failed += u32::from(!verify(case, result, failures));
            sample.cycles += case.reference.report.cycles;
            sample.pe_cycles += case.pe_cycles();
        }
    }

    fn session_batch(
        &mut self,
        tracer: Option<&mut Tracer>,
    ) -> Vec<Result<RunOutcome, CollectiveError>> {
        let Some(tracer) = tracer else { return self.session.run_batch(&self.batch) };
        let span = tracer.begin("batch", self.sequence);
        let results = self
            .batch
            .iter()
            .map(|item| {
                let resolved =
                    tracer.span("cache.hit", self.sequence, || self.session.plan(&item.request))?;
                replay(&mut self.fabrics, &resolved.plan, &item.inputs, self.sequence, tracer)
            })
            .collect();
        tracer.end(span);
        results
    }

    fn executor_batch(
        &mut self,
        tracer: Option<&mut Tracer>,
    ) -> Vec<Result<RunOutcome, CollectiveError>> {
        match tracer {
            None => self.executor.run_batch(&self.batch),
            // The executor's workers cannot be stepped from outside: its
            // batch is one opaque span.
            Some(tracer) => tracer
                .span("executor.run_batch", self.sequence, || self.executor.run_batch(&self.batch)),
        }
    }
}

impl ClosedLoop for DoorsLoop<'_> {
    /// Eight batches through one door, then eight through the other, each
    /// group timed as one operation whose latency is the mean batch. A
    /// 64-item batch takes 3–4 ms and this host stalls for ~2 ms every
    /// ~10 ms, so single batches are either clean or half again as slow; a
    /// group of eight averages the stalls the way a 30 ms engine run does.
    /// Doors alternate by group, not by batch: the executor's workers leave
    /// the session's fabrics cold in cache, and per-batch alternation made
    /// whole runs differ by 15 % on where those threads had landed.
    fn round(
        &mut self,
        ops: &mut Vec<OpSample>,
        failures: &mut Failures,
        mut tracer: Option<&mut Tracer>,
    ) {
        for class in 0..2 {
            let mut door =
                OpSample { class, latency_ns: 0, items: 0, failed: 0, cycles: 0, pe_cycles: 0 };
            for _ in 0..DOOR_GROUP {
                self.sequence += 1;
                let started = Instant::now();
                let results = if class == 0 {
                    self.session_batch(tracer.as_deref_mut())
                } else {
                    self.executor_batch(tracer.as_deref_mut())
                };
                door.latency_ns += started.elapsed().as_nanos() as u64;
                self.account(&results, &mut door, failures);
            }
            ops.push(OpSample { latency_ns: door.latency_ns / DOOR_GROUP, ..door });
        }
    }

    fn cache_counts(&self) -> (u64, u64) {
        let (session, executor) = (self.session.stats(), self.executor.stats());
        (session.plan_hits + executor.plan_hits, session.plan_misses + executor.plan_misses)
    }
}

/// `paper_sweep_cold`: a fresh `Session` per pass; each point is priced,
/// bounded, resolved and run exactly once per pass.
pub struct SweepLoop<'a> {
    cases: &'a [Case],
    order: Vec<usize>,
    machine: Machine,
    hits: u64,
    misses: u64,
    sequence: u64,
}

impl<'a> SweepLoop<'a> {
    pub fn new(cases: &'a [Case], seed: u64) -> Self {
        SweepLoop {
            cases,
            order: seeded_order(cases.len(), seed),
            machine: Machine::wse2(),
            hits: 0,
            misses: 0,
            sequence: 0,
        }
    }
}

impl ClosedLoop for SweepLoop<'_> {
    fn round(
        &mut self,
        ops: &mut Vec<OpSample>,
        failures: &mut Failures,
        mut tracer: Option<&mut Tracer>,
    ) {
        let mut session = Session::new();
        let mut fabrics = HashMap::new();
        for &index in &self.order {
            let case = &self.cases[index];
            self.sequence += 1;
            let id = self.sequence;
            let started = Instant::now();
            let (result, predicted, bound) = match tracer.as_deref_mut() {
                None => {
                    let predicted = case.request.predicted_cycles(&self.machine);
                    let bound = lower_bound_cycles(&case.request, &self.machine);
                    (session.run(&case.request, &case.inputs), predicted, bound)
                }
                Some(tracer) => {
                    let span = tracer.begin("request", id);
                    let predicted = tracer
                        .span("model.predict", id, || case.request.predicted_cycles(&self.machine));
                    let bound = tracer.span("model.lower_bound", id, || {
                        lower_bound_cycles(&case.request, &self.machine)
                    });
                    let result = tracer
                        .span("plan.resolve", id, || session.plan(&case.request))
                        .and_then(|resolved| {
                            replay(&mut fabrics, &resolved.plan, &case.inputs, id, tracer)
                        });
                    tracer.end(span);
                    (result, predicted, bound)
                }
            };
            let latency_ns = started.elapsed().as_nanos() as u64;
            // The sweep's own products must agree with set-up's.
            let consistent = predicted.as_ref().ok() == Some(&case.predicted_cycles)
                && bound == case.lower_bound;
            if !consistent {
                failures.record(|| {
                    format!("{}: prediction or bound changed between calls", case.label)
                });
            }
            let ok = verify(case, &result, failures) && consistent;
            ops.push(op_sample(index, case, latency_ns, ok));
        }
        self.hits += session.stats().plan_hits;
        self.misses += session.stats().plan_misses;
    }

    fn cache_counts(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Build the workload's loop, warmed where the workload is warm.
pub fn build_loop<'a>(
    workload: Workload,
    cases: &'a [Case],
    seed: u64,
    failures: &mut Failures,
) -> Box<dyn ClosedLoop + 'a> {
    match workload {
        Workload::BatchSmallDoors => Box::new(DoorsLoop::warm(cases, seed, failures)),
        Workload::PaperSweepCold => Box::new(SweepLoop::new(cases, seed)),
        _ => Box::new(EngineLoop::warm(cases, seed, failures)),
    }
}

/// The rounds of one measured window.
#[derive(Debug, Default)]
pub struct Window {
    pub ops: Vec<OpSample>,
    /// Per round: (ops recorded so far, nanoseconds since the window opened).
    pub rounds: Vec<(usize, u64)>,
}

impl Window {
    pub fn items(&self) -> u64 {
        self.ops.iter().map(|op| u64::from(op.items)).sum()
    }
}

/// Run whole rounds until `seconds` have passed (at least one round).
pub fn run_window(
    driver: &mut dyn ClosedLoop,
    seconds: f64,
    failures: &mut Failures,
    mut tracer: Option<&mut Tracer>,
) -> Window {
    let mut window = Window::default();
    let budget = Duration::from_secs_f64(seconds);
    let opened = Instant::now();
    loop {
        driver.round(&mut window.ops, failures, tracer.as_deref_mut());
        let elapsed = opened.elapsed();
        window.rounds.push((window.ops.len(), elapsed.as_nanos() as u64));
        if elapsed >= budget {
            return window;
        }
    }
}
