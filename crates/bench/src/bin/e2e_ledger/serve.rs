//! The two open-loop workloads: requests are *due* on a schedule fixed before
//! the window opens and are sent then, however the service is doing. Latency
//! runs from the due instant, so a stall is charged to every request it
//! delays, and the generator's own lateness is reported.
//!
//! One generator thread (this one) and one collector thread, because the
//! host has two cores and the service needs them.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use wse_collectives::{
    AdmissionConfig, BatchOrder, CollectiveError, CollectiveService, ExecutorStats, ResponseHandle,
    ServiceConfig, ServiceStats, TenantBudget, TenantId,
};

use crate::direct::{verify, Failures};
use crate::rng::Rng;
use crate::workloads::{Case, Workload};

pub const PACED_RATE_PER_S: u64 = 1500;
pub const BURST_PERIOD: Duration = Duration::from_millis(70);
pub const BURST_LARGE: usize = 6;
pub const BURST_SMALL: usize = 38;
const SMALL_TENANT: TenantId = TenantId(1);
const LARGE_TENANT: TenantId = TenantId(2);

#[derive(Debug, Clone, Copy)]
pub struct Due {
    pub due_ns: u64,
    pub case: usize,
    pub tenant: TenantId,
}

/// The arrival schedule of a window. The seed permutes the order within
/// each rotation of the hot set; the mix itself is the same for every seed.
pub fn schedule(workload: Workload, cases: usize, seconds: f64, seed: u64) -> Vec<Due> {
    let window_ns = (seconds * 1e9) as u64;
    let mut out = Vec::new();
    if workload == Workload::ServeBurstAdmit {
        let period_ns = BURST_PERIOD.as_nanos() as u64;
        for burst in 0..(window_ns / period_ns).max(1) {
            let due_ns = burst * period_ns;
            out.extend((0..BURST_LARGE).map(|_| Due { due_ns, case: 0, tenant: LARGE_TENANT }));
            out.extend((0..BURST_SMALL).map(|_| Due { due_ns, case: 1, tenant: SMALL_TENANT }));
        }
    } else {
        let interval_ns = 1_000_000_000 / PACED_RATE_PER_S;
        let mut rng = Rng::new(seed).fork(2);
        let mut rotation: Vec<usize> = Vec::new();
        for i in 0..(window_ns / interval_ns).max(1) {
            if rotation.is_empty() {
                rotation = (0..cases).collect();
                rng.shuffle(&mut rotation);
            }
            let case = rotation.pop().expect("refilled above");
            out.push(Due { due_ns: i * interval_ns, case, tenant: TenantId::DEFAULT });
        }
    }
    out
}

pub fn service_config(workload: Workload) -> ServiceConfig {
    if workload == Workload::ServeBurstAdmit {
        // A burst prices at 6 × ~7.2k + 38 × ~0.1k predicted cycles; the cut
        // gives every all-to-all a batch of its own, so the reduces never
        // ride with one. The budgets hold two bursts: pricing and the
        // buckets run on every submit, but a healthy run never defers.
        let admission = AdmissionConfig::disabled()
            .with_order(BatchOrder::ShortestPredictedFirst)
            .with_max_batch_cycles(8_000)
            .with_tenant_budget(LARGE_TENANT, TenantBudget::new(100_000, 1_400_000.0))
            .with_tenant_budget(SMALL_TENANT, TenantBudget::new(16_000, 240_000.0));
        let mut config = ServiceConfig { admission, ..ServiceConfig::default() };
        // One executor worker: batches run on the batcher thread. With the
        // default two, every batch spawns its workers afresh, and whether
        // they land on different cores is the host scheduler's coin — a pair
        // of all-to-alls took 5 or 10 ms burst by burst, and the median
        // latency spread 13 % between runs instead of 3 %. The parallel path
        // is `batch_small_doors`' to measure.
        config.executor.workers = std::num::NonZeroUsize::new(1);
        config
    } else {
        ServiceConfig { max_wait: Duration::from_micros(100), ..ServiceConfig::default() }
    }
}

/// One request of the window, as seen from outside the service.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub case: usize,
    pub due_ns: u64,
    /// When `submit` was called / returned.
    pub call_ns: u64,
    pub ret_ns: u64,
    /// `Response::latency`: the service's own submit-to-completion clock.
    pub service_ns: u64,
    /// When the collector started waiting on the handle and when it woke;
    /// `blocked` says whether it actually had to wait.
    pub wait_start_ns: u64,
    pub wake_ns: u64,
    pub blocked: bool,
    pub ok: bool,
}

impl Record {
    /// Due instant to completion, on the service's completion clock.
    pub fn latency_ns(&self) -> u64 {
        self.call_ns.saturating_sub(self.due_ns) + self.service_ns
    }

    pub fn completed_ns(&self) -> u64 {
        self.call_ns + self.service_ns
    }

    pub fn late_ns(&self) -> u64 {
        self.call_ns.saturating_sub(self.due_ns)
    }
}

#[derive(Debug)]
pub struct ServeRun {
    pub records: Vec<Record>,
    pub service: ServiceStats,
    pub executor: ExecutorStats,
    /// Largest `ServiceStats::queue_depth` sampled (traced runs only).
    pub max_queue_depth: usize,
}

impl ServeRun {
    /// Forget the requests due before `skip_ns` and move the clock's origin
    /// there.
    pub fn drop_lead_in(&mut self, skip_ns: u64) {
        self.records.retain(|r| r.due_ns >= skip_ns);
        for r in &mut self.records {
            for at in
                [&mut r.due_ns, &mut r.call_ns, &mut r.ret_ns, &mut r.wait_start_ns, &mut r.wake_ns]
            {
                *at = at.saturating_sub(skip_ns);
            }
        }
    }
}

fn submit(
    service: &CollectiveService,
    workload: Workload,
    case: &Case,
    inputs: Vec<Vec<f32>>,
    tenant: TenantId,
) -> Result<ResponseHandle, CollectiveError> {
    if workload == Workload::ServeBurstAdmit {
        service.submit_as(case.request, inputs, tenant)
    } else {
        service.try_submit(case.request, inputs)
    }
}

/// Build the service and push every case through it a few times, so plans
/// are cached and the fabric pool holds a mesh per worker.
pub fn warm_service(
    workload: Workload,
    cases: &[Case],
    failures: &mut Failures,
) -> CollectiveService {
    let service = CollectiveService::with_config(service_config(workload));
    for case in cases {
        let handles: Vec<_> = (0..4)
            .map(|_| submit(&service, workload, case, case.inputs.clone(), TenantId::DEFAULT))
            .collect();
        for handle in handles {
            match handle {
                Ok(handle) => verify(case, &handle.wait().result, failures),
                Err(error) => verify(case, &Err(error), failures),
            };
        }
    }
    service
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Drive one window through a warmed service and shut it down.
pub fn run_window(
    workload: Workload,
    cases: &[Case],
    service: CollectiveService,
    plan: &[Due],
    sample_queue: bool,
    failures: &mut Failures,
) -> ServeRun {
    let epoch = Instant::now() + Duration::from_millis(2);
    let ns = |at: Instant| at.saturating_duration_since(epoch).as_nanos() as u64;
    let (sender, receiver) = mpsc::channel::<(usize, ResponseHandle)>();
    let mut calls: Vec<(u64, u64)> = vec![(0, 0); plan.len()];
    let mut max_queue_depth = 0;

    let completions = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut done = Vec::with_capacity(plan.len());
            let mut failures = Failures::default();
            for (index, handle) in receiver {
                let wait_start = Instant::now();
                let blocked = !handle.is_ready();
                let response = handle.wait();
                let woke = Instant::now();
                let ok = verify(&cases[plan[index].case], &response.result, &mut failures);
                done.push((index, ns(wait_start), ns(woke), blocked, response.latency, ok));
            }
            (done, failures)
        });

        let mut next = 0;
        let mut since_sample = 0;
        while next < plan.len() {
            let due_ns = plan[next].due_ns;
            let group = plan[next..].iter().take_while(|d| d.due_ns == due_ns).count();
            // Clone the inputs before the due instant, not on the request's time.
            let mut prepared: Vec<Vec<Vec<f32>>> =
                plan[next..next + group].iter().map(|d| cases[d.case].inputs.clone()).collect();
            sleep_until(epoch + Duration::from_nanos(due_ns));
            for (offset, inputs) in prepared.drain(..).enumerate() {
                let index = next + offset;
                let due = plan[index];
                let called = Instant::now();
                let outcome = submit(&service, workload, &cases[due.case], inputs, due.tenant);
                calls[index] = (ns(called), ns(Instant::now()));
                match outcome {
                    Ok(handle) => {
                        sender.send((index, handle)).expect("collector outlives the generator")
                    }
                    // Refused at the door: it keeps the failed record it
                    // is given below.
                    Err(error) => {
                        verify(&cases[due.case], &Err(error), failures);
                    }
                }
            }
            next += group;
            since_sample += group;
            if sample_queue && since_sample >= BURST_LARGE + BURST_SMALL {
                since_sample = 0;
                max_queue_depth = max_queue_depth.max(service.stats().queue_depth);
            }
        }
        drop(sender);
        collector.join().expect("the collector does not panic")
    });

    let (done, collector_failures) = completions;
    failures.count += collector_failures.count;
    failures.examples.extend(collector_failures.examples);
    failures.examples.truncate(20);
    // Every request starts out refused; the collector's completions then
    // overwrite the ones the service accepted.
    let mut records: Vec<Record> = plan
        .iter()
        .zip(&calls)
        .map(|(due, &(call_ns, ret_ns))| Record {
            case: due.case,
            due_ns: due.due_ns,
            call_ns,
            ret_ns,
            service_ns: 0,
            wait_start_ns: ret_ns,
            wake_ns: ret_ns,
            blocked: false,
            ok: false,
        })
        .collect();
    for (index, wait_start_ns, wake_ns, blocked, latency, ok) in done {
        let service_ns = latency.as_nanos() as u64;
        records[index] =
            Record { service_ns, wait_start_ns, wake_ns, blocked, ok, ..records[index] };
    }
    let executor = service.executor_stats();
    let stats = service.shutdown();
    ServeRun { records, service: stats, executor, max_queue_depth }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::build_cases;
    use wse_model::Machine;

    #[test]
    fn schedules_keep_their_mix_whatever_the_seed() {
        for seed in [1, 2] {
            let paced = schedule(Workload::ServePacedSmall, 12, 0.1, seed);
            assert_eq!(paced.len(), 150);
            // Every rotation of twelve holds every case once.
            for rotation in paced.chunks_exact(12) {
                let mut seen: Vec<usize> = rotation.iter().map(|d| d.case).collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..12).collect::<Vec<_>>());
            }
            assert!(paced.windows(2).all(|w| w[1].due_ns - w[0].due_ns == 666_666));
        }
        let burst = schedule(Workload::ServeBurstAdmit, 2, 0.28, 9);
        assert_eq!(burst.len(), 4 * (BURST_LARGE + BURST_SMALL));
        assert_eq!(burst.iter().filter(|d| d.case == 0).count(), 4 * BURST_LARGE);
        assert_eq!(burst[BURST_LARGE + BURST_SMALL].due_ns, BURST_PERIOD.as_nanos() as u64);
        assert_ne!(
            schedule(Workload::ServePacedSmall, 12, 0.1, 1)
                .iter()
                .map(|d| d.case)
                .collect::<Vec<_>>(),
            schedule(Workload::ServePacedSmall, 12, 0.1, 2)
                .iter()
                .map(|d| d.case)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_short_window_completes_every_request_correctly() {
        let machine = Machine::wse2();
        for workload in [Workload::ServePacedSmall, Workload::ServeBurstAdmit] {
            let cases = build_cases(workload, false, 4, &machine);
            let mut failures = Failures::default();
            let service = warm_service(workload, &cases, &mut failures);
            let plan = schedule(workload, cases.len(), 0.1, 4);
            let run = run_window(workload, &cases, service, &plan, true, &mut failures);
            assert_eq!(failures.count, 0, "{:?}", failures.examples);
            assert_eq!(run.records.len(), plan.len());
            assert!(run.records.iter().all(|r| r.ok && r.service_ns > 0 && r.ret_ns >= r.call_ns));
            assert!(run.service.completed >= plan.len() as u64);
        }
    }
}
