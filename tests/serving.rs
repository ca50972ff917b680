//! Integration tests for the serving front-end: a `CollectiveService`'s
//! responses must be byte-identical to a sequential `Session` over the same
//! requests in submission order — whatever the batch windows, submission
//! pacing or shutdown timing did to the batching — and the bounded queue
//! must backpressure instead of buffering without limit.

use std::num::NonZeroUsize;
use std::time::Duration;

use proptest::prelude::*;

use wse_collectives::prelude::*;
use wse_collectives::ExecutorConfig;
use wse_fabric::NoiseModel;
use wse_integration_tests::deterministic_inputs;

/// Build one request + inputs from a compact code; some codes produce
/// requests that are rejected (wrong input count, zero-length vectors) so
/// traffic mixes valid and invalid work like a real front-end sees.
fn traffic_item(code: u32, p: u32, b: u32) -> (CollectiveRequest, Vec<Vec<f32>>) {
    let request = match code % 4 {
        0 => CollectiveRequest::reduce(Topology::line(p), b),
        1 => CollectiveRequest::allreduce(Topology::line(p), b),
        2 => CollectiveRequest::reduce(Topology::grid(3, 3), b),
        _ => CollectiveRequest::broadcast(Topology::line(p), b),
    };
    let sources =
        if request.kind == CollectiveKind::Broadcast { 1 } else { request.topology.num_pes() };
    let mut inputs = deterministic_inputs(sources, b as usize);
    let mut request = request;
    match (code / 4) % 4 {
        // Valid item (twice as likely as each corruption).
        0 | 1 => {}
        // Wrong input count: rejected at validation.
        2 => {
            inputs.pop();
        }
        // Invalid request: rejected at plan resolution.
        _ => request.vector_len = 0,
    }
    (request, inputs)
}

fn service_config(
    max_batch: usize,
    max_wait: Duration,
    noise: Option<NoiseModel>,
) -> (ServiceConfig, SessionConfig) {
    let mut session = SessionConfig::default();
    session.run.noise = noise;
    let config = ServiceConfig {
        executor: ExecutorConfig { session: session.clone(), ..ExecutorConfig::default() },
        max_batch,
        max_wait,
        ..ServiceConfig::default()
    };
    (config, session)
}

fn assert_served_matches_session(
    traffic: &[(CollectiveRequest, Vec<Vec<f32>>)],
    served: &[Response],
    session_config: SessionConfig,
) -> Result<(), TestCaseError> {
    let mut session = Session::with_config(session_config);
    prop_assert_eq!(served.len(), traffic.len());
    for (i, ((request, inputs), response)) in traffic.iter().zip(served).enumerate() {
        let expected = session.run(request, inputs);
        match (&response.result, &expected) {
            (Ok(got), Ok(want)) => {
                prop_assert!(got.report == want.report, "item {i}: reports diverge");
                prop_assert!(got.outputs == want.outputs, "item {i}: outputs diverge");
            }
            (Err(got), Err(want)) => prop_assert!(got == want, "item {i}: errors diverge"),
            _ => prop_assert!(false, "item {i}: one path failed, the other did not"),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Acceptance criterion: any interleaving of `submit` pacing, batch
    /// windows and `shutdown` timing yields responses byte-identical to a
    /// sequential `Session` over the same requests — including batches
    /// containing rejected items, and with thermal noise attached (run
    /// indices must align across the service's batch cuts).
    #[test]
    fn service_is_byte_identical_to_sequential_session(
        codes in proptest::collection::vec(0u32..16, 3..14),
        p in 2u32..10,
        b in 2u32..24,
        max_batch in 1usize..7,
        max_wait_us in 0u64..1500,
        pause_every in 1usize..5,
        pause_us in 0u64..400,
        probability in 0.0f64..0.2,
        seed in 0u64..1_000_000,
        shutdown_before_wait in proptest::bool::ANY,
    ) {
        let noise = (probability > 0.0).then(|| NoiseModel::new(probability, seed));
        let (config, session_config) =
            service_config(max_batch, Duration::from_micros(max_wait_us), noise);
        let traffic: Vec<(CollectiveRequest, Vec<Vec<f32>>)> = codes
            .iter()
            .enumerate()
            .map(|(i, &code)| traffic_item(code, p + (i as u32 % 3), b))
            .collect();

        let service = CollectiveService::with_config(config);
        let mut handles = Vec::with_capacity(traffic.len());
        for (i, (request, inputs)) in traffic.iter().enumerate() {
            handles.push(service.submit(*request, inputs.clone()).unwrap());
            // Interleave the submissions with the batcher's clock: pauses
            // let deadlines fire mid-traffic, no pauses exercise size cuts.
            if pause_us > 0 && i % pause_every == pause_every - 1 {
                std::thread::sleep(Duration::from_micros(pause_us));
            }
        }
        if shutdown_before_wait {
            // Shutdown races the in-flight tail: it must drain, not drop.
            service.shutdown();
        }
        let served: Vec<Response> = handles.into_iter().map(ResponseHandle::wait).collect();
        let stats = service.shutdown();
        prop_assert_eq!(stats.completed as usize, traffic.len());
        prop_assert_eq!(stats.submitted as usize, traffic.len());
        // The batch-size histogram accounts for every request.
        prop_assert_eq!(
            stats.batch_size_histogram.iter().enumerate()
                .map(|(s, n)| (s as u64 + 1) * n).sum::<u64>(),
            traffic.len() as u64
        );
        // The default config has admission disabled: the plain PR 6 path,
        // with no admission annotations on any response.
        for response in &served {
            prop_assert!(response.admission.is_none());
        }
        assert_served_matches_session(&traffic, &served, session_config)?;
    }

    /// Acceptance criterion for cost-aware scheduling: with
    /// shortest-predicted-first batches, per-batch cycle caps and (in some
    /// cases) a tenant budget deferring traffic, each response is still
    /// byte-identical to a sequential `Session` replaying the requests in
    /// **admission order** — the order exposed by the stamped run indices.
    #[test]
    fn sjf_service_is_byte_identical_in_admission_order(
        codes in proptest::collection::vec(0u32..16, 3..12),
        p in 2u32..8,
        max_batch in 1usize..6,
        max_wait_us in 0u64..1200,
        pause_every in 1usize..5,
        pause_us in 0u64..400,
        probability in 0.01f64..0.2,
        seed in 0u64..1_000_000,
        // Below 500 means "no cap" (the vendored proptest has no Option
        // strategy); real caps range 500..50_000 predicted cycles.
        cap_cycles in 0u64..50_000,
        metered in proptest::bool::ANY,
        shutdown_before_wait in proptest::bool::ANY,
    ) {
        let (config, session_config) = service_config(
            max_batch,
            Duration::from_micros(max_wait_us),
            Some(NoiseModel::new(probability, seed)),
        );
        let mut admission = AdmissionConfig::disabled()
            .with_order(BatchOrder::ShortestPredictedFirst);
        if cap_cycles >= 500 {
            admission = admission.with_max_batch_cycles(cap_cycles);
        }
        if metered {
            // A fast-refilling budget: deferrals happen (admission order
            // diverges from submission order) but release within
            // milliseconds, so waiting on handles stays bounded.
            admission = admission.with_default_budget(TenantBudget::new(20_000, 50_000_000.0));
        }
        let config = ServiceConfig { admission, ..config };
        // Mix small and large items so SJF actually reorders.
        let traffic: Vec<(CollectiveRequest, Vec<Vec<f32>>)> = codes
            .iter()
            .enumerate()
            .map(|(i, &code)| {
                let b = if i % 2 == 0 { 4 } else { 32 };
                traffic_item(code, p + (i as u32 % 3), b)
            })
            .collect();

        let service = CollectiveService::with_config(config);
        let mut handles = Vec::with_capacity(traffic.len());
        for (i, (request, inputs)) in traffic.iter().enumerate() {
            let tenant = TenantId(i as u32 % 2);
            handles.push(service.submit_as(*request, inputs.clone(), tenant).unwrap());
            if pause_us > 0 && i % pause_every == pause_every - 1 {
                std::thread::sleep(Duration::from_micros(pause_us));
            }
        }
        if shutdown_before_wait {
            service.shutdown();
        }
        let served: Vec<Response> = handles.into_iter().map(ResponseHandle::wait).collect();
        let stats = service.shutdown();
        prop_assert_eq!(stats.completed as usize, traffic.len());

        // Reconstruct admission order from the stamped run indices: valid
        // items hold exactly the indices 0..n in some order.
        let mut executed: Vec<usize> = (0..served.len())
            .filter(|&i| served[i].admission.expect("active admission annotates").run_index.is_some())
            .collect();
        executed.sort_by_key(|&i| served[i].admission.unwrap().run_index.unwrap());
        for (rank, &i) in executed.iter().enumerate() {
            prop_assert_eq!(served[i].admission.unwrap().run_index.unwrap(), rank as u64);
        }

        // Replay sequentially in admission order: executed items must match
        // byte-for-byte; rejected items (no run index consumed on either
        // path) must produce the same typed error.
        let mut session = Session::with_config(session_config);
        for &i in &executed {
            let expected = session.run(&traffic[i].0, &traffic[i].1);
            let expected = expected.as_ref().expect("stamped items execute cleanly");
            let got = served[i].result.as_ref().expect("stamped items execute cleanly");
            prop_assert!(got.report == expected.report, "item {}: reports diverge", i);
            prop_assert!(got.outputs == expected.outputs, "item {}: outputs diverge", i);
        }
        for i in (0..served.len())
            .filter(|&i| served[i].admission.unwrap().run_index.is_none())
        {
            let expected = session.run(&traffic[i].0, &traffic[i].1);
            match (&served[i].result, &expected) {
                (Err(got), Err(want)) => prop_assert!(got == want, "item {}: errors diverge", i),
                _ => prop_assert!(false, "item {}: unstamped item did not error on both paths", i),
            }
        }
    }
}

#[test]
fn try_submit_backpressures_when_saturated() {
    // Saturate the batcher with a slow batch (grid collectives on 144 PEs
    // take milliseconds of simulation), then flood the tiny queue with
    // non-blocking submissions: the bound must reject, not buffer.
    let service = CollectiveService::with_config(ServiceConfig {
        queue_capacity: 2,
        max_batch: 4,
        max_wait: Duration::from_micros(50),
        ..ServiceConfig::default()
    });
    let big = CollectiveRequest::reduce(Topology::grid(12, 12), 64);
    let mut handles: Vec<ResponseHandle> =
        (0..4).map(|_| service.submit(big, deterministic_inputs(144, 64)).unwrap()).collect();

    let small = CollectiveRequest::reduce(Topology::line(4), 4);
    let mut rejections = 0u64;
    for _ in 0..200 {
        match service.try_submit(small, deterministic_inputs(4, 4)) {
            Ok(handle) => handles.push(handle),
            Err(CollectiveError::QueueFull { capacity }) => {
                assert_eq!(capacity, 2);
                rejections += 1;
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    assert!(rejections > 0, "a 2-slot queue cannot absorb a 200-request burst");
    assert_eq!(service.stats().rejected, rejections);

    // The blocking path waits for a slot instead of failing.
    handles.push(service.submit(small, deterministic_inputs(4, 4)).unwrap());
    for handle in handles {
        assert!(handle.wait().result.is_ok());
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, stats.submitted);
    assert_eq!(stats.queue_depth, 0);
}

#[test]
fn tenant_budget_refills_over_time_and_releases_the_deferral() {
    let request = CollectiveRequest::reduce(Topology::line(6), 16);
    let predicted = request.predicted_cycles(&Machine::wse2()).unwrap().ceil() as u64;
    let tenant = TenantId(3);
    // The bucket covers exactly one request and refills it in ~200 ms.
    let service = CollectiveService::with_config(ServiceConfig {
        admission: AdmissionConfig::disabled()
            .with_tenant_budget(tenant, TenantBudget::new(predicted, predicted as f64 * 5.0)),
        max_wait: Duration::from_micros(100),
        ..ServiceConfig::default()
    });
    let first = service.submit_as(request, deterministic_inputs(6, 16), tenant).unwrap();
    let second = service.submit_as(request, deterministic_inputs(6, 16), tenant).unwrap();
    assert!(first.wait().result.is_ok());
    // The deferred request must complete WITHOUT a shutdown drain: the
    // refill alone releases it. The generous timeout only bounds a
    // regression from hanging the suite.
    let response = second
        .wait_timeout(Duration::from_secs(30))
        .expect("the budget refill releases the deferral without shutdown");
    assert!(response.result.is_ok());
    match response.admission.unwrap().outcome {
        AdmissionOutcome::DeferredThenAdmitted { wait } => {
            assert!(wait > Duration::ZERO, "the deferral wait is measured");
        }
        other => panic!("expected a deferred outcome, got {other:?}"),
    }
    let stats = service.shutdown();
    assert_eq!(stats.deferred, 1);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.shutdown_flushes, 0, "the release beat the shutdown drain");
}

#[test]
fn per_request_latency_is_reported_and_aggregated() {
    // One worker: two workers of the first batch would both miss (and both
    // generate) the unseen shape, which is a property of the executor's
    // cache, not of the latency accounting under test.
    let service = CollectiveService::with_config(ServiceConfig {
        executor: ExecutorConfig { workers: NonZeroUsize::new(1), ..Default::default() },
        max_batch: 8,
        max_wait: Duration::from_micros(100),
        ..ServiceConfig::default()
    });
    let request = CollectiveRequest::allreduce(Topology::line(6), 16);
    let handles: Vec<ResponseHandle> =
        (0..24).map(|_| service.submit(request, deterministic_inputs(6, 16)).unwrap()).collect();
    for handle in handles {
        let response = handle.wait();
        assert!(response.result.is_ok());
        assert!(response.latency > Duration::ZERO, "enqueue-to-complete latency is measured");
    }
    let stats = service.shutdown();
    assert_eq!(stats.latency.samples, 24);
    assert!(stats.latency.p50 > Duration::ZERO);
    assert!(stats.latency.p99 >= stats.latency.p50);
    assert!(stats.latency.max >= stats.latency.p99);
    assert!(stats.batches >= 3, "24 requests cannot fit two 8-item batches");
    // The executor behind the service amortised the repeated request.
    let executor = service.executor_stats();
    assert_eq!(executor.runs, 24);
    assert_eq!(executor.plan_hits, 23, "one shape, one worker: exactly one plan generation");
}

#[test]
fn polling_handles_observe_completion() {
    let service = CollectiveService::with_config(ServiceConfig {
        max_batch: 4,
        max_wait: Duration::from_micros(100),
        ..ServiceConfig::default()
    });
    let request = CollectiveRequest::reduce(Topology::line(5), 8);
    let handle = service.submit(request, deterministic_inputs(5, 8)).unwrap();
    // Poll until ready (bounded by the deadline flush + execution time).
    let mut polled = None;
    for _ in 0..10_000 {
        if let Some(response) = handle.try_get() {
            polled = Some(response);
            break;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    let polled = polled.expect("the deadline flush completes a lone request");
    assert!(polled.result.is_ok());
    assert!(handle.is_ready());
    // try_get does not consume: wait still returns the same response.
    let waited = handle.wait();
    assert_eq!(waited.result.unwrap().outputs, polled.result.unwrap().outputs);
    service.shutdown();
}
