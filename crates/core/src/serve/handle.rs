//! Completion handles: the caller's side of an in-flight request.
//!
//! Submitting a request to a [`crate::serve::CollectiveService`] returns a
//! [`ResponseHandle`] immediately; the handle's shared slot is fulfilled the
//! moment the request's own run finishes, whatever the rest of its batch is
//! still doing. A handle can be blocked
//! on ([`ResponseHandle::wait`]) or polled ([`ResponseHandle::try_get`],
//! [`ResponseHandle::is_ready`]), and the delivered [`Response`] carries the
//! request's end-to-end latency (enqueue to completion) next to its result.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::error::CollectiveError;
use crate::runner::RunOutcome;
use crate::serve::admit::AdmissionInfo;

/// The completed form of a submitted request.
#[derive(Debug, Clone)]
pub struct Response {
    /// The request's outcome: the run's outputs and report, or the typed
    /// error that rejected it.
    pub result: Result<RunOutcome, CollectiveError>,
    /// Wall-clock time from submission (enqueue) to the completion of this
    /// request's own run, including queueing, batching delay and the runs
    /// of the batch-mates executed before it.
    pub latency: Duration,
    /// How admission control handled the request: `None` when the service
    /// runs without an active [`crate::serve::AdmissionConfig`], `Some`
    /// with the tenant, predicted cycles, deferral outcome and stamped
    /// noise-run index otherwise.
    pub admission: Option<AdmissionInfo>,
}

/// The shared slot a batcher fulfils and a handle observes.
#[derive(Debug, Default)]
pub(crate) struct ResponseSlot {
    state: Mutex<Option<Response>>,
    ready: Condvar,
}

impl ResponseSlot {
    /// Deliver the response and wake every waiter. Called exactly once per
    /// accepted request (the service drains on shutdown, so every accepted
    /// request is eventually completed).
    pub(crate) fn fulfil(&self, response: Response) {
        *self.lock() = Some(response);
        self.ready.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Option<Response>> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// A completion handle for one submitted request.
///
/// Handles are single-owner (not `Clone`): [`wait`](ResponseHandle::wait)
/// consumes the handle and moves the response out without copying;
/// [`try_get`](ResponseHandle::try_get) polls without consuming and clones
/// the response if it is ready, so a poller can keep the handle and still
/// `wait` later.
#[derive(Debug)]
pub struct ResponseHandle {
    slot: Arc<ResponseSlot>,
}

impl ResponseHandle {
    /// A handle plus the slot the service will fulfil.
    pub(crate) fn new() -> (Self, Arc<ResponseSlot>) {
        let slot = Arc::new(ResponseSlot::default());
        (ResponseHandle { slot: Arc::clone(&slot) }, slot)
    }

    /// Block until the request completes and take its response.
    pub fn wait(self) -> Response {
        let mut state = self.slot.lock();
        loop {
            if let Some(response) = state.take() {
                return response;
            }
            state = self.slot.ready.wait(state).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Block up to `timeout` for the request to complete. Returns the
    /// response, or `None` (keeping the result available for a later
    /// [`wait`](ResponseHandle::wait) or `try_get`) if the timeout elapses
    /// first.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Response> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.slot.lock();
        loop {
            if state.is_some() {
                return state.clone();
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            state = self
                .slot
                .ready
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
        }
    }

    /// Poll for the response without blocking. Returns a clone if the
    /// request has completed, `None` otherwise; the handle stays usable
    /// either way.
    pub fn try_get(&self) -> Option<Response> {
        self.slot.lock().clone()
    }

    /// Whether the request has completed (a subsequent
    /// [`wait`](ResponseHandle::wait) will not block).
    pub fn is_ready(&self) -> bool {
        self.slot.lock().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_response(micros: u64) -> Response {
        Response {
            result: Err(CollectiveError::ServiceStopped), // any result works for slot tests
            latency: Duration::from_micros(micros),
            admission: None,
        }
    }

    #[test]
    fn try_get_polls_and_wait_takes() {
        let (handle, slot) = ResponseHandle::new();
        assert!(!handle.is_ready());
        assert!(handle.try_get().is_none());
        slot.fulfil(ok_response(7));
        assert!(handle.is_ready());
        let polled = handle.try_get().expect("fulfilled slot polls ready");
        assert_eq!(polled.latency, Duration::from_micros(7));
        // Polling does not consume: wait still delivers.
        assert_eq!(handle.wait().latency, Duration::from_micros(7));
    }

    #[test]
    fn wait_blocks_until_fulfilled() {
        let (handle, slot) = ResponseHandle::new();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(2));
                slot.fulfil(ok_response(3));
            });
            assert_eq!(handle.wait().latency, Duration::from_micros(3));
        });
    }

    #[test]
    fn wait_timeout_expires_without_consuming() {
        let (handle, slot) = ResponseHandle::new();
        assert!(handle.wait_timeout(Duration::from_millis(1)).is_none());
        slot.fulfil(ok_response(1));
        assert!(handle.wait_timeout(Duration::from_millis(1)).is_some());
        assert!(handle.is_ready(), "wait_timeout never consumes the response");
    }
}
