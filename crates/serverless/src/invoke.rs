//! The typed invocation API: request/response types exchanged between the
//! gateway, the batcher, and deployed functions.
//!
//! This replaces the original closure-based handler surface
//! (`Arc<dyn Fn(VirtualTime) -> Result<VirtualTime, String>>`), which could
//! not express batches, typed failures, or payload sizes. A
//! single-request closure is deployed through the [`SingleRequest`]
//! adapter, which services a batch serially — see its docs for the exact
//! timing semantics.

use std::error::Error;
use std::fmt;

use bf_model::VirtualTime;

/// One request admitted by the gateway: the client-side issue instant plus
/// the request payload size (used by profile-driven handlers to model
/// transfer time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Invocation {
    /// Virtual instant the client issued the request.
    pub issued_at: VirtualTime,
    /// Request payload size in bytes (0 when irrelevant).
    pub payload_bytes: u64,
}

impl Invocation {
    /// An invocation issued at `issued_at` with no payload accounting.
    pub fn at(issued_at: VirtualTime) -> Self {
        Invocation {
            issued_at,
            payload_bytes: 0,
        }
    }

    /// Sets the request payload size.
    pub fn with_payload_bytes(mut self, payload_bytes: u64) -> Self {
        self.payload_bytes = payload_bytes;
        self
    }
}

/// A function's response to one [`Invocation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Virtual instant the function finished servicing the request. The
    /// gateway adds its own response-path forwarding latency on top before
    /// reporting the completion to the client.
    pub done_at: VirtualTime,
}

impl Completion {
    /// A completion at `done_at`.
    pub fn at(done_at: VirtualTime) -> Self {
        Completion { done_at }
    }
}

/// A function-level failure servicing one invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandlerError {
    reason: String,
}

impl HandlerError {
    /// A handler failure with the given reason.
    pub fn new(reason: impl Into<String>) -> Self {
        HandlerError {
            reason: reason.into(),
        }
    }

    /// The failure reason.
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl fmt::Display for HandlerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "handler failed: {}", self.reason)
    }
}

impl Error for HandlerError {}

/// A deployed function: services whole batches of invocations.
///
/// The gateway dispatches each batch at a virtual instant `start` (after
/// forwarding latency and any queueing behind the previous batch) and
/// expects one result per invocation, in order. Implementations report
/// function-side completion instants; the gateway layers its response-path
/// forwarding latency on top.
pub trait BatchHandler: Send + Sync {
    /// Services `batch`, dispatched at `start`. Must return exactly
    /// `batch.len()` results, in the same order as the input.
    fn handle_batch(
        &self,
        start: VirtualTime,
        batch: &[Invocation],
    ) -> Vec<Result<Completion, HandlerError>>;
}

/// The closure adapter: wraps a
/// `Fn(VirtualTime) -> Result<VirtualTime, HandlerError>` and
/// services batches serially, chaining each invocation's start instant off
/// the previous completion (a batch on this adapter gains admission-control
/// and amortised-forwarding benefits, but no service-time parallelism).
///
/// Paired with [`Batcher::unbatched`](crate::Batcher::unbatched) (as
/// [`Gateway::deploy_single`](crate::Gateway::deploy_single) does) it
/// gives one dispatch per invocation — how the gateway unit tests and
/// `tests/mode_consistency.rs` deploy a function written as a closure.
pub struct SingleRequest<F> {
    f: F,
}

impl<F> SingleRequest<F>
where
    F: Fn(VirtualTime) -> Result<VirtualTime, HandlerError> + Send + Sync,
{
    /// Wraps a single-request handler closure.
    pub fn new(f: F) -> Self {
        SingleRequest { f }
    }
}

impl<F> BatchHandler for SingleRequest<F>
where
    F: Fn(VirtualTime) -> Result<VirtualTime, HandlerError> + Send + Sync,
{
    fn handle_batch(
        &self,
        start: VirtualTime,
        batch: &[Invocation],
    ) -> Vec<Result<Completion, HandlerError>> {
        let mut cursor = start;
        let mut out = Vec::with_capacity(batch.len());
        for _invocation in batch {
            match (self.f)(cursor) {
                Ok(done) => {
                    cursor = cursor.max(done);
                    out.push(Ok(Completion::at(done)));
                }
                Err(e) => out.push(Err(e)),
            }
        }
        out
    }
}

impl<F> fmt::Debug for SingleRequest<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SingleRequest").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use bf_model::VirtualDuration;

    use super::*;

    fn t(ms: u64) -> VirtualTime {
        VirtualTime::ZERO + VirtualDuration::from_millis(ms)
    }

    #[test]
    fn single_request_services_a_batch_serially() {
        let adapter = SingleRequest::new(|at| Ok(at + VirtualDuration::from_millis(10)));
        let batch = [Invocation::at(t(0)), Invocation::at(t(1))];
        let results = adapter.handle_batch(t(5), &batch);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0], Ok(Completion::at(t(15))));
        assert_eq!(results[1], Ok(Completion::at(t(25))), "chained serially");
    }

    #[test]
    fn single_request_failure_does_not_advance_the_cursor() {
        let failed_once = std::sync::atomic::AtomicBool::new(false);
        let adapter = SingleRequest::new(move |at| {
            if failed_once.swap(true, std::sync::atomic::Ordering::Relaxed) {
                Ok(at + VirtualDuration::from_millis(10))
            } else {
                Err(HandlerError::new("cold start"))
            }
        });
        let batch = [Invocation::at(t(0)), Invocation::at(t(0))];
        let results = adapter.handle_batch(t(5), &batch);
        assert_eq!(results[0], Err(HandlerError::new("cold start")));
        assert_eq!(results[1], Ok(Completion::at(t(15))), "retry from start");
    }
}
