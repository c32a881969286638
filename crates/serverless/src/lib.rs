#![forbid(unsafe_code)]

//! # bf-serverless — the serverless substrate
//!
//! The paper wraps each benchmark in an OpenFaaS function and drives it
//! with `hey` (one connection per function, fixed target rate). This crate
//! provides both pieces, plus the batching/admission pipeline in front of
//! them:
//!
//! * [`Gateway`] — the serverless endpoint: typed [`Invocation`] /
//!   [`Completion`] request–response admission, request forwarding with
//!   its own latency, per-function [`FunctionStats`];
//! * [`Batcher`] — per-function dynamic batching (bounded by
//!   `max_batch_size` and `max_wait` on the virtual timeline) with
//!   admission control: a bounded queue that sheds overload as the typed
//!   [`GatewayError::Overloaded`];
//! * [`BatchHandler`] — what a deployed function implements; a
//!   single-request closure becomes one through the [`SingleRequest`]
//!   adapter (see below);
//! * [`ClosedLoopPacer`] — the exact `hey -c 1 -q rate` arrival process:
//!   paced ticks, but never more than one outstanding request, so a
//!   saturated function degrades to `1/latency` throughput — the mechanism
//!   behind Tables II–IV's processed-vs-target gaps;
//! * [`OpenLoopPacer`] — fixed-rate arrivals decoupled from completions,
//!   under which overload surfaces as queue growth and sheds instead;
//! * [`route_batch`] — batch co-location: sends a drained batch to the
//!   board that serves its accelerator most cheaply (configured >
//!   warm-staged > cold, shortest queue as the tie-break);
//! * [`table1_rates`] — the paper's Table I load matrix;
//! * [`Autoscaler`] — the gateway-side replica scaler (OpenFaaS-style
//!   per-replica load targets with scale-down hysteresis, plus
//!   queue-depth/shed-rate pressure from the batching pipeline via
//!   [`LoadSignal`]), reconciling through the cluster so every replica
//!   passes the registry's admission.
//!
//! # Migrating from the closure `Handler` API
//!
//! The pre-batching `Handler` type alias
//! (`Arc<dyn Fn(VirtualTime) -> Result<VirtualTime, String>>`) is gone
//! from the public API: it could not express batches, typed failures, or
//! payload sizes. [`SingleRequest`] is the closure adapter: it wraps a
//! `Fn(VirtualTime) -> Result<VirtualTime, HandlerError>` closure as a
//! [`BatchHandler`], and [`Gateway::deploy_single`] pairs it with
//! [`Batcher::unbatched`] (one dispatch per invocation, the old API's
//! exact per-request timing). The gateway unit tests and
//! `tests/mode_consistency.rs` deploy through it; the gateway benchmark's
//! unbatched baseline is the same queue:
//!
//! ```
//! use bf_model::{VirtualDuration, VirtualTime};
//! use bf_serverless::Gateway;
//!
//! let gateway = Gateway::new().with_forward_latency(VirtualDuration::from_millis(1));
//! gateway.deploy_single("echo", |at| Ok(at + VirtualDuration::from_millis(10)));
//! let done = gateway.invoke("echo", VirtualTime::ZERO)?;
//! assert_eq!(done, VirtualTime::ZERO + VirtualDuration::from_millis(12));
//! # Ok::<(), bf_serverless::GatewayError>(())
//! ```

mod autoscale;
mod batch;
mod colocate;
mod gateway;
mod invoke;
mod load;

pub use autoscale::{AutoscaleError, AutoscalePolicy, Autoscaler, LoadSignal, ReconcileAction};
pub use batch::{Batch, Batcher, SubmitError, Ticket};
pub use colocate::{board_snapshots, route_batch, BoardSnapshot, BoardWarmth};
pub use gateway::{
    run_closed_loop, run_open_loop, FunctionStats, Gateway, GatewayError, LoadRunResult,
    OpenLoopResult, Outcome,
};
pub use invoke::{BatchHandler, Completion, HandlerError, Invocation, SingleRequest};
pub use load::{native_rates, table1_rates, ClosedLoopPacer, LoadLevel, OpenLoopPacer, UseCase};

#[cfg(test)]
mod proptests {
    use bf_model::{VirtualDuration, VirtualTime};
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// The pacer never issues two requests closer than the pacing
        /// interval when responses are instant, and never issues before
        /// the previous completion.
        #[test]
        fn pacer_invariants(
            rate in 1.0f64..200.0,
            latencies_ms in proptest::collection::vec(0.0f64..100.0, 1..100),
        ) {
            let mut pacer = ClosedLoopPacer::new(rate, VirtualTime::ZERO);
            let mut issue = pacer.first_issue();
            let mut prev_issue = issue;
            let mut first = true;
            for lat in latencies_ms {
                let done = issue + VirtualDuration::from_millis_f64(lat);
                issue = pacer.next_issue(done);
                prop_assert!(issue >= done, "issued before completion");
                if !first {
                    let gap = issue - prev_issue;
                    prop_assert!(
                        gap.as_secs_f64() >= (1.0 / rate) - 1e-6 || issue == done,
                        "gap {gap} under interval without backpressure"
                    );
                }
                first = false;
                prev_issue = issue;
            }
        }

        /// Random interleavings of arrivals and deadline-driven drains
        /// never lose or duplicate an invocation, never produce a batch
        /// over `max_batch_size`, and only flush partial batches at or
        /// after the oldest member's deadline.
        #[test]
        fn batcher_flush_boundaries_hold_under_interleaving(
            max_batch in 1usize..6,
            max_wait_ms in 0u64..20,
            // (arrival gap ms, drain?) script
            script in proptest::collection::vec((0u64..15, any::<bool>()), 1..60),
        ) {
            let batcher = Batcher::new()
                .with_max_batch_size(max_batch)
                .with_max_wait(VirtualDuration::from_millis(max_wait_ms))
                .with_queue_capacity(1024);
            let mut now = VirtualTime::ZERO;
            let mut submitted = 0u64;
            let mut drained = 0u64;
            let mut tickets = std::collections::BTreeSet::new();
            for (gap_ms, drain) in script {
                now = now + VirtualDuration::from_millis(gap_ms);
                if drain {
                    if let Some(batch) = batcher.drain_due(now) {
                        prop_assert!(batch.len() <= max_batch, "oversized batch");
                        let oldest = batch.invocations()[0].issued_at;
                        prop_assert!(
                            batch.len() == max_batch
                                || now >= oldest + VirtualDuration::from_millis(max_wait_ms),
                            "partial batch drained before its deadline"
                        );
                        drained += batch.len() as u64;
                        for ticket in batch.tickets() {
                            prop_assert!(tickets.insert(*ticket), "duplicate ticket");
                        }
                    }
                } else {
                    let ticket = batcher.submit(Invocation::at(now));
                    prop_assert!(ticket.is_ok(), "capacity 1024 never sheds here");
                    submitted += 1;
                }
            }
            while let Some(batch) = batcher.drain_now() {
                drained += batch.len() as u64;
                for ticket in batch.tickets() {
                    prop_assert!(tickets.insert(*ticket), "duplicate ticket");
                }
            }
            prop_assert_eq!(submitted, drained, "lost or invented invocations");
        }

        /// Under saturation (latency >> interval) the achieved rate is
        /// ~1/latency.
        #[test]
        fn saturated_loop_caps_at_inverse_latency(rate in 50.0f64..100.0) {
            let latency = VirtualDuration::from_millis(100); // 10 rq/s max
            let mut pacer = ClosedLoopPacer::new(rate, VirtualTime::ZERO);
            let mut issue = pacer.first_issue();
            let n = 50;
            for _ in 0..n {
                let done = issue + latency;
                issue = pacer.next_issue(done);
            }
            let achieved = n as f64 / (issue - VirtualTime::ZERO).as_secs_f64();
            prop_assert!((achieved - 10.0).abs() < 0.5, "achieved {achieved}");
        }
    }
}
