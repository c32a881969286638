//! The OpenFaaS-style gateway: the serverless system's endpoint, which
//! admits requests into per-function batchers, dispatches drained batches
//! to function instances, and records per-function statistics.
//!
//! The request path is: client issue → admission (bounded queue, typed
//! shed) → batcher (coalescing under `max_batch_size`/`max_wait`) →
//! dispatch (forward latency + serial execution behind the previous batch)
//! → completion (response-path forward latency). See ARCHITECTURE.md §10.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use bf_model::{VirtualDuration, VirtualTime};
use bf_race::sync::Mutex;
use bf_simkit::Samples;

use crate::autoscale::LoadSignal;
use crate::batch::{Batch, Batcher, SubmitError, Ticket};
use crate::invoke::{BatchHandler, Completion, HandlerError, Invocation, SingleRequest};

/// Gateway errors, typed so callers can distinguish routing failures,
/// admission-control sheds, and function-side failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayError {
    /// No function deployed under that name.
    FunctionNotFound(String),
    /// Admission control shed the request: the function's queue is full.
    Overloaded {
        /// The function that shed the request.
        function: String,
        /// The queue capacity that was hit.
        capacity: usize,
    },
    /// The function's handler failed; the source carries the reason.
    Invocation {
        /// The function whose handler failed.
        function: String,
        /// The underlying handler failure.
        source: HandlerError,
    },
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatewayError::FunctionNotFound(n) => write!(f, "function {n:?} is not deployed"),
            GatewayError::Overloaded { function, capacity } => {
                write!(
                    f,
                    "function {function:?} shed the request at capacity {capacity}"
                )
            }
            GatewayError::Invocation { function, source } => {
                write!(f, "invocation of {function:?} failed: {source}")
            }
        }
    }
}

impl Error for GatewayError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GatewayError::Invocation { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Per-function results, matching the columns of Tables II–IV plus the
/// batching pipeline's own signals.
#[derive(Debug, Clone, Default)]
pub struct FunctionStats {
    /// Completed request latencies (milliseconds).
    pub latency_ms: Samples,
    /// Completed request count.
    pub processed: u64,
    /// Failed request count.
    pub failed: u64,
    /// Requests shed at admission (queue full).
    pub shed: u64,
    /// Dispatched batch sizes.
    pub batch_size: Samples,
    /// Time spent queued before dispatch (milliseconds).
    pub queue_wait_ms: Samples,
}

impl FunctionStats {
    /// Mean latency as a duration, if any request completed.
    pub fn mean_latency(&self) -> Option<VirtualDuration> {
        self.latency_ms.mean().map(VirtualDuration::from_millis_f64)
    }

    /// Processed requests per second over the window `span`.
    pub fn processed_rate(&self, span: VirtualDuration) -> f64 {
        if span == VirtualDuration::ZERO {
            return 0.0;
        }
        self.processed as f64 / span.as_secs_f64()
    }

    /// Shed requests per second over the window `span`.
    pub fn shed_rate(&self, span: VirtualDuration) -> f64 {
        if span == VirtualDuration::ZERO {
            return 0.0;
        }
        self.shed as f64 / span.as_secs_f64()
    }

    /// Mean dispatched batch size, if any batch was dispatched.
    pub fn mean_batch_size(&self) -> Option<f64> {
        self.batch_size.mean()
    }
}

/// One drained invocation's outcome, as returned by [`Gateway::pump`] and
/// [`Gateway::flush`]. Successful completions include the response-path
/// forward latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The ticket issued at submission.
    pub ticket: Ticket,
    /// The invocation as admitted.
    pub invocation: Invocation,
    /// Completion (client-visible instant) or handler failure.
    pub result: Result<Completion, HandlerError>,
}

struct Deployment {
    batcher: Arc<Batcher>,
    handler: Arc<dyn BatchHandler>,
    busy_until: VirtualTime,
    stats: FunctionStats,
}

/// The gateway: admits requests into per-function batchers, dispatches
/// batches with the gateway's own forwarding latency, and accumulates
/// per-function stats.
///
/// Cloning yields another handle to the same gateway.
#[derive(Clone, Default)]
pub struct Gateway {
    forward_latency: VirtualDuration,
    functions: Arc<Mutex<BTreeMap<String, Deployment>>>,
}

impl Gateway {
    /// Creates a gateway with zero forwarding latency (see
    /// [`Gateway::with_forward_latency`]).
    pub fn new() -> Self {
        Gateway::default()
    }

    /// Sets the per-request forwarding latency (HTTP parsing + routing),
    /// applied on both the request and response path.
    pub fn with_forward_latency(mut self, forward_latency: VirtualDuration) -> Self {
        self.forward_latency = forward_latency;
        self
    }

    /// The configured forwarding latency.
    pub fn forward_latency(&self) -> VirtualDuration {
        self.forward_latency
    }

    /// Deploys (or replaces) a function: a batcher defining its coalescing
    /// and admission envelope, and the handler servicing its batches.
    pub fn deploy(
        &self,
        name: impl Into<String>,
        batcher: Batcher,
        handler: Arc<dyn BatchHandler>,
    ) {
        self.functions.lock().insert(
            name.into(),
            Deployment {
                batcher: Arc::new(batcher),
                handler,
                busy_until: VirtualTime::ZERO,
                stats: FunctionStats::default(),
            },
        );
    }

    /// Deploys a single-request closure behind an unbatched
    /// ([`Batcher::unbatched`]) queue: one dispatch per invocation. The
    /// closure form the gateway unit tests and `tests/mode_consistency.rs`
    /// deploy their functions through.
    pub fn deploy_single<F>(&self, name: impl Into<String>, handler: F)
    where
        F: Fn(VirtualTime) -> Result<VirtualTime, HandlerError> + Send + Sync + 'static,
    {
        self.deploy(
            name,
            Batcher::unbatched(),
            Arc::new(SingleRequest::new(handler)),
        );
    }

    /// Deployed function names.
    pub fn functions(&self) -> Vec<String> {
        self.functions.lock().keys().cloned().collect()
    }

    /// Admits one invocation into `name`'s batcher without dispatching.
    ///
    /// # Errors
    ///
    /// [`GatewayError::FunctionNotFound`] for unknown functions,
    /// [`GatewayError::Overloaded`] when admission control sheds the
    /// request (also counted in the function's stats).
    pub fn submit(&self, name: &str, invocation: Invocation) -> Result<Ticket, GatewayError> {
        let batcher = {
            let functions = self.functions.lock();
            functions
                .get(name)
                .ok_or_else(|| GatewayError::FunctionNotFound(name.to_string()))?
                .batcher
                .clone()
        };
        match batcher.submit(invocation) {
            Ok(ticket) => Ok(ticket),
            Err(SubmitError::Shed { capacity }) => {
                {
                    let mut functions = self.functions.lock();
                    if let Some(d) = functions.get_mut(name) {
                        d.stats.shed += 1;
                    }
                }
                Err(GatewayError::Overloaded {
                    function: name.to_string(),
                    capacity,
                })
            }
            // A closed batcher behaves like an undeployed function.
            Err(SubmitError::Closed) => Err(GatewayError::FunctionNotFound(name.to_string())),
        }
    }

    /// The virtual instant `name`'s pending queue becomes due, or `None`
    /// when the function is unknown or its queue is empty.
    ///
    /// A pending batch cannot dispatch while the function is still
    /// executing earlier work, so the batcher's own deadline is clamped
    /// to the end of the in-flight batch — the window in which further
    /// arrivals coalesce (and, past capacity, are shed).
    pub fn next_deadline(&self, name: &str) -> Option<VirtualTime> {
        let (batcher, busy_until) = {
            let functions = self.functions.lock();
            let deployment = functions.get(name)?;
            (deployment.batcher.clone(), deployment.busy_until)
        };
        batcher.next_deadline().map(|due| due.max(busy_until))
    }

    /// Current queue depth of `name`, or `None` for unknown functions.
    pub fn queue_depth(&self, name: &str) -> Option<usize> {
        let batcher = {
            let functions = self.functions.lock();
            functions.get(name)?.batcher.clone()
        };
        Some(batcher.queue_depth())
    }

    /// Dispatches due batches at `now` and returns the drained outcomes.
    /// Dispatch stops as soon as the function's serial timeline runs past
    /// `now`: later work stays queued (where it keeps coalescing and
    /// admission control keeps counting it) until the next deadline.
    ///
    /// # Errors
    ///
    /// [`GatewayError::FunctionNotFound`] for unknown functions.
    /// Handler failures are reported per outcome, not as errors.
    // bf-flow: entry(batcher)
    pub fn pump(&self, name: &str, now: VirtualTime) -> Result<Vec<Outcome>, GatewayError> {
        self.drain(name, now, false)
    }

    /// Force-flushes everything queued for `name` at `now`, deadlines
    /// notwithstanding.
    ///
    /// # Errors
    ///
    /// [`GatewayError::FunctionNotFound`] for unknown functions.
    pub fn flush(&self, name: &str, now: VirtualTime) -> Result<Vec<Outcome>, GatewayError> {
        self.drain(name, now, true)
    }

    fn drain(
        &self,
        name: &str,
        now: VirtualTime,
        force: bool,
    ) -> Result<Vec<Outcome>, GatewayError> {
        let (batcher, handler) = {
            let functions = self.functions.lock();
            let deployment = functions
                .get(name)
                .ok_or_else(|| GatewayError::FunctionNotFound(name.to_string()))?;
            (deployment.batcher.clone(), deployment.handler.clone())
        };
        let mut outcomes = Vec::new();
        loop {
            let batch = if force {
                batcher.drain_now()
            } else {
                // A non-forced pump only feeds a free function: while the
                // previous batch is still executing, pending work stays in
                // the queue so it can keep coalescing — and keep counting
                // against the admission-control capacity.
                let busy_until = {
                    let functions = self.functions.lock();
                    functions
                        .get(name)
                        .ok_or_else(|| GatewayError::FunctionNotFound(name.to_string()))?
                        .busy_until
                };
                if busy_until > now {
                    break;
                }
                batcher.drain_due(now)
            };
            let Some(batch) = batch else { break };
            self.execute(name, now, batch, handler.as_ref(), &mut outcomes)?;
        }
        Ok(outcomes)
    }

    /// Executes one batch on the function's single serial timeline: the
    /// batch is dispatched no earlier than `now`, every member's own
    /// forward hop, and the end of the previous batch.
    fn execute(
        &self,
        name: &str,
        now: VirtualTime,
        batch: Batch,
        handler: &dyn BatchHandler,
        outcomes: &mut Vec<Outcome>,
    ) -> Result<(), GatewayError> {
        let newest_arrival = batch
            .invocations()
            .iter()
            .map(|i| i.issued_at)
            .max()
            .unwrap_or(now);
        let dispatched = now.max(newest_arrival + self.forward_latency);
        let start = {
            let functions = self.functions.lock();
            let deployment = functions
                .get(name)
                .ok_or_else(|| GatewayError::FunctionNotFound(name.to_string()))?;
            dispatched.max(deployment.busy_until)
        };
        let results = handler.handle_batch(start, batch.invocations());
        debug_assert_eq!(results.len(), batch.len(), "one result per invocation");
        let batch_len = batch.len();
        // One outcome per invocation: size the push loop below up front so
        // it never reallocates while the functions lock is held.
        outcomes.reserve(batch_len);
        {
            let mut functions = self.functions.lock();
            let deployment = functions
                .get_mut(name)
                .ok_or_else(|| GatewayError::FunctionNotFound(name.to_string()))?;
            let mut last_done = deployment.busy_until;
            let (tickets, invocations) = batch.into_parts();
            for ((ticket, invocation), result) in tickets.into_iter().zip(invocations).zip(results)
            {
                match result {
                    Ok(completion) => {
                        let done = completion.done_at + self.forward_latency;
                        deployment.stats.processed += 1;
                        deployment
                            .stats
                            .latency_ms
                            .record((done - invocation.issued_at).as_millis_f64());
                        let wait = start - (invocation.issued_at + self.forward_latency);
                        deployment.stats.queue_wait_ms.record(wait.as_millis_f64());
                        last_done = last_done.max(completion.done_at);
                        outcomes.push(Outcome {
                            ticket,
                            invocation,
                            result: Ok(Completion::at(done)),
                        });
                    }
                    Err(e) => {
                        deployment.stats.failed += 1;
                        outcomes.push(Outcome {
                            ticket,
                            invocation,
                            result: Err(e),
                        });
                    }
                }
            }
            deployment.stats.batch_size.record(batch_len as f64);
            deployment.busy_until = last_done;
        }
        Ok(())
    }

    /// Invokes `name` at virtual instant `at` and drives its queue to
    /// completion: submit, force-flush, return the client-visible
    /// completion instant. Latency (completion − issue) lands in the
    /// function's stats.
    ///
    /// Intended for one driver per function (the closed-loop shape); with
    /// concurrent drivers on the same function, use [`Gateway::submit`] /
    /// [`Gateway::pump`] and correlate by [`Ticket`].
    ///
    /// # Errors
    ///
    /// [`GatewayError::FunctionNotFound`], [`GatewayError::Overloaded`],
    /// or the handler's failure as [`GatewayError::Invocation`].
    pub fn invoke(&self, name: &str, at: VirtualTime) -> Result<VirtualTime, GatewayError> {
        let ticket = self.submit(name, Invocation::at(at))?;
        for outcome in self.flush(name, at)? {
            if outcome.ticket == ticket {
                return match outcome.result {
                    Ok(completion) => Ok(completion.done_at),
                    Err(source) => Err(GatewayError::Invocation {
                        function: name.to_string(),
                        source,
                    }),
                };
            }
        }
        Err(GatewayError::Invocation {
            function: name.to_string(),
            source: HandlerError::new("completion drained by a concurrent driver"),
        })
    }

    /// Snapshot of a function's stats.
    pub fn stats(&self, name: &str) -> Option<FunctionStats> {
        self.functions.lock().get(name).map(|d| d.stats.clone())
    }

    /// The autoscaler's view of `name` over the window `span`: processed
    /// rate, current queue depth, and shed rate.
    pub fn load_signal(&self, name: &str, span: VirtualDuration) -> Option<LoadSignal> {
        let depth = self.queue_depth(name)?;
        let stats = self.stats(name)?;
        Some(
            LoadSignal::from_rps(stats.processed_rate(span))
                .with_queue_depth(depth as u32)
                .with_shed_rps(stats.shed_rate(span)),
        )
    }
}

/// Outcome of one closed-loop load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadRunResult {
    /// Requests completed inside the window.
    pub processed: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Mean end-to-end latency over completed requests.
    pub mean_latency: VirtualDuration,
    /// Achieved rate over the window (rq/s).
    pub achieved_rps: f64,
}

/// Drives `function` with a `hey -c 1 -q rate`-style closed loop on the
/// virtual timeline for `duration`, advancing `clock` along the way — the
/// direct-mode (real threads) twin of the DES load generator, used to
/// cross-check the two execution modes against each other. Each request
/// goes through the function's batcher (submit + flush), so admission
/// control and batch accounting apply.
///
/// # Errors
///
/// Returns [`GatewayError::FunctionNotFound`] when the function is not
/// deployed. Individual request failures (including sheds) are counted,
/// not fatal.
pub fn run_closed_loop(
    gateway: &Gateway,
    function: &str,
    rate: f64,
    duration: VirtualDuration,
    clock: &bf_model::VirtualClock,
) -> Result<LoadRunResult, GatewayError> {
    if !gateway.functions().iter().any(|f| f == function) {
        return Err(GatewayError::FunctionNotFound(function.to_string()));
    }
    let start = clock.now();
    let horizon = start + duration;
    let mut pacer = crate::ClosedLoopPacer::new(rate, start);
    let mut issue = pacer.first_issue();
    let mut processed = 0u64;
    let mut failed = 0u64;
    let mut latency_sum = VirtualDuration::ZERO;
    while issue < horizon {
        clock.advance_to(issue);
        match gateway.invoke(function, issue) {
            Ok(done) => {
                clock.advance_to(done);
                processed += 1;
                latency_sum += done - issue;
                issue = pacer.next_issue(done);
            }
            Err(_) => {
                failed += 1;
                issue = pacer.next_issue(clock.now());
            }
        }
    }
    let window = clock.now().max(horizon) - start;
    Ok(LoadRunResult {
        processed,
        failed,
        mean_latency: if processed > 0 {
            latency_sum / processed
        } else {
            VirtualDuration::ZERO
        },
        achieved_rps: processed as f64 / window.as_secs_f64().max(f64::MIN_POSITIVE),
    })
}

/// Outcome of one open-loop load run.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopResult {
    /// Requests offered (arrivals inside the window).
    pub offered: u64,
    /// Requests completed by the end of the window.
    pub processed: u64,
    /// Requests that failed in the handler.
    pub failed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Mean end-to-end latency over completed requests.
    pub mean_latency: VirtualDuration,
    /// 99th-percentile end-to-end latency over completed requests.
    pub p99_latency: VirtualDuration,
    /// Completions per second over the window (rq/s).
    pub achieved_rps: f64,
    /// Mean dispatched batch size over the run.
    pub mean_batch_size: f64,
}

/// Drives `function` with an open-loop arrival process at `rate` for
/// `duration`: arrivals are independent of completions (unlike the closed
/// loop), so overload shows up as queue growth → admission-control sheds
/// rather than arrival throttling. The loop interleaves arrivals and
/// batcher flush deadlines in virtual-time order, advancing `clock` along
/// the way, and drains the tail after the last arrival.
///
/// # Errors
///
/// Returns [`GatewayError::FunctionNotFound`] when the function is not
/// deployed. Per-request sheds and handler failures are counted, not
/// fatal.
pub fn run_open_loop(
    gateway: &Gateway,
    function: &str,
    rate: f64,
    duration: VirtualDuration,
    clock: &bf_model::VirtualClock,
) -> Result<OpenLoopResult, GatewayError> {
    if !gateway.functions().iter().any(|f| f == function) {
        return Err(GatewayError::FunctionNotFound(function.to_string()));
    }
    let start = clock.now();
    let horizon = start + duration;
    let batches_before = gateway
        .stats(function)
        .map(|s| {
            (
                s.batch_size.len(),
                s.batch_size.values().iter().sum::<f64>(),
            )
        })
        .unwrap_or((0, 0.0));
    let mut pacer = crate::OpenLoopPacer::new(rate, start);
    let mut next_arrival = pacer.next_arrival();
    let mut offered = 0u64;
    let mut shed = 0u64;
    let mut failed = 0u64;
    let mut processed = 0u64;
    let mut latencies = Samples::new();
    let mut tally = |outcomes: Vec<Outcome>| {
        for outcome in outcomes {
            match outcome.result {
                Ok(completion) => {
                    if completion.done_at <= horizon {
                        processed += 1;
                        latencies.record(
                            (completion.done_at - outcome.invocation.issued_at).as_millis_f64(),
                        );
                    }
                }
                Err(_) => failed += 1,
            }
        }
    };
    loop {
        let deadline = gateway.next_deadline(function);
        let arrivals_left = next_arrival < horizon;
        match deadline {
            Some(due) if !arrivals_left || due <= next_arrival => {
                clock.advance_to(due);
                tally(gateway.pump(function, due)?);
            }
            _ if arrivals_left => {
                clock.advance_to(next_arrival);
                offered += 1;
                match gateway.submit(function, Invocation::at(next_arrival)) {
                    Ok(_) => {
                        // Size-triggered batches are due immediately.
                        tally(gateway.pump(function, next_arrival)?);
                    }
                    Err(GatewayError::Overloaded { .. }) => shed += 1,
                    Err(e) => return Err(e),
                }
                next_arrival = pacer.next_arrival();
            }
            _ => break,
        }
    }
    let batches_after = gateway
        .stats(function)
        .map(|s| {
            (
                s.batch_size.len(),
                s.batch_size.values().iter().sum::<f64>(),
            )
        })
        .unwrap_or((0, 0.0));
    let batches = batches_after.0.saturating_sub(batches_before.0);
    let mean_batch_size = if batches > 0 {
        (batches_after.1 - batches_before.1) / batches as f64
    } else {
        0.0
    };
    Ok(OpenLoopResult {
        offered,
        processed,
        failed,
        shed,
        mean_latency: VirtualDuration::from_millis_f64(latencies.mean().unwrap_or(0.0)),
        p99_latency: VirtualDuration::from_millis_f64(latencies.quantile(0.99).unwrap_or(0.0)),
        achieved_rps: processed as f64 / duration.as_secs_f64().max(f64::MIN_POSITIVE),
        mean_batch_size,
    })
}

impl fmt::Debug for Gateway {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gateway")
            .field("functions", &self.functions.lock().len())
            .field("forward_latency", &self.forward_latency)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> VirtualTime {
        VirtualTime::ZERO + VirtualDuration::from_millis(ms)
    }

    #[test]
    fn invoke_records_latency_with_both_forward_hops() {
        let gw = Gateway::new().with_forward_latency(VirtualDuration::from_millis(1));
        gw.deploy_single("echo", |at| Ok(at + VirtualDuration::from_millis(10)));
        let done = gw.invoke("echo", t(0)).expect("invoke");
        assert_eq!(done, t(12), "1 ms in + 10 ms service + 1 ms out");
        let stats = gw.stats("echo").expect("stats");
        assert_eq!(stats.processed, 1);
        assert_eq!(stats.latency_ms.mean(), Some(12.0));
        assert_eq!(stats.batch_size.mean(), Some(1.0), "unbatched deployment");
        assert_eq!(stats.queue_wait_ms.mean(), Some(0.0), "no queueing");
    }

    #[test]
    fn unknown_function_404s() {
        let gw = Gateway::new();
        assert_eq!(
            gw.invoke("ghost", t(0)),
            Err(GatewayError::FunctionNotFound("ghost".to_string()))
        );
    }

    #[test]
    fn failures_count_separately_and_chain_the_source() {
        let gw = Gateway::new();
        gw.deploy_single("flaky", |_| Err(HandlerError::new("boom")));
        let err = gw.invoke("flaky", t(0)).expect_err("handler fails");
        assert!(matches!(&err, GatewayError::Invocation { function, .. } if function == "flaky"));
        let source = Error::source(&err).expect("source chain");
        assert_eq!(source.to_string(), "handler failed: boom");
        let stats = gw.stats("flaky").expect("stats");
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.processed, 0);
    }

    #[test]
    fn processed_rate_uses_the_window() {
        let stats = FunctionStats {
            processed: 50,
            ..FunctionStats::default()
        };
        assert_eq!(stats.processed_rate(VirtualDuration::from_secs(10)), 5.0);
        assert_eq!(stats.processed_rate(VirtualDuration::ZERO), 0.0);
    }

    #[test]
    fn submissions_coalesce_into_one_batch() {
        let gw = Gateway::new();
        gw.deploy(
            "batchy",
            Batcher::new()
                .with_max_batch_size(4)
                .with_max_wait(VirtualDuration::from_millis(10)),
            Arc::new(SingleRequest::new(|at| {
                Ok(at + VirtualDuration::from_millis(1))
            })),
        );
        for ms in 0..3 {
            gw.submit("batchy", Invocation::at(t(ms)))
                .expect("capacity");
        }
        assert_eq!(gw.queue_depth("batchy"), Some(3));
        assert_eq!(gw.next_deadline("batchy"), Some(t(10)));
        assert!(gw.pump("batchy", t(9)).expect("pump").is_empty(), "not due");
        let outcomes = gw.pump("batchy", t(10)).expect("pump");
        assert_eq!(outcomes.len(), 3, "one max-wait flush drains the batch");
        let stats = gw.stats("batchy").expect("stats");
        assert_eq!(stats.batch_size.mean(), Some(3.0));
        assert_eq!(stats.processed, 3);
    }

    #[test]
    fn overload_sheds_with_a_typed_error() {
        let gw = Gateway::new();
        gw.deploy(
            "tiny",
            Batcher::new().with_queue_capacity(1).with_max_batch_size(1),
            Arc::new(SingleRequest::new(Ok)),
        );
        gw.submit("tiny", Invocation::at(t(0))).expect("first fits");
        let err = gw.submit("tiny", Invocation::at(t(0))).expect_err("full");
        assert_eq!(
            err,
            GatewayError::Overloaded {
                function: "tiny".to_string(),
                capacity: 1
            }
        );
        assert_eq!(gw.stats("tiny").expect("stats").shed, 1);
    }

    #[test]
    fn batches_queue_behind_the_previous_batch() {
        let gw = Gateway::new();
        gw.deploy(
            "serial",
            Batcher::unbatched(),
            Arc::new(SingleRequest::new(|at| {
                Ok(at + VirtualDuration::from_millis(100))
            })),
        );
        let first = gw.invoke("serial", t(0)).expect("first");
        assert_eq!(first, t(100));
        // Issued at t=10, but the replica is busy until t=100.
        let second = gw.invoke("serial", t(10)).expect("second");
        assert_eq!(second, t(200), "served after the outstanding request");
        let stats = gw.stats("serial").expect("stats");
        assert_eq!(stats.queue_wait_ms.max(), Some(90.0));
    }
}
