//! The dynamic batcher: per-function request coalescing with admission
//! control.
//!
//! Each deployed function owns a [`Batcher`]. Incoming invocations queue in
//! a bounded buffer; a batch is drained when either `max_batch_size`
//! invocations are pending or the oldest one has waited `max_wait` on the
//! virtual timeline. Submissions past the queue capacity are shed with a
//! typed error — the serverless twin of the transport layer's
//! `TransportError::Backpressure`.
//!
//! Two drain styles are supported: virtual-time pumps ([`Batcher::drain_due`]
//! driven by [`Batcher::next_deadline`], used by the gateway's run loops)
//! and a blocking worker API ([`Batcher::next_batch_blocking`]) for
//! direct-mode consumers on real threads. The blocking path is a classic
//! mutex/condvar handoff and is covered by a `bf-race` model test.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::time::Duration;

use bf_model::{VirtualDuration, VirtualTime};
use bf_race::sync::{Condvar, Mutex};

use crate::invoke::Invocation;

/// Identifies one queued invocation within its function's batcher; returned
/// by submission and echoed with the matching completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ticket(u64);

/// A drained batch: tickets and invocations in queue (FIFO) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    tickets: Vec<Ticket>,
    invocations: Vec<Invocation>,
}

impl Batch {
    /// Number of invocations in the batch.
    pub fn len(&self) -> usize {
        self.invocations.len()
    }

    /// Whether the batch is empty (drains never produce empty batches).
    pub fn is_empty(&self) -> bool {
        self.invocations.is_empty()
    }

    /// The batched invocations, oldest first.
    pub fn invocations(&self) -> &[Invocation] {
        &self.invocations
    }

    /// The tickets, parallel to [`Batch::invocations`].
    pub fn tickets(&self) -> &[Ticket] {
        &self.tickets
    }

    /// Decomposes into `(tickets, invocations)`.
    pub fn into_parts(self) -> (Vec<Ticket>, Vec<Invocation>) {
        (self.tickets, self.invocations)
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full; the invocation was shed (admission
    /// control, mirroring the transport's `Backpressure`).
    Shed {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// The batcher was closed; no further invocations are accepted.
    Closed,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Shed { capacity } => {
                write!(f, "invocation shed: queue at capacity {capacity}")
            }
            SubmitError::Closed => write!(f, "batcher is closed"),
        }
    }
}

impl Error for SubmitError {}

#[derive(Debug)]
struct QueueState {
    pending: VecDeque<(Ticket, Invocation)>,
    next_ticket: u64,
    shed: u64,
    closed: bool,
}

/// Per-function dynamic batcher. Configure with the `with_*` builders
/// before deploying:
///
/// ```
/// use bf_model::VirtualDuration;
/// use bf_serverless::Batcher;
///
/// let batcher = Batcher::new()
///     .with_max_batch_size(8)
///     .with_max_wait(VirtualDuration::from_millis(5))
///     .with_queue_capacity(64);
/// assert_eq!(batcher.max_batch_size(), 8);
/// ```
#[derive(Debug)]
pub struct Batcher {
    max_batch_size: usize,
    max_wait: VirtualDuration,
    queue_capacity: usize,
    batch_state: Mutex<QueueState>,
    ready: Condvar,
}

impl Default for Batcher {
    fn default() -> Self {
        Batcher::new()
    }
}

impl Batcher {
    /// A batcher with the default envelope: batches of up to 8, 5 ms
    /// maximum wait, queue capacity 64.
    pub fn new() -> Self {
        Batcher {
            max_batch_size: 8,
            max_wait: VirtualDuration::from_millis(5),
            queue_capacity: 64,
            batch_state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                next_ticket: 0,
                shed: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// A degenerate batcher that never coalesces: batch size 1, zero wait.
    /// The queue behind [`Gateway::deploy_single`](crate::Gateway::deploy_single)
    /// and the unbatched baseline of the gateway benchmark.
    pub fn unbatched() -> Self {
        Batcher::new()
            .with_max_batch_size(1)
            .with_max_wait(VirtualDuration::ZERO)
    }

    /// Sets the maximum invocations per batch.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch_size` is zero.
    pub fn with_max_batch_size(mut self, max_batch_size: usize) -> Self {
        assert!(max_batch_size >= 1, "batches need at least one slot");
        self.max_batch_size = max_batch_size;
        self
    }

    /// Sets how long the oldest pending invocation may linger (virtual
    /// time) before a partial batch is drained.
    pub fn with_max_wait(mut self, max_wait: VirtualDuration) -> Self {
        self.max_wait = max_wait;
        self
    }

    /// Sets the admission-control bound: submissions beyond this many
    /// pending invocations are shed.
    ///
    /// # Panics
    ///
    /// Panics if `queue_capacity` is zero.
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        assert!(queue_capacity >= 1, "queue needs at least one slot");
        self.queue_capacity = queue_capacity;
        self
    }

    /// The configured maximum batch size.
    pub fn max_batch_size(&self) -> usize {
        self.max_batch_size
    }

    /// The configured maximum linger of the oldest pending invocation.
    pub fn max_wait(&self) -> VirtualDuration {
        self.max_wait
    }

    /// The configured admission-control queue bound.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Queues one invocation.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Shed`] when the queue is at capacity (the shed is
    /// also counted, see [`Batcher::shed_total`]); [`SubmitError::Closed`]
    /// after [`Batcher::close`].
    pub fn submit(&self, invocation: Invocation) -> Result<Ticket, SubmitError> {
        let mut state = self.batch_state.lock();
        if state.closed {
            return Err(SubmitError::Closed);
        }
        if state.pending.len() >= self.queue_capacity {
            state.shed += 1;
            return Err(SubmitError::Shed {
                capacity: self.queue_capacity,
            });
        }
        let ticket = Ticket(state.next_ticket);
        state.next_ticket += 1;
        state.pending.push_back((ticket, invocation));
        // Wake the blocking consumer on every arrival: the first item must
        // start its linger timer, and a full batch must drain immediately.
        self.ready.notify_one();
        Ok(ticket)
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.batch_state.lock().pending.len()
    }

    /// Total invocations shed at admission since creation.
    pub fn shed_total(&self) -> u64 {
        self.batch_state.lock().shed
    }

    /// The virtual instant at which the pending queue (if any) becomes
    /// due: immediately (the oldest arrival) when a full batch is already
    /// waiting, otherwise the oldest arrival plus `max_wait`.
    pub fn next_deadline(&self) -> Option<VirtualTime> {
        let state = self.batch_state.lock();
        let (_, oldest) = state.pending.front()?;
        if state.pending.len() >= self.max_batch_size {
            Some(oldest.issued_at)
        } else {
            Some(oldest.issued_at + self.max_wait)
        }
    }

    /// Drains one batch if due at `now`: a full `max_batch_size` is always
    /// due; a partial batch is due once the oldest invocation has waited
    /// `max_wait`. Returns `None` when nothing is due (including the
    /// empty-queue case).
    pub fn drain_due(&self, now: VirtualTime) -> Option<Batch> {
        let mut state = self.batch_state.lock();
        let (_, oldest) = state.pending.front()?;
        let due = state.pending.len() >= self.max_batch_size
            || state.closed
            || now >= oldest.issued_at + self.max_wait;
        due.then(|| Self::drain_locked(&mut state, self.max_batch_size))
    }

    /// Force-drains one batch (up to `max_batch_size`) regardless of
    /// deadlines; `None` when the queue is empty. Callers flushing
    /// everything loop until `None`.
    pub fn drain_now(&self) -> Option<Batch> {
        let mut state = self.batch_state.lock();
        if state.pending.is_empty() {
            return None;
        }
        Some(Self::drain_locked(&mut state, self.max_batch_size))
    }

    /// Blocks until a batch is available and returns it, or `None` once
    /// the batcher is closed and fully drained. `linger` is the real-time
    /// bound a partial batch may wait for stragglers — the wall-clock
    /// counterpart of `max_wait` for direct-mode worker threads (model
    /// builds map it onto the race scheduler's virtual deadline).
    pub fn next_batch_blocking(&self, linger: Duration) -> Option<Batch> {
        let mut state = self.batch_state.lock();
        loop {
            if state.pending.len() >= self.max_batch_size {
                return Some(Self::drain_locked(&mut state, self.max_batch_size));
            }
            if state.closed {
                if state.pending.is_empty() {
                    return None;
                }
                return Some(Self::drain_locked(&mut state, self.max_batch_size));
            }
            if state.pending.is_empty() {
                self.ready.wait(&mut state);
            } else {
                let timed_out = self.ready.wait_for(&mut state, linger).timed_out();
                if timed_out && !state.pending.is_empty() {
                    return Some(Self::drain_locked(&mut state, self.max_batch_size));
                }
            }
        }
    }

    /// Closes the batcher: further submissions are rejected, blocked
    /// consumers drain the remainder and then observe the end of stream.
    pub fn close(&self) {
        let mut state = self.batch_state.lock();
        state.closed = true;
        self.ready.notify_all();
    }

    fn drain_locked(state: &mut QueueState, max: usize) -> Batch {
        let take = state.pending.len().min(max);
        let mut tickets = Vec::with_capacity(take);
        let mut invocations = Vec::with_capacity(take);
        for (ticket, invocation) in state.pending.drain(..take) {
            tickets.push(ticket);
            invocations.push(invocation);
        }
        Batch {
            tickets,
            invocations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> VirtualTime {
        VirtualTime::ZERO + VirtualDuration::from_millis(ms)
    }

    fn batcher() -> Batcher {
        Batcher::new()
            .with_max_batch_size(3)
            .with_max_wait(VirtualDuration::from_millis(10))
            .with_queue_capacity(5)
    }

    #[test]
    fn empty_queue_drains_nothing() {
        let b = batcher();
        assert_eq!(b.next_deadline(), None);
        assert!(b.drain_due(t(1_000)).is_none());
        assert!(b.drain_now().is_none());
    }

    #[test]
    fn full_batch_is_due_immediately() {
        let b = batcher();
        for ms in 0..3 {
            b.submit(Invocation::at(t(ms))).expect("capacity 5");
        }
        assert_eq!(b.next_deadline(), Some(t(0)), "full batch: due at oldest");
        let batch = b.drain_due(t(2)).expect("size-triggered flush");
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.invocations()[0].issued_at, t(0), "FIFO order");
        assert!(b.drain_due(t(2)).is_none(), "queue now empty");
    }

    #[test]
    fn partial_batch_waits_for_max_wait() {
        let b = batcher();
        b.submit(Invocation::at(t(0))).expect("capacity 5");
        b.submit(Invocation::at(t(3))).expect("capacity 5");
        assert_eq!(b.next_deadline(), Some(t(10)), "oldest arrival + max_wait");
        assert!(b.drain_due(t(9)).is_none(), "not due yet");
        let batch = b.drain_due(t(10)).expect("deadline flush");
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn oversize_queue_drains_in_max_size_chunks() {
        let b = batcher();
        for ms in 0..5 {
            b.submit(Invocation::at(t(ms))).expect("capacity 5");
        }
        assert_eq!(b.drain_due(t(5)).map(|b| b.len()), Some(3));
        assert_eq!(
            b.drain_due(t(5)).map(|b| b.len()),
            None,
            "remaining 2 are not due at t=5"
        );
        assert_eq!(b.drain_now().map(|b| b.len()), Some(2), "force flush");
    }

    #[test]
    fn shed_at_capacity_is_typed_and_counted() {
        let b = batcher();
        for ms in 0..5 {
            b.submit(Invocation::at(t(ms))).expect("capacity 5");
        }
        assert_eq!(
            b.submit(Invocation::at(t(6))),
            Err(SubmitError::Shed { capacity: 5 })
        );
        assert_eq!(b.shed_total(), 1);
        assert_eq!(b.queue_depth(), 5, "shed submission did not queue");
    }

    #[test]
    fn closed_batcher_rejects_then_drains() {
        let b = batcher();
        b.submit(Invocation::at(t(0))).expect("capacity 5");
        b.close();
        assert_eq!(b.submit(Invocation::at(t(1))), Err(SubmitError::Closed));
        let batch = b.drain_due(t(0)).expect("closed queues are always due");
        assert_eq!(batch.len(), 1);
        assert_eq!(
            b.next_batch_blocking(Duration::from_millis(1)),
            None,
            "end of stream after close + drain"
        );
    }

    #[test]
    fn unbatched_preset_flushes_every_submission() {
        let b = Batcher::unbatched();
        let ticket = b.submit(Invocation::at(t(7))).expect("capacity 64");
        let batch = b.drain_due(t(7)).expect("size-1 batches are always due");
        assert_eq!(batch.tickets(), &[ticket]);
    }

    #[test]
    fn blocking_consumer_sees_producer_batches() {
        let b = std::sync::Arc::new(Batcher::new().with_max_batch_size(3));
        let producer = {
            let b = std::sync::Arc::clone(&b);
            std::thread::spawn(move || {
                for ms in 0..6 {
                    b.submit(Invocation::at(t(ms))).expect("capacity 64");
                }
                b.close();
            })
        };
        let mut received = 0;
        while let Some(batch) = b.next_batch_blocking(Duration::from_millis(1)) {
            received += batch.len();
        }
        producer.join().expect("producer");
        assert_eq!(received, 6, "no invocation lost in the handoff");
    }
}
