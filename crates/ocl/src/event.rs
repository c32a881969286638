//! OpenCL events with the standard status lifecycle.
//!
//! Every enqueued command yields an [`Event`] whose status moves through
//! `Queued → Submitted → Running → Complete` (or to `Failed`). Statuses are
//! monotonic — an event never moves backwards and a terminal status
//! absorbs — matching the OpenCL execution-status model. For remoted
//! commands the event *is* the paper's Fig. 2 per-call state machine: the
//! Remote Library moves it forward as tagged responses arrive (step 6).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bf_fpga::Payload;
use bf_model::{VirtualClock, VirtualTime};
use parking_lot::{Condvar, Mutex};

use crate::error::{ClError, ClResult};

/// The kind of command an event tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandType {
    /// `clEnqueueWriteBuffer`.
    WriteBuffer,
    /// `clEnqueueReadBuffer`.
    ReadBuffer,
    /// `clEnqueueNDRangeKernel`.
    NdRangeKernel,
    /// `clEnqueueCopyBuffer`.
    CopyBuffer,
    /// Internal marker (barriers, flush fences).
    Marker,
}

/// OpenCL execution status of a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventStatus {
    /// Command is in the host command queue.
    Queued,
    /// Command has been submitted to the device (manager).
    Submitted,
    /// Command is executing on the device.
    Running,
    /// Command finished successfully.
    Complete,
    /// Command failed; details in the event's error.
    Failed,
}

impl EventStatus {
    /// Whether the status is terminal.
    pub fn is_terminal(self) -> bool {
        matches!(self, EventStatus::Complete | EventStatus::Failed)
    }
}

/// Device-side profiling timestamps (as `clGetEventProfilingInfo` reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventProfile {
    /// `CL_PROFILING_COMMAND_QUEUED`.
    pub queued: Option<VirtualTime>,
    /// `CL_PROFILING_COMMAND_SUBMIT`.
    pub submitted: Option<VirtualTime>,
    /// `CL_PROFILING_COMMAND_START`.
    pub started: Option<VirtualTime>,
    /// `CL_PROFILING_COMMAND_END`.
    pub ended: Option<VirtualTime>,
}

/// A completion callback (`clSetEventCallback`): invoked exactly once with
/// the terminal status.
pub type EventCallback = Box<dyn FnOnce(EventStatus) + Send>;

struct EventState {
    status: EventStatus,
    profile: EventProfile,
    payload: Option<Payload>,
    error: Option<ClError>,
    /// When the *host* observes completion (device end + return hop for
    /// remoted commands); used to advance the attached clock on `wait`.
    observed: Option<VirtualTime>,
    clock: Option<VirtualClock>,
    callbacks: Vec<EventCallback>,
}

impl std::fmt::Debug for EventState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventState")
            .field("status", &self.status)
            .field("profile", &self.profile)
            .field("callbacks", &self.callbacks.len())
            .finish_non_exhaustive()
    }
}

#[derive(Debug)]
struct EventInner {
    id: u64,
    command: CommandType,
    state: Mutex<EventState>,
    cond: Condvar,
}

static NEXT_EVENT_ID: AtomicU64 = AtomicU64::new(1);

/// A handle to an asynchronous command's status, shared between the
/// application thread and the runtime (native executor or the Remote
/// Library's connection thread).
#[derive(Debug, Clone)]
pub struct Event {
    inner: Arc<EventInner>,
}

impl Event {
    /// Creates a fresh event in the `Queued` state.
    pub fn new(command: CommandType, queued_at: VirtualTime) -> Self {
        Event {
            inner: Arc::new(EventInner {
                id: NEXT_EVENT_ID.fetch_add(1, Ordering::Relaxed),
                command,
                state: Mutex::new(EventState {
                    status: EventStatus::Queued,
                    profile: EventProfile {
                        queued: Some(queued_at),
                        ..EventProfile::default()
                    },
                    payload: None,
                    error: None,
                    observed: None,
                    clock: None,
                    callbacks: Vec::new(),
                }),
                cond: Condvar::new(),
            }),
        }
    }

    /// Unique event id (the "tag" the Remote Library sends on the wire).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The command this event tracks.
    pub fn command(&self) -> CommandType {
        self.inner.command
    }

    /// Current execution status (`clGetEventInfo`).
    pub fn status(&self) -> EventStatus {
        self.inner.state.lock().status
    }

    /// Profiling timestamps recorded so far.
    pub fn profile(&self) -> EventProfile {
        self.inner.state.lock().profile
    }

    /// Attaches the host clock this event should advance when the
    /// application blocks on it (runtime-internal).
    pub fn attach_clock(&self, clock: VirtualClock) {
        self.inner.state.lock().clock = Some(clock);
    }

    /// Registers a completion callback (`clSetEventCallback`): invoked
    /// exactly once with the terminal status. If the event is already
    /// terminal the callback runs immediately on the calling thread;
    /// otherwise it runs on the thread that completes the event (the
    /// connection thread for remoted commands — keep it short, as the
    /// OpenCL specification also demands).
    pub fn on_complete(&self, callback: impl FnOnce(EventStatus) + Send + 'static) {
        let mut callback = Some(Box::new(callback) as EventCallback);
        let immediate = {
            let mut state = self.inner.state.lock();
            if state.status.is_terminal() {
                Some(state.status)
            } else {
                if let Some(cb) = callback.take() {
                    state.callbacks.push(cb);
                }
                None
            }
        };
        if let (Some(status), Some(cb)) = (immediate, callback.take()) {
            cb(status);
        }
    }

    /// The instant the host observes completion (device end plus the return
    /// hop for remoted commands), once terminal.
    pub fn observed_at(&self) -> Option<VirtualTime> {
        self.inner.state.lock().observed
    }

    /// Blocks the calling thread until the event reaches a terminal status
    /// (`clWaitForEvents`), advancing the attached host clock to the
    /// observed completion instant.
    ///
    /// # Errors
    ///
    /// Returns the command's failure if the event ends in `Failed`.
    pub fn wait(&self) -> ClResult<()> {
        let mut state = self.inner.state.lock();
        while !state.status.is_terminal() {
            self.inner.cond.wait(&mut state);
        }
        if let (Some(clock), Some(observed)) = (&state.clock, state.observed) {
            clock.advance_to(observed);
        }
        match &state.error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Takes the read payload out of a completed `ReadBuffer` event.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidOperation`] if the event is not complete
    /// or carries no payload (wrong command type, or payload already taken).
    pub fn take_payload(&self) -> ClResult<Payload> {
        let mut state = self.inner.state.lock();
        if state.status != EventStatus::Complete {
            return Err(ClError::InvalidOperation(
                "payload is only available on completed read events".to_string(),
            ));
        }
        state
            .payload
            .take()
            .ok_or_else(|| ClError::InvalidOperation("event carries no payload".to_string()))
    }

    // ---- runtime-side transitions -------------------------------------
    // These are called by backends (native executor, the Remote Library's
    // response dispatch), not by applications; statuses only move forward.

    /// Marks the command submitted to the device manager.
    pub fn mark_submitted(&self, at: VirtualTime) {
        self.transition(EventStatus::Submitted, |s| s.profile.submitted = Some(at));
    }

    /// Marks the command running on the device.
    pub fn mark_running(&self, at: VirtualTime) {
        self.transition(EventStatus::Running, |s| s.profile.started = Some(at));
    }

    /// Completes the command, optionally attaching a read payload. The host
    /// observes completion at the device end instant (local execution).
    pub fn complete(&self, started: VirtualTime, ended: VirtualTime, payload: Option<Payload>) {
        self.complete_at(started, ended, ended, payload);
    }

    /// Completes the command with an explicit host-observed instant
    /// (`observed >= ended`: device end plus the return hop and any
    /// client-side payload copy for remoted commands).
    pub fn complete_at(
        &self,
        started: VirtualTime,
        ended: VirtualTime,
        observed: VirtualTime,
        payload: Option<Payload>,
    ) {
        self.transition(EventStatus::Complete, |s| {
            s.profile.started.get_or_insert(started);
            s.profile.ended = Some(ended);
            s.observed = Some(observed);
            if payload.is_some() {
                s.payload = payload;
            }
        });
    }

    /// Fails the command.
    pub fn fail(&self, error: ClError) {
        self.transition(EventStatus::Failed, |s| s.error = Some(error));
    }

    fn transition(&self, to: EventStatus, update: impl FnOnce(&mut EventState)) {
        let callbacks = {
            let mut state = self.inner.state.lock();
            if state.status.is_terminal() || to <= state.status {
                return; // statuses are monotonic; late/duplicate updates are dropped
            }
            state.status = to;
            update(&mut state);
            if to.is_terminal() {
                self.inner.cond.notify_all();
                std::mem::take(&mut state.callbacks)
            } else {
                Vec::new()
            }
        };
        // Callbacks run outside the lock so they may inspect the event.
        for cb in callbacks {
            cb(to);
        }
    }
}

/// Blocks until every event in `events` is terminal (`clWaitForEvents`).
///
/// # Errors
///
/// Returns the first failure encountered, after all events are terminal.
pub fn wait_for_events(events: &[Event]) -> ClResult<()> {
    let mut first_err = None;
    for e in events {
        if let Err(err) = e.wait() {
            first_err.get_or_insert(err);
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> VirtualTime {
        VirtualTime::from_nanos(ns)
    }

    #[test]
    fn lifecycle_progresses_forward() {
        let e = Event::new(CommandType::WriteBuffer, t(0));
        assert_eq!(e.status(), EventStatus::Queued);
        e.mark_submitted(t(1));
        assert_eq!(e.status(), EventStatus::Submitted);
        e.mark_running(t(2));
        e.complete(t(2), t(5), None);
        assert_eq!(e.status(), EventStatus::Complete);
        let p = e.profile();
        assert_eq!(p.queued, Some(t(0)));
        assert_eq!(p.submitted, Some(t(1)));
        assert_eq!(p.started, Some(t(2)));
        assert_eq!(p.ended, Some(t(5)));
    }

    #[test]
    fn statuses_never_move_backwards() {
        let e = Event::new(CommandType::NdRangeKernel, t(0));
        e.mark_running(t(2));
        e.mark_submitted(t(1)); // late: dropped
        assert_eq!(e.status(), EventStatus::Running);
        e.complete(t(2), t(3), None);
        e.mark_running(t(9)); // after terminal: dropped
        assert_eq!(e.status(), EventStatus::Complete);
    }

    #[test]
    fn wait_returns_failure() {
        let e = Event::new(CommandType::ReadBuffer, t(0));
        e.fail(ClError::InvalidBuffer);
        assert_eq!(e.wait(), Err(ClError::InvalidBuffer));
        assert_eq!(e.status(), EventStatus::Failed);
    }

    #[test]
    fn wait_blocks_until_completion_across_threads() {
        let e = Event::new(CommandType::WriteBuffer, t(0));
        let e2 = e.clone();
        let handle = std::thread::spawn(move || e2.wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        e.complete(t(0), t(1), None);
        handle.join().expect("join").expect("wait ok");
    }

    #[test]
    fn payload_round_trip() {
        let e = Event::new(CommandType::ReadBuffer, t(0));
        assert!(e.take_payload().is_err(), "no payload before completion");
        e.complete(t(0), t(1), Some(Payload::Data(vec![1, 2].into())));
        assert_eq!(e.take_payload(), Ok(Payload::Data(vec![1, 2].into())));
        assert!(e.take_payload().is_err(), "payload can only be taken once");
    }

    #[test]
    fn wait_for_events_reports_first_failure() {
        let ok = Event::new(CommandType::Marker, t(0));
        ok.complete(t(0), t(0), None);
        let bad = Event::new(CommandType::Marker, t(0));
        bad.fail(ClError::InvalidQueue);
        assert_eq!(wait_for_events(&[ok, bad]), Err(ClError::InvalidQueue));
    }

    #[test]
    fn callbacks_fire_once_on_completion() {
        let e = Event::new(CommandType::WriteBuffer, t(0));
        let count = Arc::new(AtomicU64::new(0));
        let c = count.clone();
        e.on_complete(move |status| {
            assert_eq!(status, EventStatus::Complete);
            c.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 0, "not before completion");
        e.complete(t(0), t(1), None);
        e.complete(t(0), t(2), None); // duplicate terminal: no second firing
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn callbacks_on_terminal_events_run_immediately() {
        let e = Event::new(CommandType::Marker, t(0));
        e.fail(ClError::InvalidQueue);
        let fired = Arc::new(AtomicU64::new(0));
        let f = fired.clone();
        e.on_complete(move |status| {
            assert_eq!(status, EventStatus::Failed);
            f.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn event_ids_are_unique() {
        let a = Event::new(CommandType::Marker, t(0));
        let b = Event::new(CommandType::Marker, t(0));
        assert_ne!(a.id(), b.id());
    }
}
