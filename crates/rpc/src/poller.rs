//! Readiness multiplexing for bounded transport channels.
//!
//! Readiness is a hook on the channel itself: every [`FrameRx`]
//! registered with a [`Poller`] installs the poller's one [`NotifyHub`]
//! as its channel's [`Notify`] hook, which senders raise on push and on
//! close. Each bump carries the source's slot index, which the hub
//! dedup-enqueues on a FIFO ready list — [`Poller::poll`] services the
//! list head and re-enqueues still-ready sources at the back, so scan
//! work is O(ready) instead of O(registered) while keeping deterministic
//! round-robin fairness (a flooding connection cannot shadow its
//! neighbours). When the list is empty the poller parks on the hub's
//! condvar, using a generation counter so a bump between scan and park
//! is never lost.
//!
//! This is what lets one dispatcher thread serve N connections: the Device
//! Manager's event loop multiplexes all session request streams, and the
//! Remote Library's reactor multiplexes all client completion streams.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use crate::sync::channel::{bounded, Notify, Receiver, RecvView, Sender};
use crate::sync::{Condvar, MonoTime, Mutex};
use crate::transport::FrameRx;

/// Shared wakeup rendezvous between one poller and its registered queues:
/// a generation counter plus the FIFO ready list of slot indices.
///
/// `poll_gen` counts notifications; [`Poller::poll`] snapshots it before
/// scanning and sleeps only while it is unchanged, so a push that lands
/// mid-scan wakes the next `wait` immediately instead of being lost. The
/// ready list is advisory — the poller re-checks real readiness on pop —
/// so a stale entry (drained source, reused slot) costs one skipped pop,
/// never a wrong event.
#[derive(Debug)]
pub(crate) struct NotifyHub {
    wakeup: Mutex<HubState>,
    cv: Condvar,
}

#[derive(Debug)]
struct HubState {
    poll_gen: u64,
    /// Slot indices with a pending readiness edge, FIFO.
    ready: VecDeque<usize>,
    /// Dedup flags: `queued[i]` iff `i` is on the ready list.
    queued: Vec<bool>,
}

impl NotifyHub {
    fn new() -> Arc<NotifyHub> {
        Arc::new(NotifyHub {
            wakeup: Mutex::new(HubState {
                poll_gen: 0,
                ready: VecDeque::new(),
                queued: Vec::new(),
            }),
            cv: Condvar::new(),
        })
    }

    /// Pops the next candidate slot index off the ready list.
    fn pop_ready(&self) -> Option<usize> {
        // bf-flow: allow(hot_blocking): leaf lock (rank `wakeup`), two
        // index writes, nothing acquired under it
        let mut s = self.wakeup.lock();
        let idx = s.ready.pop_front()?;
        // bf-flow: allow(hot_panic): every queued index was bounds-grown
        // by `notify` before being enqueued
        s.queued[idx] = false;
        Some(idx)
    }

    fn generation(&self) -> u64 {
        self.wakeup.lock().poll_gen
    }

    /// Parks until the generation moves past `seen` or `timeout` elapses.
    fn wait(&self, seen: u64, timeout: Option<Duration>) {
        let mut s = self.wakeup.lock();
        if s.poll_gen != seen {
            return;
        }
        match timeout {
            None => self.cv.wait(&mut s),
            Some(t) => {
                let _ = self.cv.wait_for(&mut s, t);
            }
        }
    }
}

impl Notify for NotifyHub {
    /// Records an event (frame pushed / sender closed) on slot `idx`,
    /// dedup-enqueues it on the ready list and wakes the poller.
    fn notify(&self, idx: usize) {
        // bf-flow: allow(hot_blocking): leaf lock (rank `wakeup`) held for
        // a few index writes; nothing else is ever acquired under it
        let mut s = self.wakeup.lock();
        s.poll_gen = s.poll_gen.wrapping_add(1);
        if s.queued.len() <= idx {
            // bf-flow: allow(hot_alloc): bounded by peak concurrent
            // registrations — slot indices are dense and reused
            s.queued.resize(idx + 1, false);
        }
        // bf-flow: allow(hot_panic): the resize above guarantees
        // `queued.len() > idx`
        if !s.queued[idx] {
            // bf-flow: allow(hot_panic): same resize invariant as above
            s.queued[idx] = true;
            // bf-flow: allow(hot_alloc): both sides are bounded by peak
            // concurrent registrations — dedup flags cap the deque
            s.ready.push_back(idx);
        }
        drop(s);
        self.cv.notify_all();
    }
}

/// Identifies one registered readiness source within its [`Poller`].
///
/// Tokens are dense indices and may be reused after [`Poller::deregister`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(usize);

/// Deterministic work counters for the poller hot path, used by the scale
/// harness to quantify scan cost: `slots_scanned / polls` is the average
/// number of slots the poller had to examine to produce one event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollerStats {
    /// Completed [`Poller::poll`] calls.
    pub polls: u64,
    /// Slots examined across all scan passes (the scan-loop trip count).
    pub slots_scanned: u64,
}

/// Outcome of one [`Poller::poll`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollEvent {
    /// The source behind `Token` has a pending frame or a closed peer.
    Ready(Token),
    /// The timeout elapsed with nothing ready.
    TimedOut,
}

struct Slot {
    rx: RecvView<Bytes>,
    /// A waker slot owns its nudge channel and drains the nudge during the
    /// scan: the readiness edge is the event, the payload is meaningless.
    nudges: Option<Receiver<Bytes>>,
}

/// Single-threaded readiness selector over registered [`FrameRx`] taps.
///
/// Not `Sync`: one dispatcher thread owns it. Other threads interact only
/// through the transport (pushing frames) or a [`Waker`].
pub struct Poller {
    hub: Arc<NotifyHub>,
    slots: Vec<Option<Slot>>,
    stats: PollerStats,
}

impl Default for Poller {
    fn default() -> Self {
        Poller::new()
    }
}

impl Poller {
    /// An empty poller with its own notification hub.
    pub fn new() -> Poller {
        Poller {
            hub: NotifyHub::new(),
            slots: Vec::new(),
            stats: PollerStats::default(),
        }
    }

    /// Work counters accumulated since construction.
    pub fn stats(&self) -> PollerStats {
        self.stats
    }

    /// Registers a receive tap; its queue will wake this poller on every
    /// push and on sender close.
    pub fn register(&mut self, rx: FrameRx) -> Token {
        self.claim_slot(rx.0, None)
    }

    /// Removes a source. Its token may be reassigned by later
    /// registrations.
    pub fn deregister(&mut self, token: Token) {
        if let Some(slot) = self.slots.get_mut(token.0).and_then(Option::take) {
            slot.rx.clear_notify();
        }
    }

    /// Creates a self-wakeup handle: `wake()` from any thread makes the
    /// next (or current) `poll` return `Ready` with the returned token.
    /// Dropping the last clone of the `Waker` leaves the token permanently
    /// ready with `Closed` — a natural shutdown edge.
    pub fn add_waker(&mut self) -> (Token, Waker) {
        let (tx, nudges) = bounded(1);
        (self.claim_slot(nudges.view(), Some(nudges)), Waker { tx })
    }

    /// Number of registered sources (including wakers).
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Whether no sources are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks until a source is ready or `timeout` elapses (`None` waits
    /// indefinitely). Readiness means a pending frame or a closed sender
    /// side; consecutive calls rotate across ready sources round-robin.
    // bf-flow: entry(poller)
    pub fn poll(&mut self, timeout: Option<Duration>) -> PollEvent {
        self.stats.polls += 1;
        let deadline = timeout.map(MonoTime::after);
        loop {
            let seen = self.hub.generation();
            if let Some(token) = self.scan() {
                return PollEvent::Ready(token);
            }
            let remaining = match deadline {
                None => None,
                Some(d) => {
                    if d.has_passed() {
                        return PollEvent::TimedOut;
                    }
                    Some(d.remaining())
                }
            };
            // bf-flow: allow(hot_blocking): THE designed park point — every
            // event loop sleeps here, woken by the notify hub's generation
            // counter; no lock is held across the wait
            self.hub.wait(seen, remaining);
        }
    }

    /// Services the head of the hub's ready list, re-checking real
    /// readiness on every pop (stale entries are skipped). A source that
    /// is still ready after service re-enters at the back of the list, so
    /// persistently-ready sources rotate round-robin and cannot starve
    /// their neighbours. Work is O(ready), not O(registered).
    fn scan(&mut self) -> Option<Token> {
        while let Some(i) = self.hub.pop_ready() {
            self.stats.slots_scanned += 1;
            let Some(slot) = self.slots.get(i).and_then(Option::as_ref) else {
                continue;
            };
            if !slot.rx.ready() {
                continue;
            }
            if let Some(nudges) = &slot.nudges {
                let _ = nudges.try_recv();
            }
            if slot.rx.ready() {
                // Still ready (more frames, or a closed sender): back of
                // the list, behind every other pending source.
                self.hub.notify(i);
            }
            return Some(Token(i));
        }
        None
    }

    /// Stores a source in the first vacated slot, growing the vec only when
    /// every slot is occupied — the vec's length tracks peak concurrent
    /// registrations — then hooks its channel to the hub under that index
    /// and primes the ready list with it: frames pushed before
    /// registration never bumped, and a pop of a not-ready slot is a cheap
    /// skip.
    fn claim_slot(&mut self, rx: RecvView<Bytes>, nudges: Option<Receiver<Bytes>>) -> Token {
        let vacant = self.slots.iter().position(Option::is_none);
        let i = vacant.unwrap_or(self.slots.len());
        rx.set_notify(self.hub.clone(), i);
        match self.slots.get_mut(i) {
            Some(cell) => *cell = Some(Slot { rx, nudges }),
            // bf-flow: allow(hot_alloc): grows to peak concurrent
            // registrations; deregistered slots are reused before growing
            None => self.slots.push(Some(Slot { rx, nudges })),
        }
        self.hub.notify(i);
        Token(i)
    }
}

/// Cross-thread wakeup handle for a [`Poller`] (see [`Poller::add_waker`]).
#[derive(Debug, Clone)]
pub struct Waker {
    tx: Sender<Bytes>,
}

impl Waker {
    /// Makes the poller return `Ready` for the waker's token. Coalesces:
    /// concurrent wakes produce at least one `Ready`, not one each.
    pub fn wake(&self) {
        // Full means a wake is already pending; Closed means the poller is
        // gone. Both are fine to ignore.
        let _ = self.tx.try_send(Bytes::new());
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use bf_model::VirtualTime;

    use super::*;
    use crate::proto::{Response, ResponseEnvelope};
    use crate::transport::duplex_with_depth;

    fn resp(tag: u64) -> ResponseEnvelope {
        ResponseEnvelope {
            tag,
            sent_at: VirtualTime::ZERO,
            body: Response::Ack,
        }
    }

    #[test]
    fn poll_times_out_when_nothing_is_ready() {
        let (client, _server) = duplex_with_depth(4);
        let mut poller = Poller::new();
        poller.register(client.completions());
        assert_eq!(
            poller.poll(Some(Duration::from_millis(5))),
            PollEvent::TimedOut
        );
    }

    #[test]
    fn push_makes_the_source_ready() {
        let (client, server) = duplex_with_depth(4);
        let mut poller = Poller::new();
        let token = poller.register(client.completions());
        server.send(&resp(1)).expect("send");
        assert_eq!(poller.poll(None), PollEvent::Ready(token));
        assert!(client.try_recv().expect("frame").is_some());
    }

    #[test]
    fn sender_close_is_a_readiness_edge() {
        let (client, server) = duplex_with_depth(4);
        let mut poller = Poller::new();
        let token = poller.register(client.completions());
        let pusher = std::thread::spawn(move || drop(server));
        assert_eq!(poller.poll(None), PollEvent::Ready(token));
        pusher.join().expect("join");
        assert!(client.try_recv().is_err());
    }

    #[test]
    fn waker_wakes_a_blocked_poll_from_another_thread() {
        let mut poller = Poller::new();
        let (token, waker) = poller.add_waker();
        // Keep a clone alive so dropping the thread's copy is not a close.
        let remote = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            remote.wake();
        });
        assert_eq!(poller.poll(None), PollEvent::Ready(token));
        t.join().expect("join");
        // The nudge frame was drained during the scan: the next poll with a
        // timeout goes back to sleep.
        assert_eq!(
            poller.poll(Some(Duration::from_millis(5))),
            PollEvent::TimedOut
        );
    }

    #[test]
    fn dropping_the_waker_leaves_its_token_permanently_ready() {
        let mut poller = Poller::new();
        let (token, waker) = poller.add_waker();
        drop(waker);
        assert_eq!(poller.poll(None), PollEvent::Ready(token));
        assert_eq!(poller.poll(None), PollEvent::Ready(token));
        poller.deregister(token);
        assert!(poller.is_empty());
    }

    #[test]
    fn scan_rotates_round_robin_between_ready_sources() {
        let (client_a, server_a) = duplex_with_depth(64);
        let (client_b, server_b) = duplex_with_depth(64);
        let mut poller = Poller::new();
        let tok_a = poller.register(client_a.completions());
        let tok_b = poller.register(client_b.completions());
        for tag in 0..8 {
            server_a.send(&resp(tag)).expect("send a");
            server_b.send(&resp(tag)).expect("send b");
        }
        // Both stay ready throughout (one frame consumed per event), so the
        // rotation must alternate strictly.
        let mut order = Vec::new();
        for _ in 0..8 {
            match poller.poll(None) {
                PollEvent::Ready(tok) => {
                    order.push(tok);
                    let ch = if tok == tok_a { &client_a } else { &client_b };
                    ch.try_recv().expect("frame");
                }
                PollEvent::TimedOut => panic!("sources are ready"),
            }
        }
        let a_count = order.iter().filter(|t| **t == tok_a).count();
        let b_count = order.iter().filter(|t| **t == tok_b).count();
        assert_eq!((a_count, b_count), (4, 4), "strict alternation: {order:?}");
        for pair in order.chunks(2) {
            assert_ne!(pair[0], pair[1], "no source serviced twice in a row");
        }
    }

    #[test]
    fn deregistered_sources_are_ignored() {
        let (client, server) = duplex_with_depth(4);
        let mut poller = Poller::new();
        let token = poller.register(client.completions());
        server.send(&resp(1)).expect("send");
        poller.deregister(token);
        assert_eq!(
            poller.poll(Some(Duration::from_millis(5))),
            PollEvent::TimedOut
        );
    }
}
