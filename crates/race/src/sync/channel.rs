//! MPMC channels on the facade's `Mutex` + `Condvar`: the one queue every
//! hand-off in the threaded stack goes through — bf-rpc's duplex transport
//! and poller waker, the device manager's and reactor's control channels,
//! the remote library's one-shot rendezvous and the cluster watch.
//!
//! Built on the facade, so under `--features model` every send, receive,
//! park and wake is a scheduler yield point, and a thread parked on a full
//! or empty channel is an ordinary parked thread to the deadlock detector.
//! Deadlines go through [`MonoTime`], so timed receives are virtual there.
//!
//! A poller taps a receive side without owning it ([`Receiver::view`]) and
//! installs one readiness hook ([`RecvView::set_notify`]), raised after
//! the channel lock is dropped on every push and on the last sender's
//! close.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use super::{Condvar, MonoTime, Mutex};

/// Why a channel operation did not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// The other side is gone: every receiver (for sends), or every sender
    /// with the queue drained (for receives).
    Disconnected,
    /// [`Sender::try_send`] found a bounded channel full.
    Full,
    /// [`Receiver::recv_timeout`] expired with nothing queued.
    Timeout,
}

/// A readiness hook installed on a receive side ([`RecvView::set_notify`]).
pub trait Notify: Send + Sync + fmt::Debug {
    /// Records a readiness edge (an item pushed, or the last sender gone)
    /// on the `slot` the hook was installed under. Called with no channel
    /// lock held.
    fn notify(&self, slot: usize);
}

/// A channel whose [`Sender::send`] parks while `cap` items are queued and
/// whose [`Sender::try_send`] then reports [`ChannelError::Full`]. A
/// capacity of 0 is treated as 1.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    Chan::open(cap.max(1))
}

/// A channel that never reports full. `clippy.toml` bans it workspace-wide,
/// so each use carries an `#[expect(clippy::disallowed_methods, reason =
/// "...")]` that justifies it.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    Chan::open(usize::MAX)
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    senders: usize,
    receivers: usize,
    watch: Option<(Arc<dyn Notify>, usize)>,
}

#[derive(Debug)]
struct Chan<T> {
    cap: usize,
    queue: Mutex<State<T>>,
    readable: Condvar,
    writable: Condvar,
}

impl<T> Chan<T> {
    fn open(cap: usize) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            cap,
            queue: Mutex::new(State {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
                watch: None,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
        });
        (Sender { chan: chan.clone() }, Receiver { chan })
    }

    fn push(&self, item: T, block: bool) -> Result<(), ChannelError> {
        let mut q = self.queue.lock();
        loop {
            if q.receivers == 0 {
                return Err(ChannelError::Disconnected);
            }
            if q.items.len() < self.cap {
                break;
            }
            if !block {
                return Err(ChannelError::Full);
            }
            self.writable.wait(&mut q);
        }
        // bf-flow: allow(hot_alloc): a bounded channel is a depth-capped
        // ring — a full queue parks or returns Full instead of growing;
        // each unbounded one carries its caller's `#[expect(clippy::disallowed_methods)]`
        q.items.push_back(item);
        let watch = q.watch.clone();
        drop(q);
        self.readable.notify_one();
        if let Some((hook, slot)) = watch {
            hook.notify(slot);
        }
        Ok(())
    }

    fn pop(&self, deadline: Option<MonoTime>) -> Result<T, ChannelError> {
        let mut q = self.queue.lock();
        loop {
            if let Some(item) = q.items.pop_front() {
                drop(q);
                self.writable.notify_one();
                return Ok(item);
            }
            if q.senders == 0 {
                return Err(ChannelError::Disconnected);
            }
            match deadline {
                None => self.readable.wait(&mut q),
                Some(d) if d.has_passed() => return Err(ChannelError::Timeout),
                Some(d) => {
                    let _ = self.readable.wait_for(&mut q, d.remaining());
                }
            }
        }
    }

    fn try_pop(&self) -> Result<Option<T>, ChannelError> {
        let mut q = self.queue.lock();
        match q.items.pop_front() {
            Some(item) => {
                drop(q);
                self.writable.notify_one();
                Ok(Some(item))
            }
            None if q.senders == 0 => Err(ChannelError::Disconnected),
            None => Ok(None),
        }
    }
}

/// Sending side. Cloning adds a sender; dropping the last one disconnects
/// the channel, waking receivers and the readiness hook.
#[derive(Debug)]
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Sender<T> {
    /// Queues `item`, parking while a bounded channel is full.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Disconnected`] once every receiver is gone.
    pub fn send(&self, item: T) -> Result<(), ChannelError> {
        self.chan.push(item, true)
    }

    /// Queues `item` without parking.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Full`] on a full bounded channel, or
    /// [`ChannelError::Disconnected`] once every receiver is gone.
    pub fn try_send(&self, item: T) -> Result<(), ChannelError> {
        self.chan.push(item, false)
    }

    /// The most items the channel holds (`usize::MAX` when unbounded).
    pub fn capacity(&self) -> usize {
        self.chan.cap
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.queue.lock().senders += 1;
        Sender {
            chan: self.chan.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut q = self.chan.queue.lock();
        q.senders -= 1;
        let closed = q.senders == 0;
        let watch = if closed { q.watch.clone() } else { None };
        drop(q);
        if closed {
            self.chan.readable.notify_all();
            if let Some((hook, slot)) = watch {
                hook.notify(slot);
            }
        }
    }
}

/// Receiving side. Cloning adds a receiver; dropping the last one
/// disconnects the channel, failing parked and later sends.
#[derive(Debug)]
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Receiver<T> {
    /// Takes the next item, parking while the channel is empty.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Disconnected`] once the queue is drained and every
    /// sender is gone.
    pub fn recv(&self) -> Result<T, ChannelError> {
        self.chan.pop(None)
    }

    /// Like [`Receiver::recv`], giving up after `timeout`.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Timeout`] or [`ChannelError::Disconnected`].
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, ChannelError> {
        self.chan.pop(Some(MonoTime::after(timeout)))
    }

    /// Takes the next item if one is queued; `Ok(None)` means empty.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Disconnected`] once the queue is drained and every
    /// sender is gone.
    pub fn try_recv(&self) -> Result<Option<T>, ChannelError> {
        self.chan.try_pop()
    }

    /// Items queued and not yet received.
    pub fn len(&self) -> usize {
        self.chan.queue.lock().items.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A non-owning tap on this receive side, for a poller.
    pub fn view(&self) -> RecvView<T> {
        RecvView {
            chan: self.chan.clone(),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.chan.queue.lock().receivers += 1;
        Receiver {
            chan: self.chan.clone(),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut q = self.chan.queue.lock();
        q.receivers -= 1;
        let closed = q.receivers == 0;
        drop(q);
        if closed {
            // Parked senders must observe the hang-up.
            self.chan.writable.notify_all();
        }
    }
}

/// A non-owning tap on a receive side ([`Receiver::view`]): it receives
/// and reports readiness, but dropping it never disconnects the channel.
#[derive(Debug)]
pub struct RecvView<T> {
    chan: Arc<Chan<T>>,
}

impl<T> RecvView<T> {
    /// As [`Receiver::try_recv`].
    ///
    /// # Errors
    ///
    /// [`ChannelError::Disconnected`] once the queue is drained and every
    /// sender is gone.
    pub fn try_recv(&self) -> Result<Option<T>, ChannelError> {
        self.chan.try_pop()
    }

    /// Receive-readiness: an item is queued, or every sender is gone (so a
    /// poller's consumer observes the disconnect instead of parking).
    pub fn ready(&self) -> bool {
        let q = self.chan.queue.lock();
        !q.items.is_empty() || q.senders == 0
    }

    /// Installs `hook` as the channel's readiness hook under `slot`,
    /// replacing any previous one.
    pub fn set_notify(&self, hook: Arc<dyn Notify>, slot: usize) {
        self.chan.queue.lock().watch = Some((hook, slot));
    }

    /// Removes the readiness hook.
    pub fn clear_notify(&self) {
        self.chan.queue.lock().watch = None;
    }
}

impl<T> Clone for RecvView<T> {
    fn clone(&self) -> Self {
        RecvView {
            chan: self.chan.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_reports_full() {
        #[expect(
            clippy::disallowed_methods,
            reason = "the test exercises the unbounded constructor itself"
        )]
        let (tx, rx) = unbounded();
        for i in 0..1000 {
            tx.try_send(i).expect("unbounded");
        }
        assert_eq!(rx.len(), 1000);
        assert_eq!(tx.capacity(), usize::MAX);
    }

    #[test]
    fn last_receiver_drop_fails_sends_but_a_view_does_not_own() {
        let (tx, rx) = bounded(1);
        let view = rx.view();
        drop(rx);
        assert_eq!(tx.send(1), Err(ChannelError::Disconnected));
        assert_eq!(view.try_recv(), Ok(None));
    }

    #[test]
    fn last_sender_drop_raises_the_hook_and_readiness() {
        #[derive(Debug)]
        struct Count(Mutex<Vec<usize>>);
        impl Notify for Count {
            fn notify(&self, slot: usize) {
                self.0.lock().push(slot);
            }
        }
        let hook = Arc::new(Count(Mutex::new(Vec::new())));
        let (tx, rx) = bounded(4);
        let view = rx.view();
        view.set_notify(hook.clone(), 7);
        tx.send(1).expect("send");
        let tx2 = tx.clone();
        drop(tx);
        assert_eq!(
            *hook.0.lock(),
            [7],
            "the push; a sender drop that is not the last is silent"
        );
        drop(tx2);
        assert_eq!(*hook.0.lock(), [7, 7], "the last sender's close");
        assert!(view.ready());
        assert_eq!(rx.recv(), Ok(1), "queued items outlive the senders");
        assert_eq!(rx.recv(), Err(ChannelError::Disconnected));
        assert!(view.ready(), "a disconnect stays ready");
    }
}
