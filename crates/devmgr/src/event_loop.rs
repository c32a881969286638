//! The manager's single event loop: one thread multiplexing every client
//! session plus the central task queue.
//!
//! Replaces the old thread-per-session + worker-thread layout. A
//! [`Poller`] watches each session's bounded request stream and a control
//! waker; readiness events drive request handling, and sealed tasks drain
//! through the central FIFO queue inline (task *execution* is wall-clock
//! cheap — all latencies are virtual — so executing at the point the queue
//! drains preserves the paper's FIFO semantics exactly).
//!
//! Fairness comes from two mechanisms: the poller services ready sessions
//! round-robin, and each readiness event processes at most
//! [`FRAME_BATCH`] frames before the next scan — a flooding client keeps
//! its own bounded channel full (backpressure) but cannot starve its
//! neighbours.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use bf_rpc::{PollEvent, Poller, Token, TransportError};

use crate::sync::atomic::Ordering;
use crate::sync::channel::Receiver;

use crate::manager::Shared;
use crate::session::{Session, SessionSeed};
use crate::task::Task;
use crate::worker;

/// Upper bound on frames handled per readiness event, so one busy session
/// yields to the others between batches.
const FRAME_BATCH: usize = 32;

/// Flush-retry interval while some session has parked responses: a client
/// draining its completion stream does not wake the poller, so the loop
/// re-offers the backlog on a short timeout instead.
const FLUSH_RETRY: Duration = Duration::from_millis(1);

// bf-flow: entry(devmgr_events)
pub(crate) fn run_event_loop(
    shared: Arc<Shared>,
    control_rx: Receiver<Box<SessionSeed>>,
    mut poller: Poller,
    wake_token: Token,
) {
    let mut sessions: HashMap<Token, Session> = HashMap::new();
    let mut by_client: HashMap<u64, Token> = HashMap::new();
    let mut tasks: VecDeque<Task> = VecDeque::new();
    let mut op_metrics = worker::OpMetrics::default();
    let mut control_open = true;

    loop {
        if !control_open && sessions.is_empty() {
            // Every manager handle and every session is gone.
            return;
        }
        let timeout = sessions
            .values()
            .any(|s| s.backlog() > 0)
            .then_some(FLUSH_RETRY);
        match poller.poll(timeout) {
            PollEvent::TimedOut => {}
            PollEvent::Ready(token) if token == wake_token => {
                loop {
                    match control_rx.try_recv() {
                        Ok(Some(seed)) => {
                            let token = poller.register(seed.server.requests());
                            // bf-flow: allow(hot_alloc): one entry per live
                            // session, removed on reap — bounded by the
                            // connected-client count, not by traffic
                            by_client.insert(seed.client.0, token);
                            // bf-flow: allow(hot_alloc): same bound as above
                            sessions.insert(token, Session::new(shared.clone(), *seed));
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // The last manager handle dropped: no further
                            // connects. Existing sessions are served until
                            // they close.
                            control_open = false;
                            poller.deregister(wake_token);
                            break;
                        }
                    }
                }
            }
            PollEvent::Ready(token) => {
                if let Some(session) = sessions.get_mut(&token) {
                    for _ in 0..FRAME_BATCH {
                        match session.server.try_recv() {
                            Ok(Some(env)) => session.handle_frame(env, &mut tasks),
                            Ok(None) => break,
                            Err(TransportError::Closed) => {
                                session.peer_hung_up();
                                break;
                            }
                            Err(_) => {
                                // Undecodable frame: the peer is broken.
                                session.force_close();
                                break;
                            }
                        }
                    }
                }
            }
        }
        // Drain the central queue in FIFO order (Fig. 3 step 4), routing
        // completions back to the owning session.
        while let Some(task) = tasks.pop_front() {
            let responses = worker::execute_task(&shared, &mut op_metrics, &task);
            if let Some(session) = by_client
                .get(&task.client.0)
                .and_then(|token| sessions.get_mut(token))
            {
                for env in responses {
                    session.queue_response(env);
                }
            }
        }
        // Re-offer parked responses, disconnect hopeless consumers, and
        // reap in one sweep — no scratch list of doomed tokens.
        let max_backlog = shared.config.max_pending_responses;
        sessions.retain(|token, session| {
            session.flush();
            if session.backlog() > max_backlog {
                // Slow consumer: cut the session loose rather than buffer
                // its completions without bound.
                session.force_close();
            }
            if !session.reapable() {
                return true;
            }
            poller.deregister(*token);
            by_client.remove(&session.client().0);
            session.cleanup();
            shared.connected.fetch_sub(1, Ordering::SeqCst);
            false
        });
    }
}
