//! The client-side connection: request sending and tag → event dispatch
//! (paper Fig. 2, steps 3–6). Completion pulling lives in the shared
//! [`Reactor`](crate::Reactor), which multiplexes every connection's
//! bounded completion stream on one dispatcher thread and calls back into
//! [`handle_response`] here.

use std::collections::HashMap;
use std::sync::Arc;

use bf_cache::DigestTracker;
use bf_fpga::Payload;
use bf_model::{VirtualDuration, VirtualTime};
use bf_ocl::{ClError, ClResult, Event};
use bf_rpc::{
    ClientId, DataRef, ErrorCode, PathCosts, Request, RequestEnvelope, Response, ResponseEnvelope,
    ShmSegment,
};

use crate::reactor::Reactor;
use crate::state_machine::OpStateMachine;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::channel::{bounded, Receiver, Sender};
use crate::sync::Mutex;

/// Digests remembered per connection. Deliberately generous next to a
/// manager cache's typical entry count: a stale tracker entry costs one
/// `CacheMiss` round trip, a forgotten one costs a full payload send.
const TRACKER_ENTRIES: usize = 1024;

/// What the connection thread should do with a tagged response.
enum Pending {
    /// Forward the first response to a blocked caller (sync methods).
    Sync(Sender<ResponseEnvelope>),
    /// Forward the first `Completed`/`Error`, swallowing the `Enqueued`
    /// submission ack (`Finish` fences).
    Fence(Sender<ResponseEnvelope>),
    /// Drive an asynchronous operation's state machine and OpenCL event.
    Op(Box<OpPending>),
    /// Drop the response (fire-and-forget `Flush` acks).
    Discard,
}

struct OpPending {
    event: Event,
    machine: OpStateMachine,
    /// Shm region to release once the manager consumed a write payload.
    write_region: Option<u64>,
    /// One-shot verdict channel for acked submissions ([`Connection::
    /// submit_op_acked`]): `Ok(observed)` on `Enqueued`, the error pair on
    /// a NACK. While armed, a manager error is *not* applied to the event
    /// — the blocked submitter decides (e.g. resend inline after a
    /// `CacheMiss`).
    ack: Option<Sender<AckVerdict>>,
}

/// First-response verdict of an acked submission.
pub(crate) type AckVerdict = Result<VirtualTime, (ErrorCode, String)>;

pub(crate) struct ConnectionInner {
    client: ClientId,
    channel: bf_rpc::ClientChannel,
    costs: PathCosts,
    shm: Option<ShmSegment>,
    pending: Mutex<HashMap<u64, Pending>>,
    next_tag: AtomicU64,
    /// Digests the manager's payload cache is believed to hold; present
    /// only when the endpoint advertised a cache.
    tracker: Option<DigestTracker>,
    /// The advertised host-tier budget of that cache (0 without one).
    cache_capacity: u64,
}

/// A live connection to one Device Manager.
///
/// Cloning shares the connection. The shared [`Reactor`] pulls tagged
/// responses from the completion stream and either wakes a blocked
/// synchronous caller or advances the matching operation's state machine
/// and OpenCL event.
#[derive(Clone)]
pub struct Connection {
    inner: Arc<ConnectionInner>,
}

impl Connection {
    /// Wraps an endpoint handed out by
    /// [`bf_devmgr::DeviceManager::connect`], registering its completion
    /// stream with the process-wide [`Reactor`].
    pub fn new(endpoint: bf_devmgr::ManagerEndpoint) -> Self {
        Self::with_reactor(Reactor::global(), endpoint)
    }

    /// Like [`Connection::new`] with an explicit reactor (tests,
    /// isolation).
    pub fn with_reactor(reactor: &Reactor, endpoint: bf_devmgr::ManagerEndpoint) -> Self {
        let inner = Arc::new(ConnectionInner {
            client: endpoint.client,
            channel: endpoint.channel,
            costs: endpoint.costs,
            shm: endpoint.shm,
            pending: Mutex::new(HashMap::new()),
            next_tag: AtomicU64::new(1),
            tracker: (endpoint.payload_cache_capacity > 0)
                .then(|| DigestTracker::new(TRACKER_ENTRIES)),
            cache_capacity: endpoint.payload_cache_capacity,
        });
        // The reactor gets a non-owning tap plus a Weak backref, so this
        // connection's lifetime stays with its callers: dropping the last
        // handle drops the request sender, which is what tells the manager
        // to reap the session.
        reactor.register(inner.channel.completions(), Arc::downgrade(&inner));
        Connection { inner }
    }

    /// The session id on the manager.
    pub fn client(&self) -> ClientId {
        self.inner.client
    }

    /// This connection's cost profile.
    pub fn costs(&self) -> &PathCosts {
        &self.inner.costs
    }

    /// The shared-memory segment, when granted.
    pub fn shm(&self) -> Option<&ShmSegment> {
        self.inner.shm.as_ref()
    }

    /// The digest tracker, when the manager advertised a payload cache
    /// whose budget can admit a `len`-byte payload. A larger one is
    /// refused on arrival, so hashing or tracking it buys nothing: every
    /// repeat would travel as a digest that can only NACK, then inline.
    pub fn digest_tracker(&self, len: u64) -> Option<&DigestTracker> {
        self.inner
            .tracker
            .as_ref()
            .filter(|_| len <= self.inner.cache_capacity)
    }

    fn fresh_tag(&self) -> u64 {
        self.inner.next_tag.fetch_add(1, Ordering::SeqCst)
    }

    /// Sends a synchronous (context/information) request and blocks for its
    /// response. Returns the response body and the virtual instant the
    /// client observes it (manager completion + return hop).
    ///
    /// # Errors
    ///
    /// Transport failures and manager-side errors map to [`ClError`].
    pub fn call(&self, body: Request, sent_at: VirtualTime) -> ClResult<(Response, VirtualTime)> {
        let tag = self.fresh_tag();
        let (tx, rx) = bounded(1);
        self.inner.pending.lock().insert(tag, Pending::Sync(tx));
        self.send(tag, body, sent_at)?;
        let resp = rx
            .recv()
            .map_err(|_| ClError::TransportFailure("connection thread gone".to_string()))?;
        let observed = resp.sent_at + self.inner.costs.control_hop();
        match resp.body {
            Response::Error { code, message } => Err(map_error(code, message)),
            body => Ok((body, observed)),
        }
    }

    /// Sends a `Finish` fence and blocks until the task drains. Returns the
    /// observed completion instant.
    ///
    /// # Errors
    ///
    /// Transport failures and manager-side errors map to [`ClError`].
    pub fn fence(&self, queue: u64, sent_at: VirtualTime) -> ClResult<VirtualTime> {
        let tag = self.fresh_tag();
        let (tx, rx) = bounded(1);
        self.inner.pending.lock().insert(tag, Pending::Fence(tx));
        self.send(tag, Request::Finish { queue }, sent_at)?;
        let resp = rx
            .recv()
            .map_err(|_| ClError::TransportFailure("connection thread gone".to_string()))?;
        let observed = resp.sent_at + self.inner.costs.control_hop();
        match resp.body {
            Response::Error { code, message } => Err(map_error(code, message)),
            _ => Ok(observed),
        }
    }

    /// Sends a fire-and-forget request (e.g. `Flush`) whose ack is dropped.
    ///
    /// # Errors
    ///
    /// Returns a transport failure if the manager is gone.
    pub fn cast(&self, body: Request, sent_at: VirtualTime) -> ClResult<()> {
        let tag = self.fresh_tag();
        self.inner.pending.lock().insert(tag, Pending::Discard);
        self.send(tag, body, sent_at)
    }

    /// Sends an asynchronous command-queue operation tracked by `event`.
    /// The connection thread drives the event through the Fig. 2 state
    /// machine as responses arrive.
    ///
    /// # Errors
    ///
    /// Returns a transport failure if the manager is gone.
    pub fn submit_op(
        &self,
        body: Request,
        sent_at: VirtualTime,
        event: Event,
        write_region: Option<u64>,
    ) -> ClResult<()> {
        let tag = self.fresh_tag();
        let machine = OpStateMachine::new(event.command());
        self.inner.pending.lock().insert(
            tag,
            Pending::Op(Box::new(OpPending {
                event,
                machine,
                write_region,
                ack: None,
            })),
        );
        self.send(tag, body, sent_at)
    }

    /// Like [`submit_op`](Self::submit_op), but returns a one-shot
    /// receiver for the manager's first response: `Ok(observed_instant)`
    /// once the operation is `Enqueued`, or the NACK pair. While the ack
    /// is outstanding a manager error is handed to the receiver *instead
    /// of* the event, so the caller can retry (the `CacheMiss` inline
    /// resend) without the event ever observing a failure.
    ///
    /// # Errors
    ///
    /// Returns a transport failure if the manager is gone.
    pub(crate) fn submit_op_acked(
        &self,
        body: Request,
        sent_at: VirtualTime,
        event: Event,
    ) -> ClResult<Receiver<AckVerdict>> {
        let tag = self.fresh_tag();
        let machine = OpStateMachine::new(event.command());
        let (tx, rx) = bounded(1);
        self.inner.pending.lock().insert(
            tag,
            Pending::Op(Box::new(OpPending {
                event,
                machine,
                write_region: None,
                ack: Some(tx),
            })),
        );
        self.send(tag, body, sent_at)?;
        Ok(rx)
    }

    fn send(&self, tag: u64, body: Request, sent_at: VirtualTime) -> ClResult<()> {
        self.inner
            .channel
            .send(&RequestEnvelope {
                tag,
                client: self.inner.client,
                sent_at,
                body,
            })
            .map_err(|e| {
                self.inner.pending.lock().remove(&tag);
                ClError::TransportFailure(e.to_string())
            })
    }
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("client", &self.inner.client)
            .field("pending", &self.inner.pending.lock().len())
            .finish()
    }
}

/// Dispatches one tagged response pulled by the reactor: retrieves the
/// corresponding event (Fig. 2 step 5), then advances its state machine
/// and OpenCL status (step 6).
pub(crate) fn handle_response(inner: &Arc<ConnectionInner>, resp: ResponseEnvelope) {
    let mut pending = inner.pending.lock();
    match pending.remove(&resp.tag) {
        None => {} // stale tag (already failed locally)
        Some(Pending::Discard) => {}
        Some(Pending::Sync(tx)) => {
            let _ = tx.send(resp);
        }
        Some(Pending::Fence(tx)) => match resp.body {
            Response::Enqueued | Response::Ack => {
                // bf-flow: allow(hot_alloc): re-insert of the entry removed
                // three lines up — no net growth of the pending map
                pending.insert(resp.tag, Pending::Fence(tx));
            }
            _ => {
                let _ = tx.send(resp);
            }
        },
        Some(Pending::Op(mut op)) => {
            let tag = resp.tag;
            let keep = advance_op(inner, &mut op, resp);
            if keep {
                // bf-flow: allow(hot_alloc): re-insert of the in-flight op
                // just removed under the same tag — no net growth
                pending.insert(tag, Pending::Op(op));
            }
        }
    }
}

/// Called by the reactor when the completion stream closes (manager gone):
/// fails every outstanding operation.
pub(crate) fn fail_pending(inner: &Arc<ConnectionInner>) {
    let mut pending = inner.pending.lock();
    for (_, entry) in std::mem::take(&mut *pending) {
        if let Pending::Op(op) = entry {
            op.event
                .fail(ClError::TransportFailure("connection closed".to_string()));
        }
    }
}

/// Applies one response to an in-flight operation. Returns whether the
/// entry should stay registered (i.e. more responses are expected).
fn advance_op(inner: &Arc<ConnectionInner>, op: &mut OpPending, resp: ResponseEnvelope) -> bool {
    match resp.body {
        Response::Enqueued => {
            op.machine.on_enqueued();
            // Submission instant at the manager, observed locally.
            op.event.mark_submitted(resp.sent_at);
            if let Some(ack) = op.ack.take() {
                let _ = ack.send(Ok(resp.sent_at + inner.costs.control_hop()));
            }
            true
        }
        Response::Completed {
            started_at,
            ended_at,
            data,
        } => {
            let mut observed = ended_at + inner.costs.control_hop();
            let payload = match data {
                None => None,
                Some(DataRef::Synthetic(len)) => {
                    op.machine.on_buffer();
                    observed += inner.costs.inbound_payload_cost(len);
                    Some(Payload::Synthetic(len))
                }
                Some(DataRef::Inline(bytes)) => {
                    op.machine.on_buffer();
                    observed += inner.costs.inbound_payload_cost(bytes.len() as u64);
                    // The payload moves through as a refcounted view of
                    // the response frame — no copy.
                    Some(Payload::Data(bytes.into_bytes()))
                }
                // Managers never answer reads with digest references.
                Some(DataRef::Digest { .. }) => {
                    op.machine.on_error();
                    op.event.fail(ClError::TransportFailure(
                        "manager sent a digest reference for a read".to_string(),
                    ));
                    return false;
                }
                Some(DataRef::Shm { offset, len }) => {
                    op.machine.on_buffer();
                    observed += inner.costs.inbound_payload_cost(len);
                    match inner.shm.as_ref() {
                        Some(shm) => match shm.read(offset, len) {
                            Ok(bytes) => {
                                let _ = shm.free(offset);
                                Some(Payload::Data(bytes))
                            }
                            Err(e) => {
                                op.machine.on_error();
                                op.event.fail(ClError::TransportFailure(e.to_string()));
                                return false;
                            }
                        },
                        None => {
                            op.machine.on_error();
                            op.event.fail(ClError::TransportFailure(
                                "manager sent shm data on a grpc connection".to_string(),
                            ));
                            return false;
                        }
                    }
                }
            };
            if let Some(region) = op.write_region.take() {
                if let Some(shm) = inner.shm.as_ref() {
                    let _ = shm.free(region);
                }
            }
            op.machine.on_completed();
            op.event
                .complete_at(started_at, ended_at, observed, payload);
            false
        }
        Response::Error { code, message } => {
            if let (Some(region), Some(shm)) = (op.write_region.take(), inner.shm.as_ref()) {
                let _ = shm.free(region);
            }
            if let Some(ack) = op.ack.take() {
                // The blocked submitter owns the verdict: a `CacheMiss`
                // turns into an inline resend on the same (untouched)
                // event rather than a failure.
                let _ = ack.send(Err((code, message)));
                return false;
            }
            op.machine.on_error();
            op.event.fail(map_error(code, message));
            false
        }
        // Control responses never target op tags.
        _ => true,
    }
}

/// Maps manager error codes onto OpenCL error classes.
pub fn map_error(code: ErrorCode, message: String) -> ClError {
    match code {
        ErrorCode::InvalidHandle => ClError::InvalidOperation(message),
        ErrorCode::AccessDenied => ClError::AccessDenied(message),
        ErrorCode::OutOfResources => ClError::OutOfResources(message),
        ErrorCode::OutOfBounds => ClError::OutOfBounds(message),
        ErrorCode::BuildFailure => ClError::BuildProgramFailure(message),
        ErrorCode::InvalidLaunch => ClError::InvalidKernelLaunch(message),
        ErrorCode::ReconfigurationRefused => ClError::AccessDenied(message),
        ErrorCode::Internal => ClError::TransportFailure(message),
        // A cache miss is normally consumed by the inline-resend path in
        // `handle_response`; one that leaks means the retry state was
        // already gone, which only a broken connection can cause.
        ErrorCode::CacheMiss => ClError::TransportFailure(message),
    }
}

/// Convenience: total control-plane round trip for a synchronous call on
/// `costs` (request hop + response hop).
pub fn sync_rtt(costs: &PathCosts) -> VirtualDuration {
    costs.control_hop() * 2
}
