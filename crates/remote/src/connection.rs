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
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::channel::{bounded, Sender};
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
    /// Move an asynchronous operation's OpenCL event through its Fig. 2
    /// statuses.
    Op(Box<OpPending>),
    /// Drop the response (fire-and-forget `Flush` acks).
    Discard,
}

struct OpPending {
    event: Event,
    /// Shm region to release once the manager consumed a write payload.
    write_region: Option<u64>,
    /// One-shot verdict channel of an acked submission
    /// ([`Connection::submit_op`]); while armed, a manager error is *not*
    /// applied to the event — the blocked submitter decides.
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
/// synchronous caller or moves the matching operation's OpenCL event
/// forward.
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

    /// Sends a synchronous (context/information) request and blocks for its
    /// response. Returns the response body and the virtual instant the
    /// client observes it (manager completion + return hop).
    ///
    /// # Errors
    ///
    /// Transport failures and manager-side errors map to [`ClError`].
    pub fn call(&self, body: Request, sent_at: VirtualTime) -> ClResult<(Response, VirtualTime)> {
        self.round_trip(Pending::Sync, body, sent_at)
    }

    /// Sends a `Finish` fence and blocks until the task drains. Returns the
    /// observed completion instant.
    ///
    /// # Errors
    ///
    /// Transport failures and manager-side errors map to [`ClError`].
    pub fn fence(&self, queue: u64, sent_at: VirtualTime) -> ClResult<VirtualTime> {
        self.round_trip(Pending::Fence, Request::Finish { queue }, sent_at)
            .map(|(_, observed)| observed)
    }

    /// Sends a fire-and-forget request (e.g. `Flush`) whose ack is dropped.
    ///
    /// # Errors
    ///
    /// Returns a transport failure if the manager is gone.
    pub fn cast(&self, body: Request, sent_at: VirtualTime) -> ClResult<()> {
        self.send_tagged(Pending::Discard, body, sent_at)
    }

    /// Sends an asynchronous command-queue operation tracked by `event`,
    /// which the reactor moves through its Fig. 2 statuses as responses
    /// arrive. `write_region` is the shm region to free once the manager
    /// has consumed a write payload.
    ///
    /// With an `ack`, the manager's first response is also handed to it:
    /// `Ok(observed_instant)` once the operation is `Enqueued`, or the NACK
    /// pair. While the ack is outstanding a manager error goes to the ack
    /// *instead of* the event, so the caller can retry (the `CacheMiss`
    /// inline resend) without the event ever observing a failure.
    ///
    /// # Errors
    ///
    /// Returns a transport failure if the manager is gone.
    pub(crate) fn submit_op(
        &self,
        body: Request,
        sent_at: VirtualTime,
        event: Event,
        write_region: Option<u64>,
        ack: Option<Sender<AckVerdict>>,
    ) -> ClResult<()> {
        let op = OpPending {
            event,
            write_region,
            ack,
        };
        self.send_tagged(Pending::Op(Box::new(op)), body, sent_at)
    }

    /// Sends `body` under a fresh tag and blocks for the first response
    /// the reactor forwards to the `entry` it registers.
    fn round_trip(
        &self,
        entry: fn(Sender<ResponseEnvelope>) -> Pending,
        body: Request,
        sent_at: VirtualTime,
    ) -> ClResult<(Response, VirtualTime)> {
        let (tx, rx) = bounded(1);
        self.send_tagged(entry(tx), body, sent_at)?;
        let resp = rx
            .recv()
            .map_err(|_| ClError::TransportFailure("connection thread gone".to_string()))?;
        let observed = resp.sent_at + self.inner.costs.control_hop();
        match resp.body {
            Response::Error { code, message } => Err(map_error(code, message)),
            body => Ok((body, observed)),
        }
    }

    /// Registers `entry` under a fresh tag, then sends `body` tagged with
    /// it; a send failure unregisters the tag again.
    fn send_tagged(&self, entry: Pending, body: Request, sent_at: VirtualTime) -> ClResult<()> {
        let tag = self.inner.next_tag.fetch_add(1, Ordering::SeqCst);
        self.inner.pending.lock().insert(tag, entry);
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
/// corresponding event (Fig. 2 step 5), then moves its OpenCL status
/// forward (step 6).
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

/// Applies one response to an in-flight operation, moving its event
/// forward (Fig. 2 step 6; [`Event`] drops late and duplicate updates).
/// Returns whether the entry should stay registered (i.e. more responses
/// are expected).
fn advance_op(inner: &Arc<ConnectionInner>, op: &mut OpPending, resp: ResponseEnvelope) -> bool {
    match resp.body {
        Response::Enqueued => {
            // FIRST: the submission instant at the manager, observed locally.
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
            let payload = match data.map(|data| copy_out(inner, data)).transpose() {
                Ok(payload) => payload,
                Err(e) => {
                    op.event.fail(e);
                    return false;
                }
            };
            let mut observed = ended_at + inner.costs.control_hop();
            if let Some(payload) = &payload {
                observed += inner.costs.inbound_payload_cost(payload.len());
            }
            if let (Some(region), Some(shm)) = (op.write_region.take(), inner.shm.as_ref()) {
                let _ = shm.free(region);
            }
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
            op.event.fail(map_error(code, message));
            false
        }
        // Control responses never target op tags.
        _ => true,
    }
}

/// Fig. 2 BUFFER: takes a read's result out of its completion. Inline
/// bytes stay a refcounted view of the response frame (no copy); an shm
/// region is read and released.
fn copy_out(inner: &ConnectionInner, data: DataRef) -> ClResult<Payload> {
    match data {
        DataRef::Synthetic(len) => Ok(Payload::Synthetic(len)),
        DataRef::Inline(bytes) => Ok(Payload::Data(bytes.into_bytes())),
        // Managers never answer reads with digest references.
        DataRef::Digest { .. } => Err(ClError::TransportFailure(
            "manager sent a digest reference for a read".to_string(),
        )),
        DataRef::Shm { offset, len } => {
            let shm = inner.shm.as_ref().ok_or_else(|| {
                ClError::TransportFailure("manager sent shm data on a grpc connection".to_string())
            })?;
            let bytes = shm
                .read(offset, len)
                .map_err(|e| ClError::TransportFailure(e.to_string()))?;
            let _ = shm.free(offset);
            Ok(Payload::Data(bytes))
        }
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

#[cfg(test)]
pub(crate) mod tests {
    use bf_model::NodeId;
    use bf_ocl::{CommandType, EventStatus};
    use bf_rpc::ServerChannel;

    use super::*;

    pub(crate) fn t(us: u64) -> VirtualTime {
        VirtualTime::from_nanos(us * 1_000)
    }

    /// A connection whose "manager" is the returned server half: the test
    /// answers each request by hand, in whatever order it likes.
    pub(crate) fn scripted() -> (Connection, ServerChannel) {
        let (client, server) = bf_rpc::duplex();
        let endpoint = bf_devmgr::ManagerEndpoint {
            device_id: "scripted".to_string(),
            node: NodeId::new("scripted-node"),
            client: ClientId(7),
            channel: client,
            shm: None,
            costs: PathCosts::local_grpc(),
            payload_cache_capacity: 0,
        };
        (Connection::with_reactor(&Reactor::new(), endpoint), server)
    }

    /// Submits `body` as an asynchronous operation tracked by a fresh event
    /// and returns the event with the request the manager received.
    pub(crate) fn submit(
        conn: &Connection,
        server: &ServerChannel,
        command: CommandType,
        body: Request,
    ) -> (Event, RequestEnvelope) {
        let event = Event::new(command, t(0));
        conn.submit_op(body, t(1), event.clone(), None, None)
            .expect("submit");
        (event, server.recv().expect("request reaches the manager"))
    }

    pub(crate) fn answer(
        server: &ServerChannel,
        req: &RequestEnvelope,
        sent_at: VirtualTime,
        body: Response,
    ) {
        let resp = ResponseEnvelope {
            tag: req.tag,
            sent_at,
            body,
        };
        server.send(&resp).expect("answer");
    }

    #[test]
    fn scripted_manager_drives_events_to_their_terminal_status() {
        let (conn, server) = scripted();
        let hop = conn.costs().control_hop();

        // A completion that overtakes its `Enqueued` ack: the read ends
        // `Complete` with its payload, and the late ack changes nothing.
        let (read, req) = submit(
            &conn,
            &server,
            CommandType::ReadBuffer,
            Request::EnqueueRead {
                queue: 1,
                buffer: 2,
                offset: 0,
                len: 4,
            },
        );
        assert!(matches!(req.body, Request::EnqueueRead { len: 4, .. }));
        answer(
            &server,
            &req,
            t(30),
            Response::Completed {
                started_at: t(20),
                ended_at: t(30),
                data: Some(DataRef::Inline(vec![1u8, 2, 3, 4].into())),
            },
        );
        answer(&server, &req, t(10), Response::Enqueued);
        read.wait().expect("read completes");
        let data = Payload::Data(vec![1u8, 2, 3, 4].into());
        let observed = t(30) + hop + conn.costs().inbound_payload_cost(4);

        // A second operation is acked, then refused: it ends `Failed` with
        // the mapped error.
        let (launch, req) = submit(
            &conn,
            &server,
            CommandType::NdRangeKernel,
            Request::EnqueueKernel {
                queue: 1,
                kernel: 3,
                work: [4, 1, 1],
            },
        );
        answer(&server, &req, t(40), Response::Enqueued);
        answer(
            &server,
            &req,
            t(41),
            Response::Error {
                code: ErrorCode::InvalidLaunch,
                message: "argument 0 unset".to_string(),
            },
        );
        assert_eq!(
            launch.wait(),
            Err(ClError::InvalidKernelLaunch("argument 0 unset".to_string()))
        );
        assert_eq!(launch.status(), EventStatus::Failed);
        assert_eq!(launch.profile().submitted, Some(t(40)));

        // The stream is FIFO, so the read's late ack has been dispatched by
        // now: the read is exactly as its completion left it.
        assert_eq!(read.status(), EventStatus::Complete);
        assert_eq!(read.observed_at(), Some(observed));
        let profile = read.profile();
        assert_eq!(profile.submitted, None, "the late ack is dropped");
        assert_eq!((profile.started, profile.ended), (Some(t(20)), Some(t(30))));
        assert_eq!(read.take_payload(), Ok(data));

        // Nothing else was sent for either operation.
        assert!(server.try_recv().expect("open").is_none());
    }
}
