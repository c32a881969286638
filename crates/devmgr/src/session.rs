//! Per-client session handling.
//!
//! Each connected client gets its own [`Session`] — its own resource pool,
//! the isolation mechanism of §III-B: handles are session-scoped, so a
//! client can never name (let alone touch) another tenant's buffers,
//! kernels or queues. The pool is a [`Resources`] table, the same OpenCL
//! object model the native backend keeps; the session only translates
//! wire handles and arguments into it and its refusals back into wire
//! codes ([`Refusal`]). Sessions are not threads: the manager's single
//! event loop drives every session from poller readiness events.
//!
//! *Context & information methods* are answered synchronously from the
//! event loop. *Command-queue methods* accumulate in the open task of the
//! target queue; `Flush`/`Finish` seal the task and push it onto the
//! manager's central queue.
//!
//! Responses go out through the bounded completion stream with
//! backpressure handled explicitly: when `try_send` reports a full stream,
//! envelopes park in the session's `outbound` buffer (preserving order)
//! and are re-flushed on later loop iterations. A client that stops
//! draining past the configured limit is force-disconnected instead of
//! buffering without bound.

use std::collections::VecDeque;
use std::sync::Arc;

use bf_cache::{content_digest, DigestTracker};
use bf_model::VirtualTime;
use bf_ocl::{
    ArgValue, ClError, ContextId, DeviceInfo, KernelId, MemId, NdRange, ProgramId, QueueId,
    Resources,
};
use bf_rpc::{
    ClientId, DataRef, ErrorCode, PathCosts, Request, RequestEnvelope, Response, ResponseEnvelope,
    ServerChannel, ShmSegment, TransportError, WireArg,
};

use crate::lock_order;
use crate::manager::{ReconfigPolicy, ReconfigRequest, Shared};
use crate::task::{Operation, Task};

/// Digests one session keeps hit authorization for. Matches the
/// client-side tracker bound (`TRACKER_ENTRIES` in bf-remote), so both
/// ends age entries in lock-step; an aged-out entry just degrades the
/// next digest send to one `CacheMiss` round trip and an inline resend.
const ADMITTED_ENTRIES: usize = 1024;

/// Everything `DeviceManager::connect` hands to the event loop to start a
/// session.
pub(crate) struct SessionSeed {
    pub server: ServerChannel,
    pub client: ClientId,
    pub name: String,
    pub costs: PathCosts,
    pub shm: Option<ShmSegment>,
}

/// A request the session refuses: the wire code and a message.
struct Refusal(ErrorCode, String);

impl From<ClError> for Refusal {
    /// The one translation of the handle table's errors into wire codes.
    /// A buffer handle the session does not hold is answered as "not
    /// yours" (`AccessDenied`), the isolation answer; every other unknown
    /// handle is `InvalidHandle`.
    fn from(e: ClError) -> Self {
        let code = match e {
            ClError::InvalidBuffer => ErrorCode::AccessDenied,
            ClError::InvalidContext
            | ClError::InvalidProgram
            | ClError::InvalidKernel
            | ClError::InvalidQueue => ErrorCode::InvalidHandle,
            ClError::MissingKernelArg(_) | ClError::InvalidKernelLaunch(_) => {
                ErrorCode::InvalidLaunch
            }
            ClError::BuildProgramFailure(_) => ErrorCode::BuildFailure,
            _ => ErrorCode::Internal,
        };
        Refusal(code, e.to_string())
    }
}

type ReqResult = Result<(Response, VirtualTime), Refusal>;

/// One client session, driven by the manager's event loop.
pub(crate) struct Session {
    shared: Arc<Shared>,
    pub(crate) server: ServerChannel,
    client: ClientId,
    name: String,
    costs: PathCosts,
    shm: Option<ShmSegment>,
    /// This session's OpenCL objects; each queue stages its open task.
    pool: Resources<Vec<Operation>>,
    /// Responses the bounded completion stream could not take yet, FIFO.
    outbound: VecDeque<ResponseEnvelope>,
    /// The session is winding down (`Disconnect` seen, peer vanished, or
    /// force-closed); reaped once nothing deliverable remains.
    closing: bool,
    /// The client can no longer receive: drop instead of flushing.
    peer_gone: bool,
    /// Digests this session itself shipped inline, bounded like the
    /// client-side tracker. The payload cache's *storage* is shared
    /// across sessions, but hits are only authorized against content the
    /// requesting session already proved it possesses — a guessed digest
    /// must never disclose another tenant's resident bytes (the dedup
    /// side-channel). `Some` exactly when the manager runs a cache.
    admitted: Option<DigestTracker>,
}

impl Session {
    pub(crate) fn new(shared: Arc<Shared>, seed: SessionSeed) -> Session {
        let admitted = shared
            .cache
            .as_ref()
            .map(|_| DigestTracker::new(ADMITTED_ENTRIES));
        Session {
            shared,
            server: seed.server,
            client: seed.client,
            name: seed.name,
            costs: seed.costs,
            shm: seed.shm,
            pool: Resources::default(),
            outbound: VecDeque::new(),
            closing: false,
            peer_gone: false,
            admitted,
        }
    }

    pub(crate) fn client(&self) -> ClientId {
        self.client
    }

    /// Responses parked behind a full completion stream.
    pub(crate) fn backlog(&self) -> usize {
        self.outbound.len()
    }

    /// Whether the event loop should remove this session: it is closing
    /// and either the peer is unreachable or every response was delivered.
    pub(crate) fn reapable(&self) -> bool {
        self.closing && (self.peer_gone || self.outbound.is_empty())
    }

    /// Marks the session dead (slow consumer or unreachable peer).
    pub(crate) fn force_close(&mut self) {
        self.closing = true;
        self.peer_gone = true;
    }

    /// Notes that the request stream reported `Closed`: the client dropped
    /// its endpoint without a `Disconnect`.
    pub(crate) fn peer_hung_up(&mut self) {
        self.force_close();
    }

    /// Processes one request frame, queueing the response and appending any
    /// sealed task to the central queue.
    pub(crate) fn handle_frame(&mut self, env: RequestEnvelope, tasks: &mut VecDeque<Task>) {
        let disconnect = matches!(env.body, Request::Disconnect);
        let arrival = env.sent_at + self.costs.control_hop();
        let outcome = self.handle_request(&env, arrival, tasks);
        let (body, sent_at) = match outcome {
            Ok((body, at)) => (body, at),
            Err(Refusal(code, message)) => (Response::Error { code, message }, arrival),
        };
        self.queue_response(ResponseEnvelope {
            tag: env.tag,
            sent_at,
            body,
        });
        if disconnect {
            // Queued responses (the Ack above included) still flush before
            // the reap unless the peer is already gone.
            self.closing = true;
        }
    }

    /// Queues one response, pushing it straight onto the completion stream
    /// when nothing is parked ahead of it.
    pub(crate) fn queue_response(&mut self, env: ResponseEnvelope) {
        if self.peer_gone {
            return;
        }
        if self.outbound.is_empty() {
            match self.server.try_send(&env) {
                Ok(()) => return,
                Err(TransportError::Backpressure) => {}
                Err(_) => {
                    self.force_close();
                    return;
                }
            }
        }
        // bf-flow: allow(hot_alloc): bounded by max_pending_responses — the
        // event loop force-closes any session whose backlog exceeds the cap
        self.outbound.push_back(env);
    }

    /// Re-drives parked responses into the completion stream, preserving
    /// FIFO order, until it fills up again.
    pub(crate) fn flush(&mut self) {
        while let Some(env) = self.outbound.front() {
            match self.server.try_send(env) {
                Ok(()) => {
                    self.outbound.pop_front();
                }
                Err(TransportError::Backpressure) => return,
                Err(_) => {
                    self.force_close();
                    return;
                }
            }
        }
    }

    /// Releases every board resource the session still holds.
    pub(crate) fn cleanup(&mut self) {
        let mut board = lock_order::tracked(&self.shared.board, "board");
        for fpga in self.pool.take_buffers() {
            let _ = board.free_buffer(fpga);
            if let Some(cache) = &self.shared.cache {
                cache.invalidate_buffer(fpga.0);
            }
        }
    }

    fn handle_request(
        &mut self,
        env: &RequestEnvelope,
        arrival: VirtualTime,
        tasks: &mut VecDeque<Task>,
    ) -> ReqResult {
        match &env.body {
            Request::Hello { .. } => Ok((Response::Handle { id: self.client.0 }, arrival)),
            Request::GetDeviceInfo => {
                let board = lock_order::tracked(&self.shared.board, "board");
                let info = DeviceInfo::of_board(&board, self.shared.node.id());
                let response = Response::DeviceInfo {
                    name: info.name,
                    vendor: info.vendor,
                    platform: info.platform,
                    memory_bytes: info.memory_bytes,
                    node: info.node.to_string(),
                    bitstream: info.bitstream,
                };
                Ok((response, arrival))
            }
            Request::CreateContext => {
                let id = self.pool.new_context().0;
                Ok((Response::Handle { id }, arrival))
            }
            Request::BuildProgram { bitstream } => {
                let done = self.ensure_bitstream(bitstream, arrival)?;
                let id = self.pool.new_program(bitstream).0;
                Ok((Response::Handle { id }, done))
            }
            Request::Reconfigure { bitstream } => {
                let done = self.ensure_bitstream(bitstream, arrival)?;
                Ok((Response::Ack, done))
            }
            Request::CreateKernel { program, name } => {
                let catalog = &self.shared.catalog;
                let id = self.pool.new_kernel(ProgramId(*program), name, catalog)?;
                Ok((Response::Handle { id: id.0 }, arrival))
            }
            Request::SetKernelArg { kernel, index, arg } => {
                // The pool caps the attacker-controlled index before it is
                // stored (bf-taint: taint_loop).
                let arg = arg_value(*arg);
                self.pool.bind_arg(KernelId(*kernel), *index, arg)?;
                Ok((Response::Ack, arrival))
            }
            Request::CreateBuffer { context, len } => {
                self.pool.context(ContextId(*context))?;
                let fpga = lock_order::tracked(&self.shared.board, "board")
                    .alloc_buffer(*len)
                    .map_err(|e| Refusal(ErrorCode::OutOfResources, e.to_string()))?;
                let id = self.pool.new_buffer(fpga).0;
                Ok((Response::Handle { id }, arrival))
            }
            Request::ReleaseBuffer { buffer } => {
                let fpga = self.pool.remove_buffer(MemId(*buffer))?;
                lock_order::tracked(&self.shared.board, "board")
                    .free_buffer(fpga)
                    .map_err(|e| Refusal(ErrorCode::Internal, e.to_string()))?;
                if let Some(cache) = &self.shared.cache {
                    // A freed id can be reissued; stale residency on it
                    // would let a later digest hit skip a needed DMA.
                    // bf-taint: allow(taint_auth): `fpga` is the
                    // server-assigned board id read back from this
                    // session's own pool; remove_buffer() above is the
                    // ownership check on the wire handle.
                    cache.invalidate_buffer(fpga.0);
                }
                Ok((Response::Ack, arrival))
            }
            Request::CreateQueue { context } => {
                let id = self.pool.new_queue(ContextId(*context))?.0;
                Ok((Response::Handle { id }, arrival))
            }
            Request::EnqueueWrite {
                queue,
                buffer,
                offset,
                data,
            } => {
                let buffer = self.pool.buffer(MemId(*buffer))?;
                let (data, digest) = self.resolve_write_payload(data)?;
                let op = Operation::Write {
                    tag: env.tag,
                    buffer,
                    offset: *offset,
                    data,
                    digest,
                };
                self.stage(*queue, op, arrival)
            }
            Request::EnqueueRead {
                queue,
                buffer,
                offset,
                len,
            } => {
                let op = Operation::Read {
                    tag: env.tag,
                    buffer: self.pool.buffer(MemId(*buffer))?,
                    offset: *offset,
                    len: *len,
                };
                self.stage(*queue, op, arrival)
            }
            Request::EnqueueCopy {
                queue,
                src,
                dst,
                src_offset,
                dst_offset,
                len,
            } => {
                let op = Operation::Copy {
                    tag: env.tag,
                    src: self.pool.buffer(MemId(*src))?,
                    dst: self.pool.buffer(MemId(*dst))?,
                    src_offset: *src_offset,
                    dst_offset: *dst_offset,
                    len: *len,
                };
                self.stage(*queue, op, arrival)
            }
            Request::EnqueueKernel {
                queue,
                kernel,
                work,
            } => {
                let kernel = KernelId(*kernel);
                let (name, invocation) = self.pool.invocation(kernel, NdRange(*work))?;
                let op = Operation::Kernel {
                    tag: env.tag,
                    name,
                    invocation,
                };
                self.stage(*queue, op, arrival)
            }
            Request::Flush { queue } => {
                self.submit_task(*queue, arrival, None, tasks)?;
                Ok((Response::Ack, arrival))
            }
            Request::Finish { queue } => {
                // The task executor answers this tag once the task (and
                // everything before it in the central queue) has drained;
                // the Enqueued below only confirms submission.
                self.submit_task(*queue, arrival, Some(env.tag), tasks)?;
                Ok((Response::Enqueued, arrival))
            }
            Request::Disconnect => Ok((Response::Ack, arrival)),
        }
    }

    /// Resolves a write payload against the payload cache at staging
    /// time (so back-to-back identical writes hit before any flush):
    /// digest references rewrite to the cached bytes — a refcount bump —
    /// or NACK with [`ErrorCode::CacheMiss`] so the client resends
    /// inline; arriving inline bytes are admitted for future hits.
    /// Without a cache every reference passes through by refcount bump.
    ///
    /// Also returns the payload's content digest when one was computed,
    /// so the executor's device-residency tier never hashes the same
    /// bytes a second time.
    fn resolve_write_payload(&self, data: &DataRef) -> Result<(DataRef, Option<u128>), Refusal> {
        let (Some(cache), Some(admitted)) = (&self.shared.cache, &self.admitted) else {
            return match data {
                DataRef::Digest { digest, .. } => Err(Refusal(
                    ErrorCode::CacheMiss,
                    format!("no payload cache on this manager for digest {digest:#034x}"),
                )),
                // A refcount bump — the enqueued operation aliases the
                // decoded frame's bytes instead of copying them.
                _ => Ok((data.share(), None)),
            };
        };
        match data {
            DataRef::Digest { digest, len } => {
                // Hit authorization is per-session even though storage
                // is shared: only content this session itself shipped
                // inline may be substituted. Anything else NACKs exactly
                // like a miss, so probing digests of content another
                // tenant may have shipped discloses nothing.
                // bf-taint: allow(taint_auth): this per-session admission
                // check IS the authorization for the untrusted digest —
                // only content this session itself shipped may hit.
                if !admitted.holds(*digest) {
                    return Err(Refusal(
                        ErrorCode::CacheMiss,
                        format!("digest {digest:#034x} was not shipped by this session"),
                    ));
                }
                // bf-taint: allow(taint_auth): gated by the holds() check
                // above — an unadmitted digest never reaches the lookup,
                // and a miss NACKs identically either way.
                match cache.get(*digest) {
                    Some(bytes) if bytes.len() as u64 == *len => {
                        Ok((DataRef::Inline(bytes.into()), Some(*digest)))
                    }
                    Some(_) => Err(Refusal(
                        ErrorCode::CacheMiss,
                        format!("digest {digest:#034x} resident with a different length"),
                    )),
                    None => Err(Refusal(
                        ErrorCode::CacheMiss,
                        format!("digest {digest:#034x} not resident"),
                    )),
                }
            }
            DataRef::Inline(payload) => {
                let bytes = payload.share().into_bytes();
                // The digest is computed here, from the bytes that
                // actually arrived — a client-claimed digest could
                // poison the shared store for other tenants.
                let digest = content_digest(&bytes);
                // bf-lint: allow(payload_copy): `Bytes::clone` is a
                // refcount bump on the shared payload, never a byte copy.
                // bf-flow: allow(hot_alloc): the cache evicts clock-wise
                // until the entry fits, so residency never exceeds the
                // configured byte budget; duplicates are refused cheaply.
                // bf-taint: allow(taint_auth): the admission key is the
                // digest recomputed from the arrived bytes just above;
                // the tainted bytes are the content being admitted —
                // storing them under their true digest is the cache.
                // Only resident content is admitted to the session
                // tracker: a payload over the whole budget is refused, and
                // tracking it would turn every repeat into a digest
                // reference that can only NACK.
                if cache.insert(digest, bytes.clone()) {
                    admitted.note_sent(digest);
                }
                Ok((DataRef::Inline(bytes.into()), Some(digest)))
            }
            _ => Ok((data.share(), None)),
        }
    }

    fn ensure_bitstream(
        &self,
        bitstream: &str,
        arrival: VirtualTime,
    ) -> Result<VirtualTime, Refusal> {
        let image = self.shared.catalog.get(bitstream).ok_or(Refusal(
            ErrorCode::BuildFailure,
            format!("unknown bitstream {bitstream:?}"),
        ))?;
        let mut board = lock_order::tracked(&self.shared.board, "board");
        if board.bitstream_id() == Some(bitstream) {
            return Ok(arrival);
        }
        let allowed = match &self.shared.config.reconfig_policy {
            ReconfigPolicy::Allow => true,
            ReconfigPolicy::Deny => false,
            ReconfigPolicy::Validate(f) => f(&ReconfigRequest {
                client_name: self.name.clone(),
                bitstream: bitstream.to_string(),
                device_id: self.shared.config.device_id.clone(),
            }),
        };
        if !allowed {
            return Err(Refusal(
                ErrorCode::ReconfigurationRefused,
                format!("reconfiguration to {bitstream:?} refused by policy"),
            ));
        }
        // Reconfiguration blocks every other operation (§III-B): it
        // occupies the board itself, so queued tasks simply serialize
        // around it.
        let timing = board.program(image, arrival, &self.name);
        if let Some(cache) = &self.shared.cache {
            // Programming wipes on-board DDR: no tracked residency
            // survives. ("payload_cache" ranks after "board", so taking
            // it here is hierarchy-legal.)
            cache.invalidate_device();
        }
        Ok(timing.ended_at)
    }

    fn submit_task(
        &mut self,
        queue: u64,
        arrival: VirtualTime,
        finish_tag: Option<u64>,
        tasks: &mut VecDeque<Task>,
    ) -> Result<(), Refusal> {
        let ops = std::mem::take(self.pool.queue_mut(QueueId(queue))?);
        if ops.is_empty() && finish_tag.is_none() {
            return Ok(()); // nothing to flush
        }
        // bf-flow: allow(hot_alloc): drained into the executor every event-
        // loop iteration; each entry's ops vec is capped by max_queued_ops
        tasks.push_back(Task {
            client: self.client,
            owner: self.name.clone(),
            ops,
            arrival,
            shm: self.shm.clone(),
            finish_tag,
        });
        Ok(())
    }

    /// Stages `op` in `queue`'s open task, refusing past the configured
    /// per-queue cap so one client cannot grow a queue without bound.
    fn stage(&mut self, queue: u64, op: Operation, arrival: VirtualTime) -> ReqResult {
        let ops = self.pool.queue_mut(QueueId(queue))?;
        let cap = self.shared.config.max_queued_ops;
        if ops.len() >= cap {
            return Err(Refusal(
                ErrorCode::OutOfResources,
                format!("queue already holds {cap} unflushed operations"),
            ));
        }
        // bf-flow: allow(hot_alloc): bounded by max_queued_ops, enforced above
        ops.push(op);
        Ok((Response::Enqueued, arrival))
    }
}

/// A wire kernel argument as the handle table stores it.
fn arg_value(arg: WireArg) -> ArgValue {
    match arg {
        WireArg::Buffer(handle) => ArgValue::Buffer(MemId(handle)),
        WireArg::U32(v) => ArgValue::U32(v),
        WireArg::I32(v) => ArgValue::I32(v),
        WireArg::U64(v) => ArgValue::U64(v),
        WireArg::F32(v) => ArgValue::F32(v),
    }
}
