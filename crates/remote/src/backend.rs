//! The Remote OpenCL Library's [`Backend`] implementation — the transparent
//! layer that lets unmodified host code drive a shared remote board.

use crate::sync::Mutex;
use bf_cache::content_digest;
use bf_fpga::Payload;
use bf_model::{NodeId, VirtualClock, VirtualTime};
use bf_ocl::{
    ArgValue, Backend, ClError, ClResult, CommandType, ContextId, DeviceInfo, Event, KernelId,
    MemId, NdRange, ProgramId, QueueId,
};
use bf_rpc::{DataRef, ErrorCode, Request, Response, WireArg};

use crate::connection::{map_error, Connection};
use crate::sync::channel::bounded;

/// OpenCL backend that remotes every call to a Device Manager over the
/// connection's gRPC-like channel, using the shared-memory data path when
/// granted.
///
/// Virtual-time behaviour mirrors the paper's measurements: synchronous
/// (context/information) methods cost one control round trip; asynchronous
/// command-queue methods are pipelined — the client pays payload staging
/// (serialization + copies, or the single shm copy) and observes
/// completions one control hop after the device finishes.
pub struct RemoteBackend {
    device_id: String,
    node: NodeId,
    conn: Connection,
    clock: VirtualClock,
    /// Client-side virtual instant when the last staged payload finished
    /// copying/serializing; keeps pipelined writes from time-travelling.
    staging_cursor: Mutex<VirtualTime>,
    device_info: Mutex<DeviceInfo>,
}

impl RemoteBackend {
    /// Connects to a manager endpoint and primes the device-info cache.
    ///
    /// # Errors
    ///
    /// Fails when the manager is unreachable.
    pub fn connect(endpoint: bf_devmgr::ManagerEndpoint, clock: VirtualClock) -> ClResult<Self> {
        let device_id = endpoint.device_id.clone();
        let node = endpoint.node.clone();
        let conn = Connection::new(endpoint);
        let (resp, observed) = conn.call(
            Request::Hello {
                client_name: String::new(),
                shm: conn.shm().is_some(),
            },
            clock.now(),
        )?;
        clock.advance_to(observed);
        let Response::Handle { .. } = resp else {
            return Err(ClError::TransportFailure(format!(
                "bad hello response: {resp:?}"
            )));
        };
        let backend = RemoteBackend {
            device_id,
            node: node.clone(),
            conn,
            clock,
            staging_cursor: Mutex::new(VirtualTime::ZERO),
            device_info: Mutex::new(DeviceInfo {
                name: String::new(),
                vendor: String::new(),
                platform: String::new(),
                memory_bytes: 0,
                node,
                bitstream: None,
            }),
        };
        backend.refresh_info()?;
        Ok(backend)
    }

    /// The manager's device id.
    pub fn device_id(&self) -> &str {
        &self.device_id
    }

    /// The underlying connection (for tests and instrumentation).
    pub fn connection(&self) -> &Connection {
        &self.conn
    }

    fn refresh_info(&self) -> ClResult<()> {
        let (resp, observed) = self.conn.call(Request::GetDeviceInfo, self.clock.now())?;
        self.clock.advance_to(observed);
        if let Response::DeviceInfo {
            name,
            vendor,
            platform,
            memory_bytes,
            node,
            bitstream,
        } = resp
        {
            *self.device_info.lock() = DeviceInfo {
                name,
                vendor,
                platform,
                memory_bytes,
                node: NodeId::new(node),
                bitstream,
            };
            Ok(())
        } else {
            Err(ClError::TransportFailure(
                "bad device info response".to_string(),
            ))
        }
    }

    fn sync_handle(&self, body: Request) -> ClResult<u64> {
        let (resp, observed) = self.conn.call(body, self.clock.now())?;
        self.clock.advance_to(observed);
        match resp {
            Response::Handle { id } => Ok(id),
            other => Err(ClError::TransportFailure(format!(
                "expected handle, got {other:?}"
            ))),
        }
    }

    fn sync_ack(&self, body: Request) -> ClResult<()> {
        let (resp, observed) = self.conn.call(body, self.clock.now())?;
        self.clock.advance_to(observed);
        match resp {
            Response::Ack | Response::Handle { .. } => Ok(()),
            other => Err(ClError::TransportFailure(format!(
                "expected ack, got {other:?}"
            ))),
        }
    }

    /// Requests a board reconfiguration to `bitstream`, subject to the
    /// manager's [`ReconfigPolicy`] (in a full deployment the Accelerators
    /// Registry validates this, §III-C).
    ///
    /// # Errors
    ///
    /// Returns [`ClError::AccessDenied`] when the policy refuses.
    ///
    /// [`ReconfigPolicy`]: bf_devmgr::ReconfigPolicy
    pub fn reconfigure(&self, bitstream: &str) -> ClResult<()> {
        self.sync_ack(Request::Reconfigure {
            bitstream: bitstream.to_string(),
        })
    }

    /// Stages a write payload onto the data path: real bytes are copied
    /// into the shm segment (one copy) or shipped inline (gRPC); the
    /// staging cursor advances by the payload cost either way. Returns the
    /// wire reference, the shm region to free on completion, and the
    /// instant the payload is ready to send.
    fn stage_payload(&self, payload: Payload) -> ClResult<(DataRef, Option<u64>, VirtualTime)> {
        let len = payload.len();
        let mut cursor = self.staging_cursor.lock();
        let start = self.clock.now().max(*cursor);
        let ready = start + self.conn.costs().outbound_payload_cost(len);
        *cursor = ready;
        drop(cursor);

        let (data, region) = match (self.conn.shm(), payload) {
            (Some(shm), Payload::Data(bytes)) => match shm.alloc(len) {
                Ok(offset) => {
                    // Adopt the client's refcounted buffer into the
                    // region — no copy on the shm path.
                    shm.write_bytes(offset, bytes)
                        .map_err(|e| ClError::TransportFailure(e.to_string()))?;
                    (DataRef::Shm { offset, len }, Some(offset))
                }
                // Segment exhausted: degrade to the inline path.
                Err(_) => (DataRef::Inline(bytes.into()), None),
            },
            (_, Payload::Data(bytes)) => (DataRef::Inline(bytes.into()), None),
            (_, Payload::Synthetic(n)) => (DataRef::Synthetic(n), None),
        };
        Ok((data, region, ready))
    }

    fn pipeline_now(&self) -> VirtualTime {
        self.clock.now().max(*self.staging_cursor.lock())
    }

    /// Fig. 2 INIT: a `Queued` event for `command` that advances this
    /// backend's clock when waited on.
    fn new_event(&self, command: CommandType) -> Event {
        let event = Event::new(command, self.clock.now());
        event.attach_clock(self.clock.clone());
        event
    }

    /// The one submit path of every asynchronous call: registers `event`
    /// for `body`, sent at `sent`, with the shm `region` to free once the
    /// manager has consumed it. A blocking call (`flush` names its queue)
    /// then flushes the open task at the same instant and waits.
    fn submit(
        &self,
        event: Event,
        body: Request,
        sent: VirtualTime,
        region: Option<u64>,
        flush: Option<QueueId>,
    ) -> ClResult<Event> {
        self.conn
            .submit_op(body, sent, event.clone(), region, None)?;
        if let Some(queue) = flush {
            self.conn.cast(Request::Flush { queue: queue.0 }, sent)?;
            event.wait()?;
        }
        Ok(event)
    }

    /// Attempts an `EnqueueWrite` carrying only the payload's digest and
    /// blocks for the manager's verdict: `Enqueued` confirms the cache
    /// hit, `CacheMiss` asks for an inline resend. Waiting here (one
    /// control hop) keeps queue order — nothing else can slip between the
    /// digest attempt and its inline retry.
    ///
    /// # Errors
    ///
    /// Manager errors other than `CacheMiss` fail the event and map to
    /// [`ClError`]; so does a vanished connection.
    fn try_digest_write(
        &self,
        queue: QueueId,
        buffer: MemId,
        offset: u64,
        digest: u128,
        len: u64,
        event: &Event,
    ) -> ClResult<DigestOutcome> {
        let (ack, verdict) = bounded(1);
        self.conn.submit_op(
            Request::EnqueueWrite {
                queue: queue.0,
                buffer: buffer.0,
                offset,
                data: DataRef::Digest { digest, len },
            },
            self.pipeline_now(),
            event.clone(),
            None,
            Some(ack),
        )?;
        match verdict.recv() {
            Ok(Ok(observed)) => Ok(DigestOutcome::Hit(observed)),
            Ok(Err((ErrorCode::CacheMiss, _))) => Ok(DigestOutcome::Miss),
            Ok(Err((code, message))) => {
                let err = map_error(code, message);
                event.fail(err.clone());
                Err(err)
            }
            // The reactor already failed the event via `fail_pending`.
            Err(_) => Err(ClError::TransportFailure(
                "connection thread gone".to_string(),
            )),
        }
    }
}

/// Verdict of a digest-addressed write attempt.
enum DigestOutcome {
    /// The manager held the content; the write is enqueued, observed at
    /// this client-side instant.
    Hit(VirtualTime),
    /// The manager no longer holds the content; resend inline.
    Miss,
}

impl std::fmt::Debug for RemoteBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteBackend")
            .field("device_id", &self.device_id)
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

impl Backend for RemoteBackend {
    fn device_info(&self) -> DeviceInfo {
        let _ = self.refresh_info();
        self.device_info.lock().clone()
    }

    fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    fn create_context(&self) -> ClResult<ContextId> {
        self.sync_handle(Request::CreateContext).map(ContextId)
    }

    fn build_program(&self, _ctx: ContextId, bitstream: &str) -> ClResult<ProgramId> {
        self.sync_handle(Request::BuildProgram {
            bitstream: bitstream.to_string(),
        })
        .map(ProgramId)
    }

    fn create_kernel(&self, program: ProgramId, name: &str) -> ClResult<KernelId> {
        self.sync_handle(Request::CreateKernel {
            program: program.0,
            name: name.to_string(),
        })
        .map(KernelId)
    }

    fn set_kernel_arg(&self, kernel: KernelId, index: u32, arg: ArgValue) -> ClResult<()> {
        let wire = match arg {
            ArgValue::Buffer(mem) => WireArg::Buffer(mem.0),
            ArgValue::U32(v) => WireArg::U32(v),
            ArgValue::I32(v) => WireArg::I32(v),
            ArgValue::U64(v) => WireArg::U64(v),
            ArgValue::F32(v) => WireArg::F32(v),
        };
        // Fire-and-forget: channel FIFO guarantees the argument lands
        // before any subsequent launch; errors surface at launch time.
        self.conn.cast(
            Request::SetKernelArg {
                kernel: kernel.0,
                index,
                arg: wire,
            },
            self.clock.now(),
        )
    }

    fn create_buffer(&self, ctx: ContextId, len: u64) -> ClResult<MemId> {
        self.sync_handle(Request::CreateBuffer {
            context: ctx.0,
            len,
        })
        .map(MemId)
    }

    fn release_buffer(&self, buffer: MemId) -> ClResult<()> {
        // Fire-and-forget so dropping a Buffer never blocks (C-DTOR-BLOCK).
        self.conn.cast(
            Request::ReleaseBuffer { buffer: buffer.0 },
            self.clock.now(),
        )
    }

    fn create_queue(&self, ctx: ContextId) -> ClResult<QueueId> {
        self.sync_handle(Request::CreateQueue { context: ctx.0 })
            .map(QueueId)
    }

    fn enqueue_write(
        &self,
        queue: QueueId,
        buffer: MemId,
        offset: u64,
        payload: Payload,
        blocking: bool,
    ) -> ClResult<Event> {
        let event = self.new_event(CommandType::WriteBuffer);
        // Content addressing rides the inline (gRPC) data path: when the
        // manager advertises a payload cache that can admit this payload
        // and is believed to hold these exact bytes, a 16-byte (truncated
        // SHA-256) digest reference replaces the payload.
        let digest = match (self.conn.shm(), &payload) {
            (None, Payload::Data(bytes)) => {
                let len = bytes.len() as u64;
                self.conn
                    .digest_tracker(len)
                    .map(|tracker| (tracker, content_digest(bytes), len))
            }
            _ => None,
        };
        if let Some((tracker, digest, len)) = digest {
            if tracker.holds(digest) {
                match self.try_digest_write(queue, buffer, offset, digest, len, &event)? {
                    DigestOutcome::Hit(observed) => {
                        // Zero payload bytes on the wire; the caller pays
                        // one control round trip instead of staging.
                        self.clock.advance_to(observed);
                        if blocking {
                            self.conn
                                .cast(Request::Flush { queue: queue.0 }, observed)?;
                            event.wait()?;
                        }
                        return Ok(event);
                    }
                    DigestOutcome::Miss => {
                        // Stale tracker entry — the manager evicted since
                        // we last sent. Degrade to one inline (re)send.
                        tracker.forget(digest);
                    }
                }
            }
        }
        let (data, region, ready) = self.stage_payload(payload)?;
        if let (Some((tracker, digest, _)), DataRef::Inline(_)) = (digest, &data) {
            // The manager admits inline payloads at staging time, so the
            // next identical write can travel as a digest.
            // bf-taint: allow(taint_auth): `digest` is recomputed locally
            // from the payload bytes (content_digest above); the pattern
            // binding inherits the tuple's taint only because the
            // analysis binds destructured names coarsely.
            tracker.note_sent(digest);
        }
        self.submit(
            event,
            Request::EnqueueWrite {
                queue: queue.0,
                buffer: buffer.0,
                offset,
                data,
            },
            ready,
            region,
            blocking.then_some(queue),
        )
    }

    fn enqueue_read(
        &self,
        queue: QueueId,
        buffer: MemId,
        offset: u64,
        len: u64,
        blocking: bool,
    ) -> ClResult<Event> {
        self.submit(
            self.new_event(CommandType::ReadBuffer),
            Request::EnqueueRead {
                queue: queue.0,
                buffer: buffer.0,
                offset,
                len,
            },
            self.pipeline_now(),
            None,
            blocking.then_some(queue),
        )
    }

    fn enqueue_kernel(&self, queue: QueueId, kernel: KernelId, work: NdRange) -> ClResult<Event> {
        self.submit(
            self.new_event(CommandType::NdRangeKernel),
            Request::EnqueueKernel {
                queue: queue.0,
                kernel: kernel.0,
                work: work.0,
            },
            self.pipeline_now(),
            None,
            None,
        )
    }

    fn enqueue_copy(
        &self,
        queue: QueueId,
        src: MemId,
        dst: MemId,
        src_offset: u64,
        dst_offset: u64,
        len: u64,
    ) -> ClResult<Event> {
        self.submit(
            self.new_event(CommandType::CopyBuffer),
            Request::EnqueueCopy {
                queue: queue.0,
                src: src.0,
                dst: dst.0,
                src_offset,
                dst_offset,
                len,
            },
            self.pipeline_now(),
            None,
            None,
        )
    }

    fn enqueue_marker(&self, queue: QueueId) -> ClResult<Event> {
        // A non-blocking fence: the manager answers the tag once the
        // sealed task (and everything before it in the central queue) has
        // drained.
        self.submit(
            self.new_event(CommandType::Marker),
            Request::Finish { queue: queue.0 },
            self.pipeline_now(),
            None,
            None,
        )
    }

    fn enqueue_barrier(&self, queue: QueueId) -> ClResult<Event> {
        // The paper lists clEnqueueBarrier with clFinish/clFlush as a task
        // boundary: it seals the open task (the fence request does both).
        self.enqueue_marker(queue)
    }

    fn flush(&self, queue: QueueId) -> ClResult<()> {
        self.conn
            .cast(Request::Flush { queue: queue.0 }, self.pipeline_now())
    }

    fn finish(&self, queue: QueueId) -> ClResult<()> {
        let observed = self.conn.fence(queue.0, self.pipeline_now())?;
        self.clock.advance_to(observed);
        Ok(())
    }
}
