//! The native backend: direct PCIe access to a board, as in the paper's
//! "Native" baseline (one function per device, no sharing layer).

use std::sync::Arc;

use bf_fpga::{Board, FpgaError, OpTiming, Payload};
use bf_model::{NodeSpec, VirtualClock, VirtualTime};
use parking_lot::Mutex;

use crate::backend::Backend;
use crate::error::{ClError, ClResult};
use crate::event::{CommandType, Event};
use crate::resources::Resources;
use crate::types::{
    ArgValue, BitstreamCatalog, ContextId, DeviceInfo, KernelId, MemId, NdRange, ProgramId, QueueId,
};

/// Direct (unshared) access to a [`Board`], the paper's Native baseline:
/// one client owns the board, with no Device Manager in between. Its
/// handle table is the same [`Resources`] a Device Manager session keeps.
///
/// Commands are timed eagerly on the virtual timeline: the board resolves
/// start/end instants immediately, the returned [`Event`] is already
/// terminal, and the host [`VirtualClock`] advances only on blocking calls
/// and `finish` — which models host/device overlap exactly for a
/// single-threaded client.
pub struct NativeBackend {
    node: NodeSpec,
    board: Arc<Mutex<Board>>,
    clock: VirtualClock,
    catalog: BitstreamCatalog,
    owner: String,
    /// The handle table; each queue holds its drain point, the end of its
    /// last command. Never held while the board lock is taken.
    state: Mutex<Resources<VirtualTime>>,
}

impl NativeBackend {
    /// Creates a backend fronting `board` on `node`, resolving program
    /// builds against `catalog`. `owner` labels busy time for utilization
    /// attribution.
    pub fn new(
        node: NodeSpec,
        board: Arc<Mutex<Board>>,
        catalog: BitstreamCatalog,
        clock: VirtualClock,
        owner: impl Into<String>,
    ) -> Self {
        NativeBackend {
            node,
            board,
            clock,
            catalog,
            owner: owner.into(),
            state: Mutex::new(Resources::default()),
        }
    }

    /// The board behind this backend (shared with other components).
    pub fn board(&self) -> &Arc<Mutex<Board>> {
        &self.board
    }

    /// The node the board is attached to.
    pub fn node(&self) -> &NodeSpec {
        &self.node
    }

    /// Runs one command on `queue`. The queue is checked before the board
    /// is touched; the returned event is already terminal, the queue's
    /// drain point moves to the command's end, and a blocking command
    /// advances the host clock to it.
    fn run(
        &self,
        queue: QueueId,
        kind: CommandType,
        blocking: bool,
        command: impl FnOnce(&mut Board, VirtualTime) -> Result<(OpTiming, Option<Payload>), FpgaError>,
    ) -> ClResult<Event> {
        self.state.lock().queue(queue)?;
        let now = self.clock.now();
        let event = Event::new(kind, now);
        event.attach_clock(self.clock.clone());
        let outcome = command(&mut self.board.lock(), now);
        match outcome {
            Ok((t, payload)) => {
                event.mark_submitted(now);
                event.complete(t.started_at, t.ended_at, payload);
                let mut state = self.state.lock();
                let drain = state.queue_mut(queue)?;
                *drain = (*drain).max(t.ended_at);
                if blocking {
                    self.clock.advance_to(t.ended_at);
                }
                Ok(event)
            }
            Err(e) => {
                let cl: ClError = e.into();
                event.fail(cl.clone());
                Err(cl)
            }
        }
    }
}

impl std::fmt::Debug for NativeBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeBackend")
            .field("node", self.node.id())
            .field("owner", &self.owner)
            .finish_non_exhaustive()
    }
}

impl Backend for NativeBackend {
    fn device_info(&self) -> DeviceInfo {
        DeviceInfo::of_board(&self.board.lock(), self.node.id())
    }

    fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    fn create_context(&self) -> ClResult<ContextId> {
        Ok(self.state.lock().new_context())
    }

    fn build_program(&self, ctx: ContextId, bitstream: &str) -> ClResult<ProgramId> {
        self.state.lock().context(ctx)?;
        let image = self.catalog.get(bitstream).ok_or_else(|| {
            ClError::BuildProgramFailure(format!("unknown bitstream {bitstream:?}"))
        })?;
        {
            let mut board = self.board.lock();
            if board.bitstream_id() != Some(bitstream) {
                // clBuildProgram blocks while the board is (re)programmed.
                let timing = board.program(image, self.clock.now(), &self.owner);
                self.clock.advance_to(timing.ended_at);
            }
        }
        Ok(self.state.lock().new_program(bitstream))
    }

    fn create_kernel(&self, program: ProgramId, name: &str) -> ClResult<KernelId> {
        self.state.lock().new_kernel(program, name, &self.catalog)
    }

    fn set_kernel_arg(&self, kernel: KernelId, index: u32, arg: ArgValue) -> ClResult<()> {
        self.state.lock().bind_arg(kernel, index, arg)
    }

    fn create_buffer(&self, ctx: ContextId, len: u64) -> ClResult<MemId> {
        self.state.lock().context(ctx)?;
        let fpga = self.board.lock().alloc_buffer(len)?;
        Ok(self.state.lock().new_buffer(fpga))
    }

    fn release_buffer(&self, buffer: MemId) -> ClResult<()> {
        // Board before table, the order the lock hierarchy ranks them in.
        let mut board = self.board.lock();
        board.free_buffer(self.state.lock().remove_buffer(buffer)?)?;
        Ok(())
    }

    fn create_queue(&self, ctx: ContextId) -> ClResult<QueueId> {
        self.state.lock().new_queue(ctx)
    }

    fn enqueue_write(
        &self,
        queue: QueueId,
        buffer: MemId,
        offset: u64,
        payload: Payload,
        blocking: bool,
    ) -> ClResult<Event> {
        let fpga = self.state.lock().buffer(buffer)?;
        self.run(queue, CommandType::WriteBuffer, blocking, |board, now| {
            let t = board.write_buffer(fpga, offset, &payload, now, &self.owner)?;
            Ok((t, None))
        })
    }

    fn enqueue_read(
        &self,
        queue: QueueId,
        buffer: MemId,
        offset: u64,
        len: u64,
        blocking: bool,
    ) -> ClResult<Event> {
        let fpga = self.state.lock().buffer(buffer)?;
        self.run(queue, CommandType::ReadBuffer, blocking, |board, now| {
            let (t, payload) = board.read_buffer(fpga, offset, len, now, &self.owner)?;
            Ok((t, Some(payload)))
        })
    }

    fn enqueue_kernel(&self, queue: QueueId, kernel: KernelId, work: NdRange) -> ClResult<Event> {
        // bf-taint: sanitized(host code calls the native backend, never the wire — the pool's return is tainted only by a session's calls into the same table)
        let (name, invocation) = self.state.lock().invocation(kernel, work)?;
        self.run(queue, CommandType::NdRangeKernel, false, |board, now| {
            let t = board.launch_kernel(&name, &invocation, now, &self.owner)?;
            Ok((t, None))
        })
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
        let (src, dst) = {
            let state = self.state.lock();
            (state.buffer(src)?, state.buffer(dst)?)
        };
        self.run(queue, CommandType::CopyBuffer, false, |board, now| {
            let t = board.copy_buffer(src, dst, src_offset, dst_offset, len, now, &self.owner)?;
            Ok((t, None))
        })
    }

    fn enqueue_marker(&self, queue: QueueId) -> ClResult<Event> {
        // Native commands are executed eagerly, so the marker's completion
        // is simply the queue's current drain point.
        let drain = *self.state.lock().queue(queue)?;
        let now = self.clock.now();
        let event = Event::new(CommandType::Marker, now);
        event.attach_clock(self.clock.clone());
        event.mark_submitted(now);
        event.complete(drain.max(now), drain.max(now), None);
        Ok(event)
    }

    fn enqueue_barrier(&self, queue: QueueId) -> ClResult<Event> {
        // In-order eager execution: a barrier is equivalent to a marker.
        self.enqueue_marker(queue)
    }

    fn flush(&self, queue: QueueId) -> ClResult<()> {
        // Native commands are submitted eagerly; flush only validates.
        self.state.lock().queue(queue).map(drop)
    }

    fn finish(&self, queue: QueueId) -> ClResult<()> {
        let drain = *self.state.lock().queue(queue)?;
        self.clock.advance_to(drain);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use bf_fpga::{Bitstream, BoardSpec, FnKernel, KernelDescriptor, KernelInvocation};
    use bf_model::{node_b, PcieGeneration, PcieLink, VirtualDuration};

    use super::*;

    fn backend() -> NativeBackend {
        let board = Arc::new(Mutex::new(Board::new(
            BoardSpec::de5a_net(),
            PcieLink::new(PcieGeneration::Gen3, 8),
        )));
        let double = FnKernel::new(
            |_inv: &KernelInvocation| VirtualDuration::from_micros(100),
            |inv: &KernelInvocation, mem: &mut bf_fpga::DeviceMemory| {
                let buf = inv.arg(0)?.as_buffer()?;
                for b in mem.bytes_mut(buf)? {
                    *b = b.wrapping_mul(2);
                }
                Ok(())
            },
        );
        let mut catalog = BitstreamCatalog::new();
        catalog.register(Arc::new(Bitstream::new(
            "double",
            vec![KernelDescriptor::new("double", Arc::new(double))],
        )));
        NativeBackend::new(node_b(), board, catalog, VirtualClock::new(), "test")
    }

    #[test]
    fn full_native_round_trip() {
        let be = backend();
        let ctx = be.create_context().expect("ctx");
        let prog = be.build_program(ctx, "double").expect("program");
        let kernel = be.create_kernel(prog, "double").expect("kernel");
        let buf = be.create_buffer(ctx, 4).expect("buffer");
        let q = be.create_queue(ctx).expect("queue");
        be.enqueue_write(q, buf, 0, Payload::Data(vec![1, 2, 3, 4].into()), true)
            .expect("write");
        be.set_kernel_arg(kernel, 0, ArgValue::Buffer(buf))
            .expect("arg");
        be.enqueue_kernel(q, kernel, NdRange::d1(4))
            .expect("kernel");
        be.finish(q).expect("finish");
        let ev = be.enqueue_read(q, buf, 0, 4, true).expect("read");
        assert_eq!(
            ev.take_payload().expect("payload"),
            Payload::Data(vec![2, 4, 6, 8].into())
        );
    }

    /// Regression: argument slots materialize positionally at launch
    /// (`0..=max`), so an unchecked index would buy `index` iterations of
    /// launch-time work. The backend enforces the same cap the
    /// device-manager session enforces on the wire.
    #[test]
    fn kernel_arg_index_is_capped() {
        let be = backend();
        let ctx = be.create_context().expect("ctx");
        let prog = be.build_program(ctx, "double").expect("program");
        let kernel = be.create_kernel(prog, "double").expect("kernel");
        for index in [bf_fpga::MAX_KERNEL_ARGS, u32::MAX] {
            match be.set_kernel_arg(kernel, index, ArgValue::U32(1)) {
                Err(ClError::InvalidKernelLaunch(msg)) => {
                    assert!(msg.contains("exceeds"), "index {index}: {msg}");
                }
                other => panic!("index {index} accepted: {other:?}"),
            }
        }
        be.set_kernel_arg(kernel, bf_fpga::MAX_KERNEL_ARGS - 1, ArgValue::U32(1))
            .expect("highest legal index");
    }

    #[test]
    fn blocking_ops_advance_the_clock() {
        let be = backend();
        let ctx = be.create_context().expect("ctx");
        let buf = be.create_buffer(ctx, 1 << 20).expect("buffer");
        let q = be.create_queue(ctx).expect("queue");
        let t0 = be.clock().now();
        be.enqueue_write(q, buf, 0, Payload::Synthetic(1 << 20), true)
            .expect("write");
        assert!(be.clock().now() > t0, "blocking write must advance time");
    }

    #[test]
    fn async_ops_do_not_advance_until_finish() {
        let be = backend();
        let ctx = be.create_context().expect("ctx");
        let buf = be.create_buffer(ctx, 1 << 20).expect("buffer");
        let q = be.create_queue(ctx).expect("queue");
        let t0 = be.clock().now();
        let ev = be
            .enqueue_write(q, buf, 0, Payload::Synthetic(1 << 20), false)
            .expect("write");
        assert_eq!(
            be.clock().now(),
            t0,
            "async write must not advance host time"
        );
        be.finish(q).expect("finish");
        assert_eq!(Some(be.clock().now()), ev.profile().ended);
    }

    #[test]
    fn build_program_reconfigures_once() {
        let be = backend();
        let ctx = be.create_context().expect("ctx");
        be.build_program(ctx, "double").expect("first build");
        let reconfigs = be.board().lock().reconfigurations();
        be.build_program(ctx, "double").expect("second build");
        assert_eq!(
            be.board().lock().reconfigurations(),
            reconfigs,
            "no reprogram when same"
        );
    }

    #[test]
    fn unknown_bitstream_is_a_build_failure() {
        let be = backend();
        let ctx = be.create_context().expect("ctx");
        assert!(matches!(
            be.build_program(ctx, "missing"),
            Err(ClError::BuildProgramFailure(_))
        ));
    }

    #[test]
    fn missing_kernel_arg_fails_launch() {
        let be = backend();
        let ctx = be.create_context().expect("ctx");
        let prog = be.build_program(ctx, "double").expect("program");
        let kernel = be.create_kernel(prog, "double").expect("kernel");
        let q = be.create_queue(ctx).expect("queue");
        be.set_kernel_arg(kernel, 1, ArgValue::U32(3))
            .expect("arg 1");
        assert!(matches!(
            be.enqueue_kernel(q, kernel, NdRange::d1(1)),
            Err(ClError::MissingKernelArg(0))
        ));
    }

    /// Regression: an enqueue on an unknown queue used to run on the board
    /// first — writing memory, charging busy time to the owner — and only
    /// then report `InvalidQueue`. The queue is validated before the board
    /// is touched.
    #[test]
    fn enqueue_on_a_stale_queue_never_touches_the_board() {
        let be = backend();
        let ctx = be.create_context().expect("ctx");
        let prog = be.build_program(ctx, "double").expect("program");
        let kernel = be.create_kernel(prog, "double").expect("kernel");
        let buf = be.create_buffer(ctx, 4).expect("buffer");
        let q = be.create_queue(ctx).expect("queue");
        be.enqueue_write(q, buf, 0, Payload::Data(vec![1, 2, 3, 4].into()), true)
            .expect("write");
        be.set_kernel_arg(kernel, 0, ArgValue::Buffer(buf))
            .expect("arg");
        let busy = || be.board().lock().busy_tracker().total_busy();
        let before = busy();

        let stale = QueueId(999);
        let payload = Payload::Data(vec![9; 4].into());
        assert_eq!(
            be.enqueue_write(stale, buf, 0, payload, true).err(),
            Some(ClError::InvalidQueue)
        );
        assert_eq!(
            be.enqueue_read(stale, buf, 0, 4, true).err(),
            Some(ClError::InvalidQueue)
        );
        assert_eq!(
            be.enqueue_kernel(stale, kernel, NdRange::d1(4)).err(),
            Some(ClError::InvalidQueue)
        );
        assert_eq!(
            be.enqueue_copy(stale, buf, buf, 0, 2, 2).err(),
            Some(ClError::InvalidQueue)
        );

        assert_eq!(busy(), before, "no busy time charged");
        let ev = be.enqueue_read(q, buf, 0, 4, true).expect("read");
        assert_eq!(
            ev.take_payload().expect("payload"),
            Payload::Data(vec![1, 2, 3, 4].into()),
            "buffer bytes untouched"
        );
    }

    #[test]
    fn stale_handles_are_rejected() {
        let be = backend();
        assert_eq!(
            be.create_buffer(ContextId(99), 4),
            Err(ClError::InvalidContext)
        );
        assert_eq!(be.release_buffer(MemId(99)), Err(ClError::InvalidBuffer));
        assert_eq!(be.flush(QueueId(99)), Err(ClError::InvalidQueue));
        assert_eq!(be.finish(QueueId(99)), Err(ClError::InvalidQueue));
    }
}
