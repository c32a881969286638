#![forbid(unsafe_code)]

//! # bf-remote — the BlastFunction Remote OpenCL Library
//!
//! A drop-in implementation of the `bf-ocl` [`Backend`] that transparently
//! remotes every OpenCL call to a Device Manager (paper §III-A):
//!
//! * the [`Router`] keeps the list of available platforms (managers) and
//!   opens connections;
//! * a shared [`Reactor`] thread multiplexes every connection's bounded
//!   completion stream through one poller, pulling tagged responses and
//!   retrieving the matching event;
//! * every asynchronous call takes one submit path, and its OpenCL
//!   [`Event`] *is* the Fig. 2 state machine: `Queued` (INIT) →
//!   `Submitted` (FIRST, on the manager's `Enqueued` ack) → `Complete` or
//!   `Failed`, with the BUFFER step the read payload's copy-out inside the
//!   completion handler. The event drops late and duplicate updates, so
//!   `clWaitForEvents`-style polling works exactly as the specification
//!   says;
//! * bulk data takes the shared-memory path (single copy) when the session
//!   was granted a segment, and the gRPC path (serialization + extra
//!   copies) otherwise.
//!
//! The headline property — *transparency* — is testable: the doc-test and
//! integration tests run identical host code against a [`NativeBackend`]
//! and a [`RemoteBackend`] and obtain identical outputs.
//!
//! [`Backend`]: bf_ocl::Backend
//! [`Event`]: bf_ocl::Event
//! [`NativeBackend`]: bf_ocl::NativeBackend

mod backend;
mod connection;
mod reactor;
mod router;
#[cfg(test)]
mod state_machine;

/// The bf-sync facade (re-exported from `bf-race`): synchronization in
/// this crate goes through it so the connection and reactor can run under
/// the deterministic model scheduler (`bf-race --features model`).
pub use bf_race::sync;

pub use backend::RemoteBackend;
pub use connection::{map_error, sync_rtt, Connection};
pub use reactor::Reactor;
pub use router::Router;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use bf_devmgr::{DeviceManager, DeviceManagerConfig};
    use bf_fpga::{
        Bitstream, Board, BoardSpec, DeviceMemory, FnKernel, KernelDescriptor, KernelInvocation,
        Payload,
    };
    use bf_model::{node_b, PcieGeneration, PcieLink, VirtualClock, VirtualDuration};
    use bf_ocl::{BitstreamCatalog, Device, EventStatus, NativeBackend, NdRange};
    use bf_rpc::PathCosts;
    use parking_lot::Mutex;

    use super::*;

    fn catalog() -> BitstreamCatalog {
        let scale = FnKernel::new(
            |_inv: &KernelInvocation| VirtualDuration::from_micros(200),
            |inv: &KernelInvocation, mem: &mut DeviceMemory| {
                let buf = inv.arg(0)?.as_buffer()?;
                let factor = inv.arg(1)?.as_u32()? as u8;
                for b in mem.bytes_mut(buf)? {
                    *b = b.wrapping_mul(factor);
                }
                Ok(())
            },
        );
        let mut cat = BitstreamCatalog::new();
        cat.register(Arc::new(Bitstream::new(
            "scale",
            vec![KernelDescriptor::new("scale", Arc::new(scale))],
        )));
        cat
    }

    fn board() -> Arc<Mutex<Board>> {
        Arc::new(Mutex::new(Board::new(
            BoardSpec::de5a_net(),
            PcieLink::new(PcieGeneration::Gen3, 8),
        )))
    }

    fn manager() -> DeviceManager {
        DeviceManager::new(
            DeviceManagerConfig::standalone("fpga-b"),
            node_b(),
            board(),
            catalog(),
        )
    }

    /// The host program used by the transparency tests: identical code for
    /// every backend, exactly the paper's "no code rewriting" claim.
    fn host_program(device: &Device, input: &[u8]) -> Vec<u8> {
        let ctx = device.create_context().expect("context");
        let program = ctx.build_program("scale").expect("program");
        let kernel = program.create_kernel("scale").expect("kernel");
        let buf = ctx.create_buffer(input.len() as u64).expect("buffer");
        let queue = ctx.create_queue().expect("queue");
        queue.write(&buf, input.to_vec()).expect("write");
        kernel.set_arg_buffer(0, &buf).expect("arg 0");
        kernel.set_arg(1, bf_ocl::ArgValue::U32(3)).expect("arg 1");
        queue
            .launch(&kernel, NdRange::d1(input.len() as u64))
            .expect("launch");
        queue.finish().expect("finish");
        queue.read_vec(&buf).expect("read")
    }

    #[test]
    fn remote_execution_matches_native_bit_for_bit() {
        let input: Vec<u8> = (0..=255).collect();
        let expected: Vec<u8> = input.iter().map(|b| b.wrapping_mul(3)).collect();

        let native = Device::new(Arc::new(NativeBackend::new(
            node_b(),
            board(),
            catalog(),
            VirtualClock::new(),
            "native",
        )));
        assert_eq!(host_program(&native, &input), expected);

        let mut router = Router::new();
        router.add_manager(manager());
        for costs in [PathCosts::local_shm(), PathCosts::local_grpc()] {
            let device = router
                .connect(0, "remote-fn", costs, VirtualClock::new())
                .expect("connect");
            assert_eq!(host_program(&device, &input), expected, "costs {costs:?}");
        }
    }

    #[test]
    fn remote_adds_control_overhead_over_native() {
        let input = vec![1u8; 1 << 20];

        let native_clock = VirtualClock::new();
        let native = Device::new(Arc::new(NativeBackend::new(
            node_b(),
            board(),
            catalog(),
            native_clock.clone(),
            "native",
        )));
        host_program(&native, &input);
        let native_t = native_clock.now();

        let mut router = Router::new();
        router.add_manager(manager());
        let shm_clock = VirtualClock::new();
        let device = router
            .connect(0, "remote-fn", PathCosts::local_shm(), shm_clock.clone())
            .expect("connect");
        host_program(&device, &input);
        let shm_t = shm_clock.now();

        let mut router2 = Router::new();
        router2.add_manager(manager());
        let grpc_clock = VirtualClock::new();
        let device = router2
            .connect(0, "remote-fn", PathCosts::local_grpc(), grpc_clock.clone())
            .expect("connect");
        host_program(&device, &input);
        let grpc_t = grpc_clock.now();

        assert!(
            shm_t > native_t,
            "shm {shm_t} must exceed native {native_t}"
        );
        assert!(grpc_t > shm_t, "grpc {grpc_t} must exceed shm {shm_t}");
    }

    #[test]
    fn async_events_progress_through_statuses() {
        let mut router = Router::new();
        router.add_manager(manager());
        let device = router
            .connect(0, "remote-fn", PathCosts::local_shm(), VirtualClock::new())
            .expect("connect");
        let ctx = device.create_context().expect("ctx");
        let _prog = ctx.build_program("scale").expect("program");
        let buf = ctx.create_buffer(1 << 16).expect("buffer");
        let queue = ctx.create_queue().expect("queue");
        let ev = queue
            .write_async(&buf, 0, Payload::Synthetic(1 << 16))
            .expect("enqueue");
        queue.flush().expect("flush");
        ev.wait().expect("wait");
        assert_eq!(ev.status(), EventStatus::Complete);
        let profile = ev.profile();
        assert!(profile.ended >= profile.started);
        assert!(
            ev.observed_at() >= profile.ended,
            "observed adds the return hop"
        );
    }

    #[test]
    fn errors_surface_through_events_and_calls() {
        let mut router = Router::new();
        router.add_manager(manager());
        let device = router
            .connect(0, "remote-fn", PathCosts::local_grpc(), VirtualClock::new())
            .expect("connect");
        let ctx = device.create_context().expect("ctx");
        assert!(ctx.build_program("missing-bitstream").is_err());
        let buf = ctx.create_buffer(16).expect("buffer");
        let queue = ctx.create_queue().expect("queue");
        // Out-of-bounds write fails asynchronously via the event.
        let ev = queue
            .write_async(&buf, 8, vec![0u8; 16])
            .expect("enqueue accepted");
        queue.flush().expect("flush");
        assert!(ev.wait().is_err());
        assert_eq!(ev.status(), EventStatus::Failed);
    }

    #[test]
    fn shm_connection_actually_uses_the_segment() {
        let mgr = manager();
        let mut router = Router::new();
        router.add_manager(mgr);
        let device = router
            .connect(0, "remote-fn", PathCosts::local_shm(), VirtualClock::new())
            .expect("connect");
        host_program(&device, &[7u8; 4096]);
        // After a full round trip every staged region must be freed again.
        let backend = device.backend();
        let _ = backend; // segment introspection is internal; absence of leaks is
                         // covered by repeated runs below not exhausting the segment
        for _ in 0..8 {
            host_program(&device, &[9u8; 4096]);
        }
    }

    #[test]
    fn markers_and_barriers_fence_the_queue() {
        let mut router = Router::new();
        router.add_manager(manager());
        let clock = VirtualClock::new();
        let device = router
            .connect(0, "remote-fn", PathCosts::local_shm(), clock.clone())
            .expect("connect");
        let ctx = device.create_context().expect("ctx");
        let _prog = ctx.build_program("scale").expect("program");
        let buf = ctx.create_buffer(1 << 20).expect("buffer");
        let queue = ctx.create_queue().expect("queue");
        let w = queue
            .write_async(&buf, 0, Payload::Synthetic(1 << 20))
            .expect("write");
        // The barrier seals the open task (clEnqueueBarrier as a task
        // boundary, paper §III-B) and completes after the write.
        let barrier = queue.enqueue_barrier().expect("barrier");
        barrier.wait().expect("barrier drained");
        assert_eq!(
            w.status(),
            EventStatus::Complete,
            "fence implies the write completed"
        );
        assert!(
            barrier.observed_at() >= w.observed_at(),
            "barrier completes at or after the write"
        );
        // A marker on an idle queue completes quickly.
        let marker = queue.enqueue_marker().expect("marker");
        marker.wait().expect("marker");
    }

    #[test]
    fn completion_callbacks_fire_from_the_connection_thread() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let mut router = Router::new();
        router.add_manager(manager());
        let device = router
            .connect(0, "remote-fn", PathCosts::local_shm(), VirtualClock::new())
            .expect("connect");
        let ctx = device.create_context().expect("ctx");
        let _prog = ctx.build_program("scale").expect("program");
        let buf = ctx.create_buffer(1 << 10).expect("buffer");
        let queue = ctx.create_queue().expect("queue");
        let fired = Arc::new(AtomicU64::new(0));
        let ev = queue
            .write_async(&buf, 0, Payload::Synthetic(1 << 10))
            .expect("write");
        let f = fired.clone();
        ev.on_complete(move |status| {
            assert_eq!(status, EventStatus::Complete);
            f.fetch_add(1, Ordering::SeqCst);
        });
        queue.finish().expect("finish");
        ev.wait().expect("wait");
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn multiple_parallel_command_queues_per_client() {
        // PipeCNN "calls several kernels iteratively with multiple parallel
        // command queues": two queues in one session must work and their
        // tasks must both execute (FIFO-serialized on the board).
        let mut router = Router::new();
        router.add_manager(manager());
        let device = router
            .connect(0, "remote-fn", PathCosts::local_shm(), VirtualClock::new())
            .expect("connect");
        let ctx = device.create_context().expect("ctx");
        let program = ctx.build_program("scale").expect("program");
        let kernel = program.create_kernel("scale").expect("kernel");
        let buf_a = ctx.create_buffer(64).expect("a");
        let buf_b = ctx.create_buffer(64).expect("b");
        let q1 = ctx.create_queue().expect("q1");
        let q2 = ctx.create_queue().expect("q2");
        q1.write(&buf_a, vec![2u8; 64]).expect("write a");
        q2.write(&buf_b, vec![5u8; 64]).expect("write b");
        kernel.set_arg_buffer(0, &buf_a).expect("arg");
        kernel.set_arg(1, bf_ocl::ArgValue::U32(3)).expect("arg");
        q1.launch(&kernel, NdRange::d1(64)).expect("launch a");
        q1.finish().expect("finish q1");
        assert_eq!(q1.read_vec(&buf_a).expect("read a"), vec![6u8; 64]);
        // Queue 2's buffer is untouched by queue 1's kernel.
        assert_eq!(q2.read_vec(&buf_b).expect("read b"), vec![5u8; 64]);
    }

    #[test]
    fn pipelined_ops_share_one_control_round_trip() {
        // Async write + kernel + read, one finish: the control overhead is
        // ~1 hop at entry and ~1 at exit, not 2 per operation — the shape
        // behind Fig. 4(b)'s constant ~2 ms gap.
        let mut router = Router::new();
        router.add_manager(manager());
        let clock = VirtualClock::new();
        let device = router
            .connect(0, "remote-fn", PathCosts::local_shm(), clock.clone())
            .expect("connect");
        let ctx = device.create_context().expect("ctx");
        let program = ctx.build_program("scale").expect("program");
        let kernel = program.create_kernel("scale").expect("kernel");
        let buf = ctx.create_buffer(64).expect("buffer");
        let queue = ctx.create_queue().expect("queue");

        let t0 = clock.now();
        let _w = queue.write_async(&buf, 0, vec![1u8; 64]).expect("write");
        kernel.set_arg_buffer(0, &buf).expect("arg 0");
        kernel.set_arg(1, bf_ocl::ArgValue::U32(2)).expect("arg 1");
        let _k = queue.launch(&kernel, NdRange::d1(64)).expect("kernel");
        let _r = queue.read_async(&buf, 0, 64).expect("read");
        queue.finish().expect("finish");
        let elapsed = clock.now() - t0;
        // Device time here is ~0.4 ms (two tiny DMAs + 200 us kernel); the
        // overhead budget leaves well under 4 control hops (2 ms).
        assert!(
            elapsed < VirtualDuration::from_millis_f64(3.0),
            "pipelined round trip took {elapsed}"
        );
    }
}
