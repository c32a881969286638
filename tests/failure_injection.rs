//! Integration: failure paths — resource exhaustion, bad handles,
//! cross-tenant access, dead managers, shm exhaustion fallback.

use std::sync::Arc;

use blastfunction::prelude::*;
use blastfunction::workloads::sobel;
use parking_lot::Mutex;

fn catalog() -> BitstreamCatalog {
    let mut catalog = BitstreamCatalog::new();
    catalog.register(sobel::bitstream());
    catalog
}

fn small_board(mem_bytes: u64) -> Arc<Mutex<Board>> {
    let spec = BoardSpec {
        memory_bytes: mem_bytes,
        ..BoardSpec::de5a_net()
    };
    Arc::new(Mutex::new(Board::new(spec, *node_b().pcie())))
}

fn manager_with(board: Arc<Mutex<Board>>, shm_capacity: u64) -> DeviceManager {
    DeviceManager::new(
        DeviceManagerConfig::standalone("fpga-b").with_shm_capacity(shm_capacity),
        node_b(),
        board,
        catalog(),
    )
}

fn connect(manager: &DeviceManager, costs: PathCosts) -> Device {
    let mut router = Router::new();
    router.add_manager(manager.clone());
    router
        .connect(0, "victim", costs, VirtualClock::new())
        .expect("connect")
}

#[test]
fn device_memory_exhaustion_maps_to_out_of_resources() {
    let manager = manager_with(small_board(1 << 20), 1 << 20);
    let device = connect(&manager, PathCosts::local_grpc());
    let ctx = device.create_context().expect("ctx");
    let _big = ctx.create_buffer(1 << 19).expect("first allocation fits");
    let err = ctx
        .create_buffer(1 << 20)
        .expect_err("second must exhaust DDR");
    assert!(matches!(err, ClError::OutOfResources(_)), "got {err:?}");
    // Releasing makes space again.
    drop(_big);
    // Releases are fire-and-forget; the manager processes them in order,
    // so a subsequent allocation request observes the freed space.
    let again = ctx.create_buffer(1 << 19);
    assert!(again.is_ok(), "allocation after release failed: {again:?}");
}

#[test]
fn a_session_past_its_object_cap_is_refused_without_harming_others() {
    use blastfunction::ocl::MAX_POOL_OBJECTS;

    // 1 MB of board memory: a leaked 768 KB buffer would exhaust it.
    let manager = manager_with(small_board(1 << 20), 1 << 20);
    let greedy = connect(&manager, PathCosts::local_grpc());
    let ctx = greedy.create_context().expect("ctx");
    let queue = ctx.create_queue().expect("queue");
    let buffer = ctx.create_buffer(64).expect("buffer");
    let mut contexts = Vec::new();
    for _ in 3..MAX_POOL_OBJECTS {
        contexts.push(greedy.create_context().expect("under the cap"));
    }
    let err = greedy.create_context().expect_err("the pool is full");
    assert!(matches!(err, ClError::OutOfResources(_)), "got {err:?}");
    // A refused buffer gives its board memory back: were the first one
    // leaked, the second would fail on device memory instead.
    for _ in 0..2 {
        match ctx.create_buffer(768 << 10) {
            Err(ClError::OutOfResources(m)) => assert!(m.contains("live objects"), "{m}"),
            other => panic!("expected the pool cap, got {other:?}"),
        }
    }
    // What the session already holds still works.
    queue.write(&buffer, vec![7u8; 64]).expect("write");
    assert_eq!(queue.read_vec(&buffer).expect("read"), vec![7u8; 64]);

    // Another session has its own pool, and the board memory is free.
    let other = connect(&manager, PathCosts::local_grpc());
    let other_ctx = other.create_context().expect("own pool");
    let other_queue = other_ctx.create_queue().expect("queue");
    let big = other_ctx
        .create_buffer(768 << 10)
        .expect("memory was freed");
    other_queue
        .write(&big, vec![9u8; 768 << 10])
        .expect("write");
    assert_eq!(
        other_queue.read_vec(&big).expect("read"),
        vec![9u8; 768 << 10]
    );
}

#[test]
fn out_of_bounds_transfers_fail_without_corrupting_the_session() {
    let manager = manager_with(small_board(1 << 24), 1 << 24);
    let device = connect(&manager, PathCosts::local_grpc());
    let ctx = device.create_context().expect("ctx");
    let buf = ctx.create_buffer(64).expect("buffer");
    let queue = ctx.create_queue().expect("queue");
    let ev = queue
        .write_async(&buf, 32, vec![0u8; 64])
        .expect("accepted into the task");
    queue.flush().expect("flush");
    let err = ev.wait().expect_err("out of bounds");
    assert!(matches!(err, ClError::OutOfBounds(_)), "got {err:?}");
    // The session keeps working afterwards.
    queue
        .write(&buf, vec![1u8; 64])
        .expect("valid write still works");
    assert_eq!(queue.read_vec(&buf).expect("read"), vec![1u8; 64]);
}

#[test]
fn unknown_kernel_and_bitstream_fail_cleanly() {
    let manager = manager_with(small_board(1 << 24), 1 << 24);
    let device = connect(&manager, PathCosts::local_grpc());
    let ctx = device.create_context().expect("ctx");
    assert!(matches!(
        ctx.build_program("no-such-image"),
        Err(ClError::BuildProgramFailure(_))
    ));
    let program = ctx.build_program(sobel::SOBEL_BITSTREAM).expect("program");
    assert!(matches!(
        program.create_kernel("no-such-kernel"),
        Err(ClError::BuildProgramFailure(_))
    ));
}

#[test]
fn missing_kernel_args_fail_the_launch_event() {
    let manager = manager_with(small_board(1 << 24), 1 << 24);
    let device = connect(&manager, PathCosts::local_grpc());
    let ctx = device.create_context().expect("ctx");
    let program = ctx.build_program(sobel::SOBEL_BITSTREAM).expect("program");
    let kernel = program.create_kernel(sobel::SOBEL_KERNEL).expect("kernel");
    let queue = ctx.create_queue().expect("queue");
    // Arg 3 set, args 0-2 missing.
    kernel.set_arg(3, ArgValue::U32(8)).expect("set arg");
    let ev = queue
        .launch(&kernel, NdRange::d1(64))
        .expect("enqueue accepted");
    queue.flush().expect("flush");
    let err = ev.wait().expect_err("launch must fail");
    assert!(
        matches!(err, ClError::InvalidKernelLaunch(_)),
        "got {err:?}"
    );
}

#[test]
fn shm_exhaustion_degrades_to_inline_without_data_loss() {
    // A 4 KiB shm segment cannot stage a 64 KiB frame: the library must
    // fall back to the inline (gRPC) data path transparently.
    let manager = manager_with(small_board(1 << 24), 4 << 10);
    let device = connect(&manager, PathCosts::local_shm());
    let ctx = device.create_context().expect("ctx");
    let buf = ctx.create_buffer(64 << 10).expect("buffer");
    let queue = ctx.create_queue().expect("queue");
    let payload = vec![0xA5u8; 64 << 10];
    queue
        .write(&buf, payload.clone())
        .expect("write survives shm exhaustion");
    assert_eq!(queue.read_vec(&buf).expect("read"), payload);
}

#[test]
fn dead_manager_surfaces_as_transport_failure() {
    let manager = manager_with(small_board(1 << 24), 1 << 24);
    let endpoint = manager.connect("doomed", PathCosts::local_grpc());
    // Simulate the manager process dying: drop every handle to it. The
    // session thread exits when the client channel closes server-side…
    // here we instead drop the client's endpoint channel indirectly by
    // killing the backend's connection: easiest deterministic variant is
    // connecting and then dropping the manager's board/session by sending
    // Disconnect first.
    let backend = RemoteBackend::connect(endpoint, VirtualClock::new()).expect("connect");
    let ctx = backend.create_context().expect("ctx");
    // Tear the session down from the manager side.
    let conn = backend.connection().clone();
    conn.cast(
        blastfunction::rpc::Request::Disconnect,
        VirtualClock::new().now(),
    )
    .expect("disconnect sent");
    // After the session thread exits, further calls fail as transport
    // errors rather than hanging.
    let mut saw_failure = false;
    for _ in 0..50 {
        match backend.create_buffer(ctx, 16) {
            Err(ClError::TransportFailure(_)) => {
                saw_failure = true;
                break;
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    }
    assert!(saw_failure, "calls against a dead session must fail");
}

/// A gateway batch handler backed by the real remote stack: each
/// invocation performs a write/read round trip against the device. After
/// `kill_after` successful requests the device manager's session is torn
/// down mid-batch (the manager "dies"), so the remaining invocations must
/// fail — typed, per invocation, without losing or duplicating any ticket.
struct MidBatchLoss {
    queue: blastfunction::ocl::Queue,
    buffer: blastfunction::ocl::Buffer,
    conn: blastfunction::remote::Connection,
    kill_after: usize,
}

impl MidBatchLoss {
    fn round_trip(&self) -> Result<(), ClError> {
        self.queue.write(&self.buffer, vec![7u8; 64])?;
        self.queue.read_vec(&self.buffer)?;
        Ok(())
    }
}

impl BatchHandler for MidBatchLoss {
    fn handle_batch(
        &self,
        start: VirtualTime,
        batch: &[Invocation],
    ) -> Vec<Result<Completion, HandlerError>> {
        let mut out = Vec::with_capacity(batch.len());
        for (i, _invocation) in batch.iter().enumerate() {
            if i == self.kill_after {
                // The device manager dies between request i-1 and i: the
                // session tears down and every later request must surface
                // a transport failure rather than hang or vanish.
                self.conn
                    .cast(blastfunction::rpc::Request::Disconnect, VirtualTime::ZERO)
                    .ok();
            }
            if i < self.kill_after {
                match self.round_trip() {
                    Ok(()) => out.push(Ok(Completion::at(start))),
                    Err(e) => out.push(Err(HandlerError::new(e.to_string()))),
                }
            } else {
                // Session death is asynchronous (the manager-side thread
                // exits when it processes the disconnect); retry until the
                // failure becomes visible so the outcome is deterministic.
                let mut result = self.round_trip();
                for _ in 0..200 {
                    if result.is_err() {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    result = self.round_trip();
                }
                match result {
                    Ok(()) => out.push(Ok(Completion::at(start))),
                    Err(e) => out.push(Err(HandlerError::new(e.to_string()))),
                }
            }
        }
        out
    }
}

#[test]
fn device_manager_loss_mid_batch_fails_typed_without_losing_invocations() {
    let manager = manager_with(small_board(1 << 24), 1 << 24);
    let endpoint = manager.connect("mid-batch", PathCosts::local_grpc());
    let backend = RemoteBackend::connect(endpoint, VirtualClock::new()).expect("connect");
    let conn = backend.connection().clone();
    let device = Device::new(std::sync::Arc::new(backend));
    let ctx = device.create_context().expect("ctx");
    let buffer = ctx.create_buffer(64).expect("buffer");
    let queue = ctx.create_queue().expect("queue");

    let kill_after = 3;
    let total = 6;
    let gateway = Gateway::new();
    gateway.deploy(
        "victim",
        Batcher::new().with_max_batch_size(total),
        std::sync::Arc::new(MidBatchLoss {
            queue,
            buffer,
            conn,
            kill_after,
        }),
    );

    let mut submitted = Vec::new();
    for _ in 0..total {
        submitted.push(
            gateway
                .submit("victim", Invocation::at(VirtualTime::ZERO))
                .expect("queue capacity 64"),
        );
    }
    let outcomes = gateway
        .flush("victim", VirtualTime::ZERO)
        .expect("function deployed");

    // One outcome per submission, every ticket echoed exactly once.
    assert_eq!(outcomes.len(), total, "an invocation was lost or invented");
    let mut echoed: Vec<_> = outcomes.iter().map(|o| o.ticket).collect();
    echoed.sort();
    assert_eq!(echoed, submitted, "tickets lost or duplicated");

    // Requests before the loss complete; requests after it fail with the
    // transport error, surfaced per invocation instead of poisoning the
    // batch or hanging the gateway.
    for (i, outcome) in outcomes.iter().enumerate() {
        if i < kill_after {
            assert!(outcome.result.is_ok(), "request {i} should precede death");
        } else {
            let err = outcome
                .result
                .as_ref()
                .expect_err("request after manager death must fail");
            assert!(
                err.reason().contains("transport"),
                "request {i}: expected a transport failure, got {err:?}"
            );
        }
    }
    let stats = gateway.stats("victim").expect("deployed");
    assert_eq!(stats.processed, kill_after as u64);
    assert_eq!(stats.failed, (total - kill_after) as u64);
}

#[test]
fn cross_tenant_buffers_are_unreachable() {
    let manager = manager_with(small_board(1 << 24), 1 << 24);
    let alice = connect(&manager, PathCosts::local_grpc());
    let alice_ctx = alice.create_context().expect("ctx");
    let secret = alice_ctx.create_buffer(64).expect("buffer");
    let alice_queue = alice_ctx.create_queue().expect("queue");
    alice_queue.write(&secret, vec![42u8; 64]).expect("write");

    // Mallory connects separately and probes handle values 1..64 — none
    // may reach Alice's buffer (handles are session-scoped).
    let mallory = connect(&manager, PathCosts::local_grpc());
    let m_ctx = mallory.create_context().expect("ctx");
    let m_queue = m_ctx.create_queue().expect("queue");
    let mine = m_ctx.create_buffer(64).expect("own buffer");
    m_queue.write(&mine, vec![0u8; 64]).expect("write");
    for guess in 1..=64u64 {
        let ev = mallory.backend().enqueue_read(
            m_queue.id(),
            blastfunction::ocl::MemId(guess),
            0,
            64,
            false,
        );
        if let Ok(ev) = ev {
            m_queue.flush().expect("flush");
            if ev.wait().is_ok() {
                let payload = ev.take_payload().expect("payload");
                if let blastfunction::fpga::Payload::Data(bytes) = payload {
                    assert_ne!(
                        bytes,
                        vec![42u8; 64],
                        "leaked Alice's buffer via handle {guess}"
                    );
                }
            }
        }
    }
}

#[test]
fn shard_scoped_device_failure_rehomes_tenants_without_disturbing_other_shards() {
    use blastfunction::registry::StaticDevice;

    // A four-shard federation over six boards, every board pre-configured
    // with the Sobel bitstream. All calls go through the typed
    // `PlacementService` surface — the same one the cluster admission
    // hook uses.
    let federation = ShardedRegistry::new(AllocationPolicy::paper(), 4);
    let placement: &dyn PlacementService = &federation;
    let nodes = [node_a(), node_b(), node_c()];
    for i in 0..6 {
        placement.register_device_handle(
            StaticDevice::new(
                format!("fpga-{i}"),
                nodes[i % nodes.len()].clone(),
                Some(sobel::SOBEL_BITSTREAM),
            )
            .handle(),
        );
    }
    for i in 0..6 {
        let function = format!("sobel-{i}");
        placement.register_function(
            &function,
            DeviceQuery::for_accelerator(sobel::SOBEL_BITSTREAM),
        );
        placement
            .place_instance(&format!("inst-{i}"), &function)
            .expect("six boards absorb six instances");
    }
    let before: std::collections::BTreeMap<String, String> = (0..6)
        .map(|i| {
            let instance = format!("inst-{i}");
            let device = placement.binding(&instance).expect("bound");
            (instance, device)
        })
        .collect();

    // Kill the board hosting inst-0. The failure is scoped to the owning
    // shard: the registry drops the device, unbinds its tenants, and
    // reports them for re-homing.
    let victim = before["inst-0"].clone();
    let evicted = placement
        .handle_device_failure(&victim)
        .expect("failure handled");
    assert!(evicted.contains(&"inst-0".to_string()), "{evicted:?}");
    assert!(
        !placement.device_ids().contains(&victim),
        "the dead board must leave the federation"
    );
    for instance in &evicted {
        assert_eq!(
            before[instance], victim,
            "only the victim's tenants may be evicted"
        );
    }
    for (instance, device) in &before {
        if *device == victim {
            assert!(
                placement.binding(instance).is_none(),
                "{instance} must be unbound after the failure"
            );
        } else {
            // Bindings on the other shards' boards are untouched: the
            // failure never escapes the owning shard.
            assert_eq!(
                placement.binding(instance).as_deref(),
                Some(device.as_str()),
                "{instance} moved although its board survived"
            );
        }
    }

    // Re-homing the evicted tenants through the same API lands each one
    // on a surviving board.
    for (round, instance) in evicted.iter().enumerate() {
        let index = instance.strip_prefix("inst-").expect("harness naming");
        let allocation = placement
            .place_instance(&format!("re-{round}"), &format!("sobel-{index}"))
            .expect("survivors absorb the evicted tenants");
        assert_ne!(allocation.device_id, victim, "re-homed onto a dead board");
    }
}

fn cached_manager(id: &str, node: bf_model::NodeSpec, board: Arc<Mutex<Board>>) -> DeviceManager {
    DeviceManager::new(
        DeviceManagerConfig::standalone(id)
            .with_shm_capacity(1 << 24)
            .with_payload_cache(1 << 20),
        node,
        board,
        catalog(),
    )
}

#[test]
fn evicted_payload_digest_nack_resends_inline_without_stale_bytes() {
    let manager = cached_manager("fpga-b", node_b(), small_board(1 << 24));
    let device = connect(&manager, PathCosts::local_grpc());
    let ctx = device.create_context().expect("ctx");
    let buf = ctx.create_buffer(64).expect("buffer");
    let queue = ctx.create_queue().expect("queue");

    let old = vec![1u8; 64];
    let new = vec![2u8; 64];
    // First send travels inline and is admitted to the manager's cache;
    // the repeat ships only the digest and the host tier resolves it.
    queue.write(&buf, old.clone()).expect("inline write");
    queue.write(&buf, old.clone()).expect("digest write");
    let stats = manager.cache_stats().expect("cache enabled");
    assert!(stats.hits >= 1, "repeat write must hit: {stats:?}");

    // Overwrite with different content, then wipe the manager's cache —
    // the eviction / node-restart case. The client's tracker still
    // believes the manager holds `old`.
    queue.write(&buf, new.clone()).expect("write new");
    manager.invalidate_payload_cache();

    // The stale digest must surface as a CacheMiss NACK and a
    // transparent inline resend — the buffer ends up holding `old`. A
    // broken NACK path would either fail the write or leave `new` in
    // place (a stale "hit" skipping the transfer).
    queue.write(&buf, old.clone()).expect("stale digest resend");
    assert_eq!(queue.read_vec(&buf).expect("read"), old);
    let stats = manager.cache_stats().expect("cache enabled");
    assert!(
        stats.misses >= 1,
        "the stale digest must be counted as a miss: {stats:?}"
    );
}

#[test]
fn over_budget_payload_repeats_never_travel_as_digests() {
    // One byte more than the manager's whole host-tier budget: it can
    // never be admitted, so a digest reference to it could only NACK.
    let manager = cached_manager("fpga-b", node_b(), small_board(1 << 24));
    let device = connect(&manager, PathCosts::local_grpc());
    let ctx = device.create_context().expect("ctx");
    let len = (1usize << 20) + 1;
    let buf = ctx.create_buffer(len as u64).expect("buffer");
    let queue = ctx.create_queue().expect("queue");
    let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();

    for _ in 0..4 {
        queue.write(&buf, payload.clone()).expect("inline write");
    }
    // Every digest frame a session is entitled to send is a host-tier
    // lookup, and every `CacheMiss` NACK of one is a counted miss: with
    // the client tracking what the manager refused, each repeat was a
    // digest frame, a miss, a NACK and an inline resend.
    let stats = manager.cache_stats().expect("cache enabled");
    assert_eq!(
        (stats.hits, stats.misses, stats.insertions),
        (0, 0, 0),
        "an inadmissible payload must only ever travel inline: {stats:?}"
    );
    assert_eq!(queue.read_vec(&buf).expect("read"), payload);
}

#[test]
fn node_death_migration_never_reuses_stale_cache_or_bitstream() {
    // The victim node serves a cache-hot session: payload resident on
    // both tiers, board programmed with the function's bitstream.
    let victim_board = small_board(1 << 24);
    let victim = cached_manager("fpga-b", node_b(), victim_board.clone());
    let device = connect(&victim, PathCosts::local_grpc());
    let ctx = device.create_context().expect("ctx");
    let buf = ctx.create_buffer(256).expect("buffer");
    let queue = ctx.create_queue().expect("queue");
    let payload = vec![0x5Au8; 256];
    queue.write(&buf, payload.clone()).expect("inline write");
    queue.write(&buf, payload.clone()).expect("digest write");
    assert!(
        victim.cache_stats().expect("cache enabled").hits >= 1,
        "the victim session must be cache-hot before the loss"
    );

    // Node death: the manager's cache dies with the process. The
    // replacement on another node shares neither tier nor tracker state.
    victim.invalidate_payload_cache();
    let replacement_board = small_board(1 << 24);
    let replacement = cached_manager("fpga-c", node_c(), replacement_board.clone());
    let rerouted = connect(&replacement, PathCosts::local_grpc());
    let ctx2 = rerouted.create_context().expect("ctx");
    let buf2 = ctx2.create_buffer(256).expect("buffer");
    let queue2 = ctx2.create_queue().expect("queue");

    // The re-routed invocation ships its payload inline: a fresh
    // connection's tracker cannot claim residency the replacement does
    // not have, so no stale digest hit is possible.
    queue2
        .write(&buf2, payload.clone())
        .expect("re-routed write");
    let stats = replacement.cache_stats().expect("cache enabled");
    assert_eq!(
        stats.hits, 0,
        "no digest may hit a fresh manager: {stats:?}"
    );
    assert!(
        stats.insertions >= 1,
        "payload must be re-admitted: {stats:?}"
    );
    assert_eq!(queue2.read_vec(&buf2).expect("read"), payload);

    // The replacement board holds no bitstream from the victim: the
    // kernel path must program it before the first launch.
    assert!(
        replacement_board.lock().bitstream_id().is_none(),
        "replacement must start unconfigured"
    );
    let program = ctx2.build_program(sobel::SOBEL_BITSTREAM).expect("program");
    let kernel = program.create_kernel(sobel::SOBEL_KERNEL).expect("kernel");
    let frame = sobel::frame_bytes(8, 8);
    let input = ctx2.create_buffer(frame).expect("input");
    let output = ctx2.create_buffer(frame).expect("output");
    kernel.set_arg_buffer(0, &input).expect("arg 0");
    kernel.set_arg_buffer(1, &output).expect("arg 1");
    kernel.set_arg(2, ArgValue::U32(8)).expect("arg 2");
    kernel.set_arg(3, ArgValue::U32(8)).expect("arg 3");
    queue2
        .write(&input, vec![9u8; frame as usize])
        .expect("frame write");
    let ev = queue2
        .launch(&kernel, NdRange::d2(8, 8))
        .expect("launch accepted");
    queue2.flush().expect("flush");
    ev.wait().expect("kernel must run after reprogramming");
    assert_eq!(
        replacement_board.lock().bitstream_id(),
        Some(sobel::SOBEL_BITSTREAM),
        "the replacement programmed the bitstream itself"
    );
}
