//! Integration: direct mode (real threads) and DES mode (event simulation)
//! must agree.
//!
//! The single-tenant Sobel request is served by both execution modes with
//! the same cost models; a closed-loop run through the *real* threaded
//! stack (Remote Library → Device Manager → board) must land on the same
//! latency the cluster simulation predicts for an uncontended function on
//! the same node.

use std::sync::Arc;

use blastfunction::model::DataPathKind;
use blastfunction::prelude::*;
use blastfunction::serverless::run_closed_loop;
use blastfunction::workloads::sobel;
use parking_lot::Mutex;

/// Builds the direct-mode stack: a gateway fronting one real function
/// instance that drives the Remote OpenCL Library against a shared board
/// on node B.
fn direct_mode_gateway() -> (Gateway, VirtualClock) {
    let mut catalog = BitstreamCatalog::new();
    catalog.register(sobel::bitstream());
    let board = Arc::new(Mutex::new(Board::new(
        BoardSpec::de5a_net(),
        *node_b().pcie(),
    )));
    let manager = DeviceManager::new(
        DeviceManagerConfig::standalone("fpga-b"),
        node_b(),
        board,
        catalog,
    );
    let mut router = Router::new();
    router.add_manager(manager);
    let clock = VirtualClock::new();
    let device = router
        .connect(0, "sobel-1", PathCosts::local_shm(), clock.clone())
        .expect("connect");

    // One-time setup (excluded from request latency, as in a warm
    // serverless function).
    let ctx = device.create_context().expect("ctx");
    let program = ctx.build_program(sobel::SOBEL_BITSTREAM).expect("program");
    let kernel = program.create_kernel(sobel::SOBEL_KERNEL).expect("kernel");
    let (w, h) = (1920u32, 1080u32);
    let bytes = sobel::frame_bytes(w, h);
    let input = ctx.create_buffer(bytes).expect("in");
    let output = ctx.create_buffer(bytes).expect("out");
    let queue = ctx.create_queue().expect("queue");
    kernel.set_arg_buffer(0, &input).expect("a0");
    kernel.set_arg_buffer(1, &output).expect("a1");
    kernel.set_arg(2, ArgValue::U32(w)).expect("a2");
    kernel.set_arg(3, ArgValue::U32(h)).expect("a3");

    let gateway = Gateway::new().with_forward_latency(VirtualDuration::from_micros(300));
    let handler_clock = clock.clone();
    let node = node_b();
    // The typed-API compatibility path: a single-request closure behind
    // the unbatched queue, with the old closure API's exact timing.
    gateway.deploy_single("sobel-1", move |at: VirtualTime| {
        // Function wrapper CPU cost, then the OpenCL request the DES
        // models as one atomic task: write frame → kernel → read frame.
        handler_clock.advance_to(at + node.host_overhead());
        queue
            .write_async(&input, 0, Payload::Synthetic(bytes))
            .map_err(|e| HandlerError::new(e.to_string()))?;
        queue
            .launch(&kernel, NdRange::d2(w.into(), h.into()))
            .map_err(|e| HandlerError::new(e.to_string()))?;
        let _ = queue
            .read_payload(&output)
            .map_err(|e| HandlerError::new(e.to_string()))?;
        // Response serialization, as the DES charges.
        Ok(handler_clock.advance_by(VirtualDuration::from_micros(500)))
    });
    (gateway, clock)
}

#[test]
fn direct_mode_latency_matches_the_des_prediction() {
    // --- DES prediction: one uncontended 20 rq/s sobel function on node B.
    // Take it from the low-load BlastFunction scenario: sobel-1 runs on B
    // with only a 5 rq/s co-tenant, so queueing is negligible.
    let des = run_scenario(
        &ScenarioConfig::new(
            UseCase::Sobel,
            LoadLevel::Low,
            Deployment::BlastFunction {
                data_path: DataPathKind::SharedMemory,
            },
        )
        .with_duration(VirtualDuration::from_secs(20))
        .with_jitter(0.0),
    );
    let des_fn = des
        .functions
        .iter()
        .find(|f| f.function == "sobel-1")
        .expect("sobel-1");
    assert_eq!(des_fn.node, "B");

    // --- Direct mode: the same request through the real threaded stack.
    let (gateway, clock) = direct_mode_gateway();
    let result = run_closed_loop(
        &gateway,
        "sobel-1",
        20.0,
        VirtualDuration::from_secs(20),
        &clock,
    )
    .expect("load run");

    assert!(result.failed == 0, "no request may fail");
    assert!(
        (result.achieved_rps - 20.0).abs() < 1.0,
        "keeps the target: {result:?}"
    );

    let direct_ms = result.mean_latency.as_millis_f64();
    let des_ms = des_fn.mean_latency_ms;
    let diff = (direct_ms - des_ms).abs();
    assert!(
        diff < 2.0,
        "direct mode ({direct_ms:.2} ms) and DES ({des_ms:.2} ms) disagree by {diff:.2} ms"
    );
}

#[test]
fn profiles_describe_what_direct_mode_actually_does() {
    // The DES consumes RequestProfiles; sanity-check that the Sobel profile
    // matches the ops the direct-mode handler issues (1 task: write +
    // kernel + read of one frame each way).
    let p = UseCase::Sobel.request_profile();
    assert_eq!(p.sync_points(), 1);
    assert_eq!(p.op_count(), 3);
    assert_eq!(p.bytes_moved(), 2 * sobel::frame_bytes(1920, 1080));
}
