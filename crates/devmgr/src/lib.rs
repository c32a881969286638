#![forbid(unsafe_code)]

//! # bf-devmgr — the BlastFunction Device Manager
//!
//! One Device Manager fronts one FPGA board and is, together with the
//! Remote OpenCL Library, the basic block of the sharing mechanism
//! (paper §III-B):
//!
//! * each client gets an **isolated session** with its own resource pool —
//!   handles are session-scoped, so tenants cannot touch each other's
//!   buffers/kernels/queues;
//! * *context & information methods* execute synchronously; *command-queue
//!   methods* accumulate into **multi-operation tasks** sealed by
//!   `Flush`/`Finish`;
//! * a single **event-loop thread** polls every session's bounded channel
//!   (round-robin fairness, explicit backpressure) and drains the central
//!   task queue in FIFO order, executing each task atomically on the board
//!   and notifying each operation's event punctually;
//! * bulk data moves **inline (gRPC)** or through a **shared-memory
//!   segment** (one retained copy), per connection;
//! * **board reconfiguration** blocks everything else and is guarded by a
//!   [`ReconfigPolicy`] (the Accelerators Registry's validation hook);
//! * busy time is attributed per function and exported through a
//!   Prometheus-style scrape ([`DeviceManager::scrape`]).
//!
//! ```
//! use std::sync::Arc;
//! use bf_devmgr::{DeviceManager, DeviceManagerConfig};
//! use bf_fpga::{Board, BoardSpec};
//! use bf_model::{node_b, PcieGeneration, PcieLink};
//! use bf_ocl::BitstreamCatalog;
//! use bf_rpc::PathCosts;
//! use parking_lot::Mutex;
//!
//! let board = Arc::new(Mutex::new(Board::new(
//!     BoardSpec::de5a_net(),
//!     PcieLink::new(PcieGeneration::Gen3, 8),
//! )));
//! let manager = DeviceManager::new(
//!     DeviceManagerConfig::standalone("fpga-b"),
//!     node_b(),
//!     board,
//!     BitstreamCatalog::new(),
//! );
//! let endpoint = manager.connect("sobel-1", PathCosts::local_shm());
//! assert!(endpoint.shm.is_some(), "co-located clients get a shm segment");
//! ```

mod event_loop;
pub mod lock_order;
mod manager;
mod session;
mod task;
mod worker;

/// The bf-sync facade (re-exported from `bf-race`): synchronization in
/// this crate goes through it so the event loop and sessions can run
/// under the deterministic model scheduler (`bf-race --features model`).
pub use bf_race::sync;

pub use bf_cache::{content_digest, CacheStats};
pub use manager::{
    DeviceManager, DeviceManagerConfig, ManagerEndpoint, ReconfigPolicy, ReconfigRequest,
};
pub use task::{Operation, Task};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use bf_fpga::{
        Bitstream, Board, BoardSpec, DeviceMemory, FnKernel, KernelDescriptor, KernelInvocation,
    };
    use bf_model::{node_a, node_b, PcieGeneration, PcieLink, VirtualDuration, VirtualTime};
    use bf_ocl::BitstreamCatalog;
    use bf_rpc::{
        ClientId, DataRef, ErrorCode, PathCosts, Payload, Request, RequestEnvelope, Response,
        ResponseEnvelope,
    };
    use parking_lot::Mutex;

    use super::*;

    fn catalog() -> BitstreamCatalog {
        let incr = FnKernel::new(
            |_inv: &KernelInvocation| VirtualDuration::from_micros(100),
            |inv: &KernelInvocation, mem: &mut DeviceMemory| {
                let buf = inv.arg(0)?.as_buffer()?;
                for b in mem.bytes_mut(buf)? {
                    *b = b.wrapping_add(1);
                }
                Ok(())
            },
        );
        let mut cat = BitstreamCatalog::new();
        cat.register(Arc::new(Bitstream::new(
            "incr",
            vec![KernelDescriptor::new("incr", Arc::new(incr))],
        )));
        cat.register(Arc::new(Bitstream::new("other", vec![])));
        cat
    }

    fn manager(policy: ReconfigPolicy) -> DeviceManager {
        let board = Arc::new(Mutex::new(Board::new(
            BoardSpec::de5a_net(),
            PcieLink::new(PcieGeneration::Gen3, 8),
        )));
        DeviceManager::new(
            DeviceManagerConfig::standalone("fpga-test").with_policy(policy),
            node_b(),
            board,
            catalog(),
        )
    }

    /// Minimal protocol driver for tests: sends a request, returns the
    /// first response for that tag.
    struct Driver {
        endpoint: ManagerEndpoint,
        next_tag: u64,
    }

    impl Driver {
        fn new(mgr: &DeviceManager, costs: PathCosts) -> Self {
            Driver {
                endpoint: mgr.connect("test-fn", costs),
                next_tag: 0,
            }
        }

        fn call(&mut self, body: Request) -> Response {
            let tag = self.send(body);
            self.wait_tag(tag)
        }

        fn send(&mut self, body: Request) -> u64 {
            self.next_tag += 1;
            let tag = self.next_tag;
            self.endpoint
                .channel
                .send(&RequestEnvelope {
                    tag,
                    client: self.endpoint.client,
                    sent_at: VirtualTime::ZERO,
                    body,
                })
                .expect("send");
            tag
        }

        fn wait_tag(&mut self, tag: u64) -> Response {
            loop {
                let resp = self.recv();
                if resp.tag == tag {
                    return resp.body;
                }
            }
        }

        fn recv(&mut self) -> ResponseEnvelope {
            self.endpoint
                .channel
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("response within 5s")
        }

        fn handle(&mut self, body: Request) -> u64 {
            match self.call(body) {
                Response::Handle { id } => id,
                other => panic!("expected handle, got {other:?}"),
            }
        }
    }

    fn setup_pipeline(d: &mut Driver) -> (u64, u64, u64, u64) {
        let ctx = d.handle(Request::CreateContext);
        let prog = d.handle(Request::BuildProgram {
            bitstream: "incr".into(),
        });
        let kernel = d.handle(Request::CreateKernel {
            program: prog,
            name: "incr".into(),
        });
        let buf = d.handle(Request::CreateBuffer {
            context: ctx,
            len: 8,
        });
        let queue = d.handle(Request::CreateQueue { context: ctx });
        assert!(matches!(
            d.call(Request::SetKernelArg {
                kernel,
                index: 0,
                arg: bf_rpc::WireArg::Buffer(buf)
            }),
            Response::Ack
        ));
        (ctx, kernel, buf, queue)
    }

    #[test]
    fn full_task_round_trip_inline() {
        let mgr = manager(ReconfigPolicy::Allow);
        let mut d = Driver::new(&mgr, PathCosts::local_grpc());
        let (_ctx, kernel, buf, queue) = setup_pipeline(&mut d);

        let wt = d.send(Request::EnqueueWrite {
            queue,
            buffer: buf,
            offset: 0,
            data: DataRef::Inline(vec![1; 8].into()),
        });
        let kt = d.send(Request::EnqueueKernel {
            queue,
            kernel,
            work: [8, 1, 1],
        });
        let rt = d.send(Request::EnqueueRead {
            queue,
            buffer: buf,
            offset: 0,
            len: 8,
        });
        let ft = d.send(Request::Finish { queue });

        // Enqueue acks come first (the FIRST state of each event machine).
        assert!(matches!(
            d.wait_tag(wt),
            Response::Enqueued | Response::Completed { .. }
        ));
        let _ = d.wait_tag(kt);
        // Then completions; the read carries the incremented data.
        loop {
            let resp = d.recv();
            if resp.tag == rt {
                if let Response::Completed {
                    data: Some(DataRef::Inline(bytes)),
                    ..
                } = resp.body
                {
                    assert_eq!(bytes, vec![2; 8]);
                    break;
                }
            }
        }
        assert!(matches!(d.wait_tag(ft), Response::Completed { .. }));
    }

    /// The payload cache's *storage* is shared across a manager's
    /// sessions, but hits are authorized per session: a client naming the
    /// digest of content only *another* tenant shipped gets a `CacheMiss`
    /// NACK — indistinguishable from a plain miss — never that tenant's
    /// bytes. Content addressing must not be a dedup side-channel.
    #[test]
    fn digest_of_another_tenants_content_never_hits() {
        let board = Arc::new(Mutex::new(Board::new(
            BoardSpec::de5a_net(),
            PcieLink::new(PcieGeneration::Gen3, 8),
        )));
        let mgr = DeviceManager::new(
            DeviceManagerConfig::standalone("fpga-test").with_payload_cache(1 << 20),
            node_b(),
            board,
            catalog(),
        );
        let secret = vec![0x42u8; 64];
        let digest = content_digest(&secret);

        // Alice ships her payload inline: resident in the shared store
        // and hit-authorized for *her* session only.
        let mut alice = Driver::new(&mgr, PathCosts::local_grpc());
        let a_ctx = alice.handle(Request::CreateContext);
        let a_buf = alice.handle(Request::CreateBuffer {
            context: a_ctx,
            len: 64,
        });
        let a_queue = alice.handle(Request::CreateQueue { context: a_ctx });
        let wt = alice.send(Request::EnqueueWrite {
            queue: a_queue,
            buffer: a_buf,
            offset: 0,
            data: DataRef::Inline(secret.clone().into()),
        });
        assert!(matches!(alice.wait_tag(wt), Response::Enqueued));

        // Mallory guessed the (low-entropy) content and probes its digest
        // without ever shipping the bytes: the manager must answer
        // exactly like a miss.
        let mut mallory = Driver::new(&mgr, PathCosts::local_grpc());
        let m_ctx = mallory.handle(Request::CreateContext);
        let m_buf = mallory.handle(Request::CreateBuffer {
            context: m_ctx,
            len: 64,
        });
        let m_queue = mallory.handle(Request::CreateQueue { context: m_ctx });
        let probe = mallory.send(Request::EnqueueWrite {
            queue: m_queue,
            buffer: m_buf,
            offset: 0,
            data: DataRef::Digest { digest, len: 64 },
        });
        match mallory.wait_tag(probe) {
            Response::Error {
                code: ErrorCode::CacheMiss,
                ..
            } => {}
            other => panic!("digest probe must NACK as CacheMiss, got {other:?}"),
        }

        // Alice's own digest reference still hits — authorization is
        // per-session, not a cache disable.
        let hit = alice.send(Request::EnqueueWrite {
            queue: a_queue,
            buffer: a_buf,
            offset: 0,
            data: DataRef::Digest { digest, len: 64 },
        });
        assert!(matches!(alice.wait_tag(hit), Response::Enqueued));

        // Once Mallory ships the same bytes herself she is authorized too
        // (storage stays deduplicated; authorization follows possession).
        let m_inline = mallory.send(Request::EnqueueWrite {
            queue: m_queue,
            buffer: m_buf,
            offset: 0,
            data: DataRef::Inline(secret.clone().into()),
        });
        assert!(matches!(mallory.wait_tag(m_inline), Response::Enqueued));
        let m_hit = mallory.send(Request::EnqueueWrite {
            queue: m_queue,
            buffer: m_buf,
            offset: 0,
            data: DataRef::Digest { digest, len: 64 },
        });
        assert!(matches!(mallory.wait_tag(m_hit), Response::Enqueued));
    }

    /// Aliasing safety end-to-end: the client keeps a reference to the
    /// payload it enqueued; the kernel's in-place mutation on the device
    /// must land in a private (copy-on-write) buffer, so the client's
    /// aliased bytes never change while the read still sees the mutation.
    #[test]
    fn kernel_mutation_does_not_corrupt_the_clients_payload() {
        let mgr = manager(ReconfigPolicy::Allow);
        let mut d = Driver::new(&mgr, PathCosts::local_grpc());
        let (_ctx, kernel, buf, queue) = setup_pipeline(&mut d);

        let payload: Payload = vec![7u8; 8].into();
        let wt = d.send(Request::EnqueueWrite {
            queue,
            buffer: buf,
            offset: 0,
            data: DataRef::Inline(payload.share()),
        });
        let kt = d.send(Request::EnqueueKernel {
            queue,
            kernel,
            work: [8, 1, 1],
        });
        let rt = d.send(Request::EnqueueRead {
            queue,
            buffer: buf,
            offset: 0,
            len: 8,
        });
        let ft = d.send(Request::Finish { queue });
        let _ = d.wait_tag(wt);
        let _ = d.wait_tag(kt);
        loop {
            let resp = d.recv();
            if resp.tag == rt {
                if let Response::Completed {
                    data: Some(DataRef::Inline(bytes)),
                    ..
                } = resp.body
                {
                    assert_eq!(bytes, vec![8u8; 8], "read sees the mutation");
                    break;
                }
            }
        }
        assert!(matches!(d.wait_tag(ft), Response::Completed { .. }));
        assert_eq!(payload, vec![7u8; 8], "client's aliased buffer untouched");
    }

    #[test]
    fn shm_data_path_round_trip() {
        let mgr = manager(ReconfigPolicy::Allow);
        let mut d = Driver::new(&mgr, PathCosts::local_shm());
        let shm = d.endpoint.shm.clone().expect("shm granted");
        let (_ctx, kernel, buf, queue) = setup_pipeline(&mut d);

        // Client stages the write payload in shared memory (the 1 copy).
        let region = shm.alloc(8).expect("shm alloc");
        shm.write(region, &[5; 8]).expect("shm write");
        d.send(Request::EnqueueWrite {
            queue,
            buffer: buf,
            offset: 0,
            data: DataRef::Shm {
                offset: region,
                len: 8,
            },
        });
        d.send(Request::EnqueueKernel {
            queue,
            kernel,
            work: [8, 1, 1],
        });
        let rt = d.send(Request::EnqueueRead {
            queue,
            buffer: buf,
            offset: 0,
            len: 8,
        });
        d.send(Request::Finish { queue });
        loop {
            let resp = d.recv();
            if resp.tag == rt {
                if let Response::Completed {
                    data: Some(DataRef::Shm { offset, len }),
                    ..
                } = resp.body
                {
                    assert_eq!(shm.read(offset, len).expect("shm read"), vec![6; 8]);
                    shm.free(offset).expect("free result region");
                    break;
                }
            }
        }
        shm.free(region).expect("free write region");
    }

    #[test]
    fn sessions_are_isolated() {
        let mgr = manager(ReconfigPolicy::Allow);
        let mut alice = Driver::new(&mgr, PathCosts::local_grpc());
        let mut mallory = Driver::new(&mgr, PathCosts::local_grpc());
        let actx = alice.handle(Request::CreateContext);
        let abuf = alice.handle(Request::CreateBuffer {
            context: actx,
            len: 16,
        });
        let mctx = mallory.handle(Request::CreateContext);
        let mqueue = mallory.handle(Request::CreateQueue { context: mctx });
        // Mallory guesses Alice's buffer handle value: denied, because
        // handles are session-scoped.
        let resp = mallory.call(Request::EnqueueWrite {
            queue: mqueue,
            buffer: abuf,
            offset: 0,
            data: DataRef::Synthetic(16),
        });
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::AccessDenied,
                    ..
                }
            ),
            "got {resp:?}"
        );
        let resp = mallory.call(Request::ReleaseBuffer { buffer: abuf });
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::AccessDenied,
                ..
            }
        ));
    }

    #[test]
    fn reconfiguration_policy_is_enforced() {
        let mgr = manager(ReconfigPolicy::Deny);
        let mut d = Driver::new(&mgr, PathCosts::local_grpc());
        let _ctx = d.handle(Request::CreateContext);
        let resp = d.call(Request::BuildProgram {
            bitstream: "incr".into(),
        });
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::ReconfigurationRefused,
                    ..
                }
            ),
            "got {resp:?}"
        );

        let validated = manager(ReconfigPolicy::Validate(Arc::new(
            |req: &ReconfigRequest| req.bitstream == "incr",
        )));
        let mut d = Driver::new(&validated, PathCosts::local_grpc());
        let _ctx = d.handle(Request::CreateContext);
        let _prog = d.handle(Request::BuildProgram {
            bitstream: "incr".into(),
        });
        let resp = d.call(Request::Reconfigure {
            bitstream: "other".into(),
        });
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::ReconfigurationRefused,
                ..
            }
        ));
    }

    #[test]
    fn finish_waits_for_prior_tasks() {
        let mgr = manager(ReconfigPolicy::Allow);
        let mut d = Driver::new(&mgr, PathCosts::local_grpc());
        let ctx = d.handle(Request::CreateContext);
        let buf = d.handle(Request::CreateBuffer {
            context: ctx,
            len: 1 << 20,
        });
        let queue = d.handle(Request::CreateQueue { context: ctx });
        let wt = d.send(Request::EnqueueWrite {
            queue,
            buffer: buf,
            offset: 0,
            data: DataRef::Synthetic(1 << 20),
        });
        let _ = d.send(Request::Flush { queue });
        let ft = d.send(Request::Finish { queue });
        // The finish completion must come after (and not before) the write's.
        let mut write_done: Option<VirtualTime> = None;
        loop {
            let resp = d.recv();
            if resp.tag == wt {
                if let Response::Completed { ended_at, .. } = resp.body {
                    write_done = Some(ended_at);
                }
            } else if resp.tag == ft {
                if let Response::Completed { ended_at, .. } = resp.body {
                    let wd = write_done.expect("write completed before finish");
                    assert!(ended_at >= wd);
                    break;
                }
            }
        }
    }

    #[test]
    fn utilization_is_attributed_per_function() {
        let mgr = manager(ReconfigPolicy::Allow);
        let mut d = Driver::new(&mgr, PathCosts::local_grpc());
        let ctx = d.handle(Request::CreateContext);
        let buf = d.handle(Request::CreateBuffer {
            context: ctx,
            len: 1 << 20,
        });
        let queue = d.handle(Request::CreateQueue { context: ctx });
        d.send(Request::EnqueueWrite {
            queue,
            buffer: buf,
            offset: 0,
            data: DataRef::Synthetic(1 << 20),
        });
        let ft = d.send(Request::Finish { queue });
        loop {
            let resp = d.recv();
            if resp.tag == ft && matches!(resp.body, Response::Completed { .. }) {
                break;
            }
        }
        let board = mgr.board().lock();
        assert!(board.busy_tracker().busy_of("test-fn") > VirtualDuration::ZERO);
        drop(board);
        let scrape = mgr.scrape();
        assert!(
            scrape.contains("bf_fpga_utilization{device=\"fpga-test\"}"),
            "{scrape}"
        );
    }

    #[test]
    fn per_op_series_appear_at_first_use_and_count_every_op() {
        let mgr = manager(ReconfigPolicy::Allow);
        let fresh = mgr.scrape();
        assert!(!fresh.contains("bf_manager_op"), "{fresh}");
        assert!(!fresh.contains("bf_manager_tasks_total"), "{fresh}");
        let mut d = Driver::new(&mgr, PathCosts::local_grpc());
        let ctx = d.handle(Request::CreateContext);
        let buf = d.handle(Request::CreateBuffer {
            context: ctx,
            len: 4096,
        });
        let queue = d.handle(Request::CreateQueue { context: ctx });
        for _ in 0..3 {
            d.send(Request::EnqueueWrite {
                queue,
                buffer: buf,
                offset: 0,
                data: DataRef::Synthetic(4096),
            });
        }
        let ft = d.send(Request::Finish { queue });
        loop {
            let resp = d.recv();
            if resp.tag == ft && matches!(resp.body, Response::Completed { .. }) {
                break;
            }
        }
        let scrape = mgr.scrape();
        let value = |series: &str| {
            scrape
                .lines()
                .find_map(|l| l.strip_prefix(series))
                .and_then(|v| v.trim().parse::<f64>().ok())
        };
        let device = "{device=\"fpga-test\"}";
        let series = |name: &str| value(&format!("{name}{device}"));
        assert_eq!(series("bf_manager_ops_total"), Some(3.0), "{scrape}");
        assert_eq!(
            series("bf_manager_op_latency_ms_count"),
            Some(3.0),
            "{scrape}"
        );
        assert_eq!(series("bf_manager_tasks_total"), Some(1.0), "{scrape}");
    }

    #[test]
    fn cross_node_connections_never_get_shm() {
        let mgr = manager(ReconfigPolicy::Allow);
        let endpoint = mgr.connect("far-away", PathCosts::remote_grpc());
        assert!(endpoint.shm.is_none());
        assert_eq!(endpoint.node, *node_b().id());
        assert_ne!(endpoint.node, *node_a().id());
    }

    #[test]
    fn disconnect_frees_resources() {
        let mgr = manager(ReconfigPolicy::Allow);
        let used_before = { mgr.board().lock().memory().used() };
        let mut d = Driver::new(&mgr, PathCosts::local_grpc());
        let ctx = d.handle(Request::CreateContext);
        let _buf = d.handle(Request::CreateBuffer {
            context: ctx,
            len: 1 << 20,
        });
        assert!(mgr.board().lock().memory().used() > used_before);
        let _ = d.call(Request::Disconnect);
        // The session thread frees the buffers on exit.
        for _ in 0..100 {
            if mgr.board().lock().memory().used() == used_before {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("buffers were not freed after disconnect");
    }

    #[test]
    fn tasks_from_two_clients_do_not_interleave() {
        // Two clients each submit a write→kernel→read task against their
        // own buffer; because tasks are atomic, each read must observe its
        // own kernel result (data = own_written + 1).
        let mgr = manager(ReconfigPolicy::Allow);
        let mut handles = Vec::new();
        for val in [10u8, 20u8] {
            let mgr = mgr.clone();
            handles.push(std::thread::spawn(move || {
                let mut d = Driver::new(&mgr, PathCosts::local_grpc());
                let (_ctx, kernel, buf, queue) = setup_pipeline(&mut d);
                for _round in 0..10 {
                    d.send(Request::EnqueueWrite {
                        queue,
                        buffer: buf,
                        offset: 0,
                        data: DataRef::Inline(vec![val; 8].into()),
                    });
                    d.send(Request::EnqueueKernel {
                        queue,
                        kernel,
                        work: [8, 1, 1],
                    });
                    let rt = d.send(Request::EnqueueRead {
                        queue,
                        buffer: buf,
                        offset: 0,
                        len: 8,
                    });
                    d.send(Request::Finish { queue });
                    loop {
                        let resp = d.recv();
                        if resp.tag == rt {
                            match resp.body {
                                Response::Completed {
                                    data: Some(DataRef::Inline(bytes)),
                                    ..
                                } => {
                                    assert_eq!(bytes, vec![val + 1; 8]);
                                    break;
                                }
                                Response::Enqueued => {} // FIRST ack; keep waiting
                                other => panic!("unexpected read response {other:?}"),
                            }
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("client thread");
        }
    }

    #[test]
    fn eight_clients_hammering_one_board_stay_isolated() {
        // Stress: 8 concurrent sessions, each looping write->kernel->read
        // against its own buffer with its own distinctive value; every
        // read must return that client's own (incremented) data.
        let mgr = manager(ReconfigPolicy::Allow);
        let mut handles = Vec::new();
        for client in 0..8u8 {
            let mgr = mgr.clone();
            handles.push(std::thread::spawn(move || {
                let costs = if client % 2 == 0 {
                    PathCosts::local_shm()
                } else {
                    PathCosts::local_grpc()
                };
                let mut d = Driver::new(&mgr, costs);
                let (_ctx, kernel, buf, queue) = setup_pipeline(&mut d);
                for round in 0..25u8 {
                    let val = client.wrapping_mul(31).wrapping_add(round);
                    d.send(Request::EnqueueWrite {
                        queue,
                        buffer: buf,
                        offset: 0,
                        data: DataRef::Inline(vec![val; 8].into()),
                    });
                    d.send(Request::EnqueueKernel {
                        queue,
                        kernel,
                        work: [8, 1, 1],
                    });
                    let rt = d.send(Request::EnqueueRead {
                        queue,
                        buffer: buf,
                        offset: 0,
                        len: 8,
                    });
                    d.send(Request::Finish { queue });
                    loop {
                        let resp = d.recv();
                        if resp.tag != rt {
                            continue;
                        }
                        match resp.body {
                            Response::Completed {
                                data: Some(data), ..
                            } => {
                                let bytes = match data {
                                    DataRef::Inline(b) => b.into_vec(),
                                    DataRef::Shm { offset, len } => {
                                        let shm = d.endpoint.shm.as_ref().expect("shm endpoint");
                                        let b = shm.read(offset, len).expect("shm read");
                                        shm.free(offset).expect("free");
                                        b.to_vec()
                                    }
                                    DataRef::Synthetic(_) | DataRef::Digest { .. } => {
                                        panic!("real data expected")
                                    }
                                };
                                assert_eq!(
                                    bytes,
                                    vec![val.wrapping_add(1); 8],
                                    "client {client} round {round} saw foreign data"
                                );
                                break;
                            }
                            Response::Enqueued => {}
                            other => panic!("unexpected response {other:?}"),
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("client thread");
        }
        // All 8 x 25 tasks (plus fences) drained through one board without
        // a wedge; utilization is attributed to all eight tenants.
        let board = mgr.board().lock();
        assert_eq!(
            board.busy_tracker().owners().count(),
            1,
            "same owner label per connect name"
        );
    }

    /// Regression: the kernel-argument index arrives on the wire and
    /// argument slots materialize positionally at launch (`0..=max`), so
    /// an unchecked `u32::MAX` bought four billion iterations of
    /// launch-time work for one frame. The session must reject the index
    /// at the trust boundary, before it is stored.
    #[test]
    fn wire_kernel_arg_index_is_capped_at_the_trust_boundary() {
        let mut d = Driver::new(&manager(ReconfigPolicy::Allow), PathCosts::local_grpc());
        let (_ctx, kernel, buf, queue) = setup_pipeline(&mut d);
        for index in [bf_fpga::MAX_KERNEL_ARGS, u32::MAX] {
            match d.call(Request::SetKernelArg {
                kernel,
                index,
                arg: bf_rpc::WireArg::U32(1),
            }) {
                Response::Error { code, message } => {
                    assert_eq!(code, ErrorCode::InvalidLaunch, "index {index}");
                    assert!(message.contains("exceeds"), "index {index}: {message}");
                }
                other => panic!("index {index} accepted: {other:?}"),
            }
        }
        // The highest legal index is still accepted, and the session
        // stays usable after the NACKs: a launch with the original
        // argument binding completes.
        assert!(matches!(
            d.call(Request::SetKernelArg {
                kernel,
                index: bf_fpga::MAX_KERNEL_ARGS - 1,
                arg: bf_rpc::WireArg::U32(1),
            }),
            Response::Ack
        ));
        let _ = buf;
        let _ = queue;
    }

    #[test]
    fn client_id_display() {
        assert_eq!(ClientId(4).to_string(), "client#4");
    }
}

#[cfg(test)]
mod proptests {
    use std::sync::Arc;

    use bf_fpga::{Bitstream, Board, BoardSpec};
    use bf_model::{node_b, PcieGeneration, PcieLink, VirtualTime};
    use bf_ocl::BitstreamCatalog;
    use bf_rpc::{DataRef, PathCosts, Request, RequestEnvelope, WireArg};
    use parking_lot::Mutex;
    use proptest::prelude::*;

    use super::*;

    /// Arbitrary protocol requests: handle values are drawn from a small
    /// range so some hit real session handles and some are garbage.
    fn arb_request() -> impl Strategy<Value = Request> {
        let handle = 0u64..12;
        prop_oneof![
            Just(Request::CreateContext),
            Just(Request::GetDeviceInfo),
            prop_oneof![Just("fuzz-image".to_string()), Just("missing".to_string())]
                .prop_map(|bitstream| Request::BuildProgram { bitstream }),
            (
                handle.clone(),
                prop_oneof![Just("k".to_string()), Just("nope".to_string())]
            )
                .prop_map(|(program, name)| Request::CreateKernel { program, name }),
            (handle.clone(), 0u32..4, any::<u32>()).prop_map(|(kernel, index, v)| {
                Request::SetKernelArg {
                    kernel,
                    index,
                    arg: WireArg::U32(v),
                }
            }),
            (handle.clone(), 1u64..4096)
                .prop_map(|(context, len)| Request::CreateBuffer { context, len }),
            handle
                .clone()
                .prop_map(|buffer| Request::ReleaseBuffer { buffer }),
            handle
                .clone()
                .prop_map(|context| Request::CreateQueue { context }),
            (handle.clone(), handle.clone(), 0u64..64, 0u64..256).prop_map(
                |(queue, buffer, offset, len)| Request::EnqueueWrite {
                    queue,
                    buffer,
                    offset,
                    data: DataRef::Synthetic(len),
                }
            ),
            (handle.clone(), handle.clone(), 0u64..64, 0u64..256).prop_map(
                |(queue, buffer, offset, len)| Request::EnqueueRead {
                    queue,
                    buffer,
                    offset,
                    len
                }
            ),
            (handle.clone(), handle.clone()).prop_map(|(queue, kernel)| {
                Request::EnqueueKernel {
                    queue,
                    kernel,
                    work: [4, 1, 1],
                }
            }),
            (
                handle.clone(),
                handle.clone(),
                handle.clone(),
                0u64..64,
                0u64..64,
                0u64..128
            )
                .prop_map(|(queue, src, dst, src_offset, dst_offset, len)| {
                    Request::EnqueueCopy {
                        queue,
                        src,
                        dst,
                        src_offset,
                        dst_offset,
                        len,
                    }
                }),
            handle.clone().prop_map(|queue| Request::Flush { queue }),
            handle.prop_map(|queue| Request::Finish { queue }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Whatever (possibly nonsensical) request sequence a client sends,
        /// the manager never crashes, never wedges, and answers every tag
        /// with at least one response.
        #[test]
        fn manager_survives_arbitrary_request_sequences(
            requests in proptest::collection::vec(arb_request(), 1..40),
        ) {
            let board = Arc::new(Mutex::new(Board::new(
                BoardSpec::de5a_net(),
                PcieLink::new(PcieGeneration::Gen3, 8),
            )));
            let mut catalog = BitstreamCatalog::new();
            catalog.register(Arc::new(Bitstream::new("fuzz-image", vec![])));
            let manager = DeviceManager::new(
                DeviceManagerConfig::standalone("fpga-fuzz"),
                node_b(),
                board,
                catalog,
            );
            let endpoint = manager.connect("fuzzer", PathCosts::local_grpc());
            let total = requests.len() as u64;
            for (i, body) in requests.into_iter().enumerate() {
                endpoint
                    .channel
                    .send(&RequestEnvelope {
                        tag: i as u64 + 1,
                        client: endpoint.client,
                        sent_at: VirtualTime::ZERO,
                        body,
                    })
                    .expect("send");
            }
            // Every tag must be answered at least once (sync response or
            // the Enqueued ack of a command-queue method).
            let mut answered = std::collections::HashSet::new();
            while answered.len() < total as usize {
                let resp = endpoint
                    .channel
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .expect("manager answered every tag");
                prop_assert!(resp.tag >= 1 && resp.tag <= total, "unknown tag {}", resp.tag);
                answered.insert(resp.tag);
            }
        }
    }
}
