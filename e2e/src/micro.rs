//! Isolated timings of single layers, by calling their public functions
//! directly. None depends on the workload; each names the end-to-end
//! metric it should move in `BENCHMARK.json` and the README.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Duration;

use bf_cache::{content_digest, PayloadCache};
use bf_metrics::MetricsRegistry;
use bf_model::{VirtualClock, VirtualTime};
use bf_registry::{allocate, AllocationPolicy, DeviceQuery};
use bf_remote::RemoteBackend;
use bf_rpc::{
    duplex, ClientId, DataRef, PollEvent, Poller, PollerStats, Request, RequestEnvelope, Response,
    ResponseEnvelope, ShmSegment, WireDecode, WireEncode,
};
use bytes::Bytes;

use crate::clock;
use crate::gen;
use crate::placement::{self, PlacementRig};
use crate::rig;
use crate::script::{ConnPlan, Inputs, KernelPlan, KernelRung, Path, Rung, Step};
use crate::stats;
use crate::trace::Tracer;

/// Median microseconds per call of `f`, timing batches of `batch` calls
/// for about `budget` (at least five batches).
fn per_call_us(budget: Duration, batch: u32, mut f: impl FnMut()) -> f64 {
    let end = clock::now().plus(budget);
    let mut per_call = Vec::new();
    while per_call.len() < 5 || !end.passed() {
        let start = clock::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(clock::micros(start.elapsed()) / f64::from(batch));
    }
    stats::median(&per_call).unwrap_or(0.0)
}

fn bytes_of(seed: u64, len: usize) -> Bytes {
    match gen::blobs(seed, len, 1).pop() {
        Some(bf_fpga::Payload::Data(bytes)) => bytes,
        _ => Bytes::new(),
    }
}

fn codec(out: &mut BTreeMap<String, f64>, seed: u64, budget: Duration) {
    for (suffix, len, batch) in [
        ("4k", 4 << 10, 200),
        ("64k", 64 << 10, 40),
        ("4m", 4 << 20, 2),
    ] {
        let envelope = RequestEnvelope {
            tag: 1,
            client: ClientId(1),
            sent_at: VirtualTime::ZERO,
            body: Request::EnqueueWrite {
                queue: 1,
                buffer: 1,
                offset: 0,
                data: DataRef::Inline(bytes_of(seed, len).into()),
            },
        };
        let frame = envelope.to_bytes();
        out.insert(
            format!("rpc.codec.encode_us.{suffix}"),
            per_call_us(budget, batch, || {
                black_box(black_box(&envelope).to_bytes());
            }),
        );
        out.insert(
            format!("rpc.codec.decode_us.{suffix}"),
            per_call_us(budget, batch, || {
                black_box(RequestEnvelope::from_bytes(black_box(&frame).clone()).is_ok());
            }),
        );
    }
}

/// Key of the one value here that is not a named metric: what the CPU
/// budget charges the transport for each frame of a request.
pub const CPU_US_PER_FRAME: &str = "transport.cpu_us_per_frame";

/// An echo server on its own `duplex` + `Poller`, as the manager's event
/// loop and the remote library's reactor are built.
fn transport(out: &mut BTreeMap<String, f64>, budget: Duration) -> Result<(), String> {
    let (client, server) = duplex();
    let echo = std::thread::spawn(move || -> PollerStats {
        let mut poller = Poller::new();
        poller.register(server.requests());
        loop {
            if let PollEvent::TimedOut = poller.poll(Some(Duration::from_millis(200))) {
                continue;
            }
            loop {
                match server.try_recv() {
                    Ok(Some(env)) => {
                        let ack = ResponseEnvelope {
                            tag: env.tag,
                            sent_at: env.sent_at,
                            body: Response::Ack,
                        };
                        if server.send(&ack).is_err() {
                            return poller.stats();
                        }
                    }
                    Ok(None) => break,
                    Err(_) => return poller.stats(),
                }
            }
        }
    });
    let sent = std::cell::Cell::new(0u64);
    let send = |client: &bf_rpc::ClientChannel| {
        sent.set(sent.get() + 1);
        client.send(&RequestEnvelope {
            tag: sent.get(),
            client: ClientId(1),
            sent_at: VirtualTime::ZERO,
            body: Request::GetDeviceInfo,
        })
    };
    let mut failed = false;
    let rtt = per_call_us(budget, 50, || {
        failed |= send(&client).is_err() || client.recv().is_err();
    });
    // Pipelined: bursts well under the queue depth, so neither side ever
    // meets backpressure and the poller sees several frames per wake.
    // It runs eight budgets long: process CPU time ticks in 10 ms.
    const BURST: u32 = 64;
    let cpu_start = clock::process_cpu_ms().unwrap_or(0.0);
    let sent_before = sent.get();
    let per_frame = per_call_us(budget * 8, 1, || {
        for _ in 0..BURST {
            failed |= send(&client).is_err();
        }
        for _ in 0..BURST {
            failed |= client.recv().is_err();
        }
    }) / f64::from(BURST);
    let cpu_us = (clock::process_cpu_ms().unwrap_or(0.0) - cpu_start) * 1e3;
    // Both threads' CPU, per frame, a request and its response being two.
    out.insert(
        CPU_US_PER_FRAME.to_string(),
        cpu_us / (2 * (sent.get() - sent_before)).max(1) as f64,
    );
    drop(client);
    let stats = echo.join().map_err(|_| "echo server panicked")?;
    if failed {
        return Err("transport echo failed".to_string());
    }
    out.insert("rpc.transport.frame_rtt_us".to_string(), rtt);
    out.insert("rpc.transport.frames_per_s".to_string(), 1e6 / per_frame);
    out.insert(
        "rpc.poller.polls_per_frame".to_string(),
        stats.polls as f64 / sent.get() as f64,
    );
    out.insert(
        "rpc.poller.slots_per_poll".to_string(),
        stats.slots_scanned as f64 / stats.polls.max(1) as f64,
    );
    Ok(())
}

fn shm(out: &mut BTreeMap<String, f64>, seed: u64, budget: Duration) -> Result<(), String> {
    let segment = ShmSegment::new(512 << 20);
    for (suffix, len) in [("300k", 300 << 10), ("4m", 4 << 20)] {
        let bytes = bytes_of(seed, len);
        let mut failed = false;
        let us = per_call_us(budget, 50, || {
            let cycle = || -> Result<(), bf_rpc::ShmError> {
                let offset = segment.alloc(len as u64)?;
                segment.write_bytes(offset, bytes.clone())?;
                black_box(segment.read(offset, len as u64)?);
                segment.free(offset)
            };
            failed |= cycle().is_err();
        });
        if failed {
            return Err("shm cycle failed".to_string());
        }
        out.insert(format!("rpc.shm.cycle_us.{suffix}"), us);
    }
    Ok(())
}

fn manager_and_remote(out: &mut BTreeMap<String, f64>, budget: Duration) -> Result<(), String> {
    let manager = rig::manager(0);
    let mut failed = false;
    out.insert(
        "devmgr.connect_us".to_string(),
        per_call_us(budget, 1, || {
            black_box(manager.connect("probe", Path::Grpc.costs()));
        }),
    );
    out.insert(
        "remote.connect_us".to_string(),
        per_call_us(budget, 1, || {
            failed |= rig::connect(&manager, "probe", Path::Grpc).is_err();
        }),
    );
    let endpoint = manager.connect("probe", Path::Grpc.costs());
    let backend =
        RemoteBackend::connect(endpoint, VirtualClock::new()).map_err(|e| e.to_string())?;
    out.insert(
        "remote.sync_call_us".to_string(),
        per_call_us(budget, 20, || {
            failed |= backend
                .connection()
                .call(Request::GetDeviceInfo, VirtualTime::ZERO)
                .is_err();
        }),
    );
    out.insert(
        "devmgr.scrape_us".to_string(),
        per_call_us(budget, 5, || {
            black_box(manager.scrape());
        }),
    );
    if failed {
        return Err("manager probe failed".to_string());
    }
    Ok(())
}

fn board_and_kernels(
    out: &mut BTreeMap<String, f64>,
    seed: u64,
    budget: Duration,
) -> Result<(), String> {
    let mut board = rig::bare_board();
    let mut failed = false;
    out.insert(
        "fpga.alloc_free_us".to_string(),
        per_call_us(budget, 100, || match board.alloc_buffer(300 << 10) {
            Ok(id) => failed |= board.free_buffer(id).is_err(),
            Err(_) => failed = true,
        }),
    );
    if failed {
        return Err("board alloc/free failed".to_string());
    }
    for (suffix, width, height) in [("320x240", 320, 240), ("64x64", 64, 64)] {
        let plan = ConnPlan {
            path: Path::Shm,
            buffers: vec![bf_workloads::sobel::frame_bytes(width, height); 2],
            kernels: vec![KernelPlan {
                input: 0,
                output: 1,
                width,
                height,
            }],
        };
        let inputs = Inputs {
            payloads: vec![gen::frames(seed, width, height, 1).remove(0).input],
            outputs: Vec::new(),
        };
        let mut rung = KernelRung::deploy(std::slice::from_ref(&plan), &inputs)?;
        let launch = [Step::Launch { conn: 0, kernel: 0 }];
        let mut quiet = Tracer::new(false, clock::now());
        let mut failed = false;
        let us = per_call_us(budget, 4, || {
            failed |= rung.run(&launch, &inputs, &mut quiet).is_err();
        });
        if failed {
            return Err("kernel body failed".to_string());
        }
        out.insert(format!("workloads.sobel_kernel_us.{suffix}"), us);
    }
    Ok(())
}

fn cache(out: &mut BTreeMap<String, f64>, seed: u64, budget: Duration) {
    const LEN: usize = 64 << 10;
    let bytes = bytes_of(seed, LEN);
    let digest_us = per_call_us(budget, 20, || {
        black_box(content_digest(black_box(&bytes)));
    });
    out.insert("cache.digest_us.64k".to_string(), digest_us);
    out.insert("cache.digest_mb_s".to_string(), LEN as f64 / digest_us);
    // The workload's budget, 96 entries, kept full so inserts evict.
    let host = PayloadCache::new(96 * LEN as u64);
    let mut next = 0u128;
    let insert_us = per_call_us(budget, 100, || {
        next += 1;
        black_box(host.insert(next, bytes.clone()));
    });
    let resident = next;
    let get_us = per_call_us(budget, 100, || {
        black_box(host.get(black_box(resident)));
    });
    out.insert("cache.host_insert_us".to_string(), insert_us);
    out.insert("cache.host_get_us".to_string(), get_us);
}

fn registry(out: &mut BTreeMap<String, f64>, seed: u64, budget: Duration) -> Result<(), String> {
    for (suffix, shards) in [("s16", placement::SHARDS), ("s1", 1)] {
        let rig = PlacementRig::deploy(seed, shards);
        let service = rig.service().clone();
        let mut stream = gen::ZipfStream::new(seed, 1, placement::FUNCTIONS);
        let (mut place, mut release) = (Vec::new(), Vec::new());
        let mut failed = false;
        let end = clock::now().plus(budget);
        // Place 64, release the same 64: the tables stay small and the
        // two costs are timed apart.
        while !end.passed() || place.is_empty() {
            let names: Vec<String> = (0..64).map(|i| format!("probe-{i}")).collect();
            for name in &names {
                let function = placement::function(stream.next_rank());
                let start = clock::now();
                failed |= service.place_instance(name, &function).is_err();
                place.push(clock::micros(start.elapsed()));
            }
            for name in &names {
                let start = clock::now();
                service.release_instance(name);
                release.push(clock::micros(start.elapsed()));
            }
        }
        if failed {
            return Err(format!("placement over {shards} shards failed"));
        }
        out.insert(
            format!("registry.place_us.{suffix}"),
            stats::median(&place).unwrap_or(0.0),
        );
        if shards != 1 {
            out.insert(
                "registry.release_us".to_string(),
                stats::median(&release).unwrap_or(0.0),
            );
            continue;
        }
        // The rest on the single registry: one lock, one device table.
        out.insert(
            "registry.device_views_us".to_string(),
            per_call_us(budget, 1, || {
                black_box(service.device_views());
            }),
        );
        out.insert(
            "registry.gather_metrics_us".to_string(),
            per_call_us(budget, 1, || service.gather_metrics()),
        );
        let views = service.device_views();
        let policy = AllocationPolicy::paper();
        let query = DeviceQuery::for_accelerator(placement::accelerator(0));
        for n in [63, 1000] {
            let mut failed = false;
            let us = per_call_us(budget, 4, || {
                failed |= allocate(&query, &views[..n.min(views.len())], &policy).is_err();
            });
            if failed {
                return Err(format!("bare allocate over {n} devices failed"));
            }
            out.insert(format!("registry.allocate_us.{n}"), us);
        }
    }
    Ok(())
}

fn metrics(out: &mut BTreeMap<String, f64>, budget: Duration) {
    let registry = MetricsRegistry::new();
    // A manager-sized registry: a handful of devices' series.
    for device in ["fpga-a", "fpga-b", "fpga-c", "fpga-d"] {
        let labels = [("device", device)];
        registry.counter("bf_manager_ops_total", &labels).inc();
        registry.counter("bf_manager_tasks_total", &labels).inc();
        registry.gauge("bf_fpga_utilization", &labels).set(0.5);
        registry.gauge("bf_fpga_busy_seconds", &labels).set(1.0);
        registry
            .histogram("bf_manager_op_latency_ms", &labels)
            .observe(0.2);
    }
    // Looked up by name and labels on every use, as the manager's worker
    // does per operation.
    let labels = [("device", "fpga-b")];
    out.insert(
        "metrics.counter_inc_ns".to_string(),
        1e3 * per_call_us(budget, 1000, || {
            registry.counter("bf_manager_ops_total", &labels).inc();
        }),
    );
    out.insert(
        "metrics.histogram_observe_ns".to_string(),
        1e3 * per_call_us(budget, 1000, || {
            registry
                .histogram("bf_manager_op_latency_ms", &labels)
                .observe(black_box(0.2));
        }),
    );
    out.insert(
        "metrics.scrape_us".to_string(),
        per_call_us(budget, 10, || {
            black_box(registry.scrape());
        }),
    );
}

/// Runs every isolated timing, `budget` each.
pub fn run(seed: u64, budget: Duration) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    codec(&mut out, seed, budget);
    transport(&mut out, budget)?;
    shm(&mut out, seed, budget)?;
    manager_and_remote(&mut out, budget)?;
    board_and_kernels(&mut out, seed, budget)?;
    cache(&mut out, seed, budget);
    registry(&mut out, seed, budget)?;
    metrics(&mut out, budget);
    Ok(out)
}
