//! Criterion microbenches of the substrate hot paths: wire codec,
//! shared-memory segment, the payload cache's content digest, the
//! allocation algorithm, and the DES engine.

use std::collections::HashMap;

use bf_model::{NodeId, VirtualDuration, VirtualTime};
use bf_registry::{allocate, AllocationPolicy, DeviceQuery, DeviceView};
use bf_rpc::{ClientId, DataRef, Request, RequestEnvelope, ShmSegment, WireDecode, WireEncode};
use bf_simkit::Engine;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("rpc_codec");
    for payload in [64usize, 4096, 65536] {
        let env = RequestEnvelope {
            tag: 42,
            client: ClientId(7),
            sent_at: VirtualTime::from_nanos(123_456_789),
            body: Request::EnqueueWrite {
                queue: 3,
                buffer: 9,
                offset: 128,
                data: DataRef::Inline(vec![0xA5; payload].into()),
            },
        };
        group.bench_with_input(BenchmarkId::new("encode", payload), &env, |b, env| {
            b.iter(|| env.to_bytes())
        });
        let bytes = env.to_bytes();
        group.bench_with_input(BenchmarkId::new("decode", payload), &bytes, |b, bytes| {
            b.iter(|| RequestEnvelope::from_bytes(bytes.clone()).expect("decode"))
        });
    }
    group.finish();
}

fn bench_shm(c: &mut Criterion) {
    c.bench_function("shm_alloc_write_read_free_4k", |b| {
        let shm = ShmSegment::new(1 << 20);
        let data = vec![7u8; 4096];
        b.iter(|| {
            let region = shm.alloc(4096).expect("alloc");
            shm.write(region, &data).expect("write");
            let out = shm.read(region, 4096).expect("read");
            shm.free(region).expect("free");
            out
        })
    });
}

fn bench_content_digest(c: &mut Criterion) {
    // The sizes the data path hashes: a small-op payload, cache_zipf's
    // 64 KB inputs, and a bulk 4 MB transfer.
    let mut group = c.benchmark_group("content_digest");
    for (name, len) in [("4k", 4usize << 10), ("64k", 64 << 10), ("4m", 4 << 20)] {
        let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        group.bench_with_input(BenchmarkId::from_parameter(name), &payload, |b, payload| {
            b.iter(|| bf_cache::content_digest(payload))
        });
    }
    group.finish();
}

fn bench_allocation(c: &mut Criterion) {
    let mut group = c.benchmark_group("registry_allocate");
    for devices in [3usize, 16, 64] {
        let views: Vec<DeviceView> = (0..devices)
            .map(|i| DeviceView {
                id: format!("fpga-{i}"),
                node: NodeId::new(format!("n{}", i % 3)),
                vendor: "Intel".to_string(),
                platform: "Intel(R) FPGA SDK for OpenCL(TM)".to_string(),
                bitstream: Some(if i % 2 == 0 { "sobel" } else { "mm" }.to_string()),
                connected: (0..i % 5)
                    .map(|j| (format!("f{i}-{j}"), Some("sobel".to_string())))
                    .collect::<HashMap<_, _>>(),
                utilization: (i as f64 * 0.13) % 0.9,
                mean_op_latency_ms: (i as f64 * 1.7) % 20.0,
                pending_reconfiguration: false,
                warm_bitstreams: Vec::new(),
            })
            .collect();
        let query = DeviceQuery::for_accelerator("sobel");
        let policy = AllocationPolicy::paper();
        group.bench_with_input(BenchmarkId::from_parameter(devices), &views, |b, views| {
            b.iter(|| allocate(&query, views, &policy).expect("allocates"))
        });
    }
    group.finish();
}

fn bench_des_engine(c: &mut Criterion) {
    c.bench_function("simkit_engine_100k_events", |b| {
        b.iter(|| {
            let mut engine: Engine<u64> = Engine::new();
            for i in 0..100_000u64 {
                engine.schedule_at(
                    VirtualTime::from_nanos(i * 7919 % 1_000_000),
                    |count: &mut u64, _: &mut Engine<u64>| *count += 1,
                );
            }
            let mut count = 0u64;
            engine.run(&mut count);
            assert_eq!(count, 100_000);
            count
        })
    });
    c.bench_function("simkit_engine_self_scheduling_chain", |b| {
        b.iter(|| {
            let mut engine: Engine<u64> = Engine::new();
            fn step(count: &mut u64, engine: &mut Engine<u64>) {
                *count += 1;
                if *count < 10_000 {
                    engine.schedule_in(VirtualDuration::from_nanos(100), step);
                }
            }
            engine.schedule_at(VirtualTime::ZERO, step);
            let mut count = 0u64;
            engine.run(&mut count);
            count
        })
    });
}

criterion_group!(
    components,
    bench_codec,
    bench_shm,
    bench_content_digest,
    bench_allocation,
    bench_des_engine
);
criterion_main!(components);
