//! Model tests: the real transport / device-manager / shm / payload code
//! driven under the deterministic scheduler.
//!
//! Each test explores every interleaving of its threads (up to the stated
//! preemption bound) and asserts an invariant that must hold on *all*
//! schedules — plus one seeded-bug fixture proving the checker catches the
//! class of defect the invariant guards against. The explored-schedule
//! count is printed so CI logs show the coverage each run bought.

#![cfg(feature = "model")]

use std::sync::Arc;
use std::time::Duration;

use bf_race::sync::channel::{bounded, ChannelError};
use bf_race::sync::{Condvar, Mutex};
use bf_race::{explore, explore_with, thread, Config, FailureKind};
use bf_rpc::{
    duplex_with_depth, ClientId, PathCosts, PollEvent, Poller, Request, RequestEnvelope, Response,
    ResponseEnvelope, ShmSegment, TransportError,
};

fn resp(tag: u64) -> ResponseEnvelope {
    ResponseEnvelope {
        tag,
        sent_at: bf_model::VirtualTime::ZERO,
        body: Response::Ack,
    }
}

/// Poller wake/poll generation counting: a frame push and a cross-thread
/// `Waker::wake` racing against `poll` are never lost, no matter where
/// they land relative to the scan-then-park window. A missing generation
/// recheck would deadlock some schedule (see the seeded fixture below).
#[test]
fn poller_never_loses_a_wake_or_a_push() {
    let stats = explore("poller_wake_generation", || {
        let (client, server) = duplex_with_depth(4);
        let mut poller = Poller::new();
        let data_tok = poller.register(client.completions());
        let (wake_tok, waker) = poller.add_waker();
        let t = thread::spawn(move || {
            server.send(&resp(1)).expect("send");
            waker.wake();
            // `server` stays alive until after the wake so the data token
            // cannot turn permanently ready (closed) mid-loop.
        });
        let (mut got_data, mut got_wake) = (false, false);
        while !(got_data && got_wake) {
            match poller.poll(None) {
                PollEvent::Ready(tok) if tok == data_tok => {
                    let _ = client.try_recv();
                    got_data = true;
                }
                PollEvent::Ready(tok) if tok == wake_tok => got_wake = true,
                other => panic!("unexpected poll result: {other:?}"),
            }
        }
        t.join();
    })
    .expect("no schedule may lose a readiness edge");
    println!(
        "poller_wake_generation: {} schedules explored",
        stats.schedules
    );
    assert!(stats.schedules > 1, "exploration must branch: {stats:?}");
}

/// Seeded bug: a notify hub that parks without rechecking the generation
/// it snapshotted. The checker must find the schedule where the bump lands
/// between snapshot and park — the classic lost wakeup the real
/// `NotifyHub::wait` recheck exists to prevent.
#[test]
fn seeded_hub_without_generation_recheck_is_caught() {
    let err = explore("seeded_hub_no_recheck", || {
        let hub = Arc::new((Mutex::new(0u64), Condvar::new()));
        let bumper = {
            let hub = hub.clone();
            thread::spawn(move || {
                let mut poll_gen = hub.0.lock();
                *poll_gen += 1;
                drop(poll_gen);
                hub.1.notify_all();
            })
        };
        let seen = *hub.0.lock();
        if seen == 0 {
            let mut poll_gen = hub.0.lock();
            // BUG (seeded): the real hub rechecks `*poll_gen != seen`
            // here before parking; dropping the recheck loses any bump
            // that landed since the snapshot.
            let _ = &mut poll_gen;
            hub.1.wait(&mut poll_gen);
        }
        bumper.join();
    })
    .expect_err("some schedule must lose the wakeup");
    assert_eq!(err.kind, FailureKind::Deadlock, "{err}");
    assert!(err.to_string().contains("lost wakeup"), "{err}");
}

/// Event-loop slow consumer: a client that never drains its completion
/// stream is force-disconnected once its backlog passes the configured
/// limit — on every schedule the client observes `Closed` after at most
/// `depth + max_pending + in-flight` responses, and the event loop thread
/// always terminates (no schedule leaves it parked forever).
#[test]
fn event_loop_force_disconnects_slow_consumers_on_every_schedule() {
    let config = Config {
        preemption_bound: Some(1),
        ..Config::default()
    };
    let stats = explore_with("event_loop_slow_consumer", config, || {
        let board = Arc::new(parking_lot::Mutex::new(bf_fpga::Board::new(
            bf_fpga::BoardSpec::de5a_net(),
            bf_model::PcieLink::new(bf_model::PcieGeneration::Gen3, 8),
        )));
        let (manager, event_loop) = bf_devmgr::DeviceManager::new_detached(
            bf_devmgr::DeviceManagerConfig::standalone("fpga-model")
                .with_channel_depth(1)
                .with_max_pending_responses(0),
            bf_model::node_b(),
            board,
            bf_ocl::BitstreamCatalog::new(),
        );
        let looper = thread::spawn(event_loop);

        let endpoint = manager.connect("slow-consumer", PathCosts::local_shm());
        // Three requests against a depth-1 completion queue with a zero
        // parked-response budget: the second undeliverable response trips
        // the force-disconnect.
        let mut sent = 0u64;
        for tag in 1..=3u64 {
            let env = RequestEnvelope {
                tag,
                client: endpoint.client,
                sent_at: bf_model::VirtualTime::ZERO,
                body: Request::GetDeviceInfo,
            };
            match endpoint.channel.send(&env) {
                Ok(()) => sent += 1,
                // Force-close can land while we are still submitting.
                Err(TransportError::Closed) => break,
                Err(other) => panic!("unexpected send failure: {other:?}"),
            }
        }
        // Never drain until the end: now count what actually arrived.
        let mut received = 0u64;
        let closed = loop {
            match endpoint.channel.recv() {
                Ok(_) => received += 1,
                Err(TransportError::Closed) => break true,
                Err(other) => panic!("unexpected recv failure: {other:?}"),
            }
        };
        assert!(closed, "slow consumer must be disconnected");
        assert!(
            received <= sent,
            "received {received} responses for {sent} requests"
        );
        drop(endpoint);
        drop(manager);
        looper.join();
    })
    .expect("no schedule may deadlock or leak the event loop");
    println!(
        "event_loop_slow_consumer: {} schedules explored (preemption bound 1)",
        stats.schedules
    );
    assert!(stats.schedules > 1, "exploration must branch: {stats:?}");
}

/// `DeviceManager::connect` racing the drop of another manager handle,
/// either of which may turn out to be the last: the control message, the
/// waker nudge, the waker's close edge and the control channel's
/// disconnect all reach the event loop in some order. On every schedule
/// the endpoint is either adopted (one request answered, then an orderly
/// `Disconnect` reaps the session) or observes `Closed`; the connected
/// count ends at 0 and the loop exits, so no schedule hangs.
#[test]
fn connect_racing_a_manager_handle_drop_is_adopted_or_closed() {
    let config = Config {
        preemption_bound: Some(1),
        ..Config::default()
    };
    let stats = explore_with("connect_vs_handle_drop", config, || {
        let board = Arc::new(parking_lot::Mutex::new(bf_fpga::Board::new(
            bf_fpga::BoardSpec::de5a_net(),
            bf_model::PcieLink::new(bf_model::PcieGeneration::Gen3, 8),
        )));
        let (manager, event_loop) = bf_devmgr::DeviceManager::new_detached(
            bf_devmgr::DeviceManagerConfig::standalone("fpga-model"),
            bf_model::node_b(),
            board,
            bf_ocl::BitstreamCatalog::new(),
        );
        let looper = thread::spawn(event_loop);
        let other = manager.clone();
        let dropper = thread::spawn(move || drop(other));

        let endpoint = manager.connect("racer", PathCosts::local_shm());
        let request = |tag, body| RequestEnvelope {
            tag,
            client: endpoint.client,
            sent_at: bf_model::VirtualTime::ZERO,
            body,
        };
        let channel = &endpoint.channel;
        match channel
            .send(&request(1, Request::GetDeviceInfo))
            .and_then(|()| channel.recv())
        {
            Ok(resp) => {
                assert!(matches!(resp.body, Response::DeviceInfo { .. }), "{resp:?}");
                assert_eq!(manager.connected_clients(), 1, "adopted");
                channel
                    .send(&request(2, Request::Disconnect))
                    .expect("the session is live");
                assert_eq!(channel.recv().expect("disconnect ack").tag, 2);
                // The loop reaps the session before dropping its side.
                assert_eq!(channel.recv().expect_err("reaped"), TransportError::Closed);
            }
            Err(err) => assert_eq!(err, TransportError::Closed),
        }
        assert_eq!(manager.connected_clients(), 0, "no session leaks");
        drop(endpoint);
        drop(manager);
        dropper.join();
        looper.join();
    })
    .expect("no schedule may strand a connect or hang the event loop");
    println!(
        "connect_vs_handle_drop: {} schedules explored (preemption bound 1)",
        stats.schedules
    );
    assert!(stats.schedules > 1, "exploration must branch: {stats:?}");
}

/// A one-shot rendezvous (`call`, `fence`, `try_digest_write`): a receiver
/// parked in `recv` while the last sender drops — what the reactor's
/// `fail_pending` does to every outstanding one-shot — gets
/// `Disconnected` on every schedule, never a hang.
#[test]
fn parked_receiver_sees_the_last_sender_drop_as_disconnected() {
    let stats = explore("rendezvous_sender_drop", || {
        let (tx, rx) = bounded::<u64>(1);
        let keep = tx.clone();
        let reactor = thread::spawn(move || drop(tx));
        drop(keep);
        assert_eq!(rx.recv(), Err(ChannelError::Disconnected));
        reactor.join();
    })
    .expect("no schedule may leave the caller parked");
    println!(
        "rendezvous_sender_drop: {} schedules explored",
        stats.schedules
    );
    assert!(stats.schedules > 1, "exploration must branch: {stats:?}");
}

/// A sender parked on a full `bounded(1)` while the last receiver drops
/// gets `Disconnected` on every schedule and never wedges.
#[test]
fn parked_sender_sees_the_last_receiver_drop_as_disconnected() {
    let stats = explore("full_channel_receiver_drop", || {
        let (tx, rx) = bounded::<u64>(1);
        tx.send(1).expect("room for one");
        let consumer = thread::spawn(move || drop(rx));
        assert_eq!(tx.send(2), Err(ChannelError::Disconnected));
        consumer.join();
    })
    .expect("no schedule may wedge a parked sender");
    println!(
        "full_channel_receiver_drop: {} schedules explored",
        stats.schedules
    );
    assert!(stats.schedules > 1, "exploration must branch: {stats:?}");
}

/// ShmSegment snapshot aliasing: a snapshot handed out by `read` must keep
/// its bytes even when the region is freed and the space reused for a new
/// allocation by a concurrent thread — on every interleaving.
#[test]
fn shm_snapshots_survive_concurrent_free_and_reuse() {
    let stats = explore("shm_snapshot_vs_reuse", || {
        let shm = ShmSegment::new(64);
        let offset = shm.alloc(8).expect("alloc");
        shm.write(offset, b"original").expect("write");

        let recycler = {
            let shm = shm.clone();
            thread::spawn(move || {
                shm.free(offset).expect("free");
                let reused = shm.alloc(8).expect("realloc");
                shm.write(reused, b"clobber!").expect("rewrite");
                reused
            })
        };
        // Race the snapshot against free/reuse. A successful read shows one
        // of the region's committed states — the original bytes, zeros
        // (alloc clears the region before the rewrite lands), or the new
        // contents — never a partial write. And a snapshot, once taken,
        // never mutates underneath its holder.
        let snapshot = shm.read(offset, 8);
        let reused = recycler.join();
        assert_eq!(reused, offset, "free-then-alloc must reuse the region");
        if let Ok(bytes) = snapshot {
            let committed = |b: &[u8]| b == b"original" || b == [0u8; 8] || b == b"clobber!";
            assert!(
                committed(bytes.as_ref()),
                "snapshot shows a committed value, never a partial write: {:?}",
                bytes.as_ref()
            );
            let captured = bytes.to_vec();
            let again = shm.read(offset, 8).expect("reread");
            assert_eq!(again.as_ref(), b"clobber!");
            // The older snapshot still holds exactly what it captured.
            assert_eq!(bytes.as_ref(), &captured[..]);
        }
    })
    .expect("no schedule may corrupt a snapshot");
    println!(
        "shm_snapshot_vs_reuse: {} schedules explored",
        stats.schedules
    );
    assert!(stats.schedules > 1, "exploration must branch: {stats:?}");
}

/// Payload copy-on-write uniqueness: a payload snapshot read from device
/// memory keeps its bytes when the buffer is mutated in place by another
/// thread — `bytes_mut` must un-share (copy) before writing, on every
/// schedule.
#[test]
fn device_memory_cow_keeps_snapshots_unique() {
    let stats = explore("payload_cow_uniqueness", || {
        let mem = Arc::new(Mutex::new(bf_fpga::DeviceMemory::new(64)));
        let id = {
            let mut m = mem.lock();
            let id = m.alloc(4).expect("alloc");
            m.write(id, 0, &bf_fpga::Payload::from(b"1111".to_vec()))
                .expect("write");
            id
        };
        let snapshot = mem.lock().read(id, 0, 4).expect("read");

        let mutator = {
            let mem = mem.clone();
            thread::spawn(move || {
                let mut m = mem.lock();
                let bytes = m.bytes_mut(id).expect("bytes_mut");
                bytes.copy_from_slice(b"2222");
            })
        };
        // Concurrent reader: must see the old or the new value, never a
        // torn mix (the lock serializes, the model checks the protocol).
        let observed = mem.lock().read(id, 0, 4).expect("read");
        let observed = observed.as_data().expect("materialized");
        assert!(
            observed == b"1111" || observed == b"2222",
            "torn read: {observed:?}"
        );
        mutator.join();
        // CoW uniqueness: the pre-mutation snapshot is untouched, and the
        // buffer now holds the mutation.
        assert_eq!(snapshot.as_data().expect("materialized"), b"1111");
        assert_eq!(
            mem.lock()
                .read(id, 0, 4)
                .expect("read")
                .as_data()
                .expect("materialized"),
            b"2222"
        );
    })
    .expect("no schedule may alias the snapshot");
    println!(
        "payload_cow_uniqueness: {} schedules explored",
        stats.schedules
    );
    assert!(stats.schedules > 1, "exploration must branch: {stats:?}");
}

/// Bounded-transport backpressure: with a depth-1 queue, a producer
/// pushing two frames must park until the consumer drains one; the model
/// proves the park/wake protocol can't deadlock or lose a slot,
/// whichever side runs first.
#[test]
fn bounded_transport_backpressure_never_wedges() {
    let stats = explore("transport_backpressure", || {
        let (client, server) = duplex_with_depth(1);
        let producer = thread::spawn(move || {
            server.send(&resp(1)).expect("send 1");
            // Queue full until the client drains: this send parks.
            server.send(&resp(2)).expect("send 2");
        });
        let first = client.recv().expect("first");
        let second = client.recv().expect("second");
        assert_eq!((first.tag, second.tag), (1, 2), "FIFO preserved");
        producer.join();
    })
    .expect("no schedule may wedge the bounded queue");
    println!(
        "transport_backpressure: {} schedules explored",
        stats.schedules
    );
    assert!(stats.schedules > 1, "exploration must branch: {stats:?}");
}

/// The pop-timeout path: a consumer with a deadline either receives the
/// late frame or times out cleanly — both branches are explored because
/// the virtual-time timeout may fire at any scheduling point.
#[test]
fn transport_recv_timeout_explores_both_branches() {
    let stats = explore("transport_recv_timeout", || {
        let (client, server) = duplex_with_depth(1);
        let producer = thread::spawn(move || {
            server.send(&resp(7)).expect("send");
        });
        match client.recv_timeout(Duration::from_millis(1)) {
            Ok(env) => assert_eq!(env.tag, 7),
            Err(TransportError::Timeout) => {
                // Timed out before the producer ran: the frame must still
                // arrive on a blocking recv.
                assert_eq!(client.recv().expect("recv").tag, 7);
            }
            Err(other) => panic!("unexpected: {other:?}"),
        }
        producer.join();
    })
    .expect("no schedule may lose the frame");
    println!(
        "transport_recv_timeout: {} schedules explored",
        stats.schedules
    );
    assert!(stats.schedules > 1, "exploration must branch: {stats:?}");
}

/// ClientId allocation is a facade atomic: concurrent `connect`-style
/// fetch_adds must hand out distinct ids on every schedule.
#[test]
fn client_id_allocation_is_unique_across_threads() {
    use bf_race::sync::atomic::{AtomicU64, Ordering};
    let stats = explore("client_id_unique", || {
        let next = Arc::new(AtomicU64::new(1));
        let a = {
            let next = next.clone();
            thread::spawn(move || ClientId(next.fetch_add(1, Ordering::Relaxed)))
        };
        let b = ClientId(next.fetch_add(1, Ordering::Relaxed));
        let a = a.join();
        assert_ne!(a, b, "two clients must never share an id");
        assert_eq!(next.load(Ordering::Relaxed), 3);
    })
    .expect("no schedule may duplicate an id");
    println!("client_id_unique: {} schedules explored", stats.schedules);
    assert!(stats.schedules > 1, "exploration must branch: {stats:?}");
}

/// The serverless batcher's mutex/condvar handoff: a producer submits
/// invocations and closes while a consumer blocks on
/// `next_batch_blocking`. On every schedule the consumer must receive
/// every invocation exactly once and then observe end-of-stream — the
/// notify-on-submit / drain-on-close protocol has no schedule that loses
/// an arrival (the classic lost-wakeup shape) or drains one twice.
#[test]
fn batcher_handoff_never_loses_an_invocation() {
    use bf_model::VirtualTime;
    use bf_serverless::{Batcher, Invocation};

    let stats = explore("batcher_handoff", || {
        let batcher = Arc::new(Batcher::new().with_max_batch_size(2));
        let producer = {
            let batcher = batcher.clone();
            thread::spawn(move || {
                for _ in 0..3 {
                    batcher
                        .submit(Invocation::at(VirtualTime::ZERO))
                        .expect("capacity 64 never sheds here");
                }
                batcher.close();
            })
        };
        let mut received = 0usize;
        while let Some(batch) = batcher.next_batch_blocking(Duration::from_millis(1)) {
            assert!(batch.len() <= 2, "oversized batch");
            received += batch.len();
        }
        producer.join();
        assert_eq!(received, 3, "every submission drained exactly once");
        assert!(batcher.drain_now().is_none(), "closed and fully drained");
    })
    .expect("no schedule may lose an invocation in the handoff");
    println!("batcher_handoff: {} schedules explored", stats.schedules);
    assert!(stats.schedules > 1, "exploration must branch: {stats:?}");
}

/// Batcher cut-over during a device-manager replacement: while a producer
/// is still submitting, a controller closes the old batcher and migrates
/// its remainder into the replacement. Depending on the schedule, each
/// submission either lands in the old queue before the close (and is
/// migrated), or observes `Closed` and is resubmitted to the replacement
/// by the producer. On every schedule all invocations are serviced by the
/// replacement exactly once — the close-then-drain protocol has no window
/// that strands an invocation in the dying queue or migrates one twice.
#[test]
fn batcher_cutover_never_loses_or_duplicates_an_invocation() {
    use bf_model::VirtualTime;
    use bf_serverless::{Batcher, Invocation, SubmitError};

    let stats = explore("batcher_cutover", || {
        let old = Arc::new(Batcher::new().with_max_batch_size(2));
        let replacement = Arc::new(Batcher::new().with_max_batch_size(2));
        let producer = {
            let (old, replacement) = (old.clone(), replacement.clone());
            thread::spawn(move || {
                for _ in 0..3 {
                    match old.submit(Invocation::at(VirtualTime::ZERO)) {
                        Ok(_) => {}
                        Err(SubmitError::Closed) => {
                            replacement
                                .submit(Invocation::at(VirtualTime::ZERO))
                                .expect("replacement accepts while cutting over");
                        }
                        Err(other) => panic!("unexpected submit error: {other:?}"),
                    }
                }
            })
        };
        // Cut-over: close first, then migrate. Closing before draining is
        // what makes the protocol sound — after `close` returns, no new
        // submission can enter the old queue, so the drain loop observes
        // the complete remainder.
        old.close();
        while let Some(batch) = old.drain_now() {
            for invocation in batch.invocations() {
                replacement
                    .submit(*invocation)
                    .expect("replacement accepts migrated work");
            }
        }
        producer.join();
        replacement.close();
        let mut received = 0usize;
        while let Some(batch) = replacement.next_batch_blocking(Duration::from_millis(1)) {
            received += batch.len();
        }
        assert_eq!(received, 3, "every invocation crosses the cut-over once");
        assert!(old.drain_now().is_none(), "old queue fully migrated");
    })
    .expect("no schedule may strand or duplicate an invocation at cut-over");
    println!("batcher_cutover: {} schedules explored", stats.schedules);
    assert!(stats.schedules > 1, "exploration must branch: {stats:?}");
}

/// Payload-cache snapshot stability: a zero-copy snapshot handed out by
/// `PayloadCache::get` keeps its exact bytes while a concurrent inserter
/// overflows the host tier and the clock hand evicts the entry — on
/// every interleaving. Eviction may only drop the cache's *own*
/// reference; a live reader must never observe reused or cleared bytes.
#[test]
fn payload_cache_snapshot_survives_concurrent_insert_and_evict() {
    let stats = explore("payload_cache_snapshot_vs_evict", || {
        // Budget fits the original plus one filler: the second filler
        // insert must evict.
        let cache = Arc::new(bf_cache::PayloadCache::new(64));
        let original = bytes::Bytes::from_static(b"original payload bytes!!");
        let digest = bf_cache::content_digest(&original);
        assert!(cache.insert(digest, original.clone()), "admit original");

        let evictor = {
            let cache = cache.clone();
            thread::spawn(move || {
                for i in 0..3u8 {
                    let filler = bytes::Bytes::from(vec![i; 24]);
                    cache.insert(bf_cache::content_digest(&filler), filler);
                }
            })
        };
        // Race the snapshot against the evicting inserts. `get` either
        // misses (the entry was already evicted) or returns a refcounted
        // snapshot that stays byte-stable past any later eviction.
        let snapshot = cache.get(digest);
        evictor.join();
        if let Some(bytes) = snapshot {
            assert_eq!(
                bytes.as_ref(),
                original.as_ref(),
                "snapshot must show the inserted content, never filler"
            );
            // Force the entry out unconditionally: the live snapshot is
            // its own reference and must not change underneath us.
            cache.invalidate_all();
            assert_eq!(bytes.as_ref(), original.as_ref());
        }
        // After the race, a fresh lookup is all-or-nothing: a miss, or
        // the identical content — never a torn or recycled payload.
        if let Some(bytes) = cache.get(digest) {
            assert_eq!(bytes.as_ref(), original.as_ref());
        }
    })
    .expect("no schedule may invalidate a live snapshot reader");
    println!(
        "payload_cache_snapshot_vs_evict: {} schedules explored",
        stats.schedules
    );
    assert!(stats.schedules > 1, "exploration must branch: {stats:?}");
}

/// Federated rebalance vs placement: a shard join (HRW rebalance moving
/// devices and their bindings) racing a concurrent `place_instance` must
/// never double-place the instance, strand it without a binding, or lose
/// a device — on every interleaving. The shard-map lock serializes the
/// two paths; this model proves the serialization is complete in both
/// orders (place-then-rebalance carries the binding to the new owner,
/// rebalance-then-place routes against the post-join membership).
///
/// Run twice: on boards already configured for the function, and on
/// blank boards — where the placement marks a reconfiguration pending,
/// releases the shard map, programs the board and re-takes the map to
/// clear the mark, so the rebalance can also land *between* the two
/// halves and move the pending device to another shard.
#[test]
fn shard_rebalance_never_double_places_or_strands() {
    for (name, configured) in [
        ("shard_rebalance_vs_place", Some("sobel")),
        ("shard_rebalance_vs_reprogramming_place", None),
    ] {
        rebalance_vs_place(name, configured);
    }
}

fn rebalance_vs_place(name: &'static str, configured: Option<&'static str>) {
    use bf_registry::{
        AllocationPolicy, DeviceQuery, PlacementService, ShardedRegistry, StaticDevice,
    };

    let stats = explore(name, move || {
        let sharded = ShardedRegistry::new(AllocationPolicy::paper(), 2);
        for (i, node) in [bf_model::node_a(), bf_model::node_b(), bf_model::node_c()]
            .into_iter()
            .enumerate()
        {
            sharded.register_device_handle(
                StaticDevice::new(format!("fpga-{i}"), node, configured).handle(),
            );
        }
        sharded.register_function("f", DeviceQuery::for_accelerator("sobel"));

        let rebalancer = {
            let sharded = sharded.clone();
            thread::spawn(move || {
                let (joined, _moved) = sharded.add_shard();
                joined
            })
        };
        let allocation = sharded
            .place_instance("inst-0", "f")
            .expect("three devices are registered on every schedule");
        let joined = rebalancer.join();

        // Exactly one binding for the instance, on a device that still
        // exists exactly once in the federation.
        assert_eq!(
            sharded.binding("inst-0").as_deref(),
            Some(allocation.device_id.as_str()),
            "placement must survive the rebalance"
        );
        let ids = sharded.device_ids();
        assert_eq!(ids.len(), 3, "rebalance must not duplicate or drop devices");
        let views = sharded.device_views();
        for view in &views {
            assert!(
                !view.pending_reconfiguration,
                "{} is left pending after its board was programmed",
                view.id
            );
            if view.id == allocation.device_id {
                assert_eq!(view.bitstream.as_deref(), Some("sobel"));
            }
        }
        let bound: usize = views
            .iter()
            .flat_map(|v| v.connected.iter())
            .filter(|(instance, _)| instance.as_str() == "inst-0")
            .count();
        assert_eq!(bound, 1, "instance must be connected exactly once");
        assert_eq!(sharded.shard_count(), 3, "the joiner is live");
        assert!(sharded.shard_ids().contains(&joined));

        // The federation index still resolves the instance: release must
        // actually remove the binding wherever it now lives.
        sharded.release_instance("inst-0");
        assert_eq!(sharded.binding("inst-0"), None, "release after rebalance");
    })
    .expect("no schedule may double-place or strand an instance across a rebalance");
    println!("{name}: {} schedules explored", stats.schedules);
    assert!(stats.schedules > 1, "exploration must branch: {stats:?}");
}
