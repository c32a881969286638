//! Event-loop battery: fairness, slow-consumer disconnection and shutdown
//! behaviour of the Device Manager's single dispatcher thread.
//!
//! These scenarios need real client threads hammering a live manager —
//! the in-crate unit tests drive the protocol single-threaded.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bf_devmgr::{DeviceManager, DeviceManagerConfig};
use bf_fpga::{Board, BoardSpec};
use bf_model::{node_b, PcieGeneration, PcieLink, VirtualTime};
use bf_ocl::BitstreamCatalog;
use bf_rpc::{PathCosts, Request, RequestEnvelope, Response, TransportError};
use parking_lot::Mutex;

fn manager(config: DeviceManagerConfig) -> DeviceManager {
    let board = Arc::new(Mutex::new(Board::new(
        BoardSpec::de5a_net(),
        PcieLink::new(PcieGeneration::Gen3, 8),
    )));
    DeviceManager::new(config, node_b(), board, BitstreamCatalog::new())
}

fn req(endpoint: &bf_devmgr::ManagerEndpoint, tag: u64, body: Request) -> RequestEnvelope {
    RequestEnvelope {
        tag,
        client: endpoint.client,
        sent_at: VirtualTime::ZERO,
        body,
    }
}

/// Spins (wall clock, host-side only) until `cond` holds or 5s elapse.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    #[expect(
        clippy::disallowed_methods,
        reason = "bounds host-side waiting on the real event-loop thread; the virtual timeline is untouched"
    )]
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        #[expect(
            clippy::disallowed_methods,
            reason = "same host-side liveness deadline"
        )]
        let now = Instant::now();
        assert!(now < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn flooding_client_cannot_starve_a_victim_session() {
    let mgr = manager(DeviceManagerConfig::standalone("fpga-fair"));
    let flooder = mgr.connect("flooder", PathCosts::local_grpc());
    let victim = mgr.connect("victim", PathCosts::local_grpc());

    // The flooder pushes 400 requests as fast as the loop accepts them,
    // with a drainer thread keeping its completion stream from stalling
    // the experiment on the flooder's own backpressure.
    let drainer = {
        let channel = flooder.channel.clone();
        std::thread::spawn(move || {
            let mut drained = 0u32;
            while drained < 400 {
                match channel.recv_timeout(Duration::from_secs(5)) {
                    Ok(_) => drained += 1,
                    Err(e) => panic!("flooder completions dried up: {e}"),
                }
            }
            drained
        })
    };
    let flood = {
        let endpoint = flooder.clone();
        std::thread::spawn(move || {
            for tag in 0..400 {
                endpoint
                    .channel
                    .send(&req(&endpoint, tag, Request::CreateContext))
                    .expect("manager alive");
            }
        })
    };

    // The victim runs sequential round trips *while* the flood is in
    // flight; round-robin polling and the frame batch cap bound how long
    // each one can be shadowed.
    for tag in 0..50 {
        victim
            .channel
            .send(&req(&victim, tag, Request::CreateContext))
            .expect("send");
        let resp = victim
            .channel
            .recv_timeout(Duration::from_secs(5))
            .expect("victim served during the flood");
        assert_eq!(resp.tag, tag);
        assert!(matches!(resp.body, Response::Handle { .. }));
    }

    flood.join().expect("flooder");
    assert_eq!(drainer.join().expect("drainer"), 400);
    drop(flooder);
    drop(victim);
    wait_until("sessions to be reaped", || mgr.connected_clients() == 0);
}

#[test]
fn slow_consumer_is_disconnected_instead_of_buffered_without_bound() {
    let mgr = manager(
        DeviceManagerConfig::standalone("fpga-slow")
            .with_channel_depth(4)
            .with_max_pending_responses(8),
    );
    let slow = mgr.connect("slow", PathCosts::local_grpc());
    assert_eq!(slow.channel.depth(), 4);

    // Never read a completion: 4 fill the bounded stream, up to 8 park in
    // the event loop, and the rest must get the session cut loose.
    for tag in 0..40 {
        if slow
            .channel
            .send(&req(&slow, tag, Request::CreateContext))
            .is_err()
        {
            break; // already force-closed mid-flood
        }
    }
    wait_until("the slow consumer to be disconnected", || {
        mgr.connected_clients() == 0
    });

    // The manager itself is unharmed: a fresh client gets served.
    let fresh = mgr.connect("fresh", PathCosts::local_grpc());
    fresh
        .channel
        .send(&req(&fresh, 1, Request::CreateContext))
        .expect("send");
    let resp = fresh
        .channel
        .recv_timeout(Duration::from_secs(5))
        .expect("served after the slow consumer was dropped");
    assert!(matches!(resp.body, Response::Handle { .. }));

    // The cut-off client observes Closed on both directions eventually.
    wait_until("the slow consumer to observe Closed", || {
        matches!(
            slow.channel.try_recv(),
            Err(TransportError::Closed) | Ok(Some(_))
        )
    });
    drop(fresh);
    wait_until("sessions to be reaped", || mgr.connected_clients() == 0);
}

#[test]
fn dropped_endpoints_are_reaped_without_a_disconnect_request() {
    let mgr = manager(DeviceManagerConfig::standalone("fpga-reap"));
    let endpoints: Vec<_> = (0..3)
        .map(|i| mgr.connect(&format!("fn-{i}"), PathCosts::local_grpc()))
        .collect();
    assert_eq!(mgr.connected_clients(), 3);
    // Each client proves liveness once, then vanishes without Disconnect.
    for (i, ep) in endpoints.iter().enumerate() {
        ep.channel
            .send(&req(ep, i as u64, Request::CreateContext))
            .expect("send");
        ep.channel
            .recv_timeout(Duration::from_secs(5))
            .expect("round trip");
    }
    drop(endpoints);
    // The request streams report Closed; the event loop reaps all three.
    wait_until("hangup-driven reaping", || mgr.connected_clients() == 0);

    // The loop keeps serving new sessions afterwards.
    let back = mgr.connect("returning", PathCosts::local_grpc());
    back.channel
        .send(&req(&back, 9, Request::CreateContext))
        .expect("send");
    assert!(matches!(
        back.channel
            .recv_timeout(Duration::from_secs(5))
            .expect("served")
            .body,
        Response::Handle { .. }
    ));
}

#[test]
fn graceful_disconnect_is_acked_before_the_session_is_reaped() {
    let mgr = manager(DeviceManagerConfig::standalone("fpga-bye"));
    let ep = mgr.connect("polite", PathCosts::local_grpc());
    ep.channel
        .send(&req(&ep, 1, Request::Disconnect))
        .expect("send");
    // The Ack is queued before the session starts closing, and buffered
    // frames are delivered before Closed surfaces.
    let resp = ep
        .channel
        .recv_timeout(Duration::from_secs(5))
        .expect("ack delivered");
    assert_eq!(resp.body, Response::Ack);
    wait_until("the acked session to be reaped", || {
        mgr.connected_clients() == 0
    });
}
