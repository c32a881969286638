//! Integration: deterministic replay of the production-day scale harness.
//!
//! The harness's whole value as a regression tool rests on replay: the same
//! seed must reproduce the same run byte-for-byte — with the full fault
//! battery armed — or a "this seed found a bug" report is useless. These
//! tests pin that property end-to-end through the public `bf_sim` API: the
//! recorded event trace, its FNV-1a digest, and every summary counter must
//! be identical across two fresh runs, and the fault schedule must be drawn
//! from its own RNG stream so arming faults cannot perturb the arrival
//! trace they are injected into.

use blastfunction::model::VirtualDuration;
use blastfunction::sim::{run_scale, FaultPlan, ScaleConfig, ShedStorm, Window};

/// A scaled-down day that still exercises every fault class: node losses
/// with failover through the registry, slow-consumer disconnects,
/// restarts, a shed storm, a stalled watcher window, and a rebalance of
/// the 4-shard registry that places every instance by Algorithm 1.
fn replay_config(seed: u64) -> ScaleConfig {
    ScaleConfig {
        shards: 4,
        // 10 nodes at ~400 rq/s of serial service each: the 3× shed storm
        // on top of the diurnal peak pushes per-node arrivals past that,
        // so admission control demonstrably sheds during the window.
        nodes: 10,
        functions: 200,
        sessions: 200,
        day: VirtualDuration::from_secs(5),
        base_rps: 400.0,
        record_trace: true,
        faults: FaultPlan {
            node_losses: 5,
            slow_consumers: 12,
            restarts: 40,
            shed_storm: Some(ShedStorm {
                window: Window {
                    start_frac: 0.45,
                    len_frac: 0.10,
                },
                factor: 3.0,
            }),
            watch_delay: Some(Window {
                start_frac: 0.70,
                len_frac: 0.05,
            }),
            rebalance: Some(Window {
                start_frac: 0.30,
                len_frac: 0.30,
            }),
        },
        ..ScaleConfig::smoke(seed)
    }
}

#[test]
fn same_seed_replays_the_full_trace_byte_for_byte_with_faults_on() {
    let first = run_scale(&replay_config(0xB1A57));
    let second = run_scale(&replay_config(0xB1A57));

    // The run must actually have exercised the fault battery, or the
    // replay claim is vacuous.
    assert!(first.node_losses > 0, "no node losses injected");
    assert!(first.rerouted > 0, "no instances migrated");
    assert!(
        first.force_disconnects > 0 || first.shed > 0,
        "neither slow consumers nor the shed storm left a mark"
    );

    // Byte-identical replay: the recorded traces are equal line-for-line,
    // the digests agree with each other, and the digest is a faithful
    // commitment to the trace (equal digests + equal traces).
    assert!(!first.trace.is_empty(), "record_trace must capture events");
    assert_eq!(first.trace, second.trace, "event traces diverged");
    assert_eq!(first.trace_digest, second.trace_digest, "digests diverged");

    // Every summary statistic replays too — the struct comparison covers
    // all counters and latency quantiles at once.
    assert_eq!(first, second, "summary statistics diverged");
}

#[test]
fn different_seeds_produce_different_traces() {
    let a = run_scale(&replay_config(1));
    let b = run_scale(&replay_config(2));
    assert_ne!(a.trace_digest, b.trace_digest, "seed must steer the run");
}

#[test]
fn arming_faults_does_not_perturb_the_arrival_trace() {
    // The fault schedule draws from its own RNG stream: a plan with every
    // fault class armed except the storm (which changes the offered rate
    // by design) must see exactly the arrivals of a fault-free run.
    let quiet = run_scale(&ScaleConfig {
        faults: FaultPlan::none(),
        ..replay_config(33)
    });
    let faulty = run_scale(&ScaleConfig {
        faults: FaultPlan {
            shed_storm: None,
            ..FaultPlan::production()
        },
        ..replay_config(33)
    });
    assert_eq!(
        quiet.arrivals, faulty.arrivals,
        "fault draws leaked into the traffic stream"
    );
}
