//! Integration: the headline multi-tenant claims of Tables II–IV, checked
//! across every paper configuration in one sweep.
//!
//! "BlastFunction reaches higher utilization and throughput w.r.t. a
//! native execution thanks to device sharing, with minimal differences in
//! latency given by the concurrent accesses." — abstract.

use blastfunction::model::{DataPathKind, VirtualDuration};
use blastfunction::prelude::*;
use blastfunction::sim::ScenarioResult;

fn run(use_case: UseCase, level: LoadLevel, deployment: Deployment) -> ScenarioResult {
    run_scenario(
        &ScenarioConfig::new(use_case, level, deployment)
            .with_duration(VirtualDuration::from_secs(20)),
    )
}

fn bf(use_case: UseCase, level: LoadLevel) -> ScenarioResult {
    run(
        use_case,
        level,
        Deployment::BlastFunction {
            data_path: DataPathKind::SharedMemory,
        },
    )
}

fn native(use_case: UseCase, level: LoadLevel) -> ScenarioResult {
    run(use_case, level, Deployment::Native)
}

/// Every configuration the paper evaluates (Table I).
fn paper_configurations() -> Vec<(UseCase, LoadLevel)> {
    UseCase::ALL
        .into_iter()
        .flat_map(|use_case| use_case.levels().map(move |level| (use_case, level)))
        .collect()
}

#[test]
fn sharing_always_serves_more_and_utilizes_more() {
    for (use_case, level) in paper_configurations() {
        let bf = bf(use_case, level);
        let native = native(use_case, level);
        assert!(
            bf.aggregate.processed_rps > native.aggregate.processed_rps,
            "{use_case} {level}: bf {:.1} rq/s <= native {:.1} rq/s",
            bf.aggregate.processed_rps,
            native.aggregate.processed_rps
        );
        assert!(
            bf.aggregate.utilization_pct > native.aggregate.utilization_pct,
            "{use_case} {level}: bf {:.1}% <= native {:.1}%",
            bf.aggregate.utilization_pct,
            native.aggregate.utilization_pct
        );
    }
}

#[test]
fn latency_differences_stay_minimal_for_single_kernel_workloads() {
    // Sobel and MM issue one task per request: sharing must cost only
    // control signalling + queueing, not multiples.
    for use_case in [UseCase::Sobel, UseCase::Mm] {
        for level in [LoadLevel::Low, LoadLevel::Medium] {
            let bf = bf(use_case, level);
            let native = native(use_case, level);
            let ratio = bf.aggregate.mean_latency_ms / native.aggregate.mean_latency_ms;
            assert!(
                (0.5..1.8).contains(&ratio),
                "{use_case} {level}: latency ratio {ratio:.2} (bf {:.1} ms, native {:.1} ms)",
                bf.aggregate.mean_latency_ms,
                native.aggregate.mean_latency_ms
            );
        }
    }
}

#[test]
fn utilization_never_exceeds_the_300_percent_ceiling() {
    for (use_case, level) in paper_configurations() {
        for result in [bf(use_case, level), native(use_case, level)] {
            assert!(
                result.aggregate.utilization_pct <= 300.0 + 1e-6,
                "{use_case} {level} {}: {:.1}%",
                result.deployment,
                result.aggregate.utilization_pct
            );
            for (device, util) in &result.device_utilization {
                assert!(
                    (0.0..=1.0 + 1e-9).contains(util),
                    "{device} utilization {util}"
                );
            }
        }
    }
}

#[test]
fn low_load_misses_are_small_and_grow_with_load() {
    // Paper (Sobel): native misses 2.25% → 5.23% → 22.22%; BlastFunction
    // 5.01% → 4.67% → 19.85%. Reproduce: low misses small, high misses
    // large, monotone growth from low to high.
    for deployment_is_bf in [true, false] {
        let get = |level| {
            let r = if deployment_is_bf {
                bf(UseCase::Sobel, level)
            } else {
                native(UseCase::Sobel, level)
            };
            r.aggregate.target_miss_pct()
        };
        let low = get(LoadLevel::Low);
        let high = get(LoadLevel::High);
        assert!(low < 8.0, "low-load miss should be small, got {low:.1}%");
        assert!(
            high > low,
            "misses must grow with load ({low:.1}% -> {high:.1}%)"
        );
        assert!(
            high > 10.0,
            "high load must overload something, got {high:.1}%"
        );
    }
}

#[test]
fn alexnet_latency_penalty_comes_from_per_layer_syncs() {
    // Ablation: with the per-layer synchronizations (PipeCNN's host code),
    // the remote path pays ~30 control RTTs; batched into one task the
    // penalty collapses — proving the mechanism the paper names ("the host
    // code calls multiple times the kernels for each computation").
    let net = blastfunction::workloads::CnnNetwork::alexnet();
    let layered = bf(UseCase::AlexNet, LoadLevel::Medium);
    let batched = run_scenario(
        &ScenarioConfig::new(
            UseCase::AlexNet,
            LoadLevel::Medium,
            Deployment::BlastFunction {
                data_path: DataPathKind::SharedMemory,
            },
        )
        .with_duration(VirtualDuration::from_secs(20))
        .with_profile(net.request_profile_batched()),
    );
    let native = native(UseCase::AlexNet, LoadLevel::Medium);

    let layered_delta = layered.aggregate.mean_latency_ms - native.aggregate.mean_latency_ms;
    let batched_delta = batched.aggregate.mean_latency_ms - native.aggregate.mean_latency_ms;
    assert!(
        layered_delta > 15.0,
        "per-layer syncs must cost tens of ms, got {layered_delta:.1}"
    );
    assert!(
        batched_delta < layered_delta / 3.0,
        "batching must collapse the gap: layered {layered_delta:.1} ms vs batched {batched_delta:.1} ms"
    );
}

#[test]
fn node_a_is_the_first_to_saturate() {
    // Paper: "Node A saturated in both cases as it is not able to keep-up
    // with the target throughput."
    let native = native(UseCase::Sobel, LoadLevel::High);
    let worst = native
        .functions
        .iter()
        .max_by(|a, b| {
            a.target_miss_pct()
                .partial_cmp(&b.target_miss_pct())
                .expect("finite misses")
        })
        .expect("non-empty");
    assert_eq!(
        worst.node, "A",
        "the slow master saturates first: {worst:?}"
    );
}
