#![forbid(unsafe_code)]

//! # bf-sim — the multi-tenant cluster simulation (Tables I–IV)
//!
//! Deterministic discrete-event reproduction of the paper's §IV-B
//! experiments: three FPGA nodes (A gen2, B/C gen3), five BlastFunction
//! functions (or three native ones), `hey`-style closed-loop load at the
//! Table I rates, FIFO device sharing with the calibrated remoting costs,
//! and per-function utilization attribution.
//!
//! ```
//! use bf_model::{DataPathKind, VirtualDuration};
//! use bf_sim::{run_scenario, Deployment, ScenarioConfig};
//! use bf_workloads::{LoadLevel, UseCase};
//!
//! let cfg = ScenarioConfig::new(
//!     UseCase::Sobel,
//!     LoadLevel::Low,
//!     Deployment::BlastFunction { data_path: DataPathKind::SharedMemory },
//! )
//! .with_duration(VirtualDuration::from_secs(5));
//! let result = run_scenario(&cfg);
//! assert_eq!(result.functions.len(), 5);
//! ```

mod config;
mod digest;
mod result;
mod scale;
mod scenario;
mod trace;
mod world;

pub use config::{Deployment, ScenarioConfig};
pub use result::{Aggregate, FunctionResult, ScenarioResult};
pub use scale::{run_scale, FaultPlan, ScaleConfig, ScaleResult, ShedStorm, SimFpgaDevice, Window};
pub use scenario::run_scenario;
pub use trace::{to_chrome_trace, TraceSpan};

#[cfg(test)]
mod tests {
    use bf_model::{DataPathKind, VirtualDuration};
    use bf_workloads::{LoadLevel, UseCase};

    use super::*;

    fn bf(use_case: UseCase, level: LoadLevel) -> ScenarioResult {
        run_scenario(
            &ScenarioConfig::new(
                use_case,
                level,
                Deployment::BlastFunction {
                    data_path: DataPathKind::SharedMemory,
                },
            )
            .with_duration(VirtualDuration::from_secs(30)),
        )
    }

    fn native(use_case: UseCase, level: LoadLevel) -> ScenarioResult {
        run_scenario(
            &ScenarioConfig::new(use_case, level, Deployment::Native)
                .with_duration(VirtualDuration::from_secs(30)),
        )
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = ScenarioConfig::new(
            UseCase::Sobel,
            LoadLevel::Medium,
            Deployment::BlastFunction {
                data_path: DataPathKind::SharedMemory,
            },
        )
        .with_duration(VirtualDuration::from_secs(10));
        let a = run_scenario(&cfg);
        let b = run_scenario(&cfg);
        assert_eq!(a.aggregate.processed_rps, b.aggregate.processed_rps);
        assert_eq!(a.aggregate.mean_latency_ms, b.aggregate.mean_latency_ms);
        for (fa, fb) in a.functions.iter().zip(&b.functions) {
            assert_eq!(fa.utilization, fb.utilization);
        }
    }

    #[test]
    fn sobel_low_load_meets_targets_in_both_deployments() {
        for result in [
            bf(UseCase::Sobel, LoadLevel::Low),
            native(UseCase::Sobel, LoadLevel::Low),
        ] {
            for f in &result.functions {
                assert!(
                    f.target_miss_pct() < 10.0,
                    "{} {} missed its target by {:.1}%",
                    result.deployment,
                    f.function,
                    f.target_miss_pct()
                );
            }
        }
    }

    #[test]
    fn sobel_latencies_are_in_the_paper_band() {
        // Table II reports 17-32 ms across every configuration.
        for result in [
            bf(UseCase::Sobel, LoadLevel::Low),
            native(UseCase::Sobel, LoadLevel::Low),
        ] {
            for f in &result.functions {
                assert!(
                    (15.0..40.0).contains(&f.mean_latency_ms),
                    "{} {}: {:.2} ms",
                    result.deployment,
                    f.function,
                    f.mean_latency_ms
                );
            }
        }
    }

    #[test]
    fn sobel_high_load_shows_the_papers_shape() {
        let bf = bf(UseCase::Sobel, LoadLevel::High);
        let native = native(UseCase::Sobel, LoadLevel::High);
        // BlastFunction serves more absolute load (5 functions vs 3).
        assert!(
            bf.aggregate.processed_rps > native.aggregate.processed_rps,
            "bf {:.1} <= native {:.1}",
            bf.aggregate.processed_rps,
            native.aggregate.processed_rps
        );
        // Sharing lifts aggregate utilization.
        assert!(
            bf.aggregate.utilization_pct > native.aggregate.utilization_pct,
            "bf {:.1}% <= native {:.1}%",
            bf.aggregate.utilization_pct,
            native.aggregate.utilization_pct
        );
        // Node A saturates under native: its function misses the target
        // substantially (paper: 38.36 of 60 rq/s).
        let native_a = native
            .functions
            .iter()
            .find(|f| f.node == "A")
            .expect("a native function runs on node A");
        assert!(
            native_a.target_miss_pct() > 15.0,
            "node A should saturate, missed only {:.1}%",
            native_a.target_miss_pct()
        );
    }

    #[test]
    fn mm_native_misses_targets_much_more_than_bf_at_high_load() {
        let bf = bf(UseCase::Mm, LoadLevel::High);
        let native = native(UseCase::Mm, LoadLevel::High);
        // Paper: 39.97% native miss vs 1.22% BlastFunction miss. The
        // reproduction preserves the ordering and a clear separation (the
        // paper's native-MM latencies are anomalously high and are not
        // fully explained by its own cost model; see EXPERIMENTS.md).
        assert!(
            native.aggregate.target_miss_pct() > 2.0 * bf.aggregate.target_miss_pct().max(1.0),
            "native miss {:.1}% vs bf miss {:.1}%",
            native.aggregate.target_miss_pct(),
            bf.aggregate.target_miss_pct()
        );
        assert!(
            bf.aggregate.target_miss_pct() < 5.0,
            "bf should nearly meet its targets"
        );
        assert!(bf.aggregate.processed_rps > native.aggregate.processed_rps);
    }

    #[test]
    fn alexnet_bf_pays_multi_kernel_control_overhead_but_serves_more() {
        let bf = bf(UseCase::AlexNet, LoadLevel::Medium);
        let native = native(UseCase::AlexNet, LoadLevel::Medium);
        let delta = bf.aggregate.mean_latency_ms - native.aggregate.mean_latency_ms;
        // Paper: 132.89 − 94.29 ≈ 39 ms. Our delta runs higher (~68 ms):
        // ~31 ms of per-layer control round trips plus queueing, because the
        // per-inference busy time is calibrated to the paper's *native*
        // utilization anchor (~81 ms/inference) while its BF rows imply only
        // ~70 ms — the paper's own Table IV is internally inconsistent. See
        // EXPERIMENTS.md D5.
        assert!(
            (15.0..80.0).contains(&delta),
            "latency delta {delta:.1} ms (bf {:.1}, native {:.1})",
            bf.aggregate.mean_latency_ms,
            native.aggregate.mean_latency_ms
        );
        // Sharing still serves more requests and reaches higher utilization.
        assert!(bf.aggregate.processed_rps > native.aggregate.processed_rps);
        assert!(bf.aggregate.utilization_pct > native.aggregate.utilization_pct);
    }

    #[test]
    fn grpc_data_path_is_slower_than_shm_for_sobel() {
        let shm = bf(UseCase::Sobel, LoadLevel::Low);
        let grpc = run_scenario(
            &ScenarioConfig::new(
                UseCase::Sobel,
                LoadLevel::Low,
                Deployment::BlastFunction {
                    data_path: DataPathKind::Grpc,
                },
            )
            .with_duration(VirtualDuration::from_secs(30)),
        );
        assert!(
            grpc.aggregate.mean_latency_ms > shm.aggregate.mean_latency_ms + 3.0,
            "grpc {:.2} ms vs shm {:.2} ms",
            grpc.aggregate.mean_latency_ms,
            shm.aggregate.mean_latency_ms
        );
    }

    #[test]
    fn space_sharing_trades_latency_for_capacity() {
        // The future-work ablation: AlexNet at high load saturates under
        // pure time-sharing; two half-size regions (1.6x slower kernels)
        // serve more requests at higher per-request latency.
        let base = ScenarioConfig::new(
            UseCase::AlexNet,
            LoadLevel::High,
            Deployment::BlastFunction {
                data_path: DataPathKind::SharedMemory,
            },
        )
        .with_duration(VirtualDuration::from_secs(20));
        let time_shared = run_scenario(&base);
        let space_shared = run_scenario(&base.clone().with_space_sharing(2, 1.6));
        assert!(
            space_shared.aggregate.processed_rps > time_shared.aggregate.processed_rps,
            "2 regions {:.2} rq/s <= 1 region {:.2} rq/s",
            space_shared.aggregate.processed_rps,
            time_shared.aggregate.processed_rps
        );
        assert!(
            space_shared.aggregate.mean_latency_ms > time_shared.aggregate.mean_latency_ms * 0.9,
            "slower kernels must not magically cut latency"
        );
    }

    #[test]
    fn timeline_spans_are_well_formed_and_exportable() {
        let result = bf(UseCase::Sobel, LoadLevel::Low);
        assert!(!result.timeline.is_empty());
        // Per (device, slot) the spans never overlap (one board region is
        // one serial server) and are chronologically ordered.
        let mut by_region: std::collections::BTreeMap<(String, u32), Vec<&TraceSpan>> =
            std::collections::BTreeMap::new();
        for span in &result.timeline {
            assert!(span.end_ms >= span.start_ms);
            by_region
                .entry((span.device.clone(), span.slot))
                .or_default()
                .push(span);
        }
        for spans in by_region.values() {
            for pair in spans.windows(2) {
                assert!(
                    pair[1].start_ms >= pair[0].end_ms - 1e-9,
                    "overlap: {:?} then {:?}",
                    pair[0],
                    pair[1]
                );
            }
        }
        let json = result.to_chrome_trace();
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid trace json");
        assert!(parsed.as_array().expect("array").len() > result.timeline.len());
    }

    #[test]
    fn utilization_attribution_sums_to_device_totals() {
        let result = bf(UseCase::Sobel, LoadLevel::Medium);
        for (device, total) in &result.device_utilization {
            let sum: f64 = result
                .functions
                .iter()
                .filter(|f| &f.device == device)
                .map(|f| f.utilization)
                .sum();
            assert!(
                (sum - total).abs() < 1e-9,
                "{device}: per-function {sum} != device {total}"
            );
        }
    }
}
