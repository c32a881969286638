//! Every metric the binary prints, by name, with its unit and direction.
//! `BENCHMARK.json` lists the same names (a unit test holds the two
//! together) and fixes the regression bounds, which are read from it.

/// A metric's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system would see; every workload reports all six,
/// as the median over repetitions.
pub const END_TO_END: [MetricDef; 6] = [
    def("setup_s", "s", "lower"),
    def("throughput_rps", "1/s", "higher"),
    def("latency_p50_us", "us", "lower"),
    def("latency_p95_us", "us", "lower"),
    def("cpu_ms_per_req", "ms", "lower"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Single layers, from the traced pass; none is gated. A value of 0 means
/// the layer is not on the workload's path.
pub const PER_LAYER: [MetricDef; 69] = [
    // bf-ocl: median wall time of each public call the generator makes.
    def("ocl.write_async_us", "us", "lower"),
    def("ocl.launch_us", "us", "lower"),
    def("ocl.read_async_us", "us", "lower"),
    def("ocl.finish_wait_us", "us", "lower"),
    def("ocl.write_sync_us.grpc", "us", "lower"),
    def("ocl.write_sync_us.shm", "us", "lower"),
    def("ocl.read_vec_us.grpc", "us", "lower"),
    def("ocl.read_vec_us.shm", "us", "lower"),
    def("ocl.native_request_us", "us", "lower"),
    def("ocl.overhead_vs_native_ratio", "ratio", "lower"),
    // bf-remote
    def("remote.self_cpu_ms_per_req", "ms", "lower"),
    def("remote.sync_call_us", "us", "lower"),
    def("remote.connect_us", "us", "lower"),
    // bf-rpc
    def("rpc.codec.encode_us.4k", "us", "lower"),
    def("rpc.codec.encode_us.64k", "us", "lower"),
    def("rpc.codec.encode_us.4m", "us", "lower"),
    def("rpc.codec.decode_us.4k", "us", "lower"),
    def("rpc.codec.decode_us.64k", "us", "lower"),
    def("rpc.codec.decode_us.4m", "us", "lower"),
    def("rpc.transport.frame_rtt_us", "us", "lower"),
    def("rpc.transport.frames_per_s", "1/s", "higher"),
    def("rpc.poller.polls_per_frame", "ratio", "lower"),
    def("rpc.poller.slots_per_poll", "ratio", "lower"),
    def("rpc.shm.cycle_us.300k", "us", "lower"),
    def("rpc.shm.cycle_us.4m", "us", "lower"),
    def("rpc.wire_bytes_per_req", "bytes", "lower"),
    // bf-devmgr
    def("devmgr.direct_request_us", "us", "lower"),
    def("devmgr.self_cpu_ms_per_req", "ms", "lower"),
    def("devmgr.ops_per_req", "count", "lower"),
    def("devmgr.tasks_per_req", "count", "lower"),
    def("devmgr.tenant_fairness", "ratio", "higher"),
    def("devmgr.connect_us", "us", "lower"),
    def("devmgr.scrape_us", "us", "lower"),
    // bf-fpga
    def("fpga.board_request_us", "us", "lower"),
    def("fpga.self_cpu_ms_per_req", "ms", "lower"),
    def("fpga.alloc_free_us", "us", "lower"),
    def("fpga.virtual_busy_ms_per_req", "ms", "lower"),
    // bf-workloads
    def("workloads.sobel_kernel_us.320x240", "us", "lower"),
    def("workloads.sobel_kernel_us.64x64", "us", "lower"),
    // bf-cache
    def("cache.digest_us.64k", "us", "lower"),
    def("cache.digest_mb_s", "MB/s", "higher"),
    def("cache.host_get_us", "us", "lower"),
    def("cache.host_insert_us", "us", "lower"),
    def("cache.hit_ratio", "ratio", "higher"),
    def("cache.evictions_per_kreq", "count", "lower"),
    def("cache.nack_resends_per_kreq", "count", "lower"),
    def("cache.wire_bytes_per_req", "bytes", "lower"),
    def("cache.off_throughput_rps", "1/s", "higher"),
    // bf-registry
    def("registry.place_us.s16", "us", "lower"),
    def("registry.place_us.s1", "us", "lower"),
    def("registry.release_us", "us", "lower"),
    def("registry.allocate_us.63", "us", "lower"),
    def("registry.allocate_us.1000", "us", "lower"),
    def("registry.device_views_us", "us", "lower"),
    def("registry.gather_metrics_us", "us", "lower"),
    def("registry.lock_acquisitions_per_place", "count", "lower"),
    def("registry.max_lock_span", "count", "lower"),
    def("registry.configured_hit_ratio", "ratio", "higher"),
    // bf-metrics
    def("metrics.copied_bytes_per_req", "bytes", "lower"),
    def("metrics.copy_ops_per_req", "count", "lower"),
    def("metrics.counter_inc_ns", "ns", "lower"),
    def("metrics.histogram_observe_ns", "ns", "lower"),
    def("metrics.scrape_us", "us", "lower"),
    // the harness itself, and the client's view
    def("bench.trace_overhead_pct", "%", "lower"),
    def("bench.generator_us_per_req", "us", "lower"),
    def("bench.budget_residual_pct", "%", "lower"),
    def("bench.sched_lag_p95_us", "us", "lower"),
    def("client.latency_p99_us", "us", "lower"),
    def("client.failed_ratio", "ratio", "lower"),
];

/// `BENCHMARK.json`, compiled in: the one place bounds are written.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The bound of an end-to-end metric: the share of the parent's median by
/// which it may get worse.
pub fn bound(metric: &str) -> Option<f64> {
    let doc = serde_json::from_str(BENCHMARK_JSON).ok()?;
    doc["end_to_end"]
        .as_array()?
        .iter()
        .find(|m| m["name"] == metric)?
        .get("bound")?
        .as_f64()
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::workloads;

    fn listed(doc: &serde_json::Value, key: &str) -> Vec<(String, String, String)> {
        doc[key]
            .as_array()
            .expect("array")
            .iter()
            .map(|m| {
                let s = |k: &str| m[k].as_str().unwrap_or_default().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn ours(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn benchmark_json_and_the_binary_list_the_same_names() {
        let doc = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), ours(&PER_LAYER));
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().unwrap_or_default())
            .collect();
        assert_eq!(workloads, workloads::NAMES);
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        let doc = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert!((2..=8).contains(&workloads::NAMES.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for name in workloads::NAMES
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|d| d.name))
            .chain(PER_LAYER.iter().map(|d| d.name))
        {
            assert!(well_formed(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name:?} is used twice");
        }
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(d.unit.len() <= 16 && d.unit.chars().all(unit_ok), "{d:?}");
            assert!(matches!(d.better, "lower" | "higher"), "{d:?}");
        }
        for w in doc["workloads"].as_array().expect("workloads") {
            let why = w["why"].as_str().expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why:?}");
        }
        assert!(BENCHMARK_JSON.len() <= 64 << 10);
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_and_setup_is_one_of_them() {
        for d in &END_TO_END {
            let b = bound(d.name).expect("bound");
            assert!(b > 0.0 && b <= 0.25, "{}: {b}", d.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        assert_eq!(bound("nope"), None);
    }
}
