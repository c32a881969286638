//! Gateway batching benchmark: open-loop arrival-rate sweep of the typed
//! invocation API, batched vs unbatched.
//!
//! Every request is a Table-II Sobel invocation (1920×1080 frame each
//! way) served by a profile-driven handler on node B: each dispatch pays
//! a fixed overhead (function host wrapper + the two control hops of the
//! shared-memory path) and each invocation in the batch pays the
//! profile's device service time. Coalescing amortizes the fixed part
//! over the batch, so the batched queue sustains a strictly higher
//! saturation throughput than the unbatched one — the effect this sweep
//! measures and CI pins.
//!
//! Everything here runs in virtual time, so every field of every row is
//! deterministic and the whole row set is CI-diffable against the
//! archived `experiments/BENCH_gateway.json`.

use serde::Serialize;
use std::sync::Arc;

use bf_model::{node_b, VirtualClock, VirtualDuration, VirtualTime};
use bf_rpc::PathCosts;
use bf_serverless::{
    run_open_loop, BatchHandler, Batcher, Completion, Gateway, HandlerError, Invocation, UseCase,
};
use bf_sim::request_profile;

use crate::gate::ArchiveGate;
use crate::gate::Rung::{self, Full, Smoke};

/// The full arrival-rate ladder (rq/s). Unbatched Sobel saturates near
/// 52 rq/s and batched near 66 rq/s on node B, so the ladder brackets
/// both knees with headroom above. The CI smoke subset runs the same
/// virtual duration as the full ladder, so its rows are directly
/// comparable to the archive.
pub const GATEWAY_LADDER: [Rung<f64>; 8] = [
    Full(10.0),
    Smoke(20.0),
    Full(35.0),
    Smoke(50.0),
    Full(65.0),
    Smoke(80.0),
    Full(100.0),
    Smoke(120.0),
];

/// Virtual measurement window per (mode, rate) point.
pub fn gateway_duration() -> VirtualDuration {
    VirtualDuration::from_secs(30)
}

/// The two admission/coalescing configurations under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayMode {
    /// One invocation per dispatch (the old closure-API behaviour).
    Unbatched,
    /// The default coalescing envelope (batch ≤ 8, 5 ms linger).
    Batched,
}

impl GatewayMode {
    /// Row tag used in tables and the JSON artifact.
    pub fn label(self) -> &'static str {
        match self {
            GatewayMode::Unbatched => "unbatched",
            GatewayMode::Batched => "batched",
        }
    }

    /// Both modes in presentation order.
    pub fn all() -> [GatewayMode; 2] {
        [GatewayMode::Unbatched, GatewayMode::Batched]
    }

    fn batcher(self) -> Batcher {
        match self {
            // Same queue capacity in both modes so admission control is
            // identical and only coalescing differs.
            GatewayMode::Unbatched => Batcher::unbatched(),
            GatewayMode::Batched => Batcher::new(),
        }
    }
}

/// A profile-driven batch handler: one fixed dispatch overhead per batch
/// plus the workload's device service time per invocation, both taken
/// from the calibrated cost models.
struct ProfileBatchHandler {
    dispatch_overhead: VirtualDuration,
    service_time: VirtualDuration,
}

impl ProfileBatchHandler {
    fn sobel_on_b() -> Self {
        let node = node_b();
        let costs = PathCosts::local_shm();
        ProfileBatchHandler {
            // Function host wrapper + submit/complete control hops, paid
            // once per dispatch regardless of batch size.
            dispatch_overhead: node.host_overhead() + costs.control_hop() * 2,
            service_time: request_profile(UseCase::Sobel).service_time(&node),
        }
    }
}

impl BatchHandler for ProfileBatchHandler {
    fn handle_batch(
        &self,
        start: VirtualTime,
        batch: &[Invocation],
    ) -> Vec<Result<Completion, HandlerError>> {
        let mut cursor = start + self.dispatch_overhead;
        batch
            .iter()
            .map(|_| {
                cursor += self.service_time;
                Ok(Completion::at(cursor))
            })
            .collect()
    }
}

/// One measured (mode, rate) point. All fields are virtual-time
/// deterministic.
#[derive(Debug, Clone, Serialize)]
pub struct GatewayRow {
    /// `"unbatched"` or `"batched"`.
    pub mode: String,
    /// Offered arrival rate (rq/s).
    pub rate: f64,
    /// Arrivals inside the window.
    pub offered: u64,
    /// Requests completed by the end of the window.
    pub processed: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests failed in the handler.
    pub failed: u64,
    /// Mean end-to-end latency (ms) over completed requests.
    pub mean_latency_ms: f64,
    /// 99th-percentile end-to-end latency (ms).
    pub p99_latency_ms: f64,
    /// Completions per second over the window.
    pub achieved_rps: f64,
    /// Mean dispatched batch size.
    pub mean_batch_size: f64,
}

fn measure_one(mode: GatewayMode, rate: f64) -> GatewayRow {
    let gateway = Gateway::new().with_forward_latency(VirtualDuration::from_micros(300));
    gateway.deploy(
        "sobel",
        mode.batcher(),
        Arc::new(ProfileBatchHandler::sobel_on_b()),
    );
    let clock = VirtualClock::new();
    let result = run_open_loop(&gateway, "sobel", rate, gateway_duration(), &clock)
        // bf-lint: allow(panic): the function was deployed three lines up;
        // an error here is a harness bug, never a runtime condition.
        .expect("open-loop run on a just-deployed function");
    GatewayRow {
        mode: mode.label().to_string(),
        rate,
        offered: result.offered,
        processed: result.processed,
        shed: result.shed,
        failed: result.failed,
        mean_latency_ms: result.mean_latency.as_millis_f64(),
        p99_latency_ms: result.p99_latency.as_millis_f64(),
        achieved_rps: result.achieved_rps,
        mean_batch_size: result.mean_batch_size,
    }
}

/// Runs the arrival-rate sweep over both modes.
pub fn gateway_rows(rates: &[f64]) -> Vec<GatewayRow> {
    let mut rows = Vec::new();
    for mode in GatewayMode::all() {
        for &rate in rates {
            rows.push(measure_one(mode, rate));
        }
    }
    rows
}

/// The peak sustained throughput (max `achieved_rps`) of `mode` in `rows`.
pub fn peak_throughput(rows: &[GatewayRow], mode: GatewayMode) -> f64 {
    rows.iter()
        .filter(|r| r.mode == mode.label())
        .map(|r| r.achieved_rps)
        .fold(0.0, f64::max)
}

/// Checks the headline claim: the batched queue's peak throughput must be
/// strictly higher than the unbatched one's. Returns an error description
/// when it is not.
///
/// # Errors
///
/// Returns the two peak numbers when batched does not beat unbatched.
pub fn check_batching_wins(rows: &[GatewayRow]) -> Result<(), String> {
    let unbatched = peak_throughput(rows, GatewayMode::Unbatched);
    let batched = peak_throughput(rows, GatewayMode::Batched);
    if batched > unbatched {
        Ok(())
    } else {
        Err(format!(
            "batched peak {batched:.2} rq/s does not beat unbatched peak {unbatched:.2} rq/s"
        ))
    }
}

/// Renders the sweep as an aligned text table.
pub fn render_gateway(title: &str, rows: &[GatewayRow]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<10} {:>7} {:>8} {:>10} {:>6} {:>7} {:>10} {:>10} {:>10} {:>7}\n",
        "mode",
        "rate",
        "offered",
        "processed",
        "shed",
        "failed",
        "mean",
        "p99",
        "achieved",
        "batch"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>7.0} {:>8} {:>10} {:>6} {:>7} {:>8.2}ms {:>8.2}ms {:>10.2} {:>7.2}\n",
            r.mode,
            r.rate,
            r.offered,
            r.processed,
            r.shed,
            r.failed,
            r.mean_latency_ms,
            r.p99_latency_ms,
            r.achieved_rps,
            r.mean_batch_size,
        ));
    }
    out
}

/// `bf-bench gateway`: this harness behind the shared archive gate.
pub const GATEWAY_GATE: ArchiveGate<f64, GatewayRow> = ArchiveGate {
    name: "gateway",
    title: "Gateway — open-loop Sobel sweep, batched vs unbatched invocation queues",
    ladder: &GATEWAY_LADDER,
    rows: gateway_rows,
    render: render_gateway,
    invariants: Some(check_batching_wins),
    violated: "batching regression",
    key: &["mode", "rate"],
    informational: &[],
    what: "gateway sweep",
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_rates_are_a_subset_of_the_ladder() {
        GATEWAY_GATE.assert_smoke_is_a_proper_subset();
    }

    #[test]
    fn batched_sustains_more_than_unbatched_at_saturation() {
        // One saturating rate per mode is enough for the headline claim.
        let rows = vec![measure_one(GatewayMode::Unbatched, 120.0), {
            let r = measure_one(GatewayMode::Batched, 120.0);
            assert!(r.mean_batch_size > 1.5, "saturated batches coalesce: {r:?}");
            r
        }];
        assert!(check_batching_wins(&rows).is_ok(), "{rows:?}");
    }

    #[test]
    fn key_names_are_row_fields() {
        GATEWAY_GATE.assert_names_are_fields_of(&measure_one(GatewayMode::Batched, 20.0));
    }
}
