//! The production-day scale sweep: the trace-driven control-plane
//! benchmark over the [`bf_sim::run_scale`] harness.
//!
//! Three ladder points grow the cluster from the CI smoke size to the
//! full 1000-node / 10k-function production day, all with the complete
//! fault battery (node losses, slow consumers, a shed storm and a
//! stalled-watcher window). Every row is deterministic down to the
//! trace digest, so the whole row set is CI-diffable against the
//! archived `experiments/BENCH_scale.json` — the digest column doubles
//! as the byte-identical-replay certificate for each point.

use bf_sim::{run_scale, ScaleConfig, ScaleResult};

use crate::gate::Rung::{self, Full, Smoke};
use crate::gate::{ArchiveGate, Labelled, Named};

/// Root seed of every ladder point.
pub const SCALE_SEED: u64 = 42;

/// The ladder in sweep order. The `small` point is
/// [`ScaleConfig::smoke`] and the `large` point is
/// [`ScaleConfig::production_day`]; `medium` sits between them. CI's
/// smoke subset is the small point, which still runs 100 nodes / 1k
/// functions with the full fault battery.
pub const SCALE_LADDER: [Rung<Named<ScaleConfig>>; 3] = [
    Smoke(("small", || ScaleConfig::smoke(SCALE_SEED))),
    Full(("medium", || {
        ScaleConfig::production_day(SCALE_SEED)
            .with_nodes(300)
            .with_functions(3_000)
            .with_sessions(3_000)
            .with_day(bf_model::VirtualDuration::from_secs(30))
            .with_base_rps(400.0)
    })),
    Full(("large", || ScaleConfig::production_day(SCALE_SEED))),
];

/// One measured ladder point: the harness's whole result under its
/// ladder label. Every field is deterministic.
pub type ScaleBenchRow = Labelled<ScaleResult>;

/// Runs the sweep over the given ladder points.
pub fn scale_rows(points: &[Named<ScaleConfig>]) -> Vec<ScaleBenchRow> {
    let row = |&(label, config): &Named<ScaleConfig>| Labelled {
        label: label.to_string(),
        result: run_scale(&config()),
    };
    points.iter().map(row).collect()
}

/// Checks the harness invariants every row must satisfy regardless of
/// the archive: request conservation and fault-battery visibility.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn check_scale_invariants(rows: &[ScaleBenchRow]) -> Result<(), String> {
    for Labelled { label, result: r } in rows {
        if r.arrivals != r.processed + r.shed + r.failed_inflight {
            return Err(format!(
                "{}: arrivals {} != processed {} + shed {} + failed_inflight {}",
                label, r.arrivals, r.processed, r.shed, r.failed_inflight
            ));
        }
        if r.node_losses == 0 || r.rerouted == 0 {
            return Err(format!(
                "{}: fault battery invisible (node_losses {}, rerouted {})",
                label, r.node_losses, r.rerouted
            ));
        }
        if r.watch_seen < r.functions {
            return Err(format!(
                "{}: watchers missed the deploy storm ({} seen, {} functions)",
                label, r.watch_seen, r.functions
            ));
        }
    }
    Ok(())
}

/// Renders the sweep as an aligned text table.
pub fn render_scale(title: &str, rows: &[ScaleBenchRow]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<8} {:>6} {:>6} {:>9} {:>9} {:>7} {:>7} {:>6} {:>6} {:>9} {:>13} {:>9} {:>10} {:>8} {:>17}\n",
        "point",
        "nodes",
        "fns",
        "arrivals",
        "processed",
        "shed",
        "failed",
        "p99",
        "hit%",
        "polls",
        "slots_scanned",
        "watch_ev",
        "deliveries",
        "maxshard",
        "digest"
    ));
    for Labelled { label, result: r } in rows {
        out.push_str(&format!(
            "{:<8} {:>6} {:>6} {:>9} {:>9} {:>7} {:>7} {:>4.1}ms {:>5.1}% {:>9} {:>13} {:>9} {:>10} {:>8} {:>17}\n",
            label,
            r.nodes,
            r.functions,
            r.arrivals,
            r.processed,
            r.shed,
            r.failed_inflight,
            r.latency_p99_ms,
            r.cache_hit_ratio * 100.0,
            r.poller_polls,
            r.poller_slots_scanned,
            r.watch_events,
            r.watch_deliveries,
            r.metrics_max_shard,
            r.trace_digest,
        ));
    }
    out
}

/// `bf-bench scale`: this harness behind the shared archive gate.
pub const SCALE_GATE: ArchiveGate<Named<ScaleConfig>, ScaleBenchRow> = ArchiveGate {
    name: "scale",
    title: "Scale — production-day sweep (diurnal Zipf traffic, full fault battery)",
    ladder: &SCALE_LADDER,
    rows: scale_rows,
    render: render_scale,
    invariants: Some(check_scale_invariants),
    violated: "scale invariant violated",
    key: &["label"],
    informational: &[],
    what: "scale sweep",
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_labels_are_a_subset_of_the_ladder() {
        SCALE_GATE.assert_smoke_is_a_proper_subset();
    }

    #[test]
    fn every_ladder_label_resolves() {
        for (label, config) in SCALE_GATE.points(false) {
            assert!(config().nodes > 0, "{label}");
        }
    }

    #[test]
    fn smoke_row_satisfies_the_invariants() {
        let rows = scale_rows(&SCALE_GATE.points(true));
        assert!(check_scale_invariants(&rows).is_ok(), "{rows:?}");
        SCALE_GATE.assert_names_are_fields_of(&rows[0]);
    }
}
