//! The production-day scale sweep: the trace-driven control-plane
//! benchmark over the [`bf_sim::run_scale`] harness.
//!
//! The ladder grows the cluster from the CI smoke size to the full
//! 1000-node / 10k-function production day, all with the complete fault
//! battery (node losses, slow consumers, restarts, a shed storm, a
//! stalled-watcher window and a registry rebalance), every instance
//! placed by Algorithm 1. At the smoke and the full size it also sweeps
//! the registry's shard count, so the only thing that changes between
//! those rows is how the control plane is partitioned. Every row is
//! deterministic down to the trace digest, so the whole row set is
//! CI-diffable against the archived `experiments/BENCH_scale.json` — the
//! digest column doubles as the byte-identical-replay certificate for
//! each point.

use bf_model::VirtualDuration;
use bf_sim::{run_scale, ScaleConfig, ScaleResult};

use crate::gate::Rung::{self, Full, Smoke};
use crate::gate::{ArchiveGate, Labelled, Named};

/// Root seed of every ladder point.
pub const SCALE_SEED: u64 = 42;

/// The ladder in sweep order. `small` is [`ScaleConfig::smoke`] and
/// `large` is [`ScaleConfig::production_day`], both on the paper's
/// single registry; `medium` sits between them, and a `-N` suffix runs
/// the same day on N registry shards. CI's smoke subset is both small
/// points, so the smoke gate still compares 1 shard against 16.
pub const SCALE_LADDER: [Rung<Named<ScaleConfig>>; 6] = [
    Smoke(("small", || ScaleConfig::smoke(SCALE_SEED))),
    Smoke(("small-16", || ScaleConfig {
        shards: 16,
        ..ScaleConfig::smoke(SCALE_SEED)
    })),
    Full(("medium", || ScaleConfig {
        nodes: 300,
        functions: 3_000,
        sessions: 3_000,
        day: VirtualDuration::from_secs(30),
        base_rps: 400.0,
        ..ScaleConfig::production_day(SCALE_SEED)
    })),
    Full(("large", || ScaleConfig::production_day(SCALE_SEED))),
    Full(("large-4", || ScaleConfig {
        shards: 4,
        ..ScaleConfig::production_day(SCALE_SEED)
    })),
    Full(("large-16", || ScaleConfig {
        shards: 16,
        ..ScaleConfig::production_day(SCALE_SEED)
    })),
];

/// Floor on the fraction of placements that avoid a cold reprogram
/// (landed configured or warm) — the allocation-quality gate.
pub const SCALE_QUALITY_FLOOR: f64 = 0.25;

/// Required max-lock-span improvement between a 1-shard row and a row
/// of the same size with [`SCALE_SPAN_RATIO`]x the shards.
pub const SCALE_SPAN_DROP: u64 = 4;

/// Shard-count growth that triggers the contention gate (the ladder's
/// 1-shard -> 16-shard comparison).
pub const SCALE_SPAN_RATIO: u64 = 16;

/// One measured ladder point: the harness's whole result under its
/// ladder label. Every field is deterministic.
pub type ScaleBenchRow = Labelled<ScaleResult>;

/// Fraction of placements that avoided a cold reprogram.
fn quality(r: &ScaleResult) -> f64 {
    if r.placed == 0 {
        0.0
    } else {
        (r.configured + r.warm) as f64 / r.placed as f64
    }
}

/// Runs the sweep over the given ladder points.
pub fn scale_rows(points: &[Named<ScaleConfig>]) -> Vec<ScaleBenchRow> {
    let row = |&(label, config): &Named<ScaleConfig>| Labelled {
        label: label.to_string(),
        result: run_scale(&config()),
    };
    points.iter().map(row).collect()
}

/// Checks the invariants every row must satisfy regardless of the
/// archive: request and outcome conservation, fault-battery and
/// rebalance visibility, the allocation-quality floor, and the sharded
/// contention drop.
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
        if r.configured + r.warm + r.cold != r.placed {
            return Err(format!(
                "{}: outcomes {}+{}+{} != placed {}",
                label, r.configured, r.warm, r.cold, r.placed
            ));
        }
        if r.placed < r.functions {
            return Err(format!(
                "{}: storm under-placed ({} placed, {} functions)",
                label, r.placed, r.functions
            ));
        }
        if r.node_losses == 0 || r.rerouted == 0 || r.rebalance_moves == 0 {
            return Err(format!(
                "{}: fault battery invisible (node_losses {}, rerouted {}, rebalance_moves {})",
                label, r.node_losses, r.rerouted, r.rebalance_moves
            ));
        }
        if r.watch_seen < r.functions {
            return Err(format!(
                "{}: watchers missed the deploy storm ({} seen, {} functions)",
                label, r.watch_seen, r.functions
            ));
        }
        if quality(r) < SCALE_QUALITY_FLOOR {
            return Err(format!(
                "{}: allocation quality {:.1}% below the {:.0}% floor",
                label,
                quality(r) * 100.0,
                SCALE_QUALITY_FLOOR * 100.0
            ));
        }
    }
    // Contention gate: within one workload size, growing the shard
    // count SCALE_SPAN_RATIO times (the 1 -> 16 ladder step) must cut
    // the max per-lock span at least SCALE_SPAN_DROP times.
    for base in rows {
        for wide in rows {
            let (b, w) = (&base.result, &wide.result);
            if b.nodes != w.nodes
                || b.functions != w.functions
                || w.shards < b.shards * SCALE_SPAN_RATIO
            {
                continue;
            }
            if w.max_lock_span * SCALE_SPAN_DROP > b.max_lock_span {
                return Err(format!(
                    "{} -> {}: max lock span {} -> {} misses the {}x drop",
                    base.label, wide.label, b.max_lock_span, w.max_lock_span, SCALE_SPAN_DROP
                ));
            }
        }
    }
    Ok(())
}

/// Renders the sweep as an aligned text table.
pub fn render_scale(title: &str, rows: &[ScaleBenchRow]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<8} {:>6} {:>6} {:>6} {:>9} {:>9} {:>7} {:>7} {:>6} {:>6} {:>9} {:>13} {:>10} {:>7} {:>6} {:>6} {:>7} {:>8} {:>17}\n",
        "point",
        "shards",
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
        "deliveries",
        "config",
        "warm",
        "cold",
        "refused",
        "maxspan",
        "digest"
    ));
    for Labelled { label, result: r } in rows {
        out.push_str(&format!(
            "{:<8} {:>6} {:>6} {:>6} {:>9} {:>9} {:>7} {:>7} {:>4.1}ms {:>5.1}% {:>9} {:>13} {:>10} {:>7} {:>6} {:>6} {:>7} {:>8} {:>17}\n",
            label,
            r.shards,
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
            r.watch_deliveries,
            r.configured,
            r.warm,
            r.cold,
            r.refused,
            r.max_lock_span,
            r.trace_digest,
        ));
    }
    out
}

/// `bf-bench scale`: this harness behind the shared archive gate.
pub const SCALE_GATE: ArchiveGate<Named<ScaleConfig>, ScaleBenchRow> = ArchiveGate {
    name: "scale",
    title: "Scale — production-day sweep (diurnal Zipf traffic, Algorithm 1 placement, full fault battery)",
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
            let cfg = config();
            assert!(cfg.shards > 0 && cfg.nodes > 0, "{label}");
        }
    }

    #[test]
    fn smoke_row_satisfies_the_invariants() {
        let rows = scale_rows(&SCALE_GATE.points(true));
        assert!(check_scale_invariants(&rows).is_ok(), "{rows:?}");
        SCALE_GATE.assert_names_are_fields_of(&rows[0]);
    }
}
