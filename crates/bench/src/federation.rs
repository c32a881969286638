//! The federated control-plane ladder: the placement benchmark over the
//! [`bf_sim::run_federation`] harness.
//!
//! The ladder holds the workload fixed (the production day: 1000 nodes,
//! 10k functions, churn, failures, one join/leave rebalance) and sweeps
//! the shard count — 1, 4, 16 — so the only thing that changes is how
//! the control plane is partitioned. Two smoke points (100 nodes at 1
//! and 16 shards) run the same comparison at CI size, so the contention
//! gate holds in the smoke subset too. Every row is deterministic down
//! to the trace digest and is CI-diffed against the archived
//! `experiments/BENCH_federation.json`.

use bf_sim::{run_federation, FederationConfig, FederationResult};

use crate::gate::Rung::{self, Full, Smoke};
use crate::gate::{ArchiveGate, Labelled, Named};

/// The ladder in sweep order. CI's smoke subset is both 100-node
/// points, so the smoke gate still compares 1 shard against 16.
pub const FEDERATION_LADDER: [Rung<Named<FederationConfig>>; 5] = [
    Smoke(("smoke-1", || FederationConfig::smoke(1))),
    Smoke(("smoke-16", || FederationConfig::smoke(16))),
    Full(("1-shard", || FederationConfig::ladder(1))),
    Full(("4-shard", || FederationConfig::ladder(4))),
    Full(("16-shard", || FederationConfig::ladder(16))),
];

/// Floor on the fraction of placements that avoid a cold reprogram
/// (landed configured or warm) — the allocation-quality gate.
pub const FEDERATION_QUALITY_FLOOR: f64 = 0.25;

/// Required max-lock-span improvement between the 1-shard baseline and
/// a point with [`FEDERATION_SPAN_RATIO`]x the shards, within one
/// workload size.
pub const FEDERATION_SPAN_DROP: u64 = 4;

/// Shard-count growth that triggers the contention gate (the ladder's
/// 1-shard -> 16-shard comparison).
pub const FEDERATION_SPAN_RATIO: u64 = 16;

/// One measured ladder point: the harness's whole result under its
/// ladder label. Every field is deterministic.
pub type FederationBenchRow = Labelled<FederationResult>;

/// Fraction of placements that avoided a cold reprogram.
fn quality(r: &FederationResult) -> f64 {
    if r.placed == 0 {
        0.0
    } else {
        (r.configured + r.warm) as f64 / r.placed as f64
    }
}

/// Runs the sweep over the given ladder points.
pub fn federation_rows(points: &[Named<FederationConfig>]) -> Vec<FederationBenchRow> {
    let row = |&(label, config): &Named<FederationConfig>| Labelled {
        label: label.to_string(),
        result: run_federation(&config()),
    };
    points.iter().map(row).collect()
}

/// Checks the invariants every run must satisfy regardless of the
/// archive: outcome conservation, fault/rebalance visibility, the
/// allocation-quality floor, and the sharded contention drop.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn check_federation_invariants(rows: &[FederationBenchRow]) -> Result<(), String> {
    for Labelled { label, result: r } in rows {
        if r.configured + r.warm + r.cold != r.placed {
            return Err(format!(
                "{}: outcomes {}+{}+{} != placed {}",
                label, r.configured, r.warm, r.cold, r.placed
            ));
        }
        if r.placed < r.functions as u64 {
            return Err(format!(
                "{}: storm under-placed ({} placed, {} functions)",
                label, r.placed, r.functions
            ));
        }
        if r.migrated == 0 {
            return Err(format!("{}: failure battery invisible (0 migrated)", label));
        }
        if r.rebalance_moves == 0 {
            return Err(format!("{}: join/leave rebalance moved nothing", label));
        }
        if quality(r) < FEDERATION_QUALITY_FLOOR {
            return Err(format!(
                "{}: allocation quality {:.1}% below the {:.0}% floor",
                label,
                quality(r) * 100.0,
                FEDERATION_QUALITY_FLOOR * 100.0
            ));
        }
    }
    // Contention gate: within one workload size, growing the shard
    // count FEDERATION_SPAN_RATIO times (the 1 -> 16 ladder step) must
    // cut the max per-lock span at least FEDERATION_SPAN_DROP times.
    for base in rows {
        for wide in rows {
            let (b, w) = (&base.result, &wide.result);
            if b.nodes != w.nodes
                || b.functions != w.functions
                || (w.shards as u64) < b.shards as u64 * FEDERATION_SPAN_RATIO
            {
                continue;
            }
            if w.max_lock_span * FEDERATION_SPAN_DROP > b.max_lock_span {
                return Err(format!(
                    "{} -> {}: max lock span {} -> {} misses the {}x drop",
                    base.label, wide.label, b.max_lock_span, w.max_lock_span, FEDERATION_SPAN_DROP
                ));
            }
        }
    }
    Ok(())
}

/// Renders the sweep as an aligned text table.
pub fn render_federation(title: &str, rows: &[FederationBenchRow]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<9} {:>6} {:>6} {:>6} {:>7} {:>7} {:>6} {:>6} {:>8} {:>8} {:>8} {:>9} {:>9} {:>17}\n",
        "point",
        "shards",
        "nodes",
        "fns",
        "placed",
        "config",
        "warm",
        "cold",
        "reprog",
        "migrate",
        "rebal",
        "maxspan",
        "acqs",
        "digest"
    ));
    for Labelled { label, result: r } in rows {
        out.push_str(&format!(
            "{:<9} {:>6} {:>6} {:>6} {:>7} {:>7} {:>6} {:>6} {:>8} {:>8} {:>8} {:>9} {:>9} {:>17}\n",
            label,
            r.shards,
            r.nodes,
            r.functions,
            r.placed,
            r.configured,
            r.warm,
            r.cold,
            r.reconfigurations,
            r.migrated,
            r.rebalance_moves,
            r.max_lock_span,
            r.lock_acquisitions,
            r.trace_digest,
        ));
    }
    out
}

/// `bf-bench federation`: this harness behind the shared archive gate.
pub const FEDERATION_GATE: ArchiveGate<Named<FederationConfig>, FederationBenchRow> = ArchiveGate {
    name: "federation",
    title: "Federation — sharded control plane (placement storm, churn, failures, rebalance)",
    ladder: &FEDERATION_LADDER,
    rows: federation_rows,
    render: render_federation,
    invariants: Some(check_federation_invariants),
    violated: "federation invariant violated",
    key: &["label"],
    informational: &[],
    what: "federation ladder",
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_labels_are_a_subset_of_the_ladder() {
        FEDERATION_GATE.assert_smoke_is_a_proper_subset();
    }

    #[test]
    fn every_ladder_label_resolves() {
        for (label, config) in FEDERATION_GATE.points(false) {
            let cfg = config();
            assert!(cfg.shards > 0 && cfg.nodes > 0, "{label}");
        }
    }

    #[test]
    fn smoke_rows_satisfy_the_invariants() {
        let rows = federation_rows(&FEDERATION_GATE.points(true));
        assert!(check_federation_invariants(&rows).is_ok(), "{rows:?}");
        FEDERATION_GATE.assert_names_are_fields_of(&rows[0]);
    }
}
