//! Content-addressed payload-cache benchmark: wire bytes moved per
//! request with and without the Device Manager's cache.
//!
//! Each ladder point drives one manager over the gRPC data path with a
//! Zipf(1.2) request stream over a catalog of distinct payloads — the
//! serverless hot-set shape (a few popular function inputs dominate the
//! stream). With the cache off every request ships its payload inline;
//! with it on, a repeat of content the manager still holds travels as a
//! 16-byte (truncated SHA-256) digest reference and the host tier
//! resolves it locally, so
//! the wire carries payload bytes only for first occurrences and
//! post-eviction resends (the `CacheMiss` NACK path).
//!
//! Every field of a row is deterministic: the request stream is
//! seeded, the client session serializes operations, and the manager's
//! [`bf_cache::CacheStats`] counters account for every elided byte —
//! `wire_bytes = offered - bytes_saved` exactly. The `churn` point
//! deliberately overflows the host tier so the eviction and NACK-resend
//! machinery is exercised (and archived), not just the pure-hit path.

use std::process::ExitCode;

use serde::Serialize;

use bf_cache::CacheStats;
use bf_devmgr::DeviceManagerConfig;
use bf_fpga::Payload;
use bf_ocl::ClResult;
use bf_rpc::PathCosts;
use bf_simkit::{SimRng, ZipfSampler};

use crate::gate::ArchiveGate;
use crate::gate::Rung::{self, Full, Smoke};
use crate::managed_device;

/// Root seed of the request stream (one fresh stream per measured row).
pub const CACHE_SEED: u64 = 101;

/// Zipf exponent of the payload popularity distribution.
pub const CACHE_ZIPF_EXPONENT: f64 = 1.2;

/// The ladder in sweep order. CI's smoke subset is `hot` and `churn`
/// (small, so the gate stays cheap; `churn` stays in so the
/// eviction/NACK-resend accounting is CI-pinned too).
pub const CACHE_LADDER: [Rung<CachePoint>; 3] = [
    // Hot set fits entirely: after first occurrences, every request is a
    // digest hit.
    Smoke(CachePoint {
        label: "hot",
        payload_bytes: 64 << 10,
        catalog: 48,
        requests: 1_200,
        capacity: 64 * (64 << 10),
    }),
    // Catalog is ~2.7x the cache budget: the Zipf head stays resident,
    // the tail churns through eviction and NACK resends.
    Smoke(CachePoint {
        label: "churn",
        payload_bytes: 64 << 10,
        catalog: 256,
        requests: 1_600,
        capacity: 96 * (64 << 10),
    }),
    // Megabyte payloads: the regime where elided transfers dominate
    // end-to-end cost.
    Full(CachePoint {
        label: "big",
        payload_bytes: 1 << 20,
        catalog: 24,
        requests: 300,
        capacity: 32 << 20,
    }),
];

/// One ladder point's workload shape.
#[derive(Debug, Clone, Copy)]
pub struct CachePoint {
    /// Ladder label.
    pub label: &'static str,
    /// Size of every payload in the catalog.
    pub payload_bytes: u64,
    /// Distinct payload contents.
    pub catalog: usize,
    /// Requests drawn from the Zipf stream.
    pub requests: u32,
    /// Host-tier cache budget for the cache-enabled run.
    pub capacity: u64,
}

/// One measured (point, system) row. Every field is deterministic: the
/// client session serializes operations, so hit/miss/eviction order is a
/// pure function of the seeded request stream.
#[derive(Debug, Clone, Serialize)]
pub struct CacheBenchRow {
    /// Ladder label.
    pub label: String,
    /// `"cache"` or `"nocache"`.
    pub system: String,
    /// Payload size.
    pub payload_bytes: u64,
    /// Distinct payload contents in the catalog.
    pub catalog: u64,
    /// Requests driven.
    pub requests: u64,
    /// Payload bytes the request stream asked to move.
    pub offered_bytes: u64,
    /// Payload bytes that actually crossed the wire inline.
    pub wire_bytes: u64,
    /// Wire payload bytes per request.
    pub wire_bytes_per_request: u64,
    /// Host-tier digest hits (requests served without wire payload).
    pub hits: u64,
    /// Host-tier misses (first occurrences plus post-eviction NACKs).
    pub misses: u64,
    /// Host-tier hit ratio.
    pub hit_ratio: f64,
    /// Host-tier evictions (the churn point must show some).
    pub evictions: u64,
    /// Device-tier hits (identical re-writes that skipped the DMA).
    pub device_hits: u64,
    /// `nocache / cache` wire-bytes-per-request reduction, on cache rows.
    pub reduction: Option<f64>,
}

/// Distinct, deterministic payload contents for catalog entry `i`.
fn catalog_payload(i: usize, bytes: u64) -> Payload {
    let fill: Vec<u8> = (0..bytes)
        .map(|j| ((i as u64).wrapping_mul(131).wrapping_add(j) % 251) as u8)
        .collect();
    fill.into()
}

fn drive(point: &CachePoint, with_cache: bool) -> ClResult<(u64, Option<CacheStats>)> {
    let mut config = DeviceManagerConfig::standalone("fpga-b");
    if with_cache {
        config = config.with_payload_cache(point.capacity);
    }
    let (device, _clock, manager) = managed_device(config, PathCosts::local_grpc());
    let ctx = device.create_context()?;
    let buf = ctx.create_buffer(point.payload_bytes)?;
    let queue = ctx.create_queue()?;

    let payloads: Vec<Payload> = (0..point.catalog)
        .map(|i| catalog_payload(i, point.payload_bytes))
        .collect();
    let mut rng = SimRng::seed_from_u64(CACHE_SEED);
    let zipf = ZipfSampler::new(point.catalog, CACHE_ZIPF_EXPONENT);

    let mut offered = 0u64;
    for _ in 0..point.requests {
        let i = zipf.sample(&mut rng);
        queue.write(&buf, payloads[i].clone())?;
        offered += point.payload_bytes;
    }
    Ok((offered, manager.cache_stats()))
}

fn measure_one(point: &CachePoint, with_cache: bool) -> CacheBenchRow {
    // bf-lint: allow(panic): the rig drives a fixed known-good
    // deployment; an OpenCL error here is a harness bug.
    let (offered, stats) = drive(point, with_cache).expect("cache bench op on known-good rig");
    let stats = stats.unwrap_or_default();
    let wire = offered - stats.bytes_saved;
    let requests = u64::from(point.requests);
    CacheBenchRow {
        label: point.label.to_string(),
        system: if with_cache { "cache" } else { "nocache" }.to_string(),
        payload_bytes: point.payload_bytes,
        catalog: point.catalog as u64,
        requests,
        offered_bytes: offered,
        wire_bytes: wire,
        wire_bytes_per_request: wire / requests,
        hits: stats.hits,
        misses: stats.misses,
        hit_ratio: stats.hit_ratio(),
        evictions: stats.evictions,
        device_hits: stats.device_hits,
        reduction: None,
    }
}

/// Runs the sweep over the given ladder points: a `nocache` baseline row
/// then a `cache` row per point, with the cache row's `reduction` filled
/// in from its baseline.
pub fn cache_rows(points: &[CachePoint]) -> Vec<CacheBenchRow> {
    let mut rows = Vec::new();
    for point in points {
        let baseline = measure_one(point, false);
        let mut cached = measure_one(point, true);
        if cached.wire_bytes_per_request > 0 {
            cached.reduction =
                Some(baseline.wire_bytes_per_request as f64 / cached.wire_bytes_per_request as f64);
        }
        rows.push(baseline);
        rows.push(cached);
    }
    rows
}

/// Checks the invariants every run must satisfy regardless of the
/// archive: accounting conservation, the headline hot-set reduction
/// floor, and eviction-path visibility on the churn point.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn check_cache_invariants(rows: &[CacheBenchRow]) -> Result<(), String> {
    for r in rows {
        if r.wire_bytes > r.offered_bytes {
            return Err(format!(
                "{} {}: wire {} exceeds offered {}",
                r.label, r.system, r.wire_bytes, r.offered_bytes
            ));
        }
        match r.system.as_str() {
            "nocache" => {
                if r.wire_bytes != r.offered_bytes || r.hits != 0 {
                    return Err(format!(
                        "{} nocache: expected every byte on the wire (wire {}, offered {}, hits {})",
                        r.label, r.wire_bytes, r.offered_bytes, r.hits
                    ));
                }
            }
            "cache" => {
                // `reduction` is left unset when the cache elided every
                // wire byte (a perfect hit run): that is an infinite
                // reduction, not a failing zero.
                let reduction = if r.wire_bytes_per_request == 0 {
                    f64::INFINITY
                } else {
                    r.reduction.unwrap_or(0.0)
                };
                if reduction < 5.0 {
                    return Err(format!(
                        "{}: hot-set wire-bytes reduction {reduction:.2}x under the 5x floor",
                        r.label
                    ));
                }
                if r.hit_ratio <= 0.5 {
                    return Err(format!(
                        "{}: cache hit ratio {:.3} not hit-dominated",
                        r.label, r.hit_ratio
                    ));
                }
                if r.label == "churn" && r.evictions == 0 {
                    return Err("churn: eviction path never exercised".to_string());
                }
            }
            other => return Err(format!("unknown system tag {other:?}")),
        }
    }
    Ok(())
}

/// Renders the sweep as an aligned text table.
pub fn render_cache(title: &str, rows: &[CacheBenchRow]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<8} {:>8} {:>8} {:>8} {:>9} {:>13} {:>10} {:>7} {:>7} {:>9} {:>9} {:>10}\n",
        "point",
        "path",
        "payload",
        "requests",
        "offered",
        "wire/request",
        "hit ratio",
        "hits",
        "misses",
        "evicted",
        "dev hits",
        "reduction"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>8} {:>8} {:>8} {:>9} {:>13} {:>9.1}% {:>7} {:>7} {:>9} {:>9} {:>10}\n",
            r.label,
            r.system,
            r.payload_bytes,
            r.requests,
            r.offered_bytes,
            r.wire_bytes_per_request,
            r.hit_ratio * 100.0,
            r.hits,
            r.misses,
            r.evictions,
            r.device_hits,
            r.reduction
                .map_or_else(|| "-".to_string(), |f| format!("{f:.2}x")),
        ));
    }
    out
}

/// `bf-bench cache`: the shared archive gate, after naming the digest
/// kernel.
pub fn run(args: &[String]) -> ExitCode {
    // On stderr, not in the archive: the archived fields are counters and
    // virtual times, identical on either kernel; the wall time of a run
    // is not, and this line says which kernel it was spent on.
    eprintln!(
        "cache: content digest kernel = {}",
        bf_cache::digest_kernel()
    );
    CACHE_GATE.run(args)
}

/// This harness behind the shared archive gate.
pub const CACHE_GATE: ArchiveGate<CachePoint, CacheBenchRow> = ArchiveGate {
    name: "cache",
    title: "Cache — content-addressed payload cache (Zipf(1.2) reuse, gRPC path)",
    ladder: &CACHE_LADDER,
    rows: cache_rows,
    render: render_cache,
    invariants: Some(check_cache_invariants),
    violated: "cache invariant violated",
    key: &["label", "system"],
    informational: &[],
    what: "cache sweep",
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_labels_are_a_subset_of_the_ladder() {
        CACHE_GATE.assert_smoke_is_a_proper_subset();
    }

    #[test]
    fn every_ladder_label_resolves() {
        for p in CACHE_GATE.points(false) {
            assert!(p.payload_bytes > 0 && p.catalog > 0 && p.requests > 0);
        }
    }

    #[test]
    fn catalog_payloads_are_distinct() {
        let a = catalog_payload(0, 64);
        let b = catalog_payload(1, 64);
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn hot_point_satisfies_the_invariants() {
        let rows = cache_rows(&CACHE_GATE.points(true)[..1]);
        assert!(check_cache_invariants(&rows).is_ok(), "{rows:?}");
        CACHE_GATE.assert_names_are_fields_of(&rows[0]);
    }

    #[test]
    fn identical_runs_agree_on_every_field() {
        assert_eq!(
            serde_json::to_value(&cache_rows(&CACHE_GATE.points(true)[..1])),
            serde_json::to_value(&cache_rows(&CACHE_GATE.points(true)[..1]))
        );
    }
}
