// `deny`, where every other crate says `forbid`: the digest's hardware
// kernel needs the workspace's one `unsafe` block (the call into a
// `#[target_feature]` function — see `sha256.rs`), allowed on that one
// dispatch function and nowhere else; `ci.sh` counts the keyword.
#![deny(unsafe_code)]

//! **bf-cache**: the content-addressed cache layer on the zero-copy path.
//!
//! Payloads are keyed by their content digest — SHA-256 truncated to 128
//! bits, so a digest hit can substitute cached bytes without a
//! collision-resistance caveat — and held as
//! refcounted [`Bytes`], so every cache operation is a refcount bump:
//! [`PayloadCache::get`] hands out a snapshot that stays valid after the
//! entry is evicted or invalidated (the reader holds its own reference),
//! and [`PayloadCache::insert`] adopts the receiver's decoded frame slice
//! without copying. A hot function's inputs therefore move over the wire
//! per-*eviction* instead of per-*request*: the rpc layer sends
//! `DataRef::Digest` when the receiver already holds the content and the
//! receiver rewrites it to the cached bytes.
//!
//! Two resident tiers share one lock and one budget view:
//!
//! - the **host tier** holds payload bytes (in practice slices of shm
//!   segments or received frames) under a size-bounded clock/second-chance
//!   eviction policy;
//! - the **device tier** tracks which `(buffer, offset)` device regions
//!   already hold which content, so a repeated write of identical bytes
//!   to the same region can skip the PCIe DMA entirely. It is
//!   invalidated wholesale on reprogramming (the board wipes DDR) and
//!   per-buffer on free or kernel writes.
//!
//! Both ends of a connection bound their bookkeeping with a
//! [`DigestTracker`]: the client tracks digests the peer is believed to
//! hold, and the manager tracks, per session, digests that session
//! itself shipped inline — cache *storage* is shared across sessions,
//! but a hit is only authorized against content the requesting session
//! already proved it possesses, so a guessed digest can never disclose
//! another tenant's resident bytes (the dedup side-channel). Trackers
//! may run stale (the peer evicts independently); the wire protocol's
//! `CacheMiss` NACK makes that safe — a stale digest send degrades to one
//! extra round trip, never to wrong bytes.
//!
//! All synchronization goes through the `bf_race::sync` facade so the
//! model checker can drive insert/evict against live snapshot readers;
//! the lock fields are ranked in `bf_devmgr::lock_order::HIERARCHY`
//! (`payload_cache`, `digest_track`). The digest itself takes no lock: its
//! kernel choice (SHA extensions or portable, [`digest_kernel`]) reads the
//! CPU feature bits std already caches.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use serde::Serialize;

use bf_race::sync::Mutex;

mod sha256;

/// The content digest of a byte string: the cache key and the value
/// carried by `DataRef::Digest` on the wire (16 fixed bytes).
///
/// This is the first 128 bits (big-endian) of the payload's SHA-256. A
/// digest hit substitutes cached bytes for content the sender never
/// shipped on that request, so the digest must be collision-resistant —
/// a constructible (or birthday-bound accidental) collision between two
/// same-length payloads would make the manager silently stage the wrong
/// bytes. 128 truncated SHA-256 bits keep that probability negligible at
/// fleet scale; a non-cryptographic hash would not.
pub fn content_digest(bytes: &[u8]) -> u128 {
    // A 32-byte digest always has a first 16-byte chunk; `first_chunk`
    // says so in a type the hot path cannot panic on.
    sha256::sha256(bytes)
        .first_chunk()
        .map_or(0, |head| u128::from_be_bytes(*head))
}

/// Which compression kernel [`content_digest`] runs on this host:
/// `"sha-ni"` on x86-64 CPUs with the SHA extensions, `"scalar"`
/// everywhere else. The digest value is the same either way; this names
/// the kernel so a wall-time number can be read against what produced it.
pub fn digest_kernel() -> &'static str {
    sha256::kernel_name()
}

/// A point-in-time reading of one cache's counters. Every field is
/// cumulative since construction except the two `resident` gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Host-tier lookups that found the content resident.
    pub hits: u64,
    /// Host-tier lookups that missed.
    pub misses: u64,
    /// Entries admitted to the host tier.
    pub insertions: u64,
    /// Entries evicted (clock policy) or invalidated.
    pub evictions: u64,
    /// Payload bytes that a digest hit kept off the wire.
    pub bytes_saved: u64,
    /// Device-tier hits: identical content already resident in the
    /// target region, PCIe DMA skipped.
    pub device_hits: u64,
    /// Payload bytes the device tier kept off the PCIe link.
    pub device_bytes_saved: u64,
    /// Bytes currently resident in the host tier.
    pub resident_bytes: u64,
    /// Entries currently resident in the host tier.
    pub resident_entries: u64,
}

impl CacheStats {
    /// Host-tier hit ratio over all lookups so far (0 when idle).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One host-tier entry: the refcounted bytes plus its clock bit.
struct Entry {
    bytes: Bytes,
    referenced: bool,
}

/// A device-tier residency record: `(digest, len)` known to occupy a
/// `(buffer, offset)` region since the last invalidation.
type DeviceRegion = (u64, u64);

struct CacheState {
    entries: HashMap<u128, Entry>,
    /// Clock hand order over digests; second chance via `referenced`.
    clock: VecDeque<u128>,
    resident_bytes: u64,
    device: HashMap<DeviceRegion, (u128, u64)>,
    stats: CacheStats,
}

/// The content-addressed payload cache: host tier + device-residency
/// tier behind one lock (`payload_cache` in the ranked hierarchy).
pub struct PayloadCache {
    capacity_bytes: u64,
    payload_cache: Mutex<CacheState>,
}

impl PayloadCache {
    /// A cache bounded to `capacity_bytes` of resident host-tier payload.
    pub fn new(capacity_bytes: u64) -> PayloadCache {
        PayloadCache {
            capacity_bytes,
            payload_cache: Mutex::new(CacheState {
                entries: HashMap::new(),
                clock: VecDeque::new(),
                resident_bytes: 0,
                device: HashMap::new(),
                stats: CacheStats::default(),
            }),
        }
    }

    /// The configured host-tier budget.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Looks up content by digest. A hit returns a refcounted snapshot
    /// (a refcount bump, never a copy) that stays valid even if the
    /// entry is evicted before the reader finishes, and counts the
    /// entry's length as bytes kept off the wire.
    pub fn get(&self, digest: u128) -> Option<Bytes> {
        let mut state = self.payload_cache.lock();
        match state.entries.get_mut(&digest) {
            Some(entry) => {
                entry.referenced = true;
                let bytes = entry.bytes.clone();
                state.stats.hits += 1;
                state.stats.bytes_saved += bytes.len() as u64;
                Some(bytes)
            }
            None => {
                state.stats.misses += 1;
                None
            }
        }
    }

    /// Whether `digest` is resident, without touching the hit/miss
    /// counters or the clock bit.
    pub fn holds_digest(&self, digest: u128) -> bool {
        self.payload_cache.lock().entries.contains_key(&digest)
    }

    /// Admits `bytes` under `digest`, evicting clock-wise until the new
    /// entry fits. Adoption is a refcount bump. Returns whether the
    /// content is resident afterwards: `true` when admitted now or
    /// already held (its clock bit is set), `false` only when the payload
    /// alone exceeds the budget, which admits nothing.
    pub fn insert(&self, digest: u128, bytes: Bytes) -> bool {
        let len = bytes.len() as u64;
        if len > self.capacity_bytes {
            return false;
        }
        let mut state = self.payload_cache.lock();
        if let Some(entry) = state.entries.get_mut(&digest) {
            entry.referenced = true;
            return true;
        }
        while state.resident_bytes + len > self.capacity_bytes {
            if !evict_one(&mut state) {
                break;
            }
        }
        state.resident_bytes += len;
        state.stats.insertions += 1;
        state.clock.push_back(digest);
        state.entries.insert(
            digest,
            Entry {
                bytes,
                referenced: false,
            },
        );
        true
    }

    /// Records that the device region `(buffer, offset)` now holds
    /// content `(digest, len)`. Any previously tracked region of the
    /// same buffer that overlaps the new write is dropped first (the
    /// write clobbered it).
    pub fn note_device_resident(&self, buffer: u64, offset: u64, digest: u128, len: u64) {
        let mut state = self.payload_cache.lock();
        drop_overlapping(&mut state, buffer, offset, len);
        // bf-flow: allow(hot_alloc): one entry per non-overlapping
        // written span of a finite device buffer (`drop_overlapping`
        // enforces disjointness), so the map is bounded by device
        // memory over the smallest tracked payload.
        state.device.insert((buffer, offset), (digest, len));
    }

    /// Whether the device region `(buffer, offset)` already holds
    /// exactly `(digest, len)`. A hit counts the skipped PCIe bytes.
    pub fn device_resident(&self, buffer: u64, offset: u64, digest: u128, len: u64) -> bool {
        let mut state = self.payload_cache.lock();
        let hit = state.device.get(&(buffer, offset)) == Some(&(digest, len));
        if hit {
            state.stats.device_hits += 1;
            state.stats.device_bytes_saved += len;
        }
        hit
    }

    /// Forgets all device residency for `buffer` (freed, or written by a
    /// kernel launch).
    pub fn invalidate_buffer(&self, buffer: u64) {
        let mut state = self.payload_cache.lock();
        state.device.retain(|&(b, _), _| b != buffer);
    }

    /// Forgets the whole device tier: reprogramming wipes on-board DDR.
    pub fn invalidate_device(&self) {
        self.payload_cache.lock().device.clear();
    }

    /// Drops every entry in both tiers (node death / migration: the
    /// replacement holds none of this content). Outstanding snapshots
    /// handed out by [`get`](Self::get) remain valid.
    pub fn invalidate_all(&self) {
        let mut state = self.payload_cache.lock();
        let dropped = state.entries.len() as u64;
        state.entries.clear();
        state.clock.clear();
        state.resident_bytes = 0;
        state.device.clear();
        state.stats.evictions += dropped;
    }

    /// Reads the counters, with the resident gauges filled in.
    pub fn stats(&self) -> CacheStats {
        let state = self.payload_cache.lock();
        let mut stats = state.stats;
        stats.resident_bytes = state.resident_bytes;
        stats.resident_entries = state.entries.len() as u64;
        stats
    }

    /// Publishes the counters as `bf_cache_*` series labelled with the
    /// owning device.
    pub fn export_metrics(&self, registry: &bf_metrics::MetricsRegistry, device: &str) {
        let stats = self.stats();
        let labels: &[(&str, &str)] = &[("device", device)];
        let pairs: [(&str, u64); 8] = [
            ("bf_cache_hits_total", stats.hits),
            ("bf_cache_misses_total", stats.misses),
            ("bf_cache_evictions_total", stats.evictions),
            ("bf_cache_bytes_saved_total", stats.bytes_saved),
            ("bf_cache_device_hits_total", stats.device_hits),
            (
                "bf_cache_device_bytes_saved_total",
                stats.device_bytes_saved,
            ),
            ("bf_cache_resident_bytes", stats.resident_bytes),
            ("bf_cache_resident_entries", stats.resident_entries),
        ];
        for (name, value) in pairs {
            registry.gauge(name, labels).set(value as f64);
        }
        // An info-style series: the value is always 1, the label says
        // which digest kernel the wall-clock figures were produced on.
        registry
            .gauge(
                "bf_cache_digest_kernel",
                &[("device", device), ("kernel", digest_kernel())],
            )
            .set(1.0);
    }
}

/// Advances the clock hand once: the first unreferenced entry is
/// evicted; referenced entries get their second chance. Returns `false`
/// when the tier is empty.
fn evict_one(state: &mut CacheState) -> bool {
    // Each entry is visited at most twice per call (reference bit
    // cleared on the first pass), so the loop terminates.
    for _ in 0..state.clock.len() * 2 {
        let Some(digest) = state.clock.pop_front() else {
            return false;
        };
        let entry = match state.entries.get_mut(&digest) {
            Some(e) => e,
            None => continue,
        };
        if entry.referenced {
            entry.referenced = false;
            state.clock.push_back(digest);
            continue;
        }
        let len = entry.bytes.len() as u64;
        state.entries.remove(&digest);
        state.resident_bytes = state.resident_bytes.saturating_sub(len);
        state.stats.evictions += 1;
        return true;
    }
    false
}

/// Drops device-tier records of `buffer` whose `[offset, offset+len)`
/// range intersects the incoming write.
fn drop_overlapping(state: &mut CacheState, buffer: u64, offset: u64, len: u64) {
    let end = offset.saturating_add(len);
    state
        .device
        .retain(|&(b, region_off), &mut (_, region_len)| {
            b != buffer || region_off >= end || region_off.saturating_add(region_len) <= offset
        });
}

/// The client-side mirror of a peer's admission: a bounded
/// clock-evicted set of digests the peer is believed to hold. Entries
/// may be stale (the peer evicts on its own schedule); the `CacheMiss`
/// NACK path calls [`forget`](Self::forget) and resends inline.
pub struct DigestTracker {
    max_entries: usize,
    digest_track: Mutex<TrackState>,
}

struct TrackState {
    known: HashMap<u128, bool>,
    clock: VecDeque<u128>,
}

impl DigestTracker {
    /// A tracker remembering at most `max_entries` digests.
    pub fn new(max_entries: usize) -> DigestTracker {
        DigestTracker {
            max_entries: max_entries.max(1),
            digest_track: Mutex::new(TrackState {
                known: HashMap::new(),
                clock: VecDeque::new(),
            }),
        }
    }

    /// Records that the peer was just sent (and therefore admitted)
    /// this content.
    pub fn note_sent(&self, digest: u128) {
        let mut state = self.digest_track.lock();
        if let Some(referenced) = state.known.get_mut(&digest) {
            *referenced = true;
            return;
        }
        while state.known.len() >= self.max_entries {
            let Some(old) = state.clock.pop_front() else {
                break;
            };
            match state.known.get_mut(&old) {
                Some(referenced) if *referenced => {
                    *referenced = false;
                    // bf-flow: allow(hot_alloc): second-chance requeue of a
                    // popped entry — the clock never exceeds `max_entries`
                    state.clock.push_back(old);
                }
                Some(_) => {
                    state.known.remove(&old);
                }
                None => {}
            }
        }
        // bf-flow: allow(hot_alloc): the eviction loop above just enforced
        // `known.len() < max_entries`, so both structures stay capped
        state.known.insert(digest, false);
        // bf-flow: allow(hot_alloc): same `max_entries` cap as the insert
        state.clock.push_back(digest);
    }

    /// Whether the peer is believed to hold this content.
    pub fn holds(&self, digest: u128) -> bool {
        let mut state = self.digest_track.lock();
        match state.known.get_mut(&digest) {
            Some(referenced) => {
                *referenced = true;
                true
            }
            None => false,
        }
    }

    /// Drops one digest: the peer NACKed it (evicted or invalidated).
    /// The clock entry goes too — otherwise a long-lived connection with
    /// frequent NACKs whose tracker never refills to capacity would
    /// accumulate stale clock entries without bound.
    pub fn forget(&self, digest: u128) {
        let mut state = self.digest_track.lock();
        if state.known.remove(&digest).is_some() {
            state.clock.retain(|d| *d != digest);
        }
    }

    /// Drops everything: the connection moved to a different peer.
    pub fn clear(&self) {
        let mut state = self.digest_track.lock();
        state.known.clear();
        state.clock.clear();
    }

    /// Digests currently tracked.
    pub fn len(&self) -> usize {
        self.digest_track.lock().known.len()
    }

    /// Whether nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(fill: u8, len: usize) -> Bytes {
        Bytes::from(vec![fill; len])
    }

    #[test]
    fn digest_is_truncated_sha256() {
        // First 16 bytes of the FIPS 180-4 vectors (big-endian).
        assert_eq!(
            content_digest(b""),
            0xe3b0_c442_98fc_1c14_9afb_f4c8_996f_b924
        );
        assert_eq!(
            content_digest(b"abc"),
            0xba78_16bf_8f01_cfea_4141_40de_5dae_2223
        );
        assert_ne!(content_digest(b"ab"), content_digest(b"ba"));
    }

    #[test]
    fn get_is_a_refcounted_snapshot_not_a_copy() {
        let cache = PayloadCache::new(1 << 20);
        let bytes = payload(0xA5, 4096);
        let digest = content_digest(&bytes);
        assert!(cache.insert(digest, bytes.clone()));
        let before = bf_metrics::copy_counters();
        let snap = cache.get(digest).expect("hit");
        let delta = bf_metrics::copy_counters().since(before);
        assert_eq!(snap, bytes);
        assert_eq!(delta.bytes, 0, "a cache hit must not copy payload bytes");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 0));
        assert_eq!(stats.bytes_saved, 4096);
    }

    #[test]
    fn snapshot_survives_eviction_and_invalidation() {
        let cache = PayloadCache::new(8192);
        let hot = payload(1, 4096);
        let digest = content_digest(&hot);
        cache.insert(digest, hot.clone());
        let snap = cache.get(digest).expect("hit");
        // Two more inserts force the hot entry out of an 8 KiB budget.
        cache.insert(content_digest(&payload(2, 4096)), payload(2, 4096));
        cache.insert(content_digest(&payload(3, 4096)), payload(3, 4096));
        cache.invalidate_all();
        assert!(cache.get(digest).is_none());
        assert_eq!(snap, hot, "live snapshot must outlive its entry");
    }

    #[test]
    fn clock_eviction_keeps_the_referenced_entry() {
        let cache = PayloadCache::new(8192);
        let hot = payload(1, 4096);
        let cold = payload(2, 4096);
        let (hot_d, cold_d) = (content_digest(&hot), content_digest(&cold));
        cache.insert(hot_d, hot);
        cache.insert(cold_d, cold);
        // Touch the hot entry so its reference bit protects it.
        cache.get(hot_d).expect("hit");
        cache.insert(content_digest(&payload(3, 4096)), payload(3, 4096));
        assert!(cache.holds_digest(hot_d), "second chance must protect hot");
        assert!(
            !cache.holds_digest(cold_d),
            "cold entry is the clock victim"
        );
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn insert_reports_residency_and_refuses_oversized_payloads() {
        let cache = PayloadCache::new(16);
        let big = payload(9, 64);
        assert!(!cache.insert(content_digest(&big), big));
        assert_eq!(cache.stats().resident_entries, 0);
        // Admitted, then already held: resident both times, stored once.
        let small = payload(9, 16);
        assert!(cache.insert(content_digest(&small), small.clone()));
        assert!(cache.insert(content_digest(&small), small));
        assert_eq!(cache.stats().insertions, 1);
    }

    #[test]
    fn device_tier_hits_exact_regions_and_drops_overlaps() {
        let cache = PayloadCache::new(1 << 20);
        cache.note_device_resident(7, 0, 111, 256);
        assert!(cache.device_resident(7, 0, 111, 256));
        assert!(!cache.device_resident(7, 0, 222, 256), "digest mismatch");
        assert!(!cache.device_resident(7, 64, 111, 256), "offset mismatch");
        // An overlapping write clobbers the tracked region.
        cache.note_device_resident(7, 128, 333, 64);
        assert!(!cache.device_resident(7, 0, 111, 256));
        assert!(cache.device_resident(7, 128, 333, 64));
        // Other buffers are untouched; buffer invalidation clears them.
        cache.note_device_resident(8, 0, 444, 16);
        cache.invalidate_buffer(7);
        assert!(!cache.device_resident(7, 128, 333, 64));
        assert!(cache.device_resident(8, 0, 444, 16));
        cache.invalidate_device();
        assert!(!cache.device_resident(8, 0, 444, 16));
        let stats = cache.stats();
        assert_eq!(stats.device_hits, 3);
        assert_eq!(stats.device_bytes_saved, 256 + 64 + 16);
    }

    #[test]
    fn tracker_is_bounded_and_forgets_on_nack() {
        let tracker = DigestTracker::new(2);
        tracker.note_sent(1);
        tracker.note_sent(2);
        assert!(tracker.holds(1) && tracker.holds(2));
        tracker.note_sent(3);
        assert_eq!(tracker.len(), 2, "bounded at two entries");
        tracker.forget(2);
        assert!(!tracker.holds(2));
        tracker.clear();
        assert!(tracker.is_empty());
    }

    #[test]
    fn forget_purges_the_clock_entry_too() {
        let tracker = DigestTracker::new(8);
        // NACK-forget every digest in a loop without ever filling the
        // tracker to capacity: the clock must not accumulate stale
        // entries (it is only compacted under capacity pressure).
        for digest in 0..1_000u128 {
            tracker.note_sent(digest);
            tracker.forget(digest);
        }
        assert!(tracker.is_empty());
        assert_eq!(tracker.digest_track.lock().clock.len(), 0);
    }

    #[test]
    fn stats_serialize_for_archival() {
        let cache = PayloadCache::new(64);
        let json = serde_json::to_string(&cache.stats()).expect("serialize");
        assert!(json.contains("\"bytes_saved\""));
    }
}
