//! The Accelerators Registry as a sharded, federated control plane: N
//! independent shards (N ≥ 1) behind one [`PlacementService`],
//! partitioned by rendezvous hashing.
//!
//! Devices are assigned to shards by highest-random-weight (HRW) hashing
//! of their id against the live shard-id set: every observer computes the
//! same owner from the membership alone, and changing membership by one
//! shard moves only the ~1/N of devices whose argmax changed — all of
//! them to (or from) the joining (leaving) shard. Functions are
//! broadcast to every shard; bindings live in the shard that owns their
//! device and move with it on rebalance, unchanged — a rebalance is a
//! bookkeeping transfer, never a re-placement or a reprogram.
//!
//! Placement routes through [`FederatedAllocator`]: a stateless ranking
//! over per-shard [`ShardLoadSummary`] aggregates that prefers shards
//! already configured with (then warm for) the function's accelerator —
//! the funcX-style thin coordinator, with Cloudburst-style locality
//! hints so cross-shard routing doesn't forfeit bitstream-cache wins.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

use bf_cluster::{Cluster, ClusterError};
use bf_devmgr::DeviceManager;
use bf_model::Fnv1a;
use bf_race::sync::Mutex;

use crate::allocation::{Allocation, AllocationPolicy, DeviceView};
use crate::device::RegistryDevice;
use crate::query::DeviceQuery;
use crate::registry::{FunctionRecord, RegistryError, Shard};
use crate::service::{ContentionReport, PlacementOutcomes, PlacementService, ShardLoadSummary};

/// FNV-1a over the shard id and key (separated so `("ab","c")` and
/// `("a","bc")` score differently), run through a splitmix64-style
/// finalizer: raw FNV leaves the high bits — which the HRW argmax is
/// decided by — barely mixed for short suffix-varying keys.
fn hrw_score(shard_id: &str, key: &str) -> u64 {
    let mut fnv = Fnv1a::new();
    fnv.write(shard_id.as_bytes());
    fnv.write(&[0xff]);
    fnv.write(key.as_bytes());
    let mut h = fnv.finish();
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// The shard owning `key` under rendezvous hashing: the index whose
/// `(score, id)` pair is highest. Pure in the membership set — every
/// caller computes the same owner with no coordination.
pub fn hrw_owner(shard_ids: &[String], key: &str) -> Option<usize> {
    shard_ids
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| {
            (hrw_score(a, key), a.as_str()).cmp(&(hrw_score(b, key), b.as_str()))
        })
        .map(|(i, _)| i)
}

/// Stateless federated router: ranks shards for a placement from their
/// aggregate summaries alone.
///
/// Within the **load bound** — mean federation load scaled by
/// [`FederatedAllocator::LOAD_BOUND`], plus one binding of slack — the
/// ranking is warmth first (configured > warm > neither, mirroring
/// Algorithm 1's accelerator-warmth ordering one level up), then least
/// load, then shard index for determinism. Shards above the bound rank
/// strictly after every in-bound shard regardless of warmth: unbounded
/// warmth affinity would funnel every popular accelerator onto the one
/// shard that configured it first and rebuild the single-registry
/// convoy the federation exists to break up.
pub struct FederatedAllocator;

impl FederatedAllocator {
    /// A shard is routable-by-warmth while its load (bindings per
    /// device) is at most `mean * LOAD_BOUND + 1.0` — the bounded-load
    /// rule from consistent-hashing-with-bounded-loads, applied to
    /// warmth affinity.
    pub const LOAD_BOUND: f64 = 1.1;

    /// Shard indexes in routing order for `accelerator`.
    pub fn route(accelerator: Option<&str>, summaries: &[ShardLoadSummary]) -> Vec<usize> {
        let devices: usize = summaries.iter().map(|s| s.devices).sum();
        let bindings: usize = summaries.iter().map(|s| s.bindings).sum();
        let mean = if devices == 0 {
            0.0
        } else {
            bindings as f64 / devices as f64
        };
        let bound = mean * Self::LOAD_BOUND + 1.0;
        let mut order: Vec<usize> = (0..summaries.len()).collect();
        order.sort_by(|&a, &b| {
            let (sa, sb) = (&summaries[a], &summaries[b]);
            let (ia, ib) = (sa.load() <= bound, sb.load() <= bound);
            ib.cmp(&ia)
                .then(sb.warmth_for(accelerator).cmp(&sa.warmth_for(accelerator)))
                .then(sa.load().partial_cmp(&sb.load()).unwrap_or(Ordering::Equal))
                .then(sa.shard.cmp(&sb.shard))
        });
        order
    }
}

/// Shard membership plus the shards themselves. Guarded by the
/// `shard_map` lock (ranked above `federation` and every registry lock).
struct ShardMapState {
    /// Stable shard ids, position-aligned with `shards`. HRW owners are
    /// a pure function of this vector's contents.
    ids: Vec<String>,
    shards: Vec<Shard>,
    /// Monotonic counter so re-added shards get fresh ids.
    next_id: usize,
}

impl ShardMapState {
    /// Appends an empty shard that knows `functions`; returns its id.
    fn push_shard(
        &mut self,
        policy: &AllocationPolicy,
        functions: &BTreeMap<String, DeviceQuery>,
    ) -> String {
        let id = format!("shard-{}", self.next_id);
        self.next_id += 1;
        let shard = Shard::new(policy.clone());
        for (name, query) in functions {
            shard.register_function(name, query.clone());
        }
        self.ids.push(id.clone());
        self.shards.push(shard);
        id
    }

    /// The shard currently responsible for `device_id`.
    fn owner_of(&self, device_id: &str) -> Option<&Shard> {
        // bf-taint: sanitized(hrw_owner enumerates self.ids, position-aligned with self.shards, so owner < shards.len())
        hrw_owner(&self.ids, device_id).map(|owner| &self.shards[owner])
    }

    /// The shard named `shard_id`.
    fn shard_named(&self, shard_id: &str) -> Option<&Shard> {
        let idx = self.ids.iter().position(|i| i == shard_id)?;
        self.shards.get(idx)
    }

    /// Aggregate summaries only: the federation layer never reads a
    /// shard's per-device state to route.
    fn summaries(&self) -> Vec<ShardLoadSummary> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| shard.load_summary(i))
            .collect()
    }

    /// Moves each of `src`'s devices whose HRW owner under the current
    /// membership is not shard index `src_idx` to that owner, bindings
    /// riding along, and re-indexes them. Shard registry locks are taken
    /// one export/import at a time and `federation` only between them.
    /// Returns the number of devices moved.
    fn rehome_devices(
        &self,
        src: &Shard,
        src_idx: Option<usize>,
        federation: &Mutex<FederationState>,
    ) -> u64 {
        let mut moves = 0u64;
        for device_id in src.device_ids() {
            let owner = match hrw_owner(&self.ids, &device_id) {
                Some(owner) if Some(owner) != src_idx => owner,
                _ => continue,
            };
            if let Some(export) = src.export_device(&device_id) {
                moves += 1;
                let moved: Vec<String> = export.bindings.iter().map(|(i, _)| i.clone()).collect();
                // bf-taint: sanitized(hrw_owner enumerates self.ids, position-aligned with self.shards, so owner < shards.len())
                self.shards[owner].import_device(export);
                let owner_id = self.ids[owner].clone();
                let mut federation = federation.lock();
                for instance in moved {
                    federation.instances.insert(instance, owner_id.clone());
                }
            }
        }
        moves
    }
}

/// Federation-level bookkeeping: which shard holds each instance, and
/// the function catalog to replay into joining shards. Guarded by the
/// `federation` lock, ranked between `shard_map` and the shard registry
/// locks — never acquired while any shard's registry lock is held.
#[derive(Default)]
struct FederationState {
    /// instance name → owning shard id.
    instances: BTreeMap<String, String>,
    /// function name → device query (broadcast on shard join).
    functions: BTreeMap<String, DeviceQuery>,
}

/// The Accelerators Registry (paper §III-C): the master component that
/// registers functions and devices, aggregates performance metrics,
/// allocates devices to function instances and validates
/// reconfigurations — as N shards behind the [`PlacementService`]
/// surface. One shard is the paper's single registry; there is no other
/// code path for it.
///
/// Cloning yields another handle to the same registry.
#[derive(Clone)]
pub struct ShardedRegistry {
    shard_map: Arc<Mutex<ShardMapState>>,
    federation: Arc<Mutex<FederationState>>,
    /// The attached cluster, for create-before-delete migration. Taken
    /// only for a clone and with no other registry lock held: the
    /// migration re-enters [`place_instance`](PlacementService::place_instance)
    /// through the cluster's admission hook.
    cluster: Arc<Mutex<Option<Cluster>>>,
    policy: AllocationPolicy,
}

impl ShardedRegistry {
    /// A registry of `shards` (at least one) empty shards sharing
    /// `policy`.
    pub fn new(policy: AllocationPolicy, shards: usize) -> Self {
        let mut state = ShardMapState {
            ids: Vec::new(),
            shards: Vec::new(),
            next_id: 0,
        };
        let federation = FederationState::default();
        for _ in 0..shards.max(1) {
            state.push_shard(&policy, &federation.functions);
        }
        ShardedRegistry {
            shard_map: Arc::new(Mutex::new(state)),
            federation: Arc::new(Mutex::new(federation)),
            cluster: Arc::new(Mutex::new(None)),
            policy,
        }
    }

    /// Live shard count.
    pub fn shard_count(&self) -> usize {
        self.shard_map.lock().shards.len()
    }

    /// Current shard ids, in index order.
    pub fn shard_ids(&self) -> Vec<String> {
        self.shard_map.lock().ids.clone()
    }

    /// Adds one shard and deterministically rebalances: exactly the
    /// devices whose HRW argmax became the new shard move to it,
    /// bindings riding along. Returns `(shard id, devices moved)`.
    pub fn add_shard(&self) -> (String, u64) {
        let mut state = self.shard_map.lock();
        // Replay the function catalog so the new shard can place and
        // import bindings for every known function.
        let functions = self.federation.lock().functions.clone();
        let id = state.push_shard(&self.policy, &functions);
        let mut moves = 0u64;
        for (idx, shard) in state.shards.iter().enumerate() {
            moves += state.rehome_devices(shard, Some(idx), &self.federation);
        }
        (id, moves)
    }

    /// Removes the shard named `id`, migrating every one of its devices
    /// (bindings included) to the surviving HRW owners. Returns the
    /// number of devices moved, or `None` when `id` is unknown or the
    /// last shard.
    pub fn remove_shard(&self, id: &str) -> Option<u64> {
        let mut state = self.shard_map.lock();
        if state.shards.len() <= 1 {
            return None;
        }
        let idx = state.ids.iter().position(|i| i == id)?;
        state.ids.remove(idx);
        let removed = state.shards.remove(idx);
        // Owners under the *new* membership; the map is non-empty.
        Some(state.rehome_devices(&removed, None, &self.federation))
    }

    /// Routes a placement over the shards' summaries and records it in
    /// the first shard whose Algorithm 1 accepts it, all under
    /// `shard_map` so a rebalance sees the placement entirely or not at
    /// all. Returns the allocation and the chosen device's handle.
    fn place_on_a_shard(
        &self,
        instance: &str,
        function: &str,
    ) -> Result<(Allocation, Arc<dyn RegistryDevice>), RegistryError> {
        let state = self.shard_map.lock();
        let accelerator = {
            let federation = self.federation.lock();
            match federation.functions.get(function) {
                Some(query) => query.accelerator.clone(),
                None => return Err(RegistryError::UnknownFunction(function.to_string())),
            }
        };
        let summaries = state.summaries();
        let mut last_err = None;
        for idx in FederatedAllocator::route(accelerator.as_deref(), &summaries) {
            match state.shards[idx].place_instance(instance, function) {
                Ok(placed) => {
                    let shard_id = state.ids[idx].clone();
                    self.federation
                        .lock()
                        .instances
                        .insert(instance.to_string(), shard_id);
                    return Ok(placed);
                }
                // This shard can't host it (no device passed the filter);
                // fall through to the next-ranked shard.
                Err(e @ RegistryError::Allocate(_)) => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| RegistryError::UnknownFunction(function.to_string())))
    }

    /// Create-before-delete migration (§III-C) of `tenants` through the
    /// attached cluster: each replacement pod passes admission — and so
    /// re-enters [`place_instance`](PlacementService::place_instance) —
    /// before the old pod is deleted. Callers hold no registry lock.
    fn migrate(&self, tenants: &[String]) -> Result<(), RegistryError> {
        let Some(cluster) = self.cluster.lock().clone() else {
            return Ok(());
        };
        // Oldest pod first, whatever order the tenants came in, so a
        // replay migrates them in the same order.
        let mut ids: Vec<u64> = tenants.iter().filter_map(|t| parse_pod_id(t)).collect();
        ids.sort_unstable();
        for id in ids {
            match cluster.replace_instance(bf_cluster::InstanceId(id)) {
                // A tenant whose pod is already deleted (its release still
                // on the watch stream) has nothing to migrate.
                Ok(_) | Err(ClusterError::UnknownInstance(_)) => {}
                Err(e) => return Err(RegistryError::Cluster(e.to_string())),
            }
        }
        Ok(())
    }

    /// Second half of a reconfiguration a shard marked pending: migrates
    /// the unbound `tenants` away, programs the board, then clears the
    /// pending mark on whichever shard owns the device by now.
    fn reprogram(
        &self,
        device: &dyn RegistryDevice,
        bitstream: &str,
        tenants: &[String],
    ) -> Result<(), RegistryError> {
        self.migrate(tenants)?;
        device.program(bitstream).map_err(RegistryError::Program)?;
        let state = self.shard_map.lock();
        if let Some(shard) = state.owner_of(device.device_id()) {
            shard.finish_reconfiguration(device.device_id());
        }
        Ok(())
    }
}

impl PlacementService for ShardedRegistry {
    fn register_device_handle(&self, device: Arc<dyn RegistryDevice>) {
        let state = self.shard_map.lock();
        if let Some(shard) = state.owner_of(device.device_id()) {
            shard.register_device_handle(device);
        }
    }

    fn register_function(&self, name: &str, query: DeviceQuery) {
        let state = self.shard_map.lock();
        for shard in &state.shards {
            shard.register_function(name, query.clone());
        }
        self.federation
            .lock()
            .functions
            .insert(name.to_string(), query);
    }

    fn function(&self, name: &str) -> Option<FunctionRecord> {
        let state = self.shard_map.lock();
        let mut merged: Option<FunctionRecord> = None;
        for shard in &state.shards {
            if let Some(record) = shard.function(name) {
                match &mut merged {
                    None => merged = Some(record),
                    Some(m) => m.instances.extend(record.instances),
                }
            }
        }
        merged
    }

    fn manager(&self, device_id: &str) -> Option<DeviceManager> {
        self.shard_map
            .lock()
            .owner_of(device_id)?
            .manager(device_id)
    }

    fn device_ids(&self) -> Vec<String> {
        let state = self.shard_map.lock();
        let mut ids = Vec::new();
        for shard in &state.shards {
            ids.extend(shard.device_ids());
        }
        ids.sort_unstable();
        ids
    }

    fn device_views(&self) -> Vec<DeviceView> {
        let state = self.shard_map.lock();
        let mut views = Vec::new();
        for shard in &state.shards {
            views.extend(shard.device_views());
        }
        views.sort_unstable_by(|a, b| a.id.cmp(&b.id));
        views
    }

    fn binding(&self, instance: &str) -> Option<String> {
        let state = self.shard_map.lock();
        let shard_id = self.federation.lock().instances.get(instance).cloned()?;
        state.shard_named(&shard_id)?.binding(instance)
    }

    fn place_instance(&self, instance: &str, function: &str) -> Result<Allocation, RegistryError> {
        let (allocation, device) = self.place_on_a_shard(instance, function)?;
        // `shard_map` is released here: the migration re-enters this
        // method through the cluster's admission hook.
        if let Some(bitstream) = &allocation.reconfigure {
            self.reprogram(&*device, bitstream, &allocation.displaced)?;
        }
        Ok(allocation)
    }

    fn release_instance(&self, instance: &str) {
        let state = self.shard_map.lock();
        let shard_id = self.federation.lock().instances.remove(instance);
        if let Some(shard) = shard_id.and_then(|id| state.shard_named(&id)) {
            shard.release_instance(instance);
        }
    }

    fn reconfigure_device(&self, device_id: &str, bitstream: &str) -> Result<(), RegistryError> {
        let (device, tenants) = {
            let state = self.shard_map.lock();
            let shard = state
                .owner_of(device_id)
                .ok_or_else(|| RegistryError::UnknownDevice(device_id.to_string()))?;
            shard.begin_reconfiguration(device_id, bitstream)?
        };
        self.reprogram(&*device, bitstream, &tenants)
    }

    fn handle_device_failure(&self, device_id: &str) -> Result<Vec<String>, RegistryError> {
        let tenants = {
            let state = self.shard_map.lock();
            let shard = state
                .owner_of(device_id)
                .ok_or_else(|| RegistryError::UnknownDevice(device_id.to_string()))?;
            let tenants = shard.remove_failed_device(device_id)?;
            let mut federation = self.federation.lock();
            for t in &tenants {
                federation.instances.remove(t);
            }
            tenants
        };
        // Re-admission places the replacements on the surviving devices
        // (the failed one stays deregistered either way — it is gone).
        self.migrate(&tenants)?;
        Ok(tenants)
    }

    fn gather_metrics(&self) {
        let state = self.shard_map.lock();
        for shard in &state.shards {
            shard.gather_metrics();
        }
    }

    fn placement_outcomes(&self) -> PlacementOutcomes {
        let state = self.shard_map.lock();
        let mut total = PlacementOutcomes::default();
        for shard in &state.shards {
            let o = shard.placement_outcomes();
            total.configured += o.configured;
            total.warm += o.warm;
            total.cold += o.cold;
        }
        total
    }

    fn contention(&self) -> Vec<ContentionReport> {
        let state = self.shard_map.lock();
        state
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| shard.contention(i))
            .collect()
    }

    fn bind_cluster(&self, cluster: &Cluster) {
        *self.cluster.lock() = Some(cluster.clone());
    }
}

/// Instance names produced by the cluster integration are pod ids
/// (`pod-N`); parse the numeric part back.
fn parse_pod_id(instance: &str) -> Option<u64> {
    instance.strip_prefix("pod-").and_then(|s| s.parse().ok())
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use bf_model::{node_a, node_b};
    use proptest::prelude::*;

    use super::*;
    use crate::device::StaticDevice;
    use crate::query::DeviceQuery;

    #[test]
    fn pod_id_round_trip() {
        assert_eq!(parse_pod_id("pod-17"), Some(17));
        assert_eq!(parse_pod_id("sobel-1"), None);
        assert_eq!(
            parse_pod_id(&bf_cluster::InstanceId(3).to_string()),
            Some(3)
        );
    }

    fn shard_ids(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("shard-{i}")).collect()
    }

    #[test]
    fn hrw_assignment_is_deterministic_and_total() {
        let ids = shard_ids(4);
        for key in ["fpga-0", "fpga-1", "dev", ""] {
            let a = hrw_owner(&ids, key);
            let b = hrw_owner(&ids, key);
            assert_eq!(a, b);
            assert!(a.is_some_and(|i| i < ids.len()));
        }
        assert_eq!(hrw_owner(&[], "fpga-0"), None);
    }

    #[test]
    fn hrw_spreads_keys_near_uniformly() {
        let ids = shard_ids(4);
        let mut counts = [0usize; 4];
        for i in 0..1000 {
            // bf-lint: allow(panic): four shards are always non-empty.
            let owner = hrw_owner(&ids, &format!("fpga-{i}")).expect("non-empty map");
            counts[owner] += 1;
        }
        for c in counts {
            // Mean 250/shard: a 2x band catches gross skew without
            // flaking on hash variance.
            assert!((125..=375).contains(&c), "skewed shard load: {counts:?}");
        }
    }

    #[test]
    fn adding_one_shard_moves_about_one_in_n_keys() {
        let before = shard_ids(4);
        let mut after = before.clone();
        after.push("shard-4".to_string());
        let keys: Vec<String> = (0..1000).map(|i| format!("fpga-{i}")).collect();
        let mut moved = 0usize;
        for key in &keys {
            if hrw_owner(&before, key) != hrw_owner(&after, key) {
                moved += 1;
            }
        }
        // Expected 1000/5 = 200 moves; the band is generous but rules
        // out both full reshuffles and no-op maps.
        assert!((100..=300).contains(&moved), "moved {moved} of 1000");
    }

    proptest! {
        /// Joining a shard only ever moves keys *to* the joiner: every
        /// key whose owner changed is owned by the new shard after.
        #[test]
        fn join_moves_keys_only_to_the_new_shard(
            n in 1usize..8,
            keys in proptest::collection::vec("[a-z0-9]{1,12}", 1..64),
        ) {
            let before = shard_ids(n);
            let mut after = before.clone();
            after.push("shard-new".to_string());
            for key in &keys {
                let old = hrw_owner(&before, key);
                let new = hrw_owner(&after, key);
                if new != old {
                    prop_assert_eq!(new, Some(n), "key {} moved to an old shard", key);
                }
            }
        }

        /// Leaving only moves the leaver's keys: a key not owned by the
        /// removed shard keeps its owner (by id) across the removal.
        #[test]
        fn leave_moves_only_the_leavers_keys(
            n in 2usize..8,
            removed in 0usize..8,
            keys in proptest::collection::vec("[a-z0-9]{1,12}", 1..64),
        ) {
            let removed = removed % n;
            let before = shard_ids(n);
            let mut after = before.clone();
            let removed_id = after.remove(removed);
            for key in &keys {
                // bf-lint: allow(panic): both maps are non-empty.
                let old = hrw_owner(&before, key).expect("non-empty");
                let new = hrw_owner(&after, key).expect("non-empty");
                if before[old] != removed_id {
                    prop_assert_eq!(&after[new], &before[old], "key {} switched owner", key);
                }
            }
        }
    }

    fn sharded_with_devices(shards: usize, devices: usize) -> ShardedRegistry {
        let sharded = ShardedRegistry::new(AllocationPolicy::paper(), shards);
        for i in 0..devices {
            let node = if i % 2 == 0 { node_a() } else { node_b() };
            sharded.register_device_handle(
                StaticDevice::new(format!("fpga-{i}"), node, Some("blank")).handle(),
            );
        }
        sharded
    }

    #[test]
    fn rebalance_moves_devices_and_bindings_together() {
        let sharded = sharded_with_devices(2, 8);
        sharded.register_function("sobel", DeviceQuery::for_accelerator("sobel-bs"));
        for i in 0..8 {
            // bf-lint: allow(panic): eight blank devices always place.
            sharded
                .place_instance(&format!("inst-{i}"), "sobel")
                .expect("placement succeeds");
        }
        let bound_before: BTreeMap<String, String> = (0..8)
            .map(|i| {
                let inst = format!("inst-{i}");
                // bf-lint: allow(panic): placed above.
                let dev = sharded.binding(&inst).expect("bound");
                (inst, dev)
            })
            .collect();
        let (_, joined_moves) = sharded.add_shard();
        let removed = sharded.shard_ids()[0].clone();
        let removed_moves = sharded.remove_shard(&removed);
        assert!(removed_moves.is_some());
        assert!(joined_moves <= 8);
        // Every binding still resolves, to the same device, through the
        // federation index — rebalance is pure bookkeeping.
        for (inst, dev) in bound_before {
            assert_eq!(sharded.binding(&inst).as_ref(), Some(&dev));
        }
        assert_eq!(sharded.device_ids().len(), 8);
    }

    #[test]
    fn removing_the_last_shard_is_refused() {
        let sharded = sharded_with_devices(1, 2);
        let id = sharded.shard_ids()[0].clone();
        assert_eq!(sharded.remove_shard(&id), None);
        assert_eq!(sharded.device_ids().len(), 2);
    }

    #[test]
    fn federated_routing_prefers_configured_then_warm_shards() {
        let mut cold = ShardLoadSummary {
            shard: 0,
            devices: 4,
            bindings: 0,
            ..ShardLoadSummary::default()
        };
        let mut warm = cold.clone();
        warm.shard = 1;
        warm.warm.insert("sobel-bs".to_string());
        let mut configured = cold.clone();
        configured.shard = 2;
        configured.configured.insert("sobel-bs".to_string());
        cold.bindings = 0;
        let order = FederatedAllocator::route(Some("sobel-bs"), &[cold, warm, configured]);
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn routing_breaks_warmth_ties_by_load_then_index() {
        let empty = |shard: usize, devices: usize, bindings: usize| ShardLoadSummary {
            shard,
            devices,
            bindings,
            ..ShardLoadSummary::default()
        };
        let order = FederatedAllocator::route(
            Some("x"),
            &[
                empty(0, 2, 4),
                empty(1, 2, 0),
                empty(2, 2, 0),
                empty(3, 0, 0),
            ],
        );
        // Loaded shard 0 drops behind idle 1 and 2; the empty shard
        // (infinite load) sorts last.
        assert_eq!(order, vec![1, 2, 0, 3]);
    }
}
