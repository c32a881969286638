//! The online devices-allocation algorithm (paper Algorithm 1).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use bf_model::NodeId;

use crate::query::DeviceQuery;

/// A metric the allocator can filter/order by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKey {
    /// FPGA time utilization (busy fraction).
    Utilization,
    /// Number of connected function instances.
    ConnectedFunctions,
    /// Mean device-side operation latency (ms) gathered from the manager's
    /// histogram — the "latencies" choice the paper lists for SLA-driven
    /// ordering.
    OpLatency,
}

/// A filter: drop devices whose metric exceeds `max` (e.g. "filtering out
/// highly utilized devices").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricFilter {
    /// The filtered metric.
    pub key: MetricKey,
    /// Inclusive upper bound.
    pub max: f64,
}

/// The allocator's configuration: metric priority (chosen "depending on
/// the system and applications SLA"), filters, and a deterministic node
/// tie-break order.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationPolicy {
    /// Sort keys, most significant first.
    pub metrics_order: Vec<MetricKey>,
    /// Filters applied before ordering.
    pub metrics_filters: Vec<MetricFilter>,
    /// Tie-break priority between otherwise-equal devices (the order the
    /// operator listed the nodes in).
    pub node_priority: Vec<NodeId>,
}

impl AllocationPolicy {
    /// The paper's evaluation policy: balance connected functions first,
    /// then utilization; refuse devices already above 95% utilization;
    /// prefer the worker nodes (B, C) before the slower master (A).
    pub fn paper() -> Self {
        AllocationPolicy {
            metrics_order: vec![MetricKey::ConnectedFunctions, MetricKey::Utilization],
            metrics_filters: vec![MetricFilter {
                key: MetricKey::Utilization,
                max: 0.95,
            }],
            node_priority: vec![NodeId::new("B"), NodeId::new("A"), NodeId::new("C")],
        }
    }
}

impl Default for AllocationPolicy {
    fn default() -> Self {
        Self::paper()
    }
}

/// The allocator's view of one device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceView {
    /// Device id.
    pub id: String,
    /// Hosting node.
    pub node: NodeId,
    /// Vendor string.
    pub vendor: String,
    /// Platform string.
    pub platform: String,
    /// Currently configured bitstream.
    pub bitstream: Option<String>,
    /// Bitstream images staged in the board's warm cache: reprogramming
    /// to one of these is cheap, so the allocator prefers a warm board
    /// over a cold one when no board is already configured.
    pub warm_bitstreams: Vec<String>,
    /// Connected function instances and the accelerator each one needs
    /// (instance name → required bitstream).
    pub connected: HashMap<String, Option<String>>,
    /// Gathered FPGA time utilization in `[0, 1]`.
    pub utilization: f64,
    /// Gathered mean device-side operation latency (ms); 0 when idle.
    pub mean_op_latency_ms: f64,
    /// Whether a reconfiguration is already in flight (`bitstream` then
    /// reflects the *future* image); such a device cannot be flipped again
    /// by this allocation.
    pub pending_reconfiguration: bool,
}

impl DeviceView {
    fn metric(&self, key: MetricKey) -> f64 {
        match key {
            MetricKey::Utilization => self.utilization,
            MetricKey::ConnectedFunctions => self.connected.len() as f64,
            MetricKey::OpLatency => self.mean_op_latency_ms,
        }
    }
}

/// How cheaply a device — or a shard, one level up — can serve an
/// accelerator: the placement-warmth rule, configured > warm-staged >
/// cold. Ordered so a plain descending sort prefers the cheaper target;
/// with no warm caches in the cluster this collapses to the paper's
/// configured-vs-not ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Warmth {
    /// Neither configured nor staged: full bitstream transfer + program.
    Cold = 0,
    /// Staged in the board's warm bitstream cache: cheap reprogram.
    Warm = 1,
    /// Already configured: no reconfiguration at all. A query with no
    /// accelerator is served by any image, so it is always configured.
    Configured = 2,
}

impl Warmth {
    /// Classifies a target for `accelerator`, given whether it is
    /// `configured` with an image and whether it has one `staged` warm.
    pub(crate) fn of(
        accelerator: Option<&str>,
        configured: impl Fn(&str) -> bool,
        staged: impl Fn(&str) -> bool,
    ) -> Self {
        match accelerator {
            None => Warmth::Configured,
            Some(acc) if configured(acc) => Warmth::Configured,
            Some(acc) if staged(acc) => Warmth::Warm,
            Some(_) => Warmth::Cold,
        }
    }

    /// The `outcome` label of `bf_registry_placements_total`.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Warmth::Configured => "configured",
            Warmth::Warm => "warm",
            Warmth::Cold => "cold",
        }
    }
}

/// A successful allocation decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// The chosen device.
    pub device_id: String,
    /// Its node — the instance is forced onto it (shared memory requires
    /// co-location).
    pub node: NodeId,
    /// `Some(bitstream)` when the device must be reconfigured first; the
    /// connected instances listed must be migrated away.
    pub reconfigure: Option<String>,
    /// Instances to migrate if a reconfiguration is needed.
    pub displaced: Vec<String>,
    /// How warm the chosen device was for the query: the tier Algorithm 1
    /// ordered it by.
    pub warmth: Warmth,
}

/// Why allocation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocateError {
    /// Algorithm 1's terminal `raise error "device not found"`.
    DeviceNotFound {
        /// Diagnostic: how many devices survived each stage.
        candidates: usize,
        /// The query that failed.
        query: String,
    },
}

impl fmt::Display for AllocateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocateError::DeviceNotFound { candidates, query } => {
                write!(f, "device not found for query {query} ({candidates} candidates survived filtering)")
            }
        }
    }
}

impl Error for AllocateError {}

/// Per-candidate sort key, computed exactly once per candidate. The
/// policy's metrics are read inside the comparator instead: each is a
/// field load, so a per-candidate `Vec` of them costs more than it saves.
struct Score {
    warmth: Warmth,
    node_rank: usize,
}

/// Algorithm 1: chooses a device for an instance with the given query.
///
/// 1. `filterby_compatibility` — vendor/platform hardware match;
/// 2. `filterby_metrics` — drop over-threshold devices;
/// 3. `orderby_metrics_and_acc` — sort by the metric priority, then prefer
///    devices already configured with the required accelerator (no
///    reconfiguration) ahead of devices with the image merely staged warm
///    ahead of cold devices, breaking remaining ties by node priority;
/// 4. walk the order: a device whose bitstream is incompatible is only
///    eligible if its current workloads can be *redistributed* to other
///    compatible devices; the first eligible device wins and is flagged
///    for reconfiguration when needed.
///
/// # Errors
///
/// Returns [`AllocateError::DeviceNotFound`] when no device survives.
pub fn allocate(
    query: &DeviceQuery,
    devices: &[DeviceView],
    policy: &AllocationPolicy,
) -> Result<Allocation, AllocateError> {
    let node_rank = |n: &NodeId| {
        policy
            .node_priority
            .iter()
            .position(|p| p == n)
            .unwrap_or(policy.node_priority.len())
    };
    // Steps 2-3 filter. Step 4 scores every survivor once, then orders by
    // metrics, warmth (configured > warm-staged > cold) and the
    // deterministic node priority.
    let mut scored: Vec<(&DeviceView, Score)> = devices
        .iter()
        .filter(|d| query.hardware_matches(&d.vendor, &d.platform))
        .filter(|d| {
            policy
                .metrics_filters
                .iter()
                .all(|f| d.metric(f.key) <= f.max)
        })
        .map(|d| {
            let score = Score {
                warmth: Warmth::of(
                    query.accelerator.as_deref(),
                    |acc| d.bitstream.as_deref() == Some(acc),
                    |acc| d.warm_bitstreams.iter().any(|w| w == acc),
                ),
                node_rank: node_rank(&d.node),
            };
            (d, score)
        })
        .collect();
    scored.sort_by(|(a, sa), (b, sb)| {
        for &key in &policy.metrics_order {
            match a.metric(key).partial_cmp(&b.metric(key)) {
                Some(std::cmp::Ordering::Equal) | None => continue,
                Some(other) => return other,
            }
        }
        sb.warmth
            .cmp(&sa.warmth)
            .then_with(|| sa.node_rank.cmp(&sb.node_rank))
            .then_with(|| a.id.cmp(&b.id))
    });

    // Steps 5-12: skip incompatible devices whose tenants cannot move.
    for (i, (dev, score)) in scored.iter().enumerate() {
        let compatible = score.warmth == Warmth::Configured;
        if !compatible && (dev.pending_reconfiguration || !redistributable(dev, &scored, i)) {
            continue;
        }
        // Steps 13-15.
        return Ok(Allocation {
            device_id: dev.id.clone(),
            node: dev.node.clone(),
            reconfigure: if compatible {
                None
            } else {
                query.accelerator.clone()
            },
            displaced: if compatible {
                Vec::new()
            } else {
                // Sorted: `connected` is a hash map, and its key order
                // differs from one process to the next.
                let mut displaced: Vec<String> = dev.connected.keys().cloned().collect();
                displaced.sort_unstable();
                displaced
            },
            warmth: score.warmth,
        });
    }
    Err(AllocateError::DeviceNotFound {
        candidates: scored.len(),
        query: format!("{query:?}"),
    })
}

/// Whether every workload currently on `dev` could run on some *other*
/// candidate device whose configured bitstream serves it.
fn redistributable(dev: &DeviceView, candidates: &[(&DeviceView, Score)], dev_idx: usize) -> bool {
    dev.connected.values().all(|needs| match needs {
        None => true,
        Some(bitstream) => candidates
            .iter()
            .enumerate()
            .any(|(j, (other, _))| j != dev_idx && other.bitstream.as_deref() == Some(bitstream)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(
        id: &str,
        node: &str,
        bitstream: Option<&str>,
        connected: usize,
        util: f64,
    ) -> DeviceView {
        DeviceView {
            id: id.to_string(),
            node: NodeId::new(node),
            vendor: "Intel".to_string(),
            platform: "Intel(R) FPGA SDK for OpenCL(TM)".to_string(),
            bitstream: bitstream.map(str::to_string),
            warm_bitstreams: Vec::new(),
            connected: (0..connected)
                .map(|i| (format!("{id}-f{i}"), bitstream.map(str::to_string)))
                .collect(),
            utilization: util,
            mean_op_latency_ms: 0.0,
            pending_reconfiguration: false,
        }
    }

    fn sobel_query() -> DeviceQuery {
        DeviceQuery::for_accelerator("sobel").with_vendor("Intel")
    }

    #[test]
    fn balances_by_connected_functions() {
        let devices = vec![
            dev("fpga-a", "A", Some("sobel"), 2, 0.1),
            dev("fpga-b", "B", Some("sobel"), 0, 0.1),
            dev("fpga-c", "C", Some("sobel"), 1, 0.1),
        ];
        let got = allocate(&sobel_query(), &devices, &AllocationPolicy::paper()).expect("alloc");
        assert_eq!(got.device_id, "fpga-b");
        assert_eq!(got.reconfigure, None);
    }

    #[test]
    fn node_priority_breaks_ties() {
        let devices = vec![
            dev("fpga-a", "A", Some("sobel"), 0, 0.0),
            dev("fpga-b", "B", Some("sobel"), 0, 0.0),
            dev("fpga-c", "C", Some("sobel"), 0, 0.0),
        ];
        let got = allocate(&sobel_query(), &devices, &AllocationPolicy::paper()).expect("alloc");
        assert_eq!(
            got.device_id, "fpga-b",
            "B precedes A and C in the paper policy"
        );
    }

    #[test]
    fn prefers_compatible_accelerator_over_reconfiguration() {
        let devices = vec![
            dev("fpga-a", "A", Some("mm"), 0, 0.0),
            dev("fpga-b", "B", Some("sobel"), 0, 0.0),
        ];
        let got = allocate(&sobel_query(), &devices, &AllocationPolicy::paper()).expect("alloc");
        assert_eq!(got.device_id, "fpga-b");
        assert!(got.reconfigure.is_none());
    }

    #[test]
    fn filters_out_hot_devices() {
        let devices = vec![
            dev("fpga-a", "A", Some("sobel"), 0, 0.99),
            dev("fpga-b", "B", Some("sobel"), 3, 0.5),
        ];
        let got = allocate(&sobel_query(), &devices, &AllocationPolicy::paper()).expect("alloc");
        assert_eq!(
            got.device_id, "fpga-b",
            "the 99%-utilized device is filtered"
        );
    }

    #[test]
    fn reconfigures_when_workloads_can_move() {
        // fpga-b runs mm tenants, but fpga-c also serves mm, so fpga-b's
        // tenants can be redistributed and fpga-b reprogrammed for sobel.
        let devices = vec![
            dev("fpga-b", "B", Some("mm"), 1, 0.0),
            dev("fpga-c", "C", Some("mm"), 2, 0.0),
        ];
        let got = allocate(&sobel_query(), &devices, &AllocationPolicy::paper()).expect("alloc");
        assert_eq!(got.device_id, "fpga-b");
        assert_eq!(got.reconfigure.as_deref(), Some("sobel"));
        assert_eq!(got.displaced, vec!["fpga-b-f0".to_string()]);
    }

    #[test]
    fn skips_devices_whose_tenants_cannot_move() {
        // Only one device serves mm: its tenant has nowhere to go, so it
        // cannot be reprogrammed; the blank device is chosen instead.
        let devices = vec![
            dev("fpga-b", "B", Some("mm"), 1, 0.0),
            dev("fpga-c", "C", None, 2, 0.0),
        ];
        let got = allocate(&sobel_query(), &devices, &AllocationPolicy::paper()).expect("alloc");
        assert_eq!(got.device_id, "fpga-c");
        assert_eq!(got.reconfigure.as_deref(), Some("sobel"));
    }

    #[test]
    fn displaced_tenants_come_back_sorted_whatever_the_fill_order() {
        // fpga-b must be reprogrammed for sobel; its mm tenants can move
        // to fpga-c. The two view sets differ only in the order fpga-b's
        // `connected` map was filled.
        let view_set = |tenants: Vec<usize>| {
            let mut busy = dev("fpga-b", "B", Some("mm"), 0, 0.0);
            for t in tenants {
                busy.connected
                    .insert(format!("tenant-{t:02}"), Some("mm".to_string()));
            }
            vec![busy, dev("fpga-c", "C", Some("mm"), 40, 0.0)]
        };
        let policy = AllocationPolicy::paper();
        let forward = allocate(&sobel_query(), &view_set((0..32).collect()), &policy);
        let backward = allocate(&sobel_query(), &view_set((0..32).rev().collect()), &policy);
        let forward = forward.expect("fpga-b's tenants can move");
        assert_eq!(Ok(forward.clone()), backward);
        assert_eq!(forward.device_id, "fpga-b");
        let expected: Vec<String> = (0..32).map(|t| format!("tenant-{t:02}")).collect();
        assert_eq!(forward.displaced, expected);
    }

    #[test]
    fn warm_staged_device_beats_a_cold_one() {
        // Neither device is configured for sobel, but fpga-c has the
        // image staged warm; node priority alone would pick fpga-b.
        let mut warm = dev("fpga-c", "C", Some("mm"), 0, 0.0);
        warm.warm_bitstreams = vec!["sobel".to_string()];
        let cold = dev("fpga-b", "B", Some("mm"), 0, 0.0);
        let got =
            allocate(&sobel_query(), &[cold, warm], &AllocationPolicy::paper()).expect("alloc");
        assert_eq!(got.device_id, "fpga-c", "warm staging wins the tie");
        assert_eq!(got.reconfigure.as_deref(), Some("sobel"));
    }

    #[test]
    fn configured_device_beats_a_warm_staged_one() {
        let mut warm = dev("fpga-b", "B", Some("mm"), 0, 0.0);
        warm.warm_bitstreams = vec!["sobel".to_string()];
        let configured = dev("fpga-c", "C", Some("sobel"), 0, 0.0);
        let got = allocate(
            &sobel_query(),
            &[warm, configured],
            &AllocationPolicy::paper(),
        )
        .expect("alloc");
        assert_eq!(got.device_id, "fpga-c");
        assert!(got.reconfigure.is_none(), "no reprogram needed");
    }

    #[test]
    fn latency_ordering_prefers_the_snappier_device() {
        let mut slow = dev("fpga-a", "A", Some("sobel"), 1, 0.2);
        slow.mean_op_latency_ms = 9.0;
        let mut fast = dev("fpga-b", "B", Some("sobel"), 1, 0.2);
        fast.mean_op_latency_ms = 3.0;
        let policy = AllocationPolicy {
            metrics_order: vec![MetricKey::OpLatency],
            metrics_filters: vec![],
            node_priority: vec![],
        };
        let got = allocate(&sobel_query(), &[slow, fast], &policy).expect("alloc");
        assert_eq!(got.device_id, "fpga-b");
    }

    #[test]
    fn errors_when_nothing_survives() {
        let devices = vec![dev("fpga-a", "A", Some("sobel"), 0, 1.0)];
        let err = allocate(&sobel_query(), &devices, &AllocationPolicy::paper())
            .expect_err("all filtered");
        assert!(matches!(
            err,
            AllocateError::DeviceNotFound { candidates: 0, .. }
        ));

        let wrong_vendor = DeviceQuery::for_accelerator("sobel").with_vendor("Xilinx");
        let devices = vec![dev("fpga-a", "A", Some("sobel"), 0, 0.0)];
        assert!(allocate(&wrong_vendor, &devices, &AllocationPolicy::paper()).is_err());
    }

    #[test]
    fn paper_placement_emerges_for_five_sequential_sobel_functions() {
        // Replays Table II's BlastFunction scenario: five sobel functions
        // allocated one after another on three devices already configured
        // with the sobel bitstream. The paper observed the distribution
        // {B: 2, A: 2, C: 1}.
        let mut devices = vec![
            dev("fpga-a", "A", Some("sobel"), 0, 0.0),
            dev("fpga-b", "B", Some("sobel"), 0, 0.0),
            dev("fpga-c", "C", Some("sobel"), 0, 0.0),
        ];
        let mut placement = Vec::new();
        for i in 0..5 {
            let got =
                allocate(&sobel_query(), &devices, &AllocationPolicy::paper()).expect("alloc");
            placement.push(got.node.as_str().to_string());
            let d = devices
                .iter_mut()
                .find(|d| d.id == got.device_id)
                .expect("chosen exists");
            d.connected
                .insert(format!("sobel-{}", i + 1), Some("sobel".to_string()));
        }
        let count = |n: &str| placement.iter().filter(|p| p.as_str() == n).count();
        assert_eq!(count("B"), 2);
        assert_eq!(count("A"), 2);
        assert_eq!(count("C"), 1);
    }
}
