#![forbid(unsafe_code)]

//! # bf-cluster — the Kubernetes substrate
//!
//! The Accelerators Registry integrates with a cloud orchestrator
//! (Kubernetes in the paper) to intercept function-instance creation,
//! patch the instance (environment variables, shared-memory volumes,
//! forced host allocation) and migrate instances between nodes with
//! Kubernetes' create-before-delete semantics. This crate provides exactly
//! that surface:
//!
//! * [`Cluster`] — nodes plus the instance store;
//! * a **mutating admission hook** ([`Cluster::set_admission_hook`]) called
//!   synchronously on every creation, which is how the registry's
//!   allocation algorithm patches instances;
//! * **watch streams** ([`Cluster::watch`]) delivering
//!   [`WatchEvent`]s;
//! * [`Cluster::replace_instance`] — the migration primitive: the
//!   replacement is created (and re-admitted, hence re-allocated) *before*
//!   the old instance is deleted.
//!
//! ```
//! use bf_cluster::{Cluster, InstanceTemplate};
//! use bf_model::paper_cluster;
//!
//! # fn main() -> Result<(), bf_cluster::ClusterError> {
//! let cluster = Cluster::new(paper_cluster());
//! let mut events = cluster.watch();
//! let inst = cluster.create_instance(InstanceTemplate::new("sobel-1"))?;
//! assert!(inst.node.is_some(), "the scheduler places every instance");
//! assert!(matches!(
//!     events.try_next(),
//!     Some(bf_cluster::WatchEvent::Created(_))
//! ));
//! # Ok(())
//! # }
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use bf_model::{NodeId, NodeSpec};
use bf_race::sync::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

/// Identifier of a function instance (pod).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u64);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pod-{}", self.0)
    }
}

/// Errors raised by the cluster API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The instance id is unknown (deleted or never created).
    UnknownInstance(InstanceId),
    /// A node name did not match any cluster node.
    UnknownNode(String),
    /// The admission hook rejected the instance.
    AdmissionDenied(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnknownInstance(id) => write!(f, "instance {id} not found"),
            ClusterError::UnknownNode(n) => write!(f, "node {n:?} not in the cluster"),
            ClusterError::AdmissionDenied(m) => write!(f, "admission denied: {m}"),
        }
    }
}

impl Error for ClusterError {}

/// What a deployment asks for: the pod template of a function instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstanceTemplate {
    /// Function (deployment) name, e.g. `"sobel-1"`.
    pub function: String,
    /// Requested environment.
    pub env: BTreeMap<String, String>,
    /// Labels/annotations (the registry reads the device query from here).
    pub labels: BTreeMap<String, String>,
}

impl InstanceTemplate {
    /// A template for `function` with empty env/labels.
    pub fn new(function: impl Into<String>) -> Self {
        InstanceTemplate {
            function: function.into(),
            ..Default::default()
        }
    }
}

/// A scheduled (or about-to-be-scheduled) function instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceSpec {
    /// Unique id.
    pub id: InstanceId,
    /// Function (deployment) name.
    pub function: String,
    /// Host allocation; the admission hook may force it, otherwise the
    /// scheduler fills it in.
    pub node: Option<NodeId>,
    /// Environment (the registry injects `DEVICE_MANAGER_ADDRESS` here).
    pub env: BTreeMap<String, String>,
    /// Mounted volumes (the registry injects the shared-memory volume).
    pub volumes: Vec<String>,
    /// Labels/annotations.
    pub labels: BTreeMap<String, String>,
}

/// Events delivered on watch streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchEvent {
    /// An instance was created (post-admission, post-scheduling).
    Created(InstanceSpec),
    /// An instance was patched.
    Patched(InstanceSpec),
    /// An instance was deleted.
    Deleted(InstanceId),
}

/// The mutating admission hook: may patch the instance (env, volumes,
/// forced node) or reject it with a message.
pub type AdmissionHook = Arc<dyn Fn(&mut InstanceSpec) -> Result<(), String> + Send + Sync>;

/// Deterministic counters for watch-path work, used by the scale harness
/// to quantify delivery cost: `deliveries / events` is the per-event
/// channel-send amplification across watchers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchStats {
    /// Lifecycle events generated by cluster mutations.
    pub events: u64,
    /// Channel sends performed to deliver them (one per watcher per
    /// event without coalescing; one per watcher per *batch* with it).
    pub deliveries: u64,
}

/// A consumer's end of a watch stream (see [`Cluster::watch`]).
///
/// Events are delivered strictly in mutation order. Delivery is by
/// batch: with coalescing ([`Cluster::with_watch_coalescing`]) many
/// events share one channel send, and the stream unpacks them here, so
/// consumers keep a per-event API either way.
#[derive(Debug)]
pub struct WatchStream {
    rx: Receiver<Vec<WatchEvent>>,
    buf: VecDeque<WatchEvent>,
}

impl WatchStream {
    /// Pops the next pending event, or `None` when nothing is pending.
    pub fn try_next(&mut self) -> Option<WatchEvent> {
        loop {
            if let Some(event) = self.buf.pop_front() {
                return Some(event);
            }
            match self.rx.try_recv() {
                Ok(Some(batch)) => self.buf.extend(batch),
                Ok(None) | Err(_) => return None,
            }
        }
    }

    /// Blocks for the next event; `None` means the cluster was dropped.
    pub fn next_blocking(&mut self) -> Option<WatchEvent> {
        loop {
            if let Some(event) = self.buf.pop_front() {
                return Some(event);
            }
            match self.rx.recv() {
                Ok(batch) => self.buf.extend(batch),
                Err(_) => return None,
            }
        }
    }
}

struct ClusterInner {
    nodes: Vec<NodeSpec>,
    instances: BTreeMap<InstanceId, InstanceSpec>,
    watchers: Vec<Sender<Vec<WatchEvent>>>,
    admission: Option<AdmissionHook>,
    next_id: u64,
    round_robin: usize,
    watch_stats: WatchStats,
    /// Watch-delivery coalescing window (events per delivery); 1 means
    /// one delivery per event.
    watch_coalesce: usize,
    /// Events generated but not yet delivered (< one coalescing window).
    pending: Vec<WatchEvent>,
}

/// The cluster control plane.
///
/// Cloning yields another handle to the same cluster.
#[derive(Clone)]
pub struct Cluster {
    cluster_state: Arc<Mutex<ClusterInner>>,
}

impl Cluster {
    /// Creates a cluster over `nodes`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty — a cluster needs somewhere to schedule.
    pub fn new(nodes: Vec<NodeSpec>) -> Self {
        assert!(!nodes.is_empty(), "a cluster needs at least one node");
        Cluster {
            cluster_state: Arc::new(Mutex::new(ClusterInner {
                nodes,
                instances: BTreeMap::new(),
                watchers: Vec::new(),
                admission: None,
                next_id: 1,
                round_robin: 0,
                watch_stats: WatchStats::default(),
                watch_coalesce: 1,
                pending: Vec::new(),
            })),
        }
    }

    /// The cluster's nodes.
    pub fn nodes(&self) -> Vec<NodeSpec> {
        self.cluster_state.lock().nodes.clone()
    }

    /// Looks a node up by id.
    pub fn node(&self, id: &NodeId) -> Option<NodeSpec> {
        self.cluster_state
            .lock()
            .nodes
            .iter()
            .find(|n| n.id() == id)
            .cloned()
    }

    /// Installs the mutating admission hook (the registry's interception
    /// point). Replaces any previous hook.
    pub fn set_admission_hook(&self, hook: AdmissionHook) {
        self.cluster_state.lock().admission = Some(hook);
    }

    /// Opens a watch stream; events from now on are delivered in order.
    pub fn watch(&self) -> WatchStream {
        #[expect(
            clippy::disallowed_methods,
            reason = "control-plane watch stream: event volume is bounded by deployment churn, \
                      not the data path, and a bounded queue would let one stalled watcher \
                      drop or block cluster events for every other consumer"
        )]
        let (tx, rx) = unbounded();
        let mut inner = self.cluster_state.lock();
        // Flush first so a pending coalescing window never leaks events
        // from before this subscription into the new stream.
        flush(&mut inner);
        inner.watchers.push(tx);
        WatchStream {
            rx,
            buf: VecDeque::new(),
        }
    }

    /// Watch-path work counters accumulated since construction.
    pub fn watch_stats(&self) -> WatchStats {
        self.cluster_state.lock().watch_stats
    }

    /// Sets the watch-delivery coalescing window: up to `n` events share
    /// one delivery per watcher. A window of 1 (the default) delivers
    /// per event.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_watch_coalescing(self, n: usize) -> Self {
        assert!(n > 0, "coalescing window must be at least 1");
        self.cluster_state.lock().watch_coalesce = n;
        self
    }

    /// Delivers any coalesced-pending watch events immediately.
    /// Consumers that drain on a cadence call this first, so the events
    /// they observe are independent of the coalescing window.
    pub fn flush_watch(&self) {
        flush(&mut self.cluster_state.lock());
    }

    /// Creates an instance from `template`: runs admission, schedules it
    /// onto a node (round robin unless admission forced one), stores it and
    /// notifies watchers.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::AdmissionDenied`] when the hook rejects, or
    /// [`ClusterError::UnknownNode`] when admission forced a bogus node.
    pub fn create_instance(
        &self,
        template: InstanceTemplate,
    ) -> Result<InstanceSpec, ClusterError> {
        // Run admission without holding the lock (the hook may call back).
        let (mut spec, hook) = {
            let mut inner = self.cluster_state.lock();
            let id = InstanceId(inner.next_id);
            inner.next_id += 1;
            (
                InstanceSpec {
                    id,
                    function: template.function,
                    node: None,
                    env: template.env,
                    volumes: Vec::new(),
                    labels: template.labels,
                },
                inner.admission.clone(),
            )
        };
        if let Some(hook) = hook {
            hook(&mut spec).map_err(ClusterError::AdmissionDenied)?;
        }
        let mut inner = self.cluster_state.lock();
        match &spec.node {
            Some(node) => {
                if !inner.nodes.iter().any(|n| n.id() == node) {
                    return Err(ClusterError::UnknownNode(node.to_string()));
                }
            }
            None => {
                let idx = inner.round_robin % inner.nodes.len();
                inner.round_robin += 1;
                spec.node = Some(inner.nodes[idx].id().clone());
            }
        }
        inner.instances.insert(spec.id, spec.clone());
        notify(&mut inner, WatchEvent::Created(spec.clone()));
        Ok(spec)
    }

    /// Deletes an instance and notifies watchers.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownInstance`] if it does not exist.
    pub fn delete_instance(&self, id: InstanceId) -> Result<(), ClusterError> {
        let mut inner = self.cluster_state.lock();
        inner
            .instances
            .remove(&id)
            .ok_or(ClusterError::UnknownInstance(id))?;
        notify(&mut inner, WatchEvent::Deleted(id));
        Ok(())
    }

    /// Applies `patch` to an instance and notifies watchers.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownInstance`] if it does not exist.
    pub fn patch_instance(
        &self,
        id: InstanceId,
        patch: impl FnOnce(&mut InstanceSpec),
    ) -> Result<InstanceSpec, ClusterError> {
        let mut inner = self.cluster_state.lock();
        let spec = inner
            .instances
            .get_mut(&id)
            .ok_or(ClusterError::UnknownInstance(id))?;
        patch(spec);
        let spec = spec.clone();
        notify(&mut inner, WatchEvent::Patched(spec.clone()));
        Ok(spec)
    }

    /// Fetches an instance.
    pub fn instance(&self, id: InstanceId) -> Option<InstanceSpec> {
        self.cluster_state.lock().instances.get(&id).cloned()
    }

    /// All instances, ordered by id.
    pub fn instances(&self) -> Vec<InstanceSpec> {
        self.cluster_state
            .lock()
            .instances
            .values()
            .cloned()
            .collect()
    }

    /// Instances scheduled on `node`.
    pub fn instances_on(&self, node: &NodeId) -> Vec<InstanceSpec> {
        self.cluster_state
            .lock()
            .instances
            .values()
            .filter(|i| i.node.as_ref() == Some(node))
            .cloned()
            .collect()
    }

    /// Migrates an instance with Kubernetes' create-before-delete
    /// semantics: a replacement with the same template is created (running
    /// admission again, so the registry can re-allocate and force a new
    /// node) and only then is the old instance deleted.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownInstance`] for stale ids, or any
    /// admission failure for the replacement.
    pub fn replace_instance(&self, id: InstanceId) -> Result<InstanceSpec, ClusterError> {
        let old = self.instance(id).ok_or(ClusterError::UnknownInstance(id))?;
        let template = InstanceTemplate {
            function: old.function.clone(),
            env: BTreeMap::new(), // registry-injected env is re-derived at admission
            labels: old.labels.clone(),
        };
        let replacement = self.create_instance(template)?;
        self.delete_instance(id)?;
        Ok(replacement)
    }
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.cluster_state.lock();
        f.debug_struct("Cluster")
            .field("nodes", &inner.nodes.len())
            .field("instances", &inner.instances.len())
            .finish()
    }
}

fn notify(inner: &mut ClusterInner, event: WatchEvent) {
    inner.watch_stats.events += 1;
    if inner.watchers.is_empty() {
        // Nobody to deliver to: match the unbuffered behaviour and drop
        // the event instead of accumulating an unbounded pending buffer.
        inner.pending.clear();
        return;
    }
    inner.pending.push(event);
    if inner.pending.len() >= inner.watch_coalesce {
        flush(inner);
    }
}

/// Delivers the pending batch to every live watcher: one channel send
/// per watcher per *batch*, which is the amplification coalescing cuts.
fn flush(inner: &mut ClusterInner) {
    if inner.pending.is_empty() {
        return;
    }
    let batch = std::mem::take(&mut inner.pending);
    let mut delivered = 0;
    inner.watchers.retain(|w| {
        let ok = w.send(batch.clone()).is_ok();
        if ok {
            delivered += 1;
        }
        ok
    });
    inner.watch_stats.deliveries += delivered;
}

#[cfg(test)]
mod tests {
    use bf_model::paper_cluster;

    use super::*;

    fn cluster() -> Cluster {
        Cluster::new(paper_cluster())
    }

    #[test]
    fn scheduler_round_robins_without_admission() {
        let c = cluster();
        let nodes: Vec<_> = (0..6)
            .map(|i| {
                c.create_instance(InstanceTemplate::new(format!("f{i}")))
                    .expect("create")
                    .node
                    .expect("scheduled")
            })
            .collect();
        assert_eq!(nodes[0], nodes[3]);
        assert_eq!(nodes[1], nodes[4]);
        assert_eq!(nodes[2], nodes[5]);
        assert_ne!(nodes[0], nodes[1]);
    }

    #[test]
    fn admission_hook_patches_and_forces_node() {
        let c = cluster();
        c.set_admission_hook(Arc::new(|spec| {
            spec.env
                .insert("DEVICE_MANAGER_ADDRESS".into(), "fpga-b".into());
            spec.volumes.push("/dev/shm/bf".into());
            spec.node = Some(NodeId::new("B"));
            Ok(())
        }));
        let inst = c
            .create_instance(InstanceTemplate::new("sobel-1"))
            .expect("create");
        assert_eq!(inst.node, Some(NodeId::new("B")));
        assert_eq!(
            inst.env.get("DEVICE_MANAGER_ADDRESS").map(String::as_str),
            Some("fpga-b")
        );
        assert_eq!(inst.volumes, vec!["/dev/shm/bf".to_string()]);
    }

    #[test]
    fn admission_can_reject() {
        let c = cluster();
        c.set_admission_hook(Arc::new(|_spec| Err("no device available".to_string())));
        let err = c
            .create_instance(InstanceTemplate::new("f"))
            .expect_err("denied");
        assert_eq!(
            err,
            ClusterError::AdmissionDenied("no device available".to_string())
        );
        assert!(c.instances().is_empty());
    }

    #[test]
    fn admission_forcing_unknown_node_fails() {
        let c = cluster();
        c.set_admission_hook(Arc::new(|spec| {
            spec.node = Some(NodeId::new("Z"));
            Ok(())
        }));
        let err = c
            .create_instance(InstanceTemplate::new("f"))
            .expect_err("bad node");
        assert_eq!(err, ClusterError::UnknownNode("Z".to_string()));
    }

    #[test]
    fn watch_delivers_lifecycle_events() {
        let c = cluster();
        let mut rx = c.watch();
        let inst = c
            .create_instance(InstanceTemplate::new("f"))
            .expect("create");
        c.patch_instance(inst.id, |s| {
            s.env.insert("K".into(), "V".into());
        })
        .expect("patch");
        c.delete_instance(inst.id).expect("delete");
        assert!(matches!(rx.try_next(), Some(WatchEvent::Created(_))));
        assert!(matches!(rx.try_next(), Some(WatchEvent::Patched(_))));
        assert_eq!(rx.try_next(), Some(WatchEvent::Deleted(inst.id)));
        assert_eq!(rx.try_next(), None);
    }

    #[test]
    fn replace_creates_before_deleting() {
        let c = cluster();
        let mut rx = c.watch();
        let inst = c
            .create_instance(InstanceTemplate::new("f"))
            .expect("create");
        let _ = rx.try_next();
        let replacement = c.replace_instance(inst.id).expect("replace");
        assert_ne!(replacement.id, inst.id);
        // Create-before-delete ordering on the watch stream:
        assert!(
            matches!(rx.try_next(), Some(WatchEvent::Created(spec)) if spec.id == replacement.id)
        );
        assert_eq!(rx.try_next(), Some(WatchEvent::Deleted(inst.id)));
        assert!(c.instance(inst.id).is_none());
        assert!(c.instance(replacement.id).is_some());
    }

    #[test]
    fn watch_stats_count_events_and_per_watcher_deliveries() {
        let c = cluster();
        let _a = c.watch();
        let _b = c.watch();
        let inst = c
            .create_instance(InstanceTemplate::new("f"))
            .expect("create");
        c.delete_instance(inst.id).expect("delete");
        let stats = c.watch_stats();
        assert_eq!(stats.events, 2);
        assert_eq!(stats.deliveries, 4, "one send per watcher per event");
    }

    #[test]
    fn coalescing_amortizes_deliveries_and_preserves_order() {
        let c = cluster().with_watch_coalescing(3);
        let mut rx = c.watch();
        let a = c.create_instance(InstanceTemplate::new("a")).expect("a");
        let b = c.create_instance(InstanceTemplate::new("b")).expect("b");
        // Two events pending, below the window: nothing delivered yet.
        assert_eq!(rx.try_next(), None);
        assert_eq!(c.watch_stats().deliveries, 0);
        // The third event fills the window and flushes all three.
        c.delete_instance(a.id).expect("delete");
        assert!(matches!(rx.try_next(), Some(WatchEvent::Created(s)) if s.id == a.id));
        assert!(matches!(rx.try_next(), Some(WatchEvent::Created(s)) if s.id == b.id));
        assert_eq!(rx.try_next(), Some(WatchEvent::Deleted(a.id)));
        let stats = c.watch_stats();
        assert_eq!((stats.events, stats.deliveries), (3, 1));
    }

    #[test]
    fn flush_watch_delivers_a_partial_window() {
        let c = cluster().with_watch_coalescing(64);
        let mut rx = c.watch();
        c.create_instance(InstanceTemplate::new("a")).expect("a");
        assert_eq!(rx.try_next(), None, "held by the coalescing window");
        c.flush_watch();
        assert!(matches!(rx.try_next(), Some(WatchEvent::Created(_))));
        assert_eq!(c.watch_stats().deliveries, 1);
    }

    #[test]
    fn new_watcher_never_sees_events_from_before_subscription() {
        let c = cluster().with_watch_coalescing(64);
        let mut early = c.watch();
        c.create_instance(InstanceTemplate::new("a")).expect("a");
        // Subscribing flushes the pending window to the early watcher
        // only; the late watcher starts clean.
        let mut late = c.watch();
        assert!(matches!(early.try_next(), Some(WatchEvent::Created(_))));
        assert_eq!(late.try_next(), None);
        c.create_instance(InstanceTemplate::new("b")).expect("b");
        c.flush_watch();
        assert!(matches!(late.try_next(), Some(WatchEvent::Created(s)) if s.function == "b"));
    }

    #[test]
    fn instances_on_filters_by_node() {
        let c = cluster();
        let a = c
            .create_instance(InstanceTemplate::new("f1"))
            .expect("create");
        let _b = c
            .create_instance(InstanceTemplate::new("f2"))
            .expect("create");
        let node = a.node.clone().expect("scheduled");
        let on_node = c.instances_on(&node);
        assert_eq!(on_node.len(), 1);
        assert_eq!(on_node[0].id, a.id);
    }

    #[test]
    fn stale_ids_error() {
        let c = cluster();
        assert_eq!(
            c.delete_instance(InstanceId(42)),
            Err(ClusterError::UnknownInstance(InstanceId(42)))
        );
        assert!(c.patch_instance(InstanceId(42), |_| {}).is_err());
        assert!(c.replace_instance(InstanceId(42)).is_err());
    }
}
