//! Function autoscaling — the Gateway responsibility the paper delegates
//! to OpenFaaS ("forwards the requests to the functions and handles
//! autoscaling").
//!
//! The scaler is deliberately OpenFaaS-shaped: a per-function target load
//! per replica, min/max bounds, and scale-down hysteresis so replica
//! counts don't flap around the threshold. On top of the observed rate,
//! the batching pipeline contributes two pressure signals — queue depth
//! and shed rate (see [`LoadSignal`]) — which force scale-ups and veto
//! scale-downs: a function that sheds is overloaded no matter what its
//! processed rate claims. Reconciliation goes through the cluster, which
//! means every new replica passes the Accelerators Registry's admission
//! hook and gets its own device allocation.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use bf_cluster::{Cluster, ClusterError, InstanceId, InstanceTemplate};
use bf_model::VirtualDuration;
use bf_race::sync::Mutex;

use crate::gateway::Gateway;

/// The load observation one reconciliation acts on: the processed rate
/// plus the admission pipeline's pressure signals.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LoadSignal {
    /// Observed processed rate (rq/s).
    pub observed_rps: f64,
    /// Invocations currently queued at the gateway.
    pub queue_depth: u32,
    /// Rate of admission-control sheds (rq/s).
    pub shed_rps: f64,
}

impl LoadSignal {
    /// A signal carrying only an observed rate (no queue or shed
    /// pressure) — the pre-batching reconcile input.
    pub fn from_rps(observed_rps: f64) -> Self {
        LoadSignal {
            observed_rps,
            queue_depth: 0,
            shed_rps: 0.0,
        }
    }

    /// Sets the gateway queue depth.
    pub fn with_queue_depth(mut self, queue_depth: u32) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Sets the shed rate.
    pub fn with_shed_rps(mut self, shed_rps: f64) -> Self {
        self.shed_rps = shed_rps;
        self
    }

    /// Whether the signal shows admission pressure (a deep queue or any
    /// shedding) against `policy`.
    pub fn pressured(&self, policy: &AutoscalePolicy) -> bool {
        self.queue_depth >= policy.queue_pressure || self.shed_rps > 0.0
    }
}

/// Per-function scaling policy. Configure with the `with_*` builders:
///
/// ```
/// use bf_serverless::AutoscalePolicy;
///
/// let policy = AutoscalePolicy::new()
///     .with_target_rps_per_replica(20.0)
///     .with_bounds(1, 4);
/// assert_eq!(policy.max_replicas, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalePolicy {
    /// Load one replica is expected to absorb (rq/s).
    pub target_rps_per_replica: f64,
    /// Lower bound on replicas (≥ 1: scale-to-zero is out of scope, as in
    /// the paper's OpenFaaS setup).
    pub min_replicas: u32,
    /// Upper bound on replicas.
    pub max_replicas: u32,
    /// Hysteresis in `(0, 1]`: scale down only when the observed load
    /// would fit into the smaller replica set with this much headroom.
    pub scale_down_headroom: f64,
    /// Queue depth at which admission pressure forces one extra replica
    /// (and vetoes scale-down) regardless of the observed rate.
    pub queue_pressure: u32,
}

impl Default for AutoscalePolicy {
    fn default() -> Self {
        AutoscalePolicy {
            target_rps_per_replica: 10.0,
            min_replicas: 1,
            max_replicas: 5,
            scale_down_headroom: 0.8,
            queue_pressure: 8,
        }
    }
}

impl AutoscalePolicy {
    /// The default policy: 10 rq/s per replica, 1–5 replicas, 80%
    /// scale-down headroom, queue-pressure threshold 8.
    pub fn new() -> Self {
        AutoscalePolicy::default()
    }

    /// Sets the load one replica is expected to absorb.
    ///
    /// # Panics
    ///
    /// Panics if `target_rps_per_replica` is not strictly positive.
    pub fn with_target_rps_per_replica(mut self, target_rps_per_replica: f64) -> Self {
        assert!(target_rps_per_replica > 0.0, "target load must be positive");
        self.target_rps_per_replica = target_rps_per_replica;
        self
    }

    /// Overrides the replica bounds.
    ///
    /// # Panics
    ///
    /// Panics if `min` is zero or exceeds `max`.
    pub fn with_bounds(mut self, min: u32, max: u32) -> Self {
        assert!(
            min >= 1 && min <= max,
            "need 1 <= min <= max, got {min}..{max}"
        );
        self.min_replicas = min;
        self.max_replicas = max;
        self
    }

    /// Overrides the scale-down hysteresis.
    ///
    /// # Panics
    ///
    /// Panics if `headroom` is outside `(0, 1]`.
    pub fn with_scale_down_headroom(mut self, headroom: f64) -> Self {
        assert!(
            headroom > 0.0 && headroom <= 1.0,
            "headroom must be in (0, 1], got {headroom}"
        );
        self.scale_down_headroom = headroom;
        self
    }

    /// Overrides the queue-pressure threshold.
    pub fn with_queue_pressure(mut self, queue_pressure: u32) -> Self {
        self.queue_pressure = queue_pressure;
        self
    }

    /// The replica count this policy wants for `signal` given `current`
    /// replicas: the rate-proportional count, bumped by one step under
    /// admission pressure, with hysteresis (and a pressure veto) on the
    /// way down.
    pub fn desired_replicas(&self, signal: &LoadSignal, current: u32) -> u32 {
        let raw = (signal.observed_rps / self.target_rps_per_replica)
            .ceil()
            .max(0.0) as u32;
        let mut desired = raw.clamp(self.min_replicas, self.max_replicas);
        let pressured = signal.pressured(self);
        if pressured {
            // Queue growth / shedding means the observed rate understates
            // demand: step up one replica beyond whatever rate said.
            desired = desired.max((current + 1).min(self.max_replicas));
        }
        if desired >= current {
            return desired;
        }
        if pressured {
            // Never scale down while the queue is backing up.
            return current.clamp(self.min_replicas, self.max_replicas);
        }
        // Scaling down: only if the load fits the smaller set with headroom.
        let capacity_after =
            f64::from(desired) * self.target_rps_per_replica * self.scale_down_headroom;
        if signal.observed_rps <= capacity_after {
            desired
        } else {
            current.clamp(self.min_replicas, self.max_replicas)
        }
    }
}

/// What one reconciliation did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconcileAction {
    /// Replicas before.
    pub before: u32,
    /// Replicas after.
    pub after: u32,
    /// Instances created (in order).
    pub created: Vec<InstanceId>,
    /// Instances deleted (in order).
    pub deleted: Vec<InstanceId>,
}

impl ReconcileAction {
    /// Whether anything changed.
    pub fn changed(&self) -> bool {
        self.before != self.after
    }
}

/// Errors from reconciliation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AutoscaleError {
    /// The function has no registered policy.
    UnknownFunction(String),
    /// The cluster refused an operation (admission denied, etc.).
    Cluster(ClusterError),
}

impl fmt::Display for AutoscaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutoscaleError::UnknownFunction(n) => {
                write!(f, "no autoscale policy registered for function {n:?}")
            }
            AutoscaleError::Cluster(e) => write!(f, "cluster operation failed: {e}"),
        }
    }
}

impl std::error::Error for AutoscaleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AutoscaleError::Cluster(e) => Some(e),
            AutoscaleError::UnknownFunction(_) => None,
        }
    }
}

impl From<ClusterError> for AutoscaleError {
    fn from(e: ClusterError) -> Self {
        AutoscaleError::Cluster(e)
    }
}

/// The gateway-side autoscaler: reconciles each function's replica count
/// against observed load through the cluster API.
#[derive(Clone)]
pub struct Autoscaler {
    cluster: Cluster,
    policies: Arc<Mutex<BTreeMap<String, AutoscalePolicy>>>,
}

impl Autoscaler {
    /// Creates an autoscaler over `cluster`.
    pub fn new(cluster: Cluster) -> Self {
        Autoscaler {
            cluster,
            policies: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Registers (or replaces) a function's policy.
    pub fn set_policy(&self, function: impl Into<String>, policy: AutoscalePolicy) {
        self.policies.lock().insert(function.into(), policy);
    }

    /// The policy for `function`, if registered.
    pub fn policy(&self, function: &str) -> Option<AutoscalePolicy> {
        self.policies.lock().get(function).copied()
    }

    /// Current replicas of `function`.
    pub fn replicas(&self, function: &str) -> u32 {
        self.cluster
            .instances()
            .iter()
            .filter(|i| i.function == function)
            .count() as u32
    }

    /// Reconciles `function` against an observed [`LoadSignal`]: creates
    /// replicas (each passing admission, i.e. device allocation) or
    /// deletes the youngest ones.
    ///
    /// # Errors
    ///
    /// Fails when no policy is registered or a cluster operation fails;
    /// partially applied scale-ups are reported in the error-free prefix
    /// of `created`.
    pub fn reconcile(
        &self,
        function: &str,
        signal: &LoadSignal,
    ) -> Result<ReconcileAction, AutoscaleError> {
        let policy = self
            .policy(function)
            .ok_or_else(|| AutoscaleError::UnknownFunction(function.to_string()))?;
        let mut existing: Vec<InstanceId> = self
            .cluster
            .instances()
            .into_iter()
            .filter(|i| i.function == function)
            .map(|i| i.id)
            .collect();
        existing.sort();
        let before = existing.len() as u32;
        let desired = policy.desired_replicas(signal, before);

        let mut created = Vec::new();
        let mut deleted = Vec::new();
        if desired > before {
            for _ in before..desired {
                let inst = self
                    .cluster
                    .create_instance(InstanceTemplate::new(function))?;
                created.push(inst.id);
            }
        } else if desired < before {
            // Delete the youngest replicas first (highest ids).
            for id in existing.iter().rev().take((before - desired) as usize) {
                self.cluster.delete_instance(*id)?;
                deleted.push(*id);
            }
        }
        Ok(ReconcileAction {
            before,
            after: desired,
            created,
            deleted,
        })
    }

    /// Reconciles `function` against the gateway's own view of its load
    /// over the window `span` ([`Gateway::load_signal`]): processed rate,
    /// queue depth, and shed rate.
    ///
    /// # Errors
    ///
    /// As [`Autoscaler::reconcile`]; additionally
    /// [`AutoscaleError::UnknownFunction`] when the gateway has no such
    /// deployment.
    pub fn reconcile_from_gateway(
        &self,
        function: &str,
        gateway: &Gateway,
        span: VirtualDuration,
    ) -> Result<ReconcileAction, AutoscaleError> {
        let signal = gateway
            .load_signal(function, span)
            .ok_or_else(|| AutoscaleError::UnknownFunction(function.to_string()))?;
        self.reconcile(function, &signal)
    }
}

impl fmt::Debug for Autoscaler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Autoscaler")
            .field("policies", &self.policies.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use bf_model::paper_cluster;

    use super::*;

    fn policy() -> AutoscalePolicy {
        AutoscalePolicy::new().with_target_rps_per_replica(20.0)
    }

    #[test]
    fn desired_replicas_scale_with_load() {
        let p = policy();
        assert_eq!(p.desired_replicas(&LoadSignal::from_rps(0.0), 1), 1, "min");
        assert_eq!(p.desired_replicas(&LoadSignal::from_rps(19.0), 1), 1);
        assert_eq!(p.desired_replicas(&LoadSignal::from_rps(21.0), 1), 2);
        assert_eq!(p.desired_replicas(&LoadSignal::from_rps(95.0), 1), 5);
        assert_eq!(
            p.desired_replicas(&LoadSignal::from_rps(500.0), 1),
            5,
            "max bound"
        );
    }

    #[test]
    fn scale_down_has_hysteresis() {
        let p = policy();
        // At 2 replicas and 17 rq/s: 1 replica would be 85% loaded, above
        // the 80% headroom — stay at 2.
        assert_eq!(p.desired_replicas(&LoadSignal::from_rps(17.0), 2), 2);
        // At 15 rq/s (75% of one replica) it is safe to drop to 1.
        assert_eq!(p.desired_replicas(&LoadSignal::from_rps(15.0), 2), 1);
    }

    #[test]
    fn queue_pressure_forces_a_step_up() {
        let p = policy().with_queue_pressure(4);
        let calm = LoadSignal::from_rps(10.0);
        assert_eq!(p.desired_replicas(&calm, 1), 1);
        let deep_queue = calm.with_queue_depth(4);
        assert_eq!(p.desired_replicas(&deep_queue, 1), 2, "queue pressure");
        let shedding = calm.with_shed_rps(2.0);
        assert_eq!(p.desired_replicas(&shedding, 2), 3, "shed pressure");
        assert_eq!(
            p.desired_replicas(&shedding, 5),
            5,
            "pressure respects the max bound"
        );
    }

    #[test]
    fn pressure_vetoes_scale_down() {
        let p = policy();
        // 15 rq/s at 3 replicas would normally drop to 1…
        assert_eq!(p.desired_replicas(&LoadSignal::from_rps(15.0), 3), 1);
        // …but not while requests are being shed.
        let shedding = LoadSignal::from_rps(15.0).with_shed_rps(1.0);
        assert_eq!(p.desired_replicas(&shedding, 3), 4, "step up instead");
    }

    #[test]
    fn reconcile_creates_and_deletes_through_the_cluster() {
        let cluster = Cluster::new(paper_cluster());
        let scaler = Autoscaler::new(cluster.clone());
        scaler.set_policy("sobel-1", policy().with_bounds(1, 4));

        let up = scaler
            .reconcile("sobel-1", &LoadSignal::from_rps(65.0))
            .expect("scale up");
        assert_eq!(up.before, 0);
        assert_eq!(
            up.created.len(),
            4,
            "65 rq/s needs 4 replicas at 20 rq/s each"
        );
        assert_eq!(scaler.replicas("sobel-1"), 4);

        let down = scaler
            .reconcile("sobel-1", &LoadSignal::from_rps(10.0))
            .expect("scale down");
        assert_eq!(down.deleted.len(), 3);
        assert_eq!(scaler.replicas("sobel-1"), 1, "min bound respected");
        // Youngest replicas were removed: the survivor is the oldest.
        let survivors = cluster.instances();
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].id, up.created[0]);
    }

    #[test]
    fn unknown_function_is_an_error() {
        let scaler = Autoscaler::new(Cluster::new(paper_cluster()));
        assert!(matches!(
            scaler.reconcile("ghost", &LoadSignal::from_rps(10.0)),
            Err(AutoscaleError::UnknownFunction(_))
        ));
    }

    #[test]
    fn admission_denial_surfaces_with_a_source_chain() {
        let cluster = Cluster::new(paper_cluster());
        cluster.set_admission_hook(Arc::new(|_spec| Err("no device".to_string())));
        let scaler = Autoscaler::new(cluster);
        scaler.set_policy(
            "f",
            AutoscalePolicy::new().with_target_rps_per_replica(10.0),
        );
        let err = scaler
            .reconcile("f", &LoadSignal::from_rps(25.0))
            .expect_err("admission denied");
        assert!(matches!(&err, AutoscaleError::Cluster(_)));
        assert!(
            std::error::Error::source(&err).is_some(),
            "cluster error chained as the source"
        );
    }
}
