//! Scenario configuration for the multi-tenant cluster experiments.

use bf_model::{DataPathKind, VirtualDuration};
use bf_serverless::{LoadLevel, UseCase};
use bf_workloads::RequestProfile;

/// How functions reach the FPGAs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// BlastFunction sharing: five functions over three devices through
    /// Device Managers, with the chosen bulk data path.
    BlastFunction {
        /// gRPC or shared memory.
        data_path: DataPathKind,
    },
    /// Native baseline: one function per device, direct PCIe access
    /// (only the first three Table I columns apply).
    Native,
}

impl Deployment {
    /// The deployment label used in the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            Deployment::BlastFunction {
                data_path: DataPathKind::SharedMemory,
            } => "BlastFunction",
            Deployment::BlastFunction {
                data_path: DataPathKind::Grpc,
            } => "BlastFunction (gRPC)",
            Deployment::Native => "Native",
        }
    }

    /// Number of functions this deployment runs (paper §IV-B: five for
    /// BlastFunction, three for Native).
    pub fn function_count(&self) -> usize {
        match self {
            Deployment::BlastFunction { .. } => 5,
            Deployment::Native => 3,
        }
    }
}

/// One multi-tenant experiment (a row group of Tables II–IV).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Which benchmark function.
    pub use_case: UseCase,
    /// Which Table I load level.
    pub level: LoadLevel,
    /// BlastFunction sharing or the native baseline.
    pub deployment: Deployment,
    /// Measurement window (after warm-up).
    pub duration: VirtualDuration,
    /// Warm-up excluded from statistics.
    pub warmup: VirtualDuration,
    /// RNG seed (host-side jitter).
    pub seed: u64,
    /// Relative jitter applied to host-side costs (0 disables).
    pub jitter: f64,
    /// Overrides the Algorithm-1 placement with explicit device indices
    /// (0 = node A, 1 = B, 2 = C), for placement ablations.
    pub placement_override: Option<Vec<usize>>,
    /// Overrides the per-request profile, for task-granularity ablations.
    pub profile_override: Option<RequestProfile>,
    /// Space-sharing ablation (the paper's future work): number of
    /// independent accelerator regions per board (1 = the paper's pure
    /// time-sharing).
    pub space_slots: u32,
    /// Kernel slowdown factor under space-sharing: each region holds a
    /// smaller replica of the accelerator, so kernels run slower.
    pub space_kernel_slowdown: f64,
}

impl ScenarioConfig {
    /// The defaults used to regenerate the paper's tables: 60 s of
    /// measurement after 5 s of warm-up, mild (8%) host jitter.
    pub fn new(use_case: UseCase, level: LoadLevel, deployment: Deployment) -> Self {
        ScenarioConfig {
            use_case,
            level,
            deployment,
            duration: VirtualDuration::from_secs(60),
            warmup: VirtualDuration::from_secs(5),
            seed: 0xB1A5_7F00 ^ seed_component(use_case, level, deployment),
            jitter: 0.08,
            placement_override: None,
            profile_override: None,
            space_slots: 1,
            space_kernel_slowdown: 1.0,
        }
    }

    /// Enables the space-sharing ablation: `slots` independent regions per
    /// board, each running kernels `kernel_slowdown`× slower (the area
    /// cost of splitting the accelerator).
    ///
    /// # Panics
    ///
    /// Panics when `slots` is zero or `kernel_slowdown < 1`.
    pub fn with_space_sharing(mut self, slots: u32, kernel_slowdown: f64) -> Self {
        assert!(slots >= 1, "at least one region");
        assert!(kernel_slowdown >= 1.0, "splitting cannot speed a kernel up");
        self.space_slots = slots;
        self.space_kernel_slowdown = kernel_slowdown;
        self
    }

    /// Forces an explicit placement (device index per function).
    pub fn with_placement(mut self, placement: Vec<usize>) -> Self {
        self.placement_override = Some(placement);
        self
    }

    /// Forces a custom per-request profile.
    pub fn with_profile(mut self, profile: RequestProfile) -> Self {
        self.profile_override = Some(profile);
        self
    }

    /// Overrides the measurement duration.
    pub fn with_duration(mut self, duration: VirtualDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Overrides the jitter spread.
    ///
    /// # Panics
    ///
    /// Panics if `jitter` is not in `[0, 1)`.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
        self.jitter = jitter;
        self
    }
}

fn seed_component(use_case: UseCase, level: LoadLevel, deployment: Deployment) -> u64 {
    let u = match use_case {
        UseCase::Sobel => 1,
        UseCase::Mm => 2,
        UseCase::AlexNet => 3,
    };
    let l = match level {
        LoadLevel::Low => 1,
        LoadLevel::Medium => 2,
        LoadLevel::High => 3,
    };
    let d = match deployment {
        Deployment::BlastFunction {
            data_path: DataPathKind::SharedMemory,
        } => 1,
        Deployment::BlastFunction {
            data_path: DataPathKind::Grpc,
        } => 2,
        Deployment::Native => 3,
    };
    (u << 8) | (l << 4) | d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_counts_match_the_paper() {
        assert_eq!(
            Deployment::BlastFunction {
                data_path: DataPathKind::SharedMemory
            }
            .function_count(),
            5
        );
        assert_eq!(Deployment::Native.function_count(), 3);
    }

    #[test]
    fn distinct_scenarios_get_distinct_seeds() {
        let a = ScenarioConfig::new(UseCase::Sobel, LoadLevel::Low, Deployment::Native);
        let b = ScenarioConfig::new(UseCase::Mm, LoadLevel::Low, Deployment::Native);
        assert_ne!(a.seed, b.seed);
    }
}
