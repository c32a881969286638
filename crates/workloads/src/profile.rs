//! Request profiles: the per-request OpenCL operation structure of a
//! workload, consumed by the discrete-event cluster simulation.
//!
//! A profile captures what one HTTP request makes the function's host code
//! do: which transfers and kernel launches, grouped into the
//! multi-operation *tasks* that a flush/blocking call seals. Task
//! boundaries are what cost control round trips on the remote path and
//! what bounds interleaving between tenants on a shared device.

use bf_model::{NodeSpec, VirtualDuration};

/// One device operation inside a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpProfile {
    /// Host → device transfer of `bytes`.
    Write {
        /// Payload size.
        bytes: u64,
    },
    /// Device → host transfer of `bytes`.
    Read {
        /// Payload size.
        bytes: u64,
    },
    /// A kernel launch of known duration.
    Kernel {
        /// The launch's calibrated duration.
        duration: VirtualDuration,
    },
}

/// A group of operations executed atomically (one sealed task).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TaskProfile {
    /// Operations in issue order.
    pub ops: Vec<OpProfile>,
}

impl TaskProfile {
    /// A task from a list of operations.
    pub fn new(ops: Vec<OpProfile>) -> Self {
        TaskProfile { ops }
    }

    /// Total kernel time inside the task.
    pub fn kernel_time(&self) -> VirtualDuration {
        self.ops
            .iter()
            .filter_map(|op| match op {
                OpProfile::Kernel { duration } => Some(*duration),
                _ => None,
            })
            .sum()
    }

    /// Total bytes written to the device.
    pub fn bytes_written(&self) -> u64 {
        self.ops
            .iter()
            .filter_map(|op| match op {
                OpProfile::Write { bytes } => Some(*bytes),
                _ => None,
            })
            .sum()
    }

    /// Total bytes read from the device.
    pub fn bytes_read(&self) -> u64 {
        self.ops
            .iter()
            .filter_map(|op| match op {
                OpProfile::Read { bytes } => Some(*bytes),
                _ => None,
            })
            .sum()
    }
}

/// The complete per-request structure of one workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestProfile {
    /// Workload name: `"sobel"`, `"mm"`, or `"pipecnn-<network>"`
    /// (`"pipecnn-<network>-batched"` for the one-task variant).
    pub name: String,
    /// Tasks in order; each boundary is a host synchronization point
    /// (costing a control round trip on the remote path).
    pub tasks: Vec<TaskProfile>,
}

impl RequestProfile {
    /// Builds a profile.
    pub fn new(name: impl Into<String>, tasks: Vec<TaskProfile>) -> Self {
        RequestProfile {
            name: name.into(),
            tasks,
        }
    }

    /// Number of host synchronization points per request.
    pub fn sync_points(&self) -> usize {
        self.tasks.len()
    }

    /// Total kernel time per request.
    pub fn kernel_time(&self) -> VirtualDuration {
        self.tasks.iter().map(TaskProfile::kernel_time).sum()
    }

    /// Total bytes moved per request (both directions).
    pub fn bytes_moved(&self) -> u64 {
        self.tasks
            .iter()
            .map(|t| t.bytes_written() + t.bytes_read())
            .sum()
    }

    /// Total operation count per request.
    pub fn op_count(&self) -> usize {
        self.tasks.iter().map(|t| t.ops.len()).sum()
    }

    /// The uncontended device-side service time of one request on `node`:
    /// every transfer at the node's calibrated PCIe bandwidth plus every
    /// kernel launch at its profiled duration. This is the per-item cost a
    /// batching gateway amortizes its fixed dispatch overhead over.
    pub fn service_time(&self, node: &NodeSpec) -> VirtualDuration {
        self.tasks
            .iter()
            .flat_map(|t| t.ops.iter())
            .map(|op| match op {
                OpProfile::Write { bytes } | OpProfile::Read { bytes } => {
                    node.pcie().transfer_time(*bytes)
                }
                OpProfile::Kernel { duration } => *duration,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_sum_over_tasks() {
        let profile = RequestProfile::new(
            "t",
            vec![
                TaskProfile::new(vec![
                    OpProfile::Write { bytes: 100 },
                    OpProfile::Kernel {
                        duration: VirtualDuration::from_millis(2),
                    },
                ]),
                TaskProfile::new(vec![
                    OpProfile::Kernel {
                        duration: VirtualDuration::from_millis(3),
                    },
                    OpProfile::Read { bytes: 50 },
                ]),
            ],
        );
        assert_eq!(profile.sync_points(), 2);
        assert_eq!(profile.kernel_time(), VirtualDuration::from_millis(5));
        assert_eq!(profile.bytes_moved(), 150);
        assert_eq!(profile.op_count(), 4);
    }

    #[test]
    fn service_time_charges_transfers_and_kernels() {
        let node = bf_model::node_b();
        let profile = RequestProfile::new(
            "t",
            vec![TaskProfile::new(vec![
                OpProfile::Write { bytes: 1 << 20 },
                OpProfile::Kernel {
                    duration: VirtualDuration::from_millis(2),
                },
                OpProfile::Read { bytes: 1 << 20 },
            ])],
        );
        let expected = node.pcie().transfer_time(1 << 20) * 2 + VirtualDuration::from_millis(2);
        assert_eq!(profile.service_time(&node), expected);
        // A kernel-only profile is node-independent.
        let compute = RequestProfile::new(
            "k",
            vec![TaskProfile::new(vec![OpProfile::Kernel {
                duration: VirtualDuration::from_millis(7),
            }])],
        );
        assert_eq!(compute.service_time(&node), VirtualDuration::from_millis(7));
    }
}
