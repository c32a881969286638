#![forbid(unsafe_code)]

//! # bf-model — virtual time and calibrated cost models
//!
//! Foundation crate of the BlastFunction reproduction. Everything the rest
//! of the workspace measures is expressed on a *virtual timeline*
//! ([`VirtualTime`], [`VirtualDuration`], [`VirtualClock`]) and every
//! simulated hardware/infrastructure element charges time through one of
//! the cost models defined here:
//!
//! * [`PcieLink`] — the board's host connector (gen2 on node A, gen3 on B/C);
//! * [`MemcpyModel`] — host DRAM copies (shared-memory single copy, gRPC's
//!   extra copies);
//! * [`EthernetModel`] — the 1 Gb/s cluster fabric;
//! * [`SerializationModel`], [`ControlPlaneModel`], [`DataPathModel`] — the
//!   gRPC-like API-remoting costs of the Remote OpenCL Library;
//! * [`KernelTiming`] — per-accelerator latency models fitted to the
//!   paper's Fig. 4 measurements;
//! * [`NodeSpec`] / [`paper_cluster`] — the three-node testbed.
//!
//! It also holds [`Fnv1a`], the one deterministic hash behind replay
//! digests, rendezvous shard ownership and metrics shard assignment.
//!
//! ```
//! use bf_model::{paper_cluster, VirtualClock, VirtualDuration};
//!
//! let cluster = paper_cluster();
//! let clock = VirtualClock::new();
//! let write = cluster[1].pcie().transfer_time(8 << 20);
//! clock.advance_by(write);
//! assert!(clock.now().as_millis_f64() > 1.0);
//! ```

mod clock;
mod hash;
mod link;
mod node;
mod time;
mod timing;
mod wire;

pub use clock::VirtualClock;
pub use hash::Fnv1a;
pub use link::{EthernetModel, MemcpyModel, PcieGeneration, PcieLink};
pub use node::{node_a, node_b, node_c, paper_cluster, NodeId, NodeSpec};
pub use time::{VirtualDuration, VirtualTime};
pub use timing::KernelTiming;
pub use wire::{ControlPlaneModel, DataPathKind, DataPathModel, SerializationModel};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        #[test]
        fn time_add_then_sub_is_identity(base in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
            let t = VirtualTime::from_nanos(base);
            let dur = VirtualDuration::from_nanos(d);
            prop_assert_eq!((t + dur) - t, dur);
        }

        #[test]
        fn pcie_transfer_time_is_monotonic(a in 0u64..1 << 34, b in 0u64..1 << 34) {
            let link = PcieLink::new(PcieGeneration::Gen3, 8);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(link.transfer_time(lo) <= link.transfer_time(hi));
        }

        #[test]
        fn grpc_always_costs_at_least_shm(bytes in 0u64..1 << 32) {
            let grpc = DataPathModel::grpc();
            let shm = DataPathModel::shared_memory();
            prop_assert!(grpc.payload_cost(bytes) >= shm.payload_cost(bytes));
        }

        #[test]
        fn clock_advance_never_goes_backwards(steps in proptest::collection::vec(0u64..1 << 40, 1..64)) {
            let clock = VirtualClock::new();
            let mut last = clock.now();
            for s in steps {
                let now = clock.advance_to(VirtualTime::from_nanos(s));
                prop_assert!(now >= last);
                last = now;
            }
        }

        #[test]
        fn linear_fit_interpolates_monotonically(
            lo in 1u64..1000,
            span in 1u64..1_000_000,
            t_lo in 0u64..10_000_000,
            extra in 0u64..10_000_000_000,
        ) {
            let hi = lo + span;
            let fit = KernelTiming::fit_linear(
                lo,
                VirtualDuration::from_nanos(t_lo),
                hi,
                VirtualDuration::from_nanos(t_lo + extra),
            );
            let mid = lo + span / 2;
            prop_assert!(fit.evaluate(lo) <= fit.evaluate(mid));
            prop_assert!(fit.evaluate(mid) <= fit.evaluate(hi));
        }
    }
}
