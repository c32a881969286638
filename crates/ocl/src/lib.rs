#![forbid(unsafe_code)]

//! # bf-ocl — an OpenCL-style host API with pluggable backends
//!
//! BlastFunction's *transparency* contribution is that accelerated host
//! code written against the OpenCL host API runs unchanged whether the
//! board is directly attached or time-shared behind a Device Manager. This
//! crate is that API surface:
//!
//! * handle types mirroring the OpenCL object model — [`Platform`],
//!   [`Device`], [`Context`], [`Program`], [`Kernel`], [`Buffer`],
//!   [`Queue`];
//! * [`Event`]s with the standard `Queued → Submitted → Running → Complete`
//!   status lifecycle, [`wait_for_events`] and profiling timestamps;
//! * the [`Backend`] trait — the seam between the API and a runtime — and
//!   the [`NativeBackend`] (direct PCIe access, the paper's baseline). The
//!   Remote OpenCL Library in `bf-remote` implements the same trait;
//! * [`Resources`], the handle table of one resource pool — the object
//!   model the [`NativeBackend`] and every Device Manager session share.
//!
//! ```
//! use std::sync::Arc;
//! use bf_fpga::{Bitstream, Board, BoardSpec, FnKernel, KernelDescriptor, KernelInvocation};
//! use bf_model::{node_b, PcieGeneration, PcieLink, VirtualClock, VirtualDuration};
//! use bf_ocl::{BitstreamCatalog, Device, NativeBackend, NdRange};
//! use parking_lot::Mutex;
//!
//! # fn main() -> Result<(), bf_ocl::ClError> {
//! let negate = FnKernel::new(
//!     |_inv: &KernelInvocation| VirtualDuration::from_micros(30),
//!     |inv, mem| {
//!         let buf = inv.arg(0)?.as_buffer()?;
//!         for b in mem.bytes_mut(buf)? { *b = !*b; }
//!         Ok(())
//!     },
//! );
//! let mut catalog = BitstreamCatalog::new();
//! catalog.register(Arc::new(Bitstream::new(
//!     "negate",
//!     vec![KernelDescriptor::new("negate", Arc::new(negate))],
//! )));
//! let board = Arc::new(Mutex::new(Board::new(
//!     BoardSpec::de5a_net(),
//!     PcieLink::new(PcieGeneration::Gen3, 8),
//! )));
//! let device = Device::new(Arc::new(NativeBackend::new(
//!     node_b(), board, catalog, VirtualClock::new(), "quickstart",
//! )));
//!
//! // Plain OpenCL-looking host code:
//! let ctx = device.create_context()?;
//! let program = ctx.build_program("negate")?;
//! let kernel = program.create_kernel("negate")?;
//! let buf = ctx.create_buffer(4)?;
//! let queue = ctx.create_queue()?;
//! queue.write(&buf, vec![0x0Fu8; 4])?;
//! kernel.set_arg_buffer(0, &buf)?;
//! queue.launch(&kernel, NdRange::d1(4))?;
//! queue.finish()?;
//! assert_eq!(queue.read_vec(&buf)?, vec![0xF0u8; 4]);
//! # Ok(())
//! # }
//! ```

mod backend;
mod error;
mod event;
mod handle;
mod native;
mod resources;
mod types;

pub use backend::Backend;
pub use error::{ClError, ClResult};
pub use event::{wait_for_events, CommandType, Event, EventCallback, EventProfile, EventStatus};
pub use handle::{Buffer, Context, Device, Kernel, Platform, Program, Queue};
pub use native::NativeBackend;
pub use resources::{Resources, MAX_POOL_OBJECTS};
pub use types::{
    ArgValue, BitstreamCatalog, ContextId, DeviceInfo, KernelId, MemId, NdRange, ProgramId, QueueId,
};

#[cfg(test)]
mod proptests {
    use bf_model::VirtualTime;
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// Whatever order runtime transitions arrive in, an event's status
        /// sequence observed through the API is monotone and reaches at
        /// most one terminal status.
        #[test]
        fn event_status_is_monotone(transitions in proptest::collection::vec(0u8..4, 0..12)) {
            let ev = Event::new(CommandType::Marker, VirtualTime::ZERO);
            let mut observed = vec![ev.status()];
            for t in transitions {
                match t {
                    0 => ev.mark_submitted(VirtualTime::from_nanos(1)),
                    1 => ev.mark_running(VirtualTime::from_nanos(2)),
                    2 => ev.complete(VirtualTime::from_nanos(2), VirtualTime::from_nanos(3), None),
                    _ => ev.fail(ClError::InvalidQueue),
                }
                observed.push(ev.status());
            }
            for pair in observed.windows(2) {
                prop_assert!(pair[0] <= pair[1], "status went backwards: {observed:?}");
            }
            // `<=` alone would admit `Complete → Failed`: terminals absorb.
            let mut terminals: Vec<EventStatus> =
                observed.iter().copied().filter(|s| s.is_terminal()).collect();
            terminals.dedup();
            prop_assert!(terminals.len() <= 1, "two terminal statuses: {observed:?}");
        }

        /// Profiling timestamps, when present, are ordered
        /// queued <= submitted <= started <= ended.
        #[test]
        fn profiling_timestamps_are_ordered(
            submit in 0u64..100,
            start_extra in 0u64..100,
            run in 0u64..100,
        ) {
            let ev = Event::new(CommandType::NdRangeKernel, VirtualTime::ZERO);
            let submit_t = VirtualTime::from_nanos(submit);
            let start_t = submit_t + bf_model::VirtualDuration::from_nanos(start_extra);
            let end_t = start_t + bf_model::VirtualDuration::from_nanos(run);
            ev.mark_submitted(submit_t);
            ev.mark_running(start_t);
            ev.complete(start_t, end_t, None);
            let p = ev.profile();
            prop_assert!(p.queued <= p.submitted);
            prop_assert!(p.submitted <= p.started);
            prop_assert!(p.started <= p.ended);
        }
    }
}
