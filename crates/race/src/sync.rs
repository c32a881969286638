//! The **bf-sync facade**: synchronization primitives for the
//! instrumented crates (bf-lint's `INSTRUMENTED_CRATES`).
//!
//! Normal builds re-export `parking_lot` and `std::sync::atomic` types
//! unchanged — the facade is zero-cost and type-identical, so downstream
//! code and public APIs are unaffected. Under the `model` feature the
//! same names resolve to instrumented wrappers whose every operation is a
//! scheduler yield point (see the crate docs and `docs/ARCHITECTURE.md`).
//! [`channel`] is built on those primitives, so it is modelled too.
//!
//! The instrumented crates re-export this module as `<crate>::sync`; the
//! `bf-lint` `raw_sync` rule keeps raw `parking_lot` / `std::sync::atomic`
//! primitives out of those crates unless justified.

pub mod channel;

pub use crate::time::MonoTime;

#[cfg(not(feature = "model"))]
pub use parking_lot::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

#[cfg(feature = "model")]
pub use crate::engine::sync_impl::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

/// Atomic integer/bool types. Passthrough builds re-export `std`'s;
/// model builds wrap them so loads and stores are yield points and
/// happens-before edges (every atomic op is treated as acquire+release,
/// which over-approximates visibility but never invents false races).
pub mod atomic {
    #[cfg(not(feature = "model"))]
    pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

    #[cfg(feature = "model")]
    pub use crate::engine::sync_impl::atomic::{
        AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering,
    };
}

#[cfg(feature = "model")]
pub use crate::engine::sync_impl::RaceCell;

/// A shared cell the model checker watches for data races.
///
/// In passthrough builds it is a plain mutex-protected cell (always
/// safe, negligible cost on the cold paths where it is used). In model
/// builds every `get`/`set` is a yield point checked against the vector
/// clocks of all other accesses: two accesses, at least one a write,
/// with no happens-before edge is reported as [`crate::FailureKind::DataRace`].
#[cfg(not(feature = "model"))]
#[derive(Debug, Default)]
pub struct RaceCell<T> {
    // bf-lint: allow(lock_graph): checker-internal cell, never nested with ranked locks
    cell: parking_lot::Mutex<T>,
}

#[cfg(not(feature = "model"))]
impl<T> RaceCell<T> {
    /// Creates a cell holding `value`.
    pub const fn new(value: T) -> Self {
        RaceCell {
            cell: parking_lot::Mutex::new(value),
        }
    }

    /// Reads the current value.
    pub fn get(&self) -> T
    where
        T: Clone,
    {
        self.cell.lock().clone()
    }

    /// Replaces the value.
    pub fn set(&self, value: T) {
        *self.cell.lock() = value;
    }
}
