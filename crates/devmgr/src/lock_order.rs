//! Declared lock hierarchy and a debug-build held-lock tracker.
//!
//! The workspace has a small number of long-lived locks; deadlock freedom
//! rests on every thread acquiring them in one global order. That order is
//! declared once, here, in [`HIERARCHY`]: a thread may only acquire a lock
//! whose rank is *strictly greater* than every lock it already holds.
//!
//! Two enforcement layers consume this table:
//!
//! * **statically**, `bf-lint`'s `lock_order` rule imports [`HIERARCHY`]
//!   and flags source lines that acquire a lower-ranked lock while a
//!   higher-ranked guard is still live in the same function;
//! * **at runtime** (debug builds only), [`tracked`] wraps a
//!   `parking_lot::Mutex` acquisition with a thread-local rank check that
//!   panics on an out-of-order acquisition, catching orders the line
//!   scanner cannot see (cross-function nesting).
//!
//! Release builds compile the tracker away: [`tracked`] degrades to a plain
//! `lock()` with zero bookkeeping.

// bf-lint: allow(raw_sync): the tracker wraps the raw board lock, which is
// shared with non-instrumented crates and cannot move behind the facade
use parking_lot::{Mutex, MutexGuard};

/// The global lock-acquisition order, outermost first.
///
/// A thread holding the lock named at index `i` may only acquire locks at
/// indexes `> i`. Names refer to the *field* holding the lock; the table is
/// the single source of truth shared with `bf-lint`.
pub const HIERARCHY: &[&str] = &[
    // Serverless gateway deployment map (bf-serverless).
    "functions",
    // Per-function batcher queue + condvar (bf-serverless). The gateway
    // clones the batcher handle out of `functions` before submitting or
    // draining, but the nesting direction — deployment map, then one
    // function's queue — fixes the rank.
    "batch_state",
    // Autoscaler policy table (bf-serverless).
    "policies",
    // Registry shard membership + the shards (bf-registry). Held across
    // the bookkeeping half of a placement and across a rebalance, both
    // of which take shard `registry` locks (and `federation`)
    // underneath — so it outranks everything the placement path
    // touches. Released before tenants are migrated through the cluster
    // (the admission hook re-enters `ShardedRegistry::place_instance`).
    "shard_map",
    // Registry instance→shard index and function catalog
    // (bf-registry). Acquired while `shard_map` is held, always between
    // shard operations — never with a shard's `registry` lock live.
    "federation",
    // Registry's cluster handle (bf-registry). Taken only for a clone,
    // with no other registry lock held; ranks above `registry` because
    // the cluster admission hook calls back into
    // `ShardedRegistry::place_instance`.
    "cluster",
    // One shard's state map (bf-registry). Held while Algorithm 1 runs,
    // which reads board views and bumps metrics — so it outranks both.
    "registry",
    // Cluster node/allocation tables (bf-cluster). Never held across the
    // admission callback (which re-enters the registry).
    "cluster_state",
    // Scale-harness placement table (bf-sim). Taken by the cluster
    // admission hook (which runs without `cluster_state` held) and for
    // point reads/writes in the harness; never held across another
    // acquisition.
    "placement",
    // The FPGA board behind a Device Manager (bf-devmgr / bf-fpga).
    "board",
    // Content-addressed payload cache: host tier + device-residency tier
    // (bf-cache). The worker consults the device tier while holding the
    // board lock, so it ranks below `board`; the session touches it with
    // nothing else held.
    "payload_cache",
    // Remote library's pending-operation map (bf-remote). Held across
    // completion dispatch, which touches shm segments and event state.
    "pending",
    // Digest trackers (bf-cache): the client-side mirror of the peer
    // cache's admission, and the manager's per-session hit-authorization
    // set. The client side is updated from the completion path while
    // `pending` is held, so it ranks below it; the session side is only
    // touched with no other lock held.
    "digest_track",
    // Remote backend's staging write cursor (bf-remote).
    "staging_cursor",
    // Remote backend's cached device info (bf-remote).
    "device_info",
    // OpenCL event/runtime state cells (bf-ocl).
    "state",
    // Shared-memory segment allocator + contents (bf-rpc). Store/read
    // record memcpy metrics while held, so it outranks the metric locks.
    "segment",
    // Metrics registry shard array (bf-metrics): one rank for all 32
    // shard locks — a thread holds at most one shard at a time.
    "shards",
    // Individual metric cells (bf-metrics).
    "value",
    // Histogram buckets (bf-metrics).
    "histogram",
    // Every `bf_race::sync::channel` queue (transport frames, control,
    // rendezvous, watch). Leaf: dropped before any poller notification.
    "queue",
    // Poller wakeup state: generation counter + ready list (bf-rpc).
    // Nothing in application code may be acquired while it is held.
    "wakeup",
    // The bf-race model scheduler's own state (bf-race). Strictly
    // innermost: taken inside every instrumented acquire/release.
    "race_sched",
];

/// Rank of a named lock in [`HIERARCHY`], if declared.
pub fn rank_of(name: &str) -> Option<usize> {
    HIERARCHY.iter().position(|&n| n == name)
}

#[cfg(debug_assertions)]
mod tracker {
    use std::cell::RefCell;

    thread_local! {
        /// Ranks of locks currently held by this thread, in acquisition
        /// order.
        static HELD: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    /// RAII token recording one tracked acquisition; dropping it releases
    /// the rank from the thread's held set.
    #[derive(Debug)]
    pub struct HeldLock {
        rank: usize,
    }

    /// Records acquisition of the lock named `name`, panicking if the
    /// thread already holds a lock of equal or greater rank.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in [`super::HIERARCHY`] or when the
    /// acquisition violates the declared order — both are programming
    /// errors the debug build should surface immediately.
    pub fn acquire(name: &'static str) -> HeldLock {
        let rank = super::rank_of(name)
            // bf-flow: allow(hot_panic): deliberate fail-stop — an
            // undeclared lock is a programming error, not runtime input
            .unwrap_or_else(|| panic!("lock {name:?} is not declared in the lock hierarchy"));
        HELD.with(|held| {
            let held = held.borrow();
            if let Some(&top) = held.iter().max() {
                // bf-flow: allow(hot_panic): fail-stop enforcement is this
                // module's whole purpose; `top` indexes the static table
                assert!(
                    rank > top,
                    "lock-order violation: acquiring {name:?} (rank {rank}) while \
                     holding {:?} (rank {top}); declared order is {:?}",
                    super::HIERARCHY.get(top).copied().unwrap_or("?"),
                    super::HIERARCHY,
                );
            }
        });
        // bf-flow: allow(hot_alloc): the held set is bounded by the
        // hierarchy size — a thread cannot hold more locks than ranks
        HELD.with(|held| held.borrow_mut().push(rank));
        HeldLock { rank }
    }

    impl Drop for HeldLock {
        fn drop(&mut self) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|&r| r == self.rank) {
                    held.remove(pos);
                }
            });
        }
    }
}

#[cfg(debug_assertions)]
pub use tracker::{acquire, HeldLock};

/// A mutex guard paired with its hierarchy bookkeeping token.
///
/// Field order matters: the guard drops (releasing the mutex) before the
/// token drops (clearing the rank), so the held set never understates what
/// the thread holds.
#[derive(Debug)]
pub struct TrackedGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    _token: tracker::HeldLock,
}

impl<T> std::ops::Deref for TrackedGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for TrackedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// Acquires `mutex` under the declared hierarchy name `name`.
///
/// In debug builds the acquisition is rank-checked against the thread's
/// currently held locks; in release builds this is exactly `mutex.lock()`.
pub fn tracked<'a, T>(mutex: &'a Mutex<T>, name: &'static str) -> TrackedGuard<'a, T> {
    #[cfg(debug_assertions)]
    let token = tracker::acquire(name);
    let _ = name;
    TrackedGuard {
        guard: mutex.lock(),
        #[cfg(debug_assertions)]
        _token: token,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_names_are_unique() {
        for (i, a) in HIERARCHY.iter().enumerate() {
            for b in &HIERARCHY[i + 1..] {
                assert_ne!(a, b, "duplicate lock name in hierarchy");
            }
        }
    }

    #[test]
    fn in_order_acquisition_is_allowed() {
        let board = Mutex::new(1u32);
        let shards = Mutex::new(2u32);
        let b = tracked(&board, "board");
        let s = tracked(&shards, "shards");
        assert_eq!(*b + *s, 3);
    }

    #[test]
    fn reacquisition_after_release_is_allowed() {
        let board = Mutex::new(0u32);
        let shards = Mutex::new(0u32);
        {
            let _s = tracked(&shards, "shards");
        }
        // `shards` released: taking the lower-ranked `board` is legal again.
        let _b = tracked(&board, "board");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn inverted_acquisition_panics() {
        let result = std::thread::Builder::new()
            .name("bf-lock-order-inversion".into())
            .spawn(|| {
                let shards = Mutex::new(0u32);
                let board = Mutex::new(0u32);
                let _s = tracked(&shards, "shards");
                // Inverted: `board` ranks below `shards` in HIERARCHY.
                let _b = tracked(&board, "board");
            })
            .expect("spawn probe thread")
            .join();
        assert!(
            result.is_err(),
            "inverted acquisition must panic in debug builds"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn undeclared_lock_name_panics() {
        let result = std::thread::Builder::new()
            .name("bf-lock-order-undeclared".into())
            .spawn(|| {
                let m = Mutex::new(0u32);
                let _g = tracked(&m, "no-such-lock");
            })
            .expect("spawn probe thread")
            .join();
        assert!(
            result.is_err(),
            "undeclared lock names must panic in debug builds"
        );
    }
}
