#![forbid(unsafe_code)]

//! # bf-race — deterministic schedule exploration for the concurrent cores
//!
//! The bounded transport ([`bf_rpc`]'s frame queues and `Poller`), the
//! single-threaded device-manager event loop, the shared remote reactor
//! and the refcounted `ShmSegment`/`Payload` path are the system's hottest
//! concurrent machinery. Stress tests only sample a handful of
//! interleavings of that machinery; this crate *enumerates* them.
//!
//! It has two halves:
//!
//! * [`sync`] — the **bf-sync facade**: drop-in `Mutex` / `RwLock` /
//!   `Condvar` / atomics / [`sync::RaceCell`] plus a monotonic clock
//!   ([`sync::MonoTime`]), the MPMC [`sync::channel`] built on them, and
//!   [`thread`] spawn/join wrappers. In normal builds every primitive is a
//!   zero-cost re-export of `parking_lot` / `std`, so the instrumented
//!   crates pay nothing. Under the `model` feature each
//!   acquire/release/park/wake/load/store becomes a *yield point* owned by
//!   the scheduler.
//!
//! * `engine` (model builds only) — a loom-style deterministic scheduler
//!   plus a DFS explorer with a DPOR-lite sleep-set reduction and a
//!   bounded-preemption budget. [`explore`] runs a closure under every
//!   schedule (up to the budget) and reports:
//!   - **data races**: conflicting [`sync::RaceCell`] accesses with no
//!     happens-before edge (vector clocks over lock/unlock, notify/wait,
//!     atomics, spawn/join);
//!   - **deadlocks**: a global wait-for cycle across mutexes *and*
//!     full/empty [`sync::channel`]s (which are built on the facade's
//!     `Mutex` + `Condvar`, so channel waits are ordinary parked threads);
//!   - **lost wakeups**: a parked thread that no schedule ever wakes shows
//!     up as a deadlock on that schedule, with the parked thread named.
//!
//! Timeouts are modelled: `Condvar::wait_for` may *fire* at any scheduling
//! point (virtual time jumps to the deadline), so `FLUSH_RETRY`-style
//! retry loops explore both the woken and the timed-out branch without
//! wall-clock flakiness.
//!
//! See `docs/ARCHITECTURE.md` §"bf-race" for the yield-point model,
//! preemption-bound semantics and a guide to writing model tests.

pub mod sync;
pub mod thread;
mod time;

#[cfg(feature = "model")]
mod engine;

#[cfg(feature = "model")]
pub use engine::{explore, explore_with, Config, Failure, FailureKind, Stats};

/// Exploration budget knobs. In non-model builds this is inert: the
/// closure runs once on real primitives.
#[cfg(not(feature = "model"))]
#[derive(Debug, Clone)]
pub struct Config {
    /// Maximum context switches away from a still-runnable thread per
    /// schedule (`None` = unbounded, full DFS).
    pub preemption_bound: Option<usize>,
    /// Hard cap on explored schedules.
    pub max_schedules: u64,
    /// Hard cap on yield points in a single schedule.
    pub max_steps: usize,
}

#[cfg(not(feature = "model"))]
impl Default for Config {
    fn default() -> Self {
        Config {
            preemption_bound: Some(2),
            max_schedules: 200_000,
            max_steps: 50_000,
        }
    }
}

/// Exploration summary. In non-model builds `schedules` is always 1.
#[cfg(not(feature = "model"))]
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Complete schedules executed.
    pub schedules: u64,
    /// Schedules cut short by the sleep-set reduction.
    pub pruned_sleep: u64,
    /// Branches skipped because they exceeded the preemption bound.
    pub pruned_preemptions: u64,
    /// Longest schedule seen, in yield points.
    pub max_steps_seen: usize,
}

/// A concurrency failure found by the explorer. Unconstructible in
/// non-model builds (the closure just runs once).
#[cfg(not(feature = "model"))]
#[derive(Debug, Clone)]
pub struct Failure {
    /// What went wrong.
    pub kind: FailureKind,
    /// Human-readable description with the offending schedule.
    pub message: String,
}

/// Failure classification mirrored from the model engine.
#[cfg(not(feature = "model"))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// No runnable thread, but unfinished threads remain.
    Deadlock,
    /// Conflicting unsynchronized accesses to a [`sync::RaceCell`].
    DataRace,
    /// A model thread panicked (failed assertion in the closure).
    Panic,
    /// Replay diverged — the closure is not schedule-deterministic.
    Determinism,
    /// `max_schedules`/`max_steps` exhausted before the space was covered.
    Limit,
}

/// Runs `f` under the model scheduler, exploring interleavings with the
/// default [`Config`]. Without the `model` feature it simply runs `f`
/// once on real primitives and reports one schedule.
#[cfg(not(feature = "model"))]
pub fn explore<F>(name: &str, f: F) -> Result<Stats, Failure>
where
    F: Fn() + Send + Sync,
{
    explore_with(name, Config::default(), f)
}

/// [`explore`] with explicit budgets. Non-model stub: runs `f` once.
#[cfg(not(feature = "model"))]
pub fn explore_with<F>(_name: &str, _cfg: Config, f: F) -> Result<Stats, Failure>
where
    F: Fn() + Send + Sync,
{
    f();
    Ok(Stats {
        schedules: 1,
        ..Stats::default()
    })
}
