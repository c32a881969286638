//! Virtualized monotonic time for model builds.
//!
//! Inside an execution, "now" is the scheduler's virtual clock (which
//! advances only when a timed wait fires). Outside one — e.g. test
//! harness code before `explore` — it falls back to the real clock.

use std::time::{Duration, Instant};

use super::exec::ctx;

/// A monotonic point in time; virtual inside a model execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonoTime {
    /// Wall-backed (no model execution active when created).
    Real(Instant),
    /// Virtual nanoseconds on the execution's clock.
    Virtual(u64),
}

impl MonoTime {
    /// The current instant.
    pub fn now() -> MonoTime {
        match ctx() {
            Some(c) => MonoTime::Virtual(c.exec.now_ns()),
            None => MonoTime::Real(now_instant()),
        }
    }

    /// The instant `d` from now.
    pub fn after(d: Duration) -> MonoTime {
        match MonoTime::now() {
            MonoTime::Real(i) => MonoTime::Real(i + d),
            MonoTime::Virtual(ns) => MonoTime::Virtual(ns.saturating_add(dur_ns(d))),
        }
    }

    /// Whether this instant is in the past.
    pub fn has_passed(self) -> bool {
        match self {
            MonoTime::Real(i) => now_instant() >= i,
            MonoTime::Virtual(ns) => {
                let now = match ctx() {
                    Some(c) => c.exec.now_ns(),
                    None => ns, // execution over: treat the deadline as due
                };
                now >= ns
            }
        }
    }

    /// Time left until this instant (zero if passed).
    pub fn remaining(self) -> Duration {
        match self {
            MonoTime::Real(i) => i.saturating_duration_since(now_instant()),
            MonoTime::Virtual(ns) => {
                let now = match ctx() {
                    Some(c) => c.exec.now_ns(),
                    None => ns,
                };
                Duration::from_nanos(ns.saturating_sub(now))
            }
        }
    }
}

/// Saturating `Duration` → virtual nanoseconds.
pub(crate) fn dur_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

#[expect(
    clippy::disallowed_methods,
    reason = "fallback for MonoTime created outside a model execution"
)]
fn now_instant() -> Instant {
    Instant::now()
}
