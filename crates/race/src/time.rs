//! [`MonoTime`] — the facade's monotonic deadline clock.
//!
//! The transport and poller need "now + timeout, has it passed, how long
//! remains" for their bounded waits. Reading the wall clock inside a
//! model execution would make timeout branches depend on host scheduling
//! and break replay determinism, so deadline logic goes through this
//! type: real `Instant` arithmetic in normal builds, virtual
//! per-execution nanoseconds under the `model` feature (time only
//! advances when a timed wait fires, jumping straight to its deadline).

#[cfg(not(feature = "model"))]
use std::time::Duration;

/// An opaque monotonic instant used for deadlines.
#[cfg(not(feature = "model"))]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MonoTime(std::time::Instant);

#[cfg(not(feature = "model"))]
impl MonoTime {
    /// The current monotonic instant.
    pub fn now() -> Self {
        MonoTime(self::now_instant())
    }

    /// The instant `d` from now — the common deadline constructor.
    pub fn after(d: Duration) -> Self {
        MonoTime(self::now_instant() + d)
    }

    /// Whether the deadline has been reached.
    pub fn has_passed(&self) -> bool {
        self::now_instant() >= self.0
    }

    /// Time left until the deadline (zero once passed).
    pub fn remaining(&self) -> Duration {
        self.0.saturating_duration_since(self::now_instant())
    }
}

#[cfg(not(feature = "model"))]
#[expect(
    clippy::disallowed_methods,
    reason = "monotonic deadline source for bounded waits; virtualized under the model feature"
)]
fn now_instant() -> std::time::Instant {
    std::time::Instant::now()
}

#[cfg(feature = "model")]
pub use crate::engine::time_impl::MonoTime;
