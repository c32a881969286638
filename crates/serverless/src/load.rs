//! The `hey`-like closed-loop request pacer and its open-loop
//! counterpart.

use bf_model::{VirtualDuration, VirtualTime};

/// Models `hey -c 1 -q rate`: one connection paced at a target rate.
/// Requests are issued at fixed interval ticks, but a new request never
/// overlaps the outstanding one — when the response arrives late, the next
/// request goes out immediately (closed loop). The achieved rate is thus
/// `min(target, 1/latency)` under saturation — the mechanism behind the
/// paper's processed-vs-target gaps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedLoopPacer {
    interval: VirtualDuration,
    next_slot: VirtualTime,
}

impl ClosedLoopPacer {
    /// A pacer targeting `rate` requests/second, first request at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn new(rate: f64, start: VirtualTime) -> Self {
        assert!(rate > 0.0, "target rate must be positive");
        ClosedLoopPacer {
            interval: VirtualDuration::from_secs_f64(1.0 / rate),
            next_slot: start,
        }
    }

    /// The pacing interval (1/rate).
    pub fn interval(&self) -> VirtualDuration {
        self.interval
    }

    /// The issue instant of the first request.
    pub fn first_issue(&mut self) -> VirtualTime {
        let t = self.next_slot;
        self.next_slot = t + self.interval;
        t
    }

    /// Given the completion instant of the previous request, returns when
    /// the next request is issued.
    pub fn next_issue(&mut self, completed_at: VirtualTime) -> VirtualTime {
        let issue = self.next_slot.max(completed_at);
        self.next_slot = issue + self.interval;
        issue
    }
}

/// An open-loop arrival process: requests arrive at fixed interval ticks
/// regardless of completions — the load shape under which overload turns
/// into queue growth and admission-control sheds (unlike the closed
/// loop's self-throttling). Drives [`run_open_loop`](crate::run_open_loop)
/// and the `bf-bench` gateway ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenLoopPacer {
    interval: VirtualDuration,
    next: VirtualTime,
}

impl OpenLoopPacer {
    /// A pacer targeting `rate` arrivals/second, first arrival at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn new(rate: f64, start: VirtualTime) -> Self {
        assert!(rate > 0.0, "arrival rate must be positive");
        OpenLoopPacer {
            interval: VirtualDuration::from_secs_f64(1.0 / rate),
            next: start,
        }
    }

    /// The arrival interval (1/rate).
    pub fn interval(&self) -> VirtualDuration {
        self.interval
    }

    /// The next arrival instant; arrivals never wait for completions.
    pub fn next_arrival(&mut self) -> VirtualTime {
        let t = self.next;
        self.next = t + self.interval;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> VirtualTime {
        VirtualTime::ZERO + VirtualDuration::from_millis(ms)
    }

    #[test]
    fn fast_responses_follow_the_target_rate() {
        // 10 rq/s, each served instantly: issues at 0, 100 ms, 200 ms, ...
        let mut pacer = ClosedLoopPacer::new(10.0, VirtualTime::ZERO);
        let first = pacer.first_issue();
        assert_eq!(first, t(0));
        let second = pacer.next_issue(t(5));
        assert_eq!(second, t(100));
        let third = pacer.next_issue(t(105));
        assert_eq!(third, t(200));
    }

    #[test]
    fn slow_responses_throttle_the_loop() {
        // 10 rq/s target but 250 ms latency: the single connection caps at
        // 4 rq/s — requests go out back-to-back on completion.
        let mut pacer = ClosedLoopPacer::new(10.0, VirtualTime::ZERO);
        let _ = pacer.first_issue();
        let second = pacer.next_issue(t(250));
        assert_eq!(second, t(250));
        let third = pacer.next_issue(t(500));
        assert_eq!(third, t(500));
    }

    #[test]
    fn open_loop_arrivals_ignore_completions() {
        let mut pacer = OpenLoopPacer::new(10.0, VirtualTime::ZERO);
        assert_eq!(pacer.next_arrival(), t(0));
        assert_eq!(pacer.next_arrival(), t(100));
        assert_eq!(pacer.next_arrival(), t(200), "no completion coupling");
    }

    #[test]
    fn late_then_fast_catches_up_to_slots() {
        let mut pacer = ClosedLoopPacer::new(10.0, VirtualTime::ZERO);
        let _ = pacer.first_issue();
        // One slow response pushes past several slots…
        let slow = pacer.next_issue(t(350));
        assert_eq!(slow, t(350));
        // …after which pacing resumes relative to the late issue.
        let next = pacer.next_issue(t(360));
        assert_eq!(next, t(450));
    }
}
