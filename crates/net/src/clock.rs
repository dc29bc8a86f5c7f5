//! Simulated time.

/// A virtual clock counting microseconds since the start of a simulation.
///
/// Time only moves when an event is processed or a caller explicitly
/// advances it, so runs are reproducible regardless of host speed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct VirtualClock {
    now_us: u64,
}

impl VirtualClock {
    /// A clock at time zero.
    pub(crate) fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// Current simulated time, microseconds.
    pub(crate) fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Advances to `t` (no-op if `t` is in the past — the clock is
    /// monotonic).
    pub(crate) fn advance_to(&mut self, t_us: u64) {
        self.now_us = self.now_us.max(t_us);
    }

    /// Advances by `delta` microseconds.
    pub(crate) fn advance_by(&mut self, delta_us: u64) {
        self.now_us = self.now_us.saturating_add(delta_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic() {
        let mut clock = VirtualClock::new();
        clock.advance_to(100);
        clock.advance_to(50);
        assert_eq!(clock.now_us(), 100);
        clock.advance_by(25);
        assert_eq!(clock.now_us(), 125);
    }
}
