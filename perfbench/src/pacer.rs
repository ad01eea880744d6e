//! Open-loop arrival schedule.
//!
//! Request `i` is due at `start + i · period`, whatever happened to earlier
//! requests. The pacer *sleeps* to each due time (a spinning pacer would
//! take a whole core on a two-core host) and reports how late it woke. The
//! schedule never slides: a stalled pacer sends the overdue requests at
//! once, and since latency is measured from the due time the stall is
//! charged to every request it delayed.

use std::time::{Duration, Instant};

#[derive(Debug)]
pub struct Pacer {
    start: Instant,
    period: Duration,
    next: u32,
}

/// One scheduled request, as released by [`Pacer::next_release`].
#[derive(Debug, Clone, Copy)]
pub struct Release {
    pub index: u32,
    pub due: Instant,
    /// How far past `due` the pacer released it.
    pub late: Duration,
}

impl Pacer {
    /// A schedule of `rate_per_s` requests per second starting at `start`.
    ///
    /// # Panics
    ///
    /// If `rate_per_s` is zero.
    pub fn new(start: Instant, rate_per_s: u32) -> Self {
        assert!(rate_per_s > 0, "open loop needs a positive rate");
        Self { start, period: Duration::from_secs(1) / rate_per_s, next: 0 }
    }

    /// Due time of request `index`.
    pub fn due(&self, index: u32) -> Instant {
        self.start + self.period * index
    }

    /// Sleeps until the next request is due (no sleep if it is overdue)
    /// and releases it; `None` once the next due time is at or past
    /// `deadline`.
    pub fn next_release(&mut self, deadline: Instant) -> Option<Release> {
        let index = self.next;
        let due = self.due(index);
        if due >= deadline {
            return None;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        self.next += 1;
        Some(Release { index, due, late: Instant::now().saturating_duration_since(due) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced_from_start() {
        let start = Instant::now();
        let p = Pacer::new(start, 1000);
        assert_eq!(p.due(0), start);
        assert_eq!(p.due(1) - start, Duration::from_millis(1));
        assert_eq!(p.due(2500) - start, Duration::from_millis(2500));
    }

    #[test]
    fn releases_never_come_early() {
        let start = Instant::now() + Duration::from_millis(2);
        let mut p = Pacer::new(start, 2000);
        for i in 0..5 {
            let r = p.next_release(start + Duration::from_secs(1)).unwrap();
            assert_eq!(r.index, i);
            assert!(Instant::now() >= r.due);
        }
    }

    #[test]
    fn a_stall_does_not_shift_the_schedule() {
        // Start in the past: the first 50 requests are already overdue, as
        // after a 50 ms stall. They are released at once, with their
        // lateness, and the schedule keeps its original due times.
        let start = Instant::now() - Duration::from_millis(50);
        let mut p = Pacer::new(start, 1000);
        let first = p.next_release(start + Duration::from_secs(1)).unwrap();
        assert!(first.late >= Duration::from_millis(50));
        for i in 1..10u64 {
            let r = p.next_release(start + Duration::from_secs(1)).unwrap();
            assert_eq!(r.due, start + Duration::from_millis(i));
            assert!(r.late >= Duration::from_millis(40));
        }
    }

    #[test]
    fn schedule_ends_at_the_deadline() {
        let start = Instant::now() - Duration::from_secs(1);
        let mut p = Pacer::new(start, 100);
        let mut n = 0;
        while p.next_release(start + Duration::from_millis(50)).is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
    }
}
