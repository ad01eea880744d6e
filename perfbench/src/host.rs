//! Host interference and this process's CPU time.
//!
//! On a shared virtual machine the benchmark's threads lose whole
//! milliseconds whenever the hypervisor runs another guest ("steal"),
//! which swamps the program's own latency. Steal time is read around each
//! long operation, or at the boundaries of short windows where operations
//! are too short to read it each time, and the end-to-end metrics come
//! from the least stolen quarter of operations or windows. Repeated
//! set-ups are filtered the same way. The filter uses only the host's
//! signal, never the measured values.
//!
//! The kernel does not charge stolen time to the process, so the process
//! CPU time read alongside gives a cost per operation that the host's load
//! barely moves.

use std::time::{Duration, Instant};

/// Length of one clock tick of `/proc` (`USER_HZ`, 100 on Linux).
pub const TICK: Duration = Duration::from_millis(10);

/// Cumulative clock ticks: steal time of all CPUs and CPU time (user +
/// system, every thread) of this process. Zero where the kernel does not
/// report them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ticks {
    pub steal: u64,
    pub cpu: u64,
}

impl Ticks {
    pub fn now() -> Self {
        Self { steal: steal_ticks().unwrap_or(0), cpu: cpu_ticks().unwrap_or(0) }
    }

    pub fn since(self, earlier: Ticks) -> Ticks {
        Ticks {
            steal: self.steal.saturating_sub(earlier.steal),
            cpu: self.cpu.saturating_sub(earlier.cpu),
        }
    }
}

impl<'a> std::iter::Sum<&'a Ticks> for Ticks {
    fn sum<I: Iterator<Item = &'a Ticks>>(iter: I) -> Ticks {
        iter.fold(Ticks::default(), |a, b| Ticks { steal: a.steal + b.steal, cpu: a.cpu + b.cpu })
    }
}

fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

fn cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line.
    let mut rest = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: u64 = rest.next()?.parse().ok()?;
    let stime: u64 = rest.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Reads [`Ticks`] at each window boundary on a background thread that
/// sleeps in between.
#[derive(Debug)]
pub struct TickSampler {
    thread: std::thread::JoinHandle<Vec<Ticks>>,
}

impl TickSampler {
    /// Starts sampling `windows` windows of length `window` from `start`.
    pub fn start(start: Instant, window: Duration, windows: u32) -> Self {
        let thread = std::thread::Builder::new()
            .name("perfbench-ticks".into())
            .spawn(move || {
                (0..=windows)
                    .map(|i| {
                        let at = start + window * i;
                        let now = Instant::now();
                        if at > now {
                            std::thread::sleep(at - now);
                        }
                        Ticks::now()
                    })
                    .collect()
            })
            .expect("spawning the tick sampler");
        Self { thread }
    }

    /// Joins the sampler and returns the ticks of each window.
    pub fn finish(self) -> Vec<Ticks> {
        let marks = self.thread.join().expect("tick sampler panicked");
        marks.windows(2).map(|m| m[1].since(m[0])).collect()
    }
}

/// Which of a set of operations or windows to keep: those whose steal is
/// at most the lower quartile's (nearest rank), so at least a quarter is
/// always kept, and every one the host left alone.
pub fn least_stolen(ticks: &[Ticks]) -> Vec<bool> {
    let mut sorted: Vec<u64> = ticks.iter().map(|t| t.steal).collect();
    sorted.sort_unstable();
    let Some(&quartile) = sorted.get(sorted.len().div_ceil(4).saturating_sub(1)) else {
        return Vec::new();
    };
    ticks.iter().map(|t| t.steal <= quartile).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steal(values: &[u64]) -> Vec<Ticks> {
        values.iter().map(|&steal| Ticks { steal, cpu: 0 }).collect()
    }

    #[test]
    fn keeps_the_least_stolen_quarter() {
        assert_eq!(least_stolen(&steal(&[5, 0, 9, 1])), vec![false, true, false, false]);
        let eight = [5, 3, 9, 1, 4, 8, 2, 7];
        assert_eq!(least_stolen(&steal(&eight)), eight.map(|s| s <= 2));
        assert_eq!(least_stolen(&steal(&[3, 3, 3])), vec![true, true, true]);
        assert_eq!(least_stolen(&steal(&[0, 0, 7, 0, 2])), vec![true, true, false, true, false]);
        assert!(least_stolen(&[]).is_empty());
    }

    #[test]
    fn process_cpu_time_grows_with_work() {
        let before = Ticks::now();
        let start = Instant::now();
        let mut x = 0u64;
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(Ticks::now().since(before).cpu >= 1);
    }

    #[test]
    fn sampler_reports_one_value_per_window() {
        let ticks = TickSampler::start(Instant::now(), Duration::from_millis(5), 3).finish();
        assert_eq!(ticks.len(), 3);
    }
}
