//! Multi-window burn-rate SLO monitoring over the live serving metrics.
//!
//! [`SloMonitor`] is a background thread that samples a served
//! [`Runtime`]'s telemetry on a fixed tick and evaluates two service-level
//! objectives the SRE way — as **error budgets** consumed at a measured
//! **burn rate**, over a short and a long window simultaneously:
//!
//! * **Latency** — the fraction of completed requests slower than
//!   [`SloConfig::latency_target_ns`], against an allowed violation
//!   fraction ([`SloConfig::latency_budget`]).
//! * **Rejection** — the fraction of submissions rejected by admission
//!   control (queue bound or tenant quota), against
//!   [`SloConfig::rejection_budget`].
//!
//! A burn rate of 1.0 means the budget is being consumed exactly as fast
//! as the SLO allows; an alert fires only when **both** the short and the
//! long window burn above [`SloConfig::burn_threshold`] — the short window
//! makes the alert fast, the long window keeps a transient blip from
//! paging. Alerts are typed ([`SloAlert`]), journaled (`slo` category) and
//! surfaced in the `slo` section of
//! [`MetricsSnapshot`](crate::MetricsSnapshot); a raised alert re-arms
//! once the short-window burn falls back under the threshold (hysteresis,
//! so a sustained violation pages once, not every tick).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::runtime::Runtime;
use crate::server::park_unless_stopped;

/// Service-level objectives and evaluation windows of an [`SloMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// A completed request slower than this violates the latency SLO.
    pub latency_target_ns: u64,
    /// Allowed fraction of requests over the latency target (the error
    /// budget; e.g. `0.01` = 99% of requests within target).
    pub latency_budget: f64,
    /// Allowed fraction of submissions rejected by admission control.
    pub rejection_budget: f64,
    /// Alert when both windows burn the budget faster than this multiple
    /// of the allowed rate.
    pub burn_threshold: f64,
    /// Short (fast-trigger) window, in evaluation ticks.
    pub short_window: usize,
    /// Long (confirmation) window, in evaluation ticks.
    pub long_window: usize,
    /// Evaluation tick interval.
    pub interval: Duration,
}

impl Default for SloConfig {
    /// 99% of requests within 50 ms, under 1% rejections, alerting at 2×
    /// burn over 3-tick/12-tick windows evaluated every 50 ms.
    fn default() -> Self {
        Self {
            latency_target_ns: 50_000_000,
            latency_budget: 0.01,
            rejection_budget: 0.01,
            burn_threshold: 2.0,
            short_window: 3,
            long_window: 12,
            interval: Duration::from_millis(50),
        }
    }
}

/// Which objective an [`SloAlert`] fired for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloAlertKind {
    /// Too many requests over the latency target.
    Latency,
    /// Too many submissions rejected by admission control.
    Rejection,
}

/// One fired SLO alert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloAlert {
    /// The violated objective.
    pub kind: SloAlertKind,
    /// Burn rate over the short window when the alert fired.
    pub short_burn: f64,
    /// Burn rate over the long window when the alert fired.
    pub long_burn: f64,
    /// Evaluation tick (0-based since the monitor started) the alert
    /// fired on.
    pub tick: u64,
}

/// Cumulative counter sample of one evaluation tick.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    completed: u64,
    violations: u64,
    rejected: u64,
}

/// Burn rates of one objective over a window: `violated / total / budget`,
/// zero when the window saw no traffic.
fn burn(violated: u64, total: u64, budget: f64) -> f64 {
    if total == 0 || budget <= 0.0 {
        return 0.0;
    }
    (violated as f64 / total as f64) / budget
}

/// Per-objective hysteresis state: armed → (alert) → raised → re-arm.
#[derive(Debug, Default)]
struct Hysteresis {
    raised: bool,
}

impl Hysteresis {
    /// Whether this tick should fire an alert, updating the raised state.
    fn evaluate(&mut self, short_burn: f64, long_burn: f64, threshold: f64) -> bool {
        let over = short_burn > threshold && long_burn > threshold;
        if self.raised {
            if short_burn <= threshold {
                self.raised = false;
            }
            return false;
        }
        if over {
            self.raised = true;
        }
        over
    }
}

/// Background thread evaluating [`SloConfig`] objectives against a served
/// runtime (see the module docs for the burn-rate model). The thread parks
/// between ticks, so [`stop`](Self::stop) wakes it at once instead of
/// waiting out the interval.
#[derive(Debug)]
pub struct SloMonitor {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<SloAlert>>,
}

impl SloMonitor {
    /// Starts the monitor thread. The runtime keeps serving normally; the
    /// monitor only reads telemetry and writes alerts (journal + the
    /// `slo` metrics section).
    ///
    /// # Panics
    ///
    /// Panics if the monitor thread cannot be spawned, or on a zero-length
    /// window configuration.
    #[must_use]
    pub fn start(rt: Arc<Runtime>, cfg: SloConfig) -> Self {
        assert!(
            cfg.short_window > 0 && cfg.long_window >= cfg.short_window,
            "windows must satisfy 0 < short ≤ long"
        );
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let thread = std::thread::Builder::new()
            .name("gramc-slo".into())
            .spawn(move || Self::run(&rt, cfg, &stop_flag))
            .expect("spawn SLO monitor thread");
        Self { stop, thread }
    }

    fn run(rt: &Runtime, cfg: SloConfig, stop: &AtomicBool) -> Vec<SloAlert> {
        let t = rt.rt_telemetry();
        let mut alerts = Vec::new();
        // Cumulative samples, newest last; index 0 is the baseline of the
        // long window. One extra slot so `long_window` ticks of deltas fit.
        let mut history: VecDeque<Sample> = VecDeque::with_capacity(cfg.long_window + 1);
        let mut latency_state = Hysteresis::default();
        let mut rejection_state = Hysteresis::default();
        let mut tick: u64 = 0;
        loop {
            let stopping = stop.load(Ordering::SeqCst);
            let h = t.submit_to_complete.snapshot();
            let now = Sample {
                completed: h.count,
                violations: h.count_over(cfg.latency_target_ns),
                rejected: t.rejected.load(Ordering::Relaxed),
            };
            if history.len() > cfg.long_window {
                history.pop_front();
            }
            let over = |earlier: &Sample| {
                let completed = now.completed.saturating_sub(earlier.completed);
                let violations = now.violations.saturating_sub(earlier.violations);
                let rejected = now.rejected.saturating_sub(earlier.rejected);
                (
                    burn(violations, completed, cfg.latency_budget),
                    burn(rejected, rejected + completed, cfg.rejection_budget),
                )
            };
            // Window baselines: `short_window` (resp. `long_window`) ticks
            // back, clamped to the oldest sample while history warms up.
            let base = |window: usize| {
                let n = history.len();
                history.get(n.saturating_sub(window)).copied().unwrap_or_default()
            };
            if !history.is_empty() {
                let (lat_short, rej_short) = over(&base(cfg.short_window));
                let (lat_long, rej_long) = over(&base(cfg.long_window));
                t.slo.latency_burn_milli.store((lat_short * 1e3) as u64, Ordering::Relaxed);
                t.slo.rejection_burn_milli.store((rej_short * 1e3) as u64, Ordering::Relaxed);
                if latency_state.evaluate(lat_short, lat_long, cfg.burn_threshold) {
                    t.slo.latency_alerts.fetch_add(1, Ordering::Relaxed);
                    t.journal.instant("slo_alert_latency", "slo", (lat_short * 1e3) as u64, tick);
                    alerts.push(SloAlert {
                        kind: SloAlertKind::Latency,
                        short_burn: lat_short,
                        long_burn: lat_long,
                        tick,
                    });
                }
                t.slo.latency_alerting.store(u64::from(latency_state.raised), Ordering::Relaxed);
                if rejection_state.evaluate(rej_short, rej_long, cfg.burn_threshold) {
                    t.slo.rejection_alerts.fetch_add(1, Ordering::Relaxed);
                    t.journal.instant("slo_alert_rejection", "slo", (rej_short * 1e3) as u64, tick);
                    alerts.push(SloAlert {
                        kind: SloAlertKind::Rejection,
                        short_burn: rej_short,
                        long_burn: rej_long,
                        tick,
                    });
                }
                t.slo
                    .rejection_alerting
                    .store(u64::from(rejection_state.raised), Ordering::Relaxed);
            }
            history.push_back(now);
            tick += 1;
            if stopping {
                return alerts;
            }
            park_unless_stopped(cfg.interval, stop);
        }
    }

    /// Stops the monitor after one final evaluation and returns every
    /// alert it fired, in order.
    #[must_use]
    pub fn stop(self) -> Vec<SloAlert> {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.thread().unpark();
        self.thread.join().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burn_is_violation_fraction_over_budget() {
        assert_eq!(burn(0, 100, 0.01), 0.0);
        let b = burn(2, 100, 0.01);
        assert!((b - 2.0).abs() < 1e-12, "2% violations on a 1% budget burns at 2×: {b}");
        assert_eq!(burn(5, 0, 0.01), 0.0, "no traffic, no burn");
        assert_eq!(burn(5, 100, 0.0), 0.0, "zero budget disables the objective");
    }

    #[test]
    fn hysteresis_fires_once_until_rearmed() {
        let mut h = Hysteresis::default();
        assert!(!h.evaluate(1.0, 1.0, 2.0), "under threshold");
        assert!(h.evaluate(3.0, 3.0, 2.0), "fires on crossing");
        assert!(!h.evaluate(4.0, 4.0, 2.0), "stays raised, no re-fire");
        assert!(!h.evaluate(1.0, 3.0, 2.0), "re-arms when short burn recovers");
        assert!(h.evaluate(3.0, 2.5, 2.0), "fires again after re-arm");
    }

    #[test]
    fn short_window_alone_does_not_fire() {
        let mut h = Hysteresis::default();
        assert!(!h.evaluate(5.0, 0.5, 2.0), "long window must confirm");
        assert!(!h.raised);
    }
}
