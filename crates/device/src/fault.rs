//! Device fault models for fault-injection campaigns.
//!
//! Crosspoint arrays fail in a handful of canonical ways (Sun & Ielmini,
//! "Tutorial: Analog Matrix Computing with Crosspoint Resistive Memory
//! Arrays"): cells stuck at the conductance extremes (forming failures,
//! shorted selectors), slow conductance drift of the programmed state, and
//! transient read disturb. This module defines a *seeded, deterministic*
//! [`FaultPlan`]: given a fault configuration and a seed, the same cells
//! fail the same way on every run, so fault campaigns are reproducible and
//! recovery logic can be tested bit-for-bit.
//!
//! The plan itself is pure data — applying it to reads is the array
//! layer's job (`gramc_array::CrossbarArray::install_fault_plan`). Fault
//! injection is a runtime setting, not a build option: the all-zero
//! default [`FaultConfig`] samples an empty plan, and an array with no
//! plan installed reads exactly as if the fault hooks were absent.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How one faulty cell misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The cell always reads at the device's maximum conductance
    /// (`G_on`), regardless of what was programmed.
    StuckAtOn,
    /// The cell always reads at the device's minimum conductance
    /// (`G_off`).
    StuckAtOff,
    /// The programmed conductance relaxes toward `G_off` with the plan's
    /// time constant: `G(t) = G_off + (G − G_off)·exp(−t/τ)`.
    Drift,
}

/// Fault rates and model parameters for sampling a [`FaultPlan`].
///
/// All rates are per-cell probabilities; the default is fault-free (every
/// rate 0), which samples an empty plan — installing it changes nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability of a cell being stuck at `G_on`.
    pub stuck_on_rate: f64,
    /// Probability of a cell being stuck at `G_off`.
    pub stuck_off_rate: f64,
    /// Probability of a cell drifting over time.
    pub drift_rate: f64,
    /// Drift time constant τ in seconds (shared by all drifting cells).
    pub drift_tau_s: f64,
    /// Probability per noisy read that a cell's sample is disturbed.
    pub read_disturb_prob: f64,
    /// Relative conductance dip of a disturb event (`g → g·(1 − frac)`).
    pub read_disturb_frac: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            stuck_on_rate: 0.0,
            stuck_off_rate: 0.0,
            drift_rate: 0.0,
            drift_tau_s: 1.0,
            read_disturb_prob: 0.0,
            read_disturb_frac: 0.05,
        }
    }
}

impl FaultConfig {
    /// Stuck-at faults only, split evenly between `G_on` and `G_off`.
    pub fn stuck_at(rate: f64) -> Self {
        Self { stuck_on_rate: rate / 2.0, stuck_off_rate: rate / 2.0, ..Self::default() }
    }

    /// Whether every rate is zero (a sampled plan would be empty).
    pub fn is_fault_free(&self) -> bool {
        self.stuck_on_rate <= 0.0
            && self.stuck_off_rate <= 0.0
            && self.drift_rate <= 0.0
            && self.read_disturb_prob <= 0.0
    }
}

/// A seeded assignment of faults to the cells of one `rows × cols` array.
///
/// Sampling is deterministic: one uniform draw per cell in row-major
/// order, so the same `(shape, config, seed)` always yields the same
/// plan. With all rates zero the plan is empty.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    rows: usize,
    cols: usize,
    faults: Vec<Option<FaultKind>>,
    config: FaultConfig,
}

impl FaultPlan {
    /// Samples a plan for a `rows × cols` array from `config` and `seed`.
    pub fn sample(rows: usize, cols: usize, config: &FaultConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let p_on = config.stuck_on_rate.max(0.0);
        let p_off = config.stuck_off_rate.max(0.0);
        let p_drift = config.drift_rate.max(0.0);
        let faults = (0..rows * cols)
            .map(|_| {
                let u: f64 = rng.gen();
                if u < p_on {
                    Some(FaultKind::StuckAtOn)
                } else if u < p_on + p_off {
                    Some(FaultKind::StuckAtOff)
                } else if u < p_on + p_off + p_drift {
                    Some(FaultKind::Drift)
                } else {
                    None
                }
            })
            .collect();
        Self { rows, cols, faults, config: config.clone() }
    }

    /// An explicit plan from a fault list (tests and targeted campaigns).
    pub fn from_faults(
        rows: usize,
        cols: usize,
        faults: &[(usize, usize, FaultKind)],
        config: FaultConfig,
    ) -> Self {
        let mut grid = vec![None; rows * cols];
        for &(i, j, kind) in faults {
            assert!(i < rows && j < cols, "fault ({i},{j}) outside {rows}x{cols} array");
            grid[i * cols + j] = Some(kind);
        }
        Self { rows, cols, faults: grid, config }
    }

    /// Plan shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The configuration the plan was sampled from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The fault (if any) assigned to cell `(row, col)`.
    pub fn fault_at(&self, row: usize, col: usize) -> Option<FaultKind> {
        if row < self.rows && col < self.cols {
            self.faults[row * self.cols + col]
        } else {
            None
        }
    }

    /// Number of faulty cells in the plan.
    pub fn fault_count(&self) -> usize {
        self.faults.iter().filter(|f| f.is_some()).count()
    }

    /// Number of stuck-at cells (either polarity).
    pub fn stuck_count(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| matches!(f, Some(FaultKind::StuckAtOn | FaultKind::StuckAtOff)))
            .count()
    }

    /// Whether the plan has no cell faults and no read disturb — installing
    /// it leaves the array's behavior bit-identical.
    pub fn is_empty(&self) -> bool {
        self.fault_count() == 0 && self.config.read_disturb_prob <= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic() {
        let cfg = FaultConfig::stuck_at(0.1);
        let a = FaultPlan::sample(16, 16, &cfg, 42);
        let b = FaultPlan::sample(16, 16, &cfg, 42);
        assert_eq!(a, b);
        let c = FaultPlan::sample(16, 16, &cfg, 43);
        assert_ne!(a, c, "different seeds should (overwhelmingly) differ");
    }

    #[test]
    fn zero_rate_plan_is_empty() {
        let plan = FaultPlan::sample(32, 32, &FaultConfig::default(), 7);
        assert!(plan.is_empty());
        assert_eq!(plan.fault_count(), 0);
    }

    #[test]
    fn rates_produce_roughly_proportional_counts() {
        let cfg = FaultConfig { stuck_on_rate: 0.05, stuck_off_rate: 0.05, ..Default::default() };
        let plan = FaultPlan::sample(64, 64, &cfg, 11);
        let n = plan.fault_count();
        // 10% of 4096 cells, loose 3-sigma-ish band.
        assert!((250..=570).contains(&n), "fault count {n} far from expectation");
        assert_eq!(plan.stuck_count(), n);
    }

    #[test]
    fn explicit_faults_land_where_placed() {
        let plan = FaultPlan::from_faults(
            4,
            4,
            &[(0, 0, FaultKind::StuckAtOn), (3, 2, FaultKind::Drift)],
            FaultConfig::default(),
        );
        assert_eq!(plan.fault_at(0, 0), Some(FaultKind::StuckAtOn));
        assert_eq!(plan.fault_at(3, 2), Some(FaultKind::Drift));
        assert_eq!(plan.fault_at(1, 1), None);
        assert_eq!(plan.fault_count(), 2);
    }
}
