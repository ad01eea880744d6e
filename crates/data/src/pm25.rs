//! Synthetic air-quality regression set — the offline substitute for the
//! PM2.5 dataset of Fig. 4(c) in `PAPER.md`, which is not available offline.
//!
//! The paper's PINV experiment solves a 128-sample × 6-feature linear
//! regression. This generator produces a design matrix with realistic
//! meteorological correlations (temperature and dew point co-vary; pressure
//! anti-correlates with temperature; wind and precipitation are skewed) and
//! a positive ground-truth weight vector, matching the shape and the output
//! range (~0–0.15) of the paper's figure.

use rand::Rng;

use gramc_linalg::Matrix;

/// A synthetic regression problem `y ≈ X·w`.
#[derive(Debug, Clone)]
pub struct Pm25Dataset {
    /// Design matrix, `samples × 6`, feature-normalized to `[-1, 1]`-ish.
    pub design: Matrix,
    /// Observed responses with noise, length `samples`.
    pub response: Vec<f64>,
    /// Ground-truth weights used to generate the responses.
    pub true_weights: Vec<f64>,
}

/// Feature names, for reports.
pub const FEATURE_NAMES: [&str; 6] =
    ["temperature", "dew_point", "pressure", "wind_speed", "precip_hours", "season_index"];

fn std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

impl Pm25Dataset {
    /// Generates `samples` observations (the paper uses 128) with relative
    /// observation noise `noise` (e.g. 0.05).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, samples: usize, noise: f64) -> Self {
        assert!(samples > 6, "need more samples than features");
        // Ground truth: positive weights in a range that puts X·w in the
        // paper's ~0–0.15 output window.
        let true_weights = vec![0.055, 0.040, 0.020, 0.035, 0.015, 0.025];
        let mut design = Matrix::zeros(samples, 6);
        let mut response = Vec::with_capacity(samples);
        for i in 0..samples {
            // Latent season phase drives the correlated block.
            let season = (i as f64 / samples as f64) * std::f64::consts::TAU;
            let temp = 0.6 * season.sin() + 0.25 * std_normal(rng);
            let dew = 0.8 * temp + 0.2 * std_normal(rng);
            let pressure = -0.5 * temp + 0.3 * std_normal(rng);
            // Skewed positive variables, normalized to ~[0, 1].
            let wind = (std_normal(rng).abs() * 0.5).min(1.5) / 1.5;
            let precip = (std_normal(rng).abs() * 0.4).min(1.2) / 1.2;
            let season_idx = season.cos() * 0.5 + 0.5;
            let row = [temp, dew, pressure, wind, precip, season_idx];
            for (j, v) in row.iter().enumerate() {
                design[(i, j)] = *v;
            }
            let clean: f64 = row.iter().zip(&true_weights).map(|(x, w)| x * w).sum();
            response.push(clean * (1.0 + noise * std_normal(rng)) + 0.01 * noise * std_normal(rng));
        }
        Self { design, response, true_weights }
    }

    /// Number of samples.
    pub fn samples(&self) -> usize {
        self.design.rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gramc_linalg::{qr, vector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shape_matches_paper() {
        let mut rng = StdRng::seed_from_u64(1);
        let ds = Pm25Dataset::generate(&mut rng, 128, 0.05);
        assert_eq!(ds.design.shape(), (128, 6));
        assert_eq!(ds.response.len(), 128);
        assert_eq!(ds.samples(), 128);
    }

    #[test]
    fn least_squares_recovers_true_weights() {
        let mut rng = StdRng::seed_from_u64(2);
        let ds = Pm25Dataset::generate(&mut rng, 512, 0.02);
        let w = qr::least_squares(&ds.design, &ds.response).unwrap();
        let err = vector::rel_error(&w, &ds.true_weights);
        assert!(err < 0.15, "recovered {w:?} vs {:?} (err {err})", ds.true_weights);
    }

    #[test]
    fn features_are_correlated_as_designed() {
        let mut rng = StdRng::seed_from_u64(3);
        let ds = Pm25Dataset::generate(&mut rng, 1000, 0.05);
        let col = |j: usize| -> Vec<f64> { ds.design.col(j) };
        let corr = |a: &[f64], b: &[f64]| -> f64 {
            let n = a.len() as f64;
            let ma = a.iter().sum::<f64>() / n;
            let mb = b.iter().sum::<f64>() / n;
            let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum::<f64>() / n;
            let sa = (a.iter().map(|x| (x - ma) * (x - ma)).sum::<f64>() / n).sqrt();
            let sb = (b.iter().map(|x| (x - mb) * (x - mb)).sum::<f64>() / n).sqrt();
            cov / (sa * sb)
        };
        let temp = col(0);
        let dew = col(1);
        let pressure = col(2);
        assert!(corr(&temp, &dew) > 0.7, "temp/dew corr {}", corr(&temp, &dew));
        assert!(corr(&temp, &pressure) < -0.3, "temp/pressure corr {}", corr(&temp, &pressure));
    }

    #[test]
    fn deterministic_with_seed() {
        let a = Pm25Dataset::generate(&mut StdRng::seed_from_u64(4), 64, 0.05);
        let b = Pm25Dataset::generate(&mut StdRng::seed_from_u64(4), 64, 0.05);
        assert_eq!(a.design, b.design);
        assert_eq!(a.response, b.response);
    }

    #[test]
    #[should_panic(expected = "more samples")]
    fn too_few_samples_panics() {
        let _ = Pm25Dataset::generate(&mut StdRng::seed_from_u64(5), 4, 0.05);
    }
}
