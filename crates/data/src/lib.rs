//! # gramc-data
//!
//! Workload generators for the paper's experiments:
//!
//! * [`digits`] — procedural 28×28 digit images (the offline MNIST
//!   substitute for Fig. 5 of `PAPER.md`),
//! * [`pm25`] — synthetic 128×6 air-quality regression (the PM2.5
//!   substitute for Fig. 4c),
//! * graph utilities for the PageRank-style EGV example.
//!
//! Random *matrix* ensembles (Wishart, Gram) live in
//! [`gramc_linalg::random`].

#![warn(missing_docs)]

pub mod digits;
pub mod pm25;

pub use digits::{render_digit, DigitImage, DigitsDataset};
pub use pm25::{Pm25Dataset, FEATURE_NAMES};

use gramc_linalg::Matrix;
use rand::Rng;

/// A spiked Gram matrix: `G = (Xᵀ·X)/m` of `m` feature vectors sharing a
/// strong common component, giving a well-separated dominant eigenvalue —
/// representative of the data Gram matrices the paper's EGV experiment
/// targets (Fig. 4d), where a spectral gap is what makes the dominant
/// eigenvector meaningful.
pub fn spiked_gram<R: Rng + ?Sized>(rng: &mut R, n: usize, m: usize, spike: f64) -> Matrix {
    assert!(m > 0 && n > 0, "need positive dimensions");
    let common: Vec<f64> = (0..n).map(|_| gramc_linalg::random::standard_normal(rng)).collect();
    let norm: f64 = common.iter().map(|v| v * v).sum::<f64>().sqrt();
    let x = Matrix::from_fn(m, n, |_, j| {
        spike * common[j] / norm + gramc_linalg::random::standard_normal(rng)
    });
    x.transpose().matmul(&x).scale(1.0 / m as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gramc_linalg::SymmetricEigen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn spiked_gram_has_spectral_gap() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = spiked_gram(&mut rng, 16, 64, 4.0);
        assert!(g.is_symmetric(1e-10));
        let eig = SymmetricEigen::new(&g).unwrap();
        assert!(
            eig.eigenvalues[0] > 2.0 * eig.eigenvalues[1],
            "gap too small: {:?}",
            &eig.eigenvalues[..3]
        );
    }
}
