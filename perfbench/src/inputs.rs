//! Workload inputs, generated from the `--seed` argument alone.
//!
//! The program under test receives only these generated values; the same
//! seed always yields bit-identical inputs.

use gramc_data::DigitsDataset;
use gramc_linalg::random::{diagonally_dominant, seeded_rng, uniform_vector};
use gramc_linalg::Matrix;
use gramc_nn::{LeNet5, Tensor3};

/// Seed of the simulated chips (device variation and the noise stream).
/// The chip is part of each deployment, like the LeNet weights; `--seed`
/// picks the data sent to it.
pub const CHIP_SEED: u64 = 7;

/// Operators the serve workloads cycle over.
pub const SERVE_OPS: usize = 4;
/// Distinct input vectors per serve operator.
pub const SERVE_INPUTS: usize = 64;
/// Serve operator dimension.
pub const SERVE_N: usize = 64;

/// Images per `lenet_batch` operation batch.
pub const LENET_BATCH: usize = 64;
/// The LeNet-5 weights are part of the workload, not its inputs: one fixed
/// network, so `rel_error` varies across seeds only with the digits.
const LENET_MODEL_SEED: u64 = 5;
/// Distinct batches `lenet_batch` cycles over.
pub const LENET_BATCHES: usize = 4;

/// `program_solve` operator dimension.
pub const SOLVE_N: usize = 32;
/// Right-hand sides per `solve_inv_batch` and vectors per `mvm_batch`.
pub const SOLVE_RHS: usize = 16;

/// A distinct stream per workload, so changing one workload's inputs
/// never shifts another's.
fn rng_for(seed: u64, stream: u64) -> rand::rngs::StdRng {
    seeded_rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

#[derive(Debug, Clone, PartialEq)]
pub struct ServeInputs {
    pub matrices: Vec<Matrix>,
    pub vectors: Vec<Vec<f64>>,
}

/// Serve operators have uniform entries in [-1, 1]: their largest entry,
/// which sets the quantisation step, is then nearly the same for every
/// seed, and so is `rel_error`.
pub fn serve(seed: u64) -> ServeInputs {
    let mut rng = rng_for(seed, 1);
    let matrices = (0..SERVE_OPS)
        .map(|_| {
            Matrix::from_vec(
                SERVE_N,
                SERVE_N,
                uniform_vector(&mut rng, SERVE_N * SERVE_N, -1.0, 1.0),
            )
        })
        .collect();
    let vectors = (0..SERVE_INPUTS).map(|_| uniform_vector(&mut rng, SERVE_N, -1.0, 1.0)).collect();
    ServeInputs { matrices, vectors }
}

#[derive(Debug, Clone)]
pub struct LenetInputs {
    /// He-initialised LeNet-5 (untrained: the arithmetic per image is the
    /// same as a trained network's, and set-up stays short).
    pub model: LeNet5,
    pub batches: Vec<Vec<Tensor3>>,
}

pub fn lenet(seed: u64) -> LenetInputs {
    let model = LeNet5::new(&mut seeded_rng(LENET_MODEL_SEED));
    let mut rng = rng_for(seed, 2);
    let ds = DigitsDataset::generate(&mut rng, LENET_BATCH * LENET_BATCHES, 0);
    let images: Vec<Tensor3> =
        ds.train.iter().map(|d| Tensor3::from_vec(1, 28, 28, d.pixels.clone())).collect();
    let batches = images.chunks(LENET_BATCH).map(<[Tensor3]>::to_vec).collect();
    LenetInputs { model, batches }
}

#[derive(Debug, Clone, PartialEq)]
pub struct SolveInputs {
    pub rhs: Vec<Vec<f64>>,
    pub vectors: Vec<Vec<f64>>,
}

pub fn solve(seed: u64) -> SolveInputs {
    let mut rng = rng_for(seed, 3);
    let rhs = (0..SOLVE_RHS).map(|_| uniform_vector(&mut rng, SOLVE_N, -1.0, 1.0)).collect();
    let vectors = (0..SOLVE_RHS).map(|_| uniform_vector(&mut rng, SOLVE_N, -1.0, 1.0)).collect();
    SolveInputs { rhs, vectors }
}

/// The fresh operator `program_solve` programs in cycle `k`: diagonally
/// dominant (so every INV solve is well posed) with unit-scale couplings,
/// so consecutive operators differ in many cells and each load really
/// reprograms the array. The operator sequence is part of the workload,
/// like the chip: every run reprograms the same cells the same way, and
/// `--seed` picks the right-hand sides and vectors.
pub fn solve_matrix(k: u64) -> Matrix {
    diagonally_dominant(&mut rng_for(CHIP_SEED, 4 + (k << 8)), SOLVE_N, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(serve(11), serve(11));
        assert_eq!(solve(11), solve(11));
        assert_eq!(solve_matrix(5), solve_matrix(5));
        let (a, b) = (lenet(11), lenet(11));
        assert_eq!(a.model.conv1.weights, b.model.conv1.weights);
        assert_eq!(a.model.fc3.weights, b.model.fc3.weights);
        for (x, y) in a.batches.iter().flatten().zip(b.batches.iter().flatten()) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(serve(1), serve(2));
        assert_ne!(solve(1), solve(2));
        assert_ne!(solve_matrix(0), solve_matrix(1));
        assert_ne!(lenet(1).batches[0][0].as_slice(), lenet(2).batches[0][0].as_slice());
    }

    #[test]
    fn shapes_match_the_workload_definitions() {
        let s = serve(3);
        assert_eq!(s.matrices.len(), SERVE_OPS);
        assert!(s.matrices.iter().all(|m| m.shape() == (SERVE_N, SERVE_N)));
        assert!(s.vectors.iter().all(|v| v.len() == SERVE_N));
        let l = lenet(3);
        assert_eq!(l.batches.len(), LENET_BATCHES);
        assert!(l.batches.iter().all(|b| b.len() == LENET_BATCH));
        let p = solve(3);
        assert_eq!(p.rhs.len(), SOLVE_RHS);
        assert_eq!(solve_matrix(0).shape(), (SOLVE_N, SOLVE_N));
    }
}
