//! Regenerates **Fig. 5**: LeNet-5 digit-recognition accuracy with INT4,
//! INT8 (bit-sliced) and float32 weights.
//!
//! Paper values (MNIST): INT4 0.97613, INT8 0.985, float32 0.9878. This
//! reproduction trains on the synthetic-digits substitute
//! (`gramc_data::digits`); the claim under test is the *ordering and
//! spacing* of the three precisions through the analog pipeline, not the
//! absolute MNIST numbers.
//!
//! Pass `--quick` for a reduced run.
//!
//! ```sh
//! cargo run -p gramc-bench --release --bin fig5_lenet
//! ```

use gramc_core::MacroConfig;
use gramc_data::DigitsDataset;
use gramc_linalg::random::seeded_rng;
use gramc_nn::{GramcLenet, LeNet5, Precision, Tensor3};

fn to_tensor(pixels: &[f64]) -> Tensor3 {
    Tensor3::from_vec(1, 28, 28, pixels.to_vec())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n_train, n_test, epochs) = if quick { (600, 200, 3) } else { (6000, 2000, 8) };

    let mut rng = seeded_rng(55);
    let ds = DigitsDataset::generate(&mut rng, n_train, n_test);
    let train: Vec<Tensor3> = ds.train.iter().map(|d| to_tensor(&d.pixels)).collect();
    let train_labels: Vec<usize> = ds.train.iter().map(|d| d.label).collect();
    let test: Vec<Tensor3> = ds.test.iter().map(|d| to_tensor(&d.pixels)).collect();
    let test_labels: Vec<usize> = ds.test.iter().map(|d| d.label).collect();

    let mut net = LeNet5::new(&mut rng);
    eprintln!("training LeNet-5: {n_train} images × {epochs} epochs…");
    // Per-epoch lr decay + best-snapshot selection: per-sample momentum SGD
    // at a fixed rate can diverge late in training.
    let mut best = net.clone();
    let mut best_acc = 0.0;
    for epoch in 0..epochs {
        let lr = 0.002 * 0.75_f64.powi(epoch);
        let stats = net.train_epoch(&train, &train_labels, lr, 0.9);
        eprintln!("  epoch {epoch}: loss {:.4}, acc {:.3}", stats.loss, stats.accuracy);
        if stats.accuracy > best_acc {
            best_acc = stats.accuracy;
            best = net.clone();
        }
    }
    let mut net = best;

    let fp32 = net.evaluate(&test, &test_labels);

    eprintln!("running INT8 analog inference ({n_test} images)…");
    let mut int8 = GramcLenet::new(net.clone(), Precision::Int8, MacroConfig::default(), 16, 56)
        .expect("backend");
    let acc8 = int8.evaluate(&test, &test_labels).expect("int8 eval");

    eprintln!("running INT4 analog inference ({n_test} images)…");
    let mut int4 =
        GramcLenet::new(net, Precision::Int4, MacroConfig::default(), 16, 57).expect("backend");
    let acc4 = int4.evaluate(&test, &test_labels).expect("int4 eval");

    println!("# Fig. 5: LeNet-5 accuracy (synthetic digits, {n_test} test images)");
    println!("{:>10} {:>12} {:>12}", "precision", "this repo", "paper(MNIST)");
    println!("{:>10} {:>12.4} {:>12}", "INT4", acc4, 0.97613);
    println!("{:>10} {:>12.4} {:>12}", "INT8", acc8, 0.985);
    println!("{:>10} {:>12.4} {:>12}", "float32", fp32, 0.9878);
    println!();
    let ordered = acc4 <= acc8 + 0.01 && acc8 <= fp32 + 0.01;
    println!("ordering INT4 ≤ INT8 ≈ FP32 holds: {ordered}");
    println!("INT8 within {:.2} points of FP32 (paper: 0.37 points)", 100.0 * (fp32 - acc8).abs());
}
