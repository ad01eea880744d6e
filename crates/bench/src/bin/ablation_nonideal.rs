//! Ablation study over the analog error budget (`NonidealityConfig`): which
//! non-ideality costs how much accuracy, per computing mode.
//!
//! Sweeps: weight bits, read noise, op-amp gain/offset, signed-encoding
//! choice, and — for INV — the matrix condition number (the error term the
//! paper's text does not break out, but which dominates solve modes).
//!
//! ```sh
//! cargo run -p gramc-bench --release --bin ablation_nonideal
//! ```

use gramc_array::{ConductanceMapper, SignedEncoding};
use gramc_core::{MacroConfig, MacroGroup, NonidealityConfig, ProgrammingMode};
use gramc_device::LevelQuantizer;
use gramc_linalg::{lu, random, vector};

const N: usize = 32;

fn mvm_error(cfg: NonidealityConfig, seed: u64) -> f64 {
    let mut rng = random::seeded_rng(seed);
    let a = random::wishart(&mut rng, N, 16 * N);
    let x = random::normal_vector(&mut rng, N);
    let config =
        MacroConfig { array_rows: N, array_cols: N, nonideal: cfg, ..MacroConfig::default() };
    let mut group = MacroGroup::new(2, config, seed + 1);
    let op = group.load_matrix(&a).expect("load");
    let y = group.mvm(op, &x).expect("mvm");
    vector::rel_error(&y, &a.matvec(&x))
}

fn inv_error_vs_cond(cond: f64, seed: u64) -> f64 {
    let mut rng = random::seeded_rng(seed);
    let a = random::spd_with_condition(&mut rng, N, cond);
    let b = random::normal_vector(&mut rng, N);
    let config = MacroConfig { array_rows: N, array_cols: N, ..MacroConfig::default() };
    let mut group = MacroGroup::new(2, config, seed + 1);
    let op = group.load_matrix(&a).expect("load");
    let x = group.solve_inv(op, &b).expect("inv");
    vector::rel_error(&x, &lu::solve(&a, &b).expect("lu"))
}

fn main() {
    println!("# Ablation 1: MVM error vs weight bits (all other noise at paper defaults)");
    println!("{:>6} {:>12}", "bits", "rel.err %");
    for bits in [2u32, 3, 4, 5, 6, 8] {
        let cfg = NonidealityConfig { weight_bits: bits, ..NonidealityConfig::paper_default() };
        println!("{:>6} {:>12.2}", bits, 100.0 * mvm_error(cfg, 60));
    }

    println!("\n# Ablation 2: MVM error vs read noise (4-bit weights)");
    println!("{:>8} {:>12}", "σ_G/G %", "rel.err %");
    for noise in [0.0, 0.005, 0.01, 0.02, 0.05] {
        let cfg = NonidealityConfig { read_noise_rel: noise, ..NonidealityConfig::paper_default() };
        println!("{:>8.1} {:>12.2}", 100.0 * noise, 100.0 * mvm_error(cfg, 61));
    }

    println!("\n# Ablation 3: MVM error vs op-amp offset (4-bit weights)");
    println!("{:>9} {:>12}", "σ_os mV", "rel.err %");
    for off in [0.0, 1e-5, 1e-4, 5e-4, 1e-3] {
        let cfg =
            NonidealityConfig { opamp_offset_sigma: off, ..NonidealityConfig::paper_default() };
        println!("{:>9.2} {:>12.2}", 1000.0 * off, 100.0 * mvm_error(cfg, 62));
    }

    println!("\n# Ablation 4: write-verify residual (programming error, 4-bit)");
    println!("{:>10} {:>12}", "σ levels", "rel.err %");
    for sigma in [0.0, 0.2, 0.4, 0.8] {
        let cfg = NonidealityConfig {
            programming: ProgrammingMode::Direct { sigma_levels: sigma },
            ..NonidealityConfig::paper_default()
        };
        println!("{:>10.1} {:>12.2}", sigma, 100.0 * mvm_error(cfg, 63));
    }

    println!("\n# Ablation 5: INV error vs condition number (paper defaults, 4-bit)");
    println!("{:>8} {:>12}", "κ₂(A)", "rel.err %");
    for cond in [2.0, 5.0, 10.0, 20.0, 50.0] {
        println!("{:>8.0} {:>12.2}", cond, 100.0 * inv_error_vs_cond(cond, 64));
    }

    println!("\n# Ablation 6: MVM error vs wire resistance (IR drop; paper neglects it)");
    println!("{:>10} {:>12}", "R_wire Ω", "rel.err %");
    for r in [0.0, 2.0, 10.0, 30.0, 100.0] {
        let cfg = NonidealityConfig { wire_resistance: r, ..NonidealityConfig::paper_default() };
        println!("{:>10.1} {:>12.2}", r, 100.0 * mvm_error(cfg, 66));
    }

    println!("\n# Ablation 7: differential vs offset signed encoding (static mapping error)");
    let mut rng = random::seeded_rng(65);
    let a = random::gaussian_matrix(&mut rng, N, N);
    let q = LevelQuantizer::paper_default();
    for (name, enc) in
        [("differential", SignedEncoding::Differential), ("offset", SignedEncoding::Offset)]
    {
        let mapped = ConductanceMapper::new(q.clone(), enc).map(&a).expect("map");
        let err = (&mapped.dequantize() - &a).fro_norm() / a.fro_norm();
        println!("{name:>14}: mapping error {:.2} %", 100.0 * err);
    }
}
