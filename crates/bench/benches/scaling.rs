//! Analog-vs-digital scaling (supplemental to `PAPER.md`): measured MNA
//! solve cost of the INV circuit (the *simulation* cost) against the
//! measured digital LU, alongside the analytical hardware cost model.
//!
//! ```sh
//! cargo bench -p gramc-bench --bench scaling
//! ```

use gramc_bench::timing::Reporter;
use gramc_circuit::{dc_solve, topology, OpampModel};
use gramc_linalg::{lu, random, Matrix};

fn split(a: &Matrix, unit: f64) -> (Matrix, Matrix) {
    let floor = 1e-6;
    (
        a.map(|v| if v > 0.0 { v * unit + floor } else { floor }),
        a.map(|v| if v < 0.0 { -v * unit + floor } else { floor }),
    )
}

fn main() {
    let mut r = Reporter::new();
    for n in [8usize, 16, 32, 64] {
        let mut rng = random::seeded_rng(30);
        let a = random::spd_with_condition(&mut rng, n, 5.0);
        let b: Vec<f64> = random::normal_vector(&mut rng, n);
        r.bench(&format!("digital_lu_{n}"), || lu::solve(&a, &b).unwrap());
        let (gp, gn) = split(&a, 50e-6);
        let i_in: Vec<f64> = b.iter().map(|bi| -50e-6 * bi * 0.1).collect();
        r.bench(&format!("inv_circuit_mna_{n}"), || {
            let t = topology::build_inv(&gp, &gn, &i_in, OpampModel::with_gain(1e4)).unwrap();
            dc_solve(&t.circuit).unwrap()
        });
    }
}
