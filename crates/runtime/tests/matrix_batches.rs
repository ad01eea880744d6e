//! The matrix MVM request ([`Work::MvmRows`]): an `Arc<Matrix>` drive read
//! through a column window must answer exactly like the vector batch it
//! replaces, reject malformed requests with the same typed errors at
//! submission, and fall back to the digital path like every other kind.

use std::sync::Arc;

use gramc_core::tiling::TileMapping;
use gramc_core::{CoreError, FaultConfig, MacroConfig};
use gramc_linalg::{random, Matrix};
use gramc_runtime::{
    HealthConfig, JobOutput, Placement, Runtime, RuntimeError, ShardedTiledOperator, Work,
};

fn runtime() -> Runtime {
    Runtime::new(2, 4, MacroConfig::small(8), 91)
}

/// A 5 × 9 drive whose columns 2..8 are the six inputs of a 4 × 6
/// operator; the columns outside the window hold values the operator must
/// never read.
fn windowed_drive(rng: &mut rand::rngs::StdRng) -> (Arc<Matrix>, Vec<Vec<f64>>) {
    let mut drive = random::gaussian_matrix(rng, 5, 9);
    for b in 0..5 {
        drive[(b, 0)] = f64::NAN;
        drive[(b, 8)] = 1e6;
    }
    let xs = (0..5).map(|b| drive.row(b)[2..8].to_vec()).collect();
    (Arc::new(drive), xs)
}

#[test]
fn matrix_request_matches_the_vector_batch_bit_for_bit() {
    let mut rng = random::seeded_rng(3);
    let a = random::gaussian_matrix(&mut rng, 4, 6);
    let (drive, xs) = windowed_drive(&mut rng);
    // Twin runtimes with the same seed replay the same noise draws.
    let (rt_rows, rt_vecs) = (runtime(), runtime());
    let op_rows = rt_rows.load(&a, TileMapping::FourBit, Placement::Pinned(1)).unwrap();
    let op_vecs = rt_vecs.load(&a, TileMapping::FourBit, Placement::Pinned(1)).unwrap();

    let h = rt_rows.submit_mvm_rows(op_rows, drive, 2..8).unwrap();
    rt_rows.run_all();
    let rows = h.wait_rows().unwrap();
    let vecs = rt_vecs.mvm_batch(op_vecs, &xs).unwrap();
    assert_eq!(rows.shape(), (5, 4));
    for (b, y) in vecs.iter().enumerate() {
        let got: Vec<u64> = rows.row(b).iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "drive row {b}");
    }
    // The vector view of the same result is the edge wrapper's output.
    assert_eq!(h.wait_vectors().unwrap(), vecs);
    assert!(Arc::ptr_eq(&rows, &h.wait_rows().unwrap()), "waiting shares, never copies");
    let Ok(JobOutput::Rows(again)) = h.wait() else { panic!("a matrix request answers Rows") };
    assert!(Arc::ptr_eq(&rows, &again));
    // Telemetry files the request under the MVM batch kind.
    let kinds = rt_rows.metrics_snapshot().kinds;
    assert_eq!(kinds.iter().find(|k| k.kind == "mvm_batch").map(|k| k.jobs), Some(1));
}

#[test]
fn matrix_request_rejects_malformed_input_with_typed_errors() {
    let rt = runtime();
    let mut rng = random::seeded_rng(4);
    let a = random::gaussian_matrix(&mut rng, 4, 6);
    let op = rt.load(&a, TileMapping::FourBit, Placement::Pinned(0)).unwrap();
    let drive =
        |cols: usize| Arc::new(random::gaussian_matrix(&mut random::seeded_rng(5), 3, cols));

    // A window as wide as the drive, but not as wide as the operator.
    let err = rt.submit_mvm_rows(op, drive(5), 0..5).unwrap_err();
    assert!(
        matches!(err, RuntimeError::Core(CoreError::ShapeMismatch { expected: 6, found: 5 })),
        "{err:?}"
    );
    // The right width, but reaching past the drive.
    let err = rt.submit_mvm_rows(op, drive(7), 2..8).unwrap_err();
    assert!(
        matches!(err, RuntimeError::Core(CoreError::ShapeMismatch { expected: 8, found: 7 })),
        "{err:?}"
    );
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut m = random::gaussian_matrix(&mut rng, 3, 6);
        m[(2, 4)] = bad;
        let err = rt.submit_mvm_rows(op, Arc::new(m), 0..6).unwrap_err();
        assert!(matches!(err, RuntimeError::NonFiniteInput), "{bad}: {err:?}");
    }
    assert_eq!(rt.queued_jobs(), 0, "a rejected request takes no queue slot");

    rt.free(op).unwrap();
    let err = rt.submit_for(
        gramc_runtime::TenantId::DEFAULT,
        op,
        Work::MvmRows { drive: drive(6), cols: 0..6 },
    );
    assert!(matches!(err, Err(RuntimeError::InvalidHandle)), "{err:?}");

    // A freed tiled operator rejects its matrix batches too.
    let mut tiled = ShardedTiledOperator::load(&rt, &a, TileMapping::FourBit).unwrap();
    tiled.free(&rt).unwrap();
    assert!(matches!(tiled.mvm_batch_rows(&rt, &drive(6)), Err(RuntimeError::InvalidHandle)));
}

/// On a quarantined shard with nowhere to migrate, the operator degrades to
/// the digital path: the matrix request then answers from the kept matrix,
/// row for row what the vector batch returns.
#[test]
fn quarantined_digital_fallback_matches_the_vector_path() {
    let health = HealthConfig { quarantine_after: 1, ..HealthConfig::default() };
    let rt = Runtime::new(1, 4, MacroConfig::small_ideal(8), 17).with_health_config(health);
    let mut rng = random::seeded_rng(6);
    let a = random::gaussian_matrix(&mut rng, 4, 6);
    let op = rt.load(&a, TileMapping::FourBit, Placement::Pinned(0)).unwrap();
    rt.inject_shard_faults(0, &FaultConfig::stuck_at(0.3), 23).unwrap();
    rt.probe_shard(0).unwrap();
    assert_eq!(rt.quarantined_shards(), vec![0]);

    let (drive, xs) = windowed_drive(&mut rng);
    let rows = rt.submit_mvm_rows(op, drive, 2..8).unwrap();
    let vecs = rt.submit_mvm_batch(op, xs.clone()).unwrap();
    let summary = rt.run_all();
    assert_eq!(summary.degraded, 2, "both requests answered digitally");
    let rows = rows.wait_rows().unwrap();
    let vecs = vecs.wait_vectors().unwrap();
    assert_eq!(rows.to_row_vecs(), vecs);
    for (x, y) in xs.iter().zip(&vecs) {
        assert_eq!(y, &a.matvec(x), "the digital path is the exact product");
    }
}
