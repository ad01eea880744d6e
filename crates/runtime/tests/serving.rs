//! Integration tests of the persistent serving engine: admission control
//! at the queue bound, parked-worker completion without a global drain,
//! graceful shutdown, the serving determinism contract and the pinned
//! metrics schema.

use std::sync::Arc;
use std::time::Duration;

use gramc_core::tiling::TileMapping;
use gramc_core::{MacroConfig, MacroGroup};
use gramc_linalg::random;
use gramc_runtime::{Placement, Runtime, RuntimeError, RuntimeServer};

/// A live 2-shard server with one loaded seeded 64-dim operator.
fn serving_fixture(seed: u64) -> (Arc<Runtime>, RuntimeServer, gramc_runtime::OperatorHandle) {
    let rt = Arc::new(Runtime::new(2, 2, MacroConfig::small_ideal(16), seed));
    let server = RuntimeServer::start(rt.clone());
    let mut rng = random::seeded_rng(seed ^ 0x5eed);
    let a = random::gaussian_matrix(&mut rng, 16, 16);
    let (op, loaded) =
        rt.submit_load(&a, TileMapping::FourBit, Placement::LeastLoaded).expect("load");
    loaded.wait().expect("server completes the load without run_all");
    (rt, server, op)
}

/// Admission control: with a queue bound and no workers draining, the
/// submission past the bound fails typed with the configured limit, the
/// queue itself is untouched, and capacity frees up once the backlog
/// drains.
#[test]
fn queue_full_rejects_past_the_bound() {
    let rt = Runtime::new(1, 2, MacroConfig::small_ideal(8), 3).with_queue_limit(2);
    let mut rng = random::seeded_rng(17);
    let a = random::gaussian_matrix(&mut rng, 8, 8);
    let (op, loaded) = rt.submit_load(&a, TileMapping::FourBit, Placement::Pinned(0)).unwrap();
    let x = random::normal_vector(&mut rng, 8);
    let queued = rt.submit_mvm_batch(op, vec![x.clone()]).unwrap();

    // Two jobs queued (load + batch): the bound is hit exactly now.
    let err = rt.submit_mvm_batch(op, vec![x.clone()]).unwrap_err();
    assert!(
        matches!(err, RuntimeError::QueueFull { limit: 2 }),
        "expected QueueFull {{ limit: 2 }}, got {err:?}"
    );
    assert_eq!(rt.queued_jobs(), 2, "a rejected submission must not enqueue");

    let snap = rt.metrics_snapshot();
    assert_eq!(snap.rejected, 1, "rejections are metered");
    assert_eq!(snap.queue_depth, 2);

    // Draining restores admission capacity.
    rt.run_all();
    loaded.wait().unwrap();
    queued.wait().unwrap();
    rt.submit_mvm_batch(op, vec![x]).expect("capacity frees after the drain");
}

/// Without a server (and no run_all), a submitted job never completes —
/// `wait_timeout` elapses typed. Attaching a server then finishes the very
/// same job: persistent workers pick up pre-existing backlog on start.
#[test]
fn wait_timeout_elapses_until_a_server_attaches() {
    let rt = Arc::new(Runtime::new(2, 2, MacroConfig::small_ideal(8), 5));
    let mut rng = random::seeded_rng(29);
    let a = random::gaussian_matrix(&mut rng, 8, 8);
    let (op, loaded) = rt.submit_load(&a, TileMapping::FourBit, Placement::Pinned(0)).unwrap();
    let h = rt.submit_mvm_batch(op, vec![random::normal_vector(&mut rng, 8)]).unwrap();

    let err = h.wait_timeout(Duration::from_millis(30)).unwrap_err();
    assert!(matches!(err, RuntimeError::WaitTimeout), "no workers: {err:?}");

    let server = RuntimeServer::start(rt.clone());
    loaded.wait().unwrap();
    h.wait_timeout(Duration::from_secs(10)).expect("server completes the queued job");
    let report = server.shutdown();
    assert_eq!(report.panicked_workers, 0);
    assert!(report.jobs_executed >= 2, "load + mvm served, got {}", report.jobs_executed);
}

/// Graceful shutdown drains: every job submitted before `shutdown` still
/// completes and answers its waiters, and the report accounts for all of
/// them.
#[test]
fn graceful_shutdown_completes_in_flight_jobs() {
    let (rt, server, op) = serving_fixture(7);
    let mut rng = random::seeded_rng(31);
    let handles: Vec<_> = (0..48)
        .map(|_| rt.submit_mvm_batch(op, vec![random::normal_vector(&mut rng, 16)]).unwrap())
        .collect();

    // Shut down immediately: most of the 48 are still queued.
    let report = server.shutdown();
    assert_eq!(report.workers, 2);
    assert_eq!(report.panicked_workers, 0);
    for h in &handles {
        h.wait_timeout(Duration::from_millis(1))
            .expect("every pre-shutdown submission completes during the drain");
    }
    assert!(report.jobs_executed >= 49, "load + 48 batches, got {}", report.jobs_executed);
}

/// The serving determinism contract: with fixed seeds and pinned
/// placement, results served by persistent workers are bit-identical to a
/// lone `MacroGroup` replaying the same submission order — across MVM,
/// INV-batch and PINV-batch paths. (Explicit batches, not coalesced
/// `submit_mvm`: batch composition under a live server depends on timing.)
#[test]
fn served_results_are_bit_identical_to_lone_group() {
    let config = MacroConfig::small(6);
    let rt = Arc::new(Runtime::new(3, 2, config.clone(), 42));
    let mut reference = MacroGroup::new(2, config, Runtime::shard_seed_of(42, 1));
    let server = RuntimeServer::start(rt.clone());

    let mut rng = random::seeded_rng(90);
    let a = random::spd_with_condition(&mut rng, 6, 5.0);
    let (op, loaded) = rt.submit_load(&a, TileMapping::FourBit, Placement::Pinned(1)).unwrap();
    loaded.wait().unwrap();
    let ref_op = reference.load_matrix(&a).unwrap();

    // Submit→wait sequentially so program order on the shard is exactly
    // the reference's call order.
    let xs: Vec<Vec<f64>> = (0..5).map(|_| random::normal_vector(&mut rng, 6)).collect();
    let ys = rt.submit_mvm_batch(op, xs.clone()).unwrap().wait_vectors().unwrap();
    assert_eq!(ys, reference.mvm_batch(ref_op, &xs).unwrap(), "served MVM batch differs");

    let bs: Vec<Vec<f64>> = (0..3).map(|_| random::normal_vector(&mut rng, 6)).collect();
    let inv = rt.submit_solve_inv_batch(op, bs.clone()).unwrap().wait_vectors().unwrap();
    assert_eq!(inv, reference.solve_inv_batch(ref_op, &bs).unwrap(), "served INV batch differs");

    let pinv = rt.submit_solve_pinv_batch(op, bs.clone()).unwrap().wait_vectors().unwrap();
    assert_eq!(pinv, reference.solve_pinv_batch(ref_op, &bs).unwrap(), "served PINV batch differs");

    let report = server.shutdown();
    assert_eq!(report.panicked_workers, 0);
}

/// Every served job leaves its two-stage span pair in the journal: a
/// `queued:<kind>` span on the shard lane (submit → dispatch) abutting a
/// `job:<kind>` span on the worker lane (dispatch → complete).
#[test]
fn serving_trace_has_span_pair_per_job() {
    let (rt, server, op) = serving_fixture(13);
    let mut rng = random::seeded_rng(37);
    let n = 8;
    for _ in 0..n {
        rt.submit_mvm_batch(op, vec![random::normal_vector(&mut rng, 16)]).unwrap().wait().unwrap();
    }
    server.shutdown();

    let trace = rt.journal_chrome_trace();
    let count = |needle: &str| trace.matches(needle).count();
    assert_eq!(count("\"queued:mvm_batch\""), n, "one queue-wait span per batch");
    assert_eq!(count("\"job:mvm_batch\""), n, "one execution span per batch");
    assert_eq!(count("\"queued:load\""), 1);
    assert_eq!(count("\"job:load\""), 1);
    assert_eq!(count("\"submit\""), n + 1, "one submit instant per submission");
}

/// The metrics JSONL contract CI and dashboards parse: schema version is
/// pinned at 3 (v3 added the `tenants` and `slo` sections and the widened
/// `journal` block) and every reporter record is one compact line carrying
/// it.
#[test]
fn metrics_stream_schema_version_is_pinned() {
    assert_eq!(gramc_runtime::METRICS_SCHEMA_VERSION, 3, "schema bumps must be deliberate");

    let (rt, server, op) = serving_fixture(19);
    let path = std::env::temp_dir().join("gramc_serving_metrics_test.jsonl");
    let reporter =
        gramc_runtime::MetricsReporter::start(rt.clone(), &path, Duration::from_millis(10))
            .expect("start reporter");
    let mut rng = random::seeded_rng(41);
    for _ in 0..4 {
        rt.submit_mvm_batch(op, vec![random::normal_vector(&mut rng, 16)]).unwrap().wait().unwrap();
    }
    server.shutdown();
    let lines_written = reporter.stop().expect("reporter stops cleanly");
    assert!(lines_written >= 1, "at least the final snapshot is written");

    let stream = std::fs::read_to_string(&path).expect("read metrics stream");
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = stream.lines().collect();
    assert_eq!(lines.len(), lines_written, "one record per line");
    for line in lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "not a JSON object: {line}");
        let rec = gramc_telemetry::json::parse(line).expect("record parses");
        assert_eq!(rec.num("schema_version"), Some(3.0), "schema version missing: {line}");
        assert!(line.contains("\"tenants\""), "tenants section missing: {line}");
        assert!(line.contains("\"slo\""), "slo section missing: {line}");
        assert!(line.contains("\"drop_rate\""), "journal drop rate missing: {line}");
        let opens = line.matches('{').count();
        assert_eq!(opens, line.matches('}').count(), "unbalanced braces: {line}");
    }
}

/// `stop` wakes a reporter parked between ticks: with a 10 s interval it
/// returns at once, still writing the final snapshot after the first.
#[test]
fn metrics_reporter_stop_does_not_wait_out_the_interval() {
    let rt = Arc::new(Runtime::new(1, 1, MacroConfig::small_ideal(8), 23));
    let path = std::env::temp_dir().join("gramc_reporter_stop_test.jsonl");
    let reporter = gramc_runtime::MetricsReporter::start(rt, &path, Duration::from_secs(10))
        .expect("start reporter");
    // Let the first tick land, so the reporter is parked in its interval.
    let first_line = std::time::Instant::now() + Duration::from_secs(5);
    while std::fs::read_to_string(&path).map_or(true, |s| s.is_empty()) {
        assert!(std::time::Instant::now() < first_line, "first snapshot never written");
        std::thread::sleep(Duration::from_millis(5));
    }

    let t0 = std::time::Instant::now();
    let lines = reporter.stop().expect("reporter stops cleanly");
    let took = t0.elapsed();
    std::fs::remove_file(&path).ok();
    assert!(took < Duration::from_secs(1), "stop blocked for {took:?}");
    assert!(lines >= 2, "first and final snapshots, got {lines}");
}

/// `SloMonitor::stop` wakes the monitor out of its tick interval instead of
/// sleeping through it, and still runs the final evaluation.
#[test]
fn slo_monitor_stop_does_not_wait_out_the_interval() {
    let rt = Arc::new(Runtime::new(1, 1, MacroConfig::small_ideal(8), 29));
    let cfg = gramc_runtime::SloConfig {
        interval: Duration::from_secs(10),
        ..gramc_runtime::SloConfig::default()
    };
    let slo = gramc_runtime::SloMonitor::start(rt, cfg);
    // Give the first tick time to land, so the monitor is in its interval.
    std::thread::sleep(Duration::from_millis(100));

    let t0 = std::time::Instant::now();
    let alerts = slo.stop();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "stop blocked for {took:?}");
    assert!(alerts.is_empty(), "an idle runtime burns no budget: {alerts:?}");
}
