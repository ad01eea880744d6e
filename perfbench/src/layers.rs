//! The traced run: per-layer metrics, the 64×64 layer ladder and the
//! tracing overhead.
//!
//! Every per-layer metric is measured on the workload it belongs to, so a
//! traced run prints the same set whatever `--workload` names; the named
//! workload only selects which set of hardware counts (`hw.*`) is reported
//! and whose end-to-end latency is compared traced against untraced.
//!
//! | metric | moves | on |
//! |---|---|---|
//! | `loadgen.late_p99_ms` | validates the run | `serve_idle` |
//! | `runtime.submit_us`, `runtime.wait_us` | latency (printed), `cpu_us_per_op` | both serve workloads |
//! | `runtime.rows_per_dispatch`, `runtime.busy_frac` | throughput (printed), `cpu_us_per_op` | `serve_closed` |
//! | `runtime.queue_depth_max`, `runtime.steals`, `runtime.requeues` | p99 latency (printed) | `serve_closed` |
//! | `runtime.drain_us` | latency (printed), `cpu_us_per_op` | `program_solve` |
//! | `runtime.sync_mvm_us`, `server.mvm_us` | ladder rungs 4 and 5 | reference request |
//! | `server.idle_wake_us` | latency (printed), `cpu_us_per_op` | `serve_idle` |
//! | `core.mvm_rows1_us` | latency (printed), `cpu_us_per_op` | `serve_closed` |
//! | `core.mvm_rows64_us` | latency (printed), `cpu_us_per_op` | `lenet_batch` |
//! | `core.load_ms`, `core.solve_inv_batch_us` | latency (printed), `cpu_us_per_op`, `setup_s` | `program_solve` |
//! | `array.conductance_read_us`, `array.snapshot_hit_ratio` | latency (printed), `cpu_us_per_op` | `serve_closed`, `lenet_batch` |
//! | `array.program_region_ms` | latency (printed), `cpu_us_per_op` | `program_solve` |
//! | `circuit.dc_operator_us` | latency (printed), `cpu_us_per_op` | `program_solve` |
//! | `linalg.matmul_1x64x64_us` | latency (printed), `cpu_us_per_op` | `serve_closed` |
//! | `linalg.matmul_lenet_us` | latency (printed), `cpu_us_per_op` | `lenet_batch` |
//! | `linalg.lu_factor_32_us` | latency (printed), `cpu_us_per_op` | `program_solve` |
//! | `nn.logits_matrix_ms` | latency (printed), `cpu_us_per_op` | `lenet_batch` |
//! | `hw.*_per_op` | guard `rel_error`, `sim_energy_nj_per_op` | the named workload |

use std::hint::black_box;
use std::time::{Duration, Instant};

use gramc_array::{
    ActiveRegion, ArrayConfig, ConductanceMapper, CrossbarArray, WriteVerifyController,
};
use gramc_circuit::topology::build_inv;
use gramc_circuit::{DcOperator, OpampModel};
use gramc_core::tiling::TileMapping;
use gramc_core::{MacroConfig, MacroGroup};
use gramc_linalg::lu::LuDecomposition;
use gramc_linalg::random::{gaussian_matrix, seeded_rng, uniform_vector};
use gramc_linalg::Matrix;
use gramc_runtime::{MetricsSnapshot, Placement, Runtime};

use crate::inputs::{self, SERVE_N, SOLVE_N, SOLVE_RHS};
use crate::report::Outcome;
use crate::serve::{self, CheckPass, Deployment};
use crate::stats::{Samples, Sorted};
use crate::trace::{SpanLog, Tracer};
use crate::{lenet, solve, Workload};

/// Calls per microbenchmark at most, so span files stay small.
const MAX_CALLS: usize = 20_000;

/// Times `f` until `budget` has passed (and at least `min_calls` times),
/// one span per call.
fn time_calls(
    log: &mut SpanLog,
    name: &'static str,
    budget: Duration,
    min_calls: usize,
    mut f: impl FnMut(),
) -> Sorted {
    let mut s = Samples::with_capacity(MAX_CALLS);
    let start = Instant::now();
    let mut i = 0;
    while i < min_calls || (i < MAX_CALLS && start.elapsed() < budget) {
        let t0 = Instant::now();
        f();
        let t1 = Instant::now();
        s.push(t1 - t0);
        log.record(name, 0, i as u64, t0, t1);
        i += 1;
    }
    s.sorted()
}

fn p50_us(spans: &[crate::trace::Span]) -> f64 {
    let mut s = Samples::with_capacity(spans.len());
    for sp in spans {
        s.push(Duration::from_nanos(sp.dur_ns()));
    }
    if s.is_empty() {
        f64::NAN
    } else {
        s.sorted().p50_us()
    }
}

fn hw_per_op(o: &mut Outcome, check: &CheckPass) {
    let per_op = |n: u64| n as f64 / check.ops as f64;
    let hw = &check.hw;
    o.metric("hw.dac_drives_per_op", per_op(hw.dac_drives), "count");
    o.metric("hw.adc_conversions_per_op", per_op(hw.adc_conversions), "count");
    o.metric("hw.read_cycles_per_op", per_op(hw.read_cycles_mvm + hw.read_cycles_solve), "count");
    o.metric("hw.write_pulses_per_op", per_op(hw.write_pulses), "count");
}

/// Runtime counters over a slice of serving, from two metrics snapshots.
fn runtime_counters(
    o: &mut Outcome,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    requests: u64,
    wall: Duration,
) {
    let jobs = |m: &MetricsSnapshot| -> u64 {
        m.kinds.iter().filter(|k| k.kind == "mvm_many" || k.kind == "mvm_set").map(|k| k.jobs).sum()
    };
    let sum = |m: &MetricsSnapshot, f: fn(&gramc_runtime::ShardMetrics) -> u64| -> u64 {
        m.shards.iter().map(f).sum()
    };
    let dispatches = jobs(after) - jobs(before);
    o.metric("runtime.rows_per_dispatch", requests as f64 / dispatches.max(1) as f64, "ratio");
    let busy = sum(after, |s| s.busy_ns) - sum(before, |s| s.busy_ns);
    o.metric(
        "runtime.busy_frac",
        busy as f64 / (wall.as_nanos() as f64 * after.shards.len() as f64),
        "fraction",
    );
    o.metric("runtime.queue_depth_max", after.queue_depth_max as f64, "count");
    o.metric(
        "runtime.steals",
        (sum(after, |s| s.steals) - sum(before, |s| s.steals)) as f64,
        "count",
    );
    o.metric(
        "runtime.requeues",
        (sum(after, |s| s.requeues) - sum(before, |s| s.requeues)) as f64,
        "count",
    );
}

/// The traced run for `workload`.
///
/// # Errors
///
/// Set-up or runtime errors in any measured layer.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
) -> Result<Outcome, String> {
    let slice = Duration::from_secs_f64(seconds / 8.0);
    let micro = Duration::from_secs_f64(seconds / 40.0);
    let mut o = Outcome { correct: true, ..Default::default() };
    let mut log = tracer.log(16 * MAX_CALLS);

    // ── serving: closed loop untraced and traced, open loop traced ──
    let dep = Deployment::start(seed)?;
    let untraced_closed = serve::closed_loop(&dep, Instant::now(), slice, None);
    let before = dep.rt.metrics_snapshot();
    let hw_before = dep.rt.hw_snapshot();
    let closed = serve::closed_loop(&dep, Instant::now(), slice, Some(tracer));
    let after = dep.rt.metrics_snapshot();
    let hw = dep.rt.hw_snapshot().since(&hw_before);
    o.metric("runtime.submit_us", p50_us(&tracer.spans("runtime.submit_mvm")), "us");
    o.metric("runtime.wait_us", p50_us(&tracer.spans("runtime.wait")), "us");
    runtime_counters(&mut o, &before, &after, closed.done.ops(), closed.elapsed);
    o.metric(
        "array.snapshot_hit_ratio",
        hw.snapshot_hits as f64 / (hw.snapshot_hits + hw.snapshot_misses).max(1) as f64,
        "ratio",
    );
    let idle = serve::open_loop(&dep, serve::IDLE_RATE, Instant::now(), slice, Some(tracer));
    let late = idle.late.sorted();
    o.metric("loadgen.late_p99_ms", late.percentile_ns(990) as f64 / 1e6, "ms");

    // ── the 64×64 reference request, layer by layer ──
    let a0 = &dep.inputs().matrices[0];
    let x0 = dep.inputs().vectors[0].clone();
    let drive = Matrix::from_vec(1, SERVE_N, x0.clone());
    let mut rng = seeded_rng(seed);
    let g_t = gaussian_matrix(&mut rng, SERVE_N, SERVE_N);
    let r1 = time_calls(&mut log, "linalg.matmul_1x64x64", micro, 100, || {
        black_box(black_box(&drive).matmul(black_box(&g_t)));
    });
    let array = CrossbarArray::new(ArrayConfig::ideal(SERVE_N, SERVE_N), &mut rng);
    let region = ActiveRegion::full(SERVE_N, SERVE_N);
    let read = time_calls(&mut log, "array.conductance_read", micro, 100, || {
        black_box(array.transposed_effective_conductances(region).expect("region in bounds"));
    });
    let r2 = time_calls(&mut log, "array.read_and_product", micro, 100, || {
        let g = array.transposed_effective_conductances(region).expect("region in bounds");
        black_box(drive.matmul(&g));
    });
    let mut group = MacroGroup::new(serve::MACROS_PER_SHARD, serve::config(), inputs::CHIP_SEED);
    let id = group.load_matrix(a0).map_err(|e| format!("ladder load: {e}"))?;
    let r3 = time_calls(&mut log, "core.mvm_batch_rows_1", micro, 100, || {
        black_box(group.mvm_batch_rows(id, &drive).expect("ladder mvm"));
    });
    let sync_rt =
        Runtime::new(serve::SHARDS, serve::MACROS_PER_SHARD, serve::config(), inputs::CHIP_SEED);
    let mut sync_ops = Vec::new();
    for a in &dep.inputs().matrices {
        sync_ops.push(
            sync_rt
                .load(a, TileMapping::FourBit, Placement::LeastLoaded)
                .map_err(|e| format!("ladder load: {e}"))?,
        );
    }
    let r4 = time_calls(&mut log, "runtime.sync_mvm", micro, 100, || {
        black_box(sync_rt.mvm(sync_ops[0], &x0).expect("ladder sync mvm"));
    });
    let r5 = time_calls(&mut log, "server.mvm", micro, 100, || {
        let h = dep.rt.submit_mvm(dep.request(0).0, x0.clone()).expect("ladder submit");
        black_box(h.wait_vector().expect("ladder wait"));
    });
    let closed_check = dep.check.clone();
    dep.shutdown()?;
    o.metric("linalg.matmul_1x64x64_us", r1.p50_us(), "us");
    o.metric("array.conductance_read_us", read.p50_us(), "us");
    o.metric("core.mvm_rows1_us", r3.p50_us(), "us");
    o.metric("runtime.sync_mvm_us", r4.p50_us(), "us");
    o.metric("server.mvm_us", r5.p50_us(), "us");
    let idle_p50 = idle.done.latencies().p50_us();
    o.metric("server.idle_wake_us", idle_p50 - r4.p50_us(), "us");
    let closed_p50 = untraced_closed.done.latencies().p50_us();
    o.note("ladder for one 64x64 MVM request (p50 inclusive time; self = difference from the rung below):");
    let rungs = [
        ("linalg  Matrix::matmul 1x64 . 64x64", r1.p50_us()),
        ("array   conductance read + product", r2.p50_us()),
        ("core    MacroGroup::mvm_batch_rows (1 row, 2 planes)", r3.p50_us()),
        ("runtime sync Runtime::mvm", r4.p50_us()),
        ("server  RuntimeServer submit_mvm -> wait, one client", r5.p50_us()),
    ];
    let mut below = 0.0;
    for (name, us) in rungs {
        o.note(format!("  {name:<55} {us:>10.3} us   self {:>10.3} us", us - below));
        below = us;
    }
    o.note(format!(
        "  gap: serve_closed untraced p50 {closed_p50:.3} us - top rung {below:.3} us = {:.3} us",
        closed_p50 - below
    ));

    // ── core / array / circuit / linalg microbenchmarks ──
    let mut paper = MacroGroup::new(2, MacroConfig::default(), inputs::CHIP_SEED);
    let a128 = gaussian_matrix(&mut rng, 128, 128);
    let id128 = paper.load_matrix(&a128).map_err(|e| format!("paper load: {e}"))?;
    let drive64 = Matrix::from_fn(64, 128, |_, _| rand::Rng::gen::<f64>(&mut rng) * 2.0 - 1.0);
    let rows64 = time_calls(&mut log, "core.mvm_batch_rows_64", micro, 10, || {
        black_box(paper.mvm_batch_rows(id128, &drive64).expect("paper mvm"));
    });
    o.metric("core.mvm_rows64_us", rows64.p50_us(), "us");
    // Each timed load reprograms the cells the previous operator left, as
    // in `program_solve`; the first load (pristine cells) is untimed.
    let solve_in = inputs::solve(seed);
    let mats: Vec<Matrix> = (0..6).map(inputs::solve_matrix).collect();
    let a32 = &mats[0];
    let mut pulse = MacroGroup::new(2, solve::config(), inputs::CHIP_SEED);
    let mut last = pulse.load_matrix(a32).map_err(|e| format!("pulse load: {e}"))?;
    let mut next = 1;
    let load = time_calls(&mut log, "core.load_matrix_pulse", Duration::ZERO, 5, || {
        pulse.free_operator(last).expect("free loaded operator");
        last = pulse.load_matrix(&mats[next]).expect("pulse load");
        next += 1;
    });
    o.metric("core.load_ms", load.percentile_ns(500) as f64 / 1e6, "ms");
    let rhs = &solve_in.rhs;
    let solves = time_calls(&mut log, "core.solve_inv_batch", micro, 5, || {
        black_box(pulse.solve_inv_batch(last, rhs).expect("solve"));
    });
    o.metric("core.solve_inv_batch_us", solves.p50_us(), "us");
    let wv = WriteVerifyController::paper_default();
    let mapper = ConductanceMapper::paper_default();
    let targets = mats
        .iter()
        .map(|m| mapper.map(m).map(|mapped| mapped.positive.to_targets()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("mapping: {e}"))?;
    let mut xbar = CrossbarArray::new(ArrayConfig::small(SOLVE_N, SOLVE_N), &mut rng);
    let region32 = ActiveRegion::full(SOLVE_N, SOLVE_N);
    wv.program_region_lossy(&mut xbar, region32, &targets[0], &mut rng)
        .map_err(|e| format!("program: {e}"))?;
    let mut next = 1;
    let program = time_calls(&mut log, "array.program_region_lossy", Duration::ZERO, 5, || {
        black_box(
            wv.program_region_lossy(&mut xbar, region32, &targets[next], &mut rng)
                .expect("program"),
        );
        next += 1;
    });
    o.metric("array.program_region_ms", program.percentile_ns(500) as f64 / 1e6, "ms");
    let a_max = a32.max_abs();
    let g = |sign: f64| {
        Matrix::from_fn(SOLVE_N, SOLVE_N, |i, j| {
            1e-6 + (sign * a32[(i, j)]).max(0.0) / a_max * 99e-6
        })
    };
    let topo = build_inv(&g(1.0), &g(-1.0), &vec![0.0; SOLVE_N], OpampModel::with_gain(1e4))
        .map_err(|e| format!("INV netlist: {e}"))?;
    let dim = DcOperator::new(&topo.circuit).map_err(|e| format!("DC operator: {e}"))?.dim();
    let rhs_m = Matrix::from_fn(dim, SOLVE_RHS, |_, _| rand::Rng::gen::<f64>(&mut rng) * 1e-6);
    let dc = time_calls(&mut log, "circuit.dc_operator", micro, 5, || {
        let op = DcOperator::new(&topo.circuit).expect("DC operator");
        black_box(op.solve_rhs_matrix(&rhs_m).expect("DC solve"));
    });
    o.metric("circuit.dc_operator_us", dc.p50_us(), "us");
    let lu = time_calls(&mut log, "linalg.lu_factor_32", micro, 100, || {
        black_box(LuDecomposition::new(black_box(a32)).expect("LU"));
    });
    o.metric("linalg.lu_factor_32_us", lu.p50_us(), "us");
    // conv1's drive is the largest LeNet product: 64 images × 576
    // positions against the 5×5 kernels of 6 channels.
    let conv_drive = Matrix::from_vec(
        inputs::LENET_BATCH * 576,
        25,
        uniform_vector(&mut rng, inputs::LENET_BATCH * 576 * 25, 0.0, 1.0),
    );
    let conv_g = gaussian_matrix(&mut rng, 25, 6);
    let conv = time_calls(&mut log, "linalg.matmul_lenet_conv1", micro, 5, || {
        black_box(conv_drive.matmul(&conv_g));
    });
    o.metric("linalg.matmul_lenet_us", conv.p50_us(), "us");
    tracer.absorb(log);

    // ── lenet_batch and program_solve, traced ──
    let lenet_setup = lenet::Setup::new(seed)?;
    let batches = lenet::run(&lenet_setup, Instant::now(), slice, Some(tracer))?;
    o.metric("nn.logits_matrix_ms", p50_us(&tracer.spans("nn.logits_matrix")) / 1e3, "ms");
    let solve_setup = solve::Setup::new(seed)?;
    let cycles = solve::run(&solve_setup, Instant::now(), slice, Some(tracer))?;
    o.metric("runtime.drain_us", p50_us(&tracer.spans("runtime.run_all")), "us");
    let share = |name: &str| {
        let total: u64 = tracer.spans("solve.cycle").iter().map(|s| s.dur_ns()).sum();
        tracer.spans(name).iter().map(|s| s.dur_ns()).sum::<u64>() as f64 / total.max(1) as f64
    };
    o.note(format!(
        "program_solve cycle: write-verify load {:.1}% , reads {:.1}% ({} rounds)",
        100.0 * share("runtime.load"),
        100.0 * share("solve.reads"),
        solve::READ_ROUNDS
    ));

    // ── the named workload: counts, and traced against untraced ──
    let mut tally = vec![
        (untraced_closed.attempted, untraced_closed.failed),
        (closed.attempted, closed.failed),
        (idle.attempted, idle.failed),
        (batches.attempted, batches.failed),
        (cycles.attempted, cycles.failed),
    ];
    let (check, traced_us, untraced_us) = match workload {
        Workload::ServeClosed => (
            closed_check,
            closed.done.latencies().p50_us(),
            untraced_closed.done.latencies().p50_us(),
        ),
        Workload::ServeIdle => {
            let dep = Deployment::start(seed)?;
            let untraced = serve::open_loop(&dep, serve::IDLE_RATE, Instant::now(), slice, None);
            dep.shutdown()?;
            tally.push((untraced.attempted, untraced.failed));
            (closed_check, idle_p50, untraced.done.latencies().p50_us())
        }
        Workload::LenetBatch => {
            let untraced = lenet::run(&lenet_setup, Instant::now(), slice, None)?;
            tally.push((untraced.attempted, untraced.failed));
            (
                lenet_setup.check.clone(),
                batches.done.latencies().p50_us(),
                untraced.done.latencies().p50_us(),
            )
        }
        Workload::ProgramSolve => {
            let untraced = solve::run(&solve_setup, Instant::now(), slice, None)?;
            tally.push((untraced.attempted, untraced.failed));
            (
                solve_setup.check.clone(),
                cycles.done.latencies().p50_us(),
                untraced.done.latencies().p50_us(),
            )
        }
    };
    hw_per_op(&mut o, &check);
    o.note(format!(
        "tracing overhead on {}: traced p50 {traced_us:.3} us - untraced p50 {untraced_us:.3} us = {:.3} us ({:+.1}%)",
        workload.name(),
        traced_us - untraced_us,
        100.0 * (traced_us / untraced_us - 1.0)
    ));
    o.attempted = tally.iter().map(|t| t.0).sum();
    o.failed = tally.iter().map(|t| t.1).sum();
    o.correct = o.failed == 0;
    Ok(o)
}
