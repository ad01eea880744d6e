//! The GRAMC benchmark: four workloads, exact-latency end-to-end metrics
//! and a traced per-layer run.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_closed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Inputs come from `--seed` alone. With `--trace 0` the run sets the
//! workload up five times, measures it for `--seconds`, checks every output
//! and prints the end-to-end metrics: `cpu_us_per_op` (process CPU time
//! per operation), `ok_frac`, `rel_error`, `sim_energy_nj_per_op`,
//! `setup_s` and `peak_rss_mb`. Throughput (`ops_per_s`), p50 and p99
//! latency with their sample count, and `fail_frac` are printed beside
//! them. Timings come from the operations the host's hypervisor stole
//! least CPU time from (see [`host`]). With `--trace 1` it instead
//! measures every layer (see [`layers`]) with a span around each call,
//! prints the per-layer metrics, the layer ladder of one 64×64 MVM request
//! and the tracing overhead, and writes the spans to
//! `$CARGO_TARGET_DIR/perfbench-spans/`. Human-readable lines start with
//! `#`; the last line is the JSON result.
//!
//! Load comes from at most two generator threads, at fixed client counts
//! and rates; nothing is derived from a capacity probe. Runs use the host's
//! default thread count.
//!
//! Workloads, and why each is here:
//!
//! * `serve_closed` — 2 clients, closed loop, `submit_mvm → wait` on a
//!   `RuntimeServer`; operation = one request. The runtime, coalescing and
//!   scheduler dominate; the kernel does almost nothing.
//! * `serve_idle` — the same deployment at a fixed 1,000 requests/s, open
//!   loop; operation = one request. Workers park between requests, so the
//!   park/wake and idle path dominate, which a closed loop never reaches.
//!   On a shared virtual machine its latency is mostly the host's wake-up
//!   latency, so `BENCHMARK.json` leaves it out; the traced run still
//!   measures its layers.
//! * `lenet_batch` — `RuntimeLenet::logits_matrix` on 64-image batches,
//!   paper non-idealities; operation = one image. Compute-bound: noisy
//!   conductance reads, packed matmul, batched decode and im2col.
//! * `program_solve` — pulse write-verify load, then INV solves and MVMs,
//!   then free; operation = one cycle. The only workload that runs the
//!   write-verify loop, the circuit solve and snapshot invalidation.

mod host;
mod inputs;
mod layers;
mod lenet;
mod pacer;
mod report;
mod serve;
mod solve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gramc_core::metrics::AnalogCostModel;

use host::{TickSampler, Ticks};
use report::Outcome;
use serve::CheckPass;
use stats::{median, Timeline};
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Length of the windows the serve workloads' timed phase is cut into;
/// their end-to-end metrics come from the windows the host stole least
/// from (see [`host`]).
const SERVE_WINDOW: Duration = Duration::from_millis(100);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeClosed,
    ServeIdle,
    LenetBatch,
    ProgramSolve,
}

impl Workload {
    const ALL: [Workload; 4] =
        [Self::ServeClosed, Self::ServeIdle, Self::LenetBatch, Self::ProgramSolve];

    pub fn name(self) -> &'static str {
        match self {
            Self::ServeClosed => "serve_closed",
            Self::ServeIdle => "serve_idle",
            Self::LenetBatch => "lenet_batch",
            Self::ProgramSolve => "program_solve",
        }
    }

    /// Ceiling on `rel_error` against the float64 reference: a run whose
    /// outputs drift further is incorrect however fast it is. Two to five
    /// times the error the quantised analog path shows (0.002, 0.33 and
    /// 0.17).
    fn rel_error_ceiling(self) -> f64 {
        match self {
            Self::ServeClosed | Self::ServeIdle => 0.01,
            Self::LenetBatch => 0.6,
            Self::ProgramSolve => 0.3,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("seconds must be in (0, 600], got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// What setting a workload up cost.
#[derive(Debug, Clone, Copy)]
struct SetupCost {
    /// Median set-up time in seconds of the builds the host stole least
    /// from.
    setup_s: f64,
    /// Peak resident set after the first build: the deployment's own
    /// footprint, read before later builds fragment the heap and before the
    /// timed phase, whose per-operation records grow with throughput.
    peak_rss_mb: f64,
}

/// Builds a workload [`SETUP_REPS`] times, tearing down all but the last.
fn set_up<T>(
    build: impl Fn() -> Result<T, String>,
    teardown: impl Fn(T) -> Result<(), String>,
) -> Result<(T, SetupCost), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut ticks = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    let mut peak_rss_mb = f64::NAN;
    for rep in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            teardown(old)?;
        }
        let before = Ticks::now();
        let t0 = Instant::now();
        kept = Some(build()?);
        times.push(t0.elapsed().as_secs_f64());
        ticks.push(Ticks::now().since(before));
        if rep == 0 {
            peak_rss_mb = report::peak_rss_mb();
        }
    }
    let quiet: Vec<f64> = times
        .iter()
        .zip(host::least_stolen(&ticks))
        .filter(|(_, keep)| *keep)
        .map(|(&t, _)| t)
        .collect();
    let cost = SetupCost { setup_s: median(&quiet), peak_rss_mb };
    Ok((kept.expect("at least one set-up"), cost))
}

/// What an untraced run measured, before it becomes metrics.
struct Measured<'a> {
    workload: Workload,
    /// The operations that passed their check.
    done: &'a Timeline,
    attempted: u64,
    failed: u64,
    check: &'a CheckPass,
    cost: SetupCost,
    /// Serve workloads: host ticks of each [`SERVE_WINDOW`] of the timed
    /// phase. The sequential workloads record ticks per operation.
    window_ticks: &'a [Ticks],
}

fn end_to_end(m: Measured<'_>) -> Outcome {
    let mut o = Outcome { attempted: m.attempted, failed: m.failed, ..Default::default() };
    let (kept, kept_ticks, ops_per_s, unit): (_, Ticks, _, _) = match m.workload {
        // Concurrent callers: the operations that ended in the least stolen
        // windows, per second of those windows.
        Workload::ServeClosed | Workload::ServeIdle => {
            let quiet = host::least_stolen(m.window_ticks);
            let keep: Vec<bool> =
                m.done.window_of(SERVE_WINDOW, quiet.len()).into_iter().map(|w| quiet[w]).collect();
            let kept = m.done.filter(&keep);
            let kept_windows: Vec<Ticks> =
                m.window_ticks.iter().zip(&quiet).filter(|(_, &q)| q).map(|(t, _)| *t).collect();
            let rate = kept.ops() as f64 / (SERVE_WINDOW * kept_windows.len() as u32).as_secs_f64();
            (kept, kept_windows.iter().sum(), rate, "windows")
        }
        // One sequential caller: the least stolen calls, operations per
        // second of call time.
        Workload::LenetBatch | Workload::ProgramSolve => {
            let kept = m.done.filter(&host::least_stolen(m.done.ticks()));
            let ticks = kept.ticks().iter().sum();
            let rate = kept.ops() as f64 / kept.busy().as_secs_f64();
            (kept, ticks, rate, "calls")
        }
    };
    let all: Ticks =
        if m.window_ticks.is_empty() { m.done.ticks() } else { m.window_ticks }.iter().sum();
    o.note(format!(
        "host steal {} ticks in all; kept the least stolen {unit} ({} steal ticks)",
        all.steal, kept_ticks.steal
    ));
    // Throughput and latency are printed, not reported: on a shared host
    // the hypervisor's load moves them by more than any bound a regression
    // gate could use, even in the least stolen windows. CPU time per
    // operation is the timing the gate uses.
    o.note(format!("ops_per_s {ops_per_s} over {} kept operations", kept.ops()));
    if !kept.is_empty() {
        let s = kept.latencies();
        o.note(format!(
            "latency p50 {:.3} us, p99 {:.3} us over {} kept samples ({} beyond p99; {} operations in all)",
            s.p50_us(),
            s.p99_us(),
            s.len(),
            s.beyond(990),
            m.done.ops()
        ));
    }
    let cpu_us_per_op = kept_ticks.cpu as f64 * host::TICK.as_secs_f64() * 1e6 / kept.ops() as f64;
    let fail_frac = m.failed as f64 / m.attempted.max(1) as f64;
    o.note(format!("fail_frac {fail_frac} ({} of {} attempted)", m.failed, m.attempted));
    let energy_j = AnalogCostModel::default().attribute(&m.check.hw).energy;
    let ceiling = m.workload.rel_error_ceiling();
    o.correct = m.failed == 0 && m.check.rel_error <= ceiling;
    if m.check.rel_error > ceiling {
        o.note(format!("rel_error {} above its ceiling {ceiling}", m.check.rel_error));
    }
    o.metric("cpu_us_per_op", cpu_us_per_op, "us");
    o.metric("ok_frac", 1.0 - fail_frac, "fraction");
    o.metric("rel_error", m.check.rel_error, "ratio");
    o.metric("sim_energy_nj_per_op", energy_j * 1e9 / m.check.ops as f64, "nJ");
    o.metric("setup_s", m.cost.setup_s, "s");
    o.metric("peak_rss_mb", m.cost.peak_rss_mb, "MB");
    o
}

fn untraced(args: &Args) -> Result<Outcome, String> {
    let total = Duration::from_secs_f64(args.seconds);
    let seed = args.seed;
    let workload = args.workload;
    let measured = |done: &Timeline,
                    attempted,
                    failed,
                    check: &CheckPass,
                    cost,
                    ticks: &[Ticks]| {
        end_to_end(Measured { workload, done, attempted, failed, check, cost, window_ticks: ticks })
    };
    match workload {
        Workload::ServeClosed | Workload::ServeIdle => {
            let (dep, cost) =
                set_up(|| serve::Deployment::start(seed), serve::Deployment::shutdown)?;
            let start = Instant::now();
            let windows = (total.as_secs_f64() / SERVE_WINDOW.as_secs_f64()).ceil().max(1.0) as u32;
            let sampler = TickSampler::start(start, SERVE_WINDOW, windows);
            let st = if workload == Workload::ServeClosed {
                serve::closed_loop(&dep, start, total, None)
            } else {
                serve::open_loop(&dep, serve::IDLE_RATE, start, total, None)
            };
            let ticks = sampler.finish();
            let check = dep.check.clone();
            dep.shutdown()?;
            let mut o = measured(&st.done, st.attempted, st.failed, &check, cost, &ticks);
            if !st.late.is_empty() {
                let late = st.late.sorted();
                o.note(format!(
                    "pacer lateness: p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
                    late.percentile_ns(500) as f64 / 1e6,
                    late.percentile_ns(990) as f64 / 1e6,
                    late.percentile_ns(1000) as f64 / 1e6
                ));
            }
            Ok(o)
        }
        Workload::LenetBatch => {
            let (setup, cost) = set_up(|| lenet::Setup::new(seed), |_| Ok(()))?;
            let st = lenet::run(&setup, Instant::now(), total, None)?;
            Ok(measured(&st.done, st.attempted, st.failed, &setup.check, cost, &[]))
        }
        Workload::ProgramSolve => {
            let (setup, cost) = set_up(|| solve::Setup::new(seed), |_| Ok(()))?;
            let st = solve::run(&setup, Instant::now(), total, None)?;
            let mut o = measured(&st.done, st.attempted, st.failed, &setup.check, cost, &[]);
            o.note(format!("largest relative error of one output: {}", st.max_rel_error));
            Ok(o)
        }
    }
}

fn traced(args: &Args) -> Result<Outcome, String> {
    let tracer = Tracer::new();
    let mut o = layers::run(args.workload, args.seed, args.seconds, &tracer)?;
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-spans");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    tracer.write_jsonl(&path).map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    o.note(format!("{} spans written to {}", tracer.span_count(), path.display()));
    Ok(o)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <serve_closed|serve_idle|lenet_batch|program_solve> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "# conditions {}",
        report::conditions(args.workload.name(), args.seed, args.seconds, args.trace)
    );
    let result = if args.trace { traced(&args) } else { untraced(&args) };
    match result {
        Ok(outcome) => {
            for line in &outcome.notes {
                println!("# {line}");
            }
            for m in &outcome.metrics {
                println!("# {:<28} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", outcome.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload lenet_batch --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::LenetBatch);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload serve_idle").is_err());
        assert!(parse("--workload serve_idle --seed 1 --trace 2").is_err());
        assert!(parse("--workload serve_idle --seed 1 --seconds -3").is_err());
    }
}
