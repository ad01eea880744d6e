//! Load observatory: sweeps open-loop arrival rates over a live
//! [`RuntimeServer`] to locate the saturation knee of the serving engine —
//! the offered rate past which sustained throughput stops tracking the
//! arrival schedule and latency/rejections take off.
//!
//! Each sweep point gets a **fresh** runtime + server (histograms, journal
//! and queue state never bleed between rates). The sweep is anchored to a
//! closed-loop capacity probe on this host, so the same command brackets
//! the knee on a laptop and a 1-core CI runner alike.
//!
//! ```sh
//! cargo run -p gramc-bench --release --bin load_observatory -- \
//!     [--shards N] [--clients N] [--duration-ms MS] [--queue-limit N] \
//!     [--rates r1,r2,...] [--out report.json]
//! ```
//!
//! With `--out`, the sweep is also written as a `BENCH_kernels.json`-style
//! report (one sample per point, latency/throughput/rejection meta rows).

use std::sync::Arc;
use std::time::Duration;

use gramc_bench::loadgen::{self, LoadReport};
use gramc_bench::timing::{to_json, Sample};
use gramc_core::tiling::TileMapping;
use gramc_core::MacroConfig;
use gramc_linalg::random;
use gramc_runtime::{OperatorHandle, Placement, Runtime, RuntimeServer};
use gramc_telemetry::json::Json;

/// One measurement on a fresh serving deployment: builds the runtime,
/// starts the server, loads a seeded 64×64 operator, runs `f`, shuts down.
fn serve_point(
    shards: usize,
    queue_limit: usize,
    f: impl FnOnce(&Arc<Runtime>, OperatorHandle, &[f64]) -> LoadReport,
) -> LoadReport {
    let rt = Arc::new(
        Runtime::new(shards, 2, MacroConfig::small_ideal(64), 6).with_queue_limit(queue_limit),
    );
    let server = RuntimeServer::start(rt.clone());
    let mut rng = random::seeded_rng(23);
    let a = random::gaussian_matrix(&mut rng, 64, 64);
    let (op, loaded) =
        rt.submit_load(&a, TileMapping::FourBit, Placement::LeastLoaded).expect("load operator");
    loaded.wait().expect("load completes");
    let x = random::normal_vector(&mut rng, 64);
    let report = f(&rt, op, &x);
    server.shutdown();
    report
}

fn main() {
    let mut shards = 2usize;
    let mut clients = 4usize;
    let mut duration = Duration::from_millis(400);
    let mut queue_limit = 64usize;
    let mut rates: Option<Vec<f64>> = None;
    let mut out: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut next = |what: &str| it.next().unwrap_or_else(|| panic!("{arg} needs {what}"));
        match arg.as_str() {
            "--shards" => shards = next("a count").parse().expect("shard count"),
            "--clients" => clients = next("a count").parse().expect("client count"),
            "--duration-ms" => {
                duration = Duration::from_millis(next("milliseconds").parse().expect("ms"));
            }
            "--queue-limit" => queue_limit = next("a bound").parse().expect("queue limit"),
            "--rates" => {
                rates = Some(
                    next("a comma list")
                        .split(',')
                        .map(|r| r.parse().expect("rate in rps"))
                        .collect(),
                );
            }
            "--out" => out = Some(next("a path").clone()),
            other => panic!("unknown argument {other}"),
        }
    }

    // Capacity probe: closed loop at the requested concurrency. This is the
    // sustained service rate the open-loop sweep is measured against.
    let probe = serve_point(shards, queue_limit, |rt, op, x| {
        loadgen::closed_loop(rt, op, x, clients, duration)
    });
    let capacity = probe.throughput_rps();
    println!(
        "capacity probe ({} clients, closed loop): {capacity:.0} rps sustained, \
         p50 {:.1} µs, p99 {:.1} µs",
        clients,
        probe.latency.p50_ns() as f64 / 1e3,
        probe.latency.p99_ns() as f64 / 1e3,
    );

    let rates = rates.unwrap_or_else(|| {
        [0.25, 0.5, 0.75, 1.0, 1.5, 2.0].iter().map(|f| (capacity * f).max(10.0)).collect()
    });

    println!();
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "offered", "sustained", "p50 µs", "p99 µs", "p999 µs", "rejected", "goodput"
    );
    let mut reports: Vec<(f64, LoadReport)> = Vec::new();
    for &rate in &rates {
        let rep = serve_point(shards, queue_limit, |rt, op, x| {
            loadgen::open_loop(rt, op, x, rate, duration, clients)
        });
        println!(
            "{:>10.0} {:>10.0} {:>10.1} {:>10.1} {:>10.1} {:>9.1}% {:>8.0}%",
            rate,
            rep.throughput_rps(),
            rep.latency.p50_ns() as f64 / 1e3,
            rep.latency.p99_ns() as f64 / 1e3,
            rep.latency.p999_ns() as f64 / 1e3,
            100.0 * rep.rejection_rate(),
            100.0 * rep.throughput_rps() / rate,
        );
        reports.push((rate, rep));
    }

    // The knee: first offered rate the server stopped keeping up with —
    // sustained throughput under 90% of offered, or any admission
    // rejections at all.
    let knee = reports
        .iter()
        .find(|(rate, rep)| rep.throughput_rps() < 0.9 * rate || rep.rejected > 0)
        .map(|(rate, _)| *rate);
    println!();
    match knee {
        Some(rate) => println!("saturation knee: first overloaded point at {rate:.0} rps offered"),
        None => println!("saturation knee: not reached (all offered rates sustained)"),
    }

    if let Some(path) = out {
        let report = observatory_report(shards, queue_limit, knee, &probe, &reports);
        std::fs::write(&path, format!("{report}\n")).expect("write observatory json");
        println!("wrote {path}");
    }
}

/// The `--out` document: one sample and meta rows per point (probe first),
/// after the deployment shape and the knee (`null` when not reached).
fn observatory_report(
    shards: usize,
    queue_limit: usize,
    knee: Option<f64>,
    probe: &LoadReport,
    reports: &[(f64, LoadReport)],
) -> Json {
    let mut samples: Vec<Sample> = vec![probe.sample()];
    let mut meta: Vec<(String, Json)> = vec![
        ("bench".into(), "load_observatory".into()),
        ("shards".into(), shards.into()),
        ("queue_limit".into(), queue_limit.into()),
        ("saturation_knee_rps".into(), knee.into()),
    ];
    meta.extend(probe.meta());
    for (rate, rep) in reports {
        samples.push(rep.sample());
        meta.push((format!("{}_offered_rps", rep.name), (*rate).into()));
        meta.extend(rep.meta());
    }
    to_json(meta, &samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gramc_telemetry::json;
    use gramc_telemetry::LatencyHistogram;

    fn report(name: &str) -> LoadReport {
        let latency = LatencyHistogram::new();
        latency.record_ns(40_000);
        LoadReport {
            name: name.into(),
            completed: 1,
            rejected: 0,
            elapsed_s: 0.1,
            latency: latency.snapshot(),
        }
    }

    #[test]
    fn unreached_knee_is_json_null() {
        let points = [(200.0, report("serving_open_200rps"))];
        let text =
            observatory_report(2, 64, None, &report("serving_closed_c4"), &points).to_string();
        let meta = json::parse(&text).unwrap().get("meta").cloned().unwrap();
        assert_eq!(meta.get("saturation_knee_rps"), Some(&Json::Null));
        assert_eq!(meta.num("serving_open_200rps_offered_rps"), Some(200.0));

        let text = observatory_report(2, 64, Some(2000.0), &report("c"), &points).to_string();
        let meta = json::parse(&text).unwrap().get("meta").cloned().unwrap();
        assert_eq!(meta.num("saturation_knee_rps"), Some(2000.0));
    }
}
