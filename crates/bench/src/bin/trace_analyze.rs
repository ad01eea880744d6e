//! Offline analysis of the serving observatory's artifacts: reads
//! `TRACE_serving.json` (the chrome://tracing journal export) and
//! `METRICS_serving.jsonl` (the live metrics stream) and reconstructs the
//! request-scoped view the raw files only imply:
//!
//! * **critical-path breakdown per request** — queue wait (lead of a
//!   dispatch) vs coalesce wait (rider joining an open batch) vs
//!   execution, stitched together by following each request's flow
//!   events from its `queued:` span to the execution slice its flow-end
//!   record lands in;
//! * **per-tenant cost table** — requests, rejections, latency
//!   percentiles and modeled joules from the final metrics record;
//! * **top-N slowest requests** by end-to-end time.
//!
//! ```sh
//! cargo run -p gramc-bench --bin trace_analyze -- \
//!     TRACE_serving.json METRICS_serving.jsonl [--top N] [--check]
//! ```
//!
//! With `--check` (CI mode) the binary exits non-zero on parse errors,
//! unlinked rider flows (a flow start without a matching end, or a flow
//! end that lands in no execution slice), metrics records off the pinned
//! schema version, or per-tenant hardware attribution that does not sum
//! exactly to `hw_total`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use gramc_runtime::METRICS_SCHEMA_VERSION as SCHEMA;
use gramc_telemetry::json::{parse, Json};

/// One `ph:"X"` slice from the trace.
#[derive(Debug, Clone)]
struct Slice {
    name: String,
    ts: f64,
    dur: f64,
    tid: u64,
    /// The request id flow-carrying queue-wait slices expose as `args.req`.
    req: Option<u64>,
}

/// One chrome flow record (`ph:"s"` start or `ph:"f"` end).
#[derive(Debug, Clone, Copy)]
struct FlowRecord {
    id: u64,
    ts: f64,
    tid: u64,
}

/// The reconstructed critical path of one request.
#[derive(Debug, Clone)]
struct RequestPath {
    request: u64,
    /// `true` when the request rode an already-open coalesced batch.
    rider: bool,
    /// Queue wait (lead) or coalesce wait (rider), µs.
    wait_us: f64,
    /// Duration of the execution slice the flow lands in, µs.
    exec_us: f64,
    /// Name of that execution slice (`job:<kind>`).
    exec_name: String,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check = false;
    let mut top_n = 10usize;
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--top" => {
                top_n = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--top needs an integer argument");
            }
            other => paths.push(other.to_string()),
        }
    }
    let [trace_path, metrics_path] = paths.as_slice() else {
        eprintln!(
            "usage: trace_analyze TRACE_serving.json METRICS_serving.jsonl [--top N] [--check]"
        );
        return ExitCode::FAILURE;
    };

    let mut failures: Vec<String> = Vec::new();
    analyze_trace(trace_path, top_n, &mut failures);
    analyze_metrics(metrics_path, &mut failures);

    if failures.is_empty() {
        println!("\ntrace_analyze: all checks passed");
        return ExitCode::SUCCESS;
    }
    eprintln!();
    for f in &failures {
        eprintln!("trace_analyze FAIL: {f}");
    }
    if check {
        return ExitCode::FAILURE;
    }
    eprintln!("(non --check mode: reporting only)");
    ExitCode::SUCCESS
}

/// Parses the chrome trace and prints the per-request breakdown; records
/// linkage violations into `failures`.
fn analyze_trace(path: &str, top_n: usize, failures: &mut Vec<String>) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            failures.push(format!("{path}: {e}"));
            return;
        }
    };
    let doc = match parse(&text) {
        Ok(d) => d,
        Err(e) => {
            failures.push(format!("{path}: {e}"));
            return;
        }
    };
    let Some(events) = doc.as_arr() else {
        failures.push(format!("{path}: top level is not an array"));
        return;
    };

    let mut slices: Vec<Slice> = Vec::new();
    let mut starts: Vec<FlowRecord> = Vec::new();
    let mut ends: Vec<FlowRecord> = Vec::new();
    for ev in events {
        let name = ev.get("name").and_then(Json::as_str).unwrap_or_default().to_string();
        let ts = ev.num("ts").unwrap_or(0.0);
        let tid = ev.num("tid").unwrap_or(0.0) as u64;
        match ev.get("ph").and_then(Json::as_str) {
            Some("X") => slices.push(Slice {
                name,
                ts,
                dur: ev.num("dur").unwrap_or(0.0),
                tid,
                req: ev.get("args").and_then(|a| a.num("req")).map(|r| r as u64),
            }),
            Some("s") => {
                starts.push(FlowRecord { id: ev.num("id").unwrap_or(0.0) as u64, ts, tid })
            }
            Some("f") => ends.push(FlowRecord { id: ev.num("id").unwrap_or(0.0) as u64, ts, tid }),
            _ => {}
        }
    }

    // Flow grammar: starts and ends pair up by id.
    let end_by_id: BTreeMap<u64, FlowRecord> = ends.iter().map(|e| (e.id, *e)).collect();
    let start_ids: BTreeMap<u64, ()> = starts.iter().map(|s| (s.id, ())).collect();
    for s in &starts {
        if !end_by_id.contains_key(&s.id) {
            failures.push(format!("flow start id {} has no flow end (unlinked rider?)", s.id));
        }
    }
    for e in &ends {
        if !start_ids.contains_key(&e.id) {
            failures.push(format!("flow end id {} has no flow start", e.id));
        }
    }

    // Stitch each request's queue-wait slice to the execution slice its
    // flow-end record lands in (same lane, timestamp inside the slice).
    let exec_slices: Vec<&Slice> = slices.iter().filter(|s| s.name.starts_with("job:")).collect();
    let mut requests: Vec<RequestPath> = Vec::new();
    for s in slices.iter().filter(|s| s.name.starts_with("queued:")) {
        let Some(req) = s.req else {
            failures.push(format!(
                "queue-wait slice '{}' at ts {} carries no request id",
                s.name, s.ts
            ));
            continue;
        };
        let Some(end) = end_by_id.get(&req) else {
            // Already reported through the flow grammar above.
            continue;
        };
        let exec = exec_slices
            .iter()
            .find(|e| e.tid == end.tid && end.ts >= e.ts && end.ts <= e.ts + e.dur);
        let Some(exec) = exec else {
            failures.push(format!(
                "request {req}: flow end at ts {} on lane {} lands in no execution slice",
                end.ts, end.tid
            ));
            continue;
        };
        requests.push(RequestPath {
            request: req,
            rider: s.name == "queued:rider",
            wait_us: s.dur,
            exec_us: exec.dur,
            exec_name: exec.name.clone(),
        });
    }
    requests.sort_by_key(|r| r.request);

    let riders = requests.iter().filter(|r| r.rider).count();
    let leads = requests.len() - riders;
    println!("## critical path ({} requests: {leads} leads, {riders} riders)", requests.len());
    let mean = |xs: Vec<f64>| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    println!(
        "mean queue wait {:.1} µs (leads), mean coalesce wait {:.1} µs (riders), \
         mean execute {:.1} µs",
        mean(requests.iter().filter(|r| !r.rider).map(|r| r.wait_us).collect()),
        mean(requests.iter().filter(|r| r.rider).map(|r| r.wait_us).collect()),
        mean(requests.iter().map(|r| r.exec_us).collect()),
    );
    let mut slowest = requests.clone();
    slowest.sort_by(|a, b| {
        (b.wait_us + b.exec_us).partial_cmp(&(a.wait_us + a.exec_us)).expect("finite")
    });
    println!("top {} slowest requests:", top_n.min(slowest.len()));
    println!(
        "{:>8} {:>7} {:>12} {:>12} {:>12}  exec span",
        "request", "kind", "wait µs", "exec µs", "total µs"
    );
    for r in slowest.iter().take(top_n) {
        println!(
            "{:>8} {:>7} {:>12.1} {:>12.1} {:>12.1}  {}",
            r.request,
            if r.rider { "rider" } else { "lead" },
            r.wait_us,
            r.exec_us,
            r.wait_us + r.exec_us,
            r.exec_name,
        );
    }
}

/// Parses the metrics JSONL stream: validates every record against the
/// pinned schema, checks attribution conservation on the final record and
/// prints the per-tenant cost table.
fn analyze_metrics(path: &str, failures: &mut Vec<String>) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            failures.push(format!("{path}: {e}"));
            return;
        }
    };
    let mut last: Option<Json> = None;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse(line) {
            Ok(rec) => {
                if rec.num("schema_version") != Some(SCHEMA.into()) {
                    failures.push(format!("{path}:{}: schema_version != {SCHEMA}", i + 1));
                }
                last = Some(rec);
            }
            Err(e) => failures.push(format!("{path}:{}: {e}", i + 1)),
        }
    }
    let Some(rec) = last else {
        failures.push(format!("{path}: no metrics records"));
        return;
    };

    // Attribution conservation: tenant hardware shares sum exactly to the
    // global totals, field by field.
    let hw_total = rec.get("hw_total").and_then(Json::as_obj);
    let tenants = rec.get("tenants").and_then(Json::as_obj);
    match (hw_total, tenants) {
        (Some(total), Some(tenants)) => {
            for (field, value) in total {
                let want = value.as_f64().unwrap_or(0.0);
                let got: f64 = tenants
                    .iter()
                    .filter_map(|(_, t)| t.get("hw").and_then(|h| h.num(field)))
                    .sum();
                if got != want {
                    failures.push(format!(
                        "attribution not conservative: sum of tenants' {field} = {got}, \
                         hw_total.{field} = {want}"
                    ));
                }
            }
        }
        _ => failures.push(format!("{path}: final record is missing hw_total/tenants")),
    }

    println!("\n## per-tenant cost table (final metrics record)");
    println!(
        "{:>10} {:>9} {:>9} {:>10} {:>10} {:>12}",
        "tenant", "requests", "rejected", "p50 µs", "p99 µs", "energy J"
    );
    if let Some(tenants) = tenants {
        for (name, t) in tenants {
            let lat = |key: &str| t.get("latency").and_then(|l| l.num(key)).unwrap_or(0.0) / 1e3;
            println!(
                "{:>10} {:>9} {:>9} {:>10.1} {:>10.1} {:>12.3e}",
                name,
                t.num("requests").unwrap_or(0.0),
                t.num("rejected").unwrap_or(0.0),
                lat("p50_ns"),
                lat("p99_ns"),
                t.get("modeled").and_then(|m| m.num("energy_j")).unwrap_or(0.0),
            );
        }
    }
    if let Some(slo) = rec.get("slo") {
        println!(
            "slo: {} latency alerts, {} rejection alerts, burn {:.3}/{:.3}",
            slo.num("latency_alerts").unwrap_or(0.0),
            slo.num("rejection_alerts").unwrap_or(0.0),
            slo.num("latency_burn").unwrap_or(0.0),
            slo.num("rejection_burn").unwrap_or(0.0),
        );
    }
    if let Some(j) = rec.get("journal") {
        println!(
            "journal: {}/{} events, {} overwritten (drop rate {:.3})",
            j.num("len").unwrap_or(0.0),
            j.num("capacity").unwrap_or(0.0),
            j.num("overwritten").unwrap_or(0.0),
            j.num("drop_rate").unwrap_or(0.0),
        );
    }
}
