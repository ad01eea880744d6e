//! `serve_closed` and `serve_idle`: single MVM requests against a
//! persistent [`RuntimeServer`].
//!
//! Deployment: 2 shards × 4 macros of `MacroConfig::small_ideal(64)`, four
//! seeded 64×64 `FourBit` operators, 16 seeded input vectors. Request `r`
//! targets operator `r mod 4`, so consecutive requests cycle over the
//! operators. The ideal macro is noise-free, so every served output must
//! equal, bit for bit, the output the check pass recorded in set-up for
//! the same (operator, input) pair.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use gramc_core::tiling::TileMapping;
use gramc_core::MacroConfig;
use gramc_runtime::{HwSnapshot, JobHandle, OperatorHandle, Placement, Runtime, RuntimeServer};

use crate::host::Ticks;
use crate::inputs::{self, ServeInputs, SERVE_INPUTS, SERVE_OPS};
use crate::pacer::Pacer;
use crate::stats::{Samples, Timeline};
use crate::trace::Tracer;

pub const SHARDS: usize = 2;
pub const MACROS_PER_SHARD: usize = 4;
/// Client threads of `serve_closed`.
pub const CLIENTS: u64 = 2;
/// Offered rate of `serve_idle`, requests per second.
pub const IDLE_RATE: u32 = 1000;
const PAIRS: u64 = (SERVE_OPS * SERVE_INPUTS) as u64;

pub fn config() -> MacroConfig {
    MacroConfig::small_ideal(inputs::SERVE_N)
}

/// Work done by a fixed, deterministic pass: the hardware events it caused
/// and how far its outputs are from the float64 reference. Counts and
/// energy are read from this pass, not the timed loop, so they repeat
/// exactly however many operations a run completes.
#[derive(Debug, Clone)]
pub struct CheckPass {
    pub ops: u64,
    pub hw: HwSnapshot,
    pub rel_error: f64,
}

/// `‖analog − reference‖ / ‖reference‖` over a set of output vectors.
pub fn rel_error<'a>(pairs: impl IntoIterator<Item = (&'a [f64], &'a [f64])>) -> f64 {
    let (mut err, mut norm) = (0.0, 0.0);
    for (got, want) in pairs {
        for (g, w) in got.iter().zip(want) {
            err += (g - w) * (g - w);
            norm += w * w;
        }
    }
    (err / norm).sqrt()
}

/// The served deployment plus every expected output.
#[derive(Debug)]
pub struct Deployment {
    pub rt: Arc<Runtime>,
    server: RuntimeServer,
    ops: Vec<OperatorHandle>,
    inputs: ServeInputs,
    /// Served output of pair `p` (operator `p mod 4`, input `p div 4`).
    expected: Vec<Vec<f64>>,
    pub check: CheckPass,
}

impl Deployment {
    /// Builds the runtime, starts its server, programs the operators and
    /// records the expected output of every (operator, input) pair.
    ///
    /// # Errors
    ///
    /// Any runtime error while loading or serving the check pass.
    pub fn start(seed: u64) -> Result<Self, String> {
        let inputs = inputs::serve(seed);
        let rt = Arc::new(Runtime::new(SHARDS, MACROS_PER_SHARD, config(), inputs::CHIP_SEED));
        let server = RuntimeServer::start(rt.clone());
        let mut ops = Vec::with_capacity(SERVE_OPS);
        for a in &inputs.matrices {
            let (op, loaded) = rt
                .submit_load(a, TileMapping::FourBit, Placement::LeastLoaded)
                .map_err(|e| format!("load: {e}"))?;
            loaded.wait().map_err(|e| format!("load: {e}"))?;
            ops.push(op);
        }
        let hw_before = rt.hw_snapshot();
        let mut expected = Vec::with_capacity(PAIRS as usize);
        for p in 0..PAIRS {
            let (op, x) = (
                ops[(p % SERVE_OPS as u64) as usize],
                &inputs.vectors[(p / SERVE_OPS as u64) as usize],
            );
            let y = rt
                .submit_mvm(op, x.clone())
                .and_then(|h| h.wait_vector())
                .map_err(|e| format!("check pass: {e}"))?;
            expected.push(y);
        }
        let hw = rt.hw_snapshot().since(&hw_before);
        let reference: Vec<Vec<f64>> = (0..PAIRS)
            .map(|p| {
                inputs.matrices[(p % SERVE_OPS as u64) as usize]
                    .matvec(&inputs.vectors[(p / SERVE_OPS as u64) as usize])
            })
            .collect();
        let rel_error =
            rel_error(expected.iter().map(Vec::as_slice).zip(reference.iter().map(Vec::as_slice)));
        let check = CheckPass { ops: PAIRS, hw, rel_error };
        Ok(Self { rt, server, ops, inputs, expected, check })
    }

    /// Operator, input and expected output of request `r`.
    pub fn request(&self, r: u64) -> (OperatorHandle, &[f64], &[f64]) {
        let p = r % PAIRS;
        let op = self.ops[(p % SERVE_OPS as u64) as usize];
        let x = &self.inputs.vectors[(p / SERVE_OPS as u64) as usize];
        (op, x, &self.expected[p as usize])
    }

    /// The operators and inputs, for replaying the reference request on
    /// another runtime.
    pub fn inputs(&self) -> &ServeInputs {
        &self.inputs
    }

    /// Stops the server and joins its workers.
    ///
    /// # Errors
    ///
    /// If a worker died to a panicking job.
    pub fn shutdown(self) -> Result<(), String> {
        let report = self.server.shutdown();
        if report.panicked_workers == 0 {
            Ok(())
        } else {
            Err(format!("{} serving workers panicked", report.panicked_workers))
        }
    }
}

/// What a load loop measured.
#[derive(Debug)]
pub struct LoopStats {
    /// Every request that returned the expected output.
    pub done: Timeline,
    pub attempted: u64,
    /// Rejected, errored or wrong-output requests.
    pub failed: u64,
    pub elapsed: Duration,
    /// Open loop only: how late the pacer released each request.
    pub late: Samples,
}

/// Closed loop: [`CLIENTS`] threads each run `submit_mvm → wait` back to
/// back from `start` for `window`. Latency is measured from the call.
pub fn closed_loop(
    dep: &Deployment,
    start: Instant,
    window: Duration,
    tracer: Option<&Tracer>,
) -> LoopStats {
    let deadline = start + window;
    // Room for ~200k requests per second per client, so recording never
    // reallocates inside the timed loop.
    let capacity = (window.as_secs_f64() * 200_000.0) as usize;
    let mut total = LoopStats {
        done: Timeline::new(start, 0),
        attempted: 0,
        failed: 0,
        elapsed: Duration::ZERO,
        late: Samples::default(),
    };
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut done = Timeline::new(start, capacity);
                    let (mut attempted, mut failed) = (0, 0);
                    let mut log = tracer.map(|t| t.log(3 * capacity));
                    for k in 0.. {
                        let r = k * CLIENTS + c;
                        let (op, x, want) = dep.request(r);
                        let x = x.to_vec();
                        let t0 = Instant::now();
                        if t0 >= deadline {
                            break;
                        }
                        attempted += 1;
                        let Ok(handle) = dep.rt.submit_mvm(op, x) else {
                            failed += 1;
                            continue;
                        };
                        let t1 = log.is_some().then(Instant::now);
                        let got = handle.wait_vector();
                        let t2 = Instant::now();
                        if matches!(&got, Ok(y) if y.as_slice() == want) {
                            done.push(t2, t2 - t0, 1, Ticks::default());
                        } else {
                            failed += 1;
                        }
                        if let (Some(log), Some(t1)) = (log.as_mut(), t1) {
                            let req = handle.request_id().0;
                            let id = log.open("serve.request", 0, req, t0);
                            log.record("runtime.submit_mvm", id, req, t0, t1);
                            log.record("runtime.wait", id, req, t1, t2);
                            log.close(id, t2);
                        }
                    }
                    if let (Some(t), Some(log)) = (tracer, log) {
                        t.absorb(log);
                    }
                    (done, attempted, failed, Instant::now())
                })
            })
            .collect();
        let mut end = start;
        for c in clients {
            let (done, attempted, failed, finished) = c.join().expect("client thread panicked");
            end = end.max(finished);
            total.done.append(done);
            total.attempted += attempted;
            total.failed += failed;
        }
        total.elapsed = end - start;
    });
    total
}

/// Open loop: one pacer releases `rate` requests per second on a fixed
/// schedule from `start`, sleeping to each due time, and one waiter thread
/// collects the results. Latency is measured from each request's due time,
/// so a stalled pacer charges the stall to the requests it delayed.
pub fn open_loop(
    dep: &Deployment,
    rate: u32,
    start: Instant,
    window: Duration,
    tracer: Option<&Tracer>,
) -> LoopStats {
    let expected = (window.as_secs_f64() * f64::from(rate)) as usize + 1;
    let deadline = start + window;
    let mut stats = LoopStats {
        done: Timeline::new(start, 0),
        attempted: 0,
        failed: 0,
        elapsed: Duration::ZERO,
        late: Samples::with_capacity(expected),
    };
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(u64, Instant, Instant, JobHandle)>();
        let waiter = s.spawn(move || {
            let mut done = Timeline::new(start, expected);
            let mut failed = 0u64;
            let mut log = tracer.map(|t| t.log(2 * expected));
            for (r, due, submitted, handle) in rx {
                let got = handle.wait_vector();
                let end = Instant::now();
                let (_, _, want) = dep.request(r);
                if matches!(&got, Ok(y) if y.as_slice() == want) {
                    done.push(end, end - due, 1, Ticks::default());
                } else {
                    failed += 1;
                }
                if let Some(log) = log.as_mut() {
                    let req = handle.request_id().0;
                    let id = log.open("serve.request", 0, req, due);
                    log.record("runtime.wait", id, req, submitted, end);
                    log.close(id, end);
                }
            }
            if let (Some(t), Some(log)) = (tracer, log) {
                t.absorb(log);
            }
            (done, failed, Instant::now())
        });
        let mut pacer = Pacer::new(start, rate);
        let mut log = tracer.map(|t| t.log(expected));
        let mut next_x = dep.request(0).1.to_vec();
        while let Some(rel) = pacer.next_release(deadline) {
            let r = u64::from(rel.index);
            let (op, _, _) = dep.request(r);
            stats.attempted += 1;
            stats.late.push(rel.late);
            let t0 = Instant::now();
            let submitted = dep.rt.submit_mvm(op, std::mem::take(&mut next_x));
            let t1 = Instant::now();
            match submitted {
                Ok(h) => {
                    if let Some(log) = log.as_mut() {
                        log.record("runtime.submit_mvm", 0, h.request_id().0, t0, t1);
                    }
                    tx.send((r, rel.due, t1, h)).expect("waiter thread alive");
                }
                Err(_) => stats.failed += 1,
            }
            next_x = dep.request(r + 1).1.to_vec();
        }
        drop(tx);
        if let (Some(t), Some(log)) = (tracer, log) {
            t.absorb(log);
        }
        let (done, failed, end) = waiter.join().expect("waiter thread panicked");
        stats.done = done;
        stats.failed += failed;
        stats.elapsed = end - start;
    });
    stats
}
