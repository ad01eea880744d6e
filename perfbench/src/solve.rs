//! `program_solve`: writes beside reads.
//!
//! Cycle `k` programs a fresh diagonally dominant 32×32 operator
//! with pulse-level write-verify (`ProgrammingMode::Pulse`, paper
//! non-idealities), runs [`READ_ROUNDS`] × (`solve_inv_batch` on 16
//! right-hand sides + `mvm_batch` on 16 vectors), then frees it. Read noise
//! makes outputs differ from pass to pass, so each output is checked
//! against its float64 reference within [`TOL`].

use std::time::{Duration, Instant};

use gramc_core::tiling::TileMapping;
use gramc_core::{MacroConfig, NonidealityConfig};
use gramc_linalg::lu::LuDecomposition;
use gramc_linalg::Matrix;
use gramc_runtime::{JobHandle, JobOutput, OperatorHandle, Placement, Runtime, RuntimeError};

use crate::host::Ticks;
use crate::inputs::{self, SolveInputs, SOLVE_N};
use crate::serve::{rel_error, CheckPass};
use crate::stats::Timeline;
use crate::trace::{SpanLog, Tracer};

/// Solve + MVM rounds per cycle, chosen so that in the traced run the
/// write-verify load and the reads each take at least a quarter of the
/// cycle.
pub const READ_ROUNDS: usize = 16;
/// Cycles in the check pass that `rel_error` and the hardware counts come
/// from: several operators, so they do not hang on one.
const CHECK_CYCLES: u64 = 3;
/// Largest accepted relative error of one output. 4-bit weights leave
/// single outputs up to about 0.3 off; a wrong result is off by order 1.
pub const TOL: f64 = 0.5;

pub fn config() -> MacroConfig {
    MacroConfig {
        nonideal: NonidealityConfig::paper_default().with_pulse_programming(),
        ..MacroConfig::small(SOLVE_N)
    }
}

/// The operator of one cycle and its float64 references, made before the
/// cycle is timed.
#[derive(Debug)]
pub struct Cycle {
    k: u64,
    a: Matrix,
    /// `A⁻¹·b` for every right-hand side.
    solutions: Vec<Vec<f64>>,
    /// `A·x` for every vector.
    products: Vec<Vec<f64>>,
}

impl Cycle {
    fn new(k: u64, inputs: &SolveInputs) -> Result<Self, String> {
        let a = inputs::solve_matrix(k);
        let lu = LuDecomposition::new(&a).map_err(|e| format!("reference LU: {e}"))?;
        let solutions = inputs
            .rhs
            .iter()
            .map(|b| lu.solve(b))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("reference solve: {e}"))?;
        let products = inputs.vectors.iter().map(|x| a.matvec(x)).collect();
        Ok(Self { k, a, solutions, products })
    }

    /// (analog, reference) output pairs.
    fn pairs<'a>(&'a self, out: &'a CycleOut) -> impl Iterator<Item = (&'a [f64], &'a [f64])> {
        let solves = out.solves.iter().flat_map(move |round| {
            round.iter().map(Vec::as_slice).zip(self.solutions.iter().map(Vec::as_slice))
        });
        let products = out.products.iter().flat_map(move |round| {
            round.iter().map(Vec::as_slice).zip(self.products.iter().map(Vec::as_slice))
        });
        solves.chain(products)
    }

    /// Largest relative error of one output, and whether every output is
    /// present and within its tolerance.
    fn check(&self, out: &CycleOut) -> (f64, bool) {
        let complete = out.solves.iter().all(|r| r.len() == self.solutions.len())
            && out.products.iter().all(|r| r.len() == self.products.len());
        let err = |round: &[Vec<f64>], want: &[Vec<f64>]| {
            round
                .iter()
                .zip(want)
                .map(|(g, w)| rel_error([(g.as_slice(), w.as_slice())]))
                .fold(0.0, f64::max)
        };
        let worst = out
            .solves
            .iter()
            .map(|r| err(r, &self.solutions))
            .chain(out.products.iter().map(|r| err(r, &self.products)))
            .fold(0.0, f64::max);
        (worst, complete && worst <= TOL)
    }
}

/// Outputs of one cycle.
#[derive(Debug)]
struct CycleOut {
    solves: Vec<Vec<Vec<f64>>>,
    products: Vec<Vec<Vec<f64>>>,
}

#[derive(Debug)]
pub struct Setup {
    rt: Runtime,
    inputs: SolveInputs,
    pub check: CheckPass,
}

impl Setup {
    /// Builds the runtime (one shard of two macros: one differential 32×32
    /// operator at a time) and runs cycles 0 to [`CHECK_CYCLES`]. Cycle 0
    /// programs pristine cells; the cycles after it, which reprogram them
    /// as every later cycle does, are the check pass.
    ///
    /// # Errors
    ///
    /// Runtime or reference errors, or check outputs outside tolerance.
    pub fn new(seed: u64) -> Result<Self, String> {
        let inputs = inputs::solve(seed);
        let rt = Runtime::new(1, 2, config(), inputs::CHIP_SEED);
        let mut setup = Self {
            rt,
            inputs,
            check: CheckPass { ops: CHECK_CYCLES, hw: Default::default(), rel_error: 0.0 },
        };
        let warm = Cycle::new(0, &setup.inputs)?;
        setup.run_cycle(&warm, None).map_err(|e| format!("cycle 0: {e}"))?;
        let hw_before = setup.rt.hw_snapshot();
        let mut checked = Vec::new();
        for k in 1..=CHECK_CYCLES {
            let cycle = Cycle::new(k, &setup.inputs)?;
            let out = setup.run_cycle(&cycle, None).map_err(|e| format!("check cycle: {e}"))?;
            let (max_err, ok) = cycle.check(&out);
            if !ok {
                return Err(format!("check cycle {k} outside tolerance: relative error {max_err}"));
            }
            checked.push((cycle, out));
        }
        setup.check.hw = setup.rt.hw_snapshot().since(&hw_before);
        setup.check.rel_error = rel_error(checked.iter().flat_map(|(c, out)| c.pairs(out)));
        Ok(setup)
    }

    /// Load, [`READ_ROUNDS`] × (solve + MVM), free. Untraced it calls the
    /// runtime's synchronous API; traced, it makes the same submit →
    /// `run_all` → wait steps those calls make, with a span around each.
    fn run_cycle(
        &self,
        c: &Cycle,
        mut log: Option<&mut SpanLog>,
    ) -> Result<CycleOut, RuntimeError> {
        let rt = &self.rt;
        let k = c.k;
        let cycle = log.as_deref_mut().map(|l| l.open("solve.cycle", 0, k, Instant::now()));
        let op = match (log.as_deref_mut(), cycle) {
            (Some(l), Some(id)) => {
                let out = traced_sync(rt, l, "runtime.load", id, k, || {
                    rt.submit_load(&c.a, TileMapping::FourBit, Placement::LeastLoaded)
                        .map(|(_, job)| job)
                })?;
                match out {
                    JobOutput::Loaded(h) => h,
                    _ => return Err(RuntimeError::WrongOutput),
                }
            }
            _ => rt.load(&c.a, TileMapping::FourBit, Placement::LeastLoaded)?,
        };
        let reads = log
            .as_deref_mut()
            .zip(cycle)
            .map(|(l, id)| l.open("solve.reads", id, k, Instant::now()));
        let mut out = CycleOut { solves: Vec::new(), products: Vec::new() };
        for _ in 0..READ_ROUNDS {
            out.solves.push(self.read(op, k, log.as_deref_mut().zip(reads), true)?);
            out.products.push(self.read(op, k, log.as_deref_mut().zip(reads), false)?);
        }
        match (log, cycle, reads) {
            (Some(l), Some(id), Some(r)) => {
                l.close(r, Instant::now());
                traced_sync(rt, l, "runtime.free", id, k, || rt.submit_free(op))?;
                l.close(id, Instant::now());
            }
            _ => rt.free(op)?,
        }
        Ok(out)
    }

    fn read(
        &self,
        op: OperatorHandle,
        k: u64,
        traced: Option<(&mut SpanLog, u64)>,
        solve: bool,
    ) -> Result<Vec<Vec<f64>>, RuntimeError> {
        let rt = &self.rt;
        let Some((log, parent)) = traced else {
            return if solve {
                rt.solve_inv_batch(op, &self.inputs.rhs)
            } else {
                rt.mvm_batch(op, &self.inputs.vectors)
            };
        };
        let out = if solve {
            traced_sync(rt, log, "runtime.solve_inv_batch", parent, k, || {
                rt.submit_solve_inv_batch(op, self.inputs.rhs.clone())
            })
        } else {
            traced_sync(rt, log, "runtime.mvm_batch", parent, k, || {
                rt.submit_mvm_batch(op, self.inputs.vectors.clone())
            })
        };
        match out? {
            JobOutput::Vectors(v) => Ok(v),
            _ => Err(RuntimeError::WrongOutput),
        }
    }
}

/// A synchronous runtime call made step by step: submit, drain with
/// `run_all`, wait, each step in its own span under `name`.
fn traced_sync(
    rt: &Runtime,
    log: &mut SpanLog,
    name: &'static str,
    parent: u64,
    req: u64,
    submit: impl FnOnce() -> Result<JobHandle, RuntimeError>,
) -> Result<JobOutput, RuntimeError> {
    let t0 = Instant::now();
    let id = log.open(name, parent, req, t0);
    let handle = submit()?;
    let t1 = Instant::now();
    log.record("runtime.submit", id, req, t0, t1);
    rt.run_all();
    let t2 = Instant::now();
    log.record("runtime.run_all", id, req, t1, t2);
    let out = handle.wait();
    let t3 = Instant::now();
    log.record("runtime.wait", id, req, t2, t3);
    log.close(id, t3);
    out
}

/// What the timed cycles measured.
#[derive(Debug)]
pub struct CycleStats {
    /// Every cycle whose outputs all passed their check.
    pub done: Timeline,
    pub attempted: u64,
    pub failed: u64,
    /// Largest relative error of any single output.
    pub max_rel_error: f64,
}

/// Runs the cycles after the check pass from `start` until `window` has
/// passed.
///
/// # Errors
///
/// A reference that cannot be computed.
pub fn run(
    setup: &Setup,
    start: Instant,
    window: Duration,
    tracer: Option<&Tracer>,
) -> Result<CycleStats, String> {
    let deadline = start + window;
    let mut st = CycleStats {
        done: Timeline::new(start, (window.as_secs_f64() * 100.0) as usize + 1),
        attempted: 0,
        failed: 0,
        max_rel_error: 0.0,
    };
    let spans_per_cycle = 4 * (2 * READ_ROUNDS + 2) + 2;
    let mut log =
        tracer.map(|t| t.log((window.as_secs_f64() * 100.0) as usize * spans_per_cycle + 64));
    for k in CHECK_CYCLES + 1.. {
        let cycle = Cycle::new(k, &setup.inputs)?;
        let before = Ticks::now();
        let t0 = Instant::now();
        if t0 >= deadline {
            break;
        }
        let out = setup.run_cycle(&cycle, log.as_mut());
        let t1 = Instant::now();
        let ticks = Ticks::now().since(before);
        st.attempted += 1;
        match out.map(|o| cycle.check(&o)) {
            Ok((err, true)) => {
                st.done.push(t1, t1 - t0, 1, ticks);
                st.max_rel_error = st.max_rel_error.max(err);
            }
            _ => st.failed += 1,
        }
    }
    if let (Some(t), Some(log)) = (tracer, log) {
        t.absorb(log);
    }
    Ok(st)
}
