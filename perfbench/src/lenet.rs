//! `lenet_batch`: analog LeNet-5 inference, 64 images per
//! `RuntimeLenet::logits_matrix` call.
//!
//! Settings: INT4, `MacroConfig::default()` (the paper's non-idealities,
//! 128×128 arrays), 2 shards × 8 macros, one caller. Read noise makes each
//! pass draw fresh samples, but a backend built from the same chip seed
//! replays the same sequence exactly. So the timed loop runs epochs of the four
//! seeded batches, each on a freshly built backend, and every logit row
//! must equal, bit for bit, its value in the first epoch (run in set-up).

use std::time::{Duration, Instant};

use gramc_core::MacroConfig;
use gramc_linalg::Matrix;
use gramc_nn::{Precision, RuntimeLenet};

use crate::host::Ticks;
use crate::inputs::{self, LenetInputs, LENET_BATCH};
use crate::serve::{rel_error, CheckPass};
use crate::stats::Timeline;
use crate::trace::Tracer;

pub const SHARDS: usize = 2;
pub const MACROS_PER_SHARD: usize = 8;

#[derive(Debug)]
pub struct Setup {
    inputs: LenetInputs,
    /// Logits of every batch in the first epoch.
    first: Vec<Matrix>,
    pub check: CheckPass,
}

/// A backend in its initial state: every one replays the same noise
/// sequence.
fn backend(inputs: &LenetInputs) -> Result<RuntimeLenet, String> {
    RuntimeLenet::new(
        inputs.model.clone(),
        Precision::Int4,
        MacroConfig::default(),
        SHARDS,
        MACROS_PER_SHARD,
        inputs::CHIP_SEED,
    )
    .map_err(|e| format!("lenet backend: {e}"))
}

impl Setup {
    /// Generates the model and digits and runs the first epoch, recording
    /// its logits, its hardware events and its error against the float64
    /// `LeNet5::forward`.
    ///
    /// # Errors
    ///
    /// Runtime errors from the first epoch.
    pub fn new(seed: u64) -> Result<Self, String> {
        let inputs = inputs::lenet(seed);
        let mut net = backend(&inputs)?;
        let hw_before = net.runtime().hw_snapshot();
        let mut first = Vec::with_capacity(inputs.batches.len());
        for batch in &inputs.batches {
            first.push(net.logits_matrix(batch).map_err(|e| format!("first epoch: {e}"))?);
        }
        let hw = net.runtime().hw_snapshot().since(&hw_before);
        let mut model = inputs.model.clone();
        let reference: Vec<Vec<f64>> =
            inputs.batches.iter().flatten().map(|img| model.forward(img)).collect();
        let analog: Vec<&[f64]> =
            first.iter().flat_map(|m| (0..m.rows()).map(move |r| m.row(r))).collect();
        let rel_error = rel_error(analog.into_iter().zip(reference.iter().map(Vec::as_slice)));
        let ops = (inputs.batches.len() * LENET_BATCH) as u64;
        Ok(Self { inputs, first, check: CheckPass { ops, hw, rel_error } })
    }
}

/// What the timed loop measured.
#[derive(Debug)]
pub struct BatchStats {
    /// Every batch whose logits all matched, carrying its 64 images.
    pub done: Timeline,
    /// Images attempted and failed (rows whose logits differ from the first
    /// epoch, or every row of a batch that errored).
    pub attempted: u64,
    pub failed: u64,
}

/// Runs epochs of the seeded batches from `start` until `window` has
/// passed. Backend rebuilds between epochs are outside the timed calls.
///
/// # Errors
///
/// A backend that cannot be built.
pub fn run(
    setup: &Setup,
    start: Instant,
    window: Duration,
    tracer: Option<&Tracer>,
) -> Result<BatchStats, String> {
    let deadline = start + window;
    let n_batches = setup.inputs.batches.len();
    let mut st = BatchStats {
        done: Timeline::new(start, (window.as_secs_f64() * 100.0) as usize + 1),
        attempted: 0,
        failed: 0,
    };
    let mut log = tracer.map(|t| t.log((window.as_secs_f64() * 200.0) as usize + 16));
    let mut net: Option<RuntimeLenet> = None;
    let mut b = 0usize;
    while Instant::now() < deadline {
        let ix = b % n_batches;
        if ix == 0 {
            let t0 = Instant::now();
            net = Some(backend(&setup.inputs)?);
            if let Some(log) = log.as_mut() {
                log.record("nn.backend_new", 0, b as u64, t0, Instant::now());
            }
        }
        let net = net.as_mut().expect("backend built at epoch start");
        let batch = &setup.inputs.batches[ix];
        let before = Ticks::now();
        let t0 = Instant::now();
        let got = net.logits_matrix(batch);
        let t1 = Instant::now();
        let ticks = Ticks::now().since(before);
        if let Some(log) = log.as_mut() {
            log.record("nn.logits_matrix", 0, b as u64, t0, t1);
        }
        st.attempted += batch.len() as u64;
        let want = &setup.first[ix];
        let wrong = match &got {
            Ok(m) if m.shape() == want.shape() => {
                (0..m.rows()).filter(|&r| m.row(r) != want.row(r)).count() as u64
            }
            _ => batch.len() as u64,
        };
        st.failed += wrong;
        if wrong == 0 {
            st.done.push(t1, t1 - t0, LENET_BATCH as u32, ticks);
        }
        b += 1;
    }
    if let (Some(t), Some(log)) = (tracer, log) {
        t.absorb(log);
    }
    Ok(st)
}
