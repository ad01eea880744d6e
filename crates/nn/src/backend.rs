//! GRAMC execution backend for LeNet-5 (the paper's Fig. 5 pipeline).
//!
//! "The trained weights of each layer are loaded to the RRAM array by
//! write-verify circuits. The convolutional computation results are
//! transferred to the digital functional module to execute the pooling and
//! activation operations."
//!
//! Execution is **layer-serial over the whole batch**: each layer's weight
//! matrix is written into the macro group (INT4 differential or INT8
//! bit-sliced planes), every image's activations stream through it via
//! batched analog MVM, pooling/ReLU run in the digital functional module,
//! and the macros are freed for the next layer. This is how a 16-macro
//! system executes a network whose INT8 mapping would not fit resident.
//! Biases are added digitally (the crossbar computes the pure product).

use std::sync::Arc;

use gramc_core::functional::argmax;
use gramc_core::tiling::{TileMapping, TiledOperator};
use gramc_core::{CoreError, MacroConfig, MacroGroup};
use gramc_linalg::Matrix;

use crate::layers::{im2col, im2col_rows_into};
use crate::lenet::LeNet5;
use crate::quant::Precision;
use crate::tensor::Tensor3;

/// Reusable buffers for the streaming LeNet pipeline: the per-layer drive
/// matrices and the one-image pooled feature map. Buffers are grow-only
/// ([`Matrix::reset_zeroed`]), so after the first call at a given batch
/// size the whole forward pass performs **zero per-image heap
/// allocation** — drive assembly, bias/ReLU/pooling fusion and im2col all
/// write into memory owned here. The drives are reference-counted so the
/// sharded backend can hand them to its tile jobs without copying them.
#[derive(Debug, Default)]
pub struct LenetScratch {
    /// conv1 drive: one 25-wide patch row per output position per image.
    d1: Arc<Matrix>,
    /// conv2 drive: one 150-wide patch row per output position per image.
    d2: Arc<Matrix>,
    /// fc1 drive: one flattened 256-wide activation row per image.
    fc_in: Arc<Matrix>,
    /// One image's pooled feature map (channel-major), reused per image.
    fmap: Vec<f64>,
}

/// LeNet-5 running on the analog macro group.
#[derive(Debug)]
pub struct GramcLenet {
    group: MacroGroup,
    model: LeNet5,
    precision: Precision,
    scratch: LenetScratch,
}

impl GramcLenet {
    /// Wraps a trained model for analog execution at the given precision.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] if `precision` is
    /// [`Precision::Float32`] (use the software model directly for the
    /// float baseline).
    pub fn new(
        model: LeNet5,
        precision: Precision,
        config: MacroConfig,
        n_macros: usize,
        seed: u64,
    ) -> Result<Self, CoreError> {
        if precision == Precision::Float32 {
            return Err(CoreError::InvalidArgument(
                "float32 is the software baseline; run LeNet5::evaluate instead",
            ));
        }
        Ok(Self {
            group: MacroGroup::new(n_macros, config, seed),
            model,
            precision,
            scratch: LenetScratch::default(),
        })
    }

    fn mapping(&self) -> TileMapping {
        match self.precision {
            Precision::Int4 => TileMapping::FourBit,
            Precision::Int8 => TileMapping::BitSlicedInt8,
            Precision::Float32 => unreachable!("rejected in constructor"),
        }
    }

    /// A point-in-time copy of the backend's accumulated hardware counters
    /// (every analog event of every inference since construction). Diff two
    /// snapshots with [`HwSnapshot::since`](gramc_core::HwSnapshot::since)
    /// to meter one workload.
    pub fn hw_snapshot(&self) -> gramc_core::HwSnapshot {
        self.group.hw_snapshot()
    }

    /// Computes logits for a batch of images through the **per-image**
    /// analog pipeline: one im2col batch and one analog drive per image.
    ///
    /// This is the reference path — [`logits_matrix`](Self::logits_matrix)
    /// streams the whole dataset per layer instead and is what
    /// [`predict_batch`](Self::predict_batch) uses. With noise-free
    /// conductance reads the two are bit-identical; with read noise they
    /// differ only in when the noise is drawn (per image here, per layer
    /// there).
    ///
    /// # Errors
    ///
    /// Capacity errors if the macro group cannot hold a layer; analog-path
    /// errors propagate.
    pub fn logits_batch(&mut self, images: &[Tensor3]) -> Result<Vec<Vec<f64>>, CoreError> {
        let mapping = self.mapping();
        let group = &mut self.group;
        lenet_forward(&self.model, images, |w, batches| {
            let mut tiled = TiledOperator::load(group, w, mapping)?;
            let result: Result<Vec<_>, CoreError> =
                batches.iter().map(|xs| tiled.mvm_batch(group, xs)).collect();
            tiled.free(group)?;
            result
        })
    }

    /// Streams a whole dataset through the analog pipeline: per layer, one
    /// weight load, **one** batched analog drive covering every image, one
    /// free. Drive matrices are assembled in reusable scratch buffers
    /// ([`LenetScratch`]) with im2col fused into the assembly, so
    /// steady-state execution performs zero per-image heap allocation.
    /// Row `i` of the result holds image `i`'s logits.
    ///
    /// With noise-free conductance reads this is bit-identical to
    /// [`logits_batch`](Self::logits_batch); with read noise enabled each
    /// layer's conductances are read once for the whole dataset instead of
    /// once per image (same distribution, different draws).
    ///
    /// # Errors
    ///
    /// See [`logits_batch`](Self::logits_batch).
    pub fn logits_matrix(&mut self, images: &[Tensor3]) -> Result<Matrix, CoreError> {
        let mapping = self.mapping();
        let group = &mut self.group;
        lenet_forward_stream(&self.model, images, &mut self.scratch, |w, drive| {
            let mut tiled = TiledOperator::load(group, w, mapping)?;
            let result = tiled.mvm_batch_rows(group, drive);
            tiled.free(group)?;
            result
        })
    }

    /// Predicted classes for a batch (streamed pipeline).
    ///
    /// # Errors
    ///
    /// See [`logits_matrix`](Self::logits_matrix).
    pub fn predict_batch(&mut self, images: &[Tensor3]) -> Result<Vec<usize>, CoreError> {
        let logits = self.logits_matrix(images)?;
        Ok((0..logits.rows()).map(|b| argmax(logits.row(b))).collect())
    }

    /// Classification accuracy of the analog pipeline on a labelled set.
    ///
    /// # Errors
    ///
    /// See [`logits_batch`](Self::logits_batch).
    ///
    /// # Panics
    ///
    /// Panics if `images.len() != labels.len()`.
    pub fn evaluate(&mut self, images: &[Tensor3], labels: &[usize]) -> Result<f64, CoreError> {
        assert_eq!(images.len(), labels.len(), "images/labels length mismatch");
        if images.is_empty() {
            return Ok(0.0);
        }
        let preds = self.predict_batch(images)?;
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        Ok(correct as f64 / images.len() as f64)
    }
}

/// The LeNet-5 forward pipeline shared by the single-group and sharded
/// backends: im2col, feature-map assembly, digital bias add, ReLU and
/// pooling, plus the fully-connected stack. `run_layer` is the only
/// analog-specific step: load the layer's weight matrix, run one batched
/// MVM per entry of `batches` (in order), free the tiles — even when an
/// MVM fails, so a long-lived runtime doesn't leak capacity — and return
/// the raw products.
pub(crate) fn lenet_forward<E>(
    model: &LeNet5,
    images: &[Tensor3],
    mut run_layer: impl FnMut(&Matrix, &[Vec<Vec<f64>>]) -> Result<Vec<Vec<Vec<f64>>>, E>,
) -> Result<Vec<Vec<f64>>, E> {
    if images.is_empty() {
        return Ok(Vec::new());
    }
    // conv1 over all images (one im2col batch per image, one weight load).
    let batches: Vec<Vec<Vec<f64>>> = images.iter().map(im2col_batch).collect();
    let conv1 = run_layer(&model.conv1.weights, &batches)?;
    let pooled1: Vec<Tensor3> =
        conv1.iter().map(|ys| relu_pool2(&assemble_fmap(ys, &model.conv1.bias, 6, 24))).collect();
    // conv2.
    let batches: Vec<Vec<Vec<f64>>> = pooled1.iter().map(im2col_batch).collect();
    let conv2 = run_layer(&model.conv2.weights, &batches)?;
    let pooled2: Vec<Vec<f64>> = conv2
        .iter()
        .map(|ys| relu_pool2(&assemble_fmap(ys, &model.conv2.bias, 16, 8)).into_vec())
        .collect();
    // Fully-connected stack: whole batch per layer, digital bias + ReLU.
    let mut fc = |w: &Matrix, bias: &[f64], xs: Vec<Vec<f64>>, relu: bool| {
        let mut ys = run_layer(w, std::slice::from_ref(&xs))?.pop().expect("one batch in, one out");
        for y in ys.iter_mut() {
            for (yi, b) in y.iter_mut().zip(bias) {
                *yi += b;
            }
            if relu {
                for yi in y.iter_mut() {
                    *yi = yi.max(0.0);
                }
            }
        }
        Ok(ys)
    };
    let a1 = fc(&model.fc1.weights, &model.fc1.bias, pooled2, true)?;
    let a2 = fc(&model.fc2.weights, &model.fc2.bias, a1, true)?;
    fc(&model.fc3.weights, &model.fc3.bias, a2, false)
}

/// A drive buffer resized (zeroed, grow-only) for writing. A buffer a job
/// still shares is replaced rather than waited for: a serving worker may
/// drop its reference a moment after the result it delivered was read.
fn drive_mut(buf: &mut Arc<Matrix>, rows: usize, cols: usize) -> &mut Matrix {
    if Arc::get_mut(buf).is_none() {
        *buf = Arc::default();
    }
    let drive = Arc::get_mut(buf).expect("unshared after the check above");
    drive.reset_zeroed(rows, cols);
    drive
}

/// The fused streaming LeNet-5 forward shared by both backends: per layer,
/// `run_layer` receives the weight matrix and **one** drive matrix covering
/// every image (row per analog input vector) and returns the raw products.
/// im2col is fused into drive assembly, bias/ReLU/2×2-max-pool run directly
/// on the product rows, and every intermediate lives in `scratch` — no
/// per-image allocation after the buffers reach steady-state size.
///
/// The digital steps replicate the per-image path's arithmetic exactly
/// (same fold orders, same `v + bias` before the max fold), so with
/// noise-free analog reads the streamed logits are bit-identical to
/// [`lenet_forward`]'s.
pub(crate) fn lenet_forward_stream<E>(
    model: &LeNet5,
    images: &[Tensor3],
    scratch: &mut LenetScratch,
    mut run_layer: impl FnMut(&Matrix, &Arc<Matrix>) -> Result<Matrix, E>,
) -> Result<Matrix, E> {
    let n = images.len();
    if n == 0 {
        return Ok(Matrix::zeros(0, model.fc3.weights.rows()));
    }
    // conv1: 28×28 inputs, 5×5 kernel → 24×24 = 576 positions per image.
    let d1 = drive_mut(&mut scratch.d1, n * 576, 25);
    for (i, img) in images.iter().enumerate() {
        im2col_rows_into(img.as_slice(), 1, 28, 28, 5, d1, i * 576);
    }
    let out1 = run_layer(&model.conv1.weights, &scratch.d1)?;
    // Fused bias + ReLU + pool from the product rows into a (6,12,12)
    // pooled map, then im2col into the conv2 drive (8×8 = 64 positions).
    let d2 = drive_mut(&mut scratch.d2, n * 64, 150);
    scratch.fmap.clear();
    scratch.fmap.resize(6 * 12 * 12, 0.0);
    for i in 0..n {
        pool_rows_into_fmap(&out1, i * 576, 24, &model.conv1.bias, &mut scratch.fmap);
        im2col_rows_into(&scratch.fmap, 6, 12, 12, 5, d2, i * 64);
    }
    let out2 = run_layer(&model.conv2.weights, &scratch.d2)?;
    // conv2 products pool to (16,4,4) = 256 features, one fc drive row per
    // image.
    let fc_in = drive_mut(&mut scratch.fc_in, n, 256);
    for i in 0..n {
        pool_rows_into_fmap(&out2, i * 64, 8, &model.conv2.bias, fc_in.row_mut(i));
    }
    let mut a1 = run_layer(&model.fc1.weights, &scratch.fc_in)?;
    bias_relu_rows(&mut a1, &model.fc1.bias, true);
    let mut a2 = run_layer(&model.fc2.weights, &Arc::new(a1))?;
    bias_relu_rows(&mut a2, &model.fc2.bias, true);
    let mut logits = run_layer(&model.fc3.weights, &Arc::new(a2))?;
    bias_relu_rows(&mut logits, &model.fc3.bias, false);
    Ok(logits)
}

/// Fused digital functional step for one image's conv products: rows
/// `row0..row0 + n·n` of `out` hold the `n×n` output map (position-major,
/// channel per column); adds the per-channel bias, 2×2 max-pools and
/// applies ReLU, writing the pooled `(channels, n/2, n/2)` map
/// channel-major into `dst`. The fold order matches
/// `assemble_fmap` + [`relu_pool2`] element-for-element so the results are
/// bit-identical.
fn pool_rows_into_fmap(out: &Matrix, row0: usize, n: usize, bias: &[f64], dst: &mut [f64]) {
    let half = n / 2;
    for (oc, &b) in bias.iter().enumerate() {
        for oy in 0..half {
            for ox in 0..half {
                let mut acc = f64::NEG_INFINITY;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let pos = (oy * 2 + dy) * n + ox * 2 + dx;
                        acc = acc.max(out[(row0 + pos, oc)] + b);
                    }
                }
                dst[(oc * half + oy) * half + ox] = acc.max(0.0);
            }
        }
    }
}

/// Digital bias add (and optional ReLU) over every row of a
/// fully-connected product matrix, matching the per-image path's
/// element order.
fn bias_relu_rows(m: &mut Matrix, bias: &[f64], relu: bool) {
    for b in 0..m.rows() {
        let row = m.row_mut(b);
        for (v, bi) in row.iter_mut().zip(bias) {
            *v += bi;
        }
        if relu {
            for v in row.iter_mut() {
                *v = v.max(0.0);
            }
        }
    }
}

/// One im2col batch (5×5 windows): one input vector per output position.
fn im2col_batch(t: &Tensor3) -> Vec<Vec<f64>> {
    let cols = im2col(t, 5);
    (0..cols.cols()).map(|j| cols.col(j)).collect()
}

/// Assembles an `[channels, n, n]` feature map from per-position MVM
/// outputs, adding the per-channel bias digitally.
fn assemble_fmap(ys: &[Vec<f64>], bias: &[f64], channels: usize, n: usize) -> Tensor3 {
    let mut fmap = Tensor3::zeros(channels, n, n);
    for (pos, y) in ys.iter().enumerate() {
        for (oc, v) in y.iter().enumerate() {
            fmap.as_mut_slice()[oc * n * n + pos] = v + bias[oc];
        }
    }
    fmap
}

/// ReLU + 2×2 max pool in the digital functional module (shared with the
/// sharded runtime backend).
pub(crate) fn relu_pool2(t: &Tensor3) -> Tensor3 {
    let (c, h, w) = t.shape();
    let mut out = Tensor3::zeros(c, h / 2, w / 2);
    for ci in 0..c {
        let pooled = gramc_core::functional::pool2d(
            t.channel(ci),
            h,
            w,
            2,
            gramc_core::functional::Pooling::Max,
        );
        for (v, o) in pooled.iter().zip(out.channel_mut(ci).iter_mut()) {
            *o = v.max(0.0);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::trained_model;
    use gramc_core::NonidealityConfig;

    #[test]
    fn analog_backend_matches_software_on_easy_task() {
        let (mut net, images, labels) = trained_model();
        let sw = net.evaluate(&images, &labels);
        assert_eq!(sw, 1.0, "software model must master the toy task");
        let mut backend = GramcLenet::new(
            net,
            Precision::Int4,
            MacroConfig { nonideal: NonidealityConfig::paper_default(), ..MacroConfig::default() },
            16,
            122,
        )
        .unwrap();
        let hw = backend.evaluate(&images, &labels).unwrap();
        assert!(hw >= 0.9, "analog accuracy {hw}");
    }

    #[test]
    fn int8_backend_runs_and_is_accurate() {
        let (net, images, labels) = trained_model();
        let mut backend =
            GramcLenet::new(net, Precision::Int8, MacroConfig::default(), 16, 123).unwrap();
        let hw = backend.evaluate(&images[..8], &labels[..8]).unwrap();
        assert!(hw >= 0.9, "INT8 analog accuracy {hw}");
    }

    #[test]
    fn float32_backend_is_rejected() {
        let (net, _, _) = trained_model();
        assert!(GramcLenet::new(net, Precision::Float32, MacroConfig::default(), 16, 0).is_err());
    }

    /// With noise-free (quantization-only) analog reads, the streamed
    /// whole-dataset pipeline must reproduce the per-image pipeline bit
    /// for bit — the fused bias/ReLU/pool and batched drives change only
    /// where work happens, never the arithmetic.
    #[test]
    fn streamed_logits_are_bit_identical_to_per_image_path() {
        let (net, images, _) = trained_model();
        let quiet = MacroConfig {
            nonideal: NonidealityConfig::quantization_only(4),
            ..MacroConfig::default()
        };
        for precision in [Precision::Int4, Precision::Int8] {
            let mut backend =
                GramcLenet::new(net.clone(), precision, quiet.clone(), 16, 122).unwrap();
            let sample = &images[..5];
            let per_image = backend.logits_batch(sample).unwrap();
            let streamed = backend.logits_matrix(sample).unwrap();
            assert_eq!(streamed.shape(), (5, 10));
            for (b, y) in per_image.iter().enumerate() {
                for (j, v) in y.iter().enumerate() {
                    assert_eq!(
                        v.to_bits(),
                        streamed[(b, j)].to_bits(),
                        "{precision:?} image {b} logit {j}: {v} vs {}",
                        streamed[(b, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn streamed_empty_batch_yields_empty_logits() {
        let (net, _, _) = trained_model();
        let mut backend =
            GramcLenet::new(net, Precision::Int4, MacroConfig::default(), 16, 122).unwrap();
        let logits = backend.logits_matrix(&[]).unwrap();
        assert_eq!(logits.shape(), (0, 10));
    }
}
