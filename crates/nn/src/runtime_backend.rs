//! LeNet-5 on the sharded runtime: the multi-group scaling path of the
//! analog backend.
//!
//! [`GramcLenet`](crate::GramcLenet) streams inference through **one**
//! macro group; this backend drives a [`Runtime`] instead, so each layer's
//! weight tiles spread round-robin across the shards
//! ([`ShardedTiledOperator`]) and every tile's partial product runs on its
//! own analog plane, with the work-stealing scheduler keeping the shards
//! busy. The digital functional steps (bias add, pooling, activation,
//! im2col) are the single-group backend's own code
//! ([`lenet_forward`](crate::backend) is shared; only the per-layer analog
//! driver differs).
//!
//! With one shard and the same seed the job tickets replay the exact
//! single-group operation order, so `RuntimeLenet` is bit-identical to
//! [`GramcLenet`](crate::GramcLenet) — that equivalence is tested below.

use gramc_core::functional::argmax;
use gramc_core::tiling::TileMapping;
use gramc_core::{CoreError, MacroConfig};
use gramc_linalg::Matrix;
use gramc_runtime::{Runtime, RuntimeError, ShardedTiledOperator};

use crate::backend::{lenet_forward, lenet_forward_stream, LenetScratch};
use crate::lenet::LeNet5;
use crate::quant::Precision;
use crate::tensor::Tensor3;

/// LeNet-5 running on the sharded analog runtime.
#[derive(Debug)]
pub struct RuntimeLenet {
    rt: Runtime,
    model: LeNet5,
    precision: Precision,
    scratch: LenetScratch,
}

impl RuntimeLenet {
    /// Wraps a trained model for sharded analog execution: `shards` macro
    /// groups of `macros_per_shard` macros each.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Core`] with an invalid-argument error if
    /// `precision` is [`Precision::Float32`] (use the software model
    /// directly for the float baseline).
    pub fn new(
        model: LeNet5,
        precision: Precision,
        config: MacroConfig,
        shards: usize,
        macros_per_shard: usize,
        seed: u64,
    ) -> Result<Self, RuntimeError> {
        if precision == Precision::Float32 {
            return Err(CoreError::InvalidArgument(
                "float32 is the software baseline; run LeNet5::evaluate instead",
            )
            .into());
        }
        Ok(Self {
            rt: Runtime::new(shards, macros_per_shard, config, seed),
            model,
            precision,
            scratch: LenetScratch::default(),
        })
    }

    /// The underlying runtime (for inspection).
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    fn mapping(&self) -> TileMapping {
        match self.precision {
            Precision::Int4 => TileMapping::FourBit,
            Precision::Int8 => TileMapping::BitSlicedInt8,
            Precision::Float32 => unreachable!("rejected in constructor"),
        }
    }

    /// Computes logits for a batch of images through the **per-image**
    /// sharded pipeline (one analog drive per image per layer). The
    /// streamed dataset path is [`logits_matrix`](Self::logits_matrix);
    /// with noise-free reads the two are bit-identical.
    ///
    /// # Errors
    ///
    /// Capacity errors if the shards cannot hold a layer's tiles; analog
    /// and scheduling errors propagate.
    pub fn logits_batch(&mut self, images: &[Tensor3]) -> Result<Vec<Vec<f64>>, RuntimeError> {
        let mapping = self.mapping();
        let rt = &self.rt;
        lenet_forward(&self.model, images, |w, batches| {
            let mut tiled = ShardedTiledOperator::load(rt, w, mapping)?;
            let result: Result<Vec<_>, RuntimeError> =
                batches.iter().map(|xs| tiled.mvm_batch(rt, xs)).collect();
            tiled.free(rt)?;
            result
        })
    }

    /// Streams a whole dataset through the sharded pipeline: per layer one
    /// tile load, one batched drive covering every image (the tiles'
    /// partial products run across the shards, each tile's job sharing the
    /// one drive matrix), one free. Row `i` of the
    /// result holds image `i`'s logits. See
    /// [`GramcLenet::logits_matrix`](crate::GramcLenet::logits_matrix) for
    /// the noise-draw semantics.
    ///
    /// # Errors
    ///
    /// See [`logits_batch`](Self::logits_batch).
    pub fn logits_matrix(&mut self, images: &[Tensor3]) -> Result<Matrix, RuntimeError> {
        let mapping = self.mapping();
        let rt = &self.rt;
        lenet_forward_stream(&self.model, images, &mut self.scratch, |w, drive| {
            let mut tiled = ShardedTiledOperator::load(rt, w, mapping)?;
            let result = tiled.mvm_batch_rows(rt, drive);
            tiled.free(rt)?;
            result
        })
    }

    /// Predicted classes for a batch (streamed pipeline).
    ///
    /// # Errors
    ///
    /// See [`logits_matrix`](Self::logits_matrix).
    pub fn predict_batch(&mut self, images: &[Tensor3]) -> Result<Vec<usize>, RuntimeError> {
        let logits = self.logits_matrix(images)?;
        Ok((0..logits.rows()).map(|b| argmax(logits.row(b))).collect())
    }

    /// Classification accuracy of the sharded pipeline on a labelled set.
    ///
    /// # Errors
    ///
    /// See [`logits_batch`](Self::logits_batch).
    ///
    /// # Panics
    ///
    /// Panics if `images.len() != labels.len()`.
    pub fn evaluate(&mut self, images: &[Tensor3], labels: &[usize]) -> Result<f64, RuntimeError> {
        assert_eq!(images.len(), labels.len(), "images/labels length mismatch");
        if images.is_empty() {
            return Ok(0.0);
        }
        let preds = self.predict_batch(images)?;
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        Ok(correct as f64 / images.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::trained_model;
    use crate::GramcLenet;

    #[test]
    fn one_shard_runtime_backend_is_bit_identical_to_single_group() {
        let (net, images, _) = trained_model();
        // Same seed, same macro complement: the runtime's job tickets
        // replay the single-group operation order exactly, RNG draws and
        // all (paper-default non-idealities are on).
        let mut single =
            GramcLenet::new(net.clone(), Precision::Int4, MacroConfig::default(), 16, 122).unwrap();
        let mut sharded =
            RuntimeLenet::new(net, Precision::Int4, MacroConfig::default(), 1, 16, 122).unwrap();
        let sample = &images[..3];
        let logits_single = single.logits_batch(sample).unwrap();
        let logits_sharded = sharded.logits_batch(sample).unwrap();
        assert_eq!(logits_single, logits_sharded);
    }

    /// Determinism under injection: a **zero-rate** fault plan installed
    /// on every shard must leave the LeNet logits bit-identical to the
    /// single-group baseline — same seeds, same operation order, not one
    /// extra RNG draw.
    #[test]
    fn zero_rate_injection_keeps_lenet_logits_bit_identical() {
        use gramc_runtime::FaultConfig;

        let (net, images, _) = trained_model();
        let mut single =
            GramcLenet::new(net.clone(), Precision::Int4, MacroConfig::default(), 16, 122).unwrap();
        let mut sharded =
            RuntimeLenet::new(net, Precision::Int4, MacroConfig::default(), 1, 16, 122).unwrap();
        let zero = FaultConfig::default();
        assert!(zero.is_fault_free());
        sharded.runtime().inject_shard_faults(0, &zero, 7).unwrap();

        let sample = &images[..3];
        let logits_single = single.logits_batch(sample).unwrap();
        let logits_sharded = sharded.logits_batch(sample).unwrap();
        assert_eq!(logits_single, logits_sharded);
    }

    /// Streamed sharded inference must agree bit-for-bit with both its own
    /// per-image path and the single-group streamed path when conductance
    /// reads are noise-free (quantization-only config, one shard, same
    /// seed).
    #[test]
    fn streamed_sharded_logits_are_bit_identical_to_per_image_and_single_group() {
        use gramc_core::NonidealityConfig;

        let (net, images, _) = trained_model();
        let quiet = MacroConfig {
            nonideal: NonidealityConfig::quantization_only(4),
            ..MacroConfig::default()
        };
        let mut single =
            GramcLenet::new(net.clone(), Precision::Int4, quiet.clone(), 16, 122).unwrap();
        let mut sharded = RuntimeLenet::new(net, Precision::Int4, quiet, 1, 16, 122).unwrap();
        let sample = &images[..4];
        let per_image = sharded.logits_batch(sample).unwrap();
        let streamed = sharded.logits_matrix(sample).unwrap();
        let streamed_single = single.logits_matrix(sample).unwrap();
        assert_eq!(streamed.shape(), (4, 10));
        for (b, y) in per_image.iter().enumerate() {
            for (j, v) in y.iter().enumerate() {
                assert_eq!(v.to_bits(), streamed[(b, j)].to_bits(), "image {b} logit {j}");
                assert_eq!(v.to_bits(), streamed_single[(b, j)].to_bits(), "image {b} logit {j}");
            }
        }
    }

    #[test]
    fn multi_shard_backend_is_accurate() {
        let (net, images, labels) = trained_model();
        let mut backend =
            RuntimeLenet::new(net, Precision::Int4, MacroConfig::default(), 2, 8, 123).unwrap();
        let hw = backend.evaluate(&images[..8], &labels[..8]).unwrap();
        assert!(hw >= 0.9, "sharded analog accuracy {hw}");
    }

    #[test]
    fn float32_backend_is_rejected() {
        let (net, _, _) = trained_model();
        assert!(
            RuntimeLenet::new(net, Precision::Float32, MacroConfig::default(), 2, 8, 0).is_err()
        );
    }
}
