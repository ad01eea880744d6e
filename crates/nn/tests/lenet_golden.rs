//! Golden pins for sharded LeNet inference.
//!
//! `RuntimeLenet` logits under the paper's default non-idealities (read
//! noise, device variation, converter quantization, op-amp offsets) on two
//! shards of eight macros, folded into one checksum per entry point and
//! precision. Any change to how drives and results cross the runtime, or
//! to the macro's DAC/ADC decode, must keep every logit bit-identical, so
//! these constants must hold. Regenerate them only after an *intentional*
//! numerics change, by running the test and copying the reported values.

use gramc_core::MacroConfig;
use gramc_linalg::random::{seeded_rng, standard_normal};
use gramc_nn::{GramcLenet, LeNet5, Precision, RuntimeLenet, Tensor3};

fn random_images(n: usize, seed: u64) -> Vec<Tensor3> {
    let mut rng = seeded_rng(seed);
    (0..n)
        .map(|_| {
            let data = (0..28 * 28).map(|_| standard_normal(&mut rng).abs().min(1.0)).collect();
            Tensor3::from_vec(1, 28, 28, data)
        })
        .collect()
}

fn fold(acc: u64, v: f64) -> u64 {
    acc.rotate_left(7) ^ v.to_bits()
}

fn fold_all<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    values.into_iter().fold(0, |acc, &v| fold(acc, v))
}

/// `(logits_matrix, logits_batch)` checksums of one backend that runs the
/// streamed pipeline first and the per-image pipeline second.
fn checksums(precision: Precision) -> (u64, u64) {
    let model = LeNet5::new(&mut seeded_rng(7));
    let images = random_images(4, 13);
    let mut backend =
        RuntimeLenet::new(model, precision, MacroConfig::default(), 2, 8, 11).unwrap();
    let streamed = backend.logits_matrix(&images).unwrap();
    assert_eq!(streamed.shape(), (4, 10));
    let per_image = backend.logits_batch(&images).unwrap();
    (fold_all(streamed.as_slice()), fold_all(per_image.iter().flatten()))
}

/// The single-group streamed pipeline on the same inputs: its tiles read
/// their drive columns in place too.
fn single_group_checksum(precision: Precision) -> u64 {
    let model = LeNet5::new(&mut seeded_rng(7));
    let images = random_images(4, 13);
    let mut backend = GramcLenet::new(model, precision, MacroConfig::default(), 16, 11).unwrap();
    fold_all(backend.logits_matrix(&images).unwrap().as_slice())
}

#[test]
fn int4_logits_match_pinned_checksums() {
    let (streamed, per_image) = checksums(Precision::Int4);
    assert_eq!(
        streamed, 0xBD30_9027_D0E6_4F2B,
        "INT4 logits_matrix checksum drifted: {streamed:#018X}"
    );
    assert_eq!(
        per_image, 0x6E3F_24E4_1821_4925,
        "INT4 logits_batch checksum drifted: {per_image:#018X}"
    );
}

#[test]
fn int8_logits_match_pinned_checksums() {
    let (streamed, per_image) = checksums(Precision::Int8);
    assert_eq!(
        streamed, 0x3BAC_8552_716E_3ECD,
        "INT8 logits_matrix checksum drifted: {streamed:#018X}"
    );
    assert_eq!(
        per_image, 0xB0F1_B781_C261_3213,
        "INT8 logits_batch checksum drifted: {per_image:#018X}"
    );
}

#[test]
fn single_group_streamed_logits_match_pinned_checksums() {
    let int4 = single_group_checksum(Precision::Int4);
    let int8 = single_group_checksum(Precision::Int8);
    assert_eq!(
        int4, 0xF18C_C98E_8B74_7934,
        "INT4 GramcLenet::logits_matrix checksum drifted: {int4:#018X}"
    );
    assert_eq!(
        int8, 0xBCEE_3C99_B46D_1BCA,
        "INT8 GramcLenet::logits_matrix checksum drifted: {int8:#018X}"
    );
}
