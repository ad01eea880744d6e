//! Procedural 28×28 digit dataset — the offline substitute for MNIST, which
//! is not available offline.
//!
//! Each digit class is a polyline skeleton on a 28×28 canvas; samples are
//! produced by applying a random affine transform (rotation, scale,
//! translation), rasterizing the strokes with a soft Gaussian pen of
//! randomized width, and adding pixel noise. The task exercises exactly the
//! code path of the paper's Fig. 5 experiment — quantized-weight convnet
//! inference through the analog MVM pipeline — with comparable class
//! structure to handwritten digits.

use rand::Rng;

/// One labelled 28×28 grayscale image (pixels in `[0, 1]`, row-major).
#[derive(Debug, Clone, PartialEq)]
pub struct DigitImage {
    /// Pixels, length 784, row-major.
    pub pixels: Vec<f64>,
    /// Class label, 0–9.
    pub label: usize,
}

/// A train/test split of synthetic digits.
#[derive(Debug, Clone)]
pub struct DigitsDataset {
    /// Training images.
    pub train: Vec<DigitImage>,
    /// Held-out test images.
    pub test: Vec<DigitImage>,
}

/// Stroke skeletons for the ten digits, as polylines in a 0–27 coordinate
/// frame (y, x). Hand-drawn to be mutually distinguishable under the
/// augmentations.
fn skeleton(digit: usize) -> Vec<Vec<(f64, f64)>> {
    let p = |y: f64, x: f64| (y, x);
    match digit {
        0 => vec![vec![
            p(6.0, 10.0),
            p(4.0, 14.0),
            p(6.0, 18.0),
            p(14.0, 20.0),
            p(22.0, 18.0),
            p(24.0, 14.0),
            p(22.0, 10.0),
            p(14.0, 8.0),
            p(6.0, 10.0),
        ]],
        1 => vec![
            vec![p(6.0, 11.0), p(4.0, 14.0), p(24.0, 14.0)],
            vec![p(24.0, 10.0), p(24.0, 18.0)],
        ],
        2 => vec![vec![
            p(7.0, 9.0),
            p(4.0, 14.0),
            p(7.0, 19.0),
            p(12.0, 18.0),
            p(20.0, 11.0),
            p(24.0, 9.0),
            p(24.0, 19.0),
        ]],
        3 => vec![vec![
            p(5.0, 9.0),
            p(4.0, 14.0),
            p(7.0, 18.0),
            p(12.0, 15.0),
            p(14.0, 13.0),
            p(12.0, 15.0),
            p(17.0, 18.0),
            p(22.0, 17.0),
            p(24.0, 12.0),
            p(22.0, 9.0),
        ]],
        4 => {
            vec![vec![p(4.0, 16.0), p(16.0, 8.0), p(16.0, 20.0)], vec![p(4.0, 16.0), p(24.0, 16.0)]]
        }
        5 => vec![vec![
            p(4.0, 19.0),
            p(4.0, 9.0),
            p(13.0, 9.0),
            p(12.0, 17.0),
            p(18.0, 19.0),
            p(23.0, 16.0),
            p(24.0, 11.0),
            p(22.0, 9.0),
        ]],
        6 => vec![vec![
            p(5.0, 17.0),
            p(8.0, 11.0),
            p(14.0, 8.0),
            p(22.0, 10.0),
            p(24.0, 15.0),
            p(21.0, 19.0),
            p(16.0, 18.0),
            p(14.0, 14.0),
            p(15.0, 10.0),
        ]],
        7 => vec![vec![p(4.0, 8.0), p(4.0, 20.0), p(14.0, 14.0), p(24.0, 11.0)]],
        8 => vec![vec![
            p(8.0, 14.0),
            p(5.0, 11.0),
            p(7.0, 8.5),
            p(11.0, 10.0),
            p(13.0, 14.0),
            p(11.0, 10.0),
            p(7.0, 8.5),
            p(5.0, 11.0),
            p(8.0, 14.0),
            p(13.0, 14.0),
            p(20.0, 11.0),
            p(24.0, 13.5),
            p(22.0, 17.5),
            p(16.0, 17.0),
            p(13.0, 14.0),
        ]],
        9 => vec![vec![
            p(12.0, 18.0),
            p(6.0, 19.0),
            p(4.0, 14.0),
            p(6.0, 10.0),
            p(11.0, 9.0),
            p(13.0, 13.0),
            p(12.0, 18.0),
            p(17.0, 19.0),
            p(24.0, 16.0),
        ]],
        _ => panic!("digit must be 0..=9"),
    }
}

/// Renders one randomized sample of `digit`.
pub fn render_digit<R: Rng + ?Sized>(rng: &mut R, digit: usize) -> DigitImage {
    let strokes = skeleton(digit);
    // Random affine: rotation, per-axis scale, translation.
    let theta: f64 = rng.gen_range(-0.38..0.38);
    let (s, c) = theta.sin_cos();
    let sy: f64 = rng.gen_range(0.70..1.25);
    let sx: f64 = rng.gen_range(0.70..1.25);
    let ty: f64 = rng.gen_range(-3.5..3.5);
    let tx: f64 = rng.gen_range(-3.5..3.5);
    let cy = 14.0;
    let cx = 14.0;
    let pen: f64 = rng.gen_range(0.9..1.6); // Gaussian pen width (sigma)
    let ink: f64 = rng.gen_range(0.85..1.0);

    let transform = |(y, x): (f64, f64)| -> (f64, f64) {
        let (dy, dx) = ((y - cy) * sy, (x - cx) * sx);
        (cy + c * dy - s * dx + ty, cx + s * dy + c * dx + tx)
    };

    let mut pixels = vec![0.0_f64; 28 * 28];
    for stroke in &strokes {
        for seg in stroke.windows(2) {
            let a = transform(seg[0]);
            let b = transform(seg[1]);
            let len = ((b.0 - a.0).powi(2) + (b.1 - a.1).powi(2)).sqrt();
            let steps = (len * 3.0).ceil().max(1.0) as usize;
            for k in 0..=steps {
                let t = k as f64 / steps as f64;
                let py = a.0 + t * (b.0 - a.0);
                let px = a.1 + t * (b.1 - a.1);
                // Soft pen: splat a small Gaussian around the point.
                let y0 = (py - 3.0).floor().max(0.0) as usize;
                let y1 = (py + 3.0).ceil().min(27.0) as usize;
                let x0 = (px - 3.0).floor().max(0.0) as usize;
                let x1 = (px + 3.0).ceil().min(27.0) as usize;
                for yy in y0..=y1 {
                    for xx in x0..=x1 {
                        let d2 = (yy as f64 - py).powi(2) + (xx as f64 - px).powi(2);
                        let v = ink * (-d2 / (2.0 * pen * pen)).exp();
                        let cell = &mut pixels[yy * 28 + xx];
                        *cell = cell.max(v);
                    }
                }
            }
        }
    }
    // Pixel noise and clamp.
    for v in pixels.iter_mut() {
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let n = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        *v = (*v + 0.09 * n).clamp(0.0, 1.0);
    }
    DigitImage { pixels, label: digit }
}

impl DigitsDataset {
    /// Generates a balanced dataset with `n_train` training and `n_test`
    /// test images. Class counts stay balanced but the *order* is shuffled —
    /// per-sample SGD with momentum degenerates on cyclically ordered
    /// labels.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, n_train: usize, n_test: usize) -> Self {
        let make = |rng: &mut R, n: usize| -> Vec<DigitImage> {
            let mut images: Vec<DigitImage> = (0..n).map(|i| render_digit(rng, i % 10)).collect();
            // Fisher–Yates shuffle.
            for i in (1..images.len()).rev() {
                let j = rng.gen_range(0..=i);
                images.swap(i, j);
            }
            images
        };
        let train = make(rng, n_train);
        let test = make(rng, n_test);
        Self { train, test }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn images_are_normalized_and_labelled() {
        let mut rng = StdRng::seed_from_u64(1);
        for d in 0..10 {
            let img = render_digit(&mut rng, d);
            assert_eq!(img.pixels.len(), 784);
            assert_eq!(img.label, d);
            assert!(img.pixels.iter().all(|&v| (0.0..=1.0).contains(&v)));
            // There must be actual ink.
            let ink: f64 = img.pixels.iter().sum();
            assert!(ink > 10.0, "digit {d} has too little ink: {ink}");
        }
    }

    #[test]
    fn classes_are_visually_distinct() {
        // Mean-image cosine similarity between different classes must stay
        // below the within-class similarity.
        let mut rng = StdRng::seed_from_u64(2);
        let mean_img = |d: usize, rng: &mut StdRng| -> Vec<f64> {
            let mut acc = vec![0.0; 784];
            for _ in 0..20 {
                let img = render_digit(rng, d);
                for (a, p) in acc.iter_mut().zip(&img.pixels) {
                    *a += p;
                }
            }
            acc
        };
        let cos = |a: &[f64], b: &[f64]| -> f64 {
            let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
            let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
            dot / (na * nb)
        };
        let m0 = mean_img(0, &mut rng);
        let m1 = mean_img(1, &mut rng);
        let m7 = mean_img(7, &mut rng);
        // Remove the shared noise floor before comparing: class identity
        // lives in the deviation from the across-class mean.
        let global: Vec<f64> = (0..784).map(|i| (m0[i] + m1[i] + m7[i]) / 3.0).collect();
        let center =
            |m: &[f64]| -> Vec<f64> { m.iter().zip(&global).map(|(a, g)| a - g).collect() };
        let (c0, c1, c7) = (center(&m0), center(&m1), center(&m7));
        assert!(cos(&c0, &c1) < 0.5, "0 vs 1 too similar: {}", cos(&c0, &c1));
        assert!(cos(&c1, &c7) < 0.5, "1 vs 7 too similar: {}", cos(&c1, &c7));
    }

    #[test]
    fn dataset_is_balanced_and_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        let ds = DigitsDataset::generate(&mut rng, 50, 20);
        assert_eq!(ds.train.len(), 50);
        assert_eq!(ds.test.len(), 20);
        let mut counts = [0usize; 10];
        for img in &ds.train {
            counts[img.label] += 1;
        }
        assert_eq!(counts, [5; 10]);

        let mut rng2 = StdRng::seed_from_u64(3);
        let ds2 = DigitsDataset::generate(&mut rng2, 50, 20);
        assert_eq!(ds.train[7], ds2.train[7]);
    }

    #[test]
    #[should_panic(expected = "0..=9")]
    fn bad_digit_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = render_digit(&mut rng, 10);
    }
}
