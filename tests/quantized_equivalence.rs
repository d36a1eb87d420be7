//! Cross-crate numerical invariants: the simulated fabric path versus the
//! CPU reference paths.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tincy::finn::{ConvEngine, EngineConfig, QnnAccelerator, QnnLayerParams};
use tincy::quant::{ThresholdSet, ThresholdsForLayer};
use tincy::tensor::{BitTensor, ConvGeom, PoolGeom, Shape3, Tensor};

fn random_layer(
    rng: &mut StdRng,
    in_shape: Shape3,
    out_c: usize,
    pool: Option<PoolGeom>,
) -> QnnLayerParams {
    let geom = ConvGeom::same(3, 1);
    let cols = geom.dot_length(in_shape.channels);
    let signs: Vec<i8> = (0..out_c * cols)
        .map(|_| if rng.gen() { 1 } else { -1 })
        .collect();
    let weights = BitTensor::from_signs(out_c, cols, &signs).expect("dims");
    let thresholds = ThresholdsForLayer::new(
        (0..out_c)
            .map(|_| {
                let base = rng.gen_range(-30i32..10);
                let step = rng.gen_range(1i32..8);
                ThresholdSet::new((0..7).map(|k| base + k * step).collect()).expect("monotone")
            })
            .collect(),
    )
    .expect("uniform");
    QnnLayerParams::new(in_shape, weights, thresholds, geom, pool).expect("consistent")
}

/// The headline invariant: the accelerator's packed compute path produces
/// **bit-exact** results against two independent oracles — the behavioural
/// MVTU engine run layer by layer, and the naive integer reference — and its
/// per-layer cycles equal the engine's, for many random layer stacks,
/// inputs and foldings.
#[test]
fn mvtu_bit_exact_over_random_stacks() {
    let mut rng = StdRng::seed_from_u64(2024);
    for trial in 0..8 {
        let channels = rng.gen_range(1..6);
        let hw = rng.gen_range(4..10);
        let in_shape = Shape3::new(channels, hw, hw);
        let mid = rng.gen_range(2..8);
        let l1 = random_layer(&mut rng, in_shape, mid, Some(PoolGeom::new(2, 2)));
        let l2_out = rng.gen_range(2..6);
        let l2 = random_layer(&mut rng, l1.out_shape(), l2_out, None);
        // Vary the folding; results must be invariant.
        let config = EngineConfig {
            pe: rng.gen_range(1..5),
            simd: rng.gen_range(1..20),
            ..Default::default()
        };
        let accel = QnnAccelerator::new(vec![l1, l2], config).expect("chains");
        let input: Tensor<u8> = Tensor::from_fn(in_shape, |_, _, _| rng.gen_range(0..8));
        let (hw_out, report) = accel.run(&input).expect("runs");

        let engine = ConvEngine::new(config).expect("valid folding");
        let mut oracle = input.clone();
        for (i, layer) in accel.layers().iter().enumerate() {
            let (out, cycles) = engine.run_layer(layer, &oracle).expect("runs");
            assert_eq!(
                report.layer_cycles[i], cycles,
                "trial {trial}: layer {i} cycles diverged from the engine model"
            );
            oracle = out;
        }
        assert_eq!(
            hw_out, oracle,
            "trial {trial}: fabric diverged from the MVTU oracle"
        );
        assert_eq!(
            hw_out,
            accel.reference_run_naive(&input).expect("runs"),
            "trial {trial}: fabric diverged from the naive reference"
        );
        assert!(report.total_cycles() > 0);
    }
}

/// Max-pooling commutes with the threshold activation (both are monotone),
/// so pooling accumulated levels equals pooling the raw accumulators first.
#[test]
fn threshold_then_pool_is_monotone_consistent() {
    let mut rng = StdRng::seed_from_u64(7);
    let thresholds = ThresholdSet::new((0..7).map(|k| k * 5 - 10).collect()).expect("monotone");
    for _ in 0..200 {
        let a = rng.gen_range(-60i32..60);
        let b = rng.gen_range(-60i32..60);
        let pooled_then_activated = thresholds.activate(a.max(b));
        let activated_then_pooled = thresholds.activate(a).max(thresholds.activate(b));
        assert_eq!(pooled_then_activated, activated_then_pooled);
    }
}

/// The accelerator's integer path approximates the float binary-conv path
/// within quantization error: one layer, float reference via ±α weights.
#[test]
fn fabric_tracks_float_binary_convolution() {
    let mut rng = StdRng::seed_from_u64(55);
    let in_shape = Shape3::new(3, 8, 8);
    let geom = ConvGeom::same(3, 1);
    let out_c = 4;
    let act_step = 0.125f32;

    // Float weights and their binarization.
    let wf: Vec<f32> = (0..out_c * geom.dot_length(3))
        .map(|_| rng.gen_range(-0.5f32..0.5))
        .collect();
    let alpha = wf.iter().map(|w| w.abs()).sum::<f32>() / wf.len() as f32;
    let signs = tincy::quant::binarize(&wf);
    let weights = BitTensor::from_signs(out_c, geom.dot_length(3), &signs).expect("dims");

    // Thresholds implementing y = alpha*act_step*acc quantized to 3 bits.
    let thresholds = ThresholdsForLayer::new(
        (0..out_c)
            .map(|_| ThresholdSet::from_affine(alpha * act_step, 0.0, act_step, 8).expect("valid"))
            .collect(),
    )
    .expect("uniform");
    let layer = QnnLayerParams::new(in_shape, weights, thresholds, geom, None).expect("consistent");
    let accel = QnnAccelerator::new(vec![layer], EngineConfig::default()).expect("single");

    // Quantized input and its float image.
    let input_q: Tensor<u8> = Tensor::from_fn(in_shape, |_, _, _| rng.gen_range(0..8));
    let input_f = input_q.map(|v| v as f32 * act_step);

    let (levels, _) = accel.run(&input_q).expect("runs");
    let fabric_out = levels.map(|l| l as f32 * act_step);

    // Float reference: conv with ±alpha weights, ReLU-like clamp to the
    // quantizer range.
    let wmat = tincy::tensor::Mat::from_vec(
        out_c,
        geom.dot_length(3),
        signs.iter().map(|&s| alpha * s as f32).collect(),
    )
    .expect("dims");
    let float_out =
        tincy::simd::conv_reference(&input_f, &wmat, &vec![0.0; out_c], geom).expect("runs");

    for (f, q) in float_out.as_slice().iter().zip(fabric_out.as_slice()) {
        let clamped = f.clamp(0.0, 7.0 * act_step);
        assert!(
            (clamped - q).abs() <= act_step * 0.5 + 1e-5,
            "float {clamped} vs fabric {q}"
        );
    }
}
