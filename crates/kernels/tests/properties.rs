//! Property-based tests: every packed kernel variant is bit-exact with
//! the naive signed reference over randomized layer configurations and
//! thread counts, at channel counts whose tap chunks fill, straddle and
//! span several packed words, across the precision profiles the fallback path serves
//! (W1A1, W1A3 binarized-weight layers and W8A8 quantized GEMM), and the
//! autotuner is deterministic under a fixed budget.

use proptest::prelude::*;
use tincy_kernels::{
    autotune, gemm_q8, gemm_q8_reference, reference_conv, PackedLayer, TuneBudget, Variant,
};
use tincy_quant::{ThresholdSet, ThresholdsForLayer};
use tincy_tensor::{BitTensor, ConvGeom, PoolGeom, Shape3, Tensor};

#[derive(Debug, Clone)]
struct LayerCase {
    in_shape: Shape3,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pool: Option<PoolGeom>,
    act_bits: usize,
    threads: usize,
    weight_seed: u64,
    input_seed: u64,
}

fn layer_case() -> impl Strategy<Value = LayerCase> {
    (
        // Tap chunks inside one word, word-aligned (64), straddling a
        // boundary (63, 65) and spanning three words (130).
        prop_oneof![
            1usize..4,
            Just(16usize),
            Just(63usize),
            Just(64usize),
            Just(65usize),
            Just(130usize),
        ],
        4usize..9,
        1usize..7,
        prop_oneof![Just(1usize), Just(3usize)],
        1usize..3,
        proptest::option::of((1usize..3).prop_map(|s| PoolGeom::new(2, s))),
        // W1A1 and W1A3 activation profiles; 2-bit rides along since the
        // packing is per-plane.
        1usize..4,
        1usize..5,
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(c, hw, oc, kernel, stride, pool, act_bits, threads, ws, is)| LayerCase {
                in_shape: Shape3::new(c, hw, hw),
                out_channels: oc,
                kernel,
                stride,
                pool,
                act_bits,
                threads,
                weight_seed: ws,
                input_seed: is,
            },
        )
}

fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    }
}

/// The layer under test with the channel-major weights and thresholds it
/// was built from, which [`reference_conv`] reads.
fn build_layer(case: &LayerCase) -> (PackedLayer, BitTensor, ThresholdsForLayer) {
    let geom = geom(case);
    let cols = geom.dot_length(case.in_shape.channels);
    let mut rng = lcg(case.weight_seed);
    let signs: Vec<i8> = (0..case.out_channels * cols)
        .map(|_| if rng() & 1 == 0 { 1 } else { -1 })
        .collect();
    let weights = BitTensor::from_signs(case.out_channels, cols, &signs).expect("dims");
    // Thresholds inside the accumulator's spread, σ = √(cols · E[a²]) for
    // random ±1 weights and uniform activations, so the outputs cover the
    // levels instead of saturating at any footprint size: a random
    // centre within ±σ/2, a random step up to 3σ/levels.
    let levels = (1usize << case.act_bits) - 1;
    let n = (1u64 << case.act_bits) as f64;
    let sigma = (cols as f64 * (n - 1.0) * (2.0 * n - 1.0) / 6.0).sqrt();
    let half = (sigma / 2.0) as u64;
    let max_step = ((3.0 * sigma / levels as f64) as u64).max(1);
    let thresholds = ThresholdsForLayer::new(
        (0..case.out_channels)
            .map(|_| {
                let centre = (rng() % (2 * half + 1)) as i32 - half as i32;
                let step = (rng() % max_step) as i32 + 1;
                let base = centre - step * (levels as i32 - 1) / 2;
                let taus: Vec<i32> = (0..levels as i32).map(|k| base + k * step).collect();
                let ascending = rng() & 1 == 0;
                ThresholdSet::with_direction(taus, ascending).expect("monotone")
            })
            .collect(),
    )
    .expect("uniform");
    let layer = PackedLayer::new(
        case.in_shape,
        weights.clone(),
        thresholds.clone(),
        geom,
        case.pool,
        case.act_bits,
    );
    (layer, weights, thresholds)
}

fn geom(case: &LayerCase) -> ConvGeom {
    ConvGeom::same(case.kernel, case.stride)
}

fn build_input(case: &LayerCase) -> Tensor<u8> {
    let mut rng = lcg(case.input_seed);
    let ceiling = 1u64 << case.act_bits;
    Tensor::from_fn(case.in_shape, |_, _, _| (rng() % ceiling) as u8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every packed variant equals the naive signed reference, at any
    /// thread count, for W1A1 through W1A3 layers with 1×1 and 3×3
    /// kernels, arbitrary strides and pooling.
    #[test]
    fn packed_variants_bit_exact_with_reference(case in layer_case()) {
        let (layer, weights, thresholds) = build_layer(&case);
        let input = build_input(&case);
        let expected = reference_conv(&input, &weights, &thresholds, geom(&case), case.pool);
        for variant in Variant::ALL {
            let got = layer.forward(&input, variant, case.threads);
            prop_assert_eq!(
                got.as_slice(), expected.as_slice(),
                "variant {:?} threads {}", variant, case.threads
            );
        }
    }

    /// The W8A8 quantized GEMM variants equal the naive i32 reference.
    #[test]
    fn gemm_q8_variants_bit_exact_with_reference(
        m in 1usize..12,
        k in 1usize..40,
        n in 1usize..40,
        threads in 1usize..5,
        seed in any::<u64>()
    ) {
        let mut rng = lcg(seed);
        let a: Vec<i8> = (0..m * k).map(|_| (rng() % 256) as u8 as i8).collect();
        let b: Vec<u8> = (0..k * n).map(|_| (rng() % 256) as u8).collect();
        let expected = gemm_q8_reference(&a, &b, m, k, n);
        for variant in Variant::ALL {
            let got = gemm_q8(&a, &b, m, k, n, variant, threads);
            prop_assert_eq!(
                &got, &expected,
                "variant {:?} threads {}", variant, threads
            );
        }
    }

    /// Model-mode autotuning is a pure function of the layer shapes: the
    /// same stack always yields the same plan, regardless of seed.
    #[test]
    fn autotuner_is_deterministic(case in layer_case(), seed in any::<u64>()) {
        let (layer, _, _) = build_layer(&case);
        let layers = [layer];
        let first = autotune(&layers, &TuneBudget::model());
        let mut reseeded = TuneBudget::model();
        reseeded.seed = seed;
        let second = autotune(&layers, &reseeded);
        prop_assert_eq!(first.entries(), second.entries());
        for entry in first.entries() {
            prop_assert!(entry.threads >= 1);
            prop_assert!(Variant::ALL.contains(&entry.variant));
        }
    }
}
