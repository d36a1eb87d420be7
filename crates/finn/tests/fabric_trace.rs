//! Trace attribution of a fabric invocation. The trace session is
//! process-global, so this check lives in its own test binary where no
//! sibling test can emit spans into it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tincy_finn::{EngineConfig, QnnAccelerator, QnnLayerParams};
use tincy_quant::{ThresholdSet, ThresholdsForLayer};
use tincy_tensor::{BitTensor, ConvGeom, PoolGeom, Shape3, Tensor};

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
    let weights = BitTensor::from_signs(out_c, cols, &signs).unwrap();
    let thresholds = ThresholdsForLayer::new(
        (0..out_c)
            .map(|_| {
                let base = rng.gen_range(-15i32..5);
                ThresholdSet::new((0..7).map(|k| base + k * 3).collect()).unwrap()
            })
            .collect(),
    )
    .unwrap();
    QnnLayerParams::new(in_shape, weights, thresholds, geom, pool).unwrap()
}

/// A fabric invocation is accounted as `finn.layer` time only: one span per
/// layer for the whole batch, and no `cpu.kernel.*` span, which trace
/// analysis attributes to the CPU fallback.
#[test]
fn run_batch_emits_one_finn_layer_span_per_layer_and_no_cpu_kernel_span() {
    let mut rng = StdRng::seed_from_u64(31);
    let l1 = random_layer(
        &mut rng,
        Shape3::new(8, 16, 16),
        32,
        Some(PoolGeom::new(2, 2)),
    );
    let l2 = random_layer(&mut rng, l1.out_shape(), 16, None);
    let l3 = random_layer(&mut rng, l2.out_shape(), 8, None);
    // Built (and autotuned) before the session starts.
    let accel = QnnAccelerator::new(vec![l1, l2, l3], EngineConfig::default()).unwrap();
    let inputs: Vec<Tensor<u8>> = (0..3)
        .map(|_| Tensor::from_fn(accel.input_shape(), |_, _, _| rng.gen_range(0..8)))
        .collect();

    tincy_trace::start();
    let (outs, _) = accel.run_batch(&inputs).unwrap();
    let trace = tincy_trace::finish();
    assert_eq!(outs.len(), inputs.len());

    let spans = trace.spans().expect("well-formed trace");
    let names: Vec<&str> = spans.iter().map(|s| trace.label_name(s.label)).collect();
    let mut layers: Vec<u32> = spans
        .iter()
        .filter(|s| trace.label_name(s.label) == "finn.layer")
        .filter_map(|s| s.attrs.layer)
        .collect();
    layers.sort_unstable();
    assert_eq!(
        layers,
        vec![0, 1, 2],
        "one finn.layer span per layer: {names:?}"
    );
    assert!(
        !names.iter().any(|n| n.starts_with("cpu.kernel")),
        "fabric invocation emitted CPU-kernel spans: {names:?}"
    );
}
