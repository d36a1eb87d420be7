//! Packed-kernel fallback throughput: the bit-packed XNOR-popcount CPU
//! kernels of `tincy-kernels` against the naive signed reference, per
//! hidden layer and across the whole fallback network, plus the
//! degraded-mode correctness assertion (packed outputs bit-exact with the
//! fabric path while a fault-injected FINN outage is in force). Writes
//! the result to `BENCH_kernels.json` (path overridable as the first
//! argument).
//!
//! ```text
//! cargo run -p tincy-bench --release --bin kernels
//! ```
//!
//! Exits nonzero when the whole-network packed speedup drops below the
//! 8x floor the fallback path budgets for, or any single layer's below
//! 6x, so CI can gate on it.

use std::time::{Duration, Instant};
use tincy_finn::engine::EngineConfig;
use tincy_finn::{FaultInjector, FaultPlan, QnnAccelerator, QnnLayerParams};
use tincy_json::{JsonArray, JsonObject};
use tincy_quant::{ThresholdSet, ThresholdsForLayer};
use tincy_tensor::{BitTensor, ConvGeom, PoolGeom, Shape3, Tensor};

const REPS: usize = 5;
const SPEEDUP_FLOOR: f64 = 8.0;
const LAYER_SPEEDUP_FLOOR: f64 = 6.0;

fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    }
}

/// One synthetic `[W1A3]` hidden layer with deterministic weights and
/// strictly monotone per-channel thresholds.
fn hidden_layer(
    in_shape: Shape3,
    filters: usize,
    pool: Option<PoolGeom>,
    seed: u64,
) -> QnnLayerParams {
    let geom = ConvGeom::same(3, 1);
    let cols = geom.dot_length(in_shape.channels);
    let mut rng = lcg(seed);
    let signs: Vec<i8> = (0..filters * cols)
        .map(|_| if rng() & 1 == 0 { 1 } else { -1 })
        .collect();
    let weights = BitTensor::from_signs(filters, cols, &signs).expect("dims");
    let thresholds = ThresholdsForLayer::new(
        (0..filters)
            .map(|_| {
                let base = (rng() % 60) as i32 - 40;
                let step = (rng() % 5) as i32 + 1;
                ThresholdSet::new((0..7).map(|k| base + k * step).collect()).expect("monotone")
            })
            .collect(),
    )
    .expect("uniform");
    QnnLayerParams::new(in_shape, weights, thresholds, geom, pool).expect("valid layer")
}

/// A hidden stack shaped like the offloaded Tincy YOLO layers at a
/// reduced input: wide binarized convolutions over 3-bit feature maps.
fn build_accel() -> QnnAccelerator {
    let layers = vec![
        hidden_layer(Shape3::new(64, 16, 16), 64, Some(PoolGeom::new(2, 2)), 11),
        hidden_layer(Shape3::new(64, 8, 8), 128, None, 12),
        hidden_layer(Shape3::new(128, 8, 8), 128, None, 13),
    ];
    QnnAccelerator::new(layers, EngineConfig::default()).expect("valid stack")
}

fn input_for(shape: Shape3, seed: u64) -> Tensor<u8> {
    let mut rng = lcg(seed);
    Tensor::from_fn(shape, |_, _, _| (rng() % 8) as u8)
}

/// Best-of-`REPS` wall time of `f`, with the result kept live.
fn time_best<T>(mut f: impl FnMut() -> T) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..REPS {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed());
    }
    best
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_kernels.json".to_owned());

    let accel = build_accel();
    let input = input_for(accel.input_shape(), 99);

    // Correctness before throughput: the packed fallback must agree with
    // both the naive reference and the fabric path, bit for bit.
    let (fabric, _) = accel.run(&input).expect("fabric path runs");
    let packed = accel.reference_run(&input).expect("packed path runs");
    let naive = accel.reference_run_naive(&input).expect("naive path runs");
    assert_eq!(
        packed.as_slice(),
        naive.as_slice(),
        "packed fallback disagrees with the naive reference"
    );
    assert_eq!(
        packed.as_slice(),
        fabric.as_slice(),
        "packed fallback disagrees with the fabric path"
    );

    // Degraded mode: with a FINN outage in force the fabric path faults,
    // and the packed fallback keeps serving the exact same outputs.
    let degraded =
        build_accel().with_fault_injector(FaultInjector::new(FaultPlan::outage(0, u64::MAX)));
    assert!(
        degraded.run(&input).is_err(),
        "the outage plan must fault the fabric path"
    );
    let served = degraded
        .reference_run(&input)
        .expect("packed path serves through the outage");
    assert_eq!(
        served.as_slice(),
        fabric.as_slice(),
        "degraded-mode packed outputs diverge from the fabric path"
    );
    println!("degraded mode: packed fallback bit-exact through a full FINN outage");

    // Per-layer throughput: each hidden layer on its own feature map,
    // packed (autotuned variant) vs the naive signed loop.
    let plan = accel.kernel_plan();
    let mut layer_rows = JsonArray::new();
    let mut layer_speedups = Vec::new();
    let mut fmap = input.clone();
    for (i, packed_layer) in accel.packed_layers().iter().enumerate() {
        let entry = plan.entry(i);
        let layer_input = fmap.clone();
        let naive_t = time_best(|| accel.reference_layer_naive(i, &layer_input).expect("runs"));
        let packed_t =
            time_best(|| packed_layer.forward(&layer_input, entry.variant, entry.threads));
        let speedup = naive_t.as_secs_f64() / packed_t.as_secs_f64();
        println!(
            "L{i} {:<12} naive {:>9.3} ms  packed {:>9.3} ms  speedup {:>6.2}x  ({})",
            packed_layer.shape().token(),
            naive_t.as_secs_f64() * 1000.0,
            packed_t.as_secs_f64() * 1000.0,
            speedup,
            entry.variant.label()
        );
        layer_rows.raw(
            &JsonObject::new()
                .u64("layer", i as u64)
                .str("shape", &packed_layer.shape().token())
                .str("variant", entry.variant.label())
                .u64("threads", entry.threads as u64)
                .f64("naive_ms", naive_t.as_secs_f64() * 1000.0)
                .f64("packed_ms", packed_t.as_secs_f64() * 1000.0)
                .f64("speedup", speedup)
                .finish(),
        );
        layer_speedups.push(speedup);
        fmap = packed_layer.forward(&fmap, entry.variant, entry.threads);
    }

    // Whole-network fallback throughput: the figure degraded serving
    // actually experiences.
    let naive_t = time_best(|| accel.reference_run_naive(&input).expect("runs"));
    let packed_t = time_best(|| accel.reference_run(&input).expect("runs"));
    let speedup = naive_t.as_secs_f64() / packed_t.as_secs_f64();
    println!(
        "network          naive {:>9.3} ms  packed {:>9.3} ms  speedup {:>6.2}x",
        naive_t.as_secs_f64() * 1000.0,
        packed_t.as_secs_f64() * 1000.0,
        speedup
    );

    let body = format!(
        "{}\n",
        JsonObject::new()
            .str("bench", "kernels")
            .u64("reps", REPS as u64)
            .raw("layers", &layer_rows.finish())
            .f64("network_naive_ms", naive_t.as_secs_f64() * 1000.0)
            .f64("network_packed_ms", packed_t.as_secs_f64() * 1000.0)
            .f64("network_speedup", speedup)
            .f64("speedup_floor", SPEEDUP_FLOOR)
            .f64("layer_speedup_floor", LAYER_SPEEDUP_FLOOR)
            .bool("degraded_bit_exact", true)
            .finish()
    );
    match std::fs::write(&out_path, body) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("failed to write {out_path}: {e}"),
    }

    for (i, layer_speedup) in layer_speedups.iter().enumerate() {
        assert!(
            *layer_speedup >= LAYER_SPEEDUP_FLOOR,
            "L{i} packed speedup {layer_speedup:.2}x is below the {LAYER_SPEEDUP_FLOOR:.0}x per-layer floor"
        );
    }
    assert!(
        speedup >= SPEEDUP_FLOOR,
        "whole-network packed speedup {speedup:.2}x is below the {SPEEDUP_FLOOR:.0}x floor"
    );
}
