//! The `demo` workload: the paper's live camera-to-display loop (Fig 5).
//!
//! The loop is the one `tincy_core::demo::run_demo` runs — letterbox, one
//! stage per network layer with the hidden stack on the fabric, object
//! boxing, frame drawing, on the most-mature-job pipeline — assembled here
//! from the same public parts so that it can stream for a fixed time and
//! stamp each frame from capture to display. `run_demo` itself is run on
//! the first pool frames before timing, and must agree with the oracle.

use crate::layers::{self, Result};
use crate::spans::Tracer;
use crate::workload::{DEMO_WORKERS, SCORE_THRESHOLD};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tincy_core::{
    arm_offload_resilience, build_offloaded_network, run_demo, DemoConfig, SystemConfig,
};
use tincy_eval::{nms, Detection};
use tincy_nn::{Layer, OffloadHealth, OffloadStats, RegionLayer};
use tincy_pipeline::{FnStage, Pipeline, PipelineMetrics, Stage};
use tincy_tensor::{Shape3, Tensor};
use tincy_video::{draw_detections, Image, SceneConfig};

/// NMS IoU threshold of `run_demo`.
const NMS_IOU: f32 = 0.45;

/// The assembled system, before it is moved into pipeline stages.
pub struct DemoParts {
    layers: Vec<Box<dyn Layer>>,
    health: OffloadHealth,
    decoder: RegionLayer,
}

/// Builds the network and decoder exactly as `run_demo` does.
pub fn setup(sys: &SystemConfig) -> Result<DemoParts> {
    let net = build_offloaded_network(sys).map_err(|e| e.to_string())?;
    let decoder = layers::decoder(sys.input_size)?;
    let mut layers = net.into_layers();
    let health = arm_offload_resilience(&mut layers, sys).ok_or("no offload layer")?;
    Ok(DemoParts {
        layers,
        health,
        decoder,
    })
}

/// Runs `run_demo` over the first `frames` pool frames and checks its
/// detections against the oracle.
pub fn cross_check(
    sys: &SystemConfig,
    scene: SceneConfig,
    frames: u64,
    oracle: &[Vec<Detection>],
) -> Result<()> {
    let report = run_demo(&DemoConfig {
        frames,
        system: *sys,
        workers: DEMO_WORKERS,
        score_threshold: SCORE_THRESHOLD,
        scene,
    })
    .map_err(|e| e.to_string())?;
    if !report.metrics.in_order || report.frame_detections != oracle[..frames as usize] {
        return Err("run_demo output differs from the host reference".to_owned());
    }
    Ok(())
}

struct DemoFrame {
    idx: u64,
    captured: Instant,
    image: Image,
    fmap: Tensor<f32>,
    detections: Vec<Detection>,
}

pub struct DemoOutcome {
    /// Frames delivered to the display.
    pub frames: u64,
    /// Delivered frames whose detections matched the oracle.
    pub correct: u64,
    /// Pipeline wall time.
    pub elapsed: Duration,
    /// Per-frame latency from capture to display.
    pub latencies: Vec<Duration>,
    pub metrics: PipelineMetrics,
    pub offload: OffloadStats,
}

/// Streams the pool's frames round-robin through the pipeline for `span`.
pub fn run(
    parts: DemoParts,
    sys: &SystemConfig,
    pool: &Arc<Vec<Image>>,
    oracle: &[Vec<Detection>],
    span: Duration,
    tracer: &Arc<Tracer>,
) -> Result<DemoOutcome> {
    let DemoParts {
        layers,
        health,
        decoder,
    } = parts;
    let input_size = sys.input_size;
    let t = Arc::clone(tracer);
    let mut stages: Vec<Box<dyn Stage<DemoFrame>>> =
        vec![FnStage::boxed("letterbox", move |mut f: DemoFrame| {
            f.fmap = t.time("stage.letterbox", f.idx, || {
                f.image.letterboxed(input_size).into_tensor()
            });
            f
        })];
    for (i, mut layer) in layers.into_iter().enumerate() {
        let name = format!("L[{i}] {}", layer.kind());
        let span_name = format!("stage.L{i}.{}", layer.kind());
        let t = Arc::clone(tracer);
        stages.push(FnStage::boxed(name, move |mut f: DemoFrame| {
            f.fmap = t
                .time(&span_name, f.idx, || layer.forward(&f.fmap))
                .expect("layer shapes are consistent by construction");
            f
        }));
    }
    let t = Arc::clone(tracer);
    stages.push(FnStage::boxed("object boxing", move |mut f: DemoFrame| {
        f.detections = t.time("stage.boxing", f.idx, || {
            nms(decoder.decode(&f.fmap, SCORE_THRESHOLD), NMS_IOU)
        });
        f
    }));
    let t = Arc::clone(tracer);
    stages.push(FnStage::boxed("frame drawing", move |mut f: DemoFrame| {
        t.time("stage.drawing", f.idx, || {
            draw_detections(&mut f.image, &f.detections);
        });
        f
    }));

    let source_pool = Arc::clone(pool);
    let t = Arc::clone(tracer);
    let mut next = 0u64;
    let mut deadline: Option<Instant> = None;
    let source = move || {
        let now = Instant::now();
        if now >= *deadline.get_or_insert(now + span) {
            return None;
        }
        let idx = next;
        next += 1;
        let image = t.time("stage.source", idx, || {
            source_pool[idx as usize % source_pool.len()].clone()
        });
        Some(DemoFrame {
            idx,
            captured: now,
            image,
            fmap: Tensor::zeros(Shape3::new(1, 1, 1)),
            detections: Vec::new(),
        })
    };
    let delivered = Arc::new(Mutex::new(Vec::new()));
    let sink = {
        let delivered = Arc::clone(&delivered);
        move |f: DemoFrame| {
            let latency = f.captured.elapsed();
            delivered
                .lock()
                .expect("sink mutex poisoned")
                .push((f.idx, latency, f.detections));
        }
    };
    let probe = health.clone();
    let metrics = Pipeline::new(source)
        .with_stages(stages)
        .with_degradation_probe(move || probe.degraded())
        .run(sink, DEMO_WORKERS);

    let delivered = std::mem::take(&mut *delivered.lock().expect("sink mutex poisoned"));
    if !metrics.in_order || delivered.iter().enumerate().any(|(i, d)| d.0 != i as u64) {
        return Err("demo delivered frames out of order".to_owned());
    }
    let correct = delivered
        .iter()
        .filter(|(idx, _, dets)| *dets == oracle[*idx as usize % oracle.len()])
        .count() as u64;
    Ok(DemoOutcome {
        frames: delivered.len() as u64,
        correct,
        elapsed: metrics.elapsed,
        latencies: delivered.iter().map(|d| d.1).collect(),
        metrics,
        offload: health.snapshot(),
    })
}

impl DemoOutcome {
    /// Pipeline figures: parallel speedup, the bottleneck stage's share of
    /// all busy time, and the share of worker time spent idle.
    pub fn pipeline_figures(&self) -> (f64, f64, f64) {
        let m = &self.metrics;
        let total = m.total_busy().as_secs_f64();
        let bottleneck = m
            .stages
            .iter()
            .map(|s| s.busy.as_secs_f64())
            .fold(0.0, f64::max);
        let capacity = m.elapsed.as_secs_f64() * m.workers as f64;
        (m.speedup(), bottleneck / total, 1.0 - total / capacity)
    }
}
