//! Per-layer measurement: the host reference oracle, the deterministic
//! counts every run records, and the traced layer sweep that times each
//! layer's public functions on the workload's frames.

use crate::gen;
use crate::spans::Tracer;
use crate::stats::{median, Clock, Metrics};
use crate::workload::{Workload, SCORE_THRESHOLD};
use std::collections::BTreeMap;
use tincy_core::{build_offloaded_network, offloaded_spec, SystemConfig};
use tincy_eval::{nms, Detection};
use tincy_finn::{AccelReport, ConvEngine, FabricBackend, QnnAccelerator};
use tincy_kernels::{autotune, PackedLayer, TuneBudget};
use tincy_nn::{LayerSpec, Network, RegionLayer, RegionParams};
use tincy_serve::{InferenceServer, ServeEngine};
use tincy_tensor::{Shape3, Tensor};
use tincy_video::{draw_detections, Image, SyntheticCamera};

/// NMS IoU threshold of the demo and serving paths.
const NMS_IOU: f32 = 0.45;

/// Hidden (offloaded) layers of Tincy YOLO.
pub const HIDDEN_LAYERS: usize = 7;

/// Frames the traced sweep runs through every layer.
const SWEEP_FRAMES: usize = 8;

/// Repetitions of the set-up calls the sweep times.
const SETUP_REPS: usize = 3;

pub type Result<T> = std::result::Result<T, String>;

/// Expected detections of every pool frame, computed on the host
/// reference path (`ServeEngine::process_host`, which runs the offloaded
/// segment through `OffloadLayer::forward_host`).
pub fn reference_detections(sys: &SystemConfig, pool: &[Image]) -> Result<Vec<Vec<Detection>>> {
    let mut engine = ServeEngine::cpu(sys, SCORE_THRESHOLD).map_err(|e| e.to_string())?;
    pool.iter()
        .map(|image| engine.process_host(image).map_err(|e| e.to_string()))
        .collect()
}

/// The detection decoder of the offloaded network, built as `run_demo`
/// builds it.
pub fn decoder(input_size: usize) -> Result<RegionLayer> {
    let spec = offloaded_spec(input_size);
    let Some(LayerSpec::Region(region)) = spec.layers.last() else {
        return Err("offloaded spec does not end in a region layer".to_owned());
    };
    let params = RegionParams::from(region);
    let grid = input_size / 32;
    RegionLayer::new(Shape3::new(params.expected_channels(), grid, grid), params)
        .map_err(|e| e.to_string())
}

/// FNV-1a over every detection's class, score and box bits.
pub fn fingerprint(detections: &[Vec<Detection>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for frame in detections {
        eat(frame.len() as u64);
        for d in frame {
            eat(d.class as u64);
            eat(u64::from(d.score.to_bits()));
            for v in [d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h] {
                eat(u64::from(v.to_bits()));
            }
        }
    }
    h
}

/// Figures that must repeat exactly from run to run of one build.
pub type Counts = BTreeMap<String, String>;

/// The deterministic counts of a run: those fixed by the workload alone,
/// and those that also depend on the seed.
pub struct RunCounts {
    pub workload: Counts,
    pub seeded: Counts,
}

/// One network of the workload, opened up for per-layer calls.
pub struct Probe {
    sys: SystemConfig,
    net: Network,
    offload_idx: usize,
    /// A fault-free copy of the fabric accelerator inside the network.
    accel: QnnAccelerator,
    act_step: f32,
    decoder: RegionLayer,
    engine: ConvEngine,
    /// Fabric reports of one batch-of-1 and one batch-of-4 invocation,
    /// taken by [`Probe::counts`].
    reports: Option<(AccelReport, AccelReport)>,
}

impl Probe {
    pub fn build(sys: &SystemConfig) -> Result<Self> {
        let mut net = build_offloaded_network(sys).map_err(|e| e.to_string())?;
        let kinds: Vec<&str> = (0..net.num_layers()).map(|i| net.layer(i).kind()).collect();
        if kinds != ["conv", "offload", "conv", "region"] {
            return Err(format!("unexpected Tincy layer layout {kinds:?}"));
        }
        let offload_idx = 1;
        let offload = net
            .layer_mut(offload_idx)
            .as_offload_mut()
            .ok_or("layer 1 is not an offload layer")?;
        offload.set_retry_policy(sys.retry);
        let fabric = offload
            .backend()
            .as_any()
            .downcast_ref::<FabricBackend>()
            .ok_or("offload backend is not the fabric")?;
        let mut accel = fabric
            .accelerator()
            .ok_or("fabric accelerator not built")?
            .clone();
        accel.set_fault_injector(None);
        let act_step = fabric.act_step();
        let decoder = decoder(sys.input_size)?;
        if accel.layers().len() != HIDDEN_LAYERS {
            return Err(format!("expected {HIDDEN_LAYERS} hidden layers"));
        }
        Ok(Self {
            sys: *sys,
            net,
            offload_idx,
            accel,
            act_step,
            decoder,
            engine: ConvEngine::new(sys.engine).map_err(|e| e.to_string())?,
            reports: None,
        })
    }

    /// The quantized offload input of a frame (letterbox, CPU prologue,
    /// then the fabric backend's activation quantization).
    fn offload_input(&mut self, image: &Image) -> Result<Tensor<u8>> {
        let mut x = image.letterboxed(self.sys.input_size).into_tensor();
        for i in 0..self.offload_idx {
            x = self.net.forward_layer(i, &x).map_err(|e| e.to_string())?;
        }
        let step = self.act_step;
        Ok(x.map(|v| ((v / step).round().clamp(0.0, 7.0)) as u8))
    }

    /// The deterministic counts: per-layer ops and modelled cycles, device
    /// time, the kernel plan and the detections fingerprint. Also checks
    /// the fabric and packed-kernel paths agree bit for bit.
    pub fn counts(&mut self, pool: &[Image], oracle: &[Vec<Detection>]) -> Result<RunCounts> {
        let inputs = pool
            .iter()
            .take(4)
            .map(|image| self.offload_input(image))
            .collect::<Result<Vec<_>>>()?;
        let (out1, b1) = self
            .accel
            .run_batch(&inputs[..1])
            .map_err(|e| e.to_string())?;
        let (out4, b4) = self.accel.run_batch(&inputs).map_err(|e| e.to_string())?;
        if out1[0] != out4[0] {
            return Err("FINN batch-of-1 and batch-of-4 outputs differ".to_owned());
        }
        for (input, out) in inputs.iter().zip(&out4) {
            let host = self.accel.reference_run(input).map_err(|e| e.to_string())?;
            if &host != out {
                return Err("FINN and packed-kernel outputs differ".to_owned());
            }
        }
        let mut c = Counts::new();
        let mut put = |k: String, v: String| c.insert(k, v);
        for (i, layer) in self.accel.layers().iter().enumerate() {
            put(format!("finn.L{i}.ops"), layer.ops().to_string());
            put(format!("finn.L{i}.cycles"), b1.layer_cycles[i].to_string());
            let entry = self.accel.kernel_plan().entry(i);
            put(
                format!("kernels.L{i}.variant"),
                format!("{}x{}", entry.variant.label(), entry.threads),
            );
        }
        put(
            "finn.compute_cycles".into(),
            b1.layer_cycles.iter().sum::<u64>().to_string(),
        );
        put("finn.swap_cycles".into(), b1.weight_swap_cycles.to_string());
        put("finn.b4.total_cycles".into(), b4.total_cycles().to_string());
        put(
            "finn.device_ms_per_frame.b1".into(),
            (b1.total_seconds() * 1e3).to_string(),
        );
        put(
            "finn.device_ms_per_frame.b4".into(),
            (b4.total_seconds() * 1e3 / b4.batch as f64).to_string(),
        );
        put(
            "nn.first_conv_ops".into(),
            self.net.layer(0).ops_per_frame().to_string(),
        );
        let detections: usize = oracle.iter().map(Vec::len).sum();
        self.reports = Some((b1, b4));
        let seeded = Counts::from([
            ("eval.detections".to_owned(), detections.to_string()),
            (
                "detections.fingerprint".to_owned(),
                format!("{:016x}", fingerprint(oracle)),
            ),
        ]);
        Ok(RunCounts {
            workload: c,
            seeded,
        })
    }

    /// Times every layer's public functions on the first frames of the
    /// pool (the traced run only). Outputs are checked against the oracle
    /// and across the fabric, per-layer engine and packed-kernel paths.
    pub fn sweep(
        &mut self,
        workload: Workload,
        seed: u64,
        pool: &[Image],
        oracle: &[Vec<Detection>],
        tracer: &Tracer,
    ) -> Result<Metrics> {
        let n = SWEEP_FRAMES.min(pool.len());
        let size = self.sys.input_size;
        let mut camera = SyntheticCamera::with_limit(gen::scene(seed), seed, n as u64);
        let mut inputs = Vec::with_capacity(n);
        for i in 0..n {
            let item = i as u64;
            let mut image = tracer
                .time("video.capture", item, || camera.capture())
                .ok_or("camera ended early")?;
            if image != pool[i] {
                return Err("camera frame differs from the generated pool".to_owned());
            }
            let mut x = tracer.time("video.letterbox", item, || {
                image.letterboxed(size).into_tensor()
            });
            for (l, name) in ["nn.first_conv", "nn.offload", "nn.out_conv", "nn.region"]
                .into_iter()
                .enumerate()
            {
                let net = &mut self.net;
                x = tracer
                    .time(name, item, || net.forward_layer(l, &x))
                    .map_err(|e| e.to_string())?;
            }
            let decoder = &self.decoder;
            let dets = tracer.time("eval.decode_nms", item, || {
                nms(decoder.decode(&x, SCORE_THRESHOLD), NMS_IOU)
            });
            if dets != oracle[i] {
                return Err(format!(
                    "sweep detections of frame {i} differ from the oracle"
                ));
            }
            tracer.time("video.draw", item, || draw_detections(&mut image, &dets));
            inputs.push(self.offload_input(&pool[i])?);
        }

        let accel = &self.accel;
        let plan = accel.kernel_plan();
        let (b1, _) = self.reports.as_ref().ok_or("sweep before counts")?;
        for (i, input) in inputs.iter().enumerate() {
            let item = i as u64;
            let (fabric, _) = tracer
                .time("finn.run_batch.b1", item, || {
                    accel.run_batch(std::slice::from_ref(input))
                })
                .map_err(|e| e.to_string())?;
            let host = tracer
                .time("kernels.reference_run", item, || accel.reference_run(input))
                .map_err(|e| e.to_string())?;
            if host != fabric[0] {
                return Err("packed reference differs from the fabric".to_owned());
            }
            let mut fmap = input.clone();
            for (l, (layer, packed)) in accel.layers().iter().zip(accel.packed_layers()).enumerate()
            {
                let engine = &self.engine;
                let (out, cycles) = tracer
                    .time(&format!("finn.run_layer.L{l}"), item, || {
                        engine.run_layer(layer, &fmap)
                    })
                    .map_err(|e| e.to_string())?;
                if cycles != b1.layer_cycles[l] {
                    return Err(format!(
                        "layer {l} cycles differ between run_layer and run_batch"
                    ));
                }
                let entry = plan.entry(l);
                let packed_out = tracer.time(&format!("kernels.forward.L{l}"), item, || {
                    packed.forward(&fmap, entry.variant, entry.threads)
                });
                if packed_out != out {
                    return Err(format!("packed layer {l} differs from the engine"));
                }
                fmap = out;
            }
        }
        for (i, chunk) in inputs.chunks_exact(4).enumerate() {
            tracer
                .time("finn.run_batch.b4", i as u64, || accel.run_batch(chunk))
                .map_err(|e| e.to_string())?;
        }
        for rep in 0..SETUP_REPS {
            let item = rep as u64;
            tracer.time("kernels.plan", item, || {
                let packed: Vec<PackedLayer> = accel
                    .layers()
                    .iter()
                    .zip(accel.packed_layers())
                    .map(|(layer, p)| {
                        PackedLayer::new(
                            layer.in_shape(),
                            layer.weights().clone(),
                            layer.thresholds().clone(),
                            layer.geom(),
                            layer.pool(),
                            p.act_bits(),
                        )
                    })
                    .collect();
                autotune(&packed, &TuneBudget::default())
            });
            tracer
                .time("core.build", item, || build_offloaded_network(&self.sys))
                .map_err(|e| e.to_string())?;
            let server = tracer
                .time("serve.start", item, || {
                    InferenceServer::start(workload.serve_config(seed))
                })
                .map_err(|e| e.to_string())?;
            server.finish();
        }
        Ok(self.layer_metrics(tracer))
    }

    fn layer_metrics(&self, tracer: &Tracer) -> Metrics {
        let (b1, b4) = self.reports.as_ref().expect("sweep runs after counts");
        let med = |name: &str, scale: f64| -> f64 {
            let d = tracer.durations(name);
            median(
                &d.iter()
                    .map(|d| d.as_secs_f64() * scale)
                    .collect::<Vec<_>>(),
            )
        };
        let (ms, us) = (1e3, 1e6);
        let device_b1 = b1.total_seconds() * ms;
        let host_b1 = med("finn.run_batch.b1", ms);
        let macs: u64 = self.accel.layers().iter().map(|l| l.ops() / 2).sum();
        let mut m = Metrics::default();
        m.push("finn.host_ms_per_frame.b1", host_b1, "ms", Clock::Host);
        m.push(
            "finn.host_ms_per_frame.b4",
            med("finn.run_batch.b4", ms) / 4.0,
            "ms",
            Clock::Host,
        );
        m.push(
            "finn.host_ns_per_mac",
            host_b1 * 1e6 / macs as f64,
            "ns",
            Clock::Host,
        );
        m.push(
            "finn.device_cycles_per_frame.b1",
            b1.cycles_per_frame() as f64,
            "cycles",
            Clock::Device,
        );
        m.push(
            "finn.device_cycles_per_frame.b4",
            b4.cycles_per_frame() as f64,
            "cycles",
            Clock::Device,
        );
        let compute: u64 = b1.layer_cycles.iter().sum();
        m.push(
            "finn.compute_cycles",
            compute as f64,
            "cycles",
            Clock::Device,
        );
        m.push(
            "finn.swap_cycles",
            b1.weight_swap_cycles as f64,
            "cycles",
            Clock::Device,
        );
        m.push("finn.sim_slowdown", host_b1 / device_b1, "x", Clock::None);
        for (l, layer) in self.accel.layers().iter().enumerate() {
            let cycles = b1.layer_cycles[l];
            m.push(
                format!("finn.L{l}.host_ms"),
                med(&format!("finn.run_layer.L{l}"), ms),
                "ms",
                Clock::Host,
            );
            m.push(
                format!("finn.L{l}.cycles"),
                cycles as f64,
                "cycles",
                Clock::Device,
            );
            m.push(
                format!("finn.L{l}.ops"),
                layer.ops() as f64,
                "ops",
                Clock::None,
            );
        }
        m.push(
            "kernels.host_ms_per_frame",
            med("kernels.reference_run", ms),
            "ms",
            Clock::Host,
        );
        m.push(
            "kernels.plan_ms",
            med("kernels.plan", ms),
            "ms",
            Clock::Host,
        );
        for l in 0..HIDDEN_LAYERS {
            m.push(
                format!("kernels.L{l}.host_ms"),
                med(&format!("kernels.forward.L{l}"), ms),
                "ms",
                Clock::Host,
            );
        }
        m.push(
            "nn.first_conv_ms",
            med("nn.first_conv", ms),
            "ms",
            Clock::Host,
        );
        m.push(
            "nn.first_conv_ops",
            self.net.layer(0).ops_per_frame() as f64,
            "ops",
            Clock::None,
        );
        m.push("nn.out_conv_ms", med("nn.out_conv", ms), "ms", Clock::Host);
        m.push("nn.region_us", med("nn.region", us), "us", Clock::Host);
        m.push("nn.offload_ms", med("nn.offload", ms), "ms", Clock::Host);
        m.push(
            "video.capture_us",
            med("video.capture", us),
            "us",
            Clock::Host,
        );
        m.push(
            "video.letterbox_us",
            med("video.letterbox", us),
            "us",
            Clock::Host,
        );
        m.push("video.draw_us", med("video.draw", us), "us", Clock::Host);
        m.push(
            "eval.decode_nms_us",
            med("eval.decode_nms", us),
            "us",
            Clock::Host,
        );
        m.push("core.build_ms", med("core.build", ms), "ms", Clock::Host);
        m.push("serve.start_ms", med("serve.start", ms), "ms", Clock::Host);
        m
    }
}
