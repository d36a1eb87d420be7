//! The generalized convolutional layer engine.
//!
//! §III-A: "only a single generalized convolutional layer together with its
//! subsequent pooling layer would fit into the available fabric. The layers
//! of the network must be run one after the other on the same accelerator."
//! [`conv_layer_cycles`] is that engine's cost, the only copy of the cycle
//! model. [`ConvEngine::run_layer`] is its behavioural model (sliding window
//! → MVTU → pool, pixel by pixel): the test oracle for the accelerator,
//! which takes its values from the packed kernels instead.

use crate::accel::QnnLayerParams;
use crate::mvtu::Mvtu;
use crate::sliding::SlidingWindow;
use tincy_kernels::max_pool_levels;
use tincy_nn::NnError;
use tincy_tensor::{Shape3, Tensor};

/// Engine folding and clocking configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Output-channel parallelism of the MVTU.
    pub pe: usize,
    /// Dot-element parallelism of the MVTU.
    pub simd: usize,
    /// Fabric clock in Hz.
    pub clock_hz: u64,
    /// Pipeline fill/drain overhead per layer invocation, in cycles.
    pub pipeline_latency: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        // 16x16 at 300 MHz: 256 binary MACs/cycle, the operating point that
        // reproduces the paper's 30 ms hidden-layer budget.
        Self::from(tincy_nn::FoldSpec::SHIPPED)
    }
}

impl From<tincy_nn::FoldSpec> for EngineConfig {
    fn from(fold: tincy_nn::FoldSpec) -> Self {
        Self {
            pe: fold.pe,
            simd: fold.simd,
            clock_hz: fold.clock_hz,
            pipeline_latency: fold.pipeline_latency,
        }
    }
}

impl From<EngineConfig> for tincy_nn::FoldSpec {
    fn from(config: EngineConfig) -> Self {
        Self {
            pe: config.pe,
            simd: config.simd,
            clock_hz: config.clock_hz,
            pipeline_latency: config.pipeline_latency,
        }
    }
}

/// One generalized conv(+pool) engine instance.
#[derive(Debug, Clone)]
pub struct ConvEngine {
    config: EngineConfig,
}

impl ConvEngine {
    /// Creates an engine.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] for zero folding or clock.
    pub fn new(config: EngineConfig) -> Result<Self, NnError> {
        if config.pe == 0 || config.simd == 0 || config.clock_hz == 0 {
            return Err(NnError::InvalidSpec {
                what: "engine pe, simd and clock must be nonzero".to_owned(),
            });
        }
        Ok(Self { config })
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Runs one layer through the behavioural model, returning the 3-bit
    /// output feature map and the consumed cycles — a test oracle, not a
    /// serving path.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the input does not match the layer geometry.
    pub fn run_layer(
        &self,
        params: &QnnLayerParams,
        input: &Tensor<u8>,
    ) -> Result<(Tensor<u8>, u64), NnError> {
        if input.shape() != params.in_shape() {
            return Err(NnError::ShapeMismatch {
                expected: params.in_shape().to_string(),
                actual: input.shape().to_string(),
            });
        }
        let swu = SlidingWindow::new(params.in_shape(), params.geom())?;
        let mvtu = Mvtu::new(
            params.weights().clone(),
            params.thresholds().clone(),
            self.config.pe,
            self.config.simd,
        )?;
        let conv_shape = Shape3::new(mvtu.out_channels(), swu.out_height(), swu.out_width());
        let mut conv_out = Tensor::zeros(conv_shape);
        for oy in 0..swu.out_height() {
            for ox in 0..swu.out_width() {
                let footprint = swu.footprint(input, oy, ox);
                for (c, level) in mvtu.process(&footprint).into_iter().enumerate() {
                    *conv_out.at_mut(c, oy, ox) = level;
                }
            }
        }
        let cycles = params.cycles(self.config);
        let out = match params.pool() {
            Some(pool) => max_pool_levels(&conv_out, pool),
            None => conv_out,
        };
        Ok((out, cycles))
    }
}

/// Cycles one engine invocation takes for a conv layer: each output pixel
/// takes `ceil(K²·C/simd) · ceil(channels/pe)` beats, plus the pipeline
/// fill once. The in-stream pool unit runs at line rate and adds none.
pub fn conv_layer_cycles(
    in_shape: Shape3,
    out_channels: usize,
    geom: tincy_tensor::ConvGeom,
    config: EngineConfig,
) -> u64 {
    let out = geom.output_shape(in_shape, out_channels);
    let fold =
        geom.dot_length(in_shape.channels).div_ceil(config.simd) * out_channels.div_ceil(config.pe);
    out.spatial() as u64 * fold as u64 + config.pipeline_latency
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::QnnLayerParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tincy_quant::{ThresholdSet, ThresholdsForLayer};
    use tincy_tensor::{BitTensor, ConvGeom, PoolGeom};

    fn layer_params(
        rng: &mut StdRng,
        in_shape: Shape3,
        out_c: usize,
        geom: ConvGeom,
        pool: Option<PoolGeom>,
    ) -> QnnLayerParams {
        let cols = geom.dot_length(in_shape.channels);
        let signs: Vec<i8> = (0..out_c * cols)
            .map(|_| if rng.gen() { 1 } else { -1 })
            .collect();
        let weights = BitTensor::from_signs(out_c, cols, &signs).unwrap();
        let thresholds = ThresholdsForLayer::new(
            (0..out_c)
                .map(|_| {
                    let base = rng.gen_range(-10i32..0);
                    ThresholdSet::new((0..7).map(|k| base + k * 3).collect()).unwrap()
                })
                .collect(),
        )
        .unwrap();
        QnnLayerParams::new(in_shape, weights, thresholds, geom, pool).unwrap()
    }

    #[test]
    fn engine_output_is_three_bit() {
        let mut rng = StdRng::seed_from_u64(9);
        let in_shape = Shape3::new(4, 6, 6);
        let params = layer_params(&mut rng, in_shape, 8, ConvGeom::same(3, 1), None);
        let engine = ConvEngine::new(EngineConfig::default()).unwrap();
        let input = Tensor::from_fn(in_shape, |_, _, _| rng.gen_range(0..8) as u8);
        let (out, cycles) = engine.run_layer(&params, &input).unwrap();
        assert_eq!(out.shape(), Shape3::new(8, 6, 6));
        assert!(out.as_slice().iter().all(|&v| v <= 7));
        assert!(cycles > 0);
    }

    #[test]
    fn fused_pool_halves_output() {
        let mut rng = StdRng::seed_from_u64(10);
        let in_shape = Shape3::new(4, 8, 8);
        let params = layer_params(
            &mut rng,
            in_shape,
            8,
            ConvGeom::same(3, 1),
            Some(PoolGeom::new(2, 2)),
        );
        let engine = ConvEngine::new(EngineConfig::default()).unwrap();
        let input = Tensor::from_fn(in_shape, |_, _, _| rng.gen_range(0..8) as u8);
        let (out, _) = engine.run_layer(&params, &input).unwrap();
        assert_eq!(out.shape(), Shape3::new(8, 4, 4));
    }

    #[test]
    fn cycles_scale_with_folding() {
        let mut rng = StdRng::seed_from_u64(11);
        let in_shape = Shape3::new(16, 8, 8);
        let params = layer_params(&mut rng, in_shape, 32, ConvGeom::same(3, 1), None);
        let input = Tensor::from_fn(in_shape, |_, _, _| rng.gen_range(0..8) as u8);
        let fast = ConvEngine::new(EngineConfig {
            pe: 32,
            simd: 16,
            ..Default::default()
        })
        .unwrap();
        let slow = ConvEngine::new(EngineConfig {
            pe: 8,
            simd: 4,
            ..Default::default()
        })
        .unwrap();
        let (out_fast, cycles_fast) = fast.run_layer(&params, &input).unwrap();
        let (out_slow, cycles_slow) = slow.run_layer(&params, &input).unwrap();
        // Folding changes time, never results.
        assert_eq!(out_fast, out_slow);
        assert!(cycles_slow > cycles_fast);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut rng = StdRng::seed_from_u64(12);
        let params = layer_params(
            &mut rng,
            Shape3::new(4, 6, 6),
            8,
            ConvGeom::same(3, 1),
            None,
        );
        let engine = ConvEngine::new(EngineConfig::default()).unwrap();
        let wrong = Tensor::<u8>::zeros(Shape3::new(4, 7, 7));
        assert!(engine.run_layer(&params, &wrong).is_err());
    }

    #[test]
    fn folding_cycle_model() {
        let config = EngineConfig {
            pe: 4,
            simd: 8,
            pipeline_latency: 5,
            ..Default::default()
        };
        // 3 input channels: K²·C = 27 -> ceil(27/8) * ceil(6/4) = 4 * 2 = 8
        // beats per pixel over a 4x4 "same" output, plus the fill latency.
        let cycles = conv_layer_cycles(Shape3::new(3, 4, 4), 6, ConvGeom::same(3, 1), config);
        assert_eq!(cycles, 16 * 8 + 5);
    }
}
