//! A behavioural and cycle-approximate simulator of the FINN-style QNN
//! hardware accelerator the paper offloads Tincy YOLO's hidden layers to
//! (§II, §III-A/C).
//!
//! The real system instantiates, through the HLS library of FINN \[7\], a
//! single *generalized convolutional layer engine* (plus its subsequent
//! pooling layer) in the programmable logic of an XCZU3EG — the device is
//! too small for a per-layer dataflow pipeline, so "the layers of the
//! network must be run one after the other on the same accelerator". We
//! model exactly that:
//!
//! * [`accel`] — the layer-at-a-time accelerator executing a whole hidden
//!   stack on one engine, including weight-swap traffic. Its values come
//!   from the packed XNOR-popcount plan of `tincy-kernels` (shared with
//!   the CPU fallback), its time from the cycle model [`conv_layer_cycles`].
//! * [`engine`] — the cycle model, and [`ConvEngine::run_layer`], the
//!   behavioural model of one generalized conv(+pool) engine built from
//!   the units below: the **test oracle** for the accelerator.
//! * [`mvtu`] — the Matrix–Vector–Threshold Unit: PE×SIMD-folded
//!   XNOR-popcount dot products followed by integer threshold activations.
//!   Its arithmetic is **bit-exact** against the naive integer reference in
//!   [`tincy_quant::BinaryDot`].
//! * [`sliding`] — the sliding-window unit feeding kernel footprints to the
//!   MVTU (the on-the-fly `im2col` of the dataflow architecture).
//! * [`fault`] — deterministic fault injection for the offload boundary
//!   (DMA timeouts, busy fabric, corrupted result buffers, bitstream
//!   loss), driving the host-side retry/fallback machinery.
//! * [`resource`] / [`device`] — LUT/BRAM/DSP estimates and the XCZU3EG
//!   budget, reproducing the §III-A feasibility argument.
//! * [`backend`] — the `library=fabric.so` offload backend plugging the
//!   accelerator into `tincy-nn` networks (Fig 4).

pub mod accel;
pub mod backend;
pub mod device;
pub mod engine;
pub mod fault;
pub mod mvtu;
pub mod resource;
pub mod sliding;

pub use accel::{AccelReport, QnnAccelerator, QnnLayerParams};
pub use backend::{FabricBackend, FABRIC_LIBRARY};
pub use device::FpgaDevice;
pub use engine::{conv_layer_cycles, ConvEngine, EngineConfig};
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultStats, FaultWindow};
pub use mvtu::Mvtu;
pub use resource::{model_estimate, ResourceEstimate};
pub use sliding::SlidingWindow;
pub use tincy_kernels::max_pool_levels;
