//! The four workloads and the configuration each hands the program.

use tincy_core::SystemConfig;
use tincy_finn::FaultPlan;
use tincy_serve::ServeConfig;

/// Detection score threshold of every workload. The seeded random-weight
/// detector scores top out near 0.03, so the default 0.2 would leave every
/// frame without detections and the output check with nothing to compare.
pub const SCORE_THRESHOLD: f32 = 0.027;

/// Pipeline workers of the demo (one per core of a 2-core host).
pub const DEMO_WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The live camera-to-display loop at 128×128, closed and source-driven.
    Demo,
    /// Open-loop serving at 20 req/s, 64×64: the unloaded path.
    ServeLight,
    /// Open-loop serving at 80 req/s, 64×64: past FINN-only capacity.
    ServeHeavy,
    /// Open-loop serving at 70 req/s, 64×64, with every FINN invocation
    /// faulted.
    ServeOutage,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Demo,
        Workload::ServeLight,
        Workload::ServeHeavy,
        Workload::ServeOutage,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Demo => "demo",
            Workload::ServeLight => "serve-light",
            Workload::ServeHeavy => "serve-heavy",
            Workload::ServeOutage => "serve-outage",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Offered rate of an open-loop workload, in requests per second.
    pub fn rate(self) -> Option<f64> {
        match self {
            Workload::Demo => None,
            Workload::ServeLight => Some(20.0),
            Workload::ServeHeavy => Some(80.0),
            // At 80 req/s the fallback path runs at its capacity whenever
            // the host slows, and runs flip into overload.
            Workload::ServeOutage => Some(70.0),
        }
    }

    /// Distinct frames the generator produces; requests and demo frames
    /// cycle through them.
    pub fn pool_size(self) -> usize {
        match self {
            Workload::Demo => 24,
            _ => 16,
        }
    }

    pub fn system(self, seed: u64) -> SystemConfig {
        let (input_size, fault_plan) = match self {
            Workload::Demo => (128, FaultPlan::none()),
            Workload::ServeLight | Workload::ServeHeavy => (64, FaultPlan::none()),
            Workload::ServeOutage => (64, FaultPlan::outage(0, u64::MAX)),
        };
        SystemConfig {
            input_size,
            seed,
            fault_plan,
            ..SystemConfig::default()
        }
    }

    /// `ServeConfig` defaults except one CPU worker (the FINN worker plus
    /// one host worker fill the two cores) and the score threshold.
    pub fn serve_config(self, seed: u64) -> ServeConfig {
        ServeConfig {
            system: self.system(seed),
            cpu_workers: 1,
            score_threshold: SCORE_THRESHOLD,
            ..ServeConfig::default()
        }
    }
}
