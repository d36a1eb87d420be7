//! The benchmark's input generator (`gen` layer): seeded frame pools and
//! open-loop arrival schedules. Everything here is a pure function of the
//! `--seed` argument; the program under test only ever sees the frames and
//! the submission times this module produces.

use std::time::Duration;
use tincy_serve::SloClass;
use tincy_video::{Image, SceneConfig, SyntheticCamera};

/// SplitMix64: a tiny, well-mixed generator, so the schedule does not
/// depend on any random-number crate's stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent sub-seed for one use of the run seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// One scheduled request: when it is due (offset from the schedule
/// start), which client sends it and which pool frame it carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due: Duration,
    pub client: usize,
    pub frame: usize,
}

/// Clients of the serving workloads; client `i` always submits under
/// SLO class `i % 3`, so the classes take turns round-robin.
pub const CLIENTS: usize = 6;

/// SLO class of a client.
pub fn class_of(client: usize) -> SloClass {
    SloClass::ALL[client % SloClass::ALL.len()]
}

/// An open-loop Poisson schedule at `rate` requests per second over
/// `span`, conditioned on its count: exactly `round(rate · span)` arrival
/// times drawn uniformly over the span and sorted, which is a Poisson
/// process given its count. Every seed thus offers the same load, and
/// seeds differ only in when requests bunch up. Clients take turns
/// round-robin; frames are drawn uniformly from a pool of `pool`.
pub fn poisson_schedule(
    seed: u64,
    rate: f64,
    span: Duration,
    clients: usize,
    pool: usize,
) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(derive(seed, 1));
    let count = (rate * span.as_secs_f64()).round() as usize;
    let mut times: Vec<f64> = (0..count)
        .map(|_| rng.next_f64() * span.as_secs_f64())
        .collect();
    times.sort_by(f64::total_cmp);
    times
        .into_iter()
        .enumerate()
        .map(|(i, t)| Arrival {
            due: Duration::from_secs_f64(t),
            client: i % clients,
            frame: (rng.next_u64() % pool as u64) as usize,
        })
        .collect()
}

/// The synthetic scene of a seed: the default 128×96 camera with two to
/// five moving objects.
pub fn scene(seed: u64) -> SceneConfig {
    SceneConfig {
        num_objects: 2 + (derive(seed, 2) % 4) as usize,
        ..SceneConfig::default()
    }
}

/// The first `n` frames of the seed's synthetic camera — the same frames
/// `run_demo` captures for a system seeded with `seed`.
pub fn frame_pool(seed: u64, n: usize) -> Vec<Image> {
    let mut camera = SyntheticCamera::with_limit(scene(seed), seed, n as u64);
    std::iter::from_fn(|| camera.capture()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPAN: Duration = Duration::from_secs(10);

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(7, 80.0, SPAN, CLIENTS, 16);
        let b = poisson_schedule(7, 80.0, SPAN, CLIENTS, 16);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = poisson_schedule(7, 80.0, SPAN, CLIENTS, 16);
        let b = poisson_schedule(8, 80.0, SPAN, CLIENTS, 16);
        assert_ne!(a, b);
        assert_ne!(
            frame_pool(7, 2)[1].as_tensor(),
            frame_pool(8, 2)[1].as_tensor()
        );
    }

    #[test]
    fn poisson_mean_rate_and_exponential_gaps() {
        for seed in 0..5 {
            let s = poisson_schedule(seed, 30.0, SPAN, CLIENTS, 16);
            assert_eq!(s.len(), 300, "the mean rate is exact");
        }
        // Gaps of a Poisson process are exponential: mean 1/rate, and a
        // share e^-1 of them exceed the mean. 8000 gaps keep both within
        // a few standard errors of the bands below.
        let s = poisson_schedule(11, 80.0, Duration::from_secs(100), CLIENTS, 16);
        let gaps: Vec<f64> = s
            .windows(2)
            .map(|w| (w[1].due - w[0].due).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean * 80.0 - 1.0).abs() < 0.03, "mean gap {mean}");
        let above = gaps.iter().filter(|g| **g > mean).count() as f64 / gaps.len() as f64;
        assert!(
            (above - (-1.0f64).exp()).abs() < 0.02,
            "share above mean {above}"
        );
    }

    #[test]
    fn schedule_is_ordered_round_robin_and_in_range() {
        let s = poisson_schedule(3, 80.0, SPAN, CLIENTS, 16);
        assert!(s.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(s.iter().enumerate().all(|(i, a)| a.client == i % CLIENTS));
        assert!(s.iter().all(|a| a.frame < 16 && a.due < SPAN));
        let classes: Vec<_> = (0..3).map(class_of).collect();
        assert_eq!(classes, SloClass::ALL);
    }
}
