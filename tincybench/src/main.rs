//! `tincybench` — end-to-end and per-layer benchmark of the Tincy stack.
//!
//! ```text
//! cargo run --offline --release --manifest-path tincybench/Cargo.toml -- \
//!     --workload <demo|serve-light|serve-heavy|serve-outage|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the benchmark's tracing
//! off. `--trace 1` repeats that run, runs the workload again with spans
//! around the benchmark's calls into the program (the difference is the
//! tracing overhead), then sweeps every layer's public functions and
//! reports the per-layer metrics. Every output is checked against the host
//! reference; any mismatch, ordering or conservation failure, or a
//! deterministic count that differs from an earlier run of the same build,
//! exits nonzero without a result line. See `README.md`.

mod demo;
mod gen;
mod layers;
mod serve;
mod spans;
mod state;
mod stats;
mod workload;

use layers::{Probe, Result};
use spans::Tracer;
use stats::{median, ms, percentile_label, quantile, tail_percentile, Clock, Metrics};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tincy_nn::OffloadStats;
use tincy_serve::InferenceServer;
use workload::Workload;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Frames of the untimed `run_demo` cross-check.
const CROSS_CHECK_FRAMES: u64 = 4;

/// The tail percentile every workload prints under one name.
const TAIL: f64 = 90.0;

const USAGE: &str = "usage: tincybench --workload <demo|serve-light|serve-heavy|serve-outage|all> \
--seed <n> --seconds <1..=600> --trace <0|1>";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args> {
    let (mut workloads, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                workloads = Some(vec![Workload::parse(&value).ok_or_else(|| bad("workload"))?]);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("seconds"))?;
                seconds = Some(s).filter(|s| (1..=600).contains(s));
                seconds.ok_or_else(|| bad("seconds"))?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One measured run of a workload.
enum Run {
    Demo(demo::DemoOutcome),
    Serve(Box<serve::ServeOutcome>),
}

/// The workload's inputs, the oracle's answers and the set-up it needs.
struct Bench {
    workload: Workload,
    seed: u64,
    pool: Arc<Vec<tincy_video::Image>>,
    oracle: Vec<Vec<tincy_eval::Detection>>,
}

impl Bench {
    /// Sets the system up `reps` times (timing each), then measures one run
    /// of length `span` on the last set-up.
    fn measure(
        &self,
        span: Duration,
        tracer: &Arc<Tracer>,
        reps: usize,
    ) -> Result<(Run, Vec<Duration>)> {
        let sys = self.workload.system(self.seed);
        let mut setups = Vec::with_capacity(reps);
        if self.workload == Workload::Demo {
            let mut parts = None;
            for _ in 0..reps {
                let t = Instant::now();
                parts = Some(demo::setup(&sys)?);
                setups.push(t.elapsed());
            }
            let parts = parts.expect("at least one set-up");
            let run = demo::run(parts, &sys, &self.pool, &self.oracle, span, tracer)?;
            return Ok((Run::Demo(run), setups));
        }
        let config = self.workload.serve_config(self.seed);
        let mut server = None;
        for _ in 0..reps {
            if let Some(idle) = server.take() {
                InferenceServer::finish(idle);
            }
            let t = Instant::now();
            server = Some(InferenceServer::start(config.clone()).map_err(|e| e.to_string())?);
            setups.push(t.elapsed());
        }
        let server = server.expect("at least one set-up");
        let rate = self.workload.rate().expect("serving workloads have a rate");
        let schedule = gen::poisson_schedule(self.seed, rate, span, gen::CLIENTS, self.pool.len());
        let run = serve::run(server, &config, &schedule, &self.pool, &self.oracle, tracer)?;
        Ok((Run::Serve(Box::new(run)), setups))
    }
}

/// Attempted and failed (shed) items of a run, and its end-to-end metrics
/// without `setup_s` and `peak_rss_mb`.
struct EndToEnd {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// Workload-specific figures, printed but not part of the result line.
    extra: Metrics,
}

fn end_to_end(run: &Run, tracer: &Tracer) -> Result<EndToEnd> {
    let (attempted, completed, correct, good, latencies) = match run {
        Run::Demo(d) => (d.frames, d.frames, d.correct, d.correct, &d.latencies),
        Run::Serve(s) => {
            let t = &s.tally;
            (
                t.attempted,
                t.completed,
                t.correct,
                t.within_slo,
                &t.latencies,
            )
        }
    };
    if correct != completed {
        return Err(format!(
            "{} of {completed} outputs differ from the host reference",
            completed - correct
        ));
    }
    if latencies.is_empty() {
        return Err("no completions".to_owned());
    }
    let (elapsed, rate_name) = match run {
        Run::Demo(d) => (d.elapsed, "fps"),
        Run::Serve(s) => (s.tally.elapsed, "goodput_rps"),
    };
    let lat = ms(latencies);
    let goodput = good as f64 / elapsed.as_secs_f64();
    let mut m = Metrics::default();
    m.push(
        "ok_share",
        correct as f64 / attempted as f64,
        "share",
        Clock::None,
    );
    m.push("goodput_per_s", goodput, "1/s", Clock::Host);

    let mut extra = Metrics::default();
    let failed = attempted - completed;
    extra.push(
        "fail_share",
        failed as f64 / attempted as f64,
        "share",
        Clock::None,
    );
    extra.push(rate_name, goodput, "1/s", Clock::Host);
    extra.push("completions", lat.len() as f64, "count", Clock::None);
    extra.push("p50_ms", median(&lat), "ms", Clock::Host);
    // The p90 on every workload long enough for it, and the highest
    // percentile the run's sample count supports.
    let tail = tail_percentile(lat.len()).unwrap_or(50.0);
    for p in [TAIL, tail] {
        let name = percentile_label(p) + "_ms";
        if p <= tail && p > 50.0 && extra.get(&name).is_none() {
            extra.push(name, quantile(&lat, p / 100.0), "ms", Clock::Host);
        }
    }
    match run {
        Run::Demo(d) => {
            let (speedup, bottleneck, idle) = d.pipeline_figures();
            extra.push("pipeline.speedup", speedup, "x", Clock::Host);
            extra.push(
                "pipeline.bottleneck_share",
                bottleneck,
                "share",
                Clock::Host,
            );
            extra.push("pipeline.idle_share", idle, "share", Clock::Host);
            for name in tracer.names() {
                let d = ms(&tracer.durations(&name));
                extra.push(format!("{name}.ms"), median(&d), "ms", Clock::Host);
            }
        }
        Run::Serve(s) => {
            let r = &s.report;
            let late = ms(&s.tally.lateness);
            let late_tail = tail_percentile(late.len()).unwrap_or(50.0);
            extra.push(
                format!("gen.late_{}_ms", percentile_label(late_tail)),
                quantile(&late, late_tail / 100.0),
                "ms",
                Clock::Host,
            );
            extra.push("gen.late_max_ms", quantile(&late, 1.0), "ms", Clock::Host);
            let submits = tracer.durations("serve.submit");
            if !submits.is_empty() {
                let us: Vec<f64> = submits.iter().map(|d| d.as_secs_f64() * 1e6).collect();
                extra.push("serve.admit_us", median(&us), "us", Clock::Host);
            }
            let waits = r.queue_wait.count() as usize;
            let wait_tail = tail_percentile(waits).unwrap_or(50.0);
            extra.push(
                "serve.queue_wait_p50_ms",
                dur_ms(r.queue_wait.p50()),
                "ms",
                Clock::Host,
            );
            if wait_tail > 50.0 {
                extra.push(
                    format!("serve.queue_wait_{}_ms", percentile_label(wait_tail)),
                    dur_ms(r.queue_wait.quantile(wait_tail / 100.0)),
                    "ms",
                    Clock::Host,
                );
            }
            extra.push("serve.mean_batch", r.mean_batch(), "frames", Clock::None);
            extra.push(
                "serve.finn_util",
                r.finn_utilization(),
                "share",
                Clock::Host,
            );
            extra.push("serve.cpu_util", r.cpu_utilization(), "share", Clock::Host);
            let share = r.cpu_items as f64 / r.completed as f64;
            extra.push("serve.cpu_share", share, "share", Clock::None);
            extra.push("serve.rejected", r.rejected() as f64, "count", Clock::None);
            extra.push("serve.max_depth", r.max_depth as f64, "count", Clock::None);
        }
    }
    Ok(EndToEnd {
        attempted,
        failed,
        metrics: m,
        extra,
    })
}

fn dur_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Offload retry and fallback counters of a run.
fn offload_metrics(run: &Run) -> Metrics {
    // One FINN invocation per frame in the demo, one per micro-batch when
    // serving; each invocation makes one attempt plus its retries.
    let (stats, invocations): (OffloadStats, u64) = match run {
        Run::Demo(d) => (d.offload, d.offload.forwards),
        Run::Serve(s) => (s.report.offload, s.report.finn_batches),
    };
    let attempts = invocations + stats.retries;
    let mut m = Metrics::default();
    m.push("offload.faults", stats.faults as f64, "count", Clock::None);
    m.push(
        "offload.retries",
        stats.retries as f64,
        "count",
        Clock::None,
    );
    m.push(
        "offload.fallbacks",
        stats.fallbacks as f64,
        "count",
        Clock::None,
    );
    m.push(
        "offload.finn_ok_ratio",
        (attempts - stats.faults) as f64 / attempts.max(1) as f64,
        "ratio",
        Clock::None,
    );
    m
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The result of one workload invocation.
struct Outcome {
    workload: Workload,
    attempted: u64,
    failed: u64,
    /// The metrics of the result line.
    result: Metrics,
}

fn run_workload(workload: Workload, args: &Args) -> Result<Outcome> {
    let seed = args.seed;
    let span = Duration::from_secs(args.seconds);
    let sys = workload.system(seed);
    println!(
        "== tincybench {} seed={seed} seconds={} trace={} cores={}",
        workload.name(),
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );

    // Inputs, the oracle and the deterministic counts: none of it timed.
    let pool = Arc::new(gen::frame_pool(seed, workload.pool_size()));
    let oracle = layers::reference_detections(&sys, &pool)?;
    if workload == Workload::Demo {
        demo::cross_check(&sys, gen::scene(seed), CROSS_CHECK_FRAMES, &oracle)?;
    }
    let mut probe = Probe::build(&sys)?;
    let counts = probe.counts(&pool, &oracle)?;
    state::check(workload.name(), &counts.workload)?;
    state::check(&format!("{}-seed{seed}", workload.name()), &counts.seeded)?;
    println!("deterministic counts (identical on every run of this build):");
    for (k, v) in counts.workload.iter().chain(&counts.seeded) {
        println!("  {k:<36} {v}");
    }

    let bench = Bench {
        workload,
        seed,
        pool,
        oracle,
    };
    let untraced = Arc::new(Tracer::new(false));
    if !args.trace {
        let (run, setups) = bench.measure(span, &untraced, SETUP_REPS)?;
        let e2e = end_to_end(&run, &untraced)?;
        let setup_s = median(&setups.iter().map(Duration::as_secs_f64).collect::<Vec<_>>());
        let mut result = Metrics::default();
        result.push("setup_s", setup_s, "s", Clock::Host);
        result.push("peak_rss_mb", peak_rss_mb()?, "MB", Clock::None);
        result.extend(e2e.metrics);
        print_section("end-to-end (tracing off)", &result);
        print_section("workload figures (printed only)", &e2e.extra);
        return Ok(Outcome {
            workload,
            attempted: e2e.attempted,
            failed: e2e.failed,
            result,
        });
    }

    // The traced run's time is split evenly between an untraced and a
    // traced run of the same schedule; the difference is the overhead.
    let half = span / 2;
    let (run, _) = bench.measure(half, &untraced, 1)?;
    let e2e = end_to_end(&run, &untraced)?;
    let traced = Arc::new(Tracer::new(true));
    let (traced_run, _) = bench.measure(half, &traced, 1)?;
    let traced_e2e = end_to_end(&traced_run, &traced)?;
    println!("end-to-end, tracing off vs on (difference = the benchmark's tracing overhead):");
    for m in e2e.metrics.iter().chain(e2e.extra.iter()) {
        let traced_figure = traced_e2e
            .metrics
            .get(&m.name)
            .or(traced_e2e.extra.get(&m.name));
        let Some(on) = traced_figure.map(|t| t.value) else {
            continue;
        };
        let change = if m.value == 0.0 {
            "-".to_owned()
        } else {
            format!("{:+.2}%", (on - m.value) / m.value * 100.0)
        };
        println!(
            "  {:<36} {:>12.4} {:>12.4} {:>9} {:<6} {}",
            m.name,
            m.value,
            on,
            change,
            m.unit,
            m.clock.label()
        );
    }
    print_section(
        "workload figures, traced run (printed only)",
        &traced_e2e.extra,
    );

    let mut result = probe.sweep(workload, seed, &bench.pool, &bench.oracle, &traced)?;
    result.extend(offload_metrics(&traced_run));
    print_section("per-layer (traced run)", &result);
    let trace_path = state::state_dir().join(format!("trace-{}-{seed}.json", workload.name()));
    std::fs::write(&trace_path, traced.chrome_json())
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    println!("spans written to {}", trace_path.display());
    Ok(Outcome {
        workload,
        attempted: traced_e2e.attempted,
        failed: traced_e2e.failed,
        result,
    })
}

fn print_section(title: &str, metrics: &Metrics) {
    println!("{title}:");
    for m in metrics.iter() {
        println!(
            "  {:<36} {:>14.6} {:<8} {}",
            m.name,
            m.value,
            m.unit,
            m.clock.label()
        );
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &stats::Metric)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tincybench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcomes = Vec::new();
    for &workload in &args.workloads {
        match run_workload(workload, &args) {
            Ok(outcome) => outcomes.push(outcome),
            Err(e) => {
                eprintln!("tincybench: {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    let single = outcomes.len() == 1;
    let mut metrics = Vec::new();
    for o in &outcomes {
        for m in o.result.iter() {
            if !m.value.is_finite() {
                eprintln!("tincybench: {} is not a finite number", m.name);
                return ExitCode::FAILURE;
            }
            let name = if single {
                m.name.clone()
            } else {
                format!("{}.{}", o.workload.name(), m.name)
            };
            metrics.push((name, m));
        }
    }
    let attempted = outcomes.iter().map(|o| o.attempted).sum();
    let failed = outcomes.iter().map(|o| o.failed).sum();
    println!("{}", result_line(true, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
