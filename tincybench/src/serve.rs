//! The serving workloads: one `InferenceServer`, loaded open-loop by a
//! single generator thread that submits on schedule and polls
//! `ClientHandle::try_recv` between submissions.

use crate::gen::{class_of, Arrival, CLIENTS};
use crate::layers::Result;
use crate::spans::Tracer;
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use tincy_eval::Detection;
use tincy_serve::{ClientHandle, InferenceServer, ServeConfig, ServeReport};
use tincy_video::Image;

/// How long the generator sleeps at most between polls.
const POLL: Duration = Duration::from_micros(1000);

/// Requests sent one at a time before the schedule starts, to warm the
/// backends; they are checked but not counted.
const WARMUP: usize = 4;

/// Grace period after the last arrival for outstanding responses.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// What the generator observed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub rejected: u64,
    pub completed: u64,
    /// Completions whose detections matched the oracle.
    pub correct: u64,
    /// Correct completions within their class SLO, timed from the due time.
    pub within_slo: u64,
    /// Latency of each completion, from its due time to its receipt.
    pub latencies: Vec<Duration>,
    /// How late the generator submitted each request.
    pub lateness: Vec<Duration>,
    /// From the start of the schedule to the last response.
    pub elapsed: Duration,
}

pub struct ServeOutcome {
    pub tally: Tally,
    pub report: ServeReport,
}

struct Outstanding {
    seq: u64,
    /// Offset of the due time from the start of the schedule.
    offset: Duration,
    frame: usize,
}

/// Sends `schedule` to the server and collects every response.
pub fn run(
    server: InferenceServer,
    config: &ServeConfig,
    schedule: &[Arrival],
    pool: &[Image],
    oracle: &[Vec<Detection>],
    tracer: &Tracer,
) -> Result<ServeOutcome> {
    let warm = server.client();
    for (i, image) in pool.iter().take(WARMUP).enumerate() {
        warm.submit(image.clone(), class_of(0))
            .map_err(|e| format!("warm-up request refused: {e}"))?;
        let response = warm.recv().ok_or("server closed during warm-up")?;
        if response.detections != oracle[i] {
            return Err(format!(
                "warm-up response {i} differs from the host reference"
            ));
        }
    }
    let handles: Vec<ClientHandle> = (0..CLIENTS).map(|_| server.client()).collect();
    let start = Instant::now() + Duration::from_millis(20);
    let mut out = Tally::default();
    let mut pending: Vec<VecDeque<Outstanding>> = (0..CLIENTS).map(|_| VecDeque::new()).collect();
    let drain = |out: &mut Tally, pending: &mut [VecDeque<Outstanding>]| -> Result<()> {
        for (c, handle) in handles.iter().enumerate() {
            while let Some(response) = handle.try_recv() {
                let now = Instant::now();
                let sent = pending[c]
                    .pop_front()
                    .ok_or_else(|| format!("client {c} got a response it never asked for"))?;
                if response.seq != sent.seq || response.client != handle.id() {
                    return Err(format!(
                        "client {c} got seq {} while seq {} was owed",
                        response.seq, sent.seq
                    ));
                }
                let latency = now - (start + sent.offset);
                out.elapsed = now - start;
                out.completed += 1;
                out.latencies.push(latency);
                if response.detections == oracle[sent.frame] {
                    out.correct += 1;
                    if latency <= config.target(class_of(c)) {
                        out.within_slo += 1;
                    }
                }
            }
        }
        Ok(())
    };

    for (k, arrival) in schedule.iter().enumerate() {
        let due = start + arrival.due;
        loop {
            drain(&mut out, &mut pending)?;
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(POLL));
        }
        out.lateness.push(Instant::now() - due);
        let image = pool[arrival.frame].clone();
        let handle = &handles[arrival.client];
        let class = class_of(arrival.client);
        out.attempted += 1;
        match tracer.time("serve.submit", k as u64, || handle.submit(image, class)) {
            Ok(seq) => pending[arrival.client].push_back(Outstanding {
                seq,
                offset: arrival.due,
                frame: arrival.frame,
            }),
            Err(_) => out.rejected += 1,
        }
    }
    let limit = Instant::now() + DRAIN_LIMIT;
    while pending.iter().any(|p| !p.is_empty()) && Instant::now() < limit {
        drain(&mut out, &mut pending)?;
        std::thread::sleep(POLL);
    }
    let lost: usize = pending.iter().map(VecDeque::len).sum();
    let report = server.finish();
    let accepted = out.attempted - out.rejected;
    if lost > 0 || out.completed != accepted {
        return Err(format!(
            "conservation broken: {} attempted, {} rejected, {} completed, {lost} lost",
            out.attempted, out.rejected, out.completed
        ));
    }
    let r = &report;
    if r.accepted != accepted + WARMUP as u64
        || r.completed != r.accepted
        || r.rejected() != out.rejected
    {
        return Err(format!(
            "server report disagrees: accepted {} completed {} rejected {}",
            r.accepted,
            r.completed,
            r.rejected()
        ));
    }
    Ok(ServeOutcome { tally: out, report })
}
