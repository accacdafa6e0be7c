//! `gateway_open`: open-loop Poisson traffic over the micro zoo into
//! `Gateway::with_workers(2)`, first at a fixed reference rate, then up a
//! fixed rate ladder.
//!
//! One generator thread (this one) submits at each request's due time and
//! hands the ticket to one collector thread, which waits for it. A
//! request's latency runs from when it was due, not from when it was
//! sent, so a late generator shows up as latency, and the generator's own
//! lateness is reported beside it.
//!
//! Only `compile_s` is divided by the host-speed factor (see `host.rs`).
//! `latency_p50_ms` and `setup_s` are reported raw: the set-up's warm-up
//! requests and every served request wait out the 500 µs batch window and
//! thread hand-offs, and the host probes did not track them. Over twelve
//! runs the factor ranged 0.68-1.15 while the raw `latency_p50_ms` stayed
//! within 1.47-1.64 ms, so the adjusted value spread far wider.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use pbqp_dnn::prelude::*;
use pbqp_dnn_gateway::{BatchConfig, Gateway, GatewayError, Ticket};

use crate::host::HostSpeed;
use crate::probe;
use crate::serve::{Fleet, SETUP_REPS};
use crate::stats::{median, p99, quantile, Rng};
use crate::trace::Tracer;
use crate::zoo::{self, same_bits, Case};
use crate::{Args, Outcome};

/// The rate the end-to-end latencies are reported at, requests/s.
pub const REFERENCE_RPS: f64 = 400.0;
/// The rate ladder `sustained_rps` climbs, requests/s.
pub const LADDER_RPS: [f64; 5] = [400.0, 800.0, 1200.0, 1600.0, 2000.0];
/// Arrivals per ladder rate: enough for ten samples beyond the p99.
const LADDER_REQUESTS: usize = 1000;
/// The p99 limit a ladder rate must meet to count as sustained.
pub const P99_LIMIT_MS: f64 = 20.0;

struct Arrival {
    due: Duration,
    model: usize,
    input: usize,
}

/// Seeded Poisson arrivals at `rps`: `count` of them, each naming a
/// uniformly drawn model and input.
fn arrivals(rps: f64, count: usize, cases: &[Case], rng: &mut Rng) -> Vec<Arrival> {
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            t += -rng.unit().ln() / rps;
            let model = rng.below(cases.len());
            let input = rng.below(cases[model].inputs.len());
            Arrival { due: Duration::from_secs_f64(t), model, input }
        })
        .collect()
}

/// What one phase of traffic did.
#[derive(Default)]
struct Phase {
    /// Latency from due time to completion per served request, in
    /// arrival order.
    latency_ms: Vec<f64>,
    /// How late the generator submitted each request.
    lag_ms: Vec<f64>,
    refused: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Phase {
    fn absorb(&mut self, mut other: Phase) {
        self.latency_ms.append(&mut other.latency_ms);
        self.lag_ms.append(&mut other.lag_ms);
        self.refused += other.refused;
        self.failed += other.failed;
        self.problems.append(&mut other.problems);
    }

    fn requests(&self) -> usize {
        self.latency_ms.len() + self.refused as usize + self.failed as usize
    }

    /// The p99 with refused and failed requests counted as misses.
    fn p99_with_misses(&self) -> f64 {
        let mut v = self.latency_ms.clone();
        v.extend(std::iter::repeat_n(f64::INFINITY, (self.refused + self.failed) as usize));
        quantile(&mut v, 0.99)
    }

    /// Whether the backlog grew: the last quarter of arrivals waited
    /// clearly longer than the first.
    fn backlog_grew(&self) -> bool {
        let q = self.latency_ms.len() / 4;
        if q == 0 {
            return true;
        }
        let first = median(&mut self.latency_ms[..q].to_vec());
        let last = median(&mut self.latency_ms[self.latency_ms.len() - q..].to_vec());
        last > 2.0 * first + 1.0
    }
}

/// Runs one phase: submits `arrivals` on schedule (the first one now) and
/// collects every response on a second thread, checking each one bit for
/// bit.
fn phase(
    gateway: &Gateway,
    fingerprints: &[u64],
    cases: &[Case],
    expected: &[Vec<Tensor>],
    arrivals: &[Arrival],
    tracer: &Tracer,
    first_request: u64,
) -> Phase {
    let (tx, rx) = mpsc::channel::<(u64, Ticket, f64, usize, usize)>();
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut seen = Vec::new();
            for (request, ticket, lag_ms, m, i) in rx {
                let response = tracer.span("gateway.wait", 0, request, |_| ticket.wait());
                seen.push((request, lag_ms, m, i, response));
            }
            seen
        });
        let mut phase = Phase::default();
        let start = Instant::now();
        let base = arrivals.first().map_or(Duration::ZERO, |a| a.due);
        for (k, a) in arrivals.iter().enumerate() {
            let request = first_request + k as u64;
            let input = cases[a.model].inputs[a.input].clone();
            let due = start + (a.due - base);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let lag_ms = sent.duration_since(due).as_secs_f64() * 1e3;
            phase.lag_ms.push(lag_ms);
            let submitted = tracer.span("gateway.submit", 0, request, |_| {
                gateway.submit(fingerprints[a.model], input)
            });
            match submitted {
                Ok(ticket) => {
                    tx.send((request, ticket, lag_ms, a.model, a.input)).expect("collector alive")
                }
                Err(GatewayError::Overloaded { .. }) => phase.refused += 1,
                Err(e) => {
                    phase.failed += 1;
                    phase.problems.push(format!("submit: {e}"));
                }
            }
        }
        drop(tx);
        let mut seen = collector.join().expect("collector thread panicked");
        seen.sort_by_key(|s| s.0);
        for (_, lag_ms, m, i, response) in seen {
            match response {
                Ok(r) if same_bits(&r.output, &expected[m][i]) => {
                    // Admission happens inside `submit`, so due-to-done is
                    // the submit lag plus the gateway's own latency.
                    phase.latency_ms.push(lag_ms + r.latency.as_secs_f64() * 1e3);
                }
                Ok(_) => {
                    phase.failed += 1;
                    phase.problems.push(format!("{} input {i}: wrong output", cases[m].name));
                }
                Err(e) => {
                    phase.failed += 1;
                    phase.problems.push(format!("{} input {i}: {e}", cases[m].name));
                }
            }
        }
        phase
    })
}

/// Builds the gateway, registers every model with the default batching
/// policy and serves each input once through it, checking the outputs.
fn open_gateway(fleet: &Fleet, cases: &[Case]) -> Result<(Gateway, Vec<u64>), String> {
    let gateway = Gateway::with_workers(2);
    let fingerprints: Vec<u64> =
        fleet.readies.iter().map(|r| gateway.register_with(&r.model, BatchConfig::new())).collect();
    for (m, case) in cases.iter().enumerate() {
        for (i, input) in case.inputs.iter().enumerate() {
            let r = gateway
                .infer(fingerprints[m], input.clone())
                .map_err(|e| format!("warm-up: {e}"))?;
            if !same_bits(&r.output, &fleet.expected[m][i]) {
                return Err(format!("warm-up of {} input {i}: wrong output", case.name));
            }
        }
    }
    for &fp in &fingerprints {
        gateway.reset_stats(fp);
    }
    Ok((gateway, fingerprints))
}

/// Seconds of reference-rate traffic per chunk; a plain run takes a
/// set-up sample between chunks.
const CHUNK_S: f64 = 2.0;

/// Fleet set-ups per phase boundary. One takes about 10 ms, so with one
/// per boundary `compile_s` was the median of 14 short samples and spread
/// 13-16% over ten runs.
const FLEET_SAMPLES: usize = 4;

/// `gateway_open`: the micro zoo behind the adaptive batching gateway.
pub fn gateway_open(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let cases = zoo::micro_zoo(args.seed, 16);
    let traced = tracer.enabled();
    let mut fleet =
        Fleet::setup(&cases, Case::options, if traced { SETUP_REPS } else { 1 }, tracer)?;
    // The gateway's own set-up (build, register, warm every input) adds
    // to the fleet's; it is sampled between phases like the fleet's.
    let mut gateway_s = Vec::new();
    let open = |fleet: &Fleet, gateway_s: &mut Vec<f64>| {
        let begin = Instant::now();
        let opened = tracer.span("gateway.setup", 0, 0, |_| open_gateway(fleet, &cases))?;
        gateway_s.push(begin.elapsed().as_secs_f64());
        Ok::<_, String>(opened)
    };
    let (gateway, fingerprints) = open(&fleet, &mut gateway_s)?;
    // Between phases, with the gateway drained: host-speed and set-up
    // samples.
    let mut host = HostSpeed::new();
    let mut resample = |fleet: &mut Fleet, gateway_s: &mut Vec<f64>| -> Result<(), String> {
        if !traced {
            for _ in 0..10 {
                host.sample();
            }
            for _ in 0..FLEET_SAMPLES {
                fleet.resample(&cases, tracer)?;
            }
            open(fleet, gateway_s)?.0.shutdown();
        }
        Ok(())
    };

    let mut rng = Rng::new(args.seed);
    let ladder_s: f64 = LADDER_RPS.iter().map(|r| LADDER_REQUESTS as f64 / r).sum();
    let reference_s = (args.seconds - ladder_s).max(2.0 * CHUNK_S);
    let schedule =
        arrivals(REFERENCE_RPS, (REFERENCE_RPS * reference_s) as usize, &cases, &mut rng);
    let run = |fleet: &Fleet, arrivals: &[Arrival], tracer: &Tracer, first: u64| {
        phase(&gateway, &fingerprints, &cases, &fleet.expected, arrivals, tracer, first)
    };
    // A traced run alternates untraced and traced chunks: their p50s
    // differ by the tracing overhead.
    let untraced = Tracer::new(false);
    let (mut reference, mut traced_chunks) = (Phase::default(), Phase::default());
    let chunk = (REFERENCE_RPS * CHUNK_S) as usize;
    for (k, part) in schedule.chunks(chunk).enumerate() {
        let first = (k * chunk) as u64 + 1;
        if traced && k % 2 == 1 {
            traced_chunks.absorb(run(&fleet, part, tracer, first));
        } else {
            reference.absorb(run(&fleet, part, &untraced, first));
        }
        resample(&mut fleet, &mut gateway_s)?;
    }
    let stats: Vec<_> =
        fingerprints.iter().map(|&fp| gateway.stats(fp).expect("registered")).collect();

    let mut next = schedule.len() as u64 + 1;
    let mut ladder = Vec::new();
    for &rps in &LADDER_RPS {
        let schedule = arrivals(rps, LADDER_REQUESTS, &cases, &mut rng);
        ladder.push(run(&fleet, &schedule, tracer, next));
        next += schedule.len() as u64;
        resample(&mut fleet, &mut gateway_s)?;
    }
    gateway.shutdown();

    let phases = || std::iter::once(&reference).chain([&traced_chunks]).chain(&ladder);
    let attempted = phases().map(Phase::requests).sum::<usize>() as u64;
    // Refusals at the reference rate are failures; on the ladder they are
    // the load shedding `sustained_rps` measures.
    let reference_failed =
        reference.failed + reference.refused + traced_chunks.failed + traced_chunks.refused;
    let failed = reference_failed + ladder.iter().map(|p| p.failed).sum::<u64>();
    let problems = phases().flat_map(|p| p.problems.iter().cloned()).collect();
    let mut out = Outcome::new(attempted, failed, problems);
    let sustained = LADDER_RPS
        .iter()
        .zip(&ladder)
        .filter(|(_, p)| p.p99_with_misses() <= P99_LIMIT_MS && !p.backlog_grew())
        .map(|(&r, _)| r)
        .fold(0.0, f64::max);
    let reference_attempted = (reference.requests() + traced_chunks.requests()) as f64;
    if !traced {
        let factor = host.factor();
        out.extra("host_factor", factor, "ratio");
        out.e2e("setup_s", fleet.setup_s() + median(&mut gateway_s));
        let compile = fleet.compile_s();
        out.time("compile_s", compile / factor, compile);
        out.e2e("latency_p50_ms", median(&mut reference.latency_ms));
        let n = reference.latency_ms.len();
        out.sampled("latency_p99_ms", p99(&mut reference.latency_ms), "ms", n);
        out.extra("sustained_rps", sustained, "1/s");
        out.extra("error_rate", reference_failed as f64 / reference_attempted, "share");
        out.extra("generator_lag_p99_ms", quantile(&mut reference.lag_ms, 0.99), "ms");
        return Ok(out);
    }

    let layers = &mut out.layers;
    let (plain_p50, traced_p50) =
        (median(&mut reference.latency_ms), median(&mut traced_chunks.latency_ms));
    layers.insert("trace.overhead_ms".into(), traced_p50 - plain_p50);
    let served: u64 = stats.iter().map(|s| s.served).sum();
    let batches: u64 = stats.iter().map(|s| s.batches).sum();
    let by_deadline: u64 = stats.iter().map(|s| s.flushed_by_deadline).sum();
    layers.insert("gateway.mean_batch_size".into(), served as f64 / batches.max(1) as f64);
    layers
        .insert("gateway.deadline_flush_share".into(), by_deadline as f64 / batches.max(1) as f64);
    layers.insert("gateway.rejected".into(), ladder.iter().map(|p| p.refused as f64).sum());
    let mut lag: Vec<f64> = reference.lag_ms.iter().chain(&traced_chunks.lag_ms).copied().collect();
    layers.insert("gateway.generator_lag_p99_ms".into(), quantile(&mut lag, 0.99));
    for (rps, p) in LADDER_RPS.iter().zip(&mut ladder) {
        // Served requests only; the refusals are in `gateway.rejected`.
        layers.insert(format!("gateway.latency_p99_ms.r{rps}"), quantile(&mut p.latency_ms, 0.99));
    }
    layers.insert("gateway.sustained_rps".into(), sustained);
    fleet.artifact_layers(layers);
    let targets = fleet.targets(&cases);
    probe::runtime(&targets, args.seconds * 0.15, 10, tracer, layers)?;
    probe::batch8(&targets, 10, layers)?;
    probe::wavefront(&targets, 10, layers)?;
    probe::select(&targets, &probe::analytic(), tracer, layers)?;
    probe::schedule(&targets, 3, tracer, layers)?;
    Ok(out)
}
