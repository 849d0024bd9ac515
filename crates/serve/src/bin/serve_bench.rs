//! Load generator + scaling bench for `latch-serve`.
//!
//! Drives S sessions × E events/session through the deterministic
//! scheduler at several worker counts and reports throughput and batch
//! latency **in simulated cost-model cycles** (the repo's currency for
//! all performance claims — wall-clock never appears in the output, so
//! the JSON is byte-reproducible on any machine).
//!
//! ```text
//! serve_bench [--sessions S] [--events E] [--chunk C]
//!             [--workers 1,2,4,8] [--out BENCH_serve.json]
//! ```

mod common;

use common::stream;
use latch_faults::FaultPlan;
use latch_serve::{Priority, Rejected, ServeConfig, Service, ServiceOutcome, Slo};
use latch_sim::event::Event;
use std::fmt::Write as _;

struct Args {
    sessions: usize,
    events: u64,
    chunk: usize,
    workers: Vec<usize>,
    out: String,
}

impl Args {
    fn parse() -> Self {
        let mut args = Args {
            sessions: 24,
            events: 4_000,
            chunk: 256,
            workers: vec![1, 2, 4, 8],
            out: "BENCH_serve.json".to_string(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {flag}"))
            };
            match flag.as_str() {
                "--sessions" => args.sessions = value().parse().expect("--sessions"),
                "--events" => args.events = value().parse().expect("--events"),
                "--chunk" => args.chunk = value().parse().expect("--chunk"),
                "--workers" => {
                    args.workers = value()
                        .split(',')
                        .map(|w| w.trim().parse().expect("--workers"))
                        .collect();
                }
                "--out" => args.out = value(),
                other => panic!("unknown flag {other}"),
            }
        }
        assert!(args.sessions > 0 && args.events > 0 && !args.workers.is_empty());
        args
    }
}

fn run_at(workers: usize, streams: &[Vec<Event>], chunk: usize) -> ServiceOutcome {
    let cfg = ServeConfig {
        workers,
        queue_events: usize::MAX >> 1,
        session_inflight_cap: usize::MAX >> 1,
        seed: 42,
        ..ServeConfig::default()
    };
    let mut svc = Service::deterministic(cfg, FaultPlan::benign());
    let rounds = streams
        .iter()
        .map(|evs| evs.len().div_ceil(chunk))
        .max()
        .unwrap_or(0);
    for r in 0..rounds {
        for (s, evs) in streams.iter().enumerate() {
            let lo = r * chunk;
            if lo >= evs.len() {
                continue;
            }
            let hi = (lo + chunk).min(evs.len());
            svc.submit(s as u64, &evs[lo..hi]).expect("uncapped queue");
        }
        svc.pump();
    }
    svc.finish()
}

/// One overload run: a capped queue, an armed SLO, and mixed-priority
/// traffic. Shed submissions drop their chunk (clients do not retry
/// shed work); capacity rejections pump and retry. Returns the outcome
/// plus the offered and admitted event totals.
fn run_overload(workers: usize, streams: &[Vec<Event>], chunk: usize) -> (ServiceOutcome, u64, u64) {
    let cfg = ServeConfig {
        workers,
        queue_events: 4_096,
        batch_max: 64,
        max_resident: 8,
        seed: 42,
        slo: Slo {
            slo_cycles: 96,
            window: 64,
            report_every: 8,
            demote_after: 1,
            promote_after: 2,
            max_degraded: 8,
            queue_pressure_pct: 50,
        },
        ..ServeConfig::default()
    };
    let mut svc = Service::deterministic(cfg, FaultPlan::benign());
    let rounds = streams
        .iter()
        .map(|evs| evs.len().div_ceil(chunk))
        .max()
        .unwrap_or(0);
    let mut offered = 0u64;
    let mut admitted = 0u64;
    for r in 0..rounds {
        for (s, evs) in streams.iter().enumerate() {
            let lo = r * chunk;
            if lo >= evs.len() {
                continue;
            }
            let hi = (lo + chunk).min(evs.len());
            let prio = match s % 3 {
                0 => Priority::Critical,
                1 => Priority::Normal,
                _ => Priority::Bulk,
            };
            offered += (hi - lo) as u64;
            loop {
                match svc.submit_with_priority(s as u64, &evs[lo..hi], prio) {
                    Ok(()) => {
                        admitted += (hi - lo) as u64;
                        break;
                    }
                    Err(Rejected::Shed { .. }) => break, // shed work is dropped
                    Err(Rejected::QueueFull { .. } | Rejected::SessionBusy { .. }) => {
                        svc.pump();
                    }
                    Err(Rejected::ShuttingDown) => unreachable!("not draining"),
                    Err(Rejected::BatchTooLarge { .. }) => {
                        unreachable!("chunks are far below the journal cap")
                    }
                }
            }
        }
        svc.pump();
    }
    (svc.finish(), offered, admitted)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx]
}

fn main() {
    let args = Args::parse();
    let streams: Vec<Vec<Event>> = (0..args.sessions)
        .map(|s| stream(s, 1_000 + s as u64, args.events))
        .collect();
    let total_events: u64 = streams.iter().map(|s| s.len() as u64).sum();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"latch-serve\",");
    let _ = writeln!(json, "  \"sessions\": {},", args.sessions);
    let _ = writeln!(json, "  \"events_per_session\": {},", args.events);
    let _ = writeln!(json, "  \"total_events\": {total_events},");
    let _ = writeln!(json, "  \"submit_chunk\": {},", args.chunk);
    let _ = writeln!(json, "  \"unit\": \"simulated cost-model cycles\",");
    json.push_str("  \"runs\": [\n");

    let mut makespans: Vec<(usize, u64)> = Vec::new();
    for (i, &w) in args.workers.iter().enumerate() {
        let out = run_at(w, &streams, args.chunk);
        let makespan = out.worker_busy_cycles.iter().copied().max().unwrap_or(0);
        makespans.push((w, makespan));
        let mut lat = out.batch_cycles.clone();
        lat.sort_unstable();
        let throughput = if makespan == 0 {
            0.0
        } else {
            total_events as f64 * 1_000_000.0 / makespan as f64
        };
        let util: Vec<String> = out
            .worker_busy_cycles
            .iter()
            .map(|&b| format!("{:.4}", b as f64 / makespan.max(1) as f64))
            .collect();
        eprintln!(
            "workers={w}: makespan={makespan} cycles, {throughput:.1} events/Mcycle, \
             dispatches={}, steals={}",
            out.stats.dispatches, out.stats.batches_stolen
        );
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"workers\": {w},");
        let _ = writeln!(json, "      \"makespan_cycles\": {makespan},");
        let _ = writeln!(json, "      \"throughput_events_per_mcycle\": {throughput:.3},");
        let _ = writeln!(json, "      \"batch_latency_cycles\": {{");
        let _ = writeln!(json, "        \"p50\": {},", percentile(&lat, 50.0));
        let _ = writeln!(json, "        \"p95\": {},", percentile(&lat, 95.0));
        let _ = writeln!(json, "        \"p99\": {}", percentile(&lat, 99.0));
        let _ = writeln!(json, "      }},");
        let _ = writeln!(json, "      \"dispatches\": {},", out.stats.dispatches);
        let _ = writeln!(json, "      \"steals\": {},", out.stats.batches_stolen);
        let _ = writeln!(json, "      \"evictions\": {},", out.stats.evictions);
        let _ = writeln!(
            json,
            "      \"worker_utilization\": [{}]",
            util.join(", ")
        );
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < args.workers.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");

    // Overload run: the same offered load through a capped queue with
    // an armed SLO — reports the shed rate and the throughput the
    // degraded (coarse-only) path sustains under pressure.
    {
        let (out, offered, admitted) = run_overload(2, &streams, args.chunk);
        let makespan = out.worker_busy_cycles.iter().copied().max().unwrap_or(0);
        let shed_rate = if offered == 0 {
            0.0
        } else {
            out.stats.shed_events as f64 / offered as f64
        };
        let degraded_throughput = if makespan == 0 {
            0.0
        } else {
            out.stats.coarse_events as f64 * 1_000_000.0 / makespan as f64
        };
        eprintln!(
            "overload: offered={offered}, admitted={admitted}, shed_rate={shed_rate:.4}, \
             demotions={}, coarse_events={}",
            out.stats.demotions, out.stats.coarse_events
        );
        let _ = writeln!(json, "  \"overload\": {{");
        let _ = writeln!(json, "    \"workers\": 2,");
        let _ = writeln!(json, "    \"slo_cycles\": 96,");
        let _ = writeln!(json, "    \"offered_events\": {offered},");
        let _ = writeln!(json, "    \"admitted_events\": {admitted},");
        let _ = writeln!(json, "    \"shed_events\": {},", out.stats.shed_events);
        let _ = writeln!(json, "    \"shed_rate\": {shed_rate:.4},");
        let _ = writeln!(json, "    \"demotions\": {},", out.stats.demotions);
        let _ = writeln!(json, "    \"promotions\": {},", out.stats.promotions);
        let _ = writeln!(json, "    \"coarse_events\": {},", out.stats.coarse_events);
        let _ = writeln!(
            json,
            "    \"degraded_throughput_events_per_mcycle\": {degraded_throughput:.3},"
        );
        let _ = writeln!(json, "    \"resync_cycles\": {}", out.stats.resync_cycles);
        let _ = writeln!(json, "  }},");
    }

    let base = makespans
        .iter()
        .find(|(w, _)| *w == 1)
        .or(makespans.first())
        .map(|&(_, m)| m)
        .unwrap_or(0);
    let peak = makespans.iter().map(|&(_, m)| m).min().unwrap_or(0);
    let speedup = if peak == 0 { 0.0 } else { base as f64 / peak as f64 };
    let _ = writeln!(json, "  \"speedup_best_vs_1_worker\": {speedup:.3}");
    json.push_str("}\n");

    std::fs::write(&args.out, &json).expect("write bench output");
    eprintln!("best speedup over 1 worker: {speedup:.2}x -> {}", args.out);
}
