//! Fixed-seed overload-stress loop over the serving layer.
//!
//! Each iteration drives a deterministic [`Service`] with an armed SLO
//! through replicated [`MultiIngress`] fronts while a seeded fault plan
//! injects burst arrivals, slow clients, feed stalls, and feed deaths.
//! The loop asserts the overload contracts end to end:
//!
//! * every session's final report is byte-identical to a solo pipeline
//!   run of its **admitted** (non-shed) stream — coarse-only degraded
//!   spans are resynced precisely at promotion and leave no trace;
//! * the coarse state covers every precisely tainted page at the end
//!   (zero false negatives, the LATCH invariant);
//! * the shed set, SLO report stream, and failover histories are
//!   byte-identical across a rerun of the same seed;
//! * critical-priority traffic is never shed.
//!
//! Any panic or mismatch exits non-zero.
//!
//! ```text
//! overload_stress [--seed S] [--iters N] [--sessions K] [--events E]
//! ```

mod common;

use common::{mix, solo, stream};
use latch_core::PAGE_SIZE;
use latch_faults::{FaultInjector, FaultPlan};
use latch_serve::{
    MultiIngress, Priority, Rejected, ServeConfig, Service, ServiceOutcome, Slo,
    SloReport,
};
use latch_sim::event::Event;
use std::collections::BTreeSet;

struct Args {
    seed: u64,
    iters: u64,
    sessions: usize,
    events: u64,
}

impl Args {
    fn parse() -> Self {
        let mut args = Args {
            seed: 1,
            iters: 16,
            sessions: 4,
            events: 2_000,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {flag}"))
            };
            match flag.as_str() {
                "--seed" => args.seed = value().parse().expect("--seed"),
                "--iters" => args.iters = value().parse().expect("--iters"),
                "--sessions" => args.sessions = value().parse().expect("--sessions"),
                "--events" => args.events = value().parse().expect("--events"),
                other => panic!("unknown flag {other}"),
            }
        }
        assert!(args.iters > 0 && args.sessions > 0 && args.events > 0);
        args
    }
}

fn priority_of(session: usize) -> Priority {
    match session % 3 {
        0 => Priority::Critical,
        1 => Priority::Normal,
        _ => Priority::Bulk,
    }
}

struct RunResult {
    admitted: Vec<Vec<Event>>,
    sheds: Vec<(u64, u8, u8)>,
    slo_bytes: Vec<u8>,
    failover_polls: Vec<Vec<u64>>,
    out: ServiceOutcome,
}

/// One full seeded drive: ingress fronts + priorities + armed SLO.
fn drive(cfg: ServeConfig, plan: FaultPlan, streams: &[Vec<Event>]) -> RunResult {
    const CHUNK: usize = 48;
    let mut svc = Service::deterministic(cfg, plan);
    let mut inj = FaultInjector::new(plan);
    let mut feeds: Vec<MultiIngress> = streams
        .iter()
        .enumerate()
        .map(|(s, evs)| MultiIngress::new(s as u64, evs.clone(), 1))
        .collect();
    let mut admitted = vec![Vec::new(); streams.len()];
    let mut sheds = Vec::new();
    let mut round = 0u64;
    while feeds.iter().any(|f| !f.drained()) {
        assert!(round < 1_000_000, "overload drive failed to make progress");
        let factor = inj.burst_factor_at(round).unwrap_or(1) as usize;
        let slow = inj.slow_client_at(round);
        for (i, feed) in feeds.iter_mut().enumerate() {
            let prio = priority_of(i);
            if slow && prio != Priority::Critical {
                continue; // slow clients sit a round out
            }
            let batch = feed.poll(&mut inj, CHUNK * factor).to_vec();
            if batch.is_empty() {
                continue; // stalled, failing over, or drained
            }
            match svc.submit_with_priority(i as u64, &batch, prio) {
                Ok(()) => {
                    admitted[i].extend_from_slice(&batch);
                    feed.ack(batch.len());
                }
                Err(Rejected::Shed { priority, pressure, .. }) => {
                    sheds.push((i as u64, priority.rank(), pressure));
                    feed.ack(batch.len()); // shed events are dropped on purpose
                }
                Err(Rejected::QueueFull { .. } | Rejected::SessionBusy { .. }) => {
                    svc.pump(); // unacked: the same peek returns next round
                }
                Err(Rejected::ShuttingDown) => unreachable!("not draining"),
                Err(Rejected::BatchTooLarge { .. }) => {
                    unreachable!("chunks are far below the journal cap")
                }
            }
        }
        svc.pump();
        round += 1;
    }
    let out = svc.finish();
    let slo_bytes = out.slo_reports.iter().flat_map(SloReport::encode).collect();
    let failover_polls = feeds
        .into_iter()
        .map(|f| f.into_report().failovers.iter().map(|r| r.at_poll).collect())
        .collect();
    RunResult { admitted, sheds, slo_bytes, failover_polls, out }
}

fn main() {
    let args = Args::parse();
    let mut total_shed = 0u64;
    let mut total_demotions = 0u64;
    let mut total_promotions = 0u64;
    let mut total_failovers = 0usize;
    let mut total_coarse = 0u64;

    for iter in 0..args.iters {
        let r = mix(args.seed ^ (iter << 13));
        let cfg = ServeConfig {
            workers: 1 + (r as usize % 3),
            queue_events: 512,
            batch_max: 32,
            max_resident: 2,
            seed: args.seed ^ iter,
            slo: Slo {
                slo_cycles: 1 + mix(r) % 64,
                window: 32,
                report_every: 2 + mix(r ^ 0x51) % 6,
                demote_after: 1,
                promote_after: 2,
                max_degraded: 2,
                queue_pressure_pct: 50,
            },
            ..ServeConfig::default()
        };
        let plan = FaultPlan::new(r ^ 0x0B5E)
            .with_overload(150 + (mix(r ^ 0xA1) % 150) as u32, 4, 120)
            .with_feed_faults(150, 4, 100);
        let streams: Vec<Vec<Event>> = (0..args.sessions)
            .map(|s| stream(iter as usize + s, args.seed + iter * 47 + s as u64, args.events))
            .collect();

        let a = drive(cfg, plan, &streams);
        let b = drive(cfg, plan, &streams);
        assert_eq!(a.sheds, b.sheds, "iter {iter}: shed set changed between reruns");
        assert_eq!(
            a.slo_bytes, b.slo_bytes,
            "iter {iter}: SLO report stream changed between reruns"
        );
        assert_eq!(
            a.failover_polls, b.failover_polls,
            "iter {iter}: failover history changed between reruns"
        );

        for (i, evs) in streams.iter().enumerate() {
            if priority_of(i) == Priority::Critical {
                assert_eq!(
                    a.admitted[i].len(),
                    evs.len(),
                    "iter {iter} session {i}: critical traffic was shed"
                );
            }
            let Some(pipe) = a.out.pipelines.get(&(i as u64)) else {
                // Every submission was shed before the first admission:
                // the session never got a slot, so there is nothing to
                // compare — but there must also be nothing admitted.
                assert!(
                    a.admitted[i].is_empty(),
                    "iter {iter} session {i}: admitted events but no pipeline"
                );
                continue;
            };
            // Zero false negatives: every precisely tainted page is
            // coarse-covered, degraded spans notwithstanding.
            let pages: BTreeSet<u32> = pipe
                .engine()
                .shadow()
                .iter_tainted()
                .map(|(addr, _)| addr / PAGE_SIZE)
                .collect();
            for page in pages {
                assert!(
                    pipe.latch().coarse_covers_precise(
                        pipe.engine().shadow(),
                        page.saturating_mul(PAGE_SIZE),
                        PAGE_SIZE,
                    ),
                    "iter {iter} session {i}: coarse lost precise taint on page {page:#x}"
                );
            }
            // The admitted stream reproduces exactly: a demoted-then-
            // promoted session is indistinguishable from a solo run.
            assert_eq!(
                a.out.sessions[&(i as u64)].encode(),
                solo(&a.admitted[i], cfg.scrub_interval),
                "iter {iter} session {i}: report diverged from solo run of admitted stream"
            );
        }

        total_shed += a.out.stats.shed_events;
        total_demotions += a.out.stats.demotions;
        total_promotions += a.out.stats.promotions;
        total_failovers += a.failover_polls.iter().map(Vec::len).sum::<usize>();
        total_coarse += a.out.stats.coarse_events;
    }

    println!(
        "overload_stress OK: {} iters, {} sessions each, {} events shed, \
         {} demotions, {} promotions, {} coarse events, {} ingress failovers",
        args.iters, args.sessions, total_shed, total_demotions, total_promotions,
        total_coarse, total_failovers
    );
}
