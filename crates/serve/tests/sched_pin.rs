//! Pins the scheduler's decisions on one fixed-seed run with every
//! pressure armed at once: worker kills, a `max_resident` small enough
//! to evict, and an SLO tight enough to shed and demote.
//!
//! The per-session reports already have an oracle (solo replay); the
//! scheduling decisions do not. The expected values below are the
//! recorded output of this exact run, so any change to dispatch order,
//! steals, evictions, kill replays, SLO cuts, sheds, demotions or
//! cost-model cycles moves at least one of them. A change that means
//! to alter scheduling must re-record them and say why.

use latch_faults::FaultPlan;
use latch_serve::{
    DegradedSpan, Priority, Rejected, ServeConfig, ServeStats, Service, ServiceOutcome, Slo,
    SloReport,
};
use latch_sim::event::{Event, EventSource};
use latch_workloads::BenchmarkProfile;

fn events(name: &str, seed: u64, n: u64) -> Vec<Event> {
    let mut src = BenchmarkProfile::by_name(name).unwrap().stream(seed, n);
    std::iter::from_fn(|| src.next_event()).collect()
}

/// FNV-1a over a sequence of words: one value that moves with any
/// element, its order, or the sequence length.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The pinned run. Returns the outcome and the number of submissions
/// shed (each shed chunk is dropped, as a client would).
fn pinned_run() -> (ServiceOutcome, u64) {
    let profiles = ["astar", "bzip2", "sphinx", "gcc", "hmmer", "soplex"];
    let streams: Vec<(u64, Priority, Vec<Event>)> = (0..9u64)
        .map(|id| {
            let prio = match id % 3 {
                0 => Priority::Critical,
                1 => Priority::Normal,
                _ => Priority::Bulk,
            };
            let name = profiles[id as usize % profiles.len()];
            (id, prio, events(name, 900 + id, 1_500))
        })
        .collect();
    let cfg = ServeConfig {
        workers: 4,
        queue_events: 1_024,
        session_inflight_cap: 512,
        batch_max: 48,
        max_resident: 3,
        seed: 0x91_2e,
        slo: Slo {
            slo_cycles: 64,
            window: 32,
            report_every: 4,
            demote_after: 2,
            promote_after: 2,
            max_degraded: 2,
            queue_pressure_pct: 50,
        },
        ..ServeConfig::default()
    };
    let plan = FaultPlan::new(0x5eed).with_worker_kills(60, 3);
    let mut svc = Service::deterministic(cfg, plan);
    let mut shed = 0u64;
    let chunk = 96;
    let rounds = 1_500usize.div_ceil(chunk);
    for r in 0..rounds {
        for (id, prio, evs) in &streams {
            let lo = r * chunk;
            let hi = (lo + chunk).min(evs.len());
            loop {
                match svc.submit_with_priority(*id, &evs[lo..hi], *prio) {
                    Ok(()) => break,
                    Err(Rejected::Shed { .. }) => {
                        shed += 1;
                        break;
                    }
                    Err(Rejected::QueueFull { .. } | Rejected::SessionBusy { .. }) => svc.pump(),
                    Err(other) => panic!("unexpected rejection {other:?}"),
                }
            }
        }
        if r % 2 == 1 {
            svc.pump();
        }
    }
    (svc.finish(), shed)
}

#[test]
fn scheduling_decisions_under_kills_eviction_and_slo_are_pinned() {
    let (out, shed) = pinned_run();
    assert_eq!(shed, 68, "shed submissions");
    assert_eq!(
        out.stats,
        ServeStats {
            submitted_events: 7_188,
            rejected_queue_full: 2,
            dispatches: 155,
            batches_stolen: 3,
            evictions: 32,
            restores: 26,
            worker_kills: 3,
            replayed_events: 144,
            queue_depth_hwm: 960,
            rejected_shed: 68,
            shed_events: 6_312,
            demotions: 4,
            promotions: 4,
            resync_events: 384,
            resync_cycles: 384,
            coarse_batches: 8,
            coarse_events: 384,
            ..ServeStats::default()
        }
    );
    assert_eq!(out.worker_busy_cycles, [5_136, 89_868, 948, 4_536]);
    assert_eq!(out.batch_cycles.len(), 152);
    assert_eq!(out.batch_cycles.iter().sum::<u64>(), 9_288);
    assert_eq!(
        digest(out.batch_cycles.iter().copied()),
        0x825c_5e6c_d882_8dfa
    );
    let slo: Vec<u8> = out.slo_reports.iter().flat_map(SloReport::encode).collect();
    assert_eq!(out.slo_reports.len(), 38);
    assert_eq!(
        digest(slo.iter().map(|&b| u64::from(b))),
        0xe913_34b5_e679_4318
    );
    let span = |session, from_applied, demoted_at_batch, promoted_at_batch, deferred_events| {
        DegradedSpan {
            session,
            from_applied,
            demoted_at_batch,
            promoted_at_batch,
            deferred_events,
        }
    };
    assert_eq!(
        out.degraded_spans,
        [
            span(1, 192, 12, 76, 336),
            span(2, 48, 8, 76, 48),
            span(2, 192, 108, 152, 0),
            span(5, 96, 112, 152, 0),
        ]
    );
}
