//! Router-HA stress: epoch-fenced standby takeover under fire.
//!
//! Spins real `latchd` wire servers on `127.0.0.1:0` behind a primary
//! [`RouterServer`] and a warm standby, and kills the *router* — the
//! last single point of failure — while clients stream. Two phases:
//!
//! 1. **Threaded** — one [`HaClient`] thread per session with the
//!    primary and standby endpoints in order. A harness thread
//!    shuts the primary down at a seeded delay; odd seeds also destroy
//!    one node's machine in the same blast, so the standby's takeover
//!    must restore that node's sessions from surviving replica
//!    journals. After the standby's drain, every session's report must
//!    be byte-identical to a solo [`SessionPipeline`] run, no session
//!    may be acked-lost, and exactly one takeover must be recorded.
//! 2. **Deterministic** — a single thread drives the library
//!    [`Router`] to a fixed cut, kills one node's machine outright
//!    together with the old router, and lets a fresh standby take
//!    over, twice against fresh clusters with the same seed. The
//!    reports, the [`TakeoverRecord`], and the migration history must
//!    all be byte-identical across the runs.
//!
//! Any panic or mismatch exits non-zero.
//!
//! ```text
//! router_ha_stress [--seed S] [--sessions K] [--events E]
//! ```

mod common;

use common::{
    check_reports, exit_on_panic, kill_and_destroy, rank_of, router_config, serve_config,
    start_node, stream, Args,
};
use latch_client::{ClientError, HaClient};
use latch_proto::Endpoint;
use latch_router::{
    Exporter, MigrationRecord, Router, RouterError, RouterServer, RouterServerConfig,
    TakeoverRecord,
};
use latch_serve::{MemStorage, WireServer};
use latch_sim::event::Event;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Why a report may diverge, for the check's failure message.
const CAUSE: &str = "across the takeover";

/// Phase 1: [`HaClient`] threads against a primary + standby pair; a
/// harness thread kills the primary router mid-stream (odd seeds take
/// one node's machine with it) and the standby must carry every stream
/// to a byte-identical drain.
fn threaded_phase(args: &Args) {
    const NODES: u32 = 3;
    let mut servers: Vec<Option<WireServer<MemStorage>>> =
        (0..NODES).map(|id| Some(start_node(args.seed, id))).collect();
    let mut primary_router = Router::new(router_config(args.seed, 2, 7));
    let mut standby_router = Router::new(router_config(args.seed, 2, 8));
    for (id, srv) in servers.iter().enumerate() {
        let ep = srv.as_ref().expect("fresh node").endpoint().clone();
        primary_router.add_node(id as u32, ep.clone());
        standby_router.add_node(id as u32, ep);
    }
    let cfg = RouterServerConfig {
        max_window_events: 1 << 14,
        heartbeat: Duration::from_millis(10),
        standby_miss_budget: 2,
        ..RouterServerConfig::default()
    };
    let primary = RouterServer::start(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        primary_router,
        Box::new(|_| Vec::new()) as Exporter,
        cfg,
    )
    .expect("bind primary");
    let primary_ep = primary.endpoint().clone();
    let standby = RouterServer::start_standby(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        standby_router,
        Box::new(|_| Vec::new()) as Exporter,
        cfg,
        primary_ep.clone(),
    )
    .expect("bind standby");
    let standby_ep = standby.endpoint().clone();

    // Odd seeds: one node's machine dies in the same blast as the
    // primary router, so takeover must also restore its sessions from
    // surviving replica journals.
    let node_victim = if args.seed % 2 == 1 {
        let id = (args.seed % u64::from(NODES)) as usize;
        servers[id].take()
    } else {
        None
    };
    let delay = Duration::from_millis(10 + args.seed % 40);
    let killer = std::thread::spawn(move || {
        std::thread::sleep(delay);
        primary.shutdown();
        if let Some(node) = node_victim {
            kill_and_destroy(node);
        }
    });

    let streams: Vec<Vec<Event>> = (0..args.sessions)
        .map(|s| stream(s, args.seed.wrapping_add(s as u64), args.events))
        .collect();
    let handles: Vec<_> = streams
        .iter()
        .enumerate()
        .map(|(s, events)| {
            let endpoints = vec![primary_ep.clone(), standby_ep.clone()];
            let events = events.clone();
            std::thread::spawn(move || {
                const CHUNK: usize = 32;
                let mut client = HaClient::new(endpoints, 256, false);
                let mut pos = 0usize;
                let mut rounds = 0u64;
                while pos < events.len() {
                    assert!(rounds < 1_000_000, "HA drive failed to make progress");
                    rounds += 1;
                    let take = CHUNK.min(events.len() - pos);
                    match client.submit(s as u64, rank_of(s), &events[pos..pos + take]) {
                        Ok(()) => pos += take,
                        Err(ClientError::Rejected(_)) => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(e) => panic!("session {s}: stream died across the takeover: {e}"),
                    }
                }
                assert_eq!(client.acked(s as u64), events.len() as u64);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    killer.join().expect("killer thread");

    assert!(standby.is_active(), "standby never took over");
    let mut client = HaClient::new(vec![standby_ep], 256, false);
    let reports: BTreeMap<u64, Vec<u8>> =
        client.drain().expect("drain via standby").into_iter().collect();
    check_reports(
        &reports,
        &streams,
        serve_config(args.seed).scrub_interval,
        "threaded",
        CAUSE,
    );
    let (lost, takeovers) =
        standby.with_router(|r| (r.lost_sessions(), r.takeover_history().to_vec()));
    assert!(lost.is_empty(), "takeover lost acked state: {lost:?}");
    assert_eq!(takeovers.len(), 1, "exactly one takeover must be recorded");
    standby.shutdown();
    for srv in servers.into_iter().flatten() {
        srv.shutdown();
    }
    println!(
        "threaded: {} session(s), primary router killed after {delay:?}{}, epoch {} takeover adopted {} node(s) ({} orphan(s) from replica journals), every stream reproduced",
        args.sessions,
        if args.seed % 2 == 1 { " with a coincident diskless node kill" } else { "" },
        takeovers[0].epoch,
        takeovers[0].adopted.len(),
        takeovers[0].orphans.len(),
    );
}

/// One single-threaded drive to a fixed cut, then a blast that takes
/// the old router and one node's machine, then takeover and a finish
/// through the standby.
fn det_run(
    args: &Args,
    streams: &[Vec<Event>],
) -> (
    BTreeMap<u64, Vec<u8>>,
    TakeoverRecord,
    Vec<MigrationRecord>,
) {
    const CHUNK: usize = 48;
    let mut servers: Vec<Option<WireServer<MemStorage>>> = (0..3)
        .map(|id| Some(start_node(args.seed ^ 0xDE7, id)))
        .collect();
    let mut old = Router::new(router_config(args.seed, 2, 7));
    let mut new = Router::new(router_config(args.seed, 2, 8));
    for (id, srv) in servers.iter().enumerate() {
        let ep = srv.as_ref().expect("fresh node").endpoint().clone();
        old.add_node(id as u32, ep.clone());
        new.add_node(id as u32, ep);
    }
    let mut pos = vec![0usize; streams.len()];
    let half: Vec<usize> = streams.iter().map(|ev| ev.len() / 2).collect();
    while pos.iter().zip(&half).any(|(&p, &h)| p < h) {
        for (s, events) in streams.iter().enumerate() {
            if pos[s] >= half[s] {
                continue;
            }
            let take = CHUNK.min(half[s] - pos[s]);
            match old.submit(s as u64, rank_of(s), &events[pos[s]..pos[s] + take]) {
                Ok(()) => pos[s] += take,
                Err(RouterError::Rejected(_)) => {}
                Err(e) => panic!("deterministic: session {s} submit failed: {e}"),
            }
        }
    }
    // The blast: the router and one node's machine die together; the
    // node's disk is destroyed so its sessions exist only in surviving
    // replica journals.
    let victim = old.owner_of(0).expect("session 0 placed");
    let victims: BTreeSet<u64> = (0..streams.len() as u64)
        .filter(|&s| old.owner_of(s) == Some(victim))
        .collect();
    kill_and_destroy(servers[victim as usize].take().expect("victim"));
    drop(old);

    let rec = new.takeover().expect("takeover with a dead node");
    assert_eq!(rec.dead, vec![victim], "the dead node must be detected");
    let orphaned: BTreeSet<u64> = rec.orphans.iter().copied().collect();
    assert_eq!(
        orphaned, victims,
        "exactly the dead node's sessions restore from replica journals"
    );
    assert!(
        new.lost_sessions().is_empty(),
        "deterministic: sessions acked-lost despite live backups"
    );
    while pos.iter().zip(streams).any(|(&p, ev)| p < ev.len()) {
        for (s, events) in streams.iter().enumerate() {
            if pos[s] >= events.len() {
                continue;
            }
            let take = CHUNK.min(events.len() - pos[s]);
            match new.submit(s as u64, rank_of(s), &events[pos[s]..pos[s] + take]) {
                Ok(()) => pos[s] += take,
                Err(RouterError::Rejected(_)) => {}
                Err(e) => panic!("deterministic: session {s} finish failed: {e}"),
            }
        }
    }
    let reports: BTreeMap<u64, Vec<u8>> = new.drain().expect("drain").into_iter().collect();
    check_reports(
        &reports,
        streams,
        serve_config(args.seed).scrub_interval,
        "deterministic",
        CAUSE,
    );
    let history = new.migration_history().to_vec();
    for srv in servers.into_iter().flatten() {
        srv.shutdown();
    }
    (reports, rec, history)
}

/// Phase 2: the same seed twice must yield byte-identical reports, an
/// identical [`TakeoverRecord`], and an identical migration history.
fn deterministic_phase(args: &Args) {
    let streams: Vec<Vec<Event>> = (0..args.sessions)
        .map(|s| stream(s, args.seed.wrapping_add(s as u64), args.events))
        .collect();
    let (reports_a, rec_a, history_a) = det_run(args, &streams);
    let (reports_b, rec_b, history_b) = det_run(args, &streams);
    assert_eq!(reports_a, reports_b, "session reports changed between reruns");
    assert_eq!(rec_a, rec_b, "TakeoverRecord changed between reruns");
    assert_eq!(history_a, history_b, "migration history changed between reruns");
    println!(
        "deterministic: epoch {} takeover ({} orphan(s), {} migration(s)), reports and records byte-identical across reruns",
        rec_a.epoch,
        rec_a.orphans.len(),
        history_a.len()
    );
}

fn main() {
    let args = Args::parse(Args {
        seed: 1,
        sessions: 6,
        events: 1_000,
    });
    // Unbuffered panics from client threads must fail the process.
    exit_on_panic();
    threaded_phase(&args);
    deterministic_phase(&args);
    println!("router_ha_stress: ok");
}
