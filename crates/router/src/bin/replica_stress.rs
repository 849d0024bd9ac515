//! Replication stress for the `latch-replica` layer.
//!
//! Spins real `latchd` wire servers on `127.0.0.1:0` with 2-of-3
//! synchronous replication through the router, and kills a node with
//! its storage destroyed outright — the exporter has nothing, so every
//! recovered session must come from a backup journal. Two phases:
//!
//! 1. **Threaded** — one client thread per session through a
//!    [`RouterServer`] whose exporter always returns empty (the dead
//!    machine's disk is gone). A harness thread kills the victim at the
//!    seeded round and *drops* its storage. After a drain, every
//!    session's report must be byte-identical to a solo
//!    [`SessionPipeline`] run and no session may be poisoned as
//!    acked-lost.
//! 2. **Deterministic** — a single thread drives the library
//!    [`Router`] over three nodes, with a seeded diskless kill *and* a
//!    planned join + leave mid-stream, twice against fresh clusters
//!    with the same seed. The reports, the migration history, and the
//!    rebalance history must all be byte-identical across the runs.
//!
//! Any panic or mismatch exits non-zero.
//!
//! ```text
//! replica_stress [--seed S] [--sessions K] [--events E]
//! ```

mod common;

use common::{
    check_reports, drive_session, exit_on_panic, kill_and_destroy, kill_injector, kill_round,
    rank_of, router_config, serve_config, start_node, stream, Args,
};
use latch_client::Client;
use latch_proto::Endpoint;
use latch_router::{Exporter, MigrationRecord, Router, RouterServer, RouterServerConfig};
use latch_serve::{MemStorage, WireServer};
use latch_sim::event::Event;
use std::collections::BTreeMap;
use std::time::Duration;

/// Salt of the seeded kill schedule.
const KILL_SALT: u64 = 0x00C2;

/// Why a report may diverge, for the check's failure message.
const CAUSE: &str = "after diskless failover";

/// Phase 1: client threads through a [`RouterServer`], a real mid-
/// stream node kill with the disk destroyed — the exporter has nothing.
fn threaded_phase(args: &Args) {
    const NODES: u32 = 3;
    let mut servers: Vec<Option<WireServer<MemStorage>>> =
        (0..NODES).map(|id| Some(start_node(args.seed, id))).collect();
    let mut router = Router::new(router_config(args.seed, 2, args.seed));
    for (id, srv) in servers.iter().enumerate() {
        router.add_node(id as u32, srv.as_ref().expect("fresh node").endpoint().clone());
    }
    // Total machine loss: there is no disk to re-mount, so the exporter
    // never has anything to offer — recovery must run on backups alone.
    let exporter: Exporter = Box::new(|_| Vec::new());
    let front = RouterServer::start(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        router,
        exporter,
        RouterServerConfig {
            max_window_events: 1 << 14,
            heartbeat: Duration::from_millis(10),
            ..RouterServerConfig::default()
        },
    )
    .expect("bind router");
    let endpoint = front.endpoint().clone();

    let victim = (args.seed % u64::from(NODES)) as u32;
    let delay = Duration::from_millis(kill_round(args.seed, KILL_SALT, victim));
    let victim_server = servers[victim as usize].take().expect("victim exists");
    let killer = std::thread::spawn(move || {
        std::thread::sleep(delay);
        kill_and_destroy(victim_server);
    });

    let streams: Vec<Vec<Event>> = (0..args.sessions)
        .map(|s| stream(s, args.seed.wrapping_add(s as u64), args.events))
        .collect();
    let handles: Vec<_> = streams
        .iter()
        .enumerate()
        .map(|(s, events)| {
            let endpoint = endpoint.clone();
            let events = events.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&endpoint, 256, false).expect("connect router");
                drive_session(&mut client, s as u64, &events, "replica");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    killer.join().expect("killer thread");

    let mut client = Client::connect(&endpoint, 256, false).expect("connect router");
    let reports: BTreeMap<u64, Vec<u8>> =
        client.drain().expect("drain cluster").into_iter().collect();
    check_reports(
        &reports,
        &streams,
        serve_config(args.seed).scrub_interval,
        "threaded",
        CAUSE,
    );
    let (history, lost, victim_alive) = front.with_router(|r| {
        (
            r.migration_history().to_vec(),
            r.lost_sessions(),
            r.is_alive(victim),
        )
    });
    assert!(!victim_alive, "victim node still marked alive after kill");
    assert!(
        lost.is_empty(),
        "sessions acked-lost despite live backups: {lost:?}"
    );
    assert!(
        history.iter().all(|m| m.from_node == victim),
        "a migration left a node that was never killed"
    );
    front.shutdown();
    for srv in servers.into_iter().flatten() {
        srv.shutdown();
    }
    println!(
        "threaded: {} session(s), node {victim} killed diskless after {delay:?} ({} migrated from backups), every stream reproduced",
        args.sessions,
        history.len()
    );
}

/// One single-threaded drive of the library [`Router`] against a fresh
/// 3-node cluster: the seeded diskless kill plus a planned join and
/// leave mid-stream.
fn det_run(
    args: &Args,
    streams: &[Vec<Event>],
) -> (
    BTreeMap<u64, Vec<u8>>,
    Vec<MigrationRecord>,
    Vec<MigrationRecord>,
) {
    const CHUNK: usize = 48;
    let mut servers: Vec<Option<WireServer<MemStorage>>> = (0..3)
        .map(|id| Some(start_node(args.seed ^ 0xDE7, id)))
        .collect();
    let mut router = Router::new(router_config(args.seed, 2, args.seed));
    for (id, srv) in servers.iter().enumerate() {
        router.add_node(id as u32, srv.as_ref().expect("fresh node").endpoint().clone());
    }
    let victim = (args.seed % 3) as u32;
    let mut inj = kill_injector(args.seed, KILL_SALT);
    let kill_now = |servers: &mut Vec<Option<WireServer<MemStorage>>>,
                        router: &mut Router| {
        kill_and_destroy(servers[victim as usize].take().expect("victim"));
        router.fail_over(victim, Vec::new()).expect("diskless failover");
    };
    // The planned churn: a fourth node joins a quarter of the way
    // through the drive and the lowest-id survivor leaves at the half
    // — both while every stream is still live. Every session advances
    // one chunk per round, so the round count is the longest stream's
    // chunk count.
    let rounds_est = streams.iter().map(Vec::len).max().unwrap_or(0).div_ceil(CHUNK) as u64;
    let join_at = rounds_est / 4;
    let leave_at = rounds_est / 2;
    let mut joined = false;
    let mut left = false;
    let mut pos = vec![0usize; streams.len()];
    let mut round = 0u64;
    while pos.iter().zip(streams).any(|(&p, ev)| p < ev.len()) {
        assert!(round < 1_000_000, "deterministic drive failed to make progress");
        if servers[victim as usize].is_some() && inj.node_killed_at(victim, round) {
            kill_now(&mut servers, &mut router);
        }
        if !joined && round >= join_at {
            joined = true;
            servers.push(Some(start_node(args.seed ^ 0xDE7, 3)));
            let ep = servers[3].as_ref().expect("joiner").endpoint().clone();
            router.rebalance_join(3, ep).expect("planned join");
        }
        if joined && !left && round >= leave_at {
            left = true;
            let leaver = (0..3u32)
                .find(|&n| n != victim && router.is_alive(n))
                .expect("a survivor to retire");
            router.rebalance_leave(leaver).expect("planned leave");
        }
        for (s, events) in streams.iter().enumerate() {
            if pos[s] >= events.len() {
                continue;
            }
            let take = CHUNK.min(events.len() - pos[s]);
            match router.submit(s as u64, rank_of(s), &events[pos[s]..pos[s] + take]) {
                Ok(()) => pos[s] += take,
                Err(latch_router::RouterError::Rejected(_)) => {}
                Err(e) => panic!("deterministic: session {s} submit failed: {e}"),
            }
        }
        round += 1;
    }
    // A cold seed must still exercise the diskless path: kill before
    // the drain so the backups carry the imported sessions.
    if servers[victim as usize].is_some() {
        kill_now(&mut servers, &mut router);
    }
    assert!(
        router.lost_sessions().is_empty(),
        "deterministic: sessions acked-lost despite live backups"
    );
    let reports: BTreeMap<u64, Vec<u8>> = router.drain().expect("drain").into_iter().collect();
    check_reports(
        &reports,
        streams,
        serve_config(args.seed).scrub_interval,
        "deterministic",
        CAUSE,
    );
    let history = router.migration_history().to_vec();
    let rebalances = router.rebalance_history().to_vec();
    for srv in servers.into_iter().flatten() {
        srv.shutdown();
    }
    (reports, history, rebalances)
}

/// Phase 2: the same seed twice must yield byte-identical reports, an
/// identical migration history, and an identical rebalance history.
fn deterministic_phase(args: &Args) {
    let streams: Vec<Vec<Event>> = (0..args.sessions)
        .map(|s| stream(s, args.seed.wrapping_add(s as u64), args.events))
        .collect();
    let (reports_a, history_a, rebalances_a) = det_run(args, &streams);
    let (reports_b, history_b, rebalances_b) = det_run(args, &streams);
    assert_eq!(reports_a, reports_b, "session reports changed between reruns");
    assert_eq!(history_a, history_b, "migration history changed between reruns");
    assert_eq!(
        rebalances_a, rebalances_b,
        "rebalance history changed between reruns"
    );
    println!(
        "deterministic: {} migration(s), {} rebalance move(s), reports and histories byte-identical across reruns",
        history_a.len(),
        rebalances_a.len()
    );
}

fn main() {
    let args = Args::parse(Args {
        seed: 1,
        sessions: 6,
        events: 1_200,
    });
    // Unbuffered panics from client threads must fail the process.
    exit_on_panic();
    threaded_phase(&args);
    deterministic_phase(&args);
    println!("replica_stress: ok");
}
