//! Cluster stress for the `latch-router` failover path.
//!
//! Spins real `latchd` wire servers on `127.0.0.1:0`, a router in
//! front of them, and kills a node mid-stream — the kill round seeded
//! through [`FaultInjector::node_killed_at`]. Two phases:
//!
//! 1. **Threaded** — one client thread per session, all speaking the
//!    ordinary client protocol to the *router*. A harness thread kills
//!    the victim node's listener at the seeded round and deposits its
//!    surviving storage for the router's exporter. After a drain
//!    through the router, every session's report must be
//!    byte-identical to a solo [`SessionPipeline`] run of its full
//!    stream: no event lost to the failover, none applied twice.
//! 2. **Deterministic** — a single thread drives the library
//!    [`Router`] over two nodes round-robin, killing the victim at the
//!    seeded round boundary (or before the drain if the budget never
//!    fires), twice against fresh clusters with the same seed. The
//!    session reports *and the migration history* must be
//!    byte-identical across the two runs.
//!
//! Any panic or mismatch exits non-zero.
//!
//! ```text
//! cluster_stress [--seed S] [--sessions K] [--events E]
//! ```

mod common;

use common::{
    check_reports, drive_session, exit_on_panic, kill_and_export, kill_injector, kill_round,
    rank_of, router_config, serve_config, start_node, stream, Args,
};
use latch_client::Client;
use latch_proto::Endpoint;
use latch_router::{Exporter, MigrationRecord, Router, RouterServer, RouterServerConfig};
use latch_serve::{MemStorage, SessionExport, WireServer};
use latch_sim::event::Event;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Salt of the seeded kill schedule.
const KILL_SALT: u64 = 0x00C1;

/// Why a report may diverge, for the check's failure message.
const CAUSE: &str = "after failover";

/// Phase 1: client threads through a [`RouterServer`], a real mid-
/// stream node kill, exporter fed by the harness's deposit.
fn threaded_phase(args: &Args) {
    const NODES: u32 = 3;
    let mut servers: Vec<Option<WireServer<MemStorage>>> =
        (0..NODES).map(|id| Some(start_node(args.seed, id))).collect();
    let mut router = Router::new(router_config(args.seed, 0, args.seed));
    for (id, srv) in servers.iter().enumerate() {
        router.add_node(id as u32, srv.as_ref().expect("fresh node").endpoint().clone());
    }
    let deposits: Arc<Mutex<BTreeMap<u32, Vec<SessionExport>>>> =
        Arc::new(Mutex::new(BTreeMap::new()));
    let exporter_deposits = Arc::clone(&deposits);
    let exporter: Exporter = Box::new(move |node| {
        // The harness deposits the dead node's exports right after the
        // kill; wait briefly for the racing deposit.
        for _ in 0..2_000 {
            if let Some(exports) = exporter_deposits.lock().expect("deposits").get(&node) {
                return exports.clone();
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Vec::new()
    });
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
    let killer_deposits = Arc::clone(&deposits);
    let killer = std::thread::spawn(move || {
        std::thread::sleep(delay);
        let exports = kill_and_export(victim_server);
        let n = exports.len();
        killer_deposits.lock().expect("deposits").insert(victim, exports);
        n
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
                drive_session(&mut client, s as u64, &events, "cluster");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let exported = killer.join().expect("killer thread");

    let mut client = Client::connect(&endpoint, 256, false).expect("connect router");
    let reports: BTreeMap<u64, Vec<u8>> = client.drain().expect("drain cluster").into_iter().collect();
    check_reports(
        &reports,
        &streams,
        serve_config(args.seed).scrub_interval,
        "threaded",
        CAUSE,
    );
    let (history, victim_alive) =
        front.with_router(|r| (r.migration_history().to_vec(), r.is_alive(victim)));
    assert!(!victim_alive, "victim node still marked alive after kill");
    assert!(
        history.iter().all(|m| m.from_node == victim),
        "a migration left a node that was never killed"
    );
    front.shutdown();
    for srv in servers.into_iter().flatten() {
        srv.shutdown();
    }
    println!(
        "threaded: {} session(s), node {victim} killed after {delay:?} ({exported} exported, {} migrated), every stream reproduced",
        args.sessions,
        history.len()
    );
}

/// One single-threaded round-robin drive of the library [`Router`]
/// against a fresh 2-node cluster, with the seeded kill.
fn det_run(args: &Args, streams: &[Vec<Event>]) -> (BTreeMap<u64, Vec<u8>>, Vec<MigrationRecord>) {
    const CHUNK: usize = 48;
    let mut servers: Vec<Option<WireServer<MemStorage>>> =
        (0..2).map(|id| Some(start_node(args.seed ^ 0xDE7, id))).collect();
    let mut router = Router::new(router_config(args.seed, 0, args.seed));
    for (id, srv) in servers.iter().enumerate() {
        router.add_node(id as u32, srv.as_ref().expect("fresh node").endpoint().clone());
    }
    let victim = (args.seed % 2) as u32;
    let mut inj = kill_injector(args.seed, KILL_SALT);
    let kill_now = |servers: &mut Vec<Option<WireServer<MemStorage>>>,
                        router: &mut Router| {
        let exports = kill_and_export(servers[victim as usize].take().expect("victim"));
        router.fail_over(victim, exports).expect("failover");
    };
    let mut pos = vec![0usize; streams.len()];
    let mut round = 0u64;
    while pos.iter().zip(streams).any(|(&p, ev)| p < ev.len()) {
        assert!(round < 1_000_000, "deterministic drive failed to make progress");
        if servers[victim as usize].is_some() && inj.node_killed_at(victim, round) {
            kill_now(&mut servers, &mut router);
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
    // A cold seed must still exercise the migration path: kill before
    // the drain so the survivor serves the imported sessions.
    if servers[victim as usize].is_some() {
        kill_now(&mut servers, &mut router);
    }
    let reports: BTreeMap<u64, Vec<u8>> = router.drain().expect("drain").into_iter().collect();
    check_reports(
        &reports,
        streams,
        serve_config(args.seed).scrub_interval,
        "deterministic",
        CAUSE,
    );
    let history = router.migration_history().to_vec();
    for srv in servers.into_iter().flatten() {
        srv.shutdown();
    }
    (reports, history)
}

/// Phase 2: the same seed twice must yield byte-identical reports and
/// an identical migration history.
fn deterministic_phase(args: &Args) {
    let streams: Vec<Vec<Event>> = (0..args.sessions)
        .map(|s| stream(s, args.seed.wrapping_add(s as u64), args.events))
        .collect();
    let (reports_a, history_a) = det_run(args, &streams);
    let (reports_b, history_b) = det_run(args, &streams);
    assert_eq!(reports_a, reports_b, "session reports changed between reruns");
    assert_eq!(history_a, history_b, "migration history changed between reruns");
    println!(
        "deterministic: {} migration(s), reports and history byte-identical across reruns",
        history_a.len()
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
    println!("cluster_stress: ok");
}
