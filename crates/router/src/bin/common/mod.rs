//! Harness shared by the router stress bins (`cluster_stress`,
//! `replica_stress`, `router_ha_stress`): flag parsing, the seeded
//! streams, node and router configs, the seeded kill round, node kills,
//! and the solo-run report check. Each bin pulls it in with
//! `mod common;` and uses the parts its phases need.

#![allow(dead_code)]

use latch_client::{Client, ClientError};
use latch_faults::{FaultInjector, FaultPlan};
use latch_proto::Endpoint;
use latch_router::RouterConfig;
use latch_serve::{
    export_sessions, DurableConfig, DurableService, MemStorage, ServeConfig, SessionExport,
    WireConfig, WireServer,
};
use latch_sim::event::{Event, EventSource};
use latch_systems::session::SessionPipeline;
use latch_workloads::all_profiles;
use std::collections::BTreeMap;
use std::time::Duration;

/// `[--seed S] [--sessions K] [--events E]`.
pub struct Args {
    pub seed: u64,
    pub sessions: usize,
    pub events: u64,
}

impl Args {
    /// Parses the command line over the bin's own `defaults`.
    pub fn parse(defaults: Args) -> Self {
        let mut args = defaults;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {flag}"))
            };
            match flag.as_str() {
                "--seed" => args.seed = value().parse().expect("--seed"),
                "--sessions" => args.sessions = value().parse().expect("--sessions"),
                "--events" => args.events = value().parse().expect("--events"),
                other => panic!("unknown flag {other}"),
            }
        }
        assert!(args.sessions > 0 && args.events > 0);
        args
    }
}

/// Makes any panic — including one on a client or harness thread —
/// exit the process with status 101.
pub fn exit_on_panic() {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        hook(info);
        std::process::exit(101);
    }));
}

pub fn stream(profile_idx: usize, seed: u64, n: u64) -> Vec<Event> {
    let profiles = all_profiles();
    let mut src = profiles[profile_idx % profiles.len()].stream(seed, n);
    let mut out = Vec::new();
    while let Some(ev) = src.next_event() {
        out.push(ev);
    }
    out
}

pub fn rank_of(session: usize) -> u8 {
    (session % 3) as u8
}

pub fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_events: 512,
        batch_max: 32,
        seed,
        ..ServeConfig::default()
    }
}

pub fn start_node(seed: u64, id: u32) -> WireServer<MemStorage> {
    let (svc, _recovery) = DurableService::recover(
        serve_config(seed.wrapping_add(u64::from(id))),
        DurableConfig::default(),
        FaultPlan::benign(),
        MemStorage::new(FaultPlan::benign()),
    );
    let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
    WireServer::start(&endpoint, svc, WireConfig::default()).expect("bind loopback node")
}

pub fn router_config(seed: u64, replicas: u32, router_id: u64) -> RouterConfig {
    RouterConfig {
        seed,
        vnodes: 32,
        miss_budget: 2,
        window_events: 256,
        router_id,
        replicas,
        ..RouterConfig::default()
    }
}

/// The seeded node-kill schedule: at most one kill, 25‰ per round.
pub fn kill_injector(seed: u64, salt: u64) -> FaultInjector {
    FaultInjector::new(FaultPlan::new(seed ^ salt).with_node_kills(25, 1))
}

/// The seeded round at which the victim dies (bounded so the threaded
/// phase's sleep stays short even on a cold seed).
pub fn kill_round(seed: u64, salt: u64, victim: u32) -> u64 {
    let mut inj = kill_injector(seed, salt);
    (0..200).find(|&r| inj.node_killed_at(victim, r)).unwrap_or(30)
}

/// Kills a wire server and exports every session from its surviving
/// storage — the disk a real deployment would re-mount.
pub fn kill_and_export(server: WireServer<MemStorage>) -> Vec<SessionExport> {
    let svc = server.kill().expect("victim was not drained");
    let mut storage = svc.crash();
    export_sessions(&mut storage)
}

/// Kills a wire server and destroys its storage: total machine loss.
/// Nothing survives for an exporter to re-mount.
pub fn kill_and_destroy(server: WireServer<MemStorage>) {
    let svc = server.kill().expect("victim was not drained");
    drop(svc.crash());
}

/// Drives one session's full stream through the router, retrying
/// backpressure and the kill window's transient refusals.
pub fn drive_session(client: &mut Client, session: u64, events: &[Event], what: &str) {
    const CHUNK: usize = 32;
    let rank = rank_of(session as usize);
    let mut pos = 0usize;
    let mut rounds = 0u64;
    while pos < events.len() {
        assert!(rounds < 1_000_000, "{what} drive failed to make progress");
        rounds += 1;
        let take = CHUNK.min(events.len() - pos);
        match client.submit(session, rank, &events[pos..pos + take]) {
            Ok(()) => pos += take,
            Err(ClientError::Rejected(_)) => {
                // Queue-full backpressure, or the victim answering
                // ShuttingDown in the instant between losing its
                // service and its sockets closing; either way the
                // batch was not admitted — retry it.
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("session {session}: router connection failed: {e}"),
        }
    }
}

/// Requires one report per stream, each byte-identical to a solo
/// pipeline run of the full stream; `cause` names what the stream
/// survived (for the failure message).
pub fn check_reports(
    reports: &BTreeMap<u64, Vec<u8>>,
    streams: &[Vec<Event>],
    scrub_interval: u64,
    what: &str,
    cause: &str,
) {
    assert_eq!(
        reports.len(),
        streams.len(),
        "{what}: expected one report per session"
    );
    for (s, events) in streams.iter().enumerate() {
        let mut solo = SessionPipeline::new(scrub_interval);
        for ev in events {
            solo.apply(ev);
        }
        let bytes = reports
            .get(&(s as u64))
            .unwrap_or_else(|| panic!("{what}: session {s} has no report"));
        assert_eq!(
            *bytes,
            solo.report().encode(),
            "{what}: session {s} diverged from its solo run {cause}"
        );
    }
}
