//! Loopback stress for the `latchd` wire path.
//!
//! Spins an in-process [`WireServer`] on `127.0.0.1:0` and drives it
//! through real sockets with the framed protocol — no shortcuts
//! through the in-process API. Two phases, both with an armed SLO so
//! overload sheds actually fire:
//!
//! 1. **Threaded** — one client thread per session, each on its own
//!    connection, chunk sizes modulated by a seeded overload fault
//!    plan (bursts + slow clients). After a drain, every session's
//!    report must be byte-identical to a solo [`SessionPipeline`] run
//!    of exactly the events that were *admitted* over the wire: no
//!    event lost, none applied twice, sheds dropped cleanly.
//! 2. **Deterministic** — a single connection drives all sessions
//!    round-robin, twice against fresh servers with the same seed.
//!    The shed set, every session report, and the pushed SLO stream
//!    must be byte-identical across the two runs.
//!
//! Any panic or mismatch exits non-zero.
//!
//! ```text
//! latchd_stress [--seed S] [--sessions K] [--events E]
//! ```

mod common;

use common::{solo, stream};
use latch_faults::{FaultInjector, FaultPlan};
use latch_proto::transport::{read_msg, write_msg, Stream};
use latch_proto::{Endpoint, Msg, WireRejected, WireSlo};
use latch_serve::{
    DurableConfig, DurableService, MemStorage, ServeConfig, Slo, WireConfig, WireServer,
};
use latch_sim::event::Event;
use std::collections::BTreeMap;

struct Args {
    seed: u64,
    sessions: usize,
    events: u64,
}

impl Args {
    fn parse() -> Self {
        let mut args = Args {
            seed: 1,
            sessions: 4,
            events: 1_500,
        };
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

fn rank_of(session: usize) -> u8 {
    (session % 3) as u8
}

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_events: 512,
        batch_max: 32,
        max_resident: 2,
        seed,
        slo: Slo {
            slo_cycles: 2,
            window: 32,
            report_every: 4,
            demote_after: 1,
            promote_after: 2,
            max_degraded: 2,
            queue_pressure_pct: 50,
        },
        ..ServeConfig::default()
    }
}

fn start_server(seed: u64) -> WireServer<MemStorage> {
    let (svc, _recovery) = DurableService::recover(
        serve_config(seed),
        DurableConfig::default(),
        FaultPlan::benign(),
        MemStorage::new(FaultPlan::benign()),
    );
    let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
    WireServer::start(&endpoint, svc, WireConfig::default()).expect("bind loopback")
}

fn connect(endpoint: &Endpoint, want_slo: bool) -> Stream {
    let mut conn = Stream::connect(endpoint, None).expect("connect loopback");
    write_msg(
        &mut conn,
        &Msg::Hello {
            version: latch_proto::PROTO_VERSION,
            window_events: 256,
            want_slo,
        },
    )
    .expect("hello");
    match read_msg(&mut conn, None).expect("hello ack").expect("hello ack") {
        Msg::HelloAck { version, .. } => assert_eq!(version, latch_proto::PROTO_VERSION),
        other => panic!("expected HelloAck, got {other:?}"),
    }
    conn
}

/// Drives one session's full stream over `conn`, retrying queue-full
/// backpressure and recording sheds. Returns the admitted events and
/// the shed observations `(session, priority, pressure)`.
#[allow(clippy::type_complexity)]
fn drive_session(
    conn: &mut Stream,
    session: u64,
    events: &[Event],
    inj: &mut FaultInjector,
    slo: &mut Vec<WireSlo>,
) -> (Vec<Event>, Vec<(u64, u8, u8)>) {
    const CHUNK: usize = 48;
    let rank = rank_of(session as usize);
    let mut admitted = Vec::new();
    let mut sheds = Vec::new();
    let mut pos = 0usize;
    let mut round = 0u64;
    while pos < events.len() {
        assert!(round < 1_000_000, "wire drive failed to make progress");
        let factor = inj.burst_factor_at(round).unwrap_or(1) as usize;
        if inj.slow_client_at(round) && rank != 0 {
            round += 1;
            continue; // slow clients sit a round out; critical keeps flowing
        }
        let take = (CHUNK * factor).min(events.len() - pos);
        let batch = &events[pos..pos + take];
        write_msg(
            conn,
            &Msg::Submit {
                session,
                priority: rank,
                events: batch.to_vec(),
            },
        )
        .expect("submit");
        // Replies may be preceded by any number of SLO pushes.
        loop {
            match read_msg(conn, None).expect("reply").expect("reply") {
                Msg::SloPush(report) => slo.push(report),
                Msg::SubmitOk { .. } => {
                    admitted.extend_from_slice(batch);
                    pos += take;
                    break;
                }
                Msg::SubmitRejected { rejected, .. } => {
                    match rejected {
                        WireRejected::Shed {
                            session: s,
                            priority,
                            pressure,
                        } => {
                            assert_ne!(rank, 0, "critical traffic was shed");
                            sheds.push((s, priority, pressure));
                            pos += take; // shed events are dropped on purpose
                        }
                        WireRejected::QueueFull { .. } | WireRejected::SessionBusy { .. } => {
                            // Backpressure: leave `pos` alone and retry
                            // the same batch next round.
                        }
                        other => panic!("unexpected rejection: {other:?}"),
                    }
                    break;
                }
                other => panic!("unexpected reply: {other:?}"),
            }
        }
        round += 1;
    }
    (admitted, sheds)
}

/// Drains through `conn` and returns every session's report bytes.
fn drain(conn: &mut Stream, slo: &mut Vec<WireSlo>) -> BTreeMap<u64, Vec<u8>> {
    write_msg(conn, &Msg::Drain).expect("drain");
    loop {
        match read_msg(conn, None).expect("drained").expect("drained") {
            Msg::SloPush(report) => slo.push(report),
            Msg::Drained { reports } => return reports.into_iter().collect(),
            other => panic!("expected Drained, got {other:?}"),
        }
    }
}

fn check_no_loss_no_dup(
    reports: &BTreeMap<u64, Vec<u8>>,
    admitted: &BTreeMap<u64, Vec<Event>>,
    scrub_interval: u64,
) {
    for (&session, events) in admitted {
        match reports.get(&session) {
            Some(bytes) => assert_eq!(
                *bytes,
                solo(events, scrub_interval),
                "session {session}: wire report diverged from a solo run of its admitted stream"
            ),
            None => assert!(
                events.is_empty(),
                "session {session}: admitted events but no report"
            ),
        }
    }
}

/// Phase 1: N threads, one connection + session each, seeded overload
/// fault plan. No event admitted over the wire may be lost or doubled.
fn threaded_phase(args: &Args) {
    let server = start_server(args.seed);
    let endpoint = server.endpoint().clone();
    let plan = FaultPlan::new(args.seed ^ 0x0B5E).with_overload(180, 4, 150);
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
                let mut conn = connect(&endpoint, false);
                let mut inj = FaultInjector::new(plan);
                let mut slo = Vec::new();
                drive_session(&mut conn, s as u64, &events, &mut inj, &mut slo)
            })
        })
        .collect();
    let mut admitted = BTreeMap::new();
    let mut shed_total = 0usize;
    for (s, h) in handles.into_iter().enumerate() {
        let (adm, sheds) = h.join().expect("client thread");
        shed_total += sheds.len();
        admitted.insert(s as u64, adm);
    }
    let mut conn = connect(&endpoint, false);
    let mut slo = Vec::new();
    let reports = drain(&mut conn, &mut slo);
    check_no_loss_no_dup(&reports, &admitted, serve_config(args.seed).scrub_interval);
    drop(conn);
    server.shutdown();
    println!(
        "threaded: {} session(s), {} shed(s), every admitted stream reproduced",
        args.sessions, shed_total
    );
}

struct DetRun {
    sheds: Vec<(u64, u8, u8)>,
    reports: BTreeMap<u64, Vec<u8>>,
    slo: Vec<WireSlo>,
}

/// One single-connection round-robin drive against a fresh server.
fn det_run(args: &Args, streams: &[Vec<Event>]) -> DetRun {
    let server = start_server(args.seed);
    let mut conn = connect(server.endpoint(), true);
    let plan = FaultPlan::new(args.seed ^ 0x0B5E).with_overload(180, 4, 150);
    let mut admitted = BTreeMap::new();
    let mut sheds = Vec::new();
    let mut slo = Vec::new();
    for (s, events) in streams.iter().enumerate() {
        let mut inj = FaultInjector::new(plan);
        let (adm, sh) = drive_session(&mut conn, s as u64, events, &mut inj, &mut slo);
        admitted.insert(s as u64, adm);
        sheds.extend(sh);
    }
    let reports = drain(&mut conn, &mut slo);
    check_no_loss_no_dup(&reports, &admitted, serve_config(args.seed).scrub_interval);
    drop(conn);
    server.shutdown();
    DetRun { sheds, reports, slo }
}

/// Phase 2: the same seed twice must yield a byte-identical shed set,
/// reports, and SLO push stream.
fn deterministic_phase(args: &Args) {
    let streams: Vec<Vec<Event>> = (0..args.sessions)
        .map(|s| stream(s, args.seed.wrapping_add(s as u64), args.events))
        .collect();
    let a = det_run(args, &streams);
    let b = det_run(args, &streams);
    assert_eq!(a.sheds, b.sheds, "shed set changed between reruns");
    assert_eq!(a.reports, b.reports, "session reports changed between reruns");
    assert_eq!(a.slo, b.slo, "SLO push stream changed between reruns");
    println!(
        "deterministic: {} shed(s), {} SLO cut(s), byte-identical across reruns",
        a.sheds.len(),
        a.slo.len()
    );
}

fn main() {
    let args = Args::parse();
    // Unbuffered panics from client threads must fail the process.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        hook(info);
        std::process::exit(101);
    }));
    threaded_phase(&args);
    deterministic_phase(&args);
    println!("latchd_stress: ok");
}
