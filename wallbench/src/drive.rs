//! Closed-loop load: each connection sends its next batch only after
//! the previous one was answered, like a monitored program waiting for
//! its ack. One round starts a fresh `latchd` on an empty state
//! directory, drives every batch, drains, and waits for latchd to exit.

use crate::procs::{host_cpu_since, host_cpu_ticks, reaped_children_cpu_s, Daemon, StateDir};
use crate::spec::{Inputs, Spec};
use crate::trace::{self, now_ns, TimedStorage};
use latch_client::{Client, ClientError};
use latch_faults::FaultPlan;
use latch_proto::{Endpoint, WireRejected};
use latch_serve::{
    DirStorage, DurableConfig, DurableService, ServeConfig, Slo, WireConfig, WireServer,
};
use latch_sim::event::Event;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Attempts after which a batch that keeps meeting backpressure counts
/// as failed.
const MAX_ATTEMPTS: u32 = 100_000;

/// Restarts of latchd on a drained state directory before a lost
/// `Drained` reply counts as a failed round.
const MAX_REDRAINS: u32 = 5;

/// How long a daemon may take to exit after its drain.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

/// The service configuration `latchd` builds from its default flags
/// (plus `--slo-cycles`), for the in-process server and the replay.
pub fn latchd_config(slo_cycles: Option<u64>) -> ServeConfig {
    let mut cfg = ServeConfig {
        workers: 4,
        seed: 0x1a7c_4d00,
        ..ServeConfig::default()
    };
    if let Some(cycles) = slo_cycles {
        cfg.slo = Slo {
            slo_cycles: cycles,
            ..Slo::OFF
        };
    }
    cfg
}

/// How one attempt at a batch was answered.
enum Reply {
    Ok,
    /// `QueueFull` / `SessionBusy`: retry the same batch.
    Retry,
    /// Shed by the overload policy: final, the batch is dropped.
    Shed,
    Fail(String),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Admitted,
    Shed,
    Failed,
}

/// One batch as its connection saw it.
#[derive(Debug, Clone)]
pub struct BatchRec {
    pub batch: usize,
    pub conn: usize,
    /// First `Submit` written, on the [`trace::now_ns`] clock.
    pub sent_ns: u64,
    /// Final reply read.
    pub acked_ns: u64,
    pub attempts: u32,
    /// SLO push frames read while waiting for this batch's replies.
    pub pushes: u32,
    pub outcome: Outcome,
}

fn submit(client: &mut Client, session: u64, rank: u8, events: &[Event]) -> Reply {
    match client.submit(session, rank, events) {
        Ok(()) => Reply::Ok,
        Err(ClientError::Rejected(
            WireRejected::QueueFull { .. } | WireRejected::SessionBusy { .. },
        )) => Reply::Retry,
        Err(ClientError::Rejected(WireRejected::Shed { .. })) => Reply::Shed,
        Err(ClientError::Rejected(other)) => Reply::Fail(format!("refused: {other}")),
        Err(e) => Reply::Fail(e.to_string()),
    }
}

/// Sends connection `conn`'s batches in order, closed loop.
fn drive_conn(client: &mut Client, inputs: &Inputs, conn: usize) -> Vec<BatchRec> {
    let mut recs = Vec::with_capacity(inputs.per_conn[conn].len());
    for &b in &inputs.per_conn[conn] {
        let session = inputs.session_of(b);
        let events = inputs.events(b);
        let sent_ns = now_ns();
        let mut attempts = 0u32;
        let mut pushes = 0u32;
        let outcome = loop {
            attempts += 1;
            let reply = submit(client, session.id, session.rank, events);
            pushes += client.take_slo_reports().len() as u32;
            match reply {
                Reply::Ok => break Outcome::Admitted,
                Reply::Shed => break Outcome::Shed,
                Reply::Retry if attempts < MAX_ATTEMPTS => {}
                Reply::Retry => {
                    eprintln!("wallbench: batch {b} still refused after {attempts} attempts");
                    break Outcome::Failed;
                }
                Reply::Fail(e) => {
                    eprintln!("wallbench: batch {b} failed: {e}");
                    break Outcome::Failed;
                }
            }
        };
        recs.push(BatchRec {
            batch: b,
            conn,
            sent_ns,
            acked_ns: now_ns(),
            attempts,
            pushes,
            outcome,
        });
        if outcome == Outcome::Failed {
            break; // the connection is no longer usable
        }
    }
    recs
}

/// Everything one round measured.
pub struct Round {
    /// Spawn of the daemon to the first `HelloAck`.
    pub setup_s: f64,
    /// First `Submit` to `Drained` (or to the end of a drain whose
    /// reply was lost).
    pub wall_s: f64,
    pub recs: Vec<BatchRec>,
    pub reports: BTreeMap<u64, Vec<u8>>,
    /// Why the round failed after its batches: a drain that returned
    /// no reports, or a daemon that did not exit cleanly after it.
    pub failure: Option<String>,
    /// Times latchd was restarted on the drained state directory
    /// because it exited without writing its `Drained` reply.
    pub redrains: u32,
    /// User+system CPU of the daemon process.
    pub cpu_s: f64,
    /// The daemon's peak RSS.
    pub rss_bytes: u64,
    /// Host CPU ticks, and the part of them stolen by the hypervisor,
    /// from the first `Submit` to the drain.
    pub host_ticks: u64,
    pub steal_ticks: u64,
}

impl Round {
    pub fn admitted_events(&self, inputs: &Inputs) -> u64 {
        self.recs
            .iter()
            .filter(|r| r.outcome == Outcome::Admitted)
            .map(|r| inputs.events(r.batch).len() as u64)
            .sum()
    }
}

/// Runs every connection's batches on its own thread.
fn drive_all(clients: &mut [Client], inputs: &Inputs) -> Vec<BatchRec> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| scope.spawn(move || drive_conn(client, inputs, c)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("connection thread"))
            .collect()
    })
}

fn connect_all(endpoint: &Endpoint, spec: &Spec) -> Result<Vec<Client>, String> {
    (0..spec.conns)
        .map(|_| {
            Client::connect(endpoint, spec.window, spec.want_slo)
                .map_err(|e| format!("connect {endpoint}: {e}"))
        })
        .collect()
}

/// The connection closed before the `Drained` frame arrived.
fn reply_lost(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Io(_) | ClientError::UnexpectedReply("connection closed")
    )
}

fn latchd_args(dir: &Path, slo_cycles: Option<u64>) -> Vec<String> {
    let mut args = vec![
        "--listen".to_string(),
        "tcp:127.0.0.1:0".to_string(),
        "--dir".to_string(),
        dir.display().to_string(),
    ];
    if let Some(c) = slo_cycles {
        args.extend(["--slo-cycles".to_string(), c.to_string()]);
    }
    args
}

/// latchd exits 0 only once its drain has completed, and the drain
/// group-commits every admitted event first, so after a lost `Drained`
/// reply the state directory holds the whole round. Restarting latchd
/// on it recovers the sessions, and a fresh `Drain` asks for the same
/// reports again; the gate then checks them as usual.
fn redrain(
    latchd: &Path,
    args: &[String],
    redrains: &mut u32,
) -> Result<Vec<(u64, Vec<u8>)>, String> {
    while *redrains < MAX_REDRAINS {
        *redrains += 1;
        let daemon = Daemon::start(latchd, args)?;
        let drained = Client::connect(&Endpoint::Tcp(daemon.addr.clone()), 1, false)
            .and_then(|mut c| c.drain());
        daemon.wait_exit(EXIT_TIMEOUT)?;
        match drained {
            Ok(reports) => return Ok(reports),
            Err(e) if reply_lost(&e) => {}
            Err(e) => return Err(format!("drain after restart: {e}")),
        }
    }
    Err(format!(
        "drain: {MAX_REDRAINS} restarts of latchd all lost the Drained reply"
    ))
}

/// One round against the shipped `latchd`, spawned as a child.
pub fn spawned_round(
    spec: &Spec,
    inputs: &Inputs,
    latchd: &Path,
    root: &Path,
) -> Result<Round, String> {
    let state = StateDir::new(root, spec.name)?;
    let args = latchd_args(&state.0.join("node0"), spec.slo_cycles);
    let cpu0 = reaped_children_cpu_s();
    let t_spawn = Instant::now();
    let mut daemon = Daemon::start(latchd, &args)?;
    let mut clients = connect_all(&Endpoint::Tcp(daemon.addr.clone()), spec)?;
    let setup_s = t_spawn.elapsed().as_secs_f64();
    let host0 = host_cpu_ticks();
    let t0 = Instant::now();
    let recs = drive_all(&mut clients, inputs);
    daemon.sample_hwm();
    let drained = clients[0].drain();
    let wall_s = t0.elapsed().as_secs_f64();
    let host = host_cpu_since(&host0);
    daemon.sample_hwm();
    drop(clients);
    let rss_bytes = daemon.hwm_bytes();
    let exit = daemon.wait_exit(EXIT_TIMEOUT);
    let cpu_s = reaped_children_cpu_s() - cpu0;
    let mut redrains = 0;
    let drained = match (drained, exit) {
        (_, Err(e)) => Err(e),
        (Ok(reports), Ok(())) => Ok(reports),
        (Err(e), Ok(())) if reply_lost(&e) => redrain(latchd, &args, &mut redrains),
        (Err(e), Ok(())) => Err(format!("drain: {e}")),
    };
    let (reports, failure) = match drained {
        Ok(reports) => (reports.into_iter().collect(), None),
        Err(e) => (BTreeMap::new(), Some(e)),
    };
    Ok(Round {
        setup_s,
        wall_s,
        recs,
        reports,
        failure,
        redrains,
        cpu_s,
        rss_bytes,
        host_ticks: host.iter().sum(),
        steal_ticks: host.get(7).copied().unwrap_or(0),
    })
}

/// One traced round: the daemon runs in-process with a timing
/// [`TimedStorage`] around its directory store, so the spans of the
/// storage layer see the live calls.
pub fn traced_round(spec: &Spec, inputs: &Inputs, root: &Path) -> Result<Round, String> {
    let state = StateDir::new(root, &format!("{}-traced", spec.name))?;
    let t_spawn = Instant::now();
    let storage =
        DirStorage::open(state.0.join("node0")).map_err(|e| format!("open state dir: {e}"))?;
    let (svc, _) = DurableService::recover(
        latchd_config(spec.slo_cycles),
        DurableConfig::default(),
        FaultPlan::benign(),
        TimedStorage(storage),
    );
    let server = WireServer::start(
        &Endpoint::Tcp("127.0.0.1:0".into()),
        svc,
        WireConfig::default(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let mut clients = connect_all(server.endpoint(), spec)?;
    let setup_s = t_spawn.elapsed().as_secs_f64();
    trace::set_phase(trace::LIVE);
    let t0 = Instant::now();
    let recs = drive_all(&mut clients, inputs);
    let drained = clients[0].drain();
    let wall_s = t0.elapsed().as_secs_f64();
    trace::set_phase(0);
    drop(clients);
    server.shutdown();
    let (reports, failure) = match drained {
        Ok(reports) => (reports.into_iter().collect(), None),
        Err(e) => (BTreeMap::new(), Some(format!("drain: {e}"))),
    };
    Ok(Round {
        setup_s,
        wall_s,
        recs,
        reports,
        failure,
        redrains: 0,
        cpu_s: 0.0,
        rss_bytes: 0,
        host_ticks: 0,
        steal_ticks: 0,
    })
}

/// Location of the shipped `latchd` binary under the build directory.
pub fn latchd_bin(target: &Path) -> PathBuf {
    target.join("release/latchd")
}
