//! Pin test for every way the router moves a session.
//!
//! One fixed-seed, single-threaded drive over in-process `latchd`
//! nodes on loopback (`MemStorage`, `replicas = 2`) runs, in order:
//!
//! 1. a failover from the dead node's surviving storage;
//! 2. a diskless failover (the storage is destroyed, so every session
//!    restores from a backup journal);
//! 3. a planned leave and a planned join, on nodes that snapshot every
//!    few events. One snapshot write on the leaver fails once, so that
//!    snapshot lands (and the journal rotates) between a move's
//!    pre-copy and its cut-point: an inline restage;
//! 4. a standby takeover in the same blast as a node death, which
//!    restores the dead node's sessions from replica journals.
//!
//! It then asserts the exact migration, rebalance and takeover
//! histories, the acked-lost triples, every session's replication
//! cursor and a digest of the drained reports. The expected values were
//! recorded from the router before its move paths were merged; any
//! change to the probe order, the route settle or the re-root shows up
//! here as a diff.

use latch_faults::FaultPlan;
use latch_proto::Endpoint;
use latch_router::{Router, RouterConfig, RouterError, TakeoverRecord};
use latch_serve::{
    export_sessions, DurableConfig, DurableService, MemStorage, ServeConfig, Storage,
    WireConfig, WireServer,
};
use latch_sim::event::{Event, EventSource};
use latch_systems::session::SessionPipeline;
use latch_workloads::all_profiles;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

const SEED: u64 = 0x9141_7E57_0B0E;
const SESSIONS: usize = 10;
const EVENTS: u64 = 480;
const CHUNK: usize = 24;

fn stream(profile_idx: usize, seed: u64, n: u64) -> Vec<Event> {
    let profiles = all_profiles();
    let mut src = profiles[profile_idx % profiles.len()].stream(seed, n);
    let mut out = Vec::new();
    while let Some(ev) = src.next_event() {
        out.push(ev);
    }
    out
}

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_events: 512,
        batch_max: 32,
        seed,
        ..ServeConfig::default()
    }
}

/// `MemStorage` whose next `fail` snapshot writes report failure and
/// write nothing: a transient fault that leaves a snapshot due at one
/// pump and lets the next pump write it and rotate the journal.
struct Disk {
    inner: MemStorage,
    fail: Arc<AtomicU32>,
}

impl Storage for Disk {
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
    fn read(&mut self, name: &str) -> Option<Vec<u8>> {
        self.inner.read(name)
    }
    fn append(&mut self, name: &str, bytes: &[u8]) -> bool {
        self.inner.append(name, bytes)
    }
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> bool {
        let failed = name.starts_with("snap-")
            && self
                .fail
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok();
        !failed && self.inner.write_atomic(name, bytes)
    }
    fn fsync(&mut self) -> bool {
        self.inner.fsync()
    }
    fn remove(&mut self, name: &str) {
        self.inner.remove(name);
    }
}

fn start_node(id: u32, fail: &Arc<AtomicU32>) -> WireServer<Disk> {
    let disk = Disk {
        inner: MemStorage::new(FaultPlan::benign()),
        fail: Arc::clone(fail),
    };
    let (svc, _recovery) = DurableService::recover(
        serve_config(SEED.wrapping_add(u64::from(id))),
        DurableConfig {
            snapshot_every: 16,
            ..DurableConfig::default()
        },
        FaultPlan::benign(),
        disk,
    );
    let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
    WireServer::start(&endpoint, svc, WireConfig::default()).expect("bind loopback node")
}

fn router_config(router_id: u64) -> RouterConfig {
    RouterConfig {
        seed: SEED,
        vnodes: 32,
        miss_budget: 2,
        window_events: 4096,
        router_id,
        replicas: 2,
        ..RouterConfig::default()
    }
}

fn solo_report(events: &[Event]) -> Vec<u8> {
    let mut pipe = SessionPipeline::new(serve_config(SEED).scrub_interval);
    for ev in events {
        pipe.apply(ev);
    }
    pipe.report().encode()
}

/// One batch per unfinished session, retrying typed refusals.
fn drive_round(router: &mut Router, streams: &[Vec<Event>], pos: &mut [usize]) {
    for (s, events) in streams.iter().enumerate() {
        if pos[s] >= events.len() {
            continue;
        }
        let take = CHUNK.min(events.len() - pos[s]);
        loop {
            match router.submit(s as u64, (s % 3) as u8, &events[pos[s]..pos[s] + take]) {
                Ok(()) => {
                    pos[s] += take;
                    break;
                }
                Err(RouterError::Rejected(_)) => {}
                Err(e) => panic!("session {s} submit failed: {e}"),
            }
        }
    }
}

fn drive(router: &mut Router, streams: &[Vec<Event>], pos: &mut [usize], rounds: usize) {
    for _ in 0..rounds {
        drive_round(router, streams, pos);
    }
}

fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

fn repl_cursors(router: &Router) -> Vec<(u64, Option<(u64, usize)>)> {
    (0..SESSIONS as u64).map(|s| (s, router.repl_stats(s))).collect()
}

/// `(at_tick, session, from_node, to_node, applied)` of every record.
macro_rules! moves {
    ($records:expr) => {
        $records
            .iter()
            .map(|r| (r.at_tick, r.session, r.from_node, r.to_node, r.applied))
            .collect::<Vec<(u64, u64, u32, u32, u64)>>()
    };
}

#[cfg(feature = "obs")]
fn counter(name: &str) -> u64 {
    latch_obs::snapshot()
        .metrics
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

#[test]
fn every_session_move_is_pinned() {
    #[cfg(feature = "obs")]
    let inline_before = counter("router.rebalance.restage_inline");
    let streams: Vec<Vec<Event>> = (0..SESSIONS)
        .map(|s| stream(s, SEED.wrapping_add(s as u64), EVENTS))
        .collect();
    let mut pos = vec![0usize; SESSIONS];
    // Nodes 0..=5 start on the ring; node 6 joins later.
    let faults: Vec<Arc<AtomicU32>> = (0..7).map(|_| Arc::default()).collect();
    let mut servers: BTreeMap<u32, WireServer<Disk>> = (0..7u32)
        .map(|id| (id, start_node(id, &faults[id as usize])))
        .collect();
    let endpoints: BTreeMap<u32, Endpoint> = servers
        .iter()
        .map(|(&id, srv)| (id, srv.endpoint().clone()))
        .collect();
    let mut old = Router::new(router_config(7));
    for id in 0..6 {
        old.add_node(id, endpoints[&id].clone());
    }
    drive(&mut old, &streams, &mut pos, 4);

    // 1. Failover from the dead node's surviving storage.
    let victim = old.owner_of(0).expect("placed");
    let svc = servers.remove(&victim).expect("victim").kill().expect("undrained");
    let mut disk = svc.crash();
    let exports = export_sessions(&mut disk.inner);
    old.fail_over(victim, exports).expect("failover from storage");
    drive(&mut old, &streams, &mut pos, 3);

    // 2. Diskless failover: the machine is gone with its storage.
    let victim = old.owner_of(1).expect("placed");
    drop(servers.remove(&victim).expect("victim").kill());
    old.fail_over(victim, Vec::new()).expect("diskless failover");
    drive(&mut old, &streams, &mut pos, 3);

    // 3. Planned leave, then planned join of the held-back node.
    let leaver = old.owner_of(2).expect("placed");
    faults[leaver as usize].store(1, Ordering::SeqCst);
    old.rebalance_leave(leaver).expect("planned leave");
    drive(&mut old, &streams, &mut pos, 2);
    old.rebalance_join(6, endpoints[&6].clone())
        .expect("planned join");
    drive(&mut old, &streams, &mut pos, 2);

    // 4. The old router dies in the same blast as a node machine; a
    // standby takes over the current members.
    let members: Vec<u32> = old
        .alive_nodes()
        .into_iter()
        .filter(|&n| n != leaver)
        .collect();
    let victim = old.owner_of(3).expect("placed");
    let old_history = moves!(old.migration_history());
    let old_rebalances = moves!(old.rebalance_history());
    let old_lost = old.lost_sessions();
    let old_cursors = repl_cursors(&old);
    drop(servers.remove(&victim).expect("victim").kill());
    drop(old);
    let mut new = Router::new(router_config(8));
    for &id in &members {
        new.add_node(id, endpoints[&id].clone());
    }
    let rec = new.takeover().expect("takeover");
    drive(&mut new, &streams, &mut pos, 2);
    let new_cursors = repl_cursors(&new);
    while pos.iter().zip(&streams).any(|(&p, ev)| p < ev.len()) {
        drive_round(&mut new, &streams, &mut pos);
    }
    let reports = new.drain().expect("drain");
    for (s, report) in &reports {
        assert_eq!(
            *report,
            solo_report(&streams[*s as usize]),
            "session {s} diverged from its solo run"
        );
    }
    let digest = reports
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, (s, r)| fnv(r, fnv(&s.to_le_bytes(), h)));

    assert_eq!(
        old_history,
        [
            (0, 0, 4, 1, 96),
            (0, 4, 4, 3, 96),
            (0, 6, 4, 5, 96),
            (0, 1, 3, 5, 168),
            (0, 4, 3, 0, 168),
        ],
        "failover migration history"
    );
    assert_eq!(
        old_rebalances,
        [
            (0, 2, 0, 5, 240),
            (0, 4, 0, 5, 240),
            (0, 5, 0, 1, 240),
            (0, 7, 0, 5, 240),
            (0, 2, 5, 6, 288),
            (0, 4, 5, 6, 288),
        ],
        "rebalance history"
    );
    assert_eq!(old_lost, [], "no acked loss before the takeover");
    assert_eq!(
        old_cursors,
        [
            (0, Some((336, 7510))),
            (1, Some((336, 6003))),
            (2, Some((336, 840))),
            (3, Some((336, 6333))),
            (4, Some((336, 885))),
            (5, Some((336, 1663))),
            (6, Some((336, 6018))),
            (7, Some((336, 1753))),
            (8, Some((336, 6153))),
            (9, Some((336, 6438))),
        ],
        "replication cursors before the takeover"
    );
    let routes: Vec<(u64, u32, u64)> = [1, 5, 6, 5, 6, 1, 5, 5, 1, 5]
        .into_iter()
        .enumerate()
        .map(|(s, owner)| (s as u64, owner, 336))
        .collect();
    assert_eq!(
        new.takeover_history(),
        [TakeoverRecord {
            epoch: 2,
            adopted: vec![1, 5, 6],
            dead: vec![2],
            sessions: routes,
            orphans: vec![3],
        }],
        "takeover record"
    );
    assert_eq!(rec, new.takeover_history()[0]);
    assert_eq!(
        moves!(new.migration_history()),
        [(0, 3, 6, 5, 336)],
        "orphan restore, sourced from the freshest backup"
    );
    assert_eq!(new.lost_sessions(), [], "no acked loss after the takeover");
    assert_eq!(
        new_cursors,
        [
            (0, Some((384, 1005))),
            (1, Some((384, 870))),
            (2, Some((384, 825))),
            (3, Some((384, 7216))),
            (4, Some((384, 885))),
            (5, Some((384, 900))),
            (6, Some((384, 1005))),
            (7, Some((384, 885))),
            (8, Some((384, 930))),
            (9, Some((384, 915))),
        ],
        "replication cursors after the takeover"
    );
    assert_eq!(reports.len(), SESSIONS);
    assert_eq!(digest, 0x833a_5169_d014_9e9b, "drained report digest");
    #[cfg(feature = "obs")]
    assert!(
        counter("router.rebalance.restage_inline") > inline_before,
        "the failed snapshot write must force an inline restage"
    );
    for srv in servers.into_values() {
        srv.shutdown();
    }
}
