//! Kill-anywhere durability properties.
//!
//! The contract under test: a [`DurableService`] killed at *any*
//! storage-operation boundary, under seeded disk faults (torn writes,
//! bit rot, truncated reads, failed fsyncs), recovers to an **exact
//! prefix** of each session's submitted stream — never panicking,
//! never corrupting state — and re-submitting the lost suffix yields
//! `SessionReport`s byte-identical to a solo pipeline that never
//! crashed.

use latch_faults::FaultPlan;
use latch_serve::{
    DurableConfig, DurableService, MemStorage, Priority, Rejected, ServeConfig, Slo, Storage,
};
use latch_sim::event::{Event, EventSource};
use latch_systems::session::SessionPipeline;
use latch_workloads::{all_profiles, BenchmarkProfile};
use proptest::prelude::*;

fn stream(profile: &BenchmarkProfile, seed: u64, n: u64) -> Vec<Event> {
    let mut src = profile.stream(seed, n);
    let mut out = Vec::new();
    while let Some(ev) = src.next_event() {
        out.push(ev);
    }
    out
}

fn solo(evs: &[Event], scrub_interval: u64) -> Vec<u8> {
    let mut pipe = SessionPipeline::new(scrub_interval);
    for ev in evs {
        pipe.apply(ev);
    }
    pipe.report().encode()
}

/// Submits every stream in round-robin chunks, pumping between rounds.
fn drive(
    svc: &mut DurableService<MemStorage>,
    streams: &[Vec<Event>],
    chunk: usize,
) {
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
            loop {
                match svc.submit(s as u64, &evs[lo..hi]) {
                    Ok(()) => break,
                    Err(Rejected::QueueFull { .. } | Rejected::SessionBusy { .. }) => {
                        svc.pump();
                    }
                    Err(Rejected::ShuttingDown) => unreachable!("not draining"),
                    Err(Rejected::Shed { .. }) => unreachable!("no SLO armed"),
                    Err(Rejected::BatchTooLarge { .. }) => {
                        unreachable!("chunks are far below the journal cap")
                    }
                }
            }
        }
        svc.pump();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole property. Crash point and fault mix are arbitrary;
    /// equality with the uninterrupted solo pipeline is exact.
    #[test]
    fn kill_anywhere_recovery_is_an_exact_prefix(
        seed in 0u64..100_000,
        sessions in 1usize..4,
        chunk in 24usize..128,
        crash_permille in 0u64..1001,
        torn in prop_oneof![Just(0u32), Just(300u32), Just(1000u32)],
        bitrot in prop_oneof![Just(0u32), Just(150u32)],
        short_reads in prop_oneof![Just(0u32), Just(150u32)],
        fsync_fail in prop_oneof![Just(0u32), Just(300u32)],
        group_commit in 1u64..200,
        snapshot_every in 50u64..500,
    ) {
        let profiles = all_profiles();
        let streams: Vec<Vec<Event>> = (0..sessions)
            .map(|s| stream(&profiles[(seed as usize + s) % profiles.len()], seed + s as u64, 900))
            .collect();
        let cfg = ServeConfig {
            workers: 2,
            max_resident: 2,
            seed,
            ..ServeConfig::default()
        };
        let dcfg = DurableConfig { group_commit_events: group_commit, snapshot_every };
        let plan = FaultPlan::new(seed ^ 0xD15C).with_disk_faults(torn, bitrot, short_reads, fsync_fail);

        // Run, then get killed at an arbitrary storage-op boundary.
        let mut svc = DurableService::new(cfg, dcfg, plan, MemStorage::new(plan));
        drive(&mut svc, &streams, chunk);
        let storage = svc.crash();
        let crash_op = (storage.ops_len() as u64 * crash_permille / 1000) as usize;
        let image = storage.crash_image(crash_op);

        // Recover: typed quarantines only, never a panic.
        let (mut svc, report) = DurableService::recover(cfg, dcfg, plan, image);
        for (&s, rec) in &report.sessions {
            prop_assert_eq!(rec.recovered, rec.snapshot_applied + rec.replayed);
            prop_assert!(
                rec.recovered <= streams[s as usize].len() as u64,
                "session {} recovered {} of {} submitted",
                s, rec.recovered, streams[s as usize].len()
            );
            prop_assert_eq!(rec.epoch >= 1, true, "recovery must bump the epoch");
        }

        // Re-submit each session's lost suffix; the rejoined stream
        // must be byte-identical to a run that never crashed.
        let suffixes: Vec<Vec<Event>> = streams
            .iter()
            .enumerate()
            .map(|(s, evs)| {
                let recovered = report
                    .sessions
                    .get(&(s as u64))
                    .map_or(0, |r| r.recovered) as usize;
                evs[recovered..].to_vec()
            })
            .collect();
        drive(&mut svc, &suffixes, chunk);
        let (out, _storage) = svc.finish();
        for (s, evs) in streams.iter().enumerate() {
            prop_assert_eq!(
                &out.sessions[&(s as u64)].encode(),
                &solo(evs, cfg.scrub_interval),
                "session {} diverged after crash at op {}/{}",
                s, crash_op, storage.ops_len()
            );
        }
    }

    /// Recovery of the same crash image is deterministic: identical
    /// reports, identical quarantine lists, byte-identical state.
    #[test]
    fn recovery_is_deterministic(
        seed in 0u64..100_000,
        crash_permille in 0u64..1001,
        torn in prop_oneof![Just(300u32), Just(1000u32)],
    ) {
        let profiles = all_profiles();
        let evs = stream(&profiles[seed as usize % profiles.len()], seed, 700);
        let cfg = ServeConfig { workers: 2, seed, ..ServeConfig::default() };
        let dcfg = DurableConfig { group_commit_events: 64, snapshot_every: 200 };
        let plan = FaultPlan::new(seed).with_disk_faults(torn, 100, 100, 200);
        let mut svc = DurableService::new(cfg, dcfg, plan, MemStorage::new(plan));
        drive(&mut svc, std::slice::from_ref(&evs), 60);
        let storage = svc.crash();
        let crash_op = (storage.ops_len() as u64 * crash_permille / 1000) as usize;

        let recover = || {
            let (svc, report) = DurableService::recover(cfg, dcfg, plan, storage.crash_image(crash_op));
            let (out, _) = svc.finish();
            (out.sessions.get(&0).map(latch_systems::session::SessionReport::encode), report)
        };
        let (state_a, report_a) = recover();
        let (state_b, report_b) = recover();
        prop_assert_eq!(state_a, state_b);
        prop_assert_eq!(report_a.sessions, report_b.sessions);
        prop_assert_eq!(report_a.quarantined, report_b.quarantined);
    }
}

/// Worker kills under an armed SLO, with durable snapshots cut while
/// the session is degraded: the durability cursor must stay frozen at
/// the demotion checkpoint through death replays, so a crash + WAL
/// replay recovers the deferred span instead of silently skipping it.
#[test]
fn degraded_worker_death_then_crash_recovery_loses_nothing() {
    let profiles = all_profiles();
    let evs = stream(&profiles[1], 91, 2_000);
    let cfg = ServeConfig {
        workers: 3,
        batch_max: 16,
        slo: Slo {
            slo_cycles: 1, // every cut breaches: the session demotes at the first cut
            report_every: 1,
            demote_after: 1,
            max_degraded: 1,
            queue_pressure_pct: 100,
            ..Slo::OFF
        },
        ..ServeConfig::default()
    };
    // Aggressive durability so snapshots land while degraded, and kills
    // that fire well after the first-cut demotion.
    let dcfg = DurableConfig {
        group_commit_events: 1,
        snapshot_every: 1,
    };
    let plan = FaultPlan::new(91).with_worker_kills(150, 2);
    let mut svc = DurableService::new(cfg, dcfg, plan, MemStorage::new(plan));
    for chunk in evs.chunks(200) {
        svc.submit(0, chunk)
            .expect("a sole normal session is never shed at pressure 1");
        svc.pump();
    }
    assert_eq!(
        svc.service().degraded_sessions(),
        vec![0],
        "the session must still be degraded when the service dies"
    );

    // Kill the process; recover; re-submit the lost suffix.
    let storage = svc.crash();
    let (mut svc, report) = DurableService::recover(cfg, dcfg, plan, storage);
    let rec = report.sessions[&0];
    assert!(
        rec.snapshot_applied < evs.len() as u64,
        "durable snapshots must stay frozen at the demotion checkpoint"
    );
    assert!(
        rec.replayed > 0,
        "the deferred degraded span must be re-derived from the WAL, not skipped"
    );
    let suffix = evs[rec.recovered as usize..].to_vec();
    for chunk in suffix.chunks(200) {
        svc.submit(0, chunk).expect("recovered service admits the suffix");
        svc.pump();
    }
    let (out, _) = svc.finish();
    assert_eq!(
        out.sessions[&0].encode(),
        solo(&evs, cfg.scrub_interval),
        "recovery must not skip the deferred degraded span"
    );
}

/// The sticky admission class survives a crash: via the WAL header
/// when the session dies before its first snapshot, and via the
/// snapshot frame afterwards. Without this, a Critical session would
/// silently become sheddable after recovery.
#[test]
fn priority_class_survives_crash_recovery() {
    let profiles = all_profiles();
    let evs = stream(&profiles[0], 7, 600);
    let cfg = ServeConfig {
        workers: 2,
        seed: 7,
        ..ServeConfig::default()
    };
    let plan = FaultPlan::benign();

    // (a) Crash before any snapshot is due: only the WAL exists, and
    // its header carries the class fixed at first admission.
    let dcfg = DurableConfig {
        group_commit_events: 1,
        snapshot_every: 1_000_000,
    };
    let mut svc = DurableService::new(cfg, dcfg, plan, MemStorage::new(plan));
    svc.submit_with_priority(3, &evs[..100], Priority::Critical).unwrap();
    svc.submit_with_priority(4, &evs[..100], Priority::Bulk).unwrap();
    svc.pump();
    let (svc, report) = DurableService::recover(cfg, dcfg, plan, svc.crash());
    assert!(report.sessions.contains_key(&3));
    assert_eq!(svc.service().session_priority(3), Some(Priority::Critical));
    assert_eq!(svc.service().session_priority(4), Some(Priority::Bulk));

    // (b) Crash after snapshots: the frame carries the class too.
    let dcfg = DurableConfig {
        group_commit_events: 1,
        snapshot_every: 1,
    };
    let mut svc = DurableService::new(cfg, dcfg, plan, MemStorage::new(plan));
    svc.submit_with_priority(3, &evs, Priority::Critical).unwrap();
    svc.pump();
    let (mut svc, _) = DurableService::recover(cfg, dcfg, plan, svc.crash());
    assert_eq!(svc.service().session_priority(3), Some(Priority::Critical));
    // Priority stays sticky post-recovery: a later Bulk flag on the
    // recovered session cannot downgrade it.
    svc.submit_with_priority(3, &evs[..50], Priority::Bulk).unwrap();
    assert_eq!(svc.service().session_priority(3), Some(Priority::Critical));
}

/// Happy path: an uninterrupted durable run equals the plain service,
/// and a recovery from its final store resumes exactly where it ended.
#[test]
fn clean_shutdown_then_recovery_restores_everything() {
    let profiles = all_profiles();
    let streams: Vec<Vec<Event>> = (0..3)
        .map(|s| stream(&profiles[s % profiles.len()], 40 + s as u64, 1_200))
        .collect();
    let cfg = ServeConfig {
        workers: 2,
        seed: 17,
        ..ServeConfig::default()
    };
    let dcfg = DurableConfig {
        group_commit_events: 32,
        snapshot_every: 300,
    };
    let plan = FaultPlan::benign();
    let mut svc = DurableService::new(cfg, dcfg, plan, MemStorage::new(plan));
    drive(&mut svc, &streams, 100);
    let (out, storage) = svc.finish();
    for (s, evs) in streams.iter().enumerate() {
        assert_eq!(
            out.sessions[&(s as u64)].encode(),
            solo(evs, cfg.scrub_interval),
            "session {s} diverged in the durable happy path"
        );
    }

    // Everything was applied and snapshotted before the shutdown, so
    // recovery finds complete state: zero replay needed, zero lost.
    let (svc, report) = DurableService::recover(cfg, dcfg, plan, storage);
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    for (s, evs) in streams.iter().enumerate() {
        let rec = &report.sessions[&(s as u64)];
        assert_eq!(
            rec.recovered,
            evs.len() as u64,
            "session {s} must recover fully from a clean shutdown"
        );
    }
    let (out2, _) = svc.finish();
    for (s, evs) in streams.iter().enumerate() {
        assert_eq!(
            out2.sessions[&(s as u64)].encode(),
            solo(evs, cfg.scrub_interval),
            "session {s} diverged after clean recovery"
        );
    }
}

/// The fencing epoch round-trips through recovery, and a torn or
/// corrupt epoch file is quarantined (never a panic): recovery then
/// starts unfenced, at epoch 0, with every session intact.
#[test]
fn fencing_epoch_recovers_and_a_bad_epoch_file_is_quarantined() {
    let cfg = ServeConfig::default();
    let dcfg = DurableConfig::default();
    let plan = FaultPlan::benign();
    let mut svc = DurableService::new(cfg, dcfg, plan, MemStorage::new(plan));
    let evs = stream(&all_profiles()[0], 7, 200);
    svc.submit(4, &evs).unwrap();
    assert!(svc.persist_fencing_epoch(5));
    let (_, storage) = svc.finish();
    let (svc, report) = DurableService::recover(cfg, dcfg, plan, storage);
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    assert_eq!(svc.fencing_epoch(), 5);
    let good = svc.crash();
    type Damage = fn(&mut Vec<u8>);
    let damages: [(&str, Damage); 6] = [
        ("empty", Vec::clear),
        ("torn", |b| b.truncate(7)),
        ("bad magic", |b| b[0] ^= 0x01),
        ("bit rot in the epoch", |b| b[6] ^= 0x40),
        ("bit rot in the checksum", |b| b[15] ^= 0x01),
        ("trailing byte", |b| b.push(0)),
    ];
    for (what, damage) in damages {
        let mut storage = good.crash_image(good.ops_len());
        let mut bytes = storage.read("node-epoch").expect("epoch file written");
        damage(&mut bytes);
        assert!(storage.write_atomic("node-epoch", &bytes));
        let (svc, report) = DurableService::recover(cfg, dcfg, plan, storage);
        assert_eq!(svc.fencing_epoch(), 0, "{what}: recovery starts unfenced");
        assert_eq!(report.quarantined.len(), 1, "{what}");
        assert_eq!(report.quarantined[0].file, "node-epoch");
        assert_eq!(report.sessions[&4].recovered, 200, "{what}");
    }
}

/// A journal is rotated only after the snapshot that supersedes it is
/// durable. Every batch here is fsynced at admission; a crash at any
/// later storage op — including the un-synced window inside the
/// maintenance pass, where a torn snapshot write could leave the
/// rotated journal standing alone — must still recover all of it.
#[test]
fn fsynced_events_survive_a_crash_inside_the_maintenance_pass() {
    let evs = stream(&all_profiles()[0], 5, 10);
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let dcfg = DurableConfig {
        group_commit_events: 1,
        snapshot_every: 10,
    };
    for seed in 0..200 {
        let plan = FaultPlan::new(seed).with_disk_faults(500, 0, 0, 0);
        // The op count once the batch's group commit has synced it.
        let mut svc = DurableService::new(cfg, dcfg, plan, MemStorage::new(plan));
        svc.submit(0, &evs).unwrap();
        let synced = svc.crash().ops_len();
        let mut svc = DurableService::new(cfg, dcfg, plan, MemStorage::new(plan));
        svc.submit(0, &evs).unwrap();
        svc.pump();
        let storage = svc.crash();
        for crash_op in synced..=storage.ops_len() {
            let image = storage.crash_image(crash_op);
            let (_, report) = DurableService::recover(cfg, dcfg, plan, image);
            assert_eq!(
                report.sessions[&0].recovered, 10,
                "seed {seed}: a crash before op {crash_op} lost fsynced events"
            );
        }
    }
}

/// A `MemStorage` that refuses every snapshot write.
struct NoSnapshots(MemStorage);

impl Storage for NoSnapshots {
    fn list(&self) -> Vec<String> {
        self.0.list()
    }
    fn read(&mut self, name: &str) -> Option<Vec<u8>> {
        self.0.read(name)
    }
    fn append(&mut self, name: &str, bytes: &[u8]) -> bool {
        self.0.append(name, bytes)
    }
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> bool {
        !name.starts_with("snap-") && self.0.write_atomic(name, bytes)
    }
    fn fsync(&mut self) -> bool {
        self.0.fsync()
    }
    fn remove(&mut self, name: &str) {
        self.0.remove(name);
    }
}

/// A recovery whose sealing snapshot cannot be written keeps the
/// journal it replayed: the next restart recovers the same events
/// instead of an emptied journal and no snapshot.
#[test]
fn a_failed_recovery_snapshot_keeps_the_journal() {
    let evs = stream(&all_profiles()[0], 5, 10);
    let cfg = ServeConfig::default();
    let dcfg = DurableConfig {
        group_commit_events: 1,
        snapshot_every: 1_000_000,
    };
    let plan = FaultPlan::benign();
    let mut svc = DurableService::new(cfg, dcfg, plan, MemStorage::new(plan));
    svc.submit(0, &evs).unwrap();
    svc.pump();
    let storage = NoSnapshots(svc.crash());
    let (svc, report) = DurableService::recover(cfg, dcfg, plan, storage);
    assert_eq!(report.sessions[&0].recovered, 10);
    let NoSnapshots(storage) = svc.crash();
    let (_, report) = DurableService::recover(cfg, dcfg, plan, storage);
    assert_eq!(
        report.sessions[&0].recovered, 10,
        "the restart after a failed recovery snapshot lost the journal"
    );
}
