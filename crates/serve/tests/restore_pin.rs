//! Pins every way a session's durable state comes back: crash
//! recovery, export off a dead node's storage, and import into a fresh
//! node.
//!
//! One fixed run over a benign `MemStorage` — three sessions with
//! different profiles and priorities, a small `snapshot_every` and
//! `group_commit_events` so both snapshot generations and a journal
//! suffix exist — is killed after every submit + pump round. Each crash
//! image is restored as-is, with its newest snapshot generation
//! bit-flipped, with its journal cut mid-record, and with the previous
//! round's journal (records the snapshot already covers). The expected
//! values below are the recorded output of this exact run: any change
//! to which generation wins, which journal records replay, where a
//! quarantine lands, or what an export ships moves at least one of
//! them. Crash points are the op count after each round, not every op
//! index, so extra fsyncs in the op log do not move them.

use latch_faults::FaultPlan;
use latch_serve::journal::{wal_name, WAL_FRAME_LEN, WAL_HEADER_LEN};
use latch_serve::store::{decode_frame, snap_name};
use latch_serve::{
    export_sessions, DurableConfig, DurableService, MemStorage, Priority, RecoveryReport,
    ServeConfig, Storage,
};
use latch_sim::event::{Event, EventSource};
use latch_systems::session::SessionPipeline;
use latch_workloads::BenchmarkProfile;
use std::cell::RefCell;
use std::rc::Rc;

const CHUNK: usize = 80;

fn sessions() -> Vec<(u64, Priority, Vec<Event>)> {
    let spec = [
        (2u64, "astar", Priority::Critical, 480u64),
        (5, "bzip2", Priority::Normal, 420),
        (9, "hmmer", Priority::Bulk, 360),
    ];
    spec.into_iter()
        .map(|(id, name, prio, n)| {
            let mut src = BenchmarkProfile::by_name(name).unwrap().stream(300 + id, n);
            (id, prio, std::iter::from_fn(|| src.next_event()).collect())
        })
        .collect()
}

fn cfg() -> (ServeConfig, DurableConfig) {
    let cfg = ServeConfig {
        workers: 2,
        seed: 0x7e57,
        ..ServeConfig::default()
    };
    let dcfg = DurableConfig {
        group_commit_events: 50,
        snapshot_every: 150,
    };
    (cfg, dcfg)
}

/// FNV-1a over a byte sequence.
fn digest(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn solo(evs: &[Event], scrub_interval: u64) -> Vec<u8> {
    let mut pipe = SessionPipeline::new(scrub_interval);
    for ev in evs {
        pipe.apply(ev);
    }
    pipe.report().encode()
}

/// Shares one `MemStorage` between the service and the test, so the
/// op count can be read between rounds without killing the service.
#[derive(Clone)]
struct Shared(Rc<RefCell<MemStorage>>);

impl Storage for Shared {
    fn list(&self) -> Vec<String> {
        self.0.borrow().list()
    }
    fn read(&mut self, name: &str) -> Option<Vec<u8>> {
        self.0.borrow_mut().read(name)
    }
    fn append(&mut self, name: &str, bytes: &[u8]) -> bool {
        self.0.borrow_mut().append(name, bytes)
    }
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> bool {
        self.0.borrow_mut().write_atomic(name, bytes)
    }
    fn fsync(&mut self) -> bool {
        self.0.borrow_mut().fsync()
    }
    fn remove(&mut self, name: &str) {
        self.0.borrow_mut().remove(name);
    }
}

/// Runs the fixed streams and returns the storage plus the crash
/// point after every round.
fn pinned_run() -> (MemStorage, Vec<usize>) {
    let (cfg, dcfg) = cfg();
    let plan = FaultPlan::benign();
    let streams = sessions();
    let shared = Shared(Rc::new(RefCell::new(MemStorage::new(plan))));
    let mut svc = DurableService::new(cfg, dcfg, plan, shared.clone());
    let rounds = streams[0].2.len().div_ceil(CHUNK);
    let mut points = Vec::new();
    for r in 0..rounds {
        for (id, prio, evs) in &streams {
            let lo = (r * CHUNK).min(evs.len());
            let hi = (lo + CHUNK).min(evs.len());
            if lo < hi {
                svc.submit_with_priority(*id, &evs[lo..hi], *prio)
                    .expect("uncapped benign run admits everything");
            }
        }
        svc.pump();
        points.push(shared.0.borrow().ops_len());
    }
    drop(svc);
    let storage = Rc::try_unwrap(shared.0)
        .ok()
        .expect("service dropped")
        .into_inner();
    (storage, points)
}

/// One line per recovery: `session:snapshot+replayed=recovered@epoch`
/// for each session, then `!file@offset:reason` for each quarantine.
fn render(report: &RecoveryReport) -> String {
    let mut parts: Vec<String> = report
        .sessions
        .iter()
        .map(|(s, r)| {
            format!(
                "{s}:{}+{}={}@{}",
                r.snapshot_applied, r.replayed, r.recovered, r.epoch
            )
        })
        .collect();
    parts.extend(
        report
            .quarantined
            .iter()
            .map(|q| format!("!{}@{}:{}", q.file, q.offset, q.error.reason())),
    );
    parts.join(" ")
}

/// Flips one bit in the newest decodable snapshot generation of every
/// session. `false` when no session has a snapshot.
fn flip_newest_generation(storage: &mut MemStorage) -> bool {
    let mut flipped = false;
    for (id, _, _) in sessions() {
        let newest = [0u8, 1]
            .into_iter()
            .filter_map(|g| {
                let bytes = storage.read(&snap_name(id, g))?;
                decode_frame(id, &bytes).ok().map(|f| (g, f, bytes))
            })
            .max_by_key(|(_, f, _)| (f.epoch, f.applied));
        if let Some((g, _, mut bytes)) = newest {
            let at = bytes.len() / 2;
            bytes[at] ^= 0x10;
            assert!(storage.write_atomic(&snap_name(id, g), &bytes));
            flipped = true;
        }
    }
    flipped
}

/// Cuts every session's journal three bytes short of its end, i.e.
/// inside its last record. `false` when no journal holds a record.
fn cut_journal_mid_record(storage: &mut MemStorage) -> bool {
    let mut cut = false;
    for (id, _, _) in sessions() {
        let Some(bytes) = storage.read(&wal_name(id)) else {
            continue;
        };
        if bytes.len() > WAL_HEADER_LEN + WAL_FRAME_LEN {
            assert!(storage.write_atomic(&wal_name(id), &bytes[..bytes.len() - 3]));
            cut = true;
        }
    }
    cut
}

fn exports_digest(storage: &mut MemStorage) -> u64 {
    let mut bytes = Vec::new();
    for e in export_sessions(storage) {
        bytes.extend_from_slice(&e.session.to_le_bytes());
        bytes.push(e.priority.rank());
        bytes.extend_from_slice(&(e.blob.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&e.blob);
        bytes.extend_from_slice(&(e.wal.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&e.wal);
    }
    digest(bytes)
}

/// The `applied` each export reaches when imported into a fresh node.
fn imports(storage: &mut MemStorage) -> Vec<u64> {
    let (cfg, dcfg) = cfg();
    let plan = FaultPlan::benign();
    let mut node = DurableService::new(cfg, dcfg, plan, MemStorage::new(plan));
    export_sessions(storage)
        .into_iter()
        .map(|e| {
            node.import_session(e.session, e.priority, &e.blob, &e.wal)
                .expect("a fresh node imports every export")
        })
        .collect()
}

/// Recovers `image`, re-submits each session's lost suffix and drains:
/// every report must equal a solo replay. Returns a digest of them.
fn drained_digest(image: MemStorage, report: &RecoveryReport) -> u64 {
    let (cfg, dcfg) = cfg();
    let plan = FaultPlan::benign();
    let (mut svc, _) = DurableService::recover(cfg, dcfg, plan, image);
    let streams = sessions();
    for (id, prio, evs) in &streams {
        let from = report.sessions.get(id).map_or(0, |r| r.recovered) as usize;
        for chunk in evs[from..].chunks(CHUNK) {
            svc.submit_with_priority(*id, chunk, *prio)
                .expect("uncapped benign run admits everything");
            svc.pump();
        }
    }
    let (out, _) = svc.finish();
    let mut bytes = Vec::new();
    for (id, _, evs) in &streams {
        let got = out.sessions[id].encode();
        assert_eq!(
            got,
            solo(evs, cfg.scrub_interval),
            "session {id} diverged from solo"
        );
        bytes.extend_from_slice(&got);
    }
    digest(bytes)
}

/// `(recovery report, exports digest, imported applied)` per mangling
/// variant; `None` where the variant has nothing to mangle.
type Expect = Option<(&'static str, u64, [u64; 3])>;
const PINS: [[Expect; 4]; 6] = [
    [
        Some((
            "2:0+80=80@1 5:0+80=80@1 9:0+80=80@1",
            0xd382_6ea2_3e38_8fbb,
            [80, 80, 80],
        )),
        None,
        Some((
            "2:0+0=0@1 5:0+0=0@1 9:0+0=0@1 !wal-0000000000000002@17:torn_frame !wal-0000000000000005@17:torn_frame !wal-0000000000000009@17:torn_frame",
            0xf33e_4c2c_e059_6902,
            [0, 0, 0],
        )),
        None,
    ],
    [
        Some((
            "2:160+0=160@1 5:160+0=160@1 9:160+0=160@1",
            0xda28_d380_ab2b_379d,
            [160, 160, 160],
        )),
        Some((
            "2:0+0=0@1 5:0+0=0@1 9:0+0=0@1 !snap-0000000000000002.0@0:bad_frame_crc !snap-0000000000000005.0@0:bad_frame_crc !snap-0000000000000009.0@0:bad_frame_crc",
            0x8325_cbf6_5222_0355,
            [0, 0, 0],
        )),
        None,
        Some((
            "2:160+0=160@1 5:160+0=160@1 9:160+0=160@1",
            0xf753_5801_9834_c3cf,
            [160, 160, 160],
        )),
    ],
    [
        Some((
            "2:160+80=240@1 5:160+80=240@1 9:160+80=240@1",
            0xc65e_3f30_6861_d1e0,
            [240, 240, 240],
        )),
        Some((
            "2:0+0=0@1 5:0+0=0@1 9:0+0=0@1 !snap-0000000000000002.0@0:bad_frame_crc !snap-0000000000000005.0@0:bad_frame_crc !snap-0000000000000009.0@0:bad_frame_crc",
            0xe77c_c6cb_72e2_e870,
            [0, 0, 0],
        )),
        Some((
            "2:160+0=160@1 5:160+0=160@1 9:160+0=160@1 !wal-0000000000000002@17:torn_frame !wal-0000000000000005@17:torn_frame !wal-0000000000000009@17:torn_frame",
            0x189a_1c4b_0580_a7a5,
            [160, 160, 160],
        )),
        None,
    ],
    [
        Some((
            "2:320+0=320@1 5:320+0=320@1 9:320+0=320@1",
            0x0aae_6d53_7a1f_d154,
            [320, 320, 320],
        )),
        Some((
            "2:160+0=160@1 5:160+0=160@1 9:160+0=160@1 !snap-0000000000000002.1@0:bad_frame_crc !snap-0000000000000005.1@0:bad_frame_crc !snap-0000000000000009.1@0:bad_frame_crc",
            0xda28_d380_ab2b_379d,
            [160, 160, 160],
        )),
        None,
        Some((
            "2:320+0=320@1 5:320+0=320@1 9:320+0=320@1",
            0xb2c8_a2e2_68c9_7295,
            [320, 320, 320],
        )),
    ],
    [
        Some((
            "2:320+80=400@1 5:320+80=400@1 9:320+40=360@1",
            0x4013_30a6_258b_9ba1,
            [400, 400, 360],
        )),
        Some((
            "2:160+0=160@1 5:160+0=160@1 9:160+0=160@1 !snap-0000000000000002.1@0:bad_frame_crc !snap-0000000000000005.1@0:bad_frame_crc !snap-0000000000000009.1@0:bad_frame_crc",
            0xd639_ecc4_43d6_66da,
            [160, 160, 160],
        )),
        Some((
            "2:320+0=320@1 5:320+0=320@1 9:320+0=320@1 !wal-0000000000000002@17:torn_frame !wal-0000000000000005@17:torn_frame !wal-0000000000000009@17:torn_frame",
            0x2073_1d1d_9067_6e56,
            [320, 320, 320],
        )),
        None,
    ],
    [
        Some((
            "2:480+0=480@1 5:320+100=420@1 9:320+40=360@1",
            0xd740_6b1e_d0c7_8b04,
            [480, 420, 360],
        )),
        Some((
            "2:320+0=320@1 5:160+0=160@1 9:160+0=160@1 !snap-0000000000000002.0@0:bad_frame_crc !snap-0000000000000005.1@0:bad_frame_crc !snap-0000000000000009.1@0:bad_frame_crc",
            0x846a_3216_ccaa_ed93,
            [320, 160, 160],
        )),
        Some((
            "2:480+0=480@1 5:320+80=400@1 9:320+0=320@1 !wal-0000000000000005@1513:torn_frame !wal-0000000000000009@17:torn_frame",
            0x95a8_7dde_e333_8185,
            [480, 400, 320],
        )),
        Some((
            "2:480+0=480@1 5:320+80=400@1 9:320+40=360@1",
            0xf482_8e2a_182f_d2d6,
            [480, 400, 360],
        )),
    ],
];

/// Digest of the drained reports; every image drains to the same.
const DRAINED: u64 = 0x84a5_c90e_8c34_0eb0;

/// Overwrites every session's journal with its copy in `older`: the
/// image a crash leaves between a snapshot write and the journal
/// rotation it allows, so every record is covered by the snapshot.
/// `false` when `older` holds no journal record.
fn stale_journal(storage: &mut MemStorage, older: &mut MemStorage) -> bool {
    let mut stale = false;
    for (id, _, _) in sessions() {
        let Some(bytes) = older.read(&wal_name(id)) else {
            continue;
        };
        if bytes.len() > WAL_HEADER_LEN {
            assert!(storage.write_atomic(&wal_name(id), &bytes));
            stale = true;
        }
    }
    stale
}

/// The image after round `round` with mangling `variant` applied: 0
/// as-is, 1 newest generation bit-flipped, 2 journal cut mid-record, 3
/// journal one round stale. `None` when the variant has nothing to
/// mangle.
fn image(
    storage: &MemStorage,
    points: &[usize],
    round: usize,
    variant: usize,
) -> Option<MemStorage> {
    let mut img = storage.crash_image(points[round]);
    let mangled = match variant {
        0 => true,
        1 => flip_newest_generation(&mut img),
        2 => cut_journal_mid_record(&mut img),
        _ => round > 0 && stale_journal(&mut img, &mut storage.crash_image(points[round - 1])),
    };
    mangled.then_some(img)
}

#[test]
fn restore_paths_are_pinned() {
    let (storage, points) = pinned_run();
    assert_eq!(points.len(), PINS.len(), "one crash point per round");
    let (cfg, dcfg) = cfg();
    let plan = FaultPlan::benign();
    for (round, pins) in PINS.iter().enumerate() {
        for (variant, pin) in pins.iter().enumerate() {
            let fresh = || image(&storage, &points, round, variant);
            let Some(mut img) = fresh() else {
                assert!(
                    pin.is_none(),
                    "round {round} variant {variant}: nothing to mangle"
                );
                continue;
            };
            let (line, exports, applied) = pin.expect("a pinned image");
            let at = format!("round {round} variant {variant}");
            assert_eq!(exports_digest(&mut img), exports, "{at}: export_sessions");
            assert_eq!(imports(&mut img), applied, "{at}: imported applied");
            let (_, report) = DurableService::recover(cfg, dcfg, plan, fresh().unwrap());
            assert_eq!(render(&report), line, "{at}: recovery report");
            assert_eq!(
                drained_digest(fresh().unwrap(), &report),
                DRAINED,
                "{at}: drained"
            );
        }
    }
}
