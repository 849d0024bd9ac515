//! Pins every LATCH system's output on fixed pre-generated streams.
//!
//! S-, P- and H-LATCH and the session pipeline share one screen and
//! one precise-to-coarse write-back. The expected values below are the
//! recorded output of these exact runs, so a change to any system's
//! screen, write-back, queue loop, cost accounting or `f64` ledger
//! order moves at least one of them. Reports are hashed through their
//! `Debug` output, which prints `f64` values round-trip exact. A change
//! that means to alter a system's results must re-record them and say
//! why.

use latch_dift::prop::PropRule;
use latch_sim::event::{Event, EventSource, MemAccess, MemAccessKind, VecSource};
use latch_systems::hlatch::HLatch;
use latch_systems::platch::{LaggedQueueSim, QueueSim};
use latch_systems::session::SessionPipeline;
use latch_systems::slatch::SLatch;
use latch_workloads::BenchmarkProfile;

/// Low-taint, mid, fragmented, and fragmented-and-dense profiles, two
/// seeds each.
const CASES: [(&str, u64); 8] = [
    ("bzip2", 7),
    ("bzip2", 8),
    ("gcc", 7),
    ("gcc", 8),
    ("astar", 7),
    ("astar", 8),
    ("sphinx", 7),
    ("sphinx", 8),
];

const EVENTS: u64 = 3_000;

/// Every this many generated events, a clean store overwrites the
/// last memory operand.
const OVERWRITE_EVERY: usize = 40;

/// The profile's stream with clean overwrites woven in. Synthetic
/// streams never untaint memory, and untainting writes are what drive
/// the clear-scan, so without them the coarse state only ever grows.
fn events(name: &str, seed: u64) -> Vec<Event> {
    let mut src = BenchmarkProfile::by_name(name)
        .unwrap()
        .stream(seed, EVENTS);
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(ev) = src.next_event() {
        out.push(ev);
        i += 1;
        if let (0, Some(MemAccess { addr, len, .. })) = (i % OVERWRITE_EVERY, ev.mem) {
            let mut clean = Event::empty(ev.pc);
            clean.prop = Some(PropRule::StoreImm { addr, len });
            clean.mem = Some(MemAccess {
                addr,
                len,
                kind: MemAccessKind::Write,
            });
            out.push(clean);
        }
    }
    out
}

/// FNV-1a over a byte string.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    fnv(format!("{value:?}").as_bytes())
}

/// Runs `f` over every case and compares the digests it returns with
/// `expected`, naming each case that moved.
fn check(what: &str, expected: &[u64; 8], f: impl Fn(&str, &[Event]) -> u64) {
    let got: Vec<u64> = CASES
        .iter()
        .map(|&(name, seed)| f(name, &events(name, seed)))
        .collect();
    let moved: Vec<String> = CASES
        .iter()
        .zip(got.iter().zip(expected))
        .filter(|(_, (g, e))| g != e)
        .map(|((name, seed), (g, _))| format!("{name}/{seed} -> {g:#018x}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{what} moved: {moved:?}\nall: {got:#018x?}"
    );
}

#[test]
fn slatch_reports_are_pinned() {
    check(
        "SLatchReport",
        &[
            0x1b5aa550191e6778,
            0x7d1d762dab224474,
            0xf9f5965565ab8132,
            0x38435ae00f0d2a7b,
            0x97f02b199d066a00,
            0xcead172470c76186,
            0xfdc37ee7744e4197,
            0xd6fc92d397a1e2fe,
        ],
        |name, evs| {
            let profile = BenchmarkProfile::by_name(name).unwrap();
            debug_digest(&SLatch::for_profile(&profile).run(VecSource::new(evs.to_vec())))
        },
    );
}

#[test]
fn hlatch_reports_are_pinned() {
    check(
        "HLatchReport",
        &[
            0xdaf0318af95bcf06,
            0xf4d9cce25c79acfa,
            0xc46b7e6bcfe881a8,
            0x2bd19d22aede9ac5,
            0xb846ef779b7026e0,
            0x98b9b63a357b8167,
            0x4a6c55f6640ac431,
            0x7cb385c33a2ccb53,
        ],
        |_, evs| debug_digest(&HLatch::new().run(VecSource::new(evs.to_vec()))),
    );
}

#[test]
fn queue_sim_reports_are_pinned() {
    check(
        "QueueSimReport",
        &[
            0x812a45f42d3b1b08,
            0xa1b7a37afb3d448a,
            0xb54040ebbad98cb7,
            0x380d937330d93ad1,
            0xf97fc6ef32373d7b,
            0x2d24bc7ecda4e536,
            0x3235f38d569dce41,
            0x1b2362533c461953,
        ],
        |_, evs| {
            let filtered = QueueSim::new(true, 64, 4).run(VecSource::new(evs.to_vec()));
            let unfiltered = QueueSim::new(false, 64, 4).run(VecSource::new(evs.to_vec()));
            debug_digest(&(filtered, unfiltered))
        },
    );
}

#[test]
fn lagged_reports_are_pinned() {
    check(
        "LaggedReport",
        &[
            0xa249a122d11144ee,
            0x49b33ea09b3a551e,
            0x9dd7bd916c8c01f6,
            0x116d3c59dc6a8e91,
            0x1c657df9d3acc63f,
            0x671d1783026345b2,
            0x37d3e9a6e4e08dfe,
            0x14baddd196e31422,
        ],
        |_, evs| {
            let sound = LaggedQueueSim::new(64, 6, true).run(VecSource::new(evs.to_vec()));
            let racy = LaggedQueueSim::new(64, 6, false).run(VecSource::new(evs.to_vec()));
            debug_digest(&(sound, racy))
        },
    );
}

#[test]
fn session_reports_and_snapshots_are_pinned() {
    check(
        "SessionReport/LTSE",
        &[
            0x71f291f5da58121a,
            0x15cd7ad138bcbb4b,
            0xfc82539aeea39720,
            0x50349c0420fc18bd,
            0x0cc3ed828a2774f8,
            0x74f6a934b99bb8ce,
            0x6c0830fd92684652,
            0x36089a149a303a10,
        ],
        |_, evs| {
            let (precise, degraded) = evs.split_at(evs.len() * 2 / 3);
            let mut pipe = SessionPipeline::new(256);
            let mut selected = Vec::new();
            for ev in precise {
                selected.push(u8::from(pipe.apply(ev)));
            }
            let mut bytes = pipe.report().encode();
            bytes.extend(pipe.to_snapshot());
            for ev in degraded {
                selected.push(u8::from(pipe.apply_coarse_only(ev)));
            }
            bytes.extend(pipe.report().encode());
            bytes.extend(pipe.to_snapshot());
            bytes.extend(selected);
            fnv(&bytes)
        },
    );
}
