//! Fixed-seed kill-loop over the real-directory storage backend.
//!
//! Each iteration runs a multi-session [`DurableService`] on a fresh
//! tempdir, kills it at a seeded point mid-stream (dropping all
//! in-memory state), optionally mangles the on-disk files the way a
//! real crash can (torn WAL tail, bit rot in a snapshot), then
//! recovers, re-submits each session's lost suffix, and asserts the
//! final `SessionReport`s are byte-identical to an uninterrupted solo
//! pipeline. Any panic or mismatch exits non-zero.
//!
//! ```text
//! crash_stress [--seed S] [--iters N] [--sessions K] [--events E] [--dir PATH]
//! ```

mod common;

use common::{mix, solo, stream};
use latch_faults::FaultPlan;
use latch_serve::{DirStorage, DurableConfig, DurableService, Rejected, ServeConfig};
use latch_sim::event::Event;
use std::path::{Path, PathBuf};

struct Args {
    seed: u64,
    iters: u64,
    sessions: usize,
    events: u64,
    dir: PathBuf,
}

impl Args {
    fn parse() -> Self {
        let mut args = Args {
            seed: 1,
            iters: 24,
            sessions: 3,
            events: 1_500,
            dir: std::env::temp_dir().join(format!("latch-crash-stress-{}", std::process::id())),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {flag}"))
            };
            match flag.as_str() {
                "--seed" => args.seed = value().parse().expect("--seed"),
                "--iters" => args.iters = value().parse().expect("--iters"),
                "--sessions" => args.sessions = value().parse().expect("--sessions"),
                "--events" => args.events = value().parse().expect("--events"),
                "--dir" => args.dir = PathBuf::from(value()),
                other => panic!("unknown flag {other}"),
            }
        }
        assert!(args.iters > 0 && args.sessions > 0 && args.events > 0);
        args
    }
}

/// Submit rounds `[0, stop_round)` of every stream, pumping between.
fn drive(
    svc: &mut DurableService<DirStorage>,
    streams: &[Vec<Event>],
    chunk: usize,
    stop_round: usize,
) {
    for r in 0..stop_round {
        for (s, evs) in streams.iter().enumerate() {
            let lo = r * chunk;
            if lo >= evs.len() {
                continue;
            }
            let hi = (lo + chunk).min(evs.len());
            loop {
                match svc.submit(s as u64, &evs[lo..hi]) {
                    Ok(()) => break,
                    Err(Rejected::QueueFull { .. } | Rejected::SessionBusy { .. }) => svc.pump(),
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

/// Post-mortem file mangling: what the kernel may leave behind that
/// the in-memory fault model cannot produce on a real directory.
fn mangle(dir: &Path, r: u64) -> Option<String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    files.sort();
    if files.is_empty() {
        return None;
    }
    let target = &files[(mix(r) as usize) % files.len()];
    let bytes = std::fs::read(target).ok()?;
    let name = target.file_name()?.to_string_lossy().into_owned();
    match mix(r ^ 0xA5) % 3 {
        0 => {
            // Torn tail: drop 1..=64 bytes off the end.
            let cut = bytes.len().saturating_sub(1 + (mix(r ^ 0xB6) as usize) % 64);
            std::fs::write(target, &bytes[..cut]).ok()?;
            Some(format!("torn {name} to {cut}/{} bytes", bytes.len()))
        }
        1 => {
            // Bit rot: flip one bit anywhere.
            if bytes.is_empty() {
                return None;
            }
            let mut bad = bytes.clone();
            let at = (mix(r ^ 0xC7) as usize) % bad.len();
            bad[at] ^= 1 << (mix(r ^ 0xD8) % 8);
            std::fs::write(target, &bad).ok()?;
            Some(format!("flipped bit in {name} at byte {at}"))
        }
        _ => None, // clean kill: the torn frame is the crash point itself
    }
}

fn main() {
    let args = Args::parse();
    let cfg = ServeConfig {
        workers: 2,
        max_resident: 2,
        scrub_interval: 256,
        seed: args.seed,
        ..ServeConfig::default()
    };
    let chunk = 96usize;
    let mut total_quarantined = 0usize;
    let mut total_replayed = 0u64;
    let mut mangles = 0usize;

    for iter in 0..args.iters {
        let r = mix(args.seed ^ (iter << 17));
        let dir = args.dir.join(format!("iter-{iter}"));
        let _ = std::fs::remove_dir_all(&dir);
        let storage = DirStorage::open(&dir).expect("create iteration dir");
        let dcfg = DurableConfig {
            group_commit_events: 32 + r % 128,
            snapshot_every: 200 + mix(r) % 400,
        };
        let streams: Vec<Vec<Event>> = (0..args.sessions)
            .map(|s| stream(iter as usize + s, args.seed + iter * 31 + s as u64, args.events))
            .collect();
        let rounds = streams
            .iter()
            .map(|evs| evs.len().div_ceil(chunk))
            .max()
            .unwrap_or(0);
        let stop_round = (mix(r ^ 0x91) as usize) % (rounds + 1);

        let mut svc = DurableService::new(cfg, dcfg, FaultPlan::benign(), storage);
        drive(&mut svc, &streams, chunk, stop_round);
        drop(svc.crash()); // the kill: all volatile state is gone

        if let Some(what) = mangle(&dir, r) {
            mangles += 1;
            println!("iter {iter}: {what}");
        }

        let storage = DirStorage::open(&dir).expect("reopen iteration dir");
        let (mut svc, report) =
            DurableService::recover(cfg, dcfg, FaultPlan::benign(), storage);
        total_quarantined += report.quarantined.len();
        for q in &report.quarantined {
            println!("iter {iter}: quarantined {} @{}: {}", q.file, q.offset, q.error);
        }
        let suffixes: Vec<Vec<Event>> = streams
            .iter()
            .enumerate()
            .map(|(s, evs)| {
                let rec = report.sessions.get(&(s as u64));
                total_replayed += rec.map_or(0, |r| r.replayed);
                let recovered = rec.map_or(0, |r| r.recovered) as usize;
                assert!(
                    recovered <= evs.len(),
                    "iter {iter} session {s}: recovered {recovered} > submitted {}",
                    evs.len()
                );
                evs[recovered..].to_vec()
            })
            .collect();
        let resume = suffixes
            .iter()
            .map(|evs| evs.len().div_ceil(chunk))
            .max()
            .unwrap_or(0);
        drive(&mut svc, &suffixes, chunk, resume);
        let (out, _storage) = svc.finish();
        for (s, evs) in streams.iter().enumerate() {
            assert_eq!(
                out.sessions[&(s as u64)].encode(),
                solo(evs, cfg.scrub_interval),
                "iter {iter} session {s}: diverged after kill at round {stop_round}/{rounds}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    let _ = std::fs::remove_dir_all(&args.dir);
    println!(
        "crash_stress OK: {} iters, {} sessions each, {} mangled images, \
         {} frames quarantined, {} events replayed from WAL",
        args.iters, args.sessions, mangles, total_quarantined, total_replayed
    );
}
