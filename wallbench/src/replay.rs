//! The decomposed half of the traced run: a traced round's batches are
//! replayed through each layer's public entry points in latchd's call
//! order, with a span around every call.
//!
//! * [`service`] — for each batch, the client's `Msg::encode`, the
//!   server's `frame_payload` + `Msg::decode_payload`,
//!   `journal::encode_record`, then `DurableService::submit_with_priority`
//!   and, when the connection's window fills or admission pushes back,
//!   `DurableService::pump` — the wire server's sequence — over a
//!   [`TimedStorage`] directory store.
//! * [`sessions`] — each session's admitted batches through a
//!   `SessionPipeline` (apply, and `to_snapshot` at the durable
//!   snapshot cadence), and through a mirror of `SessionPipeline::apply`
//!   built from the coarse `LatchUnit` and the precise `DiftEngine`,
//!   timing the check, the DIFT step and the clear-scan separately.
//!   The mirror's counters must equal the pipeline's report.

use crate::drive::{latchd_config, BatchRec, Outcome};
use crate::spec::{Inputs, Spec};
use crate::trace::{self, now_ns, TimedStorage};
use latch_core::config::LatchConfig;
use latch_core::unit::LatchUnit;
use latch_dift::engine::DiftEngine;
use latch_faults::FaultPlan;
use latch_proto::Msg;
use latch_serve::{
    journal, DirStorage, DurableConfig, DurableService, Priority, Rejected, ServeStats,
};
use latch_sim::event::{Event, MemAccessKind};
use latch_sim::machine::apply_event_dift;
use latch_systems::session::SessionPipeline;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// What the service replay measured besides its spans.
pub struct ServiceReplay {
    pub stats: ServeStats,
    /// Batches applied by each pump (and the final drain), in pump
    /// order.
    pub pumped: Vec<Vec<usize>>,
}

/// Replays `order` (the traced round's answered batches, in reply
/// order) through one in-process service configured as latchd is.
pub fn service(
    spec: &Spec,
    inputs: &Inputs,
    order: &[BatchRec],
    live_reports: &BTreeMap<u64, Vec<u8>>,
    dir: &Path,
) -> Result<ServiceReplay, String> {
    let storage = DirStorage::open(dir).map_err(|e| format!("open replay dir: {e}"))?;
    let mut svc = DurableService::new(
        latchd_config(spec.slo_cycles),
        DurableConfig::default(),
        FaultPlan::benign(),
        TimedStorage(storage),
    );
    let window = u64::from(spec.window);
    let mut outstanding = vec![0u64; spec.conns];
    let mut journaled = vec![0u64; inputs.sessions.len()];
    let mut pending: Vec<usize> = Vec::new();
    let mut pumped = Vec::new();
    trace::set_phase(trace::REPLAY);
    let mut pump = |svc: &mut DurableService<_>, req: u64, pending: &mut Vec<usize>| {
        let span = trace::open("sched.pump", req);
        svc.pump();
        if let Some(s) = span {
            s.close(0);
        }
        pumped.push(std::mem::take(pending));
    };
    for rec in order {
        let b = rec.batch;
        let req = b as u64;
        let session = inputs.session_of(b);
        let events = inputs.events(b);
        let span = trace::open("proto.encode", req);
        let frame = Msg::Submit {
            session: session.id,
            priority: session.rank,
            events: events.to_vec(),
        }
        .encode()
        .map_err(|e| format!("encode: {e}"))?;
        if let Some(s) = span {
            s.close(frame.len() as u64);
        }
        let span = trace::open("proto.decode", req);
        let (payload, _) = latch_proto::frame_payload(&frame).map_err(|e| format!("frame: {e}"))?;
        let decoded = Msg::decode_payload(payload).map_err(|e| format!("decode: {e}"))?;
        if let Some(s) = span {
            s.close(frame.len() as u64);
        }
        let Msg::Submit {
            events: decoded, ..
        } = decoded
        else {
            return Err("decode returned another message".into());
        };
        let span = trace::open("journal.encode", req);
        let record = journal::encode_record(journaled[inputs.batches[b].session], &decoded);
        if let Some(s) = span {
            s.close(record.as_ref().map_or(0, |r| r.len() as u64));
        }
        let priority = Priority::from_rank(session.rank).unwrap_or_default();
        loop {
            let span = trace::open("serve.admit", req);
            let r = svc.submit_with_priority(session.id, &decoded, priority);
            if let Some(s) = span {
                s.close(0);
            }
            match r {
                Ok(()) => {
                    journaled[inputs.batches[b].session] += decoded.len() as u64;
                    pending.push(b);
                    outstanding[rec.conn] += decoded.len() as u64;
                    if outstanding[rec.conn] >= window {
                        pump(&mut svc, req, &mut pending);
                        outstanding[rec.conn] = 0;
                    }
                    break;
                }
                Err(Rejected::QueueFull { .. } | Rejected::SessionBusy { .. }) => {
                    pump(&mut svc, req, &mut pending);
                    outstanding[rec.conn] = 0;
                }
                Err(Rejected::Shed { .. }) => break,
                Err(other) => return Err(format!("replay refused batch {b}: {other:?}")),
            }
        }
    }
    let span = trace::open("sched.pump", u64::MAX);
    let (outcome, _storage) = svc.finish();
    if let Some(s) = span {
        s.close(0);
    }
    trace::set_phase(0);
    pumped.push(pending);
    let replayed: BTreeMap<u64, Vec<u8>> = outcome
        .sessions
        .iter()
        .map(|(&s, r)| (s, r.encode()))
        .collect();
    if &replayed != live_reports {
        return Err("service replay's reports differ from the traced round's".into());
    }
    Ok(ServiceReplay {
        stats: outcome.stats,
        pumped,
    })
}

/// Mean `to_snapshot` time per session index, ns.
pub type SnapshotNs = BTreeMap<usize, f64>;

/// Cost of one `Instant` pair, subtracted from every individually
/// timed call.
fn timer_overhead_ns() -> u64 {
    const N: u32 = 20_000;
    let t = Instant::now();
    let mut acc = 0u128;
    for _ in 0..N {
        let a = Instant::now();
        acc += a.elapsed().as_nanos();
    }
    std::hint::black_box(acc);
    (t.elapsed().as_nanos() / u128::from(N)) as u64
}

pub fn sessions(
    inputs: &Inputs,
    order: &[BatchRec],
    scrub_interval: u64,
) -> Result<SnapshotNs, String> {
    let overhead = timer_overhead_ns();
    let timed = |start: Instant| (start.elapsed().as_nanos() as u64).saturating_sub(overhead);
    let snapshot_every = DurableConfig::default().snapshot_every;
    let mut by_session: Vec<Vec<usize>> = vec![Vec::new(); inputs.sessions.len()];
    for r in order.iter().filter(|r| r.outcome == Outcome::Admitted) {
        by_session[inputs.batches[r.batch].session].push(r.batch);
    }
    let mut out = SnapshotNs::new();
    trace::set_phase(trace::REPLAY);
    for (s, batches) in by_session.iter_mut().enumerate() {
        batches.sort_by_key(|&b| inputs.batches[b].start);
        let mut pipe = SessionPipeline::new(scrub_interval);
        let mut mirror = Mirror::new(scrub_interval);
        let mut snaps = (0u64, 0u64);
        for &b in batches.iter() {
            let req = b as u64;
            let events = inputs.events(b);
            let before = pipe.applied();
            let span = trace::open("session.apply", req);
            for ev in events {
                pipe.apply(ev);
            }
            if let Some(sp) = span {
                sp.close(0);
            }
            if pipe.applied() / snapshot_every > before / snapshot_every {
                let span = trace::open("session.snapshot", req);
                let t = Instant::now();
                let blob = pipe.to_snapshot();
                snaps.0 += t.elapsed().as_nanos() as u64;
                snaps.1 += 1;
                if let Some(sp) = span {
                    sp.close(blob.len() as u64);
                }
            }
            mirror.batch(req, events, &timed);
        }
        if snaps.1 > 0 {
            out.insert(s, snaps.0 as f64 / snaps.1 as f64);
        }
        let report = pipe.report();
        if mirror.latch.stats().checks != report.checks || *mirror.engine.stats() != report.dift {
            trace::set_phase(0);
            return Err(format!(
                "session {s}: decomposed replay diverged from SessionPipeline"
            ));
        }
    }
    trace::set_phase(0);
    Ok(out)
}

/// `SessionPipeline::apply` rebuilt from the public coarse and precise
/// tiers, so each tier's share can be timed.
struct Mirror {
    latch: LatchUnit,
    engine: DiftEngine,
    applied: u64,
    scrub_interval: u64,
}

impl Mirror {
    fn new(scrub_interval: u64) -> Self {
        Mirror {
            latch: LatchUnit::new(LatchConfig::s_latch().build().expect("preset is valid")),
            engine: DiftEngine::new(),
            applied: 0,
            scrub_interval,
        }
    }

    fn batch(&mut self, req: u64, events: &[Event], timed: &dyn Fn(Instant) -> u64) {
        let (mut check, mut dift, mut clear) = ((0u64, 0u64), (0u64, 0u64), (0u64, 0u64));
        let start = now_ns();
        for ev in events {
            if let Some(mem) = ev.mem {
                let t = Instant::now();
                let _ = match mem.kind {
                    MemAccessKind::Read => self.latch.check_read(mem.addr, mem.len),
                    MemAccessKind::Write => self.latch.check_write(mem.addr, mem.len),
                };
                check.0 += timed(t);
                check.1 += 1;
            }
            let t = Instant::now();
            let step = apply_event_dift(&mut self.engine, ev);
            dift.0 += timed(t);
            dift.1 += 1;
            if let Some((addr, len, tainted)) = step.mem_taint_write {
                let _ = self.latch.write_taint(addr, len, tainted);
                if !tainted {
                    let t = Instant::now();
                    let _ = self.latch.clear_scan(self.engine.shadow());
                    clear.0 += timed(t);
                    clear.1 += 1;
                }
            }
            let packed = self.engine.regs().to_packed();
            self.latch.trf_mut().load_packed(packed);
            if self.scrub_interval > 0 && (self.applied + 1).is_multiple_of(self.scrub_interval) {
                let _ = self.latch.scrub(self.engine.shadow());
            }
            self.applied += 1;
        }
        let end = now_ns();
        trace::folded("core.check", req, start, end, check.0, check.1);
        trace::folded("dift.apply", req, start, end, dift.0, dift.1);
        trace::folded("core.clear_scan", req, start, end, clear.0, clear.1);
    }
}
