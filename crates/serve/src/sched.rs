//! The scheduler: [`Service`] and everything it decides.
//!
//! The service owns all scheduling state directly: session slots,
//! per-worker ready queues, admission counters, the fault injector, and
//! the cost accounting. [`pump`](Service::pump) drives virtual workers
//! with a seeded round-robin cursor, and each turn is one in-place
//! dispatch step: pop a ready session, take up to `batch_max` of its
//! events, materialise its pipeline in the slot, apply the batch, and
//! fold the result back into the stats, queues and SLO policy. A batch
//! runs to completion inside its step, so nothing is ever in flight
//! between steps.
//!
//! Invariants:
//!
//! * A session is on at most one ready queue, and a step takes its
//!   batch from the front of the session's pending queue (a killed
//!   batch goes back to that front), so per-session event order is
//!   submission order — always.
//! * `pending_total` counts exactly the events sitting in session
//!   pending queues; admission control gates on it before any state
//!   changes, so a rejected submit is a complete no-op.
//! * A frozen session's blob round-trips byte-identically (the
//!   `SessionPipeline` snapshot contract), so eviction, migration, and
//!   death-replay are invisible in per-session reports.

use crate::overload::{DegradedSpan, Priority, Slo, SloReport, SloSampler};
use crate::{Rejected, ServeConfig, ServeStats, ServiceOutcome};
use latch_faults::{FaultInjector, FaultPlan};
use latch_obs::TraceEvent;
use latch_sim::event::Event;
use latch_systems::cost::CostModel;
use latch_systems::session::SessionPipeline;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Instant;

/// Where one session's state currently lives.
enum SlotState {
    /// Never ran: materializes lazily on first dispatch.
    Fresh,
    /// Resident pipeline, ready to run.
    Live(Box<SessionPipeline>),
    /// Evicted to a snapshot blob.
    Frozen(Vec<u8>),
}

/// The coarse-only degradation state of one demoted session.
///
/// The checkpoint freezes the last precise state; `deferred` collects
/// every event the session retires coarse-only, in order. Promotion
/// restores the checkpoint and replays `deferred` through the full
/// pipeline, so the final report is byte-identical to a run that was
/// never demoted.
struct Degraded {
    checkpoint: Vec<u8>,
    deferred: Vec<Event>,
    from_applied: u64,
    at_batch: u64,
}

struct Slot {
    state: SlotState,
    pending: VecDeque<Event>,
    /// Logical completion tick of the last batch (LRU recency).
    last_active: u64,
    /// Whether the session sits on some worker's ready queue.
    enqueued: bool,
    /// Events the pipeline had applied at its last quiescent point —
    /// kept current so a `Frozen` slot's progress is known without
    /// decoding its blob (the durability layer snapshots from this).
    /// Frozen at the demotion point while the slot is degraded.
    applied: u64,
    /// Recovery epoch at the same point.
    epoch: u64,
    /// Admission class, fixed at slot creation (sticky).
    priority: Priority,
    /// `Some` while the session runs coarse-only.
    degraded: Option<Degraded>,
}

impl Slot {
    fn new(priority: Priority) -> Self {
        Self {
            state: SlotState::Fresh,
            pending: VecDeque::new(),
            last_active: 0,
            enqueued: false,
            applied: 0,
            epoch: 0,
            priority,
            degraded: None,
        }
    }
}

/// The multi-session taint-checking service. See the crate docs.
pub struct Service {
    cfg: ServeConfig,
    cost: CostModel,
    slots: HashMap<u64, Slot>,
    ready: Vec<VecDeque<u64>>,
    pending_total: usize,
    tick: u64,
    inj: FaultInjector,
    alive: Vec<bool>,
    alive_count: usize,
    live_resident: usize,
    stats: ServeStats,
    /// Simulated busy cycles per worker (batch cost + context switch).
    worker_busy: Vec<u64>,
    /// Per-batch latency samples, in simulated cycles.
    batch_cycles: Vec<u64>,
    /// The SLO policy (a sanitized copy of `cfg.slo`).
    slo: Slo,
    /// Sliding window of per-batch costs feeding the percentile cuts.
    sampler: SloSampler,
    /// Batches completed (the report-cut clock).
    completed: u64,
    /// Breach verdict of the last cut — the latency half of the
    /// pressure signal, stable between cuts.
    last_breach: bool,
    breach_streak: u32,
    clean_streak: u32,
    degraded_count: usize,
    /// Every SLO cut, in order.
    slo_reports: Vec<SloReport>,
    /// Every completed degradation span, in promotion order.
    degraded_spans: Vec<DegradedSpan>,
    /// The virtual worker [`pump`](Self::pump) serves next.
    cursor: usize,
    started: Instant,
}

impl Service {
    /// Single-threaded service with virtual workers and a seeded
    /// round-robin scheduler: byte-deterministic, no wall clock in any
    /// decision.
    #[must_use]
    pub fn deterministic(cfg: ServeConfig, plan: FaultPlan) -> Self {
        let cfg = cfg.sanitized();
        let workers = cfg.workers;
        let cursor = (latch_faults::mix(cfg.seed, 0x5E2_17E, 0) % workers as u64) as usize;
        Self {
            cfg,
            cost: CostModel::default(),
            slots: HashMap::new(),
            ready: vec![VecDeque::new(); workers],
            pending_total: 0,
            tick: 0,
            inj: FaultInjector::new(plan),
            alive: vec![true; workers],
            alive_count: workers,
            live_resident: 0,
            stats: ServeStats::default(),
            worker_busy: vec![0; workers],
            batch_cycles: Vec::new(),
            slo: cfg.slo,
            sampler: SloSampler::new(cfg.slo.window),
            completed: 0,
            last_breach: false,
            breach_streak: 0,
            clean_streak: 0,
            degraded_count: 0,
            slo_reports: Vec::new(),
            degraded_spans: Vec::new(),
            cursor,
            started: Instant::now(),
        }
    }

    /// Submits a batch of events for `session` at [`Priority::Normal`].
    /// Events of one session are applied in submission order; events of
    /// different sessions interleave arbitrarily.
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] (and changes nothing) when admission
    /// control refuses the batch.
    pub fn submit(&mut self, session: u64, events: &[Event]) -> Result<(), Rejected> {
        self.submit_with_priority(session, events, Priority::Normal)
    }

    /// Like [`submit`](Self::submit) with an explicit admission class.
    /// The class is sticky: the session keeps the priority of its first
    /// admission, whatever later calls pass.
    ///
    /// Reject-before-mutate: every `Err` leaves the scheduler
    /// byte-identical (only the matching rejection counter moves).
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] (and changes nothing) when admission
    /// control refuses the batch — including [`Rejected::Shed`] when
    /// the overload policy drops it by priority.
    pub fn submit_with_priority(
        &mut self,
        session: u64,
        events: &[Event],
        priority: Priority,
    ) -> Result<(), Rejected> {
        if events.is_empty() {
            return Ok(());
        }
        // Sticky priority: an existing slot's class wins over the flag
        // on this call.
        let prio = self.slots.get(&session).map_or(priority, |s| s.priority);
        let pressure = self.pressure(events.len());
        if pressure > 0 && prio.rank() >= 3 - pressure {
            self.stats.rejected_shed = self.stats.rejected_shed.saturating_add(1);
            self.stats.shed_events = self.stats.shed_events.saturating_add(events.len() as u64);
            latch_obs::counter_inc("serve.rejected.shed");
            latch_obs::emit(
                "serve",
                TraceEvent::SubmissionShed {
                    session,
                    priority: prio.rank(),
                    pressure,
                },
            );
            return Err(Rejected::Shed {
                session,
                priority: prio,
                pressure,
            });
        }
        if self.pending_total + events.len() > self.cfg.queue_events {
            self.stats.rejected_queue_full = self.stats.rejected_queue_full.saturating_add(1);
            latch_obs::counter_inc("serve.rejected.queue_full");
            return Err(Rejected::QueueFull {
                pending: self.pending_total,
                capacity: self.cfg.queue_events,
            });
        }
        let slot = self
            .slots
            .entry(session)
            .or_insert_with(|| Slot::new(priority));
        if slot.pending.len() + events.len() > self.cfg.session_inflight_cap {
            self.stats.rejected_session_busy = self.stats.rejected_session_busy.saturating_add(1);
            latch_obs::counter_inc("serve.rejected.session_busy");
            return Err(Rejected::SessionBusy {
                session,
                pending: slot.pending.len(),
                cap: self.cfg.session_inflight_cap,
            });
        }
        slot.pending.extend(events.iter().copied());
        let enqueue = !slot.enqueued;
        slot.enqueued = true;
        self.pending_total += events.len();
        self.stats.submitted_events = self
            .stats
            .submitted_events
            .saturating_add(events.len() as u64);
        if self.pending_total as u64 > self.stats.queue_depth_hwm {
            self.stats.queue_depth_hwm = self.pending_total as u64;
            latch_obs::watermark("serve.queue.depth", self.pending_total as u64);
        }
        if enqueue {
            let home = (session as usize) % self.cfg.workers;
            let w = if self.alive[home] {
                home
            } else {
                self.first_alive()
            };
            self.ready[w].push_back(session);
        }
        Ok(())
    }

    /// Session ids currently degraded to coarse-only screening, sorted.
    #[must_use]
    pub fn degraded_sessions(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .slots
            .iter()
            .filter(|(_, s)| s.degraded.is_some())
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Runs the virtual workers until every queued event is applied.
    pub fn pump(&mut self) {
        while !self.idle() {
            let w = self.cursor;
            self.cursor = (self.cursor + 1) % self.cfg.workers;
            self.step(w);
        }
    }

    /// Graceful drain: applies everything queued and returns
    /// per-session results.
    #[must_use]
    pub fn finish(mut self) -> ServiceOutcome {
        self.pump();
        let wall_ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Any session still degraded at drain end is promoted now: its
        // deferred span replays through the precise tier, so every final
        // report is byte-identical to an unpressured solo run of the
        // session's admitted stream.
        self.promote_all();
        debug_assert_eq!(self.degraded_count, 0);
        let scrub_interval = self.cfg.scrub_interval;
        let pipelines: BTreeMap<u64, SessionPipeline> =
            self.slots
                .into_iter()
                .map(|(id, slot)| {
                    let pipeline = match slot.state {
                        SlotState::Live(p) => *p,
                        SlotState::Frozen(blob) => SessionPipeline::from_snapshot(&blob)
                            .expect("frozen blob is self-produced"),
                        SlotState::Fresh => SessionPipeline::new(scrub_interval),
                    };
                    (id, pipeline)
                })
                .collect();
        let sessions = pipelines.iter().map(|(id, p)| (*id, p.report())).collect();
        ServiceOutcome {
            sessions,
            pipelines,
            stats: self.stats,
            worker_busy_cycles: self.worker_busy,
            batch_cycles: self.batch_cycles,
            slo_reports: self.slo_reports,
            degraded_spans: self.degraded_spans,
            wall_ns,
        }
    }

    /// Session ids with any state in the scheduler, sorted.
    #[must_use]
    pub fn session_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.slots.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// `(applied, epoch)` for a session at its last quiescent point —
    /// see [`snapshot_session`](Self::snapshot_session) for when
    /// `None`.
    #[must_use]
    pub fn session_progress(&self, session: u64) -> Option<(u64, u64)> {
        let slot = self.slots.get(&session)?;
        if slot.degraded.is_some() {
            // A degraded session's durable progress is its demotion
            // checkpoint: the coarse pipeline past it is provisional.
            return Some((slot.applied, slot.epoch));
        }
        match &slot.state {
            SlotState::Live(p) => Some((p.applied(), p.epoch())),
            SlotState::Frozen(_) => Some((slot.applied, slot.epoch)),
            SlotState::Fresh => None,
        }
    }

    /// Byte-stable snapshot `(applied, epoch, blob)` of a session.
    /// Frozen slots hand back their blob without thawing; `None` for
    /// sessions that never ran — the durability layer simply snapshots
    /// them once they have.
    #[must_use]
    pub fn snapshot_session(&self, session: u64) -> Option<(u64, u64, Vec<u8>)> {
        let slot = self.slots.get(&session)?;
        if let Some(d) = &slot.degraded {
            // The durable snapshot of a degraded session is its precise
            // demotion checkpoint — WAL replay from `applied` then
            // re-derives the deferred span precisely on recovery.
            return Some((slot.applied, slot.epoch, d.checkpoint.clone()));
        }
        match &slot.state {
            SlotState::Live(p) => Some((p.applied(), p.epoch(), p.to_snapshot())),
            SlotState::Frozen(blob) => Some((slot.applied, slot.epoch, blob.clone())),
            SlotState::Fresh => None,
        }
    }

    /// Installs a recovered session as a frozen slot, as if it had
    /// been evicted at `applied`/`epoch`. Crash recovery calls this
    /// before any traffic reaches the rebuilt service; the slot thaws
    /// lazily on first dispatch like any evicted session. `priority`
    /// rehydrates the sticky admission class the session held before
    /// the crash — priority is sticky, so recreating the slot at the
    /// default would silently downgrade it forever.
    pub fn preload_session(
        &mut self,
        session: u64,
        blob: Vec<u8>,
        applied: u64,
        epoch: u64,
        priority: Priority,
    ) {
        let slot = self
            .slots
            .entry(session)
            .or_insert_with(|| Slot::new(priority));
        slot.priority = priority;
        slot.state = SlotState::Frozen(blob);
        slot.applied = applied;
        slot.epoch = epoch;
    }

    /// SLO report cuts taken so far, in cut order. The slice only
    /// grows while the service runs, so a caller can stream new cuts
    /// by keeping a cursor into it — the wire server pushes the suffix
    /// to subscribed connections after each reply.
    #[must_use]
    pub fn slo_reports(&self) -> &[SloReport] {
        &self.slo_reports
    }

    /// The sticky admission class of a known session, or `None` for a
    /// session the service has never admitted (or preloaded).
    #[must_use]
    pub fn session_priority(&self, session: u64) -> Option<Priority> {
        self.slots.get(&session).map(|s| s.priority)
    }

    /// No queued events and nothing on any ready queue.
    fn idle(&self) -> bool {
        self.pending_total == 0 && self.ready.iter().all(VecDeque::is_empty)
    }

    fn first_alive(&self) -> usize {
        self.alive
            .iter()
            .position(|&a| a)
            .expect("at least one worker survives")
    }

    /// The current overload pressure level, a pure function of
    /// scheduler state: 0 = none, 1 = shed bulk, 2 = shed bulk and
    /// normal. The latency half (`last_breach`) only changes at report
    /// cuts, so a submission's verdict depends on nothing but admitted
    /// history — byte-identical across reruns.
    fn pressure(&self, incoming: usize) -> u8 {
        if self.slo.slo_cycles == 0 {
            return 0;
        }
        let occupied = (self.pending_total + incoming) * 100
            >= self.cfg.queue_events * self.slo.queue_pressure_pct as usize;
        match (self.last_breach, occupied) {
            (true, true) => 2,
            (true, false) | (false, true) => 1,
            (false, false) => 0,
        }
    }

    /// Pops the next session for `worker`: its own queue first, then a
    /// steal from the longest other queue (ties to the lowest worker
    /// index, victim popped from the back — classic work stealing).
    fn pop_ready(&mut self, worker: usize) -> Option<u64> {
        if let Some(s) = self.ready[worker].pop_front() {
            return Some(s);
        }
        let victim = (0..self.ready.len())
            .filter(|&w| w != worker && !self.ready[w].is_empty())
            .max_by_key(|&w| (self.ready[w].len(), std::cmp::Reverse(w)))?;
        let s = self.ready[victim].pop_back()?;
        self.stats.batches_stolen = self.stats.batches_stolen.saturating_add(1);
        latch_obs::counter_inc("serve.steals");
        Some(s)
    }

    /// One dispatch on `worker`, in place: pops a ready session, runs
    /// up to `batch_max` of its events through its pipeline, and folds
    /// the result back. Does nothing when the worker is dead or no
    /// session is ready.
    fn step(&mut self, worker: usize) {
        if !self.alive[worker] {
            return;
        }
        let Some(session) = self.pop_ready(worker) else {
            return;
        };
        let slot = self.slots.get_mut(&session).expect("ready session exists");
        slot.enqueued = false;
        let coarse_only = slot.degraded.is_some();
        let take = slot.pending.len().min(self.cfg.batch_max);
        let batch: Vec<Event> = slot.pending.drain(..take).collect();
        let mut pipeline = match std::mem::replace(&mut slot.state, SlotState::Fresh) {
            SlotState::Live(p) => {
                self.live_resident -= 1;
                p
            }
            SlotState::Frozen(blob) => {
                self.stats.restores = self.stats.restores.saturating_add(1);
                latch_obs::counter_inc("serve.session.restores");
                latch_obs::emit("serve", TraceEvent::SessionRestore { session });
                Box::new(
                    SessionPipeline::from_snapshot(&blob).expect("frozen blob is self-produced"),
                )
            }
            SlotState::Fresh => Box::new(SessionPipeline::new(self.cfg.scrub_interval)),
        };
        self.pending_total -= batch.len();
        let batch_index = self.stats.dispatches;
        self.stats.dispatches = self.stats.dispatches.saturating_add(1);
        latch_obs::histogram_record("serve.batch.events", batch.len() as u64);
        let kill_at = if self.inj.plan().worker.kill_per_mille > 0 && self.alive_count > 1 {
            self.inj.worker_kill_at(batch_index, batch.len())
        } else {
            None
        };
        // `None` when the worker dies mid-batch: it makes partial
        // progress, then its pipeline (and everything applied since the
        // pre-batch checkpoint) is lost.
        let cycles = match kill_at {
            Some(kill_at) => {
                let checkpoint = pipeline.to_snapshot();
                for ev in batch.iter().take(kill_at) {
                    if coarse_only {
                        pipeline.apply_coarse_only(ev);
                    } else {
                        pipeline.apply(ev);
                    }
                }
                pipeline = Box::new(
                    SessionPipeline::from_snapshot(&checkpoint).expect("own snapshot must decode"),
                );
                None
            }
            // Degraded span: coarse screen only, no precise mirror. The
            // whole point of demotion is the cost: one cycle per event,
            // none of the coarse-tier penalty cycles a precise batch pays.
            None if coarse_only => {
                for ev in &batch {
                    pipeline.apply_coarse_only(ev);
                }
                Some(batch.len() as u64)
            }
            None => {
                let start_cycles = pipeline.cycles();
                for ev in &batch {
                    pipeline.apply(ev);
                }
                Some(pipeline.cycles() - start_cycles)
            }
        };

        self.tick += 1;
        let slot = self
            .slots
            .get_mut(&session)
            .expect("dispatched session exists");
        if slot.degraded.is_none() {
            // A degraded slot keeps `applied`/`epoch` frozen at the
            // demotion point: snapshots carry the precise checkpoint,
            // while its pipeline — even a death-replay checkpoint — is
            // the provisional coarse one. Advancing the cursor would make
            // recovery skip the deferred span.
            slot.applied = pipeline.applied();
            slot.epoch = pipeline.epoch();
        }
        slot.state = SlotState::Live(pipeline);
        slot.last_active = self.tick;
        self.live_resident += 1;
        let Some(cycles) = cycles else {
            // The whole batch goes back to the *front* of the session's
            // pending queue so replay preserves event order.
            let replayed = batch.len() as u64;
            self.pending_total += batch.len();
            for ev in batch.into_iter().rev() {
                slot.pending.push_front(ev);
            }
            slot.enqueued = true;
            self.alive[worker] = false;
            self.alive_count -= 1;
            self.stats.worker_kills = self.stats.worker_kills.saturating_add(1);
            self.stats.replayed_events = self.stats.replayed_events.saturating_add(replayed);
            latch_obs::counter_inc("serve.worker.deaths");
            latch_obs::emit(
                "serve",
                TraceEvent::WorkerDeath {
                    worker: worker as u32,
                    replayed,
                },
            );
            // Orphaned ready sessions move to a survivor wholesale,
            // ahead of the replay.
            let target = self.first_alive();
            let orphans: Vec<u64> = self.ready[worker].drain(..).collect();
            self.ready[target].extend(orphans);
            self.ready[target].push_back(session);
            return;
        };
        if let Some(d) = slot.degraded.as_mut() {
            // Defer the batch for the precise resync at promotion.
            let n = batch.len() as u64;
            d.deferred.extend(batch);
            self.stats.coarse_batches = self.stats.coarse_batches.saturating_add(1);
            self.stats.coarse_events = self.stats.coarse_events.saturating_add(n);
        }
        let requeue = !slot.pending.is_empty();
        slot.enqueued = requeue;
        if requeue {
            self.ready[worker].push_back(session);
        }
        self.worker_busy[worker] = self.worker_busy[worker]
            .saturating_add(cycles.saturating_add(self.cost.ctx_switch_cycles));
        self.batch_cycles.push(cycles);
        latch_obs::histogram_record("serve.batch.cycles", cycles);
        self.maybe_evict();
        self.note_batch(cycles);
    }

    /// Records one completed batch in the SLO sampler and, on cadence,
    /// cuts a report and applies the demotion/promotion policy. Pure in
    /// scheduler state — the whole overload trajectory of a
    /// deterministic run replays byte-identically.
    fn note_batch(&mut self, cycles: u64) {
        self.sampler.push(cycles);
        self.completed = self.completed.saturating_add(1);
        if self.slo.slo_cycles == 0 || !self.completed.is_multiple_of(self.slo.report_every) {
            return;
        }
        let mut report = self.sampler.cut(self.completed, self.slo.slo_cycles);
        self.last_breach = report.breach;
        if report.breach {
            self.breach_streak = self.breach_streak.saturating_add(1);
            self.clean_streak = 0;
        } else {
            self.clean_streak = self.clean_streak.saturating_add(1);
            self.breach_streak = 0;
        }
        report.pressure = self.pressure(0);
        report.shed_events = self.stats.shed_events;
        if report.breach
            && self.breach_streak >= self.slo.demote_after
            && self.degraded_count < self.slo.max_degraded
        {
            self.demote_one();
        } else if !report.breach && self.clean_streak >= self.slo.promote_after {
            self.promote_all();
            self.maybe_evict();
        }
        report.degraded = self.degraded_count as u32;
        latch_obs::emit(
            "serve",
            TraceEvent::SloReport {
                samples: report.samples,
                p50_cycles: report.p50_cycles,
                p99_cycles: report.p99_cycles,
                breach: report.breach,
            },
        );
        self.slo_reports.push(report);
    }

    /// Demotes the lowest-priority demotable session to coarse-only
    /// screening. Candidates must have state (`Live` or `Frozen`) and
    /// never be `Critical`; ties break to the smallest session id, so
    /// the choice is a pure function of scheduler state.
    fn demote_one(&mut self) {
        let victim = self
            .slots
            .iter()
            .filter(|(_, s)| {
                s.degraded.is_none()
                    && s.priority != Priority::Critical
                    && !matches!(s.state, SlotState::Fresh)
            })
            .max_by_key(|(id, s)| (s.priority.rank(), std::cmp::Reverse(**id)))
            .map(|(id, _)| *id);
        let Some(id) = victim else { return };
        let slot = self.slots.get_mut(&id).expect("victim exists");
        let checkpoint = match &slot.state {
            SlotState::Live(p) => p.to_snapshot(),
            SlotState::Frozen(blob) => blob.clone(),
            SlotState::Fresh => unreachable!("victim filter excludes fresh slots"),
        };
        slot.degraded = Some(Degraded {
            checkpoint,
            deferred: Vec::new(),
            from_applied: slot.applied,
            at_batch: self.completed,
        });
        let at_applied = slot.applied;
        self.degraded_count += 1;
        self.stats.demotions = self.stats.demotions.saturating_add(1);
        latch_obs::counter_inc("serve.session.demotions");
        latch_obs::emit(
            "serve",
            TraceEvent::SessionDemote {
                session: id,
                at_applied,
            },
        );
    }

    /// Promotes every degraded session, in session-id order: restores
    /// the demotion checkpoint and replays the deferred span through
    /// the precise tier, making the span invisible in the session's
    /// final report.
    fn promote_all(&mut self) {
        for id in self.degraded_sessions() {
            self.promote(id);
        }
    }

    fn promote(&mut self, id: u64) {
        let slot = self.slots.get_mut(&id).expect("degraded slot exists");
        let Some(d) = slot.degraded.take() else {
            return;
        };
        let was_live = matches!(slot.state, SlotState::Live(_));
        let mut pipeline = SessionPipeline::from_snapshot(&d.checkpoint)
            .expect("demotion checkpoint is self-produced");
        let before = pipeline.cycles();
        for ev in &d.deferred {
            pipeline.apply(ev);
        }
        let resync_cycles = pipeline.cycles() - before;
        slot.applied = pipeline.applied();
        slot.epoch = pipeline.epoch();
        slot.state = SlotState::Live(Box::new(pipeline));
        if !was_live {
            self.live_resident += 1;
        }
        let replayed = d.deferred.len() as u64;
        self.degraded_count -= 1;
        self.stats.promotions = self.stats.promotions.saturating_add(1);
        self.stats.resync_events = self.stats.resync_events.saturating_add(replayed);
        self.stats.resync_cycles = self.stats.resync_cycles.saturating_add(resync_cycles);
        self.degraded_spans.push(DegradedSpan {
            session: id,
            from_applied: d.from_applied,
            demoted_at_batch: d.at_batch,
            promoted_at_batch: self.completed,
            deferred_events: replayed,
        });
        latch_obs::counter_inc("serve.session.promotions");
        latch_obs::emit(
            "serve",
            TraceEvent::SessionPromote {
                session: id,
                replayed,
            },
        );
    }

    /// Evicts least-recently-active idle sessions to snapshot blobs
    /// until at most `max_resident` pipelines stay materialized.
    /// Degraded slots are never evicted: their precise checkpoint
    /// already holds the durable state, and freezing the provisional
    /// coarse pipeline would buy nothing.
    fn maybe_evict(&mut self) {
        while self.live_resident > self.cfg.max_resident {
            let victim = self
                .slots
                .iter()
                .filter(|(_, s)| {
                    matches!(s.state, SlotState::Live(_))
                        && !s.enqueued
                        && s.pending.is_empty()
                        && s.degraded.is_none()
                })
                .min_by_key(|(id, s)| (s.last_active, **id))
                .map(|(id, _)| *id);
            let Some(id) = victim else { return };
            let slot = self.slots.get_mut(&id).expect("victim exists");
            let SlotState::Live(p) = std::mem::replace(&mut slot.state, SlotState::Fresh) else {
                unreachable!("victim filter guarantees a live slot");
            };
            slot.applied = p.applied();
            slot.epoch = p.epoch();
            let blob = p.to_snapshot();
            self.live_resident -= 1;
            self.stats.evictions = self.stats.evictions.saturating_add(1);
            latch_obs::counter_inc("serve.session.evictions");
            latch_obs::emit(
                "serve",
                TraceEvent::SessionEvict {
                    session: id,
                    blob_bytes: blob.len() as u64,
                },
            );
            slot.state = SlotState::Frozen(blob);
        }
    }
}
