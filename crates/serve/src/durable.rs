//! Crash-consistent durability for the service.
//!
//! [`DurableService`] wraps a [`Service`] and a [`Storage`] backend so
//! the whole multi-session scheduler survives being killed at any
//! instant:
//!
//! * **Write-ahead journal** — every admitted batch is appended to the
//!   session's `wal-*` file *after* admission succeeds, as a
//!   CRC-framed record (see [`crate::journal`]). Fsyncs are batched:
//!   one group commit per `group_commit_events` journaled events.
//! * **Snapshot store** — once a session has applied
//!   `snapshot_every` events past its last durable snapshot, the
//!   maintenance pass writes a checksummed frame (see
//!   [`crate::store`]) to the session's alternate generation. One
//!   fsync then makes the pass's frames durable, and only after it
//!   succeeds are the journals they supersede truncated — so a crash
//!   can never leave a rotated journal without its snapshot.
//! * **Restore** — one path brings a session back, from this node's
//!   own files after a crash or from an export shipped by another
//!   node: pick the newest snapshot generation that decodes and thaws,
//!   replay the journal on top (skip covered records, stop at a gap),
//!   take the sticky class from the frame, else the journal header,
//!   else the default, bump the epoch, and seal the result with the
//!   same snapshot-then-rotate step maintenance uses.
//! * **Recovery** — [`DurableService::recover`] is that restore over
//!   every session the store's file names mention. Every corrupt or
//!   torn frame is quarantined with a typed [`RecoveryError`] (never a
//!   panic). Recovered state is an *exact prefix* of the submitted
//!   stream: re-submitting the un-recovered suffix yields reports
//!   byte-identical to a run that never crashed.
//! * **Fencing epoch** — the highest router epoch that adopted this
//!   node lives in a node-level `node-epoch` file (a node with no
//!   sessions has no journal header to hold it), written with the
//!   same atomic replace + fsync before the adoption is acked, and
//!   read back by recovery — so a restarted node still refuses a
//!   zombie router it had fenced.
//!
//! The durability contract deliberately acknowledges bounded loss:
//! events journaled but never covered by a successful fsync may
//! vanish with the page cache. What recovery guarantees is
//! *consistency* — the recovered pipeline equals the uninterrupted
//! pipeline after some prefix of its input, never a corrupted or
//! diverged state.

use crate::journal::{self, RecoveryError};
use crate::overload::Priority;
use crate::storage::Storage;
use crate::store::{self, SnapFrame};
use crate::{Rejected, ServeConfig, Service, ServiceOutcome};
use latch_core::snapshot::crc32;
use latch_faults::FaultPlan;
use latch_obs::TraceEvent;
use latch_sim::event::Event;
use latch_systems::session::SessionPipeline;
use std::collections::{BTreeMap, BTreeSet};

/// Durability tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableConfig {
    /// Journaled events per group-commit fsync. `1` syncs every
    /// append; larger values trade bounded loss for fewer syncs.
    pub group_commit_events: u64,
    /// Applied events between durable snapshots of a session.
    pub snapshot_every: u64,
}

impl Default for DurableConfig {
    fn default() -> Self {
        Self {
            group_commit_events: 256,
            snapshot_every: 2_048,
        }
    }
}

impl DurableConfig {
    fn sanitized(mut self) -> Self {
        self.group_commit_events = self.group_commit_events.max(1);
        self.snapshot_every = self.snapshot_every.max(1);
        self
    }
}

/// Per-session durability bookkeeping.
#[derive(Default)]
struct DurState {
    /// Events journaled so far == the next record's `base_seq`.
    journaled: u64,
    /// `applied` covered by the newest durable snapshot.
    snapshotted: u64,
    /// Generation the *next* snapshot frame goes to (alternates).
    next_generation: u8,
    /// Set when a journal append failed (the WAL has a gap), and for a
    /// restored session until its seal lands: no further appends make
    /// sense until a snapshot covers everything admitted and the
    /// journal is rotated clean.
    needs_resync: bool,
    /// Whether the `wal-*` file exists (header written).
    has_wal: bool,
}

impl DurState {
    /// First half of the snapshot-then-rotate step: writes `f` to the
    /// next generation; only on success flips the generation, marks it
    /// snapshotted, and — when it covers everything journaled — queues
    /// its journal in `covered` for [`DurableService::rotate_covered`].
    fn write_snapshot<S: Storage>(
        &mut self,
        storage: &mut S,
        f: &SnapFrame,
        covered: &mut Vec<(u64, Priority)>,
    ) -> bool {
        let generation = self.next_generation;
        let (session, applied, priority) = (f.session, f.applied, f.priority);
        if !store::write_frame(storage, session, generation, f.epoch, applied, priority, &f.blob) {
            return false;
        }
        self.next_generation = 1 - generation;
        self.snapshotted = applied;
        if applied >= self.journaled {
            covered.push((session, priority));
        }
        true
    }
}

/// The sealing frame of a session restored here: a new epoch, so this
/// node's frames dominate any stale copy of its history.
fn sealing_frame(session: u64, mut pipe: SessionPipeline, priority: Priority) -> SnapFrame {
    pipe.bump_epoch();
    SnapFrame {
        session,
        epoch: pipe.epoch(),
        applied: pipe.applied(),
        priority,
        blob: pipe.to_snapshot(),
    }
}

/// The one file-name → session-id scan: every session a `wal-*` or
/// `snap-*` file mentions. Other names (`node-epoch`) are ignored.
fn session_ids(files: &[String]) -> BTreeSet<u64> {
    files
        .iter()
        .filter_map(|name| {
            journal::parse_wal_name(name).or_else(|| store::parse_snap_name(name).map(|(s, _)| s))
        })
        .collect()
}

/// The one newest-valid-snapshot pick over generations 0 and 1. A
/// frame counts only if it decodes *and* its blob thaws; every other
/// frame goes to `quarantine` as `(file, offset, error)`. Returns the
/// winner with the pipeline thawed from it, so no blob thaws twice.
fn pick_snapshot<S: Storage>(
    storage: &mut S,
    session: u64,
    quarantine: &mut impl FnMut(String, u64, RecoveryError),
) -> Option<(SnapFrame, SessionPipeline)> {
    let mut best: Option<(SnapFrame, SessionPipeline)> = None;
    for generation in [0u8, 1u8] {
        let name = store::snap_name(session, generation);
        let Some(bytes) = storage.read(&name) else {
            continue;
        };
        match store::decode_frame(session, &bytes) {
            Ok(frame) => match SessionPipeline::from_snapshot(&frame.blob) {
                Ok(pipe) => {
                    if best.as_ref().is_none_or(|(b, _)| frame.newer_than(b)) {
                        best = Some((frame, pipe));
                    }
                }
                Err(_) => quarantine(name, 0, RecoveryError::BadSnapshot),
            },
            Err(err) => quarantine(name, 0, err),
        }
    }
    best
}

/// The one exact-prefix journal replay: applies `wal`'s records on
/// top of `pipe`, skipping what the pipeline already covers
/// (straddlers partially) and stopping at the first gap — nothing
/// after a lost record can be applied without breaking event order.
/// The scan itself stops at the first corruption. Returns the events
/// applied, the header's class, and the corruption with its offset.
fn replay(
    session: u64,
    wal: &[u8],
    pipe: &mut SessionPipeline,
) -> (u64, Option<Priority>, Option<(u64, RecoveryError)>) {
    let scan = journal::scan_wal(session, wal);
    let mut replayed = 0u64;
    for rec in scan.records {
        let end = rec.base_seq + rec.events.len() as u64;
        if end <= pipe.applied() {
            continue;
        }
        if rec.base_seq > pipe.applied() {
            break;
        }
        let skip = (pipe.applied() - rec.base_seq) as usize;
        for ev in &rec.events[skip..] {
            pipe.apply(ev);
            replayed += 1;
        }
    }
    (replayed, scan.priority, scan.quarantined)
}

/// The one priority rule: the snapshot frame's class, then the journal
/// header's (written at first admission), then the default — a
/// Critical session must not silently become sheddable across a crash
/// or a move.
fn sticky_priority(frame: Option<Priority>, wal: Option<Priority>) -> Priority {
    frame.or(wal).unwrap_or_default()
}

/// One session's durable state, packaged for migration to another
/// node. The fields are exactly the on-disk artifacts the recovery
/// scan consumes — the newest valid snapshot-store blob and the raw
/// `wal-*` file bytes — so [`DurableService::import_session`] restores
/// them with the recovery codecs unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionExport {
    /// The session exported.
    pub session: u64,
    /// Its sticky admission class (snapshot frame first, journal
    /// header as fallback — the recovery precedence).
    pub priority: Priority,
    /// The newest valid LTSE pipeline snapshot, or empty when the
    /// session has no durable snapshot yet.
    pub blob: Vec<u8>,
    /// The raw write-ahead journal file, or empty when rotated away.
    pub wal: Vec<u8>,
}

/// Why an import was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportError {
    /// The target already hosts this session; importing would fork its
    /// history.
    Resident {
        /// The colliding session id.
        session: u64,
    },
    /// The shipped snapshot blob did not thaw.
    BadSnapshot,
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Resident { session } => {
                write!(f, "session {session} is already resident")
            }
            ImportError::BadSnapshot => f.write_str("migrated snapshot blob did not thaw"),
        }
    }
}

impl std::error::Error for ImportError {}

/// One quarantined frame found during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedFrame {
    /// File the frame lived in.
    pub file: String,
    /// Byte offset of the frame within the file.
    pub offset: u64,
    /// Why it was rejected.
    pub error: RecoveryError,
}

/// What recovery restored for one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionRecovery {
    /// Events covered by the snapshot the session restarted from.
    pub snapshot_applied: u64,
    /// Journal events replayed on top of the snapshot.
    pub replayed: u64,
    /// Total events the recovered pipeline has applied
    /// (`snapshot_applied + replayed`) — the exact prefix length.
    pub recovered: u64,
    /// The session's epoch after recovery (bumped once per recovery).
    pub epoch: u64,
}

/// Everything a recovery pass observed.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Per-session recovery results, keyed by session id.
    pub sessions: BTreeMap<u64, SessionRecovery>,
    /// Every corrupt or torn frame, with its typed reason.
    pub quarantined: Vec<QuarantinedFrame>,
}

/// The node-level file holding the fencing epoch.
const EPOCH_FILE: &str = "node-epoch";
/// `"LTEP"`: the epoch file's magic.
const EPOCH_MAGIC: u32 = 0x4C54_4550;

/// Makes `epoch` the durable fencing epoch: `magic | epoch | crc32`,
/// atomically replaced and fsynced. `false` when either step failed —
/// the caller must not ack an epoch a restart could forget.
pub(crate) fn persist_epoch<S: Storage>(storage: &mut S, epoch: u64) -> bool {
    let mut bytes = Vec::with_capacity(16);
    bytes.extend_from_slice(&EPOCH_MAGIC.to_le_bytes());
    bytes.extend_from_slice(&epoch.to_le_bytes());
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    storage.write_atomic(EPOCH_FILE, &bytes) && storage.fsync()
}

/// Reads the durable fencing epoch back: 0 when no router ever adopted
/// the node, a typed error for a torn or corrupt file.
fn read_epoch<S: Storage>(storage: &mut S) -> Result<u64, RecoveryError> {
    let Some(bytes) = storage.read(EPOCH_FILE) else {
        return Ok(0);
    };
    if bytes.len() < 16 {
        return Err(RecoveryError::ShortHeader);
    }
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    if bytes.len() != 16 || word(0) != EPOCH_MAGIC {
        return Err(RecoveryError::BadHeader);
    }
    if crc32(&bytes[..12]) != word(12) {
        return Err(RecoveryError::BadFrameCrc);
    }
    Ok(u64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes")))
}

/// A [`Service`] whose sessions survive process death. See the module
/// docs for the design.
pub struct DurableService<S: Storage> {
    svc: Service,
    storage: S,
    dcfg: DurableConfig,
    sessions: BTreeMap<u64, DurState>,
    /// Journaled events not yet covered by a group-commit fsync.
    unsynced_events: u64,
    /// Journal files dirtied since the last group commit.
    dirty_files: u64,
    /// The service's scrub interval, kept for sessions imported
    /// without a snapshot (they start from a fresh pipeline).
    scrub_interval: u64,
    /// Sessions handed to another node by
    /// [`expel_session`](Self::expel_session): admission refuses them,
    /// maintenance skips them, and the drain outcome omits them —
    /// their history continues on the importer, and a second report
    /// here would double-count it at a cluster drain.
    expelled: BTreeSet<u64>,
    /// The durable fencing epoch: the highest router epoch persisted by
    /// [`persist_fencing_epoch`](Self::persist_fencing_epoch).
    fencing_epoch: u64,
}

impl<S: Storage> DurableService<S> {
    /// A fresh durable service over an empty (or to-be-overwritten)
    /// store.
    pub fn new(cfg: ServeConfig, dcfg: DurableConfig, plan: FaultPlan, storage: S) -> Self {
        Self {
            svc: Service::deterministic(cfg, plan),
            storage,
            dcfg: dcfg.sanitized(),
            sessions: BTreeMap::new(),
            unsynced_events: 0,
            dirty_files: 0,
            scrub_interval: cfg.scrub_interval,
            expelled: BTreeSet::new(),
            fencing_epoch: 0,
        }
    }

    /// Submits a batch at [`Priority::Normal`], journaling it if
    /// admitted. See [`submit_with_priority`](Self::submit_with_priority).
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] (and journals nothing) when admission
    /// control refuses the batch.
    pub fn submit(&mut self, session: u64, events: &[Event]) -> Result<(), Rejected> {
        self.submit_with_priority(session, events, Priority::Normal)
    }

    /// Submits a batch at an explicit admission class, journaling it if
    /// admitted. The journal append happens *after* admission so a
    /// rejected submit leaves no orphan records; a crash between
    /// admission and the group commit can lose at most the un-synced
    /// suffix, which the client re-submits after recovery. The class is
    /// sticky (first admission wins) and is persisted in the journal
    /// header and every snapshot frame, so recovery restores it.
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] (and journals nothing) when admission
    /// control refuses the batch — including [`Rejected::Shed`] under
    /// overload pressure.
    pub fn submit_with_priority(
        &mut self,
        session: u64,
        events: &[Event],
        priority: Priority,
    ) -> Result<(), Rejected> {
        // An expelled session's history continues on the node it moved
        // to; admitting here would fork it.
        if self.expelled.contains(&session) {
            return Err(Rejected::ShuttingDown);
        }
        // Encode the journal record *before* admission: a batch that
        // could never be made durable is refused with zero mutation —
        // no admission, no journal bytes, no counters.
        let frame = if events.is_empty() {
            None
        } else {
            let base_seq = self.sessions.get(&session).map_or(0, |s| s.journaled);
            match journal::encode_record(base_seq, events) {
                Ok(frame) => Some(frame),
                Err(journal::JournalError::RecordTooLarge { events, bytes }) => {
                    return Err(Rejected::BatchTooLarge { events, bytes });
                }
            }
        };
        self.svc.submit_with_priority(session, events, priority)?;
        let Some(frame) = frame else {
            return Ok(());
        };
        // The slot exists after a successful admission; its sticky
        // class (not this call's flag) is what must be persisted.
        let priority = self.svc.session_priority(session).unwrap_or(priority);
        let state = self.sessions.entry(session).or_default();
        if !state.needs_resync {
            match journal::append_frame(
                &mut self.storage,
                session,
                state.has_wal,
                priority,
                &frame,
            ) {
                Some(bytes) => {
                    state.has_wal = true;
                    self.unsynced_events += events.len() as u64;
                    self.dirty_files += 1;
                    latch_obs::counter_inc("serve.journal.appends");
                    latch_obs::emit("serve", TraceEvent::JournalAppend { session, bytes });
                }
                None => {
                    // The WAL now has a gap; stop journaling until the
                    // next durable snapshot covers it (maintenance
                    // clears the flag after rotating the file).
                    state.needs_resync = true;
                    latch_obs::counter_inc("serve.journal.append_failures");
                }
            }
        }
        // Admission succeeded, so the events count as journal progress
        // even when the bytes were lost: `journaled` tracks base_seq
        // against the *admitted* stream, and `needs_resync` prevents
        // any append from landing after a gap.
        state.journaled += events.len() as u64;
        if self.unsynced_events >= self.dcfg.group_commit_events {
            self.group_commit();
        }
        Ok(())
    }

    fn group_commit(&mut self) {
        if self.dirty_files == 0 {
            self.unsynced_events = 0;
            return;
        }
        let failed = !self.storage.fsync();
        if failed {
            latch_obs::counter_inc("serve.fsync.failures");
        }
        latch_obs::emit(
            "serve",
            TraceEvent::Fsync {
                files: self.dirty_files,
                failed,
            },
        );
        // Either way the batch window restarts: a failed sync's bytes
        // stay volatile and are retried by the next group commit
        // (fsync covers everything since the last *successful* sync).
        self.unsynced_events = 0;
        if !failed {
            self.dirty_files = 0;
        }
    }

    /// Drives the scheduler until idle, then runs durability
    /// maintenance: snapshots for every session that moved
    /// `snapshot_every` events past its last durable frame, one fsync,
    /// journal truncation for snapshots that cover them, and a group
    /// commit.
    pub fn pump(&mut self) {
        self.svc.pump();
        self.maintenance();
    }

    fn maintenance(&mut self) {
        let mut covered = Vec::new();
        for session in self.svc.session_ids() {
            // An expelled session's files are deleted; a snapshot here
            // would resurrect them (and stale state) on this node.
            if self.expelled.contains(&session) {
                continue;
            }
            let Some((applied, _epoch)) = self.svc.session_progress(session) else {
                continue;
            };
            let state = self.sessions.entry(session).or_default();
            let due = applied.saturating_sub(state.snapshotted) >= self.dcfg.snapshot_every
                || (state.needs_resync && applied >= state.journaled);
            if !due {
                continue;
            }
            let Some((applied, epoch, blob)) = self.svc.snapshot_session(session) else {
                continue;
            };
            let frame = SnapFrame {
                session,
                epoch,
                applied,
                priority: self.svc.session_priority(session).unwrap_or_default(),
                blob,
            };
            if state.write_snapshot(&mut self.storage, &frame, &mut covered) {
                self.dirty_files += 1;
                latch_obs::counter_inc("serve.snapshot.writes");
            }
        }
        self.rotate_covered(covered);
        self.group_commit();
    }

    /// Second half of the snapshot-then-rotate step: one fsync makes
    /// the pass's frames durable, and only then is every journal in
    /// `covered` truncated to a clean header. A failed sync rotates
    /// nothing — the journals stay whole beside frames that may not
    /// survive. A failed rotation leaves the stale journal standing, so
    /// appends stay refused until a later rotation lands.
    fn rotate_covered(&mut self, covered: Vec<(u64, Priority)>) {
        if covered.is_empty() {
            return;
        }
        if !self.storage.fsync() {
            latch_obs::counter_inc("serve.fsync.failures");
            return;
        }
        for (session, priority) in covered {
            let rotated = journal::rotate(&mut self.storage, session, priority);
            let state = self.sessions.get_mut(&session).expect("covered sessions have state");
            state.needs_resync = !rotated;
            state.has_wal |= rotated;
        }
    }

    /// Seals sessions restored here — recovery's and import's last
    /// step: each starts a fresh [`DurState`], the snapshot step writes
    /// its frame to generation 0 and rotates its journal clean, and the
    /// scheduler preloads it.
    fn seal(&mut self, frames: Vec<SnapFrame>) {
        let mut covered = Vec::new();
        for frame in &frames {
            // Appends stay refused until the seal rotates the journal
            // the session came from.
            let mut state = DurState {
                journaled: frame.applied,
                needs_resync: true,
                ..DurState::default()
            };
            state.write_snapshot(&mut self.storage, frame, &mut covered);
            self.sessions.insert(frame.session, state);
        }
        self.rotate_covered(covered);
        for f in frames {
            self.svc.preload_session(f.session, f.blob, f.applied, f.epoch, f.priority);
        }
    }

    /// Graceful drain: final maintenance pass, group commit, then the
    /// wrapped service's outcome plus the storage backend. Sessions
    /// expelled by [`expel_session`](Self::expel_session) are omitted
    /// — their importer reports them.
    pub fn finish(mut self) -> (ServiceOutcome, S) {
        self.pump();
        self.group_commit();
        let expelled = std::mem::take(&mut self.expelled);
        let mut outcome = self.svc.finish();
        outcome.sessions.retain(|s, _| !expelled.contains(s));
        (outcome, self.storage)
    }

    /// Simulates being killed: every in-memory structure is dropped on
    /// the floor and only the storage backend survives. Pair with
    /// [`MemStorage::crash_image`](crate::storage::MemStorage::crash_image)
    /// to model torn tails at a chosen operation boundary.
    pub fn crash(self) -> S {
        self.storage
    }

    /// Read-only view of the wrapped service.
    #[must_use]
    pub fn service(&self) -> &Service {
        &self.svc
    }

    /// Rebuilds a service from what survived in `storage`.
    ///
    /// The scan never panics on hostile bytes: every torn, bit-rotted,
    /// truncated, or otherwise malformed frame is quarantined with a
    /// typed [`RecoveryError`] in the report (and a `FrameQuarantined`
    /// trace event), and recovery proceeds with the next-best state —
    /// the other snapshot generation, a shorter journal prefix, or a
    /// fresh session.
    pub fn recover(
        cfg: ServeConfig,
        dcfg: DurableConfig,
        plan: FaultPlan,
        storage: S,
    ) -> (Self, RecoveryReport) {
        let files = storage.list();
        latch_obs::emit(
            "serve",
            TraceEvent::RecoveryStart {
                files: files.len() as u64,
            },
        );
        latch_obs::counter_inc("serve.recovery.runs");
        let mut durable = Self::new(cfg, dcfg, plan, storage);
        let mut report = RecoveryReport::default();
        let mut frames = Vec::new();
        for session in session_ids(&files) {
            let mut quarantine = |file: String, offset: u64, error: RecoveryError| {
                latch_obs::emit(
                    "serve",
                    TraceEvent::FrameQuarantined {
                        session,
                        offset,
                        reason: error.reason(),
                    },
                );
                latch_obs::counter_inc("serve.recovery.quarantined");
                report.quarantined.push(QuarantinedFrame {
                    file,
                    offset,
                    error,
                });
            };
            let (snapshot_applied, frame_priority, mut pipe) =
                match pick_snapshot(&mut durable.storage, session, &mut quarantine) {
                    Some((frame, pipe)) => (frame.applied, Some(frame.priority), pipe),
                    None => (0, None, SessionPipeline::new(cfg.scrub_interval)),
                };
            let wal = journal::wal_name(session);
            let (replayed, wal_priority, torn) = durable
                .storage
                .read(&wal)
                .map_or((0, None, None), |bytes| replay(session, &bytes, &mut pipe));
            if let Some((offset, err)) = torn {
                quarantine(wal, offset, err);
            }
            let priority = sticky_priority(frame_priority, wal_priority);
            let frame = sealing_frame(session, pipe, priority);
            report.sessions.insert(
                session,
                SessionRecovery {
                    snapshot_applied,
                    replayed,
                    recovered: frame.applied,
                    epoch: frame.epoch,
                },
            );
            frames.push(frame);
        }
        durable.seal(frames);
        durable.storage.fsync();
        // A torn or corrupt epoch file is quarantined like any frame;
        // the node then starts unfenced, exactly as before any adopt.
        durable.fencing_epoch = read_epoch(&mut durable.storage).unwrap_or_else(|error| {
            latch_obs::counter_inc("serve.recovery.quarantined");
            report.quarantined.push(QuarantinedFrame {
                file: EPOCH_FILE.to_string(),
                offset: 0,
                error,
            });
            0
        });
        (durable, report)
    }

    /// The durable fencing epoch: the highest router epoch this node
    /// persisted (0 when no router ever adopted it).
    #[must_use]
    pub fn fencing_epoch(&self) -> u64 {
        self.fencing_epoch
    }

    /// Persists `epoch` as the fencing epoch before it is acked — see
    /// the module docs. `false` (nothing changed in memory) when the
    /// write or its fsync failed.
    pub fn persist_fencing_epoch(&mut self, epoch: u64) -> bool {
        let ok = persist_epoch(&mut self.storage, epoch);
        if ok {
            self.fencing_epoch = epoch;
        }
        ok
    }

    /// The scrub interval every session pipeline here runs with —
    /// needed to thaw exports after this service is consumed.
    pub fn scrub_interval(&self) -> u64 {
        self.scrub_interval
    }

    /// Surveys every live (non-expelled) session at a quiescent point:
    /// `(session, applied, rank)` sorted by session id. Runs a full
    /// pump + group commit first so `applied` counts everything ever
    /// admitted — the state an adopting router rebuilds its routes
    /// from.
    pub fn survey_sessions(&mut self) -> Vec<(u64, u64, u8)> {
        self.pump();
        self.group_commit();
        let mut out = Vec::new();
        for session in self.svc.session_ids() {
            if self.expelled.contains(&session) {
                continue;
            }
            let Some((applied, _epoch)) = self.svc.session_progress(session) else {
                continue;
            };
            let rank = self
                .svc
                .session_priority(session)
                .unwrap_or_default()
                .rank();
            out.push((session, applied, rank));
        }
        out
    }

    /// Packages one session's durable state for migration. Runs a full
    /// pump + group commit first, so on a benign storage backend the
    /// export covers every admitted event (snapshot + journal suffix);
    /// under disk faults it covers the same exact prefix recovery
    /// would restore. `None` when the session left no files.
    pub fn export_session(&mut self, session: u64) -> Option<SessionExport> {
        self.pump();
        self.group_commit();
        export_session_from(&mut self.storage, session)
    }

    /// [`export_session`](Self::export_session) plus a one-way handoff:
    /// the session's durable files are deleted, later submits answer
    /// [`Rejected::ShuttingDown`], and the drain outcome omits it — the
    /// live-rebalance cut-point on the old owner. A resident session
    /// with no durable files yet (nothing ever admitted) exports empty
    /// state so the importer starts it fresh. `None` when this node
    /// never saw the session (nothing is marked).
    pub fn expel_session(&mut self, session: u64) -> Option<SessionExport> {
        let resident = self.svc.session_progress(session).is_some();
        let export = self.export_session(session);
        if export.is_none() && !resident {
            return None;
        }
        self.expelled.insert(session);
        self.sessions.remove(&session);
        self.storage.remove(&journal::wal_name(session));
        self.storage.remove(&store::snap_name(session, 0));
        self.storage.remove(&store::snap_name(session, 1));
        latch_obs::counter_inc("serve.repl.expels");
        Some(export.unwrap_or_else(|| SessionExport {
            session,
            priority: self.svc.session_priority(session).unwrap_or_default(),
            blob: Vec::new(),
            wal: Vec::new(),
        }))
    }

    /// Adopts a migrated session shipped by
    /// [`export_session`](Self::export_session) (possibly taken from a
    /// dead node's surviving storage via [`export_sessions`]): thaws
    /// the snapshot, replays the journal suffix through the recovery
    /// scan, bumps the epoch, seals a fresh durable snapshot + clean
    /// journal locally, and preloads the session into the scheduler.
    /// Returns the events the restored pipeline has applied — the
    /// exact prefix length the new owner now serves.
    ///
    /// # Errors
    ///
    /// [`ImportError::Resident`] when the session already lives here
    /// (importing would fork its history), [`ImportError::BadSnapshot`]
    /// when the blob does not thaw.
    pub fn import_session(
        &mut self,
        session: u64,
        priority: Priority,
        blob: &[u8],
        wal: &[u8],
    ) -> Result<u64, ImportError> {
        if self.svc.session_progress(session).is_some() {
            return Err(ImportError::Resident { session });
        }
        let pipe = thaw_export(session, self.scrub_interval, blob, wal)?;
        let frame = sealing_frame(session, pipe, priority);
        let applied = frame.applied;
        self.seal(vec![frame]);
        self.storage.fsync();
        latch_obs::counter_inc("serve.migrate.imports");
        Ok(applied)
    }
}

/// Restores a shipped [`SessionExport`] to a live pipeline: thaw the
/// LTSE blob (or start fresh when it is empty) and [`replay`] the WAL
/// suffix on top of it.
///
/// # Errors
///
/// [`ImportError::BadSnapshot`] when the blob does not thaw.
pub(crate) fn thaw_export(
    session: u64,
    scrub_interval: u64,
    blob: &[u8],
    wal: &[u8],
) -> Result<SessionPipeline, ImportError> {
    let mut pipe = if blob.is_empty() {
        SessionPipeline::new(scrub_interval)
    } else {
        SessionPipeline::from_snapshot(blob).map_err(|_| ImportError::BadSnapshot)?
    };
    replay(session, wal, &mut pipe);
    Ok(pipe)
}

/// Reads one session's durable artifacts straight off a storage
/// backend — the path used when the owning process is dead and only
/// its disk survives: the snapshot recovery would pick (quarantines
/// discarded) and the raw journal bytes. `None` when no file mentions
/// the session.
fn export_session_from<S: Storage>(storage: &mut S, session: u64) -> Option<SessionExport> {
    let best = pick_snapshot(storage, session, &mut |_, _, _| {});
    let wal = storage.read(&journal::wal_name(session));
    if best.is_none() && wal.is_none() {
        return None;
    }
    let wal_priority = wal.as_ref().and_then(|w| journal::scan_wal(session, w).priority);
    let (blob, frame_priority) = match best {
        Some((frame, _)) => (frame.blob, Some(frame.priority)),
        None => (Vec::new(), None),
    };
    Some(SessionExport {
        session,
        priority: sticky_priority(frame_priority, wal_priority),
        blob,
        wal: wal.unwrap_or_default(),
    })
}

/// [`DurableService::export_session`] off a dead node's storage, for
/// every session any file mentions, sorted by session id.
pub fn export_sessions<S: Storage>(storage: &mut S) -> Vec<SessionExport> {
    session_ids(&storage.list())
        .into_iter()
        .filter_map(|session| export_session_from(storage, session))
        .collect()
}
