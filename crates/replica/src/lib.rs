//! Session replication primitives.
//!
//! A replica group is the first R distinct owners of a session on the
//! seeded ring. The primary (the route owner) journals every admitted
//! batch to its own WAL, and the router pushes the same encoded WAL
//! record bytes to each backup *before* acking the client. Each backup
//! keeps a [`ReplicaJournal`]: the session's snapshot blob plus a WAL
//! byte buffer that is, by construction, a byte-prefix of the primary's
//! logical (rotation-free) WAL stream. On failover the freshest backup
//! journal feeds the ordinary §13 recovery scan, so losing a machine
//! *and its disk* loses nothing that was ever acked.
//!
//! The journal speaks byte offsets, not record indices: an append frame
//! names the exact `wal_off` its bytes belong at, so oversized records
//! or reseeds can be split at arbitrary byte boundaries and a torn tail
//! (failover between chunks) degrades to exactly what the recovery scan
//! already tolerates — a quarantined partial record and an exact-prefix
//! restore. The `journaled` event counter carried alongside is the
//! events covered by the buffer *up to the last record boundary*.
//!
//! This crate is deliberately dependency-light (only `latch-obs`): the
//! wire frames live in `latch-proto`, the WAL codec in `latch-serve`,
//! and the placement/push logic in `latch-router`. Here live the pure
//! journal state machine and its typed error surface, which is what the
//! byte-prefix property is proved against.

use std::collections::BTreeMap;

use latch_obs::counter_inc;

/// Typed replication failures. `Gap` and `Unseeded` are the lag errors
/// the router reacts to by reseeding the backup with a fresh `reset`
/// frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaError {
    /// An append frame's `wal_off` did not match the backup's buffer
    /// length: the backup missed (or already has) some bytes.
    Gap { session: u64, expected: u64, got: u64 },
    /// A frame would move the journaled event counter backwards — an
    /// out-of-order or replayed push.
    Stale { session: u64, have: u64, got: u64 },
    /// An append frame arrived for a session this store has never been
    /// seeded for: without the initial `reset` the buffer would lack
    /// the WAL header and could never pass a recovery scan.
    Unseeded { session: u64 },
}

impl ReplicaError {
    /// Short stable identifier, used in counters and error frames.
    pub fn reason(&self) -> &'static str {
        match self {
            ReplicaError::Gap { .. } => "gap",
            ReplicaError::Stale { .. } => "stale",
            ReplicaError::Unseeded { .. } => "unseeded",
        }
    }
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Gap { session, expected, got } => write!(
                f,
                "replica gap on session {session:#x}: buffer at byte {expected}, frame at {got}"
            ),
            ReplicaError::Stale { session, have, got } => write!(
                f,
                "stale replica frame on session {session:#x}: journaled {have} events, frame covers {got}"
            ),
            ReplicaError::Unseeded { session } => {
                write!(f, "append to unseeded replica journal for session {session:#x}")
            }
        }
    }
}

impl std::error::Error for ReplicaError {}

/// One session's backup state: a snapshot blob plus the WAL bytes that
/// follow it. `wal` always starts with the primary's WAL header and is
/// a byte-prefix of the primary's logical (rotation-free) WAL stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaJournal {
    pub session: u64,
    /// Sticky priority rank, carried so a diskless import preserves the
    /// session's class.
    pub rank: u8,
    /// Events covered by `blob` + `wal` up to the last complete record
    /// — the exact prefix a recovery scan of this journal restores.
    pub journaled: u64,
    /// LTSE snapshot blob the WAL bytes replay on top of (may be empty
    /// when the whole history lives in `wal`).
    pub blob: Vec<u8>,
    /// WAL header + record bytes, append-only between resets.
    pub wal: Vec<u8>,
}

impl ReplicaJournal {
    /// Apply one replication frame.
    ///
    /// * `reset = true` replaces the journal wholesale: `blob`/`wal`
    ///   are the full state so far and `journaled` the events covered.
    /// * `reset = false` appends bytes at `wal_off`, which must equal
    ///   the current buffer length (else [`ReplicaError::Gap`]); the
    ///   new `journaled` must not regress (else [`ReplicaError::Stale`]).
    ///
    /// On error the journal is untouched, so a lagging backup keeps its
    /// last consistent prefix until the router reseeds it.
    pub fn apply(
        &mut self,
        rank: u8,
        reset: bool,
        wal_off: u64,
        journaled: u64,
        blob: &[u8],
        wal: &[u8],
    ) -> Result<u64, ReplicaError> {
        if reset {
            self.rank = rank;
            self.journaled = journaled;
            self.blob = blob.to_vec();
            self.wal = wal.to_vec();
            counter_inc("replica.resets");
            return Ok(self.journaled);
        }
        if wal_off != self.wal.len() as u64 {
            counter_inc("replica.gaps");
            return Err(ReplicaError::Gap {
                session: self.session,
                expected: self.wal.len() as u64,
                got: wal_off,
            });
        }
        if journaled < self.journaled {
            counter_inc("replica.stale");
            return Err(ReplicaError::Stale {
                session: self.session,
                have: self.journaled,
                got: journaled,
            });
        }
        self.rank = rank;
        self.wal.extend_from_slice(wal);
        self.journaled = journaled;
        counter_inc("replica.frames");
        Ok(self.journaled)
    }
}

/// All backup journals held by one node, keyed by session. `BTreeMap`
/// so iteration (and thus any derived history) is deterministic.
#[derive(Debug, Default)]
pub struct ReplicaStore {
    sessions: BTreeMap<u64, ReplicaJournal>,
}

impl ReplicaStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply a replication frame, creating the journal on the first
    /// `reset`. Appends to a session this store has never been seeded
    /// for answer [`ReplicaError::Unseeded`] so the router re-seeds.
    // The parameter list mirrors the ReplFrame wire fields one-to-one;
    // bundling them into a struct would only restate the frame type.
    #[allow(clippy::too_many_arguments)]
    pub fn apply(
        &mut self,
        session: u64,
        rank: u8,
        reset: bool,
        wal_off: u64,
        journaled: u64,
        blob: &[u8],
        wal: &[u8],
    ) -> Result<u64, ReplicaError> {
        if !reset && !self.sessions.contains_key(&session) {
            counter_inc("replica.unseeded");
            return Err(ReplicaError::Unseeded { session });
        }
        let journal = self.sessions.entry(session).or_insert_with(|| ReplicaJournal {
            session,
            rank,
            journaled: 0,
            blob: Vec::new(),
            wal: Vec::new(),
        });
        journal.apply(rank, reset, wal_off, journaled, blob, wal)
    }

    pub fn get(&self, session: u64) -> Option<&ReplicaJournal> {
        self.sessions.get(&session)
    }

    pub fn remove(&mut self, session: u64) -> Option<ReplicaJournal> {
        self.sessions.remove(&session)
    }

    pub fn sessions(&self) -> impl Iterator<Item = u64> + '_ {
        self.sessions.keys().copied()
    }

    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_store_rejects_append() {
        let mut store = ReplicaStore::new();
        let err = store.apply(7, 0, false, 0, 4, &[], b"rec").unwrap_err();
        assert_eq!(err, ReplicaError::Unseeded { session: 7 });
        assert!(store.is_empty(), "failed first contact must not leave a placeholder");
    }

    #[test]
    fn reset_then_appends_build_prefix() {
        let mut store = ReplicaStore::new();
        store.apply(9, 1, true, 0, 2, b"BLOB", b"HDR|r0|r1").unwrap();
        store.apply(9, 1, false, 9, 3, &[], b"|r2").unwrap();
        store.apply(9, 1, false, 12, 5, &[], b"|r3r4").unwrap();
        let j = store.get(9).unwrap();
        assert_eq!(j.journaled, 5);
        assert_eq!(j.blob, b"BLOB");
        assert_eq!(j.wal, b"HDR|r0|r1|r2|r3r4");
        assert_eq!(j.rank, 1);
    }

    #[test]
    fn mid_record_chunks_keep_journaled_at_boundary() {
        let mut store = ReplicaStore::new();
        store.apply(2, 0, true, 0, 0, &[], b"HDR").unwrap();
        // One logical record split across two byte chunks: the first
        // half keeps the boundary count, the second half advances it.
        store.apply(2, 0, false, 3, 0, &[], b"|half-a").unwrap();
        store.apply(2, 0, false, 10, 6, &[], b"|half-b").unwrap();
        let j = store.get(2).unwrap();
        assert_eq!(j.journaled, 6);
        assert_eq!(j.wal, b"HDR|half-a|half-b");
    }

    #[test]
    fn gap_and_stale_leave_journal_untouched() {
        let mut store = ReplicaStore::new();
        store.apply(3, 0, true, 0, 4, b"B", b"WAL4").unwrap();
        let before = store.get(3).unwrap().clone();
        assert_eq!(
            store.apply(3, 0, false, 9, 8, &[], b"x"),
            Err(ReplicaError::Gap { session: 3, expected: 4, got: 9 })
        );
        assert_eq!(
            store.apply(3, 0, false, 4, 2, &[], b"x"),
            Err(ReplicaError::Stale { session: 3, have: 4, got: 2 })
        );
        assert_eq!(store.get(3).unwrap(), &before);
    }

    #[test]
    fn reset_replaces_wholesale() {
        let mut store = ReplicaStore::new();
        store.apply(5, 0, true, 0, 2, b"A", b"W1").unwrap();
        store.apply(5, 2, true, 0, 9, b"B", b"W2").unwrap();
        let j = store.get(5).unwrap();
        assert_eq!((j.journaled, j.rank), (9, 2));
        assert_eq!((j.blob.as_slice(), j.wal.as_slice()), (&b"B"[..], &b"W2"[..]));
    }
}
