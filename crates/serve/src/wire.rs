//! The network front door: a framed-protocol server over a
//! [`DurableService`].
//!
//! [`WireServer`] runs the shared [`latch_proto::transport`] server (one
//! listener, an accept loop on its own thread, one handler thread per
//! connection) and keeps only the message handlers. All connections
//! feed a single shared [`DurableService`] behind a mutex — the service
//! itself is the deterministic scheduler, so a single-connection run is
//! fully deterministic and multi-connection runs still yield
//! per-session reports byte-identical to solo runs of each admitted
//! stream.
//!
//! Protocol (see [`latch_proto`] for the frame layout):
//!
//! * **Handshake** — the first frame must be a `Hello` carrying the
//!   protocol magic and version; the server replies `HelloAck` with
//!   the granted in-flight window (the client's request clamped to
//!   the server cap). Anything else fails the connection closed.
//! * **Backpressure** — each connection tracks events submitted since
//!   the service last drained its queues; once the granted window
//!   fills, the handler pumps the service before replying, so one
//!   fast client cannot run the queue cap into every other
//!   connection's admission path.
//! * **Typed rejections** — every [`Rejected`] variant crosses the
//!   wire as a [`WireRejected`], including `Shed` (with priority and
//!   pressure) and `BatchTooLarge` (the journal-cap refusal).
//! * **Telemetry** — connections that set `want_slo` receive
//!   [`Msg::SloPush`] frames for every SLO cut, streamed after each
//!   reply via a per-connection cursor.
//! * **Heartbeats** — the transport answers `Ping` itself, and
//!   `NodeHello` is answered before the service lock is taken, so a
//!   batch parked in a slow fsync cannot make a live node miss its
//!   router's heartbeats.
//! * **Drain** — `Drain` takes the service, runs
//!   [`DurableService::finish`], stores every session's final report,
//!   and replies `Drained`. The reply is idempotent; later `Submit`s
//!   are rejected with `ShuttingDown`, and `Report` serves individual
//!   session reports. [`WireServer::wait_drained`] returns once the
//!   transport has written a `Drained` reply (or its write failed).
//! * **Hostile bytes** — a connection that sends garbage gets a typed
//!   `WireReject` trace event, a best-effort `Error` frame, and its
//!   socket closed. The accept loop and every other connection are
//!   unaffected — the fuzz tests in `latch-client` feed every
//!   truncation and bit flip through a real socket.

use crate::durable::DurableService;
use crate::overload::Priority;
use crate::storage::Storage;
use crate::{Rejected, ServiceOutcome};
use latch_obs::TraceEvent;
use latch_proto::transport::{Handler, Server};
use latch_proto::{error_code, Endpoint, Msg, WireRejected, WireSlo};
use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex};

/// Front-door tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct WireConfig {
    /// Cap on the per-connection in-flight window, in events. A
    /// client's `Hello` request is clamped into `[1, max_window]`.
    pub max_window_events: u32,
}

impl Default for WireConfig {
    fn default() -> Self {
        Self {
            max_window_events: 1 << 14,
        }
    }
}

/// What a drain left behind: per-session `(applied, report bytes)` and
/// the final SLO report stream.
struct Drained {
    reports: BTreeMap<u64, (u64, Vec<u8>)>,
    slo: Vec<WireSlo>,
}

/// Shared server state: the service until drain, the drained reports
/// after.
struct State<S: Storage> {
    svc: Option<DurableService<S>>,
    drained: Option<Drained>,
    /// Storage handed back by the drain (tests inspect it).
    storage: Option<S>,
    /// Captured at start so post-drain migrations can thaw exports.
    scrub_interval: u64,
    /// Backup journals for sessions this node replicates but does not
    /// own, fed by `ReplFrame` and served back by `ReplFetch`.
    replicas: latch_replica::ReplicaStore,
    /// Highest router epoch ever adopted on this node, persisted before
    /// it is acked and recovered on restart. Commands from a connection
    /// whose adopted epoch has since been superseded are refused with a
    /// typed `StaleRouter` — the fencing that stops a zombie primary
    /// from double-applying after takeover.
    max_epoch: u64,
}

impl<S: Storage> State<S> {
    /// Persists a raised fencing epoch through the service or, after a
    /// drain, the storage it handed back.
    fn persist_epoch(&mut self, epoch: u64) -> bool {
        match (self.svc.as_mut(), self.storage.as_mut()) {
            (Some(svc), _) => svc.persist_fencing_epoch(epoch),
            (None, Some(storage)) => crate::durable::persist_epoch(storage, epoch),
            (None, None) => false,
        }
    }
}

struct Shared<S: Storage> {
    state: Mutex<State<S>>,
}

/// A running network front door. Dropping the server (or calling
/// [`shutdown`](Self::shutdown)) stops the accept loop; an undrained
/// service is dropped with it, so callers that care about the outcome
/// drain through a client first.
pub struct WireServer<S: Storage + Send + 'static> {
    shared: Arc<Shared<S>>,
    server: Server,
}

impl<S: Storage + Send + 'static> WireServer<S> {
    /// Binds `endpoint` and starts the accept loop over `svc`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (`io::Error`) — address in use,
    /// missing socket directory, and so on.
    pub fn start(
        endpoint: &Endpoint,
        svc: DurableService<S>,
        cfg: WireConfig,
    ) -> io::Result<Self> {
        let scrub_interval = svc.scrub_interval();
        let max_epoch = svc.fencing_epoch();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                svc: Some(svc),
                drained: None,
                storage: None,
                scrub_interval,
                replicas: latch_replica::ReplicaStore::new(),
                max_epoch,
            }),
        });
        let server = Server::start(endpoint, cfg.max_window_events, Arc::clone(&shared))?;
        Ok(Self { shared, server })
    }

    /// The endpoint actually bound — for `tcp:HOST:0` this carries the
    /// kernel-assigned port.
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        self.server.endpoint()
    }

    /// The bound TCP socket address (`None` on a Unix listener).
    /// Loopback tests bind `tcp:127.0.0.1:0` and read the
    /// kernel-assigned port back from here, so parallel test runs
    /// never collide on a fixed port.
    #[must_use]
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.local_addr()
    }

    /// Blocks until a client has drained the service and the `Drained`
    /// reply has been written to it (or the write failed) — the point
    /// after which a daemon may exit without losing the reply.
    pub fn wait_drained(&self) {
        self.server.wait_drained();
    }

    /// Stops the accept loop, joins it, and returns the storage backend
    /// if a drain completed (`None` when never drained).
    pub fn shutdown(mut self) -> Option<S> {
        self.server.stop();
        self.shared.state.lock().expect("server state").storage.take()
    }

    /// Models the node process dying: stops the listener, lets every
    /// handler thread close its socket at the next poll, and hands
    /// back the *undrained* service (`None` when already drained).
    /// Callers crash the returned service to get the surviving storage
    /// — the disk a router exports failed-over sessions from.
    pub fn kill(mut self) -> Option<DurableService<S>> {
        self.server.stop();
        self.shared.state.lock().expect("server state").svc.take()
    }
}

fn wire_rejected(r: &Rejected) -> (WireRejected, &'static str) {
    match *r {
        Rejected::QueueFull { pending, capacity } => (
            WireRejected::QueueFull {
                pending: pending as u64,
                capacity: capacity as u64,
            },
            "queue_full",
        ),
        Rejected::SessionBusy {
            session,
            pending,
            cap,
        } => (
            WireRejected::SessionBusy {
                session,
                pending: pending as u64,
                cap: cap as u64,
            },
            "session_busy",
        ),
        Rejected::ShuttingDown => (WireRejected::ShuttingDown, "shutting_down"),
        Rejected::Shed {
            session,
            priority,
            pressure,
        } => (
            WireRejected::Shed {
                session,
                priority: priority.rank(),
                pressure,
            },
            "shed",
        ),
        Rejected::BatchTooLarge { events, bytes } => {
            (WireRejected::TooLarge { events, bytes }, "batch_too_large")
        }
    }
}

fn wire_slo(r: &crate::overload::SloReport) -> WireSlo {
    WireSlo {
        at_batch: r.at_batch,
        samples: r.samples,
        p50_cycles: r.p50_cycles,
        p99_cycles: r.p99_cycles,
        breach: r.breach,
        pressure: r.pressure,
        shed_events: r.shed_events,
        degraded: r.degraded,
    }
}

fn drained_from(outcome: &ServiceOutcome) -> Drained {
    Drained {
        reports: outcome
            .sessions
            .iter()
            .map(|(&s, r)| (s, (r.events, r.encode())))
            .collect(),
        slo: outcome.slo_reports.iter().map(wire_slo).collect(),
    }
}

/// Per-connection state: the granted window, admission accounting,
/// the SLO push cursor, and staged migrations.
struct ConnState {
    window: u32,
    want_slo: bool,
    outstanding: u64,
    admitted: u64,
    slo_cursor: usize,
    /// Session → (LTSE blob, WAL suffix) staged by `MigrateChunk`
    /// frames, imported by the committing `MigrateSession`.
    migrations: BTreeMap<u64, (Vec<u8>, Vec<u8>)>,
    /// The router epoch this connection last claimed via `Adopt`.
    /// `None` for direct client connections, which stay unfenced.
    epoch: Option<u64>,
}

fn wire_reject(conn: u64, reason: &'static str) {
    latch_obs::counter_inc("serve.wire.rejects");
    latch_obs::emit("serve", TraceEvent::WireReject { conn, reason });
}

impl<S: Storage + Send + 'static> Handler for Shared<S> {
    type Conn = ConnState;

    fn opened(&self, conn: u64) {
        latch_obs::counter_inc("serve.wire.conns");
        latch_obs::emit("serve", TraceEvent::ConnOpen { conn });
    }

    fn hello(&self, window: u32, want_slo: bool) -> ConnState {
        ConnState {
            window,
            want_slo,
            outstanding: 0,
            admitted: 0,
            slo_cursor: 0,
            migrations: BTreeMap::new(),
            epoch: None,
        }
    }

    fn handle(&self, conn: u64, cs: &mut ConnState, msg: Msg) -> Vec<Msg> {
        // A router's hello touches no server state, so it is answered
        // without the lock, like the `Ping` heartbeats the transport
        // answers: a batch parked in a slow fsync must not make a live
        // node miss its router's heartbeats.
        match msg {
            Msg::NodeHello { node: _, token } => {
                latch_obs::counter_inc("serve.wire.node_hellos");
                vec![Msg::Pong { token }]
            }
            msg => process_msg(msg, conn, cs, self),
        }
    }

    fn rejected(&self, conn: u64, reason: &'static str) {
        wire_reject(conn, reason);
    }

    fn closed(&self, conn: u64, frames: u64) {
        latch_obs::emit("serve", TraceEvent::ConnClose { conn, frames });
    }
}

fn process_msg<S: Storage>(
    msg: Msg,
    conn_id: u64,
    cs: &mut ConnState,
    shared: &Shared<S>,
) -> Vec<Msg> {
    let mut st = shared.state.lock().expect("server state");
    let mut replies = Vec::with_capacity(1);
    // Epoch fencing: once a newer router has adopted this node, every
    // mutating command from an older-epoch connection answers the
    // node's high-water mark and touches nothing — a zombie primary
    // can never double-apply a batch after takeover. Connections that
    // never adopted (direct clients) stay unfenced.
    if let Some(epoch) = cs.epoch {
        let fenced = matches!(
            msg,
            Msg::Submit { .. }
                | Msg::Drain
                | Msg::MigrateSession { .. }
                | Msg::MigrateChunk { .. }
                | Msg::ReplFrame { .. }
                | Msg::ReplFetch { .. }
        );
        if fenced && epoch < st.max_epoch {
            latch_obs::counter_inc("serve.wire.stale_routers");
            latch_obs::emit(
                "serve",
                TraceEvent::StaleRouter {
                    conn: conn_id,
                    epoch,
                    max_epoch: st.max_epoch,
                },
            );
            replies.push(Msg::StaleRouter { epoch: st.max_epoch });
            return replies;
        }
    }
    match msg {
        Msg::Submit {
            session,
            priority,
            events,
        } => {
            let n = events.len() as u64;
            let priority = Priority::from_rank(priority).unwrap_or_default();
            match st.svc.as_mut() {
                Some(svc) => match svc.submit_with_priority(session, &events, priority) {
                    Ok(()) => {
                        cs.admitted += n;
                        cs.outstanding += n;
                        if cs.outstanding >= u64::from(cs.window) {
                            svc.pump();
                            cs.outstanding = 0;
                        }
                        replies.push(Msg::SubmitOk {
                            session,
                            admitted: cs.admitted,
                        });
                    }
                    Err(rej) => {
                        // Backpressure must guarantee progress: with
                        // every connection under its window and the
                        // queue full, nobody would ever pump. Drain
                        // the queue before replying so the client's
                        // retry can land.
                        if matches!(
                            rej,
                            Rejected::QueueFull { .. } | Rejected::SessionBusy { .. }
                        ) {
                            svc.pump();
                            cs.outstanding = 0;
                        }
                        let (wire, reason) = wire_rejected(&rej);
                        wire_reject(conn_id, reason);
                        replies.push(Msg::SubmitRejected {
                            session,
                            rejected: wire,
                        });
                    }
                },
                None => {
                    replies.push(Msg::SubmitRejected {
                        session,
                        rejected: WireRejected::ShuttingDown,
                    });
                }
            }
        }
        Msg::Drain => {
            if let Some(svc) = st.svc.take() {
                let (outcome, storage) = svc.finish();
                st.storage = Some(storage);
                st.drained = Some(drained_from(&outcome));
            }
            match st.drained.as_ref() {
                Some(d) => replies.push(Msg::Drained {
                    reports: d
                        .reports
                        .iter()
                        .map(|(&s, (_, bytes))| (s, bytes.clone()))
                        .collect(),
                }),
                // Only reachable on a killed server: the service was
                // taken by `kill()` without leaving a drained state.
                None => replies.push(Msg::Error {
                    code: error_code::PROTOCOL,
                }),
            }
        }
        Msg::Report { session } => match st.drained.as_ref() {
            None => replies.push(Msg::Error {
                code: error_code::NOT_DRAINED,
            }),
            Some(d) => match d.reports.get(&session) {
                Some((applied, bytes)) => replies.push(Msg::ReportData {
                    session,
                    applied: *applied,
                    report: bytes.clone(),
                }),
                None => replies.push(Msg::Error {
                    code: error_code::PROTOCOL,
                }),
            },
        },
        Msg::Adopt { epoch, router: _ } => {
            if epoch > st.max_epoch && !st.persist_epoch(epoch) {
                // A fence a restart would forget is no fence: refuse the
                // adoption rather than ack it.
                wire_reject(conn_id, "epoch_not_durable");
                replies.push(Msg::Error {
                    code: error_code::STORAGE,
                });
            } else if epoch >= st.max_epoch {
                st.max_epoch = epoch;
                cs.epoch = Some(epoch);
                latch_obs::counter_inc("serve.wire.adoptions");
                // Survey at a quiescent point: after the pump inside
                // `survey_sessions`, applied counts everything ever
                // admitted, so the adopting router's rebuilt routes
                // carry exact cursors (admitted == applied).
                let sessions = match st.svc.as_mut() {
                    Some(svc) => svc
                        .survey_sessions()
                        .into_iter()
                        .map(|(s, applied, rank)| (s, applied, applied, rank))
                        .collect(),
                    None => Vec::new(),
                };
                replies.push(Msg::AdoptAck {
                    epoch: st.max_epoch,
                    sessions,
                });
            } else {
                // Belt and braces: remember the stale claim so even a
                // command racing past this reply is fenced.
                cs.epoch = Some(epoch);
                latch_obs::counter_inc("serve.wire.stale_routers");
                latch_obs::emit(
                    "serve",
                    TraceEvent::StaleRouter {
                        conn: conn_id,
                        epoch,
                        max_epoch: st.max_epoch,
                    },
                );
                replies.push(Msg::StaleRouter { epoch: st.max_epoch });
            }
        }
        Msg::SurveyReplicas => {
            let entries: Vec<(u64, u8, u64, u64)> = st
                .replicas
                .sessions()
                .filter_map(|s| {
                    st.replicas
                        .get(s)
                        .map(|j| (s, j.rank, j.journaled, j.wal.len() as u64))
                })
                .collect();
            replies.push(Msg::ReplicaSurvey { entries });
        }
        Msg::MigrateChunk {
            session,
            kind,
            bytes: _,
        } if kind == latch_proto::migrate_chunk::RESTART => {
            // Abort: discard everything staged for the session so the
            // sender can restart the stage on this same connection.
            cs.migrations.remove(&session);
            replies.push(Msg::MigrateChunkAck {
                session,
                received: 0,
            });
        }
        Msg::MigrateChunk {
            session,
            kind,
            bytes,
        } => {
            let staged = cs.migrations.entry(session).or_default();
            if kind == latch_proto::migrate_chunk::LTSE_BLOB {
                staged.0.extend_from_slice(&bytes);
            } else {
                staged.1.extend_from_slice(&bytes);
            }
            let received = (staged.0.len() + staged.1.len()) as u64;
            if received > latch_proto::MAX_MIGRATION_BYTES as u64 {
                // Past the staging cap: drop the session's buffers so a
                // runaway sender cannot hold the memory open.
                cs.migrations.remove(&session);
                wire_reject(conn_id, "migration_too_large");
                replies.push(Msg::Error {
                    code: error_code::PROTOCOL,
                });
            } else {
                replies.push(Msg::MigrateChunkAck { session, received });
            }
        }
        Msg::MigrateSession { session, priority } => {
            // Commit whatever this connection staged for the session;
            // nothing staged imports a fresh session.
            let (ltse_blob, wal_suffix) = cs.migrations.remove(&session).unwrap_or_default();
            let priority = Priority::from_rank(priority).unwrap_or_default();
            let scrub_interval = st.scrub_interval;
            let imported = match st.svc.as_mut() {
                Some(svc) => svc
                    .import_session(session, priority, &ltse_blob, &wal_suffix)
                    .ok(),
                // The service is already consumed. If it left a clean
                // drained state, the node still accepts the migration:
                // a failover discovered mid-cluster-drain lands here,
                // after this node's own drain was taken. Thaw the
                // export and fold the session's report into the
                // drained cache — the victim's directory keeps the
                // durable copy, this node only answers for the bytes.
                None => match st.drained.as_mut() {
                    Some(d) if !d.reports.contains_key(&session) => {
                        crate::durable::thaw_export(session, scrub_interval, &ltse_blob, &wal_suffix)
                        .ok()
                        .map(|pipe| {
                            let applied = pipe.applied();
                            d.reports.insert(session, (applied, pipe.report().encode()));
                            latch_obs::counter_inc("serve.migrate.imports");
                            applied
                        })
                    }
                    _ => None,
                },
            };
            match imported {
                Some(applied) => replies.push(Msg::MigrateAck { session, applied }),
                None => {
                    wire_reject(conn_id, "migrate_refused");
                    replies.push(Msg::Error {
                        code: error_code::PROTOCOL,
                    });
                }
            }
        }
        Msg::ReplFrame {
            session,
            rank,
            reset,
            wal_off,
            journaled,
            blob,
            wal,
        } => {
            latch_obs::counter_inc("serve.repl.frames");
            let reply = match st.replicas.apply(session, rank, reset, wal_off, journaled, &blob, &wal)
            {
                Ok(journaled) => {
                    let wal_len = st
                        .replicas
                        .get(session)
                        .map_or(0, |j| j.wal.len() as u64);
                    Msg::ReplAck {
                        session,
                        ok: true,
                        journaled,
                        wal_len,
                    }
                }
                Err(_) => {
                    // Lagging (gap / unseeded / stale): the journal kept
                    // its last consistent prefix; report the cursors so
                    // the router reseeds from scratch.
                    latch_obs::counter_inc("serve.repl.lag");
                    let (journaled, wal_len) = st
                        .replicas
                        .get(session)
                        .map_or((0, 0), |j| (j.journaled, j.wal.len() as u64));
                    Msg::ReplAck {
                        session,
                        ok: false,
                        journaled,
                        wal_len,
                    }
                }
            };
            replies.push(reply);
        }
        Msg::ReplFetch { session, expel } => {
            latch_obs::counter_inc("serve.repl.fetches");
            // Leave headroom for the ReplState frame's fixed fields.
            let budget = latch_proto::MAX_FRAME_PAYLOAD - 64;
            // A live owner answers (and on expel, gives up) the
            // session; a pure backup answers from its journal.
            let live = st
                .svc
                .as_mut()
                .map(|svc| {
                    // Preview before answering (and before any expel):
                    // an over-budget state must refuse with the typed
                    // error — never delete anything on the cut path,
                    // and never build a ReplState whose encode kills
                    // the connection on the pre-copy path.
                    match svc.export_session(session) {
                        Some(e) if e.blob.len() + e.wal.len() > budget => Err(()),
                        export => Ok(if expel {
                            svc.expel_session(session)
                        } else {
                            export
                        }),
                    }
                })
                .unwrap_or(Ok(None));
            let reply = match live {
                Err(()) => None,
                Ok(Some(export)) => {
                    let journaled = st
                        .svc
                        .as_ref()
                        .and_then(|svc| svc.service().session_progress(session))
                        .map_or(0, |(applied, _)| applied);
                    Some(Msg::ReplState {
                        session,
                        found: true,
                        rank: export.priority.rank(),
                        journaled,
                        blob: export.blob,
                        wal: export.wal,
                    })
                }
                Ok(None) => match st.replicas.get(session) {
                    Some(j) if j.blob.len() + j.wal.len() > budget => None,
                    Some(j) => {
                        let msg = Msg::ReplState {
                            session,
                            found: true,
                            rank: j.rank,
                            journaled: j.journaled,
                            blob: j.blob.clone(),
                            wal: j.wal.clone(),
                        };
                        if expel {
                            st.replicas.remove(session);
                        }
                        Some(msg)
                    }
                    None => Some(Msg::ReplState {
                        session,
                        found: false,
                        rank: 0,
                        journaled: 0,
                        blob: Vec::new(),
                        wal: Vec::new(),
                    }),
                },
            };
            match reply {
                Some(msg) => replies.push(msg),
                None => {
                    wire_reject(conn_id, "repl_state_too_large");
                    replies.push(Msg::Error {
                        code: error_code::PROTOCOL,
                    });
                }
            }
        }
        // The transport answers `Ping`; `handle` answers `NodeHello`
        // before the lock.
        Msg::Ping { .. } | Msg::NodeHello { .. } => unreachable!("heartbeat reached the lock"),
        // Client-only or duplicate-handshake messages: a protocol
        // violation, answered without killing the connection (the
        // frame itself was well-formed).
        Msg::Hello { .. }
        | Msg::HelloAck { .. }
        | Msg::SubmitOk { .. }
        | Msg::SubmitRejected { .. }
        | Msg::ReportData { .. }
        | Msg::SloPush(_)
        | Msg::Drained { .. }
        | Msg::Pong { .. }
        | Msg::MigrateAck { .. }
        | Msg::MigrateChunkAck { .. }
        | Msg::ReplAck { .. }
        | Msg::ReplState { .. }
        | Msg::AdoptAck { .. }
        | Msg::ReplicaSurvey { .. }
        | Msg::StaleRouter { .. }
        | Msg::SessionCursor { .. }
        | Msg::CursorAck { .. }
        | Msg::Error { .. } => {
            wire_reject(conn_id, "unexpected_message");
            replies.push(Msg::Error {
                code: error_code::PROTOCOL,
            });
        }
    }
    // Stream the SLO cuts this connection has not seen yet: from the
    // live service, or from the final drained stream.
    if cs.want_slo {
        let before = replies.len();
        if let Some(svc) = st.svc.as_ref() {
            let unseen = &svc.service().slo_reports()[cs.slo_cursor..];
            replies.extend(unseen.iter().map(|r| Msg::SloPush(wire_slo(r))));
        } else if let Some(d) = st.drained.as_ref() {
            replies.extend(d.slo[cs.slo_cursor..].iter().copied().map(Msg::SloPush));
        }
        cs.slo_cursor += replies.len() - before;
    }
    replies
}
