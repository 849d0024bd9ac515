//! The three workloads and the seeded inputs each one sends.
//!
//! Inputs are generated before any clock starts: a session's events
//! depend only on the run seed and the session id, and the batch order
//! on each connection is fixed (round-robin over the connection's
//! sessions, one batch per turn).

use latch_sim::event::{Event, EventSource};
use latch_workloads::BenchmarkProfile;

/// One workload: one `latchd`, connections, batch shape and session mix.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// `latchd --slo-cycles N`, or the default (SLO off).
    pub slo_cycles: Option<u64>,
    /// Closed-loop client connections.
    pub conns: usize,
    /// Whether connections ask for SLO push frames in their `Hello`.
    pub want_slo: bool,
    /// Events per `Submit`.
    pub batch: usize,
    /// In-flight window each connection requests in its `Hello`.
    pub window: u32,
    sessions: u64,
    profiles: &'static [&'static str],
    events_per_session: u64,
    /// Priority rank per session, cycled by session id.
    ranks: &'static [u8],
}

pub const WORKLOADS: [Spec; 3] = [
    // Per-request cost dominates: many low-taint sessions, more than
    // latchd's 64-session resident cap, so LRU eviction and thaw run.
    Spec {
        name: "front_door",
        slo_cycles: None,
        conns: 2,
        want_slo: false,
        batch: 64,
        window: 4096,
        sessions: 96,
        profiles: &["gcc", "bzip2", "mySQL", "apache-75"],
        events_per_session: 1536,
        ranks: &[1],
    },
    // Precise DIFT, clear-scans and durable snapshots dominate: a few
    // long, taint-heavy sessions in larger batches.
    Spec {
        name: "taint_dense",
        slo_cycles: None,
        conns: 2,
        want_slo: false,
        batch: 256,
        window: 4096,
        sessions: 4,
        profiles: &["astar", "sphinx", "soplex", "astar"],
        events_per_session: 24_576,
        ranks: &[1],
    },
    // The only workload that runs the overload policy (SLO cuts,
    // shedding, demotion) and the reply-then-push write path. One
    // connection keeps the shed set deterministic.
    Spec {
        name: "slo_telemetry",
        slo_cycles: Some(250),
        conns: 1,
        want_slo: true,
        batch: 64,
        window: 4096,
        sessions: 48,
        profiles: &["apache-75", "mySQL", "sphinx", "gcc"],
        events_per_session: 4096,
        ranks: &[0, 1, 2],
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One monitored program's stream.
pub struct Session {
    pub id: u64,
    pub rank: u8,
    pub conn: usize,
    pub events: Vec<Event>,
}

/// One `Submit`: a slice of one session's stream.
pub struct Batch {
    pub session: usize,
    pub start: usize,
    pub end: usize,
}

/// Everything a run sends, generated from the seed.
pub struct Inputs {
    pub sessions: Vec<Session>,
    pub batches: Vec<Batch>,
    /// Batch indices in send order, per connection.
    pub per_conn: Vec<Vec<usize>>,
}

impl Inputs {
    pub fn events(&self, b: usize) -> &[Event] {
        let batch = &self.batches[b];
        &self.sessions[batch.session].events[batch.start..batch.end]
    }

    pub fn session_of(&self, b: usize) -> &Session {
        &self.sessions[self.batches[b].session]
    }

    pub fn total_events(&self) -> u64 {
        self.sessions.iter().map(|s| s.events.len() as u64).sum()
    }
}

impl Spec {
    pub fn generate(&self, seed: u64) -> Inputs {
        let sessions: Vec<Session> = (0..self.sessions)
            .map(|id| {
                let profile = self.profiles[id as usize % self.profiles.len()];
                let p = BenchmarkProfile::by_name(profile).expect("profile name is known");
                let mut src = p.stream(
                    latch_faults::mix(seed, 0x77A1_BE4C, id),
                    self.events_per_session,
                );
                let mut events = Vec::with_capacity(self.events_per_session as usize);
                while let Some(ev) = src.next_event() {
                    events.push(ev);
                }
                Session {
                    id,
                    rank: self.ranks[id as usize % self.ranks.len()],
                    conn: id as usize % self.conns,
                    events,
                }
            })
            .collect();
        let mut batches = Vec::new();
        let mut per_conn = vec![Vec::new(); self.conns];
        for (conn, order) in per_conn.iter_mut().enumerate() {
            let mine: Vec<usize> = (0..sessions.len())
                .filter(|&s| sessions[s].conn == conn)
                .collect();
            let mut cursor = vec![0usize; sessions.len()];
            loop {
                let mut sent = false;
                for &s in &mine {
                    let len = sessions[s].events.len();
                    if cursor[s] < len {
                        let end = (cursor[s] + self.batch).min(len);
                        order.push(batches.len());
                        batches.push(Batch {
                            session: s,
                            start: cursor[s],
                            end,
                        });
                        cursor[s] = end;
                        sent = true;
                    }
                }
                if !sent {
                    break;
                }
            }
        }
        Inputs {
            sessions,
            batches,
            per_conn,
        }
    }
}
