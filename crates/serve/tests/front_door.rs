//! The front door under real timing: heartbeats answered while a batch
//! holds the server lock in a slow fsync, and the shipped `latchd`
//! binary delivering its `Drained` reply on every drain before it exits.

use latch_faults::FaultPlan;
use latch_proto::transport::{read_msg, write_msg, Stream};
use latch_proto::{Endpoint, Msg, WireRejected, PROTO_VERSION};
use latch_serve::{
    DurableConfig, DurableService, MemStorage, ServeConfig, Storage, WireConfig, WireServer,
};
use latch_sim::event::{Event, EventSource};
use latch_workloads::BenchmarkProfile;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn events(seed: u64, n: u64) -> Vec<Event> {
    let mut src = BenchmarkProfile::by_name("bzip2").unwrap().stream(seed, n);
    std::iter::from_fn(|| src.next_event()).collect()
}

fn connect(endpoint: &Endpoint) -> Stream {
    let mut conn = Stream::connect(endpoint, None).expect("connect");
    let hello = Msg::Hello {
        version: PROTO_VERSION,
        window_events: 256,
        want_slo: false,
    };
    assert!(matches!(
        request(&mut conn, &hello),
        Some(Msg::HelloAck { .. })
    ));
    conn
}

/// Sends `msg` and returns the reply; `None` when the connection closed
/// or failed.
fn request(conn: &mut Stream, msg: &Msg) -> Option<Msg> {
    write_msg(conn, msg).ok()?;
    read_msg(conn, None).ok().flatten()
}

/// Blocks every `fsync` while armed, recording that one is parked.
#[derive(Default)]
struct Gate {
    state: Mutex<(bool, bool)>,
    cv: Condvar,
}

impl Gate {
    fn set_armed(&self, armed: bool) {
        self.state.lock().unwrap().0 = armed;
        self.cv.notify_all();
    }

    fn wait_parked(&self, timeout: Duration) -> bool {
        let st = self.state.lock().unwrap();
        let (st, _) = self.cv.wait_timeout_while(st, timeout, |s| !s.1).unwrap();
        st.1
    }
}

struct GatedStorage {
    inner: MemStorage,
    gate: Arc<Gate>,
}

impl Storage for GatedStorage {
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
    fn read(&mut self, name: &str) -> Option<Vec<u8>> {
        self.inner.read(name)
    }
    fn append(&mut self, name: &str, bytes: &[u8]) -> bool {
        self.inner.append(name, bytes)
    }
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> bool {
        self.inner.write_atomic(name, bytes)
    }
    fn fsync(&mut self) -> bool {
        let mut st = self.gate.state.lock().unwrap();
        st.1 = st.0;
        self.gate.cv.notify_all();
        let _st = self.gate.cv.wait_while(st, |s| s.0).unwrap();
        self.inner.fsync()
    }
    fn remove(&mut self, name: &str) {
        self.inner.remove(name);
    }
}

#[test]
fn ping_is_answered_while_a_submit_holds_the_lock_in_fsync() {
    let gate = Arc::new(Gate::default());
    let storage = GatedStorage {
        inner: MemStorage::new(FaultPlan::benign()),
        gate: Arc::clone(&gate),
    };
    let dcfg = DurableConfig {
        group_commit_events: 1,
        ..DurableConfig::default()
    };
    let svc = DurableService::new(ServeConfig::default(), dcfg, FaultPlan::benign(), storage);
    let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
    let server = WireServer::start(&endpoint, svc, WireConfig::default()).expect("bind");
    let mut submitter = connect(server.endpoint());
    let mut heartbeat = connect(server.endpoint());

    gate.set_armed(true);
    let submit = Msg::Submit {
        session: 1,
        priority: 1,
        events: events(1, 32),
    };
    write_msg(&mut submitter, &submit).expect("send submit");
    assert!(
        gate.wait_parked(Duration::from_secs(10)),
        "the submit never reached fsync"
    );

    // A raised stop flag turns the read timeout at the frame boundary
    // into `Ok(None)`: a Pong that never comes fails instead of hanging.
    heartbeat
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    write_msg(&mut heartbeat, &Msg::Ping { token: 7 }).expect("send ping");
    let pong = read_msg(&mut heartbeat, Some(&AtomicBool::new(true)));
    gate.set_armed(false);
    assert_eq!(
        pong,
        Ok(Some(Msg::Pong { token: 7 })),
        "Ping must not wait for the server lock"
    );
    assert!(matches!(
        read_msg(&mut submitter, None),
        Ok(Some(Msg::SubmitOk { admitted: 32, .. }))
    ));
    assert!(matches!(
        request(&mut submitter, &Msg::Drain),
        Some(Msg::Drained { .. })
    ));
    server.shutdown();
}

/// Starts the shipped `latchd` on a fresh directory and returns it with
/// the endpoint it reports.
fn spawn_latchd(dir: &std::path::Path) -> (std::process::Child, Endpoint) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_latchd"))
        .args(["--listen", "tcp:127.0.0.1:0", "--dir"])
        .arg(dir)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn latchd");
    let mut lines = BufReader::new(child.stderr.take().unwrap()).lines();
    let endpoint = lines
        .by_ref()
        .map_while(Result::ok)
        .find_map(|l| l.strip_prefix("latchd: listening on ").map(str::to_string))
        .and_then(|spec| Endpoint::parse(&spec))
        .expect("latchd reports its endpoint");
    // Keep reading so latchd never writes into a closed pipe.
    std::thread::spawn(move || lines.for_each(drop));
    (child, endpoint)
}

/// Submits `session`'s batches until the server stops admitting.
fn load(endpoint: &Endpoint, session: u64, sent: &AtomicU64) {
    let mut conn = connect(endpoint);
    for round in 0.. {
        let submit = Msg::Submit {
            session,
            priority: 1,
            events: events(session * 1_000 + round, 64),
        };
        match request(&mut conn, &submit) {
            Some(Msg::SubmitOk { .. }) => {
                sent.fetch_add(1, Ordering::SeqCst);
            }
            Some(Msg::SubmitRejected {
                rejected: WireRejected::QueueFull { .. } | WireRejected::SessionBusy { .. },
                ..
            }) => {}
            _ => return,
        }
    }
}

#[test]
fn latchd_writes_the_drained_reply_before_it_exits() {
    const ROUNDS: u64 = 8;
    const LOADERS: u64 = 3;
    for round in 0..ROUNDS {
        let dir = std::env::temp_dir().join(format!("latchd-drain-{}-{round}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut child, endpoint) = spawn_latchd(&dir);
        let sent = Arc::new(AtomicU64::new(0));
        let loaders: Vec<_> = (0..LOADERS)
            .map(|s| {
                let (endpoint, sent) = (endpoint.clone(), Arc::clone(&sent));
                std::thread::spawn(move || load(&endpoint, s, &sent))
            })
            .collect();
        let mut drainer = connect(&endpoint);
        let start = Instant::now();
        while sent.load(Ordering::SeqCst) < 4 * LOADERS && start.elapsed() < Duration::from_secs(10)
        {
            std::thread::yield_now();
        }
        let reply = request(&mut drainer, &Msg::Drain);
        assert!(
            matches!(reply, Some(Msg::Drained { ref reports }) if !reports.is_empty()),
            "round {round}: drain under load got {reply:?}"
        );
        for l in loaders {
            l.join().unwrap();
        }
        let start = Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().unwrap() {
                break status;
            }
            assert!(
                start.elapsed() < Duration::from_secs(20),
                "round {round}: latchd did not exit after its drain"
            );
            std::thread::sleep(Duration::from_millis(5));
        };
        assert!(
            status.success(),
            "round {round}: latchd exited with {status}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
