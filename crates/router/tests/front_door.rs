//! The router's front door under real timing: heartbeats answered while
//! another thread holds the routing lock, and the shipped
//! `latch-routerd` binary delivering its `Drained` reply on every drain
//! before it exits.

use latch_faults::FaultPlan;
use latch_proto::transport::{read_msg, write_msg, Stream};
use latch_proto::{Endpoint, Msg, WireRejected, PROTO_VERSION};
use latch_router::{Router, RouterConfig, RouterServer, RouterServerConfig};
use latch_serve::{DurableConfig, DurableService, MemStorage, ServeConfig, WireConfig, WireServer};
use latch_sim::event::{Event, EventSource};
use latch_workloads::BenchmarkProfile;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn events(seed: u64, n: u64) -> Vec<Event> {
    let mut src = BenchmarkProfile::by_name("bzip2").unwrap().stream(seed, n);
    std::iter::from_fn(|| src.next_event()).collect()
}

fn loopback() -> Endpoint {
    Endpoint::Tcp("127.0.0.1:0".to_string())
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

fn start_node() -> WireServer<MemStorage> {
    let svc = DurableService::new(
        ServeConfig::default(),
        DurableConfig::default(),
        FaultPlan::benign(),
        MemStorage::new(FaultPlan::benign()),
    );
    WireServer::start(&loopback(), svc, WireConfig::default()).expect("bind node")
}

#[test]
fn ping_is_answered_while_the_routing_lock_is_held() {
    let cfg = RouterServerConfig {
        heartbeat: Duration::ZERO,
        ..RouterServerConfig::default()
    };
    let router = Router::new(RouterConfig::default());
    let server = Arc::new(
        RouterServer::start(&loopback(), router, Box::new(|_| Vec::new()), cfg).expect("bind"),
    );
    let mut heartbeat = connect(server.endpoint());

    // Another thread parks inside `with_router` — what a failover or a
    // migration does while it waits on node I/O.
    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let holder = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            server.with_router(|_| {
                held_tx.send(()).unwrap();
                let _ = release_rx.recv();
            });
        })
    };
    held_rx.recv().unwrap();

    // A raised stop flag turns the read timeout at the frame boundary
    // into `Ok(None)`: a Pong that never comes fails instead of hanging.
    heartbeat
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    write_msg(&mut heartbeat, &Msg::Ping { token: 11 }).expect("send ping");
    let pong = read_msg(&mut heartbeat, Some(&AtomicBool::new(true)));
    release_tx.send(()).unwrap();
    holder.join().unwrap();
    assert_eq!(
        pong,
        Ok(Some(Msg::Pong { token: 11 })),
        "Ping must not wait for the routing lock"
    );
}

/// Starts the shipped `latch-routerd` over `nodes` and returns it with
/// the endpoint it reports.
fn spawn_routerd(nodes: &[WireServer<MemStorage>]) -> (std::process::Child, Endpoint) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_latch-routerd"));
    cmd.args(["--listen", "tcp:127.0.0.1:0"]);
    for (id, node) in nodes.iter().enumerate() {
        cmd.arg("--node").arg(format!("{id}={}", node.endpoint()));
    }
    let mut child = cmd
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn latch-routerd");
    let mut lines = BufReader::new(child.stderr.take().unwrap()).lines();
    let endpoint = lines
        .by_ref()
        .map_while(Result::ok)
        .find_map(|l| {
            l.strip_prefix("latch-routerd: listening on ")
                .map(str::to_string)
        })
        .and_then(|spec| Endpoint::parse(&spec))
        .expect("latch-routerd reports its endpoint");
    // Keep reading so routerd never writes into a closed pipe.
    std::thread::spawn(move || lines.for_each(drop));
    (child, endpoint)
}

/// Submits `session`'s batches until the router stops admitting.
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
fn routerd_writes_the_drained_reply_before_it_exits() {
    const ROUNDS: u64 = 8;
    const LOADERS: u64 = 3;
    for round in 0..ROUNDS {
        let nodes = [start_node(), start_node()];
        let (mut child, endpoint) = spawn_routerd(&nodes);
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
                "round {round}: latch-routerd did not exit after its drain"
            );
            std::thread::sleep(Duration::from_millis(5));
        };
        assert!(
            status.success(),
            "round {round}: latch-routerd exited with {status}"
        );
        for node in nodes {
            node.shutdown();
        }
    }
}
