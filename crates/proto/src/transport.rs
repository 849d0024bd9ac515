//! The one socket transport under `latchd`, `latch-routerd` and
//! `latch-client`.
//!
//! Everything that touches a socket lives here, once: a [`Stream`] over
//! TCP or a Unix socket (with the client's dial path), the listener and
//! its accept loop ([`Server`]), the frame reader ([`read_msg`]) and
//! writer ([`write_msg`]), and the per-connection loop — `Hello` →
//! `HelloAck` (window clamp) → read / dispatch / write, failing closed on
//! hostile bytes. The servers plug in through [`Handler`] and keep only
//! their message handlers and observability names.
//!
//! Two replies belong to the transport itself, the same for every
//! server:
//!
//! * `Ping` is answered `Pong` by the connection loop, before the
//!   handler runs, so a heartbeat never waits behind a handler's lock.
//! * Once a `Drained` reply has been written (or its write failed),
//!   [`Server::wait_drained`] returns — the point after which a daemon
//!   may exit without losing the reply.
//!
//! Reader semantics (the same for clients and servers):
//!
//! * a read timeout at a frame boundary polls the stop flag, if any;
//! * a read timeout inside a frame keeps waiting — a slow-but-live peer
//!   never loses the bytes of a partial frame;
//! * a clean EOF at a frame boundary is `Ok(None)`;
//! * EOF inside a frame is [`ProtoError::ShortFrame`];
//! * the length prefix is bounded before the payload is allocated.

use crate::{error_code, Endpoint, Msg, ProtoError, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD};
use latch_core::snapshot::crc32;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop sleeps when no connection is pending.
pub const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Read timeout on accepted connections: how often an idle handler
/// polls the stop flag.
pub const READ_POLL: Duration = Duration::from_millis(20);

/// One connected stream, either transport.
pub enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-socket connection.
    Unix(UnixStream),
}

impl Stream {
    /// Dials `endpoint`. With `connect_timeout`, each resolved TCP
    /// address gets at most that long — so one blackholed
    /// (non-refusing) address cannot stall the caller for the OS
    /// connect timeout. Unix-socket connects are local and not bounded.
    ///
    /// # Errors
    ///
    /// The connect failure (the last one, when a TCP name resolves to
    /// several addresses).
    pub fn connect(endpoint: &Endpoint, connect_timeout: Option<Duration>) -> io::Result<Self> {
        let addr = match endpoint {
            Endpoint::Unix(path) => return UnixStream::connect(path).map(Stream::Unix),
            Endpoint::Tcp(addr) => addr.as_str(),
        };
        let Some(timeout) = connect_timeout else {
            return TcpStream::connect(addr).map(Stream::Tcp);
        };
        let mut last = None;
        for sockaddr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sockaddr, timeout) {
                Ok(s) => return Ok(Stream::Tcp(s)),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    /// Sets (or clears, with `None`) the read timeout.
    ///
    /// # Errors
    ///
    /// The socket option failure.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            Stream::Unix(s) => s.set_read_timeout(timeout),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Writes one framed message.
///
/// # Errors
///
/// [`ProtoError::OversizedFrame`] if the message cannot be framed, or
/// [`ProtoError::Io`] on transport failure.
pub fn write_msg<W: Write>(w: &mut W, msg: &Msg) -> Result<(), ProtoError> {
    let frame = msg.encode()?;
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| ProtoError::Io(e.kind()))
}

/// Reads one framed message with the semantics in the module docs.
/// `Ok(None)` means the connection should close quietly: a clean EOF
/// between frames, or `stop` raised while idle at a frame boundary.
///
/// # Errors
///
/// A typed [`ProtoError`] for torn, hostile, or malformed frames.
pub fn read_msg<R: Read>(r: &mut R, stop: Option<&AtomicBool>) -> Result<Option<Msg>, ProtoError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    if !fill(r, &mut header, stop)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(ProtoError::OversizedFrame { len: len as u64 });
    }
    let want_crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    let mut payload = vec![0u8; len];
    if !fill(r, &mut payload, None)? {
        return Err(ProtoError::ShortFrame);
    }
    if crc32(&payload) != want_crc {
        return Err(ProtoError::BadCrc);
    }
    Msg::decode_payload(&payload).map(Some)
}

/// Fills `buf`, retrying timeouts. Before its first byte (`Ok(false)`)
/// it may stop quietly: on a clean EOF, or when `stop` is raised while
/// the peer is idle. Once a byte is in, EOF is a torn frame.
fn fill<R: Read>(r: &mut R, buf: &mut [u8], stop: Option<&AtomicBool>) -> Result<bool, ProtoError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) if got == 0 => return Ok(false),
            Ok(0) => return Err(ProtoError::ShortFrame),
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if got == 0 && stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e.kind())),
        }
    }
    Ok(true)
}

/// A server's message handlers and observability hooks. `latch-proto`
/// stays free of `latch-obs`; each server reports under its own names.
pub trait Handler: Send + Sync + 'static {
    /// Per-connection state, created by [`hello`](Self::hello).
    type Conn: Send;

    /// A connection was accepted and numbered `conn` (from 1).
    fn opened(&self, conn: u64);

    /// The handshake succeeded with the granted `window_events`.
    fn hello(&self, window_events: u32, want_slo: bool) -> Self::Conn;

    /// Answers one frame after the handshake (never a `Ping`: the
    /// transport answers those itself).
    fn handle(&self, conn: u64, state: &mut Self::Conn, msg: Msg) -> Vec<Msg>;

    /// The connection is failing closed for `reason` (a
    /// [`ProtoError::reason`] label or `hello_expected`).
    fn rejected(&self, conn: u64, reason: &'static str);

    /// The connection closed after `frames` frames.
    fn closed(&self, conn: u64, frames: u64);
}

/// A bound listener, either transport. Dropping it removes a Unix
/// socket file.
enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    fn bind(endpoint: &Endpoint) -> io::Result<Self> {
        let listener = match endpoint {
            Endpoint::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr.as_str())?),
            Endpoint::Unix(path) => {
                // A stale socket file from a dead process blocks bind;
                // the server owns its socket path, so remove it first.
                let _ = std::fs::remove_file(path);
                Listener::Unix(UnixListener::bind(path)?, path.clone())
            }
        };
        match &listener {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            Listener::Unix(l, _) => l.set_nonblocking(true)?,
        }
        Ok(listener)
    }

    fn local_endpoint(&self) -> Endpoint {
        match self {
            Listener::Tcp(l) => Endpoint::Tcp(
                l.local_addr()
                    .map_or_else(|_| "0.0.0.0:0".to_string(), |a| a.to_string()),
            ),
            Listener::Unix(_, path) => Endpoint::Unix(path.clone()),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Raised once a `Drained` reply has been written, or its write failed.
#[derive(Default)]
struct DrainSignal {
    done: Mutex<bool>,
    cv: Condvar,
}

impl DrainSignal {
    fn raise(&self) {
        *self.done.lock().expect("drain signal") = true;
        self.cv.notify_all();
    }
}

/// A running listener: an accept loop on its own thread and one
/// detached handler thread per connection. Dropping the server (or
/// calling [`stop`](Self::stop)) raises the stop flag and joins the
/// accept loop; each handler closes at its next frame boundary.
pub struct Server {
    stop: Arc<AtomicBool>,
    drained: Arc<DrainSignal>,
    endpoint: Endpoint,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `endpoint` and starts accepting. Each connection's `Hello`
    /// window is clamped into `[1, max_window_events]`.
    ///
    /// # Errors
    ///
    /// The bind failure — address in use, missing socket directory, and
    /// so on.
    pub fn start<H: Handler>(
        endpoint: &Endpoint,
        max_window_events: u32,
        handler: Arc<H>,
    ) -> io::Result<Self> {
        let listener = Listener::bind(endpoint)?;
        let bound = listener.local_endpoint();
        let stop = Arc::new(AtomicBool::new(false));
        let drained = Arc::new(DrainSignal::default());
        let (accept_stop, accept_drained) = (Arc::clone(&stop), Arc::clone(&drained));
        let accept = std::thread::spawn(move || {
            accept_loop(
                &listener,
                &handler,
                &accept_stop,
                &accept_drained,
                max_window_events,
            );
        });
        Ok(Self {
            stop,
            drained,
            endpoint: bound,
            accept: Some(accept),
        })
    }

    /// The endpoint actually bound — for `tcp:HOST:0` this carries the
    /// kernel-assigned port.
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The bound TCP socket address (`None` on a Unix listener). Tests
    /// bind port 0 and read the kernel's choice back from here.
    #[must_use]
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.endpoint {
            Endpoint::Tcp(addr) => addr.parse().ok(),
            Endpoint::Unix(_) => None,
        }
    }

    /// The flag [`stop`](Self::stop) raises, for threads that live as
    /// long as the server.
    #[must_use]
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Blocks until some connection has been sent a `Drained` reply
    /// (or its write failed) — the point after which a daemon may exit
    /// without losing the reply.
    pub fn wait_drained(&self) {
        let mut done = self.drained.done.lock().expect("drain signal");
        while !*done {
            done = self.drained.cv.wait(done).expect("drain signal");
        }
    }

    /// Raises the stop flag and joins the accept loop. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop<H: Handler>(
    listener: &Listener,
    handler: &Arc<H>,
    stop: &Arc<AtomicBool>,
    drained: &Arc<DrainSignal>,
    max_window_events: u32,
) {
    let mut conn = 0u64;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(stream) => {
                conn += 1;
                handler.opened(conn);
                let (handler, stop, drained) =
                    (Arc::clone(handler), Arc::clone(stop), Arc::clone(drained));
                std::thread::spawn(move || {
                    serve_conn(stream, conn, &*handler, &stop, &drained, max_window_events);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => break,
        }
    }
}

fn serve_conn<H: Handler>(
    mut stream: Stream,
    conn: u64,
    handler: &H,
    stop: &AtomicBool,
    drained: &DrainSignal,
    max_window_events: u32,
) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut frames = 0u64;
    if let Some(mut state) = handshake(&mut stream, conn, handler, stop, max_window_events) {
        frames = 1;
        // Check the stop flag at every frame boundary, not just on idle
        // timeouts: a stopped server must close even connections whose
        // frames keep arriving back-to-back, or a router's heartbeat
        // would keep getting answered by a dead node.
        while !stop.load(Ordering::SeqCst) {
            let msg = match read_msg(&mut stream, Some(stop)) {
                Ok(Some(msg)) => msg,
                Ok(None) => break,
                Err(err) => {
                    fail_closed(&mut stream, conn, handler, err.reason());
                    break;
                }
            };
            frames += 1;
            let replies = match msg {
                Msg::Ping { token } => vec![Msg::Pong { token }],
                msg => handler.handle(conn, &mut state, msg),
            };
            let written = replies.iter().all(|r| write_msg(&mut stream, r).is_ok());
            if replies.iter().any(|r| matches!(r, Msg::Drained { .. })) {
                drained.raise();
            }
            if !written {
                break;
            }
        }
    }
    handler.closed(conn, frames);
}

/// The first frame must be a well-formed `Hello`; anything else fails
/// the connection closed.
fn handshake<H: Handler>(
    stream: &mut Stream,
    conn: u64,
    handler: &H,
    stop: &AtomicBool,
    max_window_events: u32,
) -> Option<H::Conn> {
    match read_msg(stream, Some(stop)) {
        Ok(Some(Msg::Hello {
            window_events,
            want_slo,
            ..
        })) => {
            let window = window_events.clamp(1, max_window_events);
            let ack = Msg::HelloAck {
                version: crate::PROTO_VERSION,
                window_events: window,
            };
            write_msg(stream, &ack).ok()?;
            Some(handler.hello(window, want_slo))
        }
        Ok(Some(_)) => {
            fail_closed(stream, conn, handler, "hello_expected");
            None
        }
        Ok(None) => None,
        Err(err) => {
            fail_closed(stream, conn, handler, err.reason());
            None
        }
    }
}

/// Reports the rejection and sends a best-effort typed `Error` frame
/// (the peer may already be gone).
fn fail_closed<H: Handler>(stream: &mut Stream, conn: u64, handler: &H, reason: &'static str) {
    handler.rejected(conn, reason);
    let _ = write_msg(
        stream,
        &Msg::Error {
            code: error_code::MALFORMED,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Yields one byte per read, with a read timeout between bytes.
    struct Trickle {
        bytes: Vec<u8>,
        pos: usize,
        tick: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.tick = !self.tick;
            if !self.tick {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(1).min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn ping_frame() -> Vec<u8> {
        Msg::Ping { token: 9 }.encode().unwrap()
    }

    #[test]
    fn torn_header_and_torn_payload_are_short_frames() {
        let frame = ping_frame();
        for cut in [1, FRAME_HEADER_LEN - 1, FRAME_HEADER_LEN, frame.len() - 1] {
            let mut torn = Cursor::new(frame[..cut].to_vec());
            assert_eq!(
                read_msg(&mut torn, None),
                Err(ProtoError::ShortFrame),
                "cut at {cut}"
            );
        }
        assert_eq!(ProtoError::ShortFrame.reason(), "short_frame");
        let mut empty = Cursor::new(Vec::new());
        assert_eq!(
            read_msg(&mut empty, None),
            Ok(None),
            "clean EOF at a boundary"
        );
    }

    #[test]
    fn timeouts_wait_inside_a_frame_and_poll_stop_at_a_boundary() {
        // Raised stop, but a timeout between every byte: the frame in
        // progress still completes, and only then does the reader stop.
        let stop = AtomicBool::new(true);
        let mut slow = Trickle {
            bytes: ping_frame(),
            pos: 0,
            tick: false,
        };
        assert_eq!(
            read_msg(&mut slow, Some(&stop)),
            Ok(Some(Msg::Ping { token: 9 }))
        );
        assert_eq!(read_msg(&mut slow, Some(&stop)), Ok(None), "idle + stop");
    }
}
