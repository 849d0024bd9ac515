//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent, request id)`. Spans nest per
//! thread: a span opened while another is open on the same thread
//! becomes its child. Calls too short to time one by one (a coarse
//! check, one event's DIFT step) are folded into one span per batch
//! whose `busy_ns` sums the individual calls and `count` counts them;
//! for every other span `busy_ns == end - start` and `count == 1`.
//! Recording is off unless a phase is set, so untraced runs pay only
//! an atomic load per call site.

use latch_serve::Storage;
use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Which part of a traced run a span belongs to.
pub const LIVE: u8 = 1;
pub const REPLAY: u8 = 2;

static PHASE: AtomicU8 = AtomicU8::new(0);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub phase: u8,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub count: u64,
    pub bytes: u64,
}

pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_phase(phase: u8) {
    let _ = EPOCH.get_or_init(Instant::now);
    PHASE.store(phase, Ordering::SeqCst);
}

pub fn phase() -> u8 {
    PHASE.load(Ordering::Relaxed)
}

/// An open span; records itself when finished.
pub struct Open {
    id: u32,
    parent: u32,
    phase: u8,
    name: &'static str,
    req: u64,
    start_ns: u64,
}

/// Opens a span under the thread's innermost open span, or returns
/// `None` when tracing is off.
pub fn open(name: &'static str, req: u64) -> Option<Open> {
    let phase = phase();
    if phase == 0 {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Some(Open {
        id,
        parent,
        phase,
        name,
        req,
        start_ns: now_ns(),
    })
}

impl Open {
    pub fn close(self, bytes: u64) {
        let end_ns = now_ns();
        STACK.with(|s| {
            s.borrow_mut().retain(|&i| i != self.id);
        });
        push(Span {
            id: self.id,
            parent: self.parent,
            phase: self.phase,
            name: self.name,
            req: self.req,
            start_ns: self.start_ns,
            end_ns,
            busy_ns: end_ns - self.start_ns,
            count: 1,
            bytes,
        });
    }
}

/// Records a folded span: `count` calls totalling `busy_ns`, all made
/// inside `[start_ns, end_ns]`.
pub fn folded(name: &'static str, req: u64, start_ns: u64, end_ns: u64, busy_ns: u64, count: u64) {
    if phase() == 0 || count == 0 {
        return;
    }
    push(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: 0,
        phase: phase(),
        name,
        req,
        start_ns,
        end_ns,
        busy_ns,
        count,
        bytes: 0,
    });
}

fn push(span: Span) {
    SPANS.lock().expect("span buffer").push(span);
}

pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer"))
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"phase\":\"{}\",\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"count\":{},\"bytes\":{}}}",
            s.id,
            s.parent,
            if s.phase == LIVE { "live" } else { "replay" },
            s.name,
            s.req,
            s.start_ns,
            s.end_ns,
            s.busy_ns,
            s.count,
            s.bytes
        )?;
    }
    out.flush()
}

/// A [`Storage`] that records a span around every mutating call of
/// the store it wraps.
pub struct TimedStorage<S>(pub S);

impl<S: Storage> Storage for TimedStorage<S> {
    fn list(&self) -> Vec<String> {
        self.0.list()
    }

    fn read(&mut self, name: &str) -> Option<Vec<u8>> {
        self.0.read(name)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> bool {
        let span = open("storage.append", 0);
        let ok = self.0.append(name, bytes);
        if let Some(s) = span {
            s.close(bytes.len() as u64);
        }
        ok
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> bool {
        let span = open("storage.write_atomic", 0);
        let ok = self.0.write_atomic(name, bytes);
        if let Some(s) = span {
            s.close(bytes.len() as u64);
        }
        ok
    }

    fn fsync(&mut self) -> bool {
        let span = open("storage.fsync", 0);
        let ok = self.0.fsync();
        if let Some(s) = span {
            s.close(0);
        }
        ok
    }

    fn remove(&mut self, name: &str) {
        self.0.remove(name);
    }
}
