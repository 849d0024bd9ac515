//! Binary event-trace recording and replay.
//!
//! Long monitored runs can be captured once and replayed into any
//! system model — the simulator-world analogue of LBA's instruction log
//! (paper §5.2) and a practical tool for regression testing: a trace
//! recorded from the CPU or from a synthetic generator replays
//! bit-identically, so divergence between two system models can be
//! debugged offline.
//!
//! The encoding is a compact little-endian TLV format built on
//! [`bytes`]; every event field round-trips exactly.

use crate::event::{
    CtrlCheck, Event, EventSource, MemAccess, MemAccessKind, RegsUsed, SinkAccess, SourceInput,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use latch_core::isa_ext::LatchInstr;
use latch_dift::policy::{SinkKind, SourceKind};
use latch_dift::prop::PropRule;
use std::error::Error;
use std::fmt;

/// Magic bytes identifying a trace stream.
pub const TRACE_MAGIC: u32 = 0x4C54_4348; // "LTCH"

/// Trace format version.
pub const TRACE_VERSION: u16 = 1;

/// Smallest possible encoding of one event (pc + flags + regs), in
/// bytes. Bounds a declared event count before decoding.
pub const MIN_EVENT_LEN: usize = 8;

/// Errors raised while decoding a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// The stream does not start with the trace magic.
    BadMagic,
    /// The stream has an unsupported version.
    BadVersion {
        /// The version found.
        found: u16,
    },
    /// The stream ended in the middle of an event.
    Truncated,
    /// An enum discriminant was out of range.
    BadTag {
        /// The offending byte.
        tag: u8,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => f.write_str("stream is not a LATCH trace"),
            TraceError::BadVersion { found } => {
                write!(f, "unsupported trace version {found}")
            }
            TraceError::Truncated => f.write_str("trace ends mid-event"),
            TraceError::BadTag { tag } => write!(f, "invalid discriminant byte {tag:#04x}"),
        }
    }
}

impl Error for TraceError {}

// ---- field encoders ------------------------------------------------------

fn put_prop(buf: &mut BytesMut, rule: &PropRule) {
    match *rule {
        PropRule::BinaryAlu { dst, src1, src2 } => {
            buf.put_u8(0);
            buf.put_u8(dst as u8);
            buf.put_u8(src1 as u8);
            buf.put_u8(src2 as u8);
        }
        PropRule::UnaryAlu { dst, src } => {
            buf.put_u8(1);
            buf.put_u8(dst as u8);
            buf.put_u8(src as u8);
        }
        PropRule::Mov { dst, src } => {
            buf.put_u8(2);
            buf.put_u8(dst as u8);
            buf.put_u8(src as u8);
        }
        PropRule::ClearDst { dst } => {
            buf.put_u8(3);
            buf.put_u8(dst as u8);
        }
        PropRule::Load { dst, addr, len } => {
            buf.put_u8(4);
            buf.put_u8(dst as u8);
            buf.put_u32_le(addr);
            buf.put_u32_le(len);
        }
        PropRule::Store { src, addr, len } => {
            buf.put_u8(5);
            buf.put_u8(src as u8);
            buf.put_u32_le(addr);
            buf.put_u32_le(len);
        }
        PropRule::StoreImm { addr, len } => {
            buf.put_u8(6);
            buf.put_u32_le(addr);
            buf.put_u32_le(len);
        }
    }
}

fn get_prop(buf: &mut Bytes) -> Result<PropRule, TraceError> {
    ensure(buf, 1)?;
    let tag = buf.get_u8();
    Ok(match tag {
        0 => {
            ensure(buf, 3)?;
            PropRule::BinaryAlu {
                dst: buf.get_u8() as usize,
                src1: buf.get_u8() as usize,
                src2: buf.get_u8() as usize,
            }
        }
        1 => {
            ensure(buf, 2)?;
            PropRule::UnaryAlu {
                dst: buf.get_u8() as usize,
                src: buf.get_u8() as usize,
            }
        }
        2 => {
            ensure(buf, 2)?;
            PropRule::Mov {
                dst: buf.get_u8() as usize,
                src: buf.get_u8() as usize,
            }
        }
        3 => {
            ensure(buf, 1)?;
            PropRule::ClearDst {
                dst: buf.get_u8() as usize,
            }
        }
        4 => {
            ensure(buf, 9)?;
            PropRule::Load {
                dst: buf.get_u8() as usize,
                addr: buf.get_u32_le(),
                len: buf.get_u32_le(),
            }
        }
        5 => {
            ensure(buf, 9)?;
            PropRule::Store {
                src: buf.get_u8() as usize,
                addr: buf.get_u32_le(),
                len: buf.get_u32_le(),
            }
        }
        6 => {
            ensure(buf, 8)?;
            PropRule::StoreImm {
                addr: buf.get_u32_le(),
                len: buf.get_u32_le(),
            }
        }
        tag => return Err(TraceError::BadTag { tag }),
    })
}

fn ensure(buf: &Bytes, n: usize) -> Result<(), TraceError> {
    if buf.remaining() < n {
        Err(TraceError::Truncated)
    } else {
        Ok(())
    }
}

/// Records events into an in-memory trace buffer.
#[derive(Debug, Default)]
pub struct TraceWriter {
    buf: BytesMut,
    events: u64,
}

impl TraceWriter {
    /// Starts a new trace.
    pub fn new() -> Self {
        let mut buf = BytesMut::with_capacity(1 << 16);
        buf.put_u32_le(TRACE_MAGIC);
        buf.put_u16_le(TRACE_VERSION);
        Self { buf, events: 0 }
    }

    /// Number of events recorded.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Appends one event.
    pub fn record(&mut self, ev: &Event) {
        self.events += 1;
        let buf = &mut self.buf;
        buf.put_u32_le(ev.pc);
        // Presence bitmap: prop, prop2, mem, ctrl, source, sink, latch.
        let mut flags = 0u8;
        if ev.prop.is_some() {
            flags |= 1;
        }
        if ev.prop2.is_some() {
            flags |= 2;
        }
        if ev.mem.is_some() {
            flags |= 4;
        }
        if ev.ctrl.is_some() {
            flags |= 8;
        }
        if ev.source.is_some() {
            flags |= 16;
        }
        if ev.sink.is_some() {
            flags |= 32;
        }
        if ev.latch.is_some() {
            flags |= 64;
        }
        buf.put_u8(flags);
        if let Some(rule) = &ev.prop {
            put_prop(buf, rule);
        }
        if let Some(rule) = &ev.prop2 {
            put_prop(buf, rule);
        }
        if let Some(mem) = &ev.mem {
            buf.put_u32_le(mem.addr);
            buf.put_u32_le(mem.len);
            buf.put_u8(matches!(mem.kind, MemAccessKind::Write) as u8);
        }
        if let Some(ctrl) = &ev.ctrl {
            match *ctrl {
                CtrlCheck::Reg { reg, target } => {
                    buf.put_u8(0);
                    buf.put_u8(reg);
                    buf.put_u32_le(target);
                }
                CtrlCheck::Mem { addr, len, target } => {
                    buf.put_u8(1);
                    buf.put_u32_le(addr);
                    buf.put_u32_le(len);
                    buf.put_u32_le(target);
                }
            }
        }
        if let Some(src) = &ev.source {
            buf.put_u8(match src.kind {
                SourceKind::File => 0,
                SourceKind::Socket => 1,
                SourceKind::UserInput => 2,
            });
            buf.put_u32_le(src.addr);
            buf.put_u32_le(src.len);
            buf.put_u8(src.trusted as u8);
        }
        if let Some(sink) = &ev.sink {
            buf.put_u8(matches!(sink.kind, SinkKind::File) as u8);
            buf.put_u32_le(sink.addr);
            buf.put_u32_le(sink.len);
        }
        if let Some(latch) = &ev.latch {
            match *latch {
                LatchInstr::Strf { packed } => {
                    buf.put_u8(0);
                    buf.put_u64_le(packed);
                }
                LatchInstr::Stnt { addr, len, tainted } => {
                    buf.put_u8(1);
                    buf.put_u32_le(addr);
                    buf.put_u32_le(len);
                    buf.put_u8(tainted as u8);
                }
                LatchInstr::Ltnt => buf.put_u8(2),
            }
        }
        // Registers.
        let enc = |r: Option<u8>| r.map_or(0xFF, |v| v);
        buf.put_u8(enc(ev.regs.read[0]));
        buf.put_u8(enc(ev.regs.read[1]));
        buf.put_u8(enc(ev.regs.written));
    }

    /// Finishes the trace, returning the encoded bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Replays a trace as an [`EventSource`].
#[derive(Debug)]
pub struct TraceReader {
    buf: Bytes,
    error: Option<TraceError>,
}

impl TraceReader {
    /// Opens a trace, validating the header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if the magic or version is wrong.
    pub fn new(mut buf: Bytes) -> Result<Self, TraceError> {
        if buf.remaining() < 6 {
            return Err(TraceError::Truncated);
        }
        if buf.get_u32_le() != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = buf.get_u16_le();
        if version != TRACE_VERSION {
            return Err(TraceError::BadVersion { found: version });
        }
        Ok(Self { buf, error: None })
    }

    /// The decode error that ended the stream, if any.
    pub fn error(&self) -> Option<&TraceError> {
        self.error.as_ref()
    }

    fn decode(&mut self) -> Result<Event, TraceError> {
        let buf = &mut self.buf;
        ensure(buf, 5)?;
        let pc = buf.get_u32_le();
        let flags = buf.get_u8();
        let mut ev = Event::empty(pc);
        if flags & 1 != 0 {
            ev.prop = Some(get_prop(buf)?);
        }
        if flags & 2 != 0 {
            ev.prop2 = Some(get_prop(buf)?);
        }
        if flags & 4 != 0 {
            ensure(buf, 9)?;
            ev.mem = Some(MemAccess {
                addr: buf.get_u32_le(),
                len: buf.get_u32_le(),
                kind: if buf.get_u8() != 0 {
                    MemAccessKind::Write
                } else {
                    MemAccessKind::Read
                },
            });
        }
        if flags & 8 != 0 {
            ensure(buf, 1)?;
            ev.ctrl = Some(match buf.get_u8() {
                0 => {
                    ensure(buf, 5)?;
                    CtrlCheck::Reg {
                        reg: buf.get_u8(),
                        target: buf.get_u32_le(),
                    }
                }
                1 => {
                    ensure(buf, 12)?;
                    CtrlCheck::Mem {
                        addr: buf.get_u32_le(),
                        len: buf.get_u32_le(),
                        target: buf.get_u32_le(),
                    }
                }
                tag => return Err(TraceError::BadTag { tag }),
            });
        }
        if flags & 16 != 0 {
            ensure(buf, 10)?;
            let kind = match buf.get_u8() {
                0 => SourceKind::File,
                1 => SourceKind::Socket,
                2 => SourceKind::UserInput,
                tag => return Err(TraceError::BadTag { tag }),
            };
            ev.source = Some(SourceInput {
                kind,
                addr: buf.get_u32_le(),
                len: buf.get_u32_le(),
                trusted: buf.get_u8() != 0,
            });
        }
        if flags & 32 != 0 {
            ensure(buf, 9)?;
            ev.sink = Some(SinkAccess {
                kind: if buf.get_u8() != 0 {
                    SinkKind::File
                } else {
                    SinkKind::Socket
                },
                addr: buf.get_u32_le(),
                len: buf.get_u32_le(),
            });
        }
        if flags & 64 != 0 {
            ensure(buf, 1)?;
            ev.latch = Some(match buf.get_u8() {
                0 => {
                    ensure(buf, 8)?;
                    LatchInstr::Strf {
                        packed: buf.get_u64_le(),
                    }
                }
                1 => {
                    ensure(buf, 9)?;
                    LatchInstr::Stnt {
                        addr: buf.get_u32_le(),
                        len: buf.get_u32_le(),
                        tainted: buf.get_u8() != 0,
                    }
                }
                2 => LatchInstr::Ltnt,
                tag => return Err(TraceError::BadTag { tag }),
            });
        }
        ensure(buf, 3)?;
        let dec = |v: u8| if v == 0xFF { None } else { Some(v) };
        ev.regs = RegsUsed::new(
            [dec(buf.get_u8()), dec(buf.get_u8())],
            dec(buf.get_u8()),
        );
        Ok(ev)
    }
}

impl EventSource for TraceReader {
    fn next_event(&mut self) -> Option<Event> {
        if self.error.is_some() || !self.buf.has_remaining() {
            return None;
        }
        match self.decode() {
            Ok(ev) => Some(ev),
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

/// Decodes a counted event batch: the self-contained trace stream
/// `bytes` must hold exactly `count` events and nothing after them.
/// The count is checked against [`MIN_EVENT_LEN`] before anything is
/// decoded or allocated, so a hostile count cannot force work (or
/// capacity) past what the bytes could hold. `None` on any mismatch or
/// malformed region.
pub fn decode_counted(count: usize, bytes: &[u8]) -> Option<Vec<Event>> {
    if count.saturating_mul(MIN_EVENT_LEN) > bytes.len() {
        return None;
    }
    let mut reader = TraceReader::new(Bytes::from(bytes.to_vec())).ok()?;
    let mut events = Vec::with_capacity(count);
    while events.len() < count {
        events.push(reader.next_event()?);
    }
    (reader.next_event().is_none() && reader.error().is_none()).then_some(events)
}

/// Records everything an [`EventSource`] produces into a trace.
pub fn record_all<S: EventSource>(mut src: S) -> Bytes {
    let mut w = TraceWriter::new();
    while let Some(ev) = src.next_event() {
        w.record(&ev);
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::VecSource;

    fn sample_events() -> Vec<Event> {
        let mut e1 = Event::empty(10);
        e1.prop = Some(PropRule::Load { dst: 1, addr: 0x1000, len: 4 });
        e1.mem = Some(MemAccess { addr: 0x1000, len: 4, kind: MemAccessKind::Read });
        e1.regs = RegsUsed::new([Some(5), None], Some(1));
        let mut e2 = Event::empty(11);
        e2.ctrl = Some(CtrlCheck::Mem { addr: 0xFF00, len: 4, target: 42 });
        e2.sink = Some(SinkAccess { kind: SinkKind::Socket, addr: 0x2000, len: 8 });
        let mut e3 = Event::empty(12);
        e3.source = Some(SourceInput {
            kind: SourceKind::Socket,
            addr: 0x3000,
            len: 16,
            trusted: true,
        });
        e3.prop = Some(PropRule::StoreImm { addr: 0x3000, len: 16 });
        e3.prop2 = Some(PropRule::ClearDst { dst: 0 });
        let mut e4 = Event::empty(13);
        e4.latch = Some(LatchInstr::Stnt { addr: 0x40, len: 8, tainted: true });
        vec![e1, e2, e3, e4, Event::empty(14)]
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let events = sample_events();
        let trace = record_all(VecSource::new(events.clone()));
        let mut reader = TraceReader::new(trace).unwrap();
        let mut out = Vec::new();
        while let Some(ev) = reader.next_event() {
            out.push(ev);
        }
        assert!(reader.error().is_none());
        assert_eq!(out, events);
    }

    #[test]
    fn every_prop_rule_shape_roundtrips() {
        let mut events = Vec::new();
        for i in 0..64u32 {
            let mut e = Event::empty(i);
            e.prop = Some(match i % 7 {
                0 => PropRule::BinaryAlu { dst: 1, src1: 2, src2: 3 },
                1 => PropRule::UnaryAlu { dst: 1, src: 2 },
                2 => PropRule::Mov { dst: 1, src: 2 },
                3 => PropRule::ClearDst { dst: 4 },
                4 => PropRule::Load { dst: 1, addr: i * 64, len: 4 },
                5 => PropRule::Store { src: 1, addr: i * 64, len: 2 },
                _ => PropRule::StoreImm { addr: i * 64, len: 8 },
            });
            events.push(e);
        }
        let trace = record_all(VecSource::new(events.clone()));
        let mut reader = TraceReader::new(trace).unwrap();
        let mut out = Vec::new();
        while let Some(ev) = reader.next_event() {
            out.push(ev);
        }
        assert_eq!(out, events);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = TraceReader::new(Bytes::from_static(b"nope-nope")).unwrap_err();
        assert_eq!(err, TraceError::BadMagic);
    }

    #[test]
    fn truncated_stream_reports_error() {
        let trace = record_all(VecSource::new(sample_events()));
        let cut = trace.slice(0..trace.len() - 2);
        let mut reader = TraceReader::new(cut).unwrap();
        while reader.next_event().is_some() {}
        assert_eq!(reader.error(), Some(&TraceError::Truncated));
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(TRACE_MAGIC);
        buf.put_u16_le(99);
        let err = TraceReader::new(buf.freeze()).unwrap_err();
        assert_eq!(err, TraceError::BadVersion { found: 99 });
    }

    #[test]
    fn empty_trace_yields_nothing() {
        let trace = TraceWriter::new().finish();
        let mut reader = TraceReader::new(trace).unwrap();
        assert!(reader.next_event().is_none());
        assert!(reader.error().is_none());
    }
    #[test]
    fn counted_batches_decode_exactly() {
        let events = sample_events();
        let n = events.len();
        let trace = record_all(VecSource::new(events.clone()));
        assert_eq!(decode_counted(n, &trace), Some(events));
        assert_eq!(decode_counted(n + 1, &trace), None, "too few events");
        assert_eq!(decode_counted(n - 1, &trace), None, "trailing event");
        assert_eq!(decode_counted(n, &trace[..trace.len() - 1]), None, "torn event");
        assert_eq!(decode_counted(0, &trace[..6]), Some(Vec::new()));
        assert_eq!(decode_counted(0, b"nope-nope"), None, "bad header");
        // A hostile count is refused from the length alone.
        assert_eq!(decode_counted(usize::MAX, &trace), None);
        assert_eq!(decode_counted(trace.len() / MIN_EVENT_LEN + 1, &trace), None);
    }
}
