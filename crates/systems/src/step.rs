//! The LATCH step every system shares (paper §4–5): a cheap coarse
//! [`screen`] in front of precise DIFT, and a [`write_back`] that keeps
//! the coarse state a superset of the precise state. The session
//! pipeline and both P-LATCH queue models call both. S-LATCH defers its
//! clear-scan and `strf` to the return to hardware mode (§5.1.4) and
//! H-LATCH updates the coarse state at commit (Fig. 12), so they call
//! only the screen.

use latch_core::unit::{CheckOutcome, LatchUnit};
use latch_dift::engine::DiftEngine;
use latch_sim::event::{Event, MemAccessKind};
use latch_sim::machine::DiftStep;

/// What the coarse screen saw for one event.
pub(crate) struct Screen {
    /// A register or the memory operand is coarsely tainted.
    pub hit: bool,
    /// The memory operand's check, when the event has one.
    pub mem: Option<CheckOutcome>,
}

/// Screens one event: the registers it reads, then the register it
/// writes, against the TRF, and its memory operand through the unit.
pub(crate) fn screen(latch: &mut LatchUnit, ev: &Event) -> Screen {
    let regs = ev.regs.reads().any(|r| latch.reg_tainted(r as usize))
        || ev
            .regs
            .written
            .is_some_and(|w| latch.reg_tainted(w as usize));
    let mem = ev.mem.map(|mem| match mem.kind {
        MemAccessKind::Read => latch.check_read(mem.addr, mem.len),
        MemAccessKind::Write => latch.check_write(mem.addr, mem.len),
    });
    Screen {
        hit: regs || mem.is_some_and(|out| out.coarse_tainted),
        mem,
    }
}

/// Mirrors one precise step into the coarse tier so that it keeps
/// covering the precise state. Returns the penalty cycles of the
/// coarse taint write.
pub(crate) fn write_back(latch: &mut LatchUnit, dift: &DiftEngine, step: &DiftStep) -> u64 {
    let mut penalty = 0;
    if let Some((addr, len, tainted)) = step.mem_taint_write {
        penalty = latch.write_taint(addr, len, tainted).penalty_cycles;
        if !tainted {
            latch.clear_scan(dift);
        }
    }
    latch.trf_mut().load_packed(dift.regs().to_packed());
    penalty
}
