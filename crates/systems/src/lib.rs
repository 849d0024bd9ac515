//! # latch-systems
//!
//! The three LATCH-based systems evaluated in the paper, plus every
//! baseline they are compared against:
//!
//! * [`slatch`] — **S-LATCH** (paper §5.1, §6.1): software DIFT on a
//!   single core, gated by the LATCH hardware. Hardware mode runs
//!   native with coarse checks; confirmed taint traps into an
//!   instrumented image whose cost is the per-benchmark libdft
//!   slowdown; a 1000-instruction timeout returns to hardware after a
//!   clear-scan and `strf`. Produces the Fig. 13 overheads and the
//!   Fig. 14 breakdown.
//! * [`platch`] — **P-LATCH** (paper §5.2, §6.2): two-core log-based
//!   monitoring. The paper's analytic model (LBA's reported overhead
//!   localized to active 1000-instruction windows) plus bounded-FIFO
//!   queue simulations as ablations. Produces Fig. 15.
//! * [`pending`] — the §5.2 outstanding-update FIFO that keeps the
//!   lagged screen free of false negatives.
//! * [`platch_mt`] — P-LATCH run for real on two threads, hardened
//!   against injected faults.
//! * [`hlatch`] — **H-LATCH** (paper §5.3, §6.3): hardware DIFT whose
//!   tiny precise taint cache is screened by the TLB taint bits and the
//!   CTC. Produces Fig. 16 and Tables 6–7.
//! * [`session`] — one snapshottable LATCH+DIFT pipeline per monitored
//!   stream, the unit the serving layer multiplexes.
//! * [`rangecache`] — a RangeCache-style range screener, compared with
//!   the CTC on identical streams.
//! * [`baseline`] — always-on software DIFT (libdft), LBA constants,
//!   and the unfiltered taint cache.
//! * [`cost`] — the cycle cost model (paper §6.1 constants).
//! * [`report`] — epoch histograms (Fig. 5), false-positive sweeps
//!   (Fig. 6), and aggregation helpers.
//!
//! The LATCH step the systems share is written once, in the
//! crate-private `step` module: the coarse screen (TRF for registers,
//! TLB taint bits and CTC for memory) and the precise-to-coarse
//! write-back. The P-LATCH queue models share one two-core queue loop.

pub mod baseline;
pub mod cost;
pub mod hlatch;
pub mod platch;
pub mod pending;
pub mod platch_mt;
pub mod rangecache;
pub mod report;
pub mod session;
pub mod slatch;
mod step;
