//! Helpers shared by the serve stress and bench bins (`crash_stress`,
//! `latchd_stress`, `overload_stress`, `serve_bench`): the seeded
//! entropy source, the per-session event streams, and the solo replay
//! every served report is checked against. Each bin pulls it in with
//! `mod common;` and uses the parts it needs.

#![allow(dead_code)]

use latch_sim::event::{Event, EventSource};
use latch_systems::session::SessionPipeline;
use latch_workloads::all_profiles;

/// SplitMix64 — the one deterministic entropy source of the bins.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `n` events of workload profile `profile_idx` (modulo the profile
/// count), generated from `seed`.
pub fn stream(profile_idx: usize, seed: u64, n: u64) -> Vec<Event> {
    let profiles = all_profiles();
    let mut src = profiles[profile_idx % profiles.len()].stream(seed, n);
    std::iter::from_fn(|| src.next_event()).collect()
}

/// The encoded report of a solo pipeline that applied exactly `evs` —
/// what a served session's report must equal byte for byte.
pub fn solo(evs: &[Event], scrub_interval: u64) -> Vec<u8> {
    let mut pipe = SessionPipeline::new(scrub_interval);
    for ev in evs {
        pipe.apply(ev);
    }
    pipe.report().encode()
}
