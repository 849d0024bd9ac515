//! Pins every calibrated profile's synthetic stream.
//!
//! Every experiment, conformance leg and stress run is driven by these
//! streams, so a change to the generator (an index over the taint
//! layout, a faster lookup) must leave each stream event-for-event
//! identical. The expected values are the recorded digests of the
//! streams below; an intentional change to the generator must
//! re-record them and say why.

use latch_sim::event::EventSource;
use latch_workloads::all_profiles;

const EVENTS: u64 = 2_000;

/// FNV-1a over every event's `Debug` rendering, in stream order.
fn stream_digest(name: &str, seed: u64) -> u64 {
    let profile = all_profiles().into_iter().find(|p| p.name == name).unwrap();
    let mut src = profile.stream(seed, EVENTS);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut n = 0u64;
    while let Some(ev) = src.next_event() {
        for &b in format!("{ev:?};").as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        n += 1;
    }
    assert_eq!(n, EVENTS, "{name}/{seed}: stream length");
    h
}

const EXPECTED: &[(&str, u64, u64)] = &[
    ("astar", 3, 0x7864950d047fb0f2),
    ("astar", 42, 0xde63e93b28c2d84a),
    ("bzip2", 3, 0x4941a494a9761574),
    ("bzip2", 42, 0x23f116646409d8c8),
    ("cactusADM", 3, 0x84a168c6c8f555aa),
    ("cactusADM", 42, 0x8f5ff72690110837),
    ("calculix", 3, 0x647e4464d9665056),
    ("calculix", 42, 0x78f48fcc15fc8fdf),
    ("gcc", 3, 0xa7ff40b152b4b605),
    ("gcc", 42, 0x52d4c59e957aea7c),
    ("gobmk", 3, 0xa11c79e31fe4cb9e),
    ("gobmk", 42, 0xab52362504e9e049),
    ("gromacs", 3, 0x5b16134ff3181c56),
    ("gromacs", 42, 0x4dde4b8cc294d80d),
    ("h264ref", 3, 0xeb420a6a77bb6db1),
    ("h264ref", 42, 0x048b8d833032676a),
    ("hmmer", 3, 0x273c75cd5fd30222),
    ("hmmer", 42, 0x9ce17edd5b9aec00),
    ("lbm", 3, 0x7d49847497ca9428),
    ("lbm", 42, 0x3747a4806a7eda40),
    ("mcf", 3, 0x36145ccf6d6d2446),
    ("mcf", 42, 0x988e3750bf58a128),
    ("namd", 3, 0x59de0db1a9f3bcc6),
    ("namd", 42, 0x726054742433d895),
    ("omnetpp", 3, 0x2a46bffa5b7703a2),
    ("omnetpp", 42, 0xe25a724bf22e0483),
    ("perlbench", 3, 0x4848860b3623dc74),
    ("perlbench", 42, 0x513c88ab4a02b554),
    ("povray", 3, 0xf871ec4315a759e9),
    ("povray", 42, 0xc0c135b49abc1a36),
    ("sjeng", 3, 0x53c489f288534cb4),
    ("sjeng", 42, 0x6e0abb703c7a4131),
    ("soplex", 3, 0x976b854182744131),
    ("soplex", 42, 0xd20ecc66f7a77035),
    ("sphinx", 3, 0x2363c88a19112ba0),
    ("sphinx", 42, 0x4a1d250cbe8595b0),
    ("wrf", 3, 0xabb6eec33aa41fa4),
    ("wrf", 42, 0xa1709d13419b76d1),
    ("Xalan", 3, 0x710f9aaa0e90b387),
    ("Xalan", 42, 0x20ee89b754ddc21e),
    ("curl", 3, 0x4775ae876117aa58),
    ("curl", 42, 0x5543313f9864a80d),
    ("wget", 3, 0x0c6c373de6e55348),
    ("wget", 42, 0xb945a744b3f95de5),
    ("mySQL", 3, 0x5ea45563d6a5ca42),
    ("mySQL", 42, 0xa7223095a4ee8e6a),
    ("apache", 3, 0x11622ac89ecefe19),
    ("apache", 42, 0xa337957d8bff6cee),
    ("apache-25", 3, 0x2aedae03abce8a12),
    ("apache-25", 42, 0x3f24a61315923247),
    ("apache-50", 3, 0x2c1fa1558c88b8c9),
    ("apache-50", 42, 0x0ed4fbf3d43092e0),
    ("apache-75", 3, 0x69ba8b0350832ca8),
    ("apache-75", 42, 0xb9df130178af0120),
];

#[test]
fn every_profile_stream_is_pinned() {
    let mut got = Vec::new();
    for profile in all_profiles() {
        for seed in [3u64, 42] {
            got.push((profile.name, seed, stream_digest(profile.name, seed)));
        }
    }
    let render = |rows: &[(&str, u64, u64)]| -> String {
        rows.iter()
            .map(|(n, s, d)| format!("    ({n:?}, {s}, {d:#018x}),\n"))
            .collect()
    };
    assert_eq!(render(EXPECTED), render(&got), "a profile's stream moved");
}
