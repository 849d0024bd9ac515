//! System-level throughput of the S-LATCH simulator and of the session
//! pipeline (events/second) on representative calibrated workloads,
//! plus the synthetic stream generator itself.
//!
//! The system groups replay pre-generated events, so they time the
//! system alone; `synthetic_generator` times the generator on purpose.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use latch_sim::event::{Event, EventSource};
use latch_systems::session::SessionPipeline;
use latch_systems::slatch::SLatch;
use latch_workloads::BenchmarkProfile;

const EVENTS: u64 = 50_000;

/// `ServeConfig`'s default parity-scrub cadence, as latchd runs it.
const SCRUB_INTERVAL: u64 = 512;

fn events(profile: &BenchmarkProfile) -> Vec<Event> {
    let mut src = profile.stream(1, EVENTS);
    std::iter::from_fn(|| src.next_event()).collect()
}

fn generator_throughput(c: &mut Criterion) {
    let profile = BenchmarkProfile::by_name("gcc").unwrap();
    let mut g = c.benchmark_group("synthetic_generator");
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("gcc_stream", |b| {
        b.iter(|| {
            let mut src = profile.stream(1, EVENTS);
            let mut n = 0u64;
            while src.next_event().is_some() {
                n += 1;
            }
            n
        })
    });
    g.finish();
}

fn slatch_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("slatch_system");
    g.throughput(Throughput::Elements(EVENTS));
    // Low-taint (hardware-mode dominated) and high-taint (software-mode
    // dominated) extremes.
    for name in ["bzip2", "astar"] {
        let profile = BenchmarkProfile::by_name(name).unwrap();
        let evs = events(&profile);
        g.bench_function(name, |b| {
            b.iter_batched(
                || SLatch::for_profile(&profile),
                |mut s| {
                    for ev in &evs {
                        s.on_event(ev);
                    }
                    s.report()
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn session_pipeline_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("session_pipeline");
    g.throughput(Throughput::Elements(EVENTS));
    for name in ["bzip2", "astar"] {
        let evs = events(&BenchmarkProfile::by_name(name).unwrap());
        g.bench_function(name, |b| {
            b.iter_batched(
                || SessionPipeline::new(SCRUB_INTERVAL),
                |mut pipe| {
                    for ev in &evs {
                        pipe.apply(ev);
                    }
                    pipe.cycles()
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    generator_throughput,
    slatch_throughput,
    session_pipeline_throughput
);
criterion_main!(benches);
