//! System-level throughput of the H-LATCH cache stack, plus an
//! ablation comparing screened vs. unscreened tag-cache pressure and a
//! domain-granularity sweep (the Fig. 6 trade-off, measured as
//! simulation cost). Events are generated before timing starts, so
//! only the system is timed.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use latch_core::config::LatchConfig;
use latch_sim::event::{Event, EventSource};
use latch_systems::hlatch::{HLatch, HLatchReport, TagCacheConfig};
use latch_workloads::BenchmarkProfile;

const EVENTS: u64 = 50_000;

fn events(profile: &BenchmarkProfile) -> Vec<Event> {
    let mut src = profile.stream(1, EVENTS);
    std::iter::from_fn(|| src.next_event()).collect()
}

fn replay(mut h: HLatch, evs: &[Event]) -> HLatchReport {
    for ev in evs {
        h.on_event(ev);
    }
    h.report()
}

fn hlatch_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("hlatch_system");
    g.throughput(Throughput::Elements(EVENTS));
    for name in ["gcc", "sphinx"] {
        let evs = events(&BenchmarkProfile::by_name(name).unwrap());
        g.bench_function(name, |b| {
            b.iter_batched(HLatch::new, |h| replay(h, &evs), BatchSize::LargeInput)
        });
    }
    g.finish();
}

fn granularity_sweep(c: &mut Criterion) {
    let evs = events(&BenchmarkProfile::by_name("perlbench").unwrap());
    let mut g = c.benchmark_group("hlatch_domain_granularity");
    g.throughput(Throughput::Elements(EVENTS));
    for domain in [4u32, 64, 1024] {
        let params = LatchConfig::h_latch()
            .domain_bytes(domain)
            .build()
            .unwrap();
        g.bench_function(format!("{domain}B"), |b| {
            b.iter_batched(
                || HLatch::with_params(params, TagCacheConfig::h_latch()),
                |h| replay(h, &evs),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, hlatch_throughput, granularity_sweep);
criterion_main!(benches);
