//! `wallbench` — wall-clock benchmark of the latch wire path.
//!
//! ```text
//! wallbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives the shipped `latchd` binary over TCP loopback from
//! closed-loop client connections, checks every drained
//! report against a solo replay, and prints one JSON object as the last
//! line of stdout. See `wallbench/README.md`.

mod drive;
mod gate;
mod procs;
mod replay;
mod spec;
mod trace;

use drive::{Outcome, Round};
use gate::{Counts, Gate};
use latch_serve::{DurableConfig, ServeConfig};
use spec::{Inputs, Spec};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{Span, LIVE, REPLAY};

/// Every run must be over well inside the 180 s a run may take.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e: std::num::ParseIntError| bad(e.to_string()))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?
            }
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = spec::by_name(&name).ok_or_else(|| {
        let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("wallbench: run exceeded {WATCHDOG:?}; stopping the daemons");
        procs::kill_all();
        std::process::exit(3);
    });
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("wallbench: {e}");
            procs::kill_all();
            std::process::exit(1);
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of ascending `sorted`.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::new();
    for x in metrics {
        if !x.value.is_finite() {
            return Err(format!("metric {} is not finite", x.name));
        }
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name,
            x.value + 0.0,
            x.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

fn run(args: &Args) -> Result<String, String> {
    let spec = args.spec;
    let target = PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into()),
    );
    let latchd = drive::latchd_bin(&target);
    if !latchd.is_file() {
        return Err(format!(
            "{} is missing; run wallbench/run.sh to build it",
            latchd.display()
        ));
    }
    let root = target.join("wallbench");
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;

    let t_gen = Instant::now();
    let inputs = spec.generate(args.seed);
    println!(
        "wallbench: {} seed {}: {} sessions, {} batches, {} events generated in {:.2} s (before any clock)",
        spec.name,
        args.seed,
        inputs.sessions.len(),
        inputs.batches.len(),
        inputs.total_events(),
        t_gen.elapsed().as_secs_f64()
    );
    let state = procs::state_root(&root);
    std::fs::create_dir_all(&state).map_err(|e| format!("create {}: {e}", state.display()))?;
    let dcfg = DurableConfig::default();
    println!(
        "wallbench: durability policy group_commit_events={} snapshot_every={} (daemon defaults); \
         traffic is host TCP loopback; state dirs live under {} on {}",
        dcfg.group_commit_events,
        dcfg.snapshot_every,
        state.display(),
        procs::mount_type(&state).map_or("the checkout's filesystem".into(), |t| format!(
            "a private {t}"
        ))
    );

    let scrub_interval = ServeConfig::default().scrub_interval;
    let mut gate = Gate::new(scrub_interval);
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut counts: Option<(Counts, Vec<usize>)> = None;
    let mut failure: Option<String> = None;
    let host0 = procs::host_cpu_ticks();
    let mut measured = 0.0f64;
    let mut k = 0usize;
    while measured < args.seconds || untraced.is_empty() || (args.trace && traced.is_empty()) {
        let t = Instant::now();
        let is_traced = args.trace && k % 2 == 1;
        let round = if is_traced {
            drive::traced_round(spec, &inputs, &root)?
        } else {
            drive::spawned_round(spec, &inputs, &latchd, &root)?
        };
        measured += t.elapsed().as_secs_f64();
        k += 1;
        failure = match (&round.failure, gate.check(&inputs, &round)) {
            (Some(e), _) => Some(e.clone()),
            (None, Err(e)) => Some(e),
            (None, Ok(c)) => {
                let mut shed: Vec<usize> = round
                    .recs
                    .iter()
                    .filter(|r| r.outcome == Outcome::Shed)
                    .map(|r| r.batch)
                    .collect();
                shed.sort_unstable();
                // One connection sends in a fixed order, so the service's
                // decisions, and every count, must repeat exactly.
                match &counts {
                    Some(prev) if spec.conns == 1 && *prev != (c, shed.clone()) => {
                        Some("counts or shed set changed between rounds of one seed".into())
                    }
                    Some(_) => None,
                    None => {
                        counts = Some((c, shed));
                        None
                    }
                }
            }
        };
        if is_traced {
            traced.push(round);
        } else {
            untraced.push(round);
        }
        if failure.is_some() {
            break;
        }
    }
    let host = procs::host_cpu_since(&host0);
    if host.len() == 8 {
        let share = |i: usize| host[i] as f64 * 100.0 / host.iter().sum::<u64>().max(1) as f64;
        println!(
            "wallbench: host CPU while measuring: {:.1} % steal, {:.1} % iowait, {:.1} % idle",
            share(7),
            share(4),
            share(3)
        );
    }
    let all = || untraced.iter().chain(traced.iter());
    let attempted: u64 = all().map(|r| r.recs.len() as u64).sum();
    let failed_batches: u64 = all()
        .map(|r| {
            r.recs
                .iter()
                .filter(|x| x.outcome == Outcome::Failed)
                .count() as u64
        })
        .sum();
    // A failed batch, a lost drain or a failed gate: report the failure,
    // not the numbers.
    if failed_batches > 0 || failure.is_some() {
        eprintln!(
            "wallbench: {failed_batches} batch(es) failed; {}",
            failure.as_deref().unwrap_or("no other failure")
        );
        let failed = failed_batches + u64::from(failure.is_some());
        return json_line(false, attempted.max(1), failed, &[]);
    }
    let (counts, shed) = counts.expect("at least one round passed the gate");
    let redrains: u32 = all().map(|r| r.redrains).sum();
    println!(
        "wallbench: {redrains} restart(s) of latchd to re-drain a round whose Drained reply was lost \
         (latchd exited 0 before writing it; see README)"
    );
    println!(
        "counts: events={} selected={} checks={} resolved_tlb={} coarse_hits={} dift_touching={} mem_taint_writes={} violations={} shed_batches={}",
        counts.events,
        counts.selected,
        counts.checks,
        counts.resolved_tlb,
        counts.coarse_hits,
        counts.dift_touching,
        counts.mem_taint_writes,
        counts.violations,
        shed.len()
    );

    let metrics = if args.trace {
        per_layer(
            spec,
            &inputs,
            &untraced,
            &traced,
            &counts,
            &root,
            scrub_interval,
        )?
    } else {
        end_to_end(&inputs, &untraced)
    };
    json_line(true, attempted, 0, &metrics)
}

fn events_per_s(inputs: &Inputs, rounds: &[Round]) -> f64 {
    let admitted: u64 = rounds.iter().map(|r| r.admitted_events(inputs)).sum();
    admitted as f64 / rounds.iter().map(|r| r.wall_s).sum::<f64>()
}

/// Acks per window: a window's p99 then has at least 20 samples beyond it.
const WINDOW_ACKS: usize = 2000;

/// Splits a run's rounds into consecutive windows of at least
/// [`WINDOW_ACKS`] acks; a short remainder joins the last window.
fn windows(rounds: &[Round]) -> Vec<&[Round]> {
    let mut spans: Vec<std::ops::Range<usize>> = Vec::new();
    let (mut start, mut acks) = (0, 0);
    for (i, r) in rounds.iter().enumerate() {
        acks += r.recs.len();
        if acks >= WINDOW_ACKS {
            spans.push(start..i + 1);
            (start, acks) = (i + 1, 0);
        }
    }
    match spans.last_mut() {
        Some(last) => last.end = rounds.len(),
        None => spans.push(0..rounds.len()),
    }
    spans.into_iter().map(|s| &rounds[s]).collect()
}

/// Share of a run's windows, the ones with the least host steal, that
/// the timings are taken from.
const CALM_SHARE: f64 = 0.25;

fn steal_share(w: &[Round]) -> f64 {
    let host: u64 = w.iter().map(|r| r.host_ticks).sum();
    w.iter().map(|r| r.steal_ticks).sum::<u64>() as f64 / host.max(1) as f64
}

/// Every timing is taken per window and reported as the median over
/// the [`CALM_SHARE`] of windows in which the hypervisor stole the
/// least CPU from this VM, so other tenants' load on the host moves it
/// only when it covers the whole run.
fn end_to_end(inputs: &Inputs, rounds: &[Round]) -> Vec<Metric> {
    let admitted: u64 = rounds.iter().map(|r| r.admitted_events(inputs)).sum();
    let offered: u64 = rounds
        .iter()
        .flat_map(|r| r.recs.iter())
        .map(|x| inputs.events(x.batch).len() as u64)
        .sum();
    let mut windows = windows(rounds);
    let all_windows = windows.len();
    let min_acks = windows
        .iter()
        .map(|w| w.iter().map(|r| r.recs.len()).sum::<usize>())
        .min()
        .unwrap_or(0);
    let all_steal = steal_share(rounds);
    windows.sort_by(|a, b| steal_share(a).total_cmp(&steal_share(b)));
    windows.truncate(((all_windows as f64 * CALM_SHARE).ceil() as usize).max(1));
    let per_window = |f: &dyn Fn(&[Round]) -> f64| median(windows.iter().map(|w| f(w)).collect());
    // Runs with a failed batch report no numbers, so every sample here
    // was answered.
    let acks = |w: &[Round]| {
        let mut a: Vec<f64> = w
            .iter()
            .flat_map(|r| r.recs.iter())
            .map(|x| (x.acked_ns - x.sent_ns) as f64 / 1e3)
            .collect();
        a.sort_by(f64::total_cmp);
        a
    };
    let samples: usize = rounds.iter().map(|r| r.recs.len()).sum();
    println!(
        "wallbench: {} rounds in {} windows, {} ack samples (at least {} per window), {} events admitted of {} offered",
        rounds.len(),
        all_windows,
        samples,
        min_acks,
        admitted,
        offered
    );
    println!(
        "wallbench: timings from the {} calmest windows: {:.1}-{:.1} % host steal, against {:.1} % over the run",
        windows.len(),
        steal_share(windows[0]) * 100.0,
        steal_share(windows[windows.len() - 1]) * 100.0,
        all_steal * 100.0
    );
    vec![
        m(
            "setup_s",
            "s",
            median(rounds.iter().map(|r| r.setup_s).collect()),
        ),
        m(
            "events_per_s",
            "1/s",
            per_window(&|w| events_per_s(inputs, w)),
        ),
        m(
            "ack_p50_us",
            "us",
            per_window(&|w| percentile(&acks(w), 50.0)),
        ),
        m(
            "ack_p99_us",
            "us",
            per_window(&|w| percentile(&acks(w), 99.0)),
        ),
        m(
            "cpu_us_per_event",
            "us",
            per_window(&|w| {
                let admitted: u64 = w.iter().map(|r| r.admitted_events(inputs)).sum();
                w.iter().map(|r| r.cpu_s).sum::<f64>() * 1e6 / admitted as f64
            }),
        ),
        m(
            "rss_mib",
            "MiB",
            median(
                rounds
                    .iter()
                    .map(|r| r.rss_bytes as f64 / (1024.0 * 1024.0))
                    .collect(),
            ),
        ),
        m("admitted_ratio", "ratio", admitted as f64 / offered as f64),
    ]
}

/// Sums over spans of one phase and name.
struct Spans<'a>(&'a [Span]);

impl Spans<'_> {
    fn of(&self, phase: u8, name: &'static str) -> impl Iterator<Item = &Span> + '_ {
        self.0
            .iter()
            .filter(move |s| s.phase == phase && s.name == name)
    }

    fn busy(&self, phase: u8, name: &'static str) -> f64 {
        self.of(phase, name).map(|s| s.busy_ns as f64).sum()
    }

    fn count(&self, phase: u8, name: &'static str) -> f64 {
        self.of(phase, name).map(|s| s.count as f64).sum()
    }

    fn bytes(&self, phase: u8, name: &'static str) -> f64 {
        self.of(phase, name).map(|s| s.bytes as f64).sum()
    }

    /// Mean busy time per call, or 0 when the layer was never called.
    fn mean(&self, phase: u8, name: &'static str) -> f64 {
        let n = self.count(phase, name);
        if n == 0.0 {
            0.0
        } else {
            self.busy(phase, name) / n
        }
    }
}

fn per_layer(
    spec: &Spec,
    inputs: &Inputs,
    untraced: &[Round],
    traced: &[Round],
    c: &Counts,
    root: &std::path::Path,
    scrub_interval: u64,
) -> Result<Vec<Metric>, String> {
    let last = traced.last().expect("a traced round ran");
    let mut order = last.recs.clone();
    order.sort_by_key(|r| r.acked_ns);
    let replay_dir = procs::StateDir::new(root, &format!("{}-replay", spec.name))?;
    let svc = replay::service(spec, inputs, &order, &last.reports, &replay_dir.0)?;
    let snapshot_ns = replay::sessions(inputs, &order, scrub_interval)?;
    let spans = trace::take();
    let path = root.join(format!("spans-{}.jsonl", spec.name));
    trace::write_jsonl(&path, &spans).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "wallbench: {} spans written to {}",
        spans.len(),
        path.display()
    );
    let sp = Spans(&spans);

    let live_admitted: f64 = traced
        .iter()
        .map(|r| r.admitted_events(inputs) as f64)
        .sum();
    let replayed: f64 = order
        .iter()
        .map(|r| inputs.events(r.batch).len() as f64)
        .sum();
    let admitted = last.admitted_events(inputs) as f64;
    let attempts: f64 = traced
        .iter()
        .flat_map(|r| r.recs.iter())
        .map(|r| f64::from(r.attempts))
        .sum();
    let retries = attempts - traced.iter().map(|r| r.recs.len() as f64).sum::<f64>();
    let pushes: f64 = traced
        .iter()
        .flat_map(|r| r.recs.iter())
        .map(|r| f64::from(r.pushes))
        .sum();

    // Pump self time: the pump span minus the storage calls inside it
    // and the pipeline work (apply, durable snapshot) of the batches it
    // applied, both measured in the decomposed replay.
    let apply_ns: BTreeMap<u64, f64> = sp
        .of(REPLAY, "session.apply")
        .map(|s| (s.req, s.busy_ns as f64))
        .collect();
    let pumps: Vec<&Span> = sp.of(REPLAY, "sched.pump").collect();
    let snapshot_every = DurableConfig::default().snapshot_every;
    let mut applied = vec![0u64; inputs.sessions.len()];
    let mut snapshotted = vec![0u64; inputs.sessions.len()];
    let mut pump_self = 0.0;
    for (span, batches) in pumps.iter().zip(&svc.pumped) {
        let storage: f64 = spans
            .iter()
            .filter(|c| c.parent == span.id && c.name.starts_with("storage."))
            .map(|c| c.busy_ns as f64)
            .sum();
        let mut pipeline: f64 = batches
            .iter()
            .map(|&b| apply_ns.get(&(b as u64)).copied().unwrap_or(0.0))
            .sum();
        for &b in batches {
            applied[inputs.batches[b].session] += inputs.events(b).len() as u64;
        }
        for (s, snap) in snapshot_ns.iter() {
            if applied[*s] - snapshotted[*s] >= snapshot_every {
                pipeline += snap;
                snapshotted[*s] = applied[*s];
            }
        }
        pump_self += (span.busy_ns as f64 - storage - pipeline).max(0.0);
    }

    // Residual: what the client waited for beyond the server-side
    // spans of the same batch.
    let mut inproc: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| {
        s.phase == REPLAY && matches!(s.name, "proto.decode" | "serve.admit" | "sched.pump")
    }) {
        *inproc.entry(s.req).or_default() += s.busy_ns as f64;
    }
    let mut residual: Vec<f64> = last
        .recs
        .iter()
        .filter(|r| r.outcome == Outcome::Admitted)
        .map(|r| {
            ((r.acked_ns - r.sent_ns) as f64
                - inproc.get(&(r.batch as u64)).copied().unwrap_or(0.0))
                / 1e3
        })
        .collect();
    residual.sort_by(f64::total_cmp);

    let offered_untraced: f64 = untraced
        .iter()
        .flat_map(|r| r.recs.iter())
        .map(|x| inputs.events(x.batch).len() as f64)
        .sum();
    let shed_untraced: f64 = untraced
        .iter()
        .flat_map(|r| r.recs.iter())
        .filter(|x| x.outcome == Outcome::Shed)
        .map(|x| inputs.events(x.batch).len() as f64)
        .sum();
    let report = svc.stats;
    println!(
        "counts: evictions={} restores={} shed_events={} demotions={} promotions={} coarse_events={}",
        report.evictions,
        report.restores,
        report.shed_events,
        report.demotions,
        report.promotions,
        report.coarse_events
    );
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let traced_eps = events_per_s(inputs, traced);
    let untraced_eps = events_per_s(inputs, untraced);
    println!("wallbench: events_per_s untraced {untraced_eps} traced {traced_eps}");
    Ok(vec![
        m(
            "proto.encode_ns_per_event",
            "ns",
            sp.busy(REPLAY, "proto.encode") / replayed,
        ),
        m(
            "proto.decode_ns_per_event",
            "ns",
            sp.busy(REPLAY, "proto.decode") / replayed,
        ),
        m(
            "proto.bytes_per_event",
            "B",
            sp.bytes(REPLAY, "proto.encode") / replayed,
        ),
        m(
            "journal.encode_ns_per_event",
            "ns",
            sp.busy(REPLAY, "journal.encode") / replayed,
        ),
        m("serve.admit_us", "us", sp.mean(REPLAY, "serve.admit") / 1e3),
        m("serve.retry_ratio", "ratio", ratio(retries, attempts)),
        m(
            "storage.append_us",
            "us",
            sp.mean(LIVE, "storage.append") / 1e3,
        ),
        m(
            "storage.fsync_us",
            "us",
            sp.mean(LIVE, "storage.fsync") / 1e3,
        ),
        m(
            "storage.write_atomic_us",
            "us",
            sp.mean(LIVE, "storage.write_atomic") / 1e3,
        ),
        m(
            "storage.bytes_per_event",
            "B",
            (sp.bytes(LIVE, "storage.append") + sp.bytes(LIVE, "storage.write_atomic"))
                / live_admitted,
        ),
        m(
            "storage.fsyncs_per_kevent",
            "count",
            sp.count(LIVE, "storage.fsync") * 1e3 / live_admitted,
        ),
        m("sched.pump_us_per_event", "us", pump_self / admitted / 1e3),
        m(
            "sched.evictions_per_kevent",
            "count",
            report.evictions as f64 * 1e3 / admitted,
        ),
        m(
            "session.apply_ns_per_event",
            "ns",
            sp.busy(REPLAY, "session.apply") / admitted,
        ),
        m(
            "session.snapshot_us",
            "us",
            sp.mean(REPLAY, "session.snapshot") / 1e3,
        ),
        m(
            "session.selected_ratio",
            "ratio",
            ratio(c.selected as f64, c.events as f64),
        ),
        m("core.check_ns", "ns", sp.mean(REPLAY, "core.check")),
        m(
            "core.coarse_hit_ratio",
            "ratio",
            ratio(c.coarse_hits as f64, c.checks as f64),
        ),
        m(
            "core.tlb_resolved_ratio",
            "ratio",
            ratio(c.resolved_tlb as f64, c.checks as f64),
        ),
        m(
            "core.clear_scan_us",
            "us",
            sp.mean(REPLAY, "core.clear_scan") / 1e3,
        ),
        m(
            "core.clear_scans_per_kevent",
            "count",
            sp.count(REPLAY, "core.clear_scan") * 1e3 / admitted,
        ),
        m(
            "dift.apply_ns_per_event",
            "ns",
            sp.mean(REPLAY, "dift.apply"),
        ),
        m("wire.frames_per_ack", "count", ratio(pushes, attempts)),
        m(
            "wire.rtt_residual_us",
            "us",
            if residual.is_empty() {
                0.0
            } else {
                percentile(&residual, 50.0)
            },
        ),
        m("overload.shed_events", "count", report.shed_events as f64),
        m("overload.demotions", "count", report.demotions as f64),
        m(
            "overload.degraded_events",
            "count",
            report.coarse_events as f64,
        ),
        m(
            "run.shed_ratio",
            "ratio",
            ratio(shed_untraced, offered_untraced),
        ),
        m(
            "trace.overhead_events_per_s",
            "1/s",
            traced_eps - untraced_eps,
        ),
    ])
}
