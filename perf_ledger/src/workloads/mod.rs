//! The five workloads and the measurement protocol the four library
//! workloads share. Each workload draws its inputs from `--seed`, hands the
//! program only the generated data, and checks every output against the
//! serial reference of its family.

mod constant;
mod segmented;
mod service;
mod varying;

use crate::replay::{Clock, Replay, Stage};
use crate::stats::{median, percentile};
use crate::trace::{self, Tracer};
use crate::{peak_rss_mib, Config, Report};
use plr_core::element::Element;
use plr_core::error::EngineError;
use plr_core::plan;
use plr_core::validate::{validate, PAPER_FLOAT_TOLERANCE};
use plr_parallel::RunStats;
use std::hint::black_box;
use std::time::Instant;

/// Workload names, in the order `run` executes them.
pub const NAMES: [&str; 5] = [
    "lowpass_f32_64mi",
    "psum2_i64_16mi",
    "ssm_f32_512ki",
    "sparse_seg_f64_16mi",
    "service_mix",
];

/// Runs one workload.
pub fn run(name: &str, cfg: &Config) -> Result<Report, String> {
    match name {
        "lowpass_f32_64mi" => measure(&mut constant::Constant::lowpass(cfg), cfg),
        "psum2_i64_16mi" => measure(&mut constant::Constant::psum2(cfg), cfg),
        "ssm_f32_512ki" => measure(&mut varying::Ssm::new(cfg), cfg),
        "sparse_seg_f64_16mi" => measure(&mut segmented::Sparse::new(cfg), cfg),
        "service_mix" => service::run(cfg),
        _ => Err(format!(
            "unknown workload `{name}` (known: {})",
            NAMES.join(", ")
        )),
    }
}

/// The seeded input generators of a workload, exposed for tests of
/// reproducibility: the first input each workload would feed the program.
pub fn first_input(name: &str, cfg: &Config) -> Option<Vec<f64>> {
    let to_f64 = |v: Vec<_>| v.into_iter().map(Element::to_f64).collect::<Vec<f64>>();
    Some(match name {
        "lowpass_f32_64mi" => to_f64(constant::lowpass_input(cfg)),
        "psum2_i64_16mi" => constant::psum2_input(cfg)
            .into_iter()
            .map(|v| v as f64)
            .collect(),
        "ssm_f32_512ki" => {
            let (x, gates) = varying::inputs(cfg, 0);
            x.into_iter().chain(gates).map(f64::from).collect()
        }
        "sparse_seg_f64_16mi" => segmented::input(cfg),
        "service_mix" => service::first_rows(cfg)
            .into_iter()
            .map(|v| v as f64)
            .collect(),
        _ => return None,
    })
}

/// A library workload: one runner driven request by request from one
/// caller thread (a closed loop of one client).
trait Library {
    type E: Element;
    /// Elements per request.
    fn elems(&self) -> usize;
    /// Worker threads the runner uses.
    fn threads(&self) -> usize;
    /// Prepares request `i`'s input; returns the seconds its copy of the
    /// pristine input into the request buffer took (2 words per element,
    /// the paper's memcpy roof), through [`refresh_copy`].
    fn refresh(&mut self, i: usize) -> f64;
    /// Drops the program objects (outside the set-up clock).
    fn teardown(&mut self);
    /// Constructs the program objects from scratch and runs the first
    /// request on the refreshed input.
    fn setup(&mut self) -> Result<Ran, EngineError>;
    /// One request: the public calls the request time covers. A tracer
    /// records a child span (under `parent`) around each of them.
    fn call(&mut self, tracer: Option<(&mut Tracer, u64, u64)>) -> Result<Ran, EngineError>;
    /// Whether request `i`'s output matches the serial reference.
    fn check(&mut self, i: usize) -> bool;
    /// Start and end of one plan build from a cold cache.
    fn plan_build(&mut self) -> (Instant, Instant);
    /// Start and end of one plan-cache hit; `None` when the family has no
    /// cache.
    fn plan_hit(&mut self) -> Option<(Instant, Instant)>;
    /// Replays the last request's input on one thread; returns the
    /// replay's seconds and whether its output agrees with the runner's.
    /// Called last: it may reuse the reference buffer.
    fn replay(&mut self, clock: &mut Clock<'_>) -> (f64, bool);
    /// The pristine input, for the read-bandwidth reference.
    fn input(&self) -> &[Self::E];
}

/// Every `SETUP_EVERY`-th iteration of the measured phase is a set-up
/// (fresh program objects plus their first request) instead of a plain
/// request, so set-up is sampled over the same stretch of time as the
/// requests and drifts of the host move both alike.
const SETUP_EVERY: usize = 8;

fn min_iterations(cfg: &Config) -> usize {
    if cfg.quick {
        4
    } else {
        24
    }
}

/// Repetitions of the single-thread replays and the plan probes.
fn probe_reps(cfg: &Config) -> usize {
    if cfg.quick {
        1
    } else {
        3
    }
}

/// The fast decile, in percent: on a host whose speed drifts while it runs
/// (other tenants' load), the fastest tenth of the requests tracks the
/// code's own speed more steadily from run to run than the median does.
pub const FAST_DECILE: f64 = 10.0;

/// Checks `got` against `expected` with the paper's validation rule:
/// `PAPER_FLOAT_TOLERANCE` for floats; exact for integers, where slice
/// equality gives `validate`'s verdict at memcmp speed (the service
/// workload checks every row on its client thread).
fn agrees<T: Element>(expected: &[T], got: &[T]) -> bool {
    if T::IS_FLOAT {
        validate(expected, got, PAPER_FLOAT_TOLERANCE).is_ok()
    } else {
        expected == got
    }
}

/// The check of an output too large to compare in full every time: every
/// `stride`-th element (and the last) of request `i`, through the same
/// rule, and every tenth request in full.
fn agrees_large<T: Element>(i: usize, expected: &[T], got: &[T]) -> bool {
    /// A prime, so the sample walks across every chunk offset.
    const STRIDE: usize = 1021;
    if i.is_multiple_of(10) || expected.len() != got.len() {
        return agrees(expected, got);
    }
    let pick = |v: &[T]| -> Vec<T> { v.iter().step_by(STRIDE).chain(v.last()).copied().collect() };
    agrees(&pick(expected), &pick(got))
}

/// Copies `src` into `dst` (a request's refresh) and returns the copy's
/// seconds. An input that copies in under `SHORT` is copied `MAX_COPIES`
/// times and the fastest copy counts: one short copy's time swings with the
/// cache state the previous request left behind, and a single preemption
/// multiplies it, which the ratio's fast decile would then pick out.
fn refresh_copy<T: Copy>(dst: &mut [T], src: &[T]) -> f64 {
    const SHORT: f64 = 1e-3;
    const MAX_COPIES: usize = 8;
    let mut fastest = f64::INFINITY;
    for _ in 0..MAX_COPIES {
        let t = Instant::now();
        dst.copy_from_slice(src);
        fastest = fastest.min(t.elapsed().as_secs_f64());
        if fastest >= SHORT {
            break;
        }
    }
    fastest
}

/// Read-only bandwidth over `data`, GB/s: a reduction with independent
/// accumulators, so it is bound by memory rather than by an add chain.
fn read_gbs<T: Element>(data: &[T], reps: usize) -> f64 {
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let mut acc = [0u64; 8];
            let mut blocks = data.chunks_exact(8);
            for b in &mut blocks {
                for (a, v) in acc.iter_mut().zip(b) {
                    *a = a.wrapping_add(v.key_bits());
                }
            }
            for v in blocks.remainder() {
                acc[0] = acc[0].wrapping_add(v.key_bits());
            }
            black_box(acc);
            t.elapsed().as_secs_f64()
        })
        .collect();
    std::mem::size_of_val(data) as f64 / median(&secs) / 1e9
}

/// One runner call: its statistics and its own wall time (a request may
/// also build the runner).
struct Ran {
    stats: RunStats,
    run_s: f64,
}

struct Sample {
    copy_s: f64,
    call_s: f64,
    ran: Ran,
}

fn stats_args(s: &RunStats) -> [(&'static str, f64); 12] {
    [
        ("threads", s.threads as f64),
        ("chunks", s.chunks as f64),
        ("fir_ms", s.fir_nanos as f64 / 1e6),
        ("solve_ms", s.solve_nanos as f64 / 1e6),
        ("lookback_ms", s.lookback_nanos as f64 / 1e6),
        ("correct_ms", s.correct_nanos as f64 / 1e6),
        ("lookback_hops", s.lookback_hops as f64),
        ("max_lookback_depth", s.max_lookback_depth as f64),
        ("spin_waits", s.spin_waits as f64),
        ("carry_resets", s.carry_resets as f64),
        ("skipped_chunks", s.skipped_chunks as f64),
        ("reset_chunks", s.reset_chunks as f64),
    ]
}

/// Times one runner call, inside a child span carrying its `RunStats`
/// when traced.
fn run_call(
    tracer: Option<(&mut Tracer, u64, u64)>,
    name: &'static str,
    f: impl FnOnce() -> Result<RunStats, EngineError>,
) -> Result<Ran, EngineError> {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    if let (Some((tracer, req, parent)), Ok(stats)) = (tracer, &out) {
        let id = tracer.record(name, req, Some(parent), start, end);
        tracer.args(id, &stats_args(stats));
    }
    out.map(|stats| Ran {
        stats,
        run_s: (end - start).as_secs_f64(),
    })
}

/// The library protocol: set-up, the untraced measured phase, and (traced
/// run) the traced requests, the single-thread replays and the layer
/// probes.
fn measure<L: Library>(w: &mut L, cfg: &Config) -> Result<Report, String> {
    let mut r = Report::default();
    let mut setups = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < min_iterations(cfg) || start.elapsed().as_secs_f64() < cfg.seconds {
        let copy_s = w.refresh(i);
        if i.is_multiple_of(SETUP_EVERY) {
            w.teardown();
            plan::clear_cache();
            let t = Instant::now();
            let res = w.setup();
            setups.push(t.elapsed().as_secs_f64());
            res.map_err(|e| format!("set-up failed: {e}"))?;
            let ok = w.check(i);
            r.tally(ok);
        } else {
            let t = Instant::now();
            let res = w.call(None);
            let call_s = t.elapsed().as_secs_f64();
            let ok = res.is_ok() && w.check(i);
            r.tally(ok);
            if let Ok(ran) = res {
                samples.push(Sample {
                    copy_s,
                    call_s,
                    ran,
                });
            }
        }
        i += 1;
    }
    if samples.is_empty() {
        return Err("every request failed".into());
    }
    let calls: Vec<f64> = samples.iter().map(|s| s.call_s).collect();
    let elems = w.elems() as f64;

    if !cfg.trace {
        r.put("throughput_melems", "Melem/s", elems / median(&calls) / 1e6);
        // Per-pair ratios; the fast decile of a ratio is its high one.
        let ratios: Vec<f64> = samples.iter().map(|s| s.copy_s / s.call_s).collect();
        r.put(
            "roofline_frac",
            "frac",
            percentile(&ratios, 100.0 - FAST_DECILE),
        );
        r.put("latency_p50_ms", "ms", median(&calls) * 1e3);
        r.put("latency_p90_ms", "ms", percentile(&calls, 90.0) * 1e3);
        r.put("setup_s", "s", median(&setups));
        r.put("peak_rss_mb", "MiB", peak_rss_mib());
        r.put("failed_frac", "frac", r.failed as f64 / r.attempted as f64);
        return Ok(r);
    }

    // Traced requests: a tenth of the measured count, at least ten, each
    // after an untraced twin, so the overhead compares requests that saw
    // the same state of the host.
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let traced_n = (samples.len() / 10).max(if cfg.quick { 2 } else { 10 });
    let (mut traced, mut twins) = (Vec::new(), Vec::new());
    for j in 0..traced_n {
        let i = i + 2 * j;
        w.refresh(i);
        let t = Instant::now();
        let res = w.call(None);
        twins.push(t.elapsed().as_secs_f64());
        let ok = res.is_ok() && w.check(i);
        r.tally(ok);

        let req = j as u64;
        let i = i + 1;
        let t0 = Instant::now();
        let copy_s = w.refresh(i);
        let t1 = Instant::now();
        let root = tracer.record("request", req, None, t0, t0);
        let refresh = tracer.record("input.refresh", req, Some(root), t0, t1);
        tracer.args(refresh, &[("copy_ms", copy_s * 1e3)]);
        let res = w.call(Some((&mut tracer, req, root)));
        let t2 = Instant::now();
        let ok = res.is_ok() && w.check(i);
        let t3 = Instant::now();
        tracer.record("output.check", req, Some(root), t2, t3);
        r.tally(ok);
        traced.push((t2 - t1).as_secs_f64());
        tracer.finish(root, t3);
    }

    // Replays: untimed ones for the whole-pipeline time, timed ones (the
    // first traced per chunk) for the per-stage kernel costs.
    let reps = probe_reps(cfg);
    let mut replay_s = Vec::new();
    for _ in 0..reps {
        let (s, ok) = w.replay(&mut Clock::untimed());
        r.tally(ok);
        replay_s.push(s);
    }
    let mut stages: Vec<Replay> = Vec::new();
    for j in 0..reps {
        let req = (traced_n + j) as u64;
        let t0 = Instant::now();
        let root = tracer.record("replay", req, None, t0, t0);
        let (ok, out) = if j == 0 {
            let mut clock = Clock::timed(Some((&mut tracer, req, root)));
            let (_, ok) = w.replay(&mut clock);
            (ok, clock.out)
        } else {
            let mut clock = Clock::timed(None);
            let (_, ok) = w.replay(&mut clock);
            (ok, clock.out)
        };
        r.tally(ok);
        tracer.finish(root, Instant::now());
        stages.push(out);
    }
    let replay = median(&replay_s);
    let kernel = |s: Stage| {
        let per: Vec<f64> = stages
            .iter()
            .filter(|o| o.elems(s) > 0)
            .map(|o| o.nanos(s) as f64 / o.elems(s) as f64)
            .collect();
        (!per.is_empty()).then(|| median(&per))
    };
    let bytes = std::mem::size_of::<L::E>() as f64;
    r.put("mem.copy_gbs", "GB/s", {
        let copies: Vec<f64> = samples.iter().map(|s| s.copy_s).collect();
        2.0 * elems * bytes / median(&copies) / 1e9
    });
    r.put("mem.read_gbs", "GB/s", read_gbs(w.input(), reps));
    r.put(
        "kernel.solve_ns_per_elem",
        "ns",
        kernel(Stage::Solve).unwrap_or(f64::NAN),
    );
    for (s, name) in [
        (Stage::Fir, "kernel.fir_ns_per_elem"),
        (Stage::Scan, "kernel.scan_ns_per_elem"),
        (Stage::Correct, "kernel.correct_ns_per_elem"),
    ] {
        if let Some(v) = kernel(s) {
            r.put(name, "ns", v);
        }
    }
    let fixups: Vec<f64> = stages
        .iter()
        .filter(|o| o.calls(Stage::Fixup) > 0)
        .map(|o| o.nanos(Stage::Fixup) as f64 / 1e3 / o.chunks as f64)
        .collect();
    if !fixups.is_empty() {
        r.put("kernel.fixup_us_per_chunk", "us", median(&fixups));
    }
    r.put(
        "kernel.bytes_per_elem",
        "B/elem",
        stages[0].words * bytes / elems,
    );
    r.put("kernel.replay_ms", "ms", replay * 1e3);

    let req = (traced_n + reps) as u64;
    let builds = plan_probe(&mut tracer, req, "plan.build", reps, || {
        Some(w.plan_build())
    });
    r.put("plan.build_ms", "ms", median(&builds) * 1e3);
    let hits = plan_probe(&mut tracer, req + 1, "plan.lookup", reps, || w.plan_hit());
    if !hits.is_empty() {
        r.put("plan.cache_hit_us", "us", median(&hits) * 1e6);
    }

    let per =
        |f: &dyn Fn(&Ran) -> f64| median(&samples.iter().map(|s| f(&s.ran)).collect::<Vec<_>>());
    let ms = |ns: u64| ns as f64 / 1e6;
    for (name, v) in [
        ("runner.fir_ms", per(&|r| ms(r.stats.fir_nanos))),
        ("runner.lookback_ms", per(&|r| ms(r.stats.lookback_nanos))),
        ("runner.correct_ms", per(&|r| ms(r.stats.correct_nanos))),
    ] {
        // Phases a family's runner does not time are absent, not zero.
        if v > 0.0 {
            r.put(name, "ms", v);
        }
    }
    r.put("runner.solve_ms", "ms", per(&|r| ms(r.stats.solve_nanos)));
    let threads = w.threads() as f64;
    r.put(
        "runner.idle_ms",
        "ms",
        per(&|r| (threads * r.run_s - r.stats.busy_nanos() as f64 / 1e9) * 1e3),
    );
    r.put(
        "runner.unexplained_ms",
        "ms",
        (per(&|r| r.run_s) - replay / threads) * 1e3,
    );
    for (name, f) in [
        (
            "runner.chunks",
            (|s: &RunStats| s.chunks) as fn(&RunStats) -> u64,
        ),
        ("runner.lookback_hops", |s| s.lookback_hops),
        ("runner.max_lookback_depth", |s| s.max_lookback_depth),
        ("runner.spin_waits", |s| s.spin_waits),
        ("runner.carry_resets", |s| s.carry_resets),
        ("runner.skipped_chunks", |s| s.skipped_chunks),
        ("runner.reset_chunks", |s| s.reset_chunks),
        ("runner.fused_chunks", |s| s.fused_chunks),
    ] {
        r.put(name, "count", per(&|r| f(&r.stats) as f64));
    }
    for name in [
        "service.shed_overload",
        "service.shed_quota",
        "service.relaunches",
        "service.degraded_shards",
    ] {
        r.put(name, "count", 0.0);
    }
    r.put(
        "trace.overhead_frac",
        "frac",
        median(&traced) / median(&twins) - 1.0,
    );
    r.spans = tracer.into_spans();
    Ok(r)
}

/// Repeats one plan-layer call, recording each as a span; returns the
/// durations in seconds.
fn plan_probe(
    tracer: &mut Tracer,
    req: u64,
    name: &'static str,
    reps: usize,
    mut probe: impl FnMut() -> Option<(Instant, Instant)>,
) -> Vec<f64> {
    (0..reps)
        .filter_map(|_| probe())
        .map(|(start, end)| {
            tracer.record(name, req, None, start, end);
            (end - start).as_secs_f64()
        })
        .collect()
}

/// Self-time summary lines for a human reader.
pub fn summary_lines(spans: &[trace::Span]) -> Vec<String> {
    trace::self_times(spans)
        .into_iter()
        .map(|(name, (count, total, own))| {
            format!(
                "{name:<22} n={count:<7} total={:>10.3} ms  self={:>10.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            )
        })
        .collect()
}
