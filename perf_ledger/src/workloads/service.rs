//! The multi-tenant service workload on `ServiceCore`: three tenants with
//! 4:2:1 weights sending 64 Ki-element i64 rows. Phase A is an open-loop
//! Poisson stream at a fixed rate (independent users; latency runs from
//! each row's due time); phase B is a closed loop of eight rows in flight
//! (callers that each wait for a reply), which measures capacity.

use super::{agrees, plan_probe, probe_reps, read_gbs, stats_args};
use crate::replay::{self, Clock, Stage};
use crate::rng::Rng;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{peak_rss_mib, Config, Report};
use plr_core::error::EngineError;
use plr_core::plan::{self, PlanRequest};
use plr_core::serial;
use plr_core::signature::Signature;
use plr_parallel::RunStats;
use plr_service::{ServiceConfig, ServiceCore, ServiceHandle, SubmitOptions, TenantId, TenantSpec};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `(signature, fair-queueing weight)` per tenant.
const TENANTS: [(&str, u32); 3] = [("1 : 1", 4), ("1 : 1, 1", 2), ("1 : 2, -1", 1)];
/// Phase A's offered load: about a fifth of the measured capacity.
const RATE: f64 = 2000.0;
/// Phase A's per-row budget. A row past it is cancelled and fails. On a
/// shared 2-vCPU guest, host stalls longer than 20 ms cancelled a row in
/// some runs and none in others, so the budget sits far above any stall and
/// no row fails for the host's sake; the 20 ms latency target is what
/// `latency_p99_ms` answers to, outside the service.
const DEADLINE: Duration = Duration::from_secs(1);
const IN_FLIGHT: usize = 8;
/// Row buffers allocated before the phases: the closed loop's window plus
/// room for open-loop bursts.
const BUFFERS: usize = 64;
/// The collector's polling period (at most 100 µs by design).
const POLL: Duration = Duration::from_micros(50);
/// Idle time before each service set-up (see `set_up`).
const SETUP_GAP: Duration = Duration::from_millis(10);
/// Phase A's share of `--seconds`; phase B, whose windows give
/// `roofline_frac`, gets the rest. Phase A's 6000-odd rows are plenty for
/// its latency percentiles.
const PHASE_A: f64 = 0.3;

struct Sizes {
    row: usize,
    /// Distinct pristine rows per tenant.
    pool: usize,
    min_rows: usize,
    /// Set-ups in each of the three groups.
    setups: usize,
    replay_rows: usize,
    /// Completed rows per phase-B throughput window.
    window: usize,
}

fn sizes(cfg: &Config) -> Sizes {
    if cfg.quick {
        Sizes {
            row: 1 << 10,
            pool: 2,
            min_rows: 20,
            setups: 1,
            replay_rows: 8,
            window: 5,
        }
    } else {
        Sizes {
            row: 1 << 16,
            pool: 16,
            min_rows: 200,
            setups: 33,
            replay_rows: 64,
            window: 100,
        }
    }
}

/// The seeded row pool (`pool` rows per tenant, tenant-major) and its
/// serial references.
struct Rows {
    row: usize,
    pool: usize,
    sigs: Vec<Signature<i64>>,
    pristine: Vec<i64>,
    reference: Vec<i64>,
}

impl Rows {
    fn new(cfg: &Config) -> Self {
        let s = sizes(cfg);
        let sigs: Vec<Signature<i64>> = TENANTS
            .iter()
            .map(|(sig, _)| sig.parse().expect("valid signature literal"))
            .collect();
        let mut rng = Rng::new(cfg.seed, 5);
        let pristine: Vec<i64> = (0..sigs.len() * s.pool * s.row)
            .map(|_| rng.below(2001) as i64 - 1000)
            .collect();
        let mut reference = Vec::with_capacity(pristine.len());
        for (i, row) in pristine.chunks(s.row).enumerate() {
            reference.extend(serial::run(&sigs[i / s.pool], row));
        }
        Rows {
            row: s.row,
            pool: s.pool,
            sigs,
            pristine,
            reference,
        }
    }

    fn input(&self, k: usize) -> &[i64] {
        &self.pristine[k * self.row..(k + 1) * self.row]
    }

    fn expected(&self, k: usize) -> &[i64] {
        &self.reference[k * self.row..(k + 1) * self.row]
    }
}

/// The seeded sequence of rows to send: tenants in 4:2:1 proportion, each
/// with a uniformly chosen row of its pool.
struct Picks {
    rng: Rng,
    pool: usize,
}

impl Picks {
    fn new(cfg: &Config, pool: usize) -> Self {
        Picks {
            rng: Rng::new(cfg.seed, 6),
            pool,
        }
    }

    /// `(tenant, row index into the pool)`.
    fn next(&mut self) -> (usize, usize) {
        let tenant = match self.rng.below(7) {
            0..=3 => 0,
            4..=5 => 1,
            _ => 2,
        };
        (
            tenant,
            tenant * self.pool + self.rng.below(self.pool as u64) as usize,
        )
    }
}

/// The first row and the first picks, for reproducibility tests.
pub fn first_rows(cfg: &Config) -> Vec<i64> {
    let rows = Rows::new(cfg);
    let mut picks = Picks::new(cfg, rows.pool);
    let mut out = rows.input(0).to_vec();
    for _ in 0..16 {
        let (t, k) = picks.next();
        out.extend([t as i64, k as i64]);
    }
    out
}

/// Free row buffers, recycled so steady-state submission never faults in
/// fresh pages, and allocated up front: there are never more than
/// `BUFFERS`, so peak RSS does not depend on how many rows a stall of the
/// host left in flight at once.
struct Buffers {
    free: Vec<Vec<i64>>,
    len: usize,
}

impl Buffers {
    fn new(len: usize) -> Self {
        Buffers {
            free: (0..BUFFERS).map(|_| Self::fresh(len)).collect(),
            len,
        }
    }

    fn fresh(len: usize) -> Vec<i64> {
        // A nonzero fill writes every page; a zeroed allocation would not.
        vec![-1; len]
    }

    /// A free buffer holding a copy of `src`, and the copy's seconds.
    fn fill(&mut self, src: &[i64]) -> (Vec<i64>, f64) {
        let mut buf = self.free.pop().expect("a free buffer for every row sent");
        let t = Instant::now();
        buf.copy_from_slice(src);
        (buf, t.elapsed().as_secs_f64())
    }

    /// Replaces a buffer a refused submission consumed.
    fn restock(&mut self) {
        self.free.push(Self::fresh(self.len));
    }
}

struct Pending {
    due: Instant,
    submit: (Instant, Instant),
    tenant: usize,
    k: usize,
    /// Seconds of the copy that filled the row's buffer.
    copy: f64,
    handle: ServiceHandle<i64>,
}

/// One admitted row's journey, as the client saw it.
struct Done {
    due: Instant,
    submit: (Instant, Instant),
    finished: Instant,
    checked: Instant,
    tenant: usize,
    copy: f64,
    outcome: Result<RunStats, EngineError>,
    /// The output matched the reference (meaningless for errors).
    correct: bool,
}

impl Done {
    fn latency(&self) -> f64 {
        (self.finished - self.due).as_secs_f64()
    }
}

/// Joins a finished (or, in the closed loop, the oldest) row, checks it
/// and recycles its buffer.
fn resolve(rows: &Rows, p: Pending) -> (Done, Vec<i64>) {
    let (data, outcome) = p.handle.join();
    let finished = Instant::now();
    let correct = outcome.is_ok() && agrees(rows.expected(p.k), &data);
    let done = Done {
        due: p.due,
        submit: p.submit,
        finished,
        checked: Instant::now(),
        tenant: p.tenant,
        copy: p.copy,
        outcome,
        correct,
    };
    (done, data)
}

/// What one phase observed.
#[derive(Default)]
struct Phase {
    offered: u64,
    /// Rows refused at admission (overload or quota).
    refused: u64,
    /// Submissions that failed for any other reason.
    errors: u64,
    done: Vec<Done>,
    /// Rows counted on completion instead of kept in `done` (see `count`):
    /// the failed ones, the wrong ones among them, and per correct row its
    /// completion time and fill-copy seconds, and its `RunStats` when kept.
    failed: u64,
    wrong: u64,
    ends: Vec<(Instant, f64)>,
    stats: Vec<RunStats>,
    copies: Vec<f64>,
    /// How late the generator sent each row, seconds.
    late: Vec<f64>,
    elapsed: f64,
}

impl Phase {
    fn ok(&self) -> impl Iterator<Item = (&Done, &RunStats)> {
        self.done
            .iter()
            .filter_map(|d| d.outcome.as_ref().ok().map(|s| (d, s)))
    }

    fn latencies(&self) -> Vec<f64> {
        self.ok().map(|(d, _)| d.latency()).collect()
    }

    /// Per window of `w` consecutive counted rows (the closed loop
    /// completes rows in order): the window's completion rate (rows/s) and
    /// the median time of the copies that filled its rows.
    fn windows(&self, w: usize) -> Vec<(f64, f64)> {
        self.ends
            .windows(w + 1)
            .step_by(w)
            .map(|x| {
                let rate = w as f64 / (x[w].0 - x[0].0).as_secs_f64();
                let copies: Vec<f64> = x[1..].iter().map(|e| e.1).collect();
                (rate, median(&copies))
            })
            .collect()
    }

    /// Whether a row failed, and whether it was wrong: a missed deadline
    /// failed; any other error or a wrong output failed and makes the run
    /// incorrect.
    fn verdict(d: &Done) -> (bool, bool) {
        match &d.outcome {
            Ok(_) if d.correct => (false, false),
            Err(EngineError::DeadlineExceeded { .. }) => (true, false),
            _ => (true, true),
        }
    }

    /// Counts a completed row at once and keeps a few words of it (its
    /// `RunStats` too when `keep_stats`), so a phase whose row count
    /// follows the host's speed does not grow the process by a whole
    /// `Done` per row.
    fn count(&mut self, d: Done, keep_stats: bool) {
        let (failed, wrong) = Self::verdict(&d);
        self.failed += u64::from(failed);
        self.wrong += u64::from(wrong);
        if let (false, Ok(stats)) = (failed, d.outcome) {
            self.ends.push((d.finished, d.copy));
            if keep_stats {
                self.stats.push(stats);
            }
        }
    }

    /// Counts this phase's rows into the report; refusals are attempted
    /// but not failed.
    fn tally(&self, r: &mut Report) {
        r.attempted += self.offered;
        r.failed += self.errors + self.failed;
        r.wrong += self.errors + self.wrong;
        for (failed, wrong) in self.done.iter().map(Self::verdict) {
            r.failed += u64::from(failed);
            r.wrong += u64::from(wrong);
        }
    }

    fn submit(
        &mut self,
        core: &ServiceCore<i64>,
        id: TenantId,
        buf: Vec<i64>,
        opts: SubmitOptions,
    ) -> Option<(ServiceHandle<i64>, (Instant, Instant))> {
        self.offered += 1;
        let t0 = Instant::now();
        let res = core.submit(id, buf, opts);
        let t1 = Instant::now();
        match res {
            Ok(h) => Some((h, (t0, t1))),
            Err(e) if e.is_retryable() => {
                self.refused += 1;
                None
            }
            Err(_) => {
                self.errors += 1;
                None
            }
        }
    }
}

struct Service {
    core: ServiceCore<i64>,
    ids: Vec<TenantId>,
}

/// Constructs the core and registers the tenants (their plans are built
/// here, through the plan cache).
fn start(rows: &Rows) -> Service {
    let core = ServiceCore::new(ServiceConfig::default());
    let ids = TENANTS
        .iter()
        .zip(&rows.sigs)
        .enumerate()
        .map(|(i, ((_, weight), sig))| {
            core.add_tenant(TenantSpec::new(format!("tenant{i}"), sig.clone()).with_weight(*weight))
        })
        .collect();
    Service { core, ids }
}

/// Phase A: an open-loop Poisson stream for `seconds` (and at least
/// `min_rows` rows). The calling thread generates, submitting each row at
/// its due time; one collector thread polls for completions.
fn open_loop(
    svc: &Service,
    rows: &Rows,
    free: &mut Buffers,
    picks: &mut Picks,
    arrivals: &mut Rng,
    seconds: f64,
    min_rows: usize,
) -> Phase {
    let (tx, rx) = mpsc::channel::<Pending>();
    let (free_tx, free_rx) = mpsc::channel::<Vec<i64>>();
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut pending: Vec<Pending> = Vec::new();
            let mut done = Vec::new();
            let mut open = true;
            while open || !pending.is_empty() {
                loop {
                    match rx.try_recv() {
                        Ok(p) => pending.push(p),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                }
                let mut i = 0;
                while i < pending.len() {
                    if pending[i].handle.is_finished() {
                        let (d, buf) = resolve(rows, pending.swap_remove(i));
                        done.push(d);
                        // The generator may be gone already; the buffer is then freed.
                        let _ = free_tx.send(buf);
                    } else {
                        i += 1;
                    }
                }
                std::thread::sleep(POLL);
            }
            done
        });
        let mut phase = Phase::default();
        let start = Instant::now();
        let mut due = start;
        while (due - start).as_secs_f64() < seconds || (phase.offered as usize) < min_rows {
            due += Duration::from_secs_f64(arrivals.exp_gap(RATE));
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            phase
                .late
                .push(Instant::now().saturating_duration_since(due).as_secs_f64());
            free.free.extend(free_rx.try_iter());
            if free.free.is_empty() {
                // Every buffer is in flight: wait for one rather than
                // allocate. The wait makes later rows late, and their
                // latency, counted from the due time, shows it.
                let buf = free_rx
                    .recv()
                    .expect("the collector outlives the generator");
                free.free.push(buf);
            }
            let (tenant, k) = picks.next();
            let (buf, copy) = free.fill(rows.input(k));
            phase.copies.push(copy);
            let opts = SubmitOptions::deadline(DEADLINE);
            match phase.submit(&svc.core, svc.ids[tenant], buf, opts) {
                Some((handle, submit)) => {
                    let p = Pending {
                        due,
                        submit,
                        tenant,
                        k,
                        copy,
                        handle,
                    };
                    tx.send(p).expect("the collector outlives the generator");
                }
                None => free.restock(),
            }
        }
        drop(tx);
        phase.done = collector.join().expect("collector thread panicked");
        phase.elapsed = start.elapsed().as_secs_f64();
        free.free.extend(free_rx.try_iter());
        phase
    })
}

/// Phase B: one client keeps `IN_FLIGHT` rows admitted, waiting on the
/// oldest before sending the next, for `seconds` (and `min_rows` rows).
/// Its row count follows the host's speed, so rows are counted as they
/// complete (see `Phase::count`) and their `RunStats` kept only when
/// `keep_stats`.
fn closed_loop(
    svc: &Service,
    rows: &Rows,
    free: &mut Buffers,
    picks: &mut Picks,
    seconds: f64,
    min_rows: usize,
    keep_stats: bool,
) -> Phase {
    let mut phase = Phase::default();
    let mut inflight: VecDeque<Pending> = VecDeque::new();
    let start = Instant::now();
    loop {
        let more = start.elapsed().as_secs_f64() < seconds || (phase.offered as usize) < min_rows;
        while more && inflight.len() < IN_FLIGHT {
            let (tenant, k) = picks.next();
            let (buf, copy) = free.fill(rows.input(k));
            phase.copies.push(copy);
            let opts = SubmitOptions::default();
            match phase.submit(&svc.core, svc.ids[tenant], buf, opts) {
                Some((handle, submit)) => inflight.push_back(Pending {
                    due: submit.0,
                    submit,
                    tenant,
                    k,
                    copy,
                    handle,
                }),
                None => free.restock(),
            }
        }
        let Some(p) = inflight.pop_front() else {
            break;
        };
        let (d, buf) = resolve(rows, p);
        phase.count(d, keep_stats);
        free.free.push(buf);
    }
    phase.elapsed = start.elapsed().as_secs_f64();
    phase
}

/// One span tree per row: the row from its due time to its check, with
/// the submit call, the service's handling (carrying the row's
/// `RunStats`) and the check as children.
fn spans(phase: &Phase, origin: Instant) -> Tracer {
    let mut tracer = Tracer::new(origin);
    for (req, d) in phase.done.iter().enumerate() {
        let req = req as u64;
        let root = tracer.record("request", req, None, d.due, d.checked);
        tracer.args(root, &[("tenant", d.tenant as f64)]);
        tracer.record("core.submit", req, Some(root), d.submit.0, d.submit.1);
        let row = tracer.record("service.row", req, Some(root), d.submit.1, d.finished);
        if let Ok(stats) = &d.outcome {
            tracer.args(row, &stats_args(stats));
        }
        tracer.record("output.check", req, Some(root), d.finished, d.checked);
    }
    tracer
}

/// `n` set-ups, each a fresh core with its tenants (from a cold plan
/// cache) and the first row's round trip; returns the last core. Each
/// discarded core shuts down outside the clock.
fn set_up(
    rows: &Rows,
    picks: &mut Picks,
    n: usize,
    setups: &mut Vec<f64>,
    r: &mut Report,
) -> Service {
    let mut svc = None;
    for _ in 0..n {
        let (tenant, k) = picks.next();
        let buf = rows.input(k).to_vec();
        drop(svc.take());
        // Spread the group over a third of a second: one set-up is far
        // shorter than the host's speed drifts, so back-to-back samples
        // would all see the same moment.
        std::thread::sleep(SETUP_GAP);
        plan::clear_cache();
        let t = Instant::now();
        let fresh = start(rows);
        let res = fresh
            .core
            .submit(fresh.ids[tenant], buf, SubmitOptions::default())
            .map(ServiceHandle::join);
        setups.push(t.elapsed().as_secs_f64());
        r.tally(matches!(&res, Ok((data, Ok(_))) if agrees(rows.expected(k), data)));
        svc = Some(fresh);
    }
    svc.expect("at least one set-up")
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let s = sizes(cfg);
    let rows = Rows::new(cfg);
    let mut picks = Picks::new(cfg, rows.pool);
    let mut arrivals = Rng::new(cfg.seed, 7);
    let mut r = Report::default();

    // A third of the set-ups run before the traffic, a third between the
    // phases and a third after them, so their median samples the whole
    // run, as the requests do. Each is well under a millisecond, so a
    // steady median needs many.
    let mut setups = Vec::new();
    let svc = set_up(&rows, &mut picks, s.setups, &mut setups, &mut r);

    let mut free = Buffers::new(rows.row);
    let a = open_loop(
        &svc,
        &rows,
        &mut free,
        &mut picks,
        &mut arrivals,
        cfg.seconds * PHASE_A,
        s.min_rows,
    );
    let shards = svc.core.stats().shards;
    let ewma_us = shards
        .iter()
        .map(|sh| sh.ewma_service_nanos as f64)
        .sum::<f64>()
        / shards.len() as f64
        / 1e3;
    set_up(&rows, &mut picks, s.setups, &mut setups, &mut r);
    let b = closed_loop(
        &svc,
        &rows,
        &mut free,
        &mut picks,
        cfg.seconds * (1.0 - PHASE_A),
        s.min_rows,
        cfg.trace,
    );
    a.tally(&mut r);
    b.tally(&mut r);
    set_up(&rows, &mut picks, s.setups, &mut setups, &mut r);

    let lat = a.latencies();
    let b_rows = b.ends.len() as f64;
    let windows = b.windows(s.window);
    if lat.is_empty() || windows.is_empty() {
        return Err("too few rows completed".into());
    }
    let rows_per_s = b_rows / b.elapsed;

    if !cfg.trace {
        r.put(
            "throughput_melems",
            "Melem/s",
            rows_per_s * rows.row as f64 / 1e6,
        );
        // The share of a one-thread memcpy of the same rows' words that
        // the service achieves: a row's copy time over its amortized time,
        // paired window by window so the host's drift moves both alike,
        // then the median window. A row's copy is short, and its time
        // swings with where the run's buffers landed in the caches, so a
        // fast decile of the rate alone, beside the median copy of the
        // whole phase, read 6–18% apart from run to run.
        let per_window: Vec<f64> = windows.iter().map(|(rate, copy)| rate * copy).collect();
        r.put("roofline_frac", "frac", median(&per_window));
        r.put("latency_p50_ms", "ms", median(&lat) * 1e3);
        r.put("latency_p90_ms", "ms", percentile(&lat, 90.0) * 1e3);
        r.put("latency_p99_ms", "ms", percentile(&lat, 99.0) * 1e3);
        r.put("setup_s", "s", median(&setups));
        r.put("peak_rss_mb", "MiB", peak_rss_mib());
        r.put("shed_frac", "frac", a.refused as f64 / a.offered as f64);
        r.put("failed_frac", "frac", r.failed as f64 / r.attempted as f64);
        return Ok(r);
    }

    // A traced re-run of phase A with a tenth of its rows, after an
    // untraced twin of the same length so the overhead compares rows that
    // saw the same state of the host. The spans are built from timestamps
    // the untraced loop takes too, so the difference is expected to be
    // noise around zero.
    let traced_rows = (a.done.len() / 10).max(if cfg.quick { 2 } else { 10 });
    let mut short_phase = |picks: &mut Picks, arrivals: &mut Rng| {
        open_loop(&svc, &rows, &mut free, picks, arrivals, 0.0, traced_rows)
    };
    let twin = short_phase(&mut picks, &mut arrivals);
    let origin = Instant::now();
    let t = short_phase(&mut picks, &mut arrivals);
    twin.tally(&mut r);
    t.tally(&mut r);
    let mut tracer = spans(&t, origin);
    r.put(
        "trace.overhead_frac",
        "frac",
        median(&t.latencies()) / median(&twin.latencies()) - 1.0,
    );

    // The single-thread replay: the same whole-row kernel calls a shard
    // worker makes, over a seeded sample of the mix.
    let plans: Vec<_> = rows
        .sigs
        .iter()
        .map(|sig| plan::plan_for(sig, PlanRequest::new::<i64>(0)).0)
        .collect();
    let sample: Vec<(usize, usize)> = (0..s.replay_rows).map(|_| picks.next()).collect();
    let mut scratch = vec![0i64; rows.row];
    let mut replay_s = 0.0;
    for &(tenant, k) in &sample {
        scratch.copy_from_slice(rows.input(k));
        let t0 = Instant::now();
        replay::row(&plans[tenant], &mut scratch, &mut Clock::untimed());
        replay_s += t0.elapsed().as_secs_f64();
        r.tally(agrees(rows.expected(k), &scratch));
    }
    let replay_row = replay_s / sample.len() as f64;
    let req = t.done.len() as u64;
    let root = tracer.record("replay", req, None, Instant::now(), Instant::now());
    let mut clock = Clock::timed(Some((&mut tracer, req, root)));
    for &(tenant, k) in &sample {
        scratch.copy_from_slice(rows.input(k));
        replay::row(&plans[tenant], &mut scratch, &mut clock);
    }
    let stages = clock.out;
    tracer.finish(root, Instant::now());

    let elem_bytes = std::mem::size_of::<i64>() as f64;
    let replayed = (sample.len() * rows.row) as f64;
    r.put(
        "mem.copy_gbs",
        "GB/s",
        2.0 * rows.row as f64 * elem_bytes / median(&b.copies) / 1e9,
    );
    r.put("mem.read_gbs", "GB/s", read_gbs(&rows.pristine, 3));
    r.put(
        "kernel.solve_ns_per_elem",
        "ns",
        stages.nanos(Stage::Solve) as f64 / stages.elems(Stage::Solve) as f64,
    );
    r.put(
        "kernel.bytes_per_elem",
        "B/elem",
        stages.words * elem_bytes / replayed,
    );
    r.put("kernel.replay_ms", "ms", replay_row * 1e3);

    // The plans `add_tenant` builds: whole-row (chunk size 0) plans for
    // the three signatures, cold, then one cache hit.
    let builds = plan_probe(&mut tracer, req + 1, "plan.build", probe_reps(cfg), || {
        plan::clear_cache();
        let t = Instant::now();
        for sig in &rows.sigs {
            plan::plan_for(sig, PlanRequest::new::<i64>(0));
        }
        Some((t, Instant::now()))
    });
    r.put("plan.build_ms", "ms", median(&builds) * 1e3);
    let hits = plan_probe(&mut tracer, req + 2, "plan.lookup", probe_reps(cfg), || {
        let t = Instant::now();
        let (_, hit) = plan::plan_for(&rows.sigs[0], PlanRequest::new::<i64>(0));
        hit.then_some((t, Instant::now()))
    });
    r.put("plan.cache_hit_us", "us", median(&hits) * 1e6);
    r.spans = tracer.into_spans();

    // Row-level runner metrics come from phase B, the saturated loop.
    let threads = shards.iter().map(|sh| sh.width).sum::<usize>() as f64;
    let per = |f: &dyn Fn(&RunStats) -> f64| median(&b.stats.iter().map(f).collect::<Vec<_>>());
    r.put(
        "runner.solve_ms",
        "ms",
        per(&|s| s.solve_nanos as f64 / 1e6),
    );
    let busy: f64 = b.stats.iter().map(|s| s.busy_nanos() as f64 / 1e9).sum();
    r.put(
        "runner.idle_ms",
        "ms",
        (threads * b.elapsed - busy) / b_rows * 1e3,
    );
    r.put(
        "runner.unexplained_ms",
        "ms",
        (1.0 / rows_per_s - replay_row / threads) * 1e3,
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
        r.put(name, "count", per(&|s| f(s) as f64));
    }

    let stats = svc.core.stats();
    let sum =
        |f: fn(&plr_service::TenantStats) -> u64| stats.tenants.iter().map(f).sum::<u64>() as f64;
    r.put("service.shed_overload", "count", sum(|t| t.shed_overload));
    r.put("service.shed_quota", "count", sum(|t| t.shed_quota));
    r.put(
        "service.relaunches",
        "count",
        stats.shards.iter().map(|sh| sh.relaunches).sum::<u64>() as f64,
    );
    r.put(
        "service.degraded_shards",
        "count",
        stats.shards.iter().filter(|sh| sh.degraded).count() as f64,
    );
    let submits: Vec<f64> = a
        .done
        .iter()
        .map(|d| (d.submit.1 - d.submit.0).as_secs_f64())
        .collect();
    r.put("service.submit_us", "us", median(&submits) * 1e6);
    let waits: Vec<f64> = a
        .ok()
        .map(|(d, s)| d.latency() - (s.fir_nanos + s.solve_nanos) as f64 / 1e9)
        .collect();
    r.put("service.queue_wait_ms", "ms", median(&waits) * 1e3);
    r.put("service.ewma_service_us", "us", ewma_us);
    r.put(
        "service.gen_late_p99_ms",
        "ms",
        percentile(&a.late, 99.0) * 1e3,
    );
    r.put(
        "service.gen_late_max_ms",
        "ms",
        percentile(&a.late, 100.0) * 1e3,
    );
    Ok(r)
}
