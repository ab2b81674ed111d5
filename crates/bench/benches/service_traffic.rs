//! Traffic simulation for the multi-tenant service core: mixed tenant
//! signatures under closed-loop and open-loop (Poisson and burst)
//! arrivals at 1x/2x/4x of calibrated capacity, reporting per-tenant
//! p50/p99/p999 admission-to-completion latency, goodput, shed rate, and
//! deadline misses.
//!
//! This is a custom harness (no criterion): the quantities of interest
//! are latency *distributions* of a live service under load, not mean
//! wall times of a closed kernel.
//!
//! `PLR_BENCH_QUICK=1` shrinks rows and run durations to CI-smoke scale;
//! `PLR_THREADS=n` pins the per-shard worker count (the CI matrix leg);
//! `CRITERION_JSON=path` writes the full record set as JSON (the
//! committed `BENCH_service.json` is the full-mode output).

use plr_core::signature::Signature;
use plr_parallel::resolve_threads;
use plr_service::{ServiceConfig, ServiceCore, SubmitOptions, TenantId, TenantSpec};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Deterministic PRNG (xorshift64*), no external deps.

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`/s.
    fn exp_gap(&mut self, rate: f64) -> Duration {
        let u = self.unit_f64().max(1e-12);
        Duration::from_secs_f64((-u.ln() / rate).min(1.0))
    }
}

// ---------------------------------------------------------------------
// Per-tenant measurement accumulator.

#[derive(Default)]
struct Tally {
    latencies_ns: Vec<u64>,
    admitted: u64,
    shed: u64,
    completed: u64,
    failed: u64,
    deadline_misses: u64,
    /// Worst amount by which a *completed* row overshot its deadline
    /// budget, in nanoseconds (acceptance: bounded by one EWMA service
    /// time — shedding happens at the door, not after queueing).
    worst_overshoot_ns: u64,
    completed_elems: u64,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.latencies_ns.extend(other.latencies_ns);
        self.admitted += other.admitted;
        self.shed += other.shed;
        self.completed += other.completed;
        self.failed += other.failed;
        self.deadline_misses += other.deadline_misses;
        self.worst_overshoot_ns = self.worst_overshoot_ns.max(other.worst_overshoot_ns);
        self.completed_elems += other.completed_elems;
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

// ---------------------------------------------------------------------
// Scenario plumbing.

struct Tenant {
    name: &'static str,
    weight: u32,
    sig: Signature<i64>,
}

fn tenants() -> Vec<Tenant> {
    vec![
        Tenant {
            name: "gold",
            weight: 4,
            sig: "1:1".parse().unwrap(),
        },
        Tenant {
            name: "silver",
            weight: 2,
            sig: "(1: 1, 1)".parse().unwrap(),
        },
        Tenant {
            name: "bronze",
            weight: 1,
            sig: "(1: 2, -1)".parse().unwrap(),
        },
    ]
}

fn row(len: usize, salt: u64) -> Vec<i64> {
    (0..len)
        .map(|i| ((i as u64).wrapping_mul(31).wrapping_add(salt * 17) % 13) as i64 - 6)
        .collect()
}

fn build_core(width: usize, max_queue: usize) -> (ServiceCore<i64>, Vec<TenantId>) {
    let core = ServiceCore::new(ServiceConfig {
        shards: 2,
        threads_per_shard: width,
        max_queue,
    });
    let ids = tenants()
        .into_iter()
        .map(|t| core.add_tenant(TenantSpec::new(t.name, t.sig).with_weight(t.weight)))
        .collect();
    (core, ids)
}

/// Mean per-row service time across the tenant mix, measured on a warm
/// single-client core — the unit everything else is scaled by.
fn calibrate(width: usize, len: usize) -> Duration {
    let (core, ids) = build_core(width, 64);
    // Warm plans and pools.
    for &id in &ids {
        core.submit(id, row(len, 1), SubmitOptions::default())
            .unwrap()
            .wait()
            .unwrap();
    }
    let reps: u32 = 8;
    let start = Instant::now();
    for r in 0..reps {
        for &id in &ids {
            core.submit(id, row(len, u64::from(r)), SubmitOptions::default())
                .unwrap()
                .wait()
                .unwrap();
        }
    }
    let per_row = start.elapsed() / (reps * ids.len() as u32);
    core.shutdown();
    per_row.max(Duration::from_micros(5))
}

/// Submits one row and fully accounts the outcome into `tally`.
fn submit_and_tally(
    core: &ServiceCore<i64>,
    id: TenantId,
    data: Vec<i64>,
    budget: Duration,
    tally: &mut Tally,
) {
    let len = data.len() as u64;
    let t0 = Instant::now();
    match core.submit(id, data, SubmitOptions::deadline(budget)) {
        Ok(handle) => {
            tally.admitted += 1;
            match handle.wait() {
                Ok(_) => {
                    let lat = t0.elapsed();
                    tally.completed += 1;
                    tally.completed_elems += len;
                    tally.latencies_ns.push(lat.as_nanos() as u64);
                    if lat > budget {
                        tally.worst_overshoot_ns = tally
                            .worst_overshoot_ns
                            .max((lat - budget).as_nanos() as u64);
                    }
                }
                Err(plr_core::error::EngineError::DeadlineExceeded { .. }) => {
                    tally.deadline_misses += 1;
                }
                Err(_) => tally.failed += 1,
            }
        }
        Err(e) if e.is_retryable() => tally.shed += 1,
        Err(_) => tally.failed += 1,
    }
}

/// Closed loop: `clients_per_tenant * 3` client threads, each
/// submit→wait→repeat with a short decorrelated backoff after a shed.
/// Overload factor = total clients / total workers.
fn closed_loop(
    width: usize,
    len: usize,
    clients_per_tenant: usize,
    run_for: Duration,
    budget: Duration,
    max_queue: usize,
) -> Vec<Tally> {
    let (core, ids) = build_core(width, max_queue);
    let core = Arc::new(core);
    // Warm every tenant's plan before the clock starts.
    for &id in &ids {
        core.submit(id, row(len, 0), SubmitOptions::default())
            .unwrap()
            .wait()
            .unwrap();
    }
    let deadline = Instant::now() + run_for;
    let mut threads = Vec::new();
    for (t, &id) in ids.iter().enumerate() {
        for c in 0..clients_per_tenant {
            let core = Arc::clone(&core);
            let mut rng = Rng::new((t as u64 + 1) * 1000 + c as u64);
            threads.push(std::thread::spawn(move || {
                let mut tally = Tally::default();
                let data = row(len, t as u64);
                // Decorrelated jitter: each sleep after a shed is uniform
                // in [base, 3 × previous], and a success starts the walk
                // over. Sleeps are capped at the full deadline budget:
                // shed clients that spin faster than the service drains
                // only steal CPU from the workers they are waiting on.
                let base = Duration::from_micros(50);
                let cap = budget.max(base);
                let mut prev = base;
                while Instant::now() < deadline {
                    let shed_before = tally.shed;
                    submit_and_tally(&core, id, data.clone(), budget, &mut tally);
                    if tally.shed > shed_before {
                        let span = ((prev * 3).clamp(base, cap) - base).as_nanos() as u64;
                        prev = base + Duration::from_nanos(rng.next_u64() % (span + 1));
                        std::thread::sleep(prev);
                    } else {
                        prev = base;
                    }
                }
                (t, tally)
            }));
        }
    }
    let mut out: Vec<Tally> = (0..ids.len()).map(|_| Tally::default()).collect();
    for th in threads {
        let (t, tally) = th.join().expect("client thread");
        out[t].absorb(tally);
    }
    core.shutdown();
    out
}

/// Open loop: a single arrival process (Poisson gaps, or fixed-size
/// bursts at matched average rate) offers rows at `rate`/s across the
/// tenant mix; a waiter pool resolves handles off a shared deque so
/// submission never blocks on completion.
fn open_loop(
    width: usize,
    len: usize,
    rate: f64,
    burst: usize,
    run_for: Duration,
    budget: Duration,
) -> Vec<Tally> {
    let (core, ids) = build_core(width, (2 * width).max(2));
    let core = Arc::new(core);
    for &id in &ids {
        core.submit(id, row(len, 0), SubmitOptions::default())
            .unwrap()
            .wait()
            .unwrap();
    }
    type Pending = (usize, u64, Instant, plr_service::ServiceHandle<i64>);
    let pending: Arc<Mutex<VecDeque<Pending>>> = Arc::new(Mutex::new(VecDeque::new()));
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut waiters = Vec::new();
    for _ in 0..4 {
        let pending = Arc::clone(&pending);
        let done = Arc::clone(&done);
        waiters.push(std::thread::spawn(move || {
            let mut tallies: Vec<Tally> = (0..3).map(|_| Tally::default()).collect();
            loop {
                let item = pending.lock().unwrap().pop_front();
                let Some((t, elems, t0, handle)) = item else {
                    if done.load(std::sync::atomic::Ordering::Acquire) {
                        return tallies;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                    continue;
                };
                match handle.wait() {
                    Ok(_) => {
                        let lat = t0.elapsed();
                        tallies[t].completed += 1;
                        tallies[t].completed_elems += elems;
                        tallies[t].latencies_ns.push(lat.as_nanos() as u64);
                        if lat > budget {
                            tallies[t].worst_overshoot_ns = tallies[t]
                                .worst_overshoot_ns
                                .max((lat - budget).as_nanos() as u64);
                        }
                    }
                    Err(plr_core::error::EngineError::DeadlineExceeded { .. }) => {
                        tallies[t].deadline_misses += 1;
                    }
                    Err(_) => tallies[t].failed += 1,
                }
            }
        }));
    }

    // Weighted tenant choice matching the fair-share ratio, so offered
    // load is already shaped 4:2:1 and the queues stay mixed.
    let weights: Vec<u32> = tenants().iter().map(|t| t.weight).collect();
    let total_w: u32 = weights.iter().sum();
    let mut rng = Rng::new(0x5EED + burst as u64);
    let mut tallies: Vec<Tally> = (0..ids.len()).map(|_| Tally::default()).collect();
    let stop_at = Instant::now() + run_for;
    while Instant::now() < stop_at {
        let n = burst.max(1);
        for _ in 0..n {
            let mut pick = (rng.next_u64() % u64::from(total_w)) as u32;
            let mut t = 0;
            for (i, &w) in weights.iter().enumerate() {
                if pick < w {
                    t = i;
                    break;
                }
                pick -= w;
            }
            let data = row(len, t as u64);
            let elems = data.len() as u64;
            let t0 = Instant::now();
            match core.submit(ids[t], data, SubmitOptions::deadline(budget)) {
                Ok(handle) => {
                    tallies[t].admitted += 1;
                    pending.lock().unwrap().push_back((t, elems, t0, handle));
                }
                Err(e) if e.is_retryable() => tallies[t].shed += 1,
                Err(_) => tallies[t].failed += 1,
            }
        }
        // Burst mode sleeps n gaps at once; Poisson sleeps one.
        let mut gap = Duration::ZERO;
        for _ in 0..n {
            gap += rng.exp_gap(rate);
        }
        std::thread::sleep(gap);
    }
    done.store(true, std::sync::atomic::Ordering::Release);
    for w in waiters {
        for (t, tally) in w.join().expect("waiter").into_iter().enumerate() {
            tallies[t].absorb(tally);
        }
    }
    core.shutdown();
    tallies
}

// ---------------------------------------------------------------------
// Reporting.

struct Record {
    mode: &'static str,
    load_factor: usize,
    tenant: &'static str,
    weight: u32,
    tally: Tally,
    run_secs: f64,
    budget_us: u64,
}

fn render(records: &mut [Record]) -> String {
    let mut json = String::from("[\n");
    let last = records.len();
    for (i, r) in records.iter_mut().enumerate() {
        r.tally.latencies_ns.sort_unstable();
        let l = &r.tally.latencies_ns;
        let offered = r.tally.admitted + r.tally.shed + r.tally.failed;
        let shed_rate = if offered == 0 {
            0.0
        } else {
            r.tally.shed as f64 / offered as f64
        };
        println!(
            "{:>11} {}x {:<7} admitted {:>6}  shed {:>6} ({:>5.1}%)  p50 {:>8.1}us  p99 {:>8.1}us  p999 {:>8.1}us  goodput {:>9.0} elem/s  misses {}",
            r.mode,
            r.load_factor,
            r.tenant,
            r.tally.admitted,
            r.tally.shed,
            shed_rate * 100.0,
            percentile(l, 0.50) as f64 / 1e3,
            percentile(l, 0.99) as f64 / 1e3,
            percentile(l, 0.999) as f64 / 1e3,
            r.tally.completed_elems as f64 / r.run_secs,
            r.tally.deadline_misses,
        );
        json.push_str(&format!(
            "  {{ \"mode\": \"{}\", \"load_factor\": {}, \"tenant\": \"{}\", \"weight\": {}, \
             \"admitted\": {}, \"shed\": {}, \"failed\": {}, \"completed\": {}, \
             \"shed_rate\": {:.4}, \"deadline_misses\": {}, \"worst_overshoot_us\": {:.1}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}, \
             \"goodput_elems_per_s\": {:.0}, \"budget_us\": {}, \"run_secs\": {:.2} }}{}\n",
            r.mode,
            r.load_factor,
            r.tenant,
            r.weight,
            r.tally.admitted,
            r.tally.shed,
            r.tally.failed,
            r.tally.completed,
            shed_rate,
            r.tally.deadline_misses,
            r.tally.worst_overshoot_ns as f64 / 1e3,
            percentile(l, 0.50) as f64 / 1e3,
            percentile(l, 0.99) as f64 / 1e3,
            percentile(l, 0.999) as f64 / 1e3,
            r.tally.completed_elems as f64 / r.run_secs,
            r.budget_us,
            r.run_secs,
            if i + 1 == last { "" } else { "," },
        ));
    }
    json.push_str("]\n");
    json
}

fn main() {
    let quick = std::env::var("PLR_BENCH_QUICK").is_ok();
    let width = std::env::var("PLR_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| (resolve_threads(0) / 2).max(1));
    let len = if quick { 1 << 13 } else { 1 << 16 };
    let run_for = Duration::from_millis(if quick { 400 } else { 3000 });

    let service_time = calibrate(width, len);
    // Deadline of ~12 service times: tight enough that admission-time
    // feasibility shedding (not post-queue timeouts) bounds latency. The
    // floor keeps the budget above OS scheduler jitter on small rows —
    // a sub-millisecond budget would measure the container's noise, not
    // the service's shedding.
    let budget = (service_time * 12).max(Duration::from_millis(3));
    let total_workers = 2 * width;
    println!(
        "service_traffic: width {width}/shard x2 shards, rows of {len}, \
         calibrated service time {service_time:?}, deadline budget {budget:?}"
    );

    let names = tenants();
    let mut records = Vec::new();

    // Shedding/latency legs: a shallow queue (total worker count per
    // shard), client population = load factor x worker count. Overload
    // shows up as admission rejections with bounded admitted-row p99.
    for &factor in &[1usize, 2, 4] {
        let clients = (factor * total_workers).div_ceil(3).max(1);
        let tallies = closed_loop(width, len, clients, run_for, budget, (2 * width).max(2));
        for (t, tally) in tallies.into_iter().enumerate() {
            records.push(Record {
                mode: "closed",
                load_factor: factor,
                tenant: names[t].name,
                weight: names[t].weight,
                tally,
                run_secs: run_for.as_secs_f64(),
                budget_us: budget.as_micros() as u64,
            });
        }
    }

    // Saturation leg: deep queue, generous deadline, every tenant's
    // client pool large enough to stay continuously backlogged — the
    // operating point where weighted fair queueing expresses the 4:2:1
    // goodput contract.
    {
        let sat_budget = service_time * 200;
        let sat_queue = (4 * width).max(32);
        let clients = (4 * total_workers).div_ceil(3).max(8);
        let tallies = closed_loop(width, len, clients, run_for, sat_budget, sat_queue);
        for (t, tally) in tallies.into_iter().enumerate() {
            records.push(Record {
                mode: "closed_sat",
                load_factor: 4,
                tenant: names[t].name,
                weight: names[t].weight,
                tally,
                run_secs: run_for.as_secs_f64(),
                budget_us: sat_budget.as_micros() as u64,
            });
        }
    }

    // Open loop at 2x calibrated capacity: Poisson arrivals, then the
    // same average rate in bursts of 16.
    let capacity = total_workers as f64 / service_time.as_secs_f64();
    for (mode, burst) in [("open_poisson", 1usize), ("open_burst16", 16)] {
        let tallies = open_loop(width, len, 2.0 * capacity, burst, run_for, budget);
        for (t, tally) in tallies.into_iter().enumerate() {
            records.push(Record {
                mode,
                load_factor: 2,
                tenant: names[t].name,
                weight: names[t].weight,
                tally,
                run_secs: run_for.as_secs_f64(),
                budget_us: budget.as_micros() as u64,
            });
        }
    }

    let json = render(&mut records);
    if let Ok(path) = std::env::var("CRITERION_JSON") {
        std::fs::write(&path, json).expect("write CRITERION_JSON");
        println!("wrote {path}");
    }
}
