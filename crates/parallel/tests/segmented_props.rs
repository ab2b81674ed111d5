//! Differential gauntlet for segmented & sparse parallel recurrences.
//!
//! The contract: every executor of one signature over one segment
//! geometry — the serial per-segment reference [`run_serial`], the
//! chunked demonstrator [`run_chunked`], the [`SegmentedRunner`], the
//! whole-row batch path, and the streaming layer —
//! computes the *same segmented recurrence*. For integer elements the
//! arithmetic is wrapping and exactly reassociable, so every executor
//! must agree **bit-exactly** across orders, segment geometries, chunk
//! sizes, and thread counts. For contractive float gates agreement is
//! elementwise within a few ULPs (segment resets only shorten carry
//! histories, so the bound from the unsegmented gauntlet still holds).
//!
//! The sparse fast path is held to the strongest possible contract: on
//! zero-padded inputs the skip produces output **bit-identical** to the
//! dense path (a skipped chunk's correction pass is its entire output,
//! and `solve(0) == 0` bit-exactly), for floats as well as ints.
//!
//! Also pins the stats surface: segmented runs classify chunks
//! (`reset_chunks`, `skipped_chunks`) and never touch the shared
//! constant-signature correction-plan cache.

use plr_core::error::EngineError;
use plr_core::plan;
use plr_core::segmented::{run_chunked, run_serial, SegmentedPlan, Segments};
use plr_core::{serial, Element, Signature};
use plr_parallel::pool::CancelToken;
use plr_parallel::runner::RunnerConfig;
use plr_parallel::SegmentedRunner;
use proptest::prelude::*;
use std::sync::Mutex;
use std::time::Duration;

/// Serializes tests that flip process-global state (the plan-cache
/// switch, the fault-injection plan) against each other.
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

fn lock_global() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Deterministic xorshift stream, so every executor sees the same data
/// without an RNG dependency.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

fn int_input(n: usize) -> Vec<i64> {
    (0..n).map(|i| (i % 23) as i64 - 11).collect()
}

/// Positive inputs: with positive contractive gates every partial sum is
/// positive, so no cancellation inflates ULP distances.
fn positive_input(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i % 13) as f64) * 0.1 + 0.5).collect()
}

/// Monotone total-order key for ULP distance; `-0.0` and `0.0` count as
/// equal (same idiom as the plan-layer gauntlet).
fn ulps64(a: f64, b: f64) -> i64 {
    let key = |x: f64| -> i128 {
        let bits = x.to_bits() as i64;
        if bits >= 0 {
            bits as i128
        } else {
            (i64::MIN as i128) - (bits as i128)
        }
    };
    (key(a) - key(b)).unsigned_abs().min(i64::MAX as u128) as i64
}

/// Pure-feedback integer signatures of orders 1–4 (pure feedback so the
/// `run_chunked` demonstrator — which asserts it — joins the gauntlet).
fn int_sig(k: usize) -> Signature<i64> {
    ["1:1", "1:2,-1", "1:1,1,1", "1:1,1,1,1"][k - 1]
        .parse()
        .unwrap()
}

/// Contractive pure-feedback float signature of order `k`: every gate is
/// `0.35/k`, so the feedback row sums to 0.35 — the regime where
/// chunk-boundary rounding decays geometrically.
fn contractive_sig(k: usize) -> Signature<f64> {
    let gates = (0..k)
        .map(|_| format!("{}", 0.35 / k as f64))
        .collect::<Vec<_>>()
        .join(",");
    format!("1:{gates}").parse().unwrap()
}

/// The five segment geometries of the gauntlet, labeled. `chunk` shapes
/// the boundary-on-chunk-edge geometry so its starts land exactly on
/// chunk boundaries for the chunk size under test.
fn geometries(n: usize, chunk: usize) -> Vec<(String, Segments)> {
    let mut rng = xorshift(0x9e0 + n as u64);
    let mut random = vec![0usize];
    let mut i = 0usize;
    loop {
        i += (rng() % 37) as usize + 1;
        if i >= n {
            break;
        }
        random.push(i);
    }
    vec![
        ("uniform".into(), Segments::uniform(97, n)),
        ("random".into(), Segments::from_starts(random).unwrap()),
        ("degenerate-1".into(), Segments::uniform(1, n)),
        ("single".into(), Segments::from_starts(vec![0]).unwrap()),
        (
            "chunk-edge".into(),
            Segments::from_starts((0..n).step_by(chunk.max(1)).collect()).unwrap(),
        ),
    ]
}

fn runner_with<T: Element>(
    sig: &Signature<T>,
    segments: &Segments,
    len: usize,
    chunk: usize,
    threads: usize,
) -> SegmentedRunner<T> {
    SegmentedRunner::with_config(
        sig.clone(),
        segments.clone(),
        len,
        RunnerConfig {
            chunk_size: chunk,
            threads,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Every executor output for one signature/geometry, labeled.
fn all_executor_outputs<T: Element>(
    sig: &Signature<T>,
    segments: &Segments,
    input: &[T],
    chunk: usize,
    threads: usize,
) -> Vec<(String, Vec<T>)> {
    let mut outs = Vec::new();
    if sig.is_pure_feedback() && chunk >= sig.order() {
        outs.push((
            "core/run_chunked".into(),
            run_chunked(sig, segments, input, chunk).unwrap(),
        ));
    }
    let runner = runner_with(sig, segments, input.len(), chunk, threads);
    outs.push(("runner".into(), runner.run(input).unwrap()));
    // Batch and stream entry points, two rows each (they share RowTask).
    let mut rows: Vec<T> = input.iter().chain(input).copied().collect();
    runner.run_rows(&mut rows, input.len()).unwrap();
    for (r, row) in rows.chunks(input.len()).enumerate() {
        outs.push((format!("batch/row{r}"), row.to_vec()));
    }
    let stream = runner.stream();
    let handles: Vec<_> = (0..2).map(|_| stream.push_row(input.to_vec())).collect();
    for (r, handle) in handles.into_iter().enumerate() {
        let (streamed, outcome) = handle.join();
        outcome.unwrap();
        outs.push((format!("stream/row{r}"), streamed));
    }
    outs
}

/// Integers: every executor path bit-exact against the per-segment
/// serial reference, across orders 1–4, all five segment geometries,
/// ragged chunk geometries, and thread counts.
#[test]
fn int_executors_bit_exact_across_orders_geometries_chunks_threads() {
    let _g = lock_global();
    let n = 1537;
    let input = int_input(n);
    for k in 1..=4usize {
        let sig = int_sig(k);
        for chunk in [8usize, 64, 711] {
            if chunk < k {
                continue;
            }
            for (geo, segments) in geometries(n, chunk) {
                let expect = run_serial(&sig, &segments, &input);
                for threads in [1usize, 2, 4] {
                    for (label, got) in
                        all_executor_outputs(&sig, &segments, &input, chunk, threads)
                    {
                        assert_eq!(
                            got, expect,
                            "{label} diverged: k={k} geo={geo} chunk={chunk} threads={threads}"
                        );
                    }
                }
            }
        }
    }
}

/// One segment starting at 0 *is* the unsegmented recurrence: the serial
/// segmented reference and the parallel segmented runner must both match
/// the plain serial evaluator bit-for-bit.
#[test]
fn single_segment_equals_unsegmented_run() {
    let _g = lock_global();
    let n = 3000;
    let input = int_input(n);
    let segments = Segments::from_starts(vec![0]).unwrap();
    for k in 1..=4usize {
        let sig = int_sig(k);
        let plain = serial::run(&sig, &input);
        assert_eq!(run_serial(&sig, &segments, &input), plain, "k={k}");
        let runner = runner_with(&sig, &segments, n, 256, 4);
        assert_eq!(runner.run(&input).unwrap(), plain, "k={k}");
    }
}

/// Contractive float gates, cancellation-free inputs: every executor
/// elementwise within 4 ULP of the serial segmented reference. Segment
/// resets only shorten carry histories, so the unsegmented gauntlet's
/// bound carries over unchanged.
#[test]
fn contractive_floats_within_ulps_of_reference() {
    let _g = lock_global();
    let n = 6000;
    let input = positive_input(n);
    for k in 1..=4usize {
        let sig = contractive_sig(k);
        for chunk in [64usize, 513] {
            for (geo, segments) in geometries(n, chunk) {
                let expect = run_serial(&sig, &segments, &input);
                for threads in [1usize, 4] {
                    for (label, got) in
                        all_executor_outputs(&sig, &segments, &input, chunk, threads)
                    {
                        for (i, (&g, &e)) in got.iter().zip(&expect).enumerate() {
                            let d = ulps64(g, e);
                            assert!(
                                d <= 4,
                                "{label}: k={k} geo={geo} chunk={chunk} threads={threads} \
                                 i={i}: {g} vs {e} ({d} ULPs)"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// A zero-padded integer input (bursts of signal in a sea of zeros):
/// the sparse skip must count skipped chunks, the dense path must count
/// none, and both must agree bit-exactly with each other and with the
/// serial reference.
#[test]
fn sparse_skip_matches_dense_on_zero_padded_ints() {
    let _g = lock_global();
    let n = 8192;
    let chunk = 256;
    let segments = Segments::uniform(1000, n);
    let mut input = vec![0i64; n];
    for burst in [0usize, 3000, 6500] {
        for (i, v) in input[burst..burst + 200].iter_mut().enumerate() {
            *v = (i % 9) as i64 - 4;
        }
    }
    let sig = int_sig(2);
    let expect = run_serial(&sig, &segments, &input);
    let sparse = runner_with(&sig, &segments, n, chunk, 4);
    let dense_plan = SegmentedPlan::build(&sig, segments.clone(), n, chunk)
        .unwrap()
        .with_sparse(false);
    let dense = SegmentedRunner::from_plan(
        dense_plan,
        RunnerConfig {
            threads: 4,
            ..Default::default()
        },
    );
    let mut sparse_data = input.clone();
    let sparse_stats = sparse.run_in_place(&mut sparse_data).unwrap();
    let mut dense_data = input.clone();
    let dense_stats = dense.run_in_place(&mut dense_data).unwrap();
    assert_eq!(sparse_data, expect, "sparse");
    assert_eq!(dense_data, expect, "dense");
    assert!(
        sparse_stats.skipped_chunks > 0,
        "zero chunks must be skipped, got {sparse_stats:?}"
    );
    assert_eq!(dense_stats.skipped_chunks, 0, "dense");
    assert!(sparse_stats.reset_chunks > 0);
}

/// The same contract for floats, held to the strongest bound: the skip
/// is **bit-identical** to the dense solve (`solve(0) == 0` bit-exactly
/// and the correction pass is shared code), so even `-0.0` vs `0.0`
/// differences are forbidden.
#[test]
fn sparse_skip_is_bit_identical_to_dense_on_floats() {
    let _g = lock_global();
    let n = 8192;
    let chunk = 256;
    let segments = Segments::uniform(1500, n);
    let mut input = vec![0f64; n];
    for (i, v) in input[2000..2300].iter_mut().enumerate() {
        *v = ((i % 13) as f64) * 0.1 + 0.5;
    }
    let sig = contractive_sig(2);
    let sparse = runner_with(&sig, &segments, n, chunk, 4);
    let dense_plan = SegmentedPlan::build(&sig, segments.clone(), n, chunk)
        .unwrap()
        .with_sparse(false);
    let dense = SegmentedRunner::from_plan(
        dense_plan,
        RunnerConfig {
            threads: 4,
            ..Default::default()
        },
    );
    let mut sparse_data = input.clone();
    let stats = sparse.run_in_place(&mut sparse_data).unwrap();
    let mut dense_data = input.clone();
    dense.run_in_place(&mut dense_data).unwrap();
    assert!(stats.skipped_chunks > 0);
    for (i, (g, e)) in sparse_data.iter().zip(&dense_data).enumerate() {
        assert_eq!(
            g.to_bits(),
            e.to_bits(),
            "i={i}: sparse {g} != dense {e} (bitwise)"
        );
    }
}

/// Empty input runs to an empty result through every path — pinned
/// against the `Segments::uniform(len, 0)` phantom-start regression (a
/// phantom `starts == [0]` used to make downstream code believe a
/// segment existed).
#[test]
fn empty_input_runs_to_empty_result_everywhere() {
    let _g = lock_global();
    let segments = Segments::uniform(4, 0);
    assert!(
        segments.starts().is_empty(),
        "uniform over zero elements must not invent a phantom segment"
    );
    let sig = int_sig(2);
    assert_eq!(run_serial(&sig, &segments, &[]), Vec::<i64>::new());
    assert_eq!(
        run_chunked(&sig, &segments, &[], 8).unwrap(),
        Vec::<i64>::new()
    );
    let runner = runner_with(&sig, &segments, 0, 8, 2);
    assert_eq!(runner.run(&[]).unwrap(), Vec::<i64>::new());
    let stats = runner.run_in_place(&mut []).unwrap();
    assert_eq!(stats.chunks, 0);
    // A zero-length plan has no row width; the batch path must
    // reject rather than divide by zero.
    assert!(matches!(
        runner.run_rows(&mut [], 0),
        Err(EngineError::UnsupportedSignature { .. })
    ));
}

/// Satellite contract: segmented runs never touch the constant
/// correction-plan cache — no entry is inserted, no hit or miss is
/// reported (the cache key has no boundary map, so a cached unsegmented
/// entry must never serve a segmented run), and a constant-signature
/// probe afterwards still sees a cold cache.
#[test]
fn segmented_runs_bypass_the_constant_plan_cache() {
    let _g = lock_global();
    plan::set_cache_enabled(Some(true));
    plan::clear_cache();
    assert_eq!(plan::cache_len(), 0);

    let n = 4000;
    let segments = Segments::uniform(333, n);
    let sig = int_sig(2);
    let input = int_input(n);
    let runner = runner_with(&sig, &segments, n, 128, 2);
    let mut data = input.clone();
    let stats = runner.run_in_place(&mut data).unwrap();
    assert_eq!(stats.plan_cache_hits, 0);
    assert_eq!(stats.plan_cache_misses, 0);
    // Batch + stream entry points are cache-silent too.
    let runner = runner_with(&sig, &segments, n, 128, 2);
    let mut rows = input.clone();
    let stats = runner.run_rows(&mut rows, n).unwrap();
    assert_eq!(stats.plan_cache_hits + stats.plan_cache_misses, 0);
    let stream = runner.stream();
    let (_, outcome) = stream.push_row(input.clone()).join();
    outcome.unwrap();

    assert_eq!(
        plan::cache_len(),
        0,
        "segmented executors must not populate the constant plan cache"
    );

    // A constant-signature probe immediately afterwards must still be a
    // cold miss — nothing aliased its key.
    let constant: Signature<i64> = "1:2,-1".parse().unwrap();
    let probe = plr_parallel::ParallelRunner::with_config(
        constant,
        RunnerConfig {
            chunk_size: 731,
            threads: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let mut data = int_input(2000);
    let stats = probe.run_in_place(&mut data).unwrap();
    plan::set_cache_enabled(None);
    assert_eq!(stats.plan_cache_misses, 1, "probe must miss a cold cache");
    assert_eq!(stats.plan_cache_hits, 0);
}

/// A pre-cancelled token and an already-expired deadline both reject a
/// segmented run before it touches the data.
#[test]
fn pre_cancelled_token_and_zero_deadline_reject_promptly() {
    let _g = lock_global();
    let n = 4096;
    let segments = Segments::uniform(500, n);
    let sig = int_sig(2);
    let input = int_input(n);
    let runner = runner_with(&sig, &segments, n, 256, 4);
    let token = CancelToken::new();
    token.cancel();
    match runner.run_with_cancel(&input, &token) {
        Err(EngineError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    let expired = SegmentedRunner::with_config(
        sig.clone(),
        segments.clone(),
        n,
        RunnerConfig {
            chunk_size: 256,
            threads: 4,
            deadline: Some(Duration::ZERO),
            ..Default::default()
        },
    )
    .unwrap();
    match expired.run(&input) {
        Err(EngineError::DeadlineExceeded { .. }) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // The runner (and its pool) survives both rejections.
    assert_eq!(
        runner.run(&input).unwrap(),
        run_serial(&sig, &segments, &input),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized differential sweep: arbitrary orders, input lengths,
    /// segment geometries, and run geometry — every executor path
    /// bit-exact against the per-segment serial reference. (The vendored
    /// proptest stub has no flat-map, so dependent shapes derive from a
    /// drawn seed.)
    #[test]
    fn random_segment_geometries_bit_exact(
        k in 1usize..=4,
        n in 1usize..600,
        seed in 1u64..u64::MAX,
        chunk_sel in 0usize..3,
        threads in 1usize..=4,
    ) {
        let _g = lock_global();
        let sig = int_sig(k);
        let mut rng = xorshift(seed);
        let mut starts = vec![0usize];
        let mut i = 0usize;
        loop {
            i += (rng() % 29) as usize + 1;
            if i >= n {
                break;
            }
            starts.push(i);
        }
        let segments = Segments::from_starts(starts).unwrap();
        let data: Vec<i64> = (0..n).map(|_| (rng() % 41) as i64 - 20).collect();
        let expect = run_serial(&sig, &segments, &data);
        let chunk = [k.max(4), k.max(37), k.max(n)][chunk_sel];
        for (label, got) in all_executor_outputs(&sig, &segments, &data, chunk, threads) {
            prop_assert_eq!(
                &got, &expect,
                "{} diverged: k={} n={} chunk={} threads={}", label, k, n, chunk, threads
            );
        }
    }
}

/// Fault-injection legs (CI's `fault-inject` matrix runs this file with
/// `--features fault-inject`): an injected worker fault in a segmented
/// run must surface as `WorkerPanicked` — never a hang — and the same
/// runner (same pool) must complete a fault-free, bit-exact rerun. The
/// delay legs wedge a pipeline stage to prove cancellation and deadlines
/// reclaim a stuck segmented run. The armed plan is one-shot and
/// process-global, so every test in this file that runs a runner holds
/// `lock_global()`: no other test can consume it.
#[cfg(feature = "fault-inject")]
mod fault_legs {
    use super::*;
    use plr_parallel::fault::{self, FaultPlan, FaultSite};
    use std::time::Instant;

    /// Silences the default panic-hook output for panics this module
    /// injects on purpose; everything else still prints.
    fn quiet_injected_panics() {
        static HOOK: std::sync::Once = std::sync::Once::new();
        HOOK.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let payload = info.payload();
                let s = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("");
                if !s.contains("injected fault") && !payload.is::<plr_parallel::pool::WorkerExit>()
                {
                    default(info);
                }
            }));
        });
    }

    /// Runs `f` on a helper thread, panicking if it does not finish in
    /// `secs` — a hang becomes a test failure, not a stuck CI job.
    fn watchdog<R: Send + 'static>(secs: u64, f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(Duration::from_secs(secs)) {
            Ok(r) => {
                let _ = worker.join();
                r
            }
            Err(_) => panic!("watchdog: faulted segmented run did not return within {secs}s"),
        }
    }

    const N: usize = 8192;
    const CHUNK: usize = 256;

    /// Uniform 1000-element segments over 8192: boundaries land mid-chunk
    /// (reset chunks exist) and most chunks are interior.
    fn segments() -> Segments {
        Segments::uniform(1000, N)
    }

    fn faulted_runner() -> SegmentedRunner<i64> {
        runner_with(&int_sig(2), &segments(), N, CHUNK, 4)
    }

    fn assert_fault_contract(plan: FaultPlan) {
        let _g = lock_global();
        quiet_injected_panics();
        let data = int_input(N);
        let expect = run_serial(&int_sig(2), &segments(), &data);
        let runner = faulted_runner();

        // Warm the pool so the fault hits resident, parked workers.
        assert_eq!(runner.run(&data).unwrap(), expect, "warm-up must validate");

        fault::arm(plan.clone());
        let (runner, faulted) = watchdog(60, move || {
            let r = runner.run(&data);
            (runner, r)
        });
        let fired = !fault::is_armed();
        fault::disarm();
        assert!(fired, "plan never fired: {plan:?}");
        match faulted {
            Err(EngineError::WorkerPanicked { .. }) => {}
            other => panic!("expected WorkerPanicked, got {other:?} for {plan:?}"),
        }

        // Same pool, fault-free rerun: bit-exact recovery.
        let data = int_input(N);
        let got = watchdog(60, move || runner.run(&data).unwrap());
        assert_eq!(got, expect, "rerun after fault must validate");
    }

    #[test]
    fn solve_fault_errors_and_recovers_lookback() {
        assert_fault_contract(FaultPlan::panic_at_chunk(FaultSite::Solve, (N / CHUNK) / 2));
    }

    /// Chunk 16 spans `[4096, 4352)` — no segment boundary inside, so it
    /// is an interior chunk and consults the look-back site
    /// unconditionally.
    #[test]
    fn lookback_fault_errors_and_recovers_lookback() {
        assert_fault_contract(FaultPlan::panic_at_chunk(
            FaultSite::Lookback,
            (N / CHUNK) / 2,
        ));
    }

    /// A short stall at a mid-pipeline solve drives successors into
    /// their spin-wait look-back paths; the run must still complete
    /// bit-exactly.
    #[test]
    fn solve_delay_drives_spin_waits_and_stays_exact() {
        let _g = lock_global();
        quiet_injected_panics();
        let data = int_input(N);
        let expect = run_serial(&int_sig(2), &segments(), &data);
        let runner = faulted_runner();
        runner.run(&data).unwrap(); // warm: resident, parked workers
        fault::arm(FaultPlan::delay_at_chunk(
            FaultSite::Solve,
            (N / CHUNK) / 2,
            Duration::from_millis(50),
        ));
        let got = watchdog(60, move || runner.run(&data).unwrap());
        let fired = !fault::is_armed();
        fault::disarm();
        assert!(fired, "delay plan never fired");
        assert_eq!(got, expect, "delayed run must still validate");
    }

    /// A cancel token ends a segmented run wedged in a 30s injected
    /// stall — only the token can end it within the test budget — and
    /// the runner stays usable.
    #[test]
    fn cancel_token_ends_a_wedged_segmented_run() {
        let _g = lock_global();
        quiet_injected_panics();
        let data = int_input(N);
        let expect = run_serial(&int_sig(2), &segments(), &data);
        let runner = faulted_runner();
        runner.run(&data).unwrap(); // warm (fault-free)
        fault::arm(FaultPlan::delay_at_chunk(
            FaultSite::Solve,
            (N / CHUNK) / 2,
            Duration::from_secs(30),
        ));
        let token = CancelToken::new();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(150));
                token.cancel();
            })
        };
        let start = Instant::now();
        let (runner, result) = watchdog(60, move || {
            let r = runner.run_with_cancel(&data, &token);
            (runner, r)
        });
        canceller.join().unwrap();
        fault::disarm();
        match result {
            Err(EngineError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "cancellation must reclaim the wedged run promptly"
        );
        let data = int_input(N);
        let got = watchdog(60, move || runner.run(&data).unwrap());
        assert_eq!(got, expect, "rerun after cancellation must validate");
    }

    /// The deadline watchdog trips a segmented run wedged in a
    /// 45s injected stall, well inside the test budget.
    #[test]
    fn deadline_trips_a_wedged_segmented_run() {
        let _g = lock_global();
        quiet_injected_panics();
        let data = int_input(N);
        let runner = SegmentedRunner::with_config(
            int_sig(2),
            segments(),
            N,
            RunnerConfig {
                chunk_size: CHUNK,
                threads: 4,
                deadline: Some(Duration::from_millis(500)),
                ..Default::default()
            },
        )
        .unwrap();
        runner.run(&data).unwrap(); // warm (well under the deadline)
        fault::arm(FaultPlan::delay_at_chunk(
            FaultSite::Solve,
            (N / CHUNK) / 2,
            Duration::from_secs(45),
        ));
        let start = Instant::now();
        let result = watchdog(60, move || runner.run(&data));
        fault::disarm();
        match result {
            Err(EngineError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "deadline must end the wedged run long before the stall"
        );
    }
}
