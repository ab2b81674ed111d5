//! Fault-injection isolation properties for the service core (require
//! `--features fault-inject`).
//!
//! The contract under test: an injected panic in one tenant's row fails
//! *that row's handle only*. Every other tenant's admitted rows complete
//! and validate, and the core keeps serving afterwards. No fault may
//! stall (hang) or shed (retroactively reject) rows that were already
//! admitted.
#![cfg(feature = "fault-inject")]

use plr_core::error::EngineError;
use plr_core::serial;
use plr_core::signature::Signature;
use plr_parallel::fault::{self, FaultPlan, FaultSite};
use plr_service::{ServiceConfig, ServiceCore, SubmitOptions, TenantSpec};
use proptest::prelude::*;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The fault plan is process-global: tests must not interleave arming.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Silences the default panic-hook output for panics this suite injects
/// on purpose; everything else still prints.
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
            if !s.contains("injected fault") {
                default(info);
            }
        }));
    });
}

/// Runs `f` on a helper thread, panicking if it does not finish within
/// `secs` — turns "a fault stalled another tenant" into a test failure
/// instead of a stuck CI job.
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
        Err(_) => panic!("watchdog: service did not quiesce within {secs}s (hang)"),
    }
}

fn threads() -> usize {
    std::env::var("PLR_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(2)
}

fn input(n: usize, salt: usize) -> Vec<i64> {
    (0..n)
        .map(|i| ((i * 31 + salt * 7) % 23) as i64 - 11)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// Inject a panic into tenant A's first row while tenant B has
    /// `b_rows` rows admitted behind it. A's row must fail with `WorkerPanicked`; every one of
    /// B's rows must complete and validate against the serial reference;
    /// and the core must still serve a fresh fault-free row for A
    /// afterwards.
    #[test]
    fn a_faulted_tenant_row_never_stalls_or_sheds_another_tenants_rows(
        b_rows in 4usize..20,
    ) {
        let _serial = serialize();
        quiet_injected_panics();
        fault::disarm();

        let sig_a: Signature<i64> = "1:1".parse().unwrap();
        let sig_b: Signature<i64> = "(1: 1, 1)".parse().unwrap();
        let core = ServiceCore::new(ServiceConfig {
            shards: 1,
            threads_per_shard: threads(),
            max_queue: 256,
        });
        let a = core.add_tenant(TenantSpec::new("a", sig_a.clone()));
        let b = core.add_tenant(TenantSpec::new("b", sig_b.clone()).with_weight(2));

        // Row index 0 on the (only) shard is A's first row; the plan
        // fires exactly there.
        fault::arm(FaultPlan::panic_at_chunk(FaultSite::Row, 0));

        let doomed = core
            .submit(a, input(4096, 99), SubmitOptions::default())
            .expect("unloaded core must admit");
        let mut expected = Vec::new();
        let mut handles = Vec::new();
        for r in 0..b_rows {
            let data = input(1024 + 32 * r, r);
            expected.push(serial::run(&sig_b, &data));
            handles.push(
                core.submit(b, data, SubmitOptions::default())
                    .expect("a neighbor's fault must not shed admitted tenants"),
            );
        }

        let (doomed_result, b_results) = watchdog(60, move || {
            let d = doomed.wait();
            let bs: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            (d, bs)
        });

        let err = doomed_result.expect_err("the faulted row must fail");
        prop_assert!(
            matches!(err, EngineError::WorkerPanicked { .. }),
            "faulted row must surface WorkerPanicked, got {:?}", err
        );
        for ((data, result), expect) in b_results.into_iter().zip(expected) {
            prop_assert!(result.is_ok(), "B row failed: {:?}", result);
            prop_assert_eq!(&data, &expect, "B row must validate");
        }

        // The core keeps serving: a fresh fault-free row for the same
        // tenant completes.
        fault::disarm();
        let again = core
            .submit(a, input(512, 5), SubmitOptions::default())
            .expect("core must keep admitting after a fault");
        prop_assert!(watchdog(60, move || again.wait()).is_ok());

        let stats = core.stats();
        prop_assert_eq!(stats.tenants[a.index()].failed, 1);
        prop_assert_eq!(stats.tenants[b.index()].failed, 0);
        prop_assert_eq!(stats.tenants[b.index()].completed, b_rows as u64);
        core.shutdown();
    }
}

/// `abort()` reaches a row mid-solve: with one single-worker shard and a
/// 30 s stall injected at the row's `Row` site, the abort cancels the
/// held row through the shard's token instead of waiting out the stall,
/// and the row resolves `Cancelled`.
#[test]
fn abort_cancels_a_row_held_mid_solve() {
    let _serial = serialize();
    quiet_injected_panics();
    fault::disarm();

    let core = Arc::new(ServiceCore::new(ServiceConfig {
        shards: 1,
        threads_per_shard: 1,
        max_queue: 256,
    }));
    let tenant = core.add_tenant(TenantSpec::new("t", "1:1".parse().unwrap()));
    fault::arm(FaultPlan::delay_at_chunk(
        FaultSite::Row,
        0,
        Duration::from_secs(30),
    ));
    let held = core
        .submit(tenant, input(4096, 1), SubmitOptions::default())
        .expect("unloaded core must admit");
    let start = Instant::now();
    while core.stats().shards[0].in_service != 1 {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the row never reached a worker"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let aborting = Arc::clone(&core);
    let took = watchdog(5, move || {
        let start = Instant::now();
        aborting.abort();
        start.elapsed()
    });
    fault::disarm();
    assert!(
        took < Duration::from_secs(5),
        "abort must not wait out the stall, took {took:?}"
    );
    match watchdog(5, move || held.wait()) {
        Err(EngineError::Cancelled) => {}
        other => panic!("the held row must resolve Cancelled, got {other:?}"),
    }
}
