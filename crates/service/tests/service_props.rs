//! Service-core properties: weighted-fair-queueing share bounds over
//! arbitrary arrival interleavings, end-to-end multi-tenant correctness
//! against the serial reference, quota and overload rejection behavior,
//! and shutdown liveness.

use plr_core::error::EngineError;
use plr_core::serial;
use plr_core::signature::Signature;
use plr_service::{ServiceConfig, ServiceCore, SubmitOptions, TenantSpec, Wfq};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]
    /// The classic WFQ service bound: over any interval in which tenants
    /// `i` and `j` are both continuously backlogged, their normalized
    /// service (work / weight) differs by at most one maximum item cost
    /// per tenant: `|W_i/w_i - W_j/w_j| <= L_max/w_i + L_max/w_j`.
    ///
    /// The proptest drives the queue with an *arbitrary* arrival
    /// interleaving (tenant order, item costs, weights all generated),
    /// then serves while every tenant remains backlogged and checks the
    /// bound on every prefix of the service order — no interleaving may
    /// let one tenant run ahead of its share.
    #[test]
    fn wfq_share_deviation_is_bounded_over_any_interleaving(
        weights in proptest::collection::vec(1u32..6, 2..4),
        arrivals in proptest::collection::vec((0usize..4, 1u32..9), 24..160),
    ) {
        let tenants = weights.len();
        let mut q = Wfq::new();
        let mut queued_cost = vec![0.0f64; tenants];
        let mut max_cost = 1.0f64;
        for &(t, c) in &arrivals {
            let t = t % tenants;
            let cost = f64::from(c);
            q.push(t, weights[t], cost, cost);
            queued_cost[t] += cost;
            max_cost = max_cost.max(cost);
        }
        prop_assume!(queued_cost.iter().all(|&c| c > 0.0));

        // Serve while *all* tenants stay backlogged (the bound only
        // applies to continuously-backlogged sets).
        let mut served = vec![0.0f64; tenants];
        let mut remaining = queued_cost.clone();
        while remaining.iter().all(|&c| c > 0.0) {
            let (t, cost) = q.pop().expect("backlogged queue");
            served[t] += cost;
            remaining[t] -= cost;
            for i in 0..tenants {
                for j in (i + 1)..tenants {
                    let wi = f64::from(weights[i]);
                    let wj = f64::from(weights[j]);
                    let dev = (served[i] / wi - served[j] / wj).abs();
                    let bound = max_cost / wi + max_cost / wj;
                    prop_assert!(
                        dev <= bound + 1e-9,
                        "share deviation {dev} exceeds bound {bound} \
                         (weights {weights:?}, served {served:?})"
                    );
                }
            }
        }
    }
}

/// Worker count for the suite: the `PLR_THREADS` CI matrix leg when set,
/// otherwise 2 per shard.
fn threads() -> usize {
    std::env::var("PLR_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(2)
}

fn input(n: usize, salt: usize) -> Vec<i64> {
    (0..n)
        .map(|i| ((i * 29 + salt * 13) % 19) as i64 - 9)
        .collect()
}

/// Three tenants with *different* recurrences interleave rows through a
/// two-shard core; every row's output must match the serial reference
/// for its tenant's signature — multi-tenancy changes scheduling, never
/// results.
#[test]
fn heterogeneous_tenants_all_validate_against_serial() {
    let sigs: [Signature<i64>; 3] = [
        "1:1".parse().unwrap(),        // prefix sum
        "(1: 1, 1)".parse().unwrap(),  // Fibonacci-like
        "(1: 2, -1)".parse().unwrap(), // second difference
    ];
    let core = ServiceCore::new(ServiceConfig {
        shards: 2,
        threads_per_shard: threads(),
        max_queue: 0,
    });
    let ids: Vec<_> = sigs
        .iter()
        .enumerate()
        .map(|(i, sig)| {
            core.add_tenant(TenantSpec::new(format!("t{i}"), sig.clone()).with_weight(i as u32 + 1))
        })
        .collect();

    let mut handles = Vec::new();
    let mut expected = Vec::new();
    for round in 0..8 {
        for (t, sig) in sigs.iter().enumerate() {
            let data = input(512 + 64 * round + t, round * 3 + t);
            expected.push(serial::run(sig, &data));
            handles.push(
                core.submit(ids[t], data, SubmitOptions::default())
                    .expect("unloaded core must admit"),
            );
        }
    }
    for (handle, expect) in handles.into_iter().zip(expected) {
        let (data, result) = handle.join();
        result.expect("admitted row must complete");
        assert_eq!(data, expect, "service row must match serial reference");
    }

    let stats = core.stats();
    assert_eq!(stats.tenants.len(), 3);
    for t in &stats.tenants {
        assert_eq!(t.submitted, 8);
        assert_eq!(t.admitted, 8);
        assert_eq!(t.completed, 8);
        assert_eq!(t.failed + t.shed_quota + t.shed_overload, 0);
    }
    assert!(
        stats.shards.iter().map(|s| s.processed).sum::<u64>() >= 24,
        "{stats:?}"
    );
    core.shutdown();
}

/// A tenant with a token-bucket quota gets its burst admitted, then a
/// retryable `QuotaExceeded` with a refill hint; an unmetered tenant on
/// the same core is unaffected.
#[test]
fn quota_exhaustion_is_retryable_and_isolated() {
    let core = ServiceCore::new(ServiceConfig {
        shards: 1,
        threads_per_shard: threads(),
        max_queue: 0,
    });
    let sig: Signature<i64> = "1:1".parse().unwrap();
    // 1 row/s refill: the 3-row burst drains immediately in this loop.
    let metered = core.add_tenant(TenantSpec::new("metered", sig.clone()).with_quota(1.0, 3.0));
    let free = core.add_tenant(TenantSpec::new("free", sig));

    let mut admitted = 0;
    let mut rejected = None;
    for _ in 0..5 {
        match core.submit(metered, vec![1i64; 64], SubmitOptions::default()) {
            Ok(h) => {
                admitted += 1;
                h.wait().unwrap();
            }
            Err(e) => {
                rejected = Some(e);
                break;
            }
        }
    }
    assert_eq!(admitted, 3, "burst credit admits exactly burst rows");
    let err = rejected.expect("4th row must be rejected");
    assert!(matches!(err, EngineError::QuotaExceeded { .. }), "{err:?}");
    assert!(err.is_retryable());
    let hint = err.retry_after_hint().expect("quota error carries a hint");
    assert!(
        hint > Duration::ZERO && hint <= Duration::from_secs(2),
        "{hint:?}"
    );

    // The unmetered tenant is untouched by its neighbor's quota.
    for _ in 0..5 {
        core.submit(free, vec![1i64; 64], SubmitOptions::default())
            .expect("unmetered tenant must admit")
            .wait()
            .unwrap();
    }
    let stats = core.stats();
    assert_eq!(stats.tenants[metered.index()].shed_quota, 1);
    assert_eq!(stats.tenants[free.index()].shed_quota, 0);
    assert_eq!(stats.tenants[free.index()].completed, 5);
}

/// Flooding a tiny-queue single-thread core from a tight loop must trip
/// admission-time shedding (`Overloaded`, retryable, with a hint) while
/// every *admitted* row still completes correctly — overload degrades
/// capacity, never correctness.
#[test]
fn overload_sheds_at_admission_and_admitted_rows_still_complete() {
    let core = ServiceCore::new(ServiceConfig {
        shards: 1,
        threads_per_shard: 1,
        max_queue: 4,
    });
    let sig: Signature<i64> = "1:1".parse().unwrap();
    let tenant = core.add_tenant(TenantSpec::new("flood", sig.clone()));
    let data = input(1 << 18, 7);
    let expect = serial::run(&sig, &data);
    // The flood's rows are built up front: each submit moves a ready
    // buffer instead of cloning 2 MiB, so the loop fills the 4-deep queue
    // faster than the single worker drains it.
    let flood = vec![data; 32];

    let mut handles = Vec::new();
    let mut sheds = 0u32;
    for row in flood {
        match core.submit(tenant, row, SubmitOptions::default()) {
            Ok(h) => handles.push(h),
            Err(e) => {
                assert!(
                    matches!(e, EngineError::Overloaded { .. }),
                    "flood rejection must be Overloaded, got {e:?}"
                );
                assert!(e.is_retryable());
                assert!(e.retry_after_hint().unwrap() > Duration::ZERO);
                sheds += 1;
                if sheds >= 8 {
                    break;
                }
            }
        }
    }
    assert!(
        sheds >= 1,
        "32 instant submissions into a 4-deep single-thread queue must shed"
    );
    for h in handles {
        let (data, result) = h.join();
        result.expect("admitted row must complete despite overload");
        assert_eq!(data, expect);
    }
    let stats = core.stats();
    assert_eq!(
        stats.tenants[tenant.index()].shed_overload,
        u64::from(sheds)
    );
    core.shutdown();
}

/// An infeasible deadline (estimated queue delay exceeds the budget) is
/// shed at the door once the shard has a service-time estimate.
#[test]
fn infeasible_deadlines_are_shed_at_admission() {
    let core = ServiceCore::new(ServiceConfig {
        shards: 1,
        threads_per_shard: 1,
        max_queue: 64,
    });
    let sig: Signature<i64> = "(1: 1, 1)".parse().unwrap();
    let tenant = core.add_tenant(TenantSpec::new("t", sig));
    // Establish the EWMA with a few real rows.
    for _ in 0..4 {
        core.submit(tenant, vec![1i64; 1 << 16], SubmitOptions::default())
            .unwrap()
            .wait()
            .unwrap();
    }
    // Build a backlog, then ask for a budget far below the estimated
    // queue delay: admission must refuse rather than admit-and-miss.
    let mut backlog = Vec::new();
    for _ in 0..32 {
        if let Ok(h) = core.submit(tenant, vec![1i64; 1 << 16], SubmitOptions::default()) {
            backlog.push(h);
        }
    }
    let verdict = core.submit(
        tenant,
        vec![1i64; 1 << 16],
        SubmitOptions::deadline(Duration::from_nanos(1)),
    );
    let err = verdict.expect_err("nanosecond budget behind a backlog is infeasible");
    assert!(matches!(err, EngineError::Overloaded { .. }), "{err:?}");
    for h in backlog {
        h.wait().unwrap();
    }
    core.shutdown();
}

/// `abort()` resolves every in-flight handle (no hangs, no leaks) and
/// later submissions are refused.
#[test]
fn abort_resolves_everything_and_closes_the_door() {
    let core = ServiceCore::new(ServiceConfig {
        shards: 2,
        threads_per_shard: 1,
        max_queue: 256,
    });
    let sig: Signature<i64> = "1:1".parse().unwrap();
    let tenant = core.add_tenant(TenantSpec::new("t", sig));
    let handles: Vec<_> = (0..64)
        .filter_map(|_| {
            core.submit(tenant, vec![1i64; 1 << 15], SubmitOptions::default())
                .ok()
        })
        .collect();
    core.abort();
    for h in handles {
        // Every handle resolves — completed before the abort landed, or
        // cancelled by it. Nothing may hang.
        match h.wait() {
            Ok(_) | Err(EngineError::Cancelled) => {}
            Err(e) => panic!("unexpected outcome after abort: {e:?}"),
        }
    }
    let err = core
        .submit(tenant, vec![1i64; 16], SubmitOptions::default())
        .expect_err("aborted core must refuse new rows");
    assert!(matches!(err, EngineError::Cancelled), "{err:?}");
}

/// Handles are fire-and-forget: dropping one does not cancel its row
/// (the tenant was charged for it; the work completes and is counted).
#[test]
fn dropping_a_handle_does_not_cancel_the_row() {
    let core = ServiceCore::new(ServiceConfig {
        shards: 1,
        threads_per_shard: threads(),
        max_queue: 0,
    });
    let sig: Signature<i64> = "1:1".parse().unwrap();
    let tenant = core.add_tenant(TenantSpec::new("t", sig));
    for _ in 0..16 {
        drop(
            core.submit(tenant, vec![1i64; 4096], SubmitOptions::default())
                .unwrap(),
        );
    }
    // Graceful shutdown waits for every admitted row.
    core.shutdown();
    let stats = core.stats();
    assert_eq!(stats.tenants[0].completed, 16, "{stats:?}");
    assert_eq!(stats.tenants[0].failed, 0);
}
