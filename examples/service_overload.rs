//! Multi-tenant service under overload — quotas, fair shares, shedding.
//!
//! [`ServiceCore`] fronts the parallel runtime for many tenants at once:
//! each tenant registers its recurrence once, then submits rows and gets
//! per-row handles back. The core enforces three things at admission —
//! token-bucket quotas, weighted fair queueing across backlogged
//! tenants, and load shedding when the estimated queue delay would blow
//! a row's deadline — so an overloaded service degrades by *rejecting
//! cheaply at the door* (with a retry hint) instead of by queueing
//! unboundedly and missing every deadline at once.
//!
//! ```text
//! cargo run --release --example service_overload
//! ```

use plr::{ServiceConfig, ServiceCore, SubmitOptions, TenantSpec};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A deliberately small core: one shard, two workers, and room for
    // only eight queued rows — overload is the point of this demo.
    let core: ServiceCore<f64> = ServiceCore::new(ServiceConfig {
        shards: 1,
        threads_per_shard: 2,
        max_queue: 8,
    });

    // Two paying tiers and a metered free tier. Weight decides who wins
    // the queue when everyone is backlogged; the quota caps the free
    // tier's admission rate outright (2 rows/s, burst of 3).
    let gold = core.add_tenant(TenantSpec::new("gold", "0.2 : 0.8".parse()?).with_weight(4));
    let silver = core.add_tenant(TenantSpec::new("silver", "(1: 1, 1)".parse()?).with_weight(2));
    let free = core.add_tenant(TenantSpec::new("free", "(1: 2, -1)".parse()?).with_quota(2.0, 3.0));

    // 1. Normal load: everything is admitted, handles resolve per row.
    let row = |salt: u64| -> Vec<f64> {
        (0..32_768)
            .map(|i| ((i as u64).wrapping_mul(salt) % 97) as f64 / 97.0)
            .collect()
    };
    let handle = core.submit(gold, row(3), SubmitOptions::default())?;
    let (data, result) = handle.join();
    result?;
    println!(
        "calm sea: gold row solved, y[last] = {:.3}",
        data.last().unwrap()
    );

    // 2. The free tier hits its quota: the 4th row inside the burst
    // window bounces with `QuotaExceeded` and a refill hint. The error
    // is retryable — nothing about the tenant or the service is broken.
    let mut free_ok = 0usize;
    let mut quota_hint = None;
    for salt in 0..5 {
        match core.submit(free, row(salt + 11), SubmitOptions::default()) {
            Ok(h) => {
                free_ok += 1;
                h.join().1?;
            }
            Err(e) => {
                assert!(e.is_retryable());
                quota_hint = e.retry_after_hint();
                break;
            }
        }
    }
    println!(
        "free tier: {free_ok} rows admitted, then quota-shed (retry after {:?})",
        quota_hint.unwrap_or_default()
    );

    // 3. Overload: flood the core far past its queue. Rows carry a
    // deadline budget, so admission refuses work it already knows will
    // miss — `Overloaded`, again retryable, again with a hint.
    let budget = SubmitOptions::deadline(Duration::from_secs(2));
    let mut handles = Vec::new();
    let mut shed = 0usize;
    for salt in 0..64 {
        let tenant = if salt % 3 == 0 { silver } else { gold };
        match core.submit(tenant, row(salt + 29), budget.clone()) {
            Ok(h) => handles.push(h),
            Err(_) => shed += 1,
        }
    }
    println!(
        "storm: {} of 64 rows admitted, {shed} shed at the door",
        handles.len()
    );

    // Every *admitted* row still completes — shedding protects the rows
    // the core said yes to.
    for h in handles {
        h.join().1?;
    }
    println!("storm: every admitted row completed within budget");

    // 4. A well-behaved client sleeps each rejection's hint and tries
    // again, a bounded number of times: sheds become sleeps, and the row
    // lands once the queue drains.
    for attempt in 1..=16 {
        match core.submit(gold, row(101), SubmitOptions::default()) {
            Ok(h) => {
                h.join().1?;
                println!("patient client: admitted on attempt {attempt}");
                break;
            }
            Err(e) if e.is_retryable() && attempt < 16 => {
                std::thread::sleep(e.retry_after_hint().unwrap_or_default());
            }
            Err(e) => {
                println!("patient client: gave up ({e})");
                break;
            }
        }
    }

    // 5. The ledger: per-tenant admission/shed/goodput counters and
    // per-shard queue health.
    let stats = core.stats();
    for t in &stats.tenants {
        println!(
            "tenant {:<6} w{}: submitted {:>3}, admitted {:>3}, completed {:>3}, \
             shed {} (quota {} / overload {})",
            t.name,
            t.weight,
            t.submitted,
            t.admitted,
            t.completed,
            t.shed_quota + t.shed_overload,
            t.shed_quota,
            t.shed_overload,
        );
    }
    for (i, s) in stats.shards.iter().enumerate() {
        println!(
            "shard {i}: {} workers, {} rows served, ewma service {:.1}us, degraded: {}",
            s.width,
            s.processed,
            s.ewma_service_nanos as f64 / 1e3,
            s.degraded
        );
    }

    core.shutdown();
    Ok(())
}
