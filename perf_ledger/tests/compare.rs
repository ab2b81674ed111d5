//! The `compare` decision rule on synthetic runs.

use plr_ledger::catalog::catalog;
use plr_ledger::compare::{collect, decide, report, Verdict};
use plr_ledger::json::Json;

/// Ten runs around `center` with a ±1% wobble.
fn runs(center: f64) -> Vec<f64> {
    (0..10)
        .map(|i| center * (1.0 + 0.002 * (i % 5) as f64 - 0.004))
        .collect()
}

#[test]
fn worse_beyond_the_bound_is_a_regression() {
    assert_eq!(
        decide(&runs(100.0), &runs(80.0), true, Some(0.1)),
        Verdict::Regression
    );
    assert_eq!(
        decide(&runs(10.0), &runs(12.0), false, Some(0.1)),
        Verdict::Regression
    );
}

#[test]
fn consistently_worse_within_the_bound_is_a_loss_not_a_regression() {
    assert_eq!(
        decide(&runs(100.0), &runs(95.0), true, Some(0.1)),
        Verdict::Loss
    );
}

#[test]
fn spread_wider_than_the_bound_is_unresolved() {
    let base = [
        80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 95.0, 105.0, 100.0,
    ];
    let new: Vec<f64> = base.iter().map(|b| b * 0.98).collect();
    assert_eq!(decide(&base, &new, true, Some(0.1)), Verdict::Unresolved);
    // Unless every change run beats every parent run.
    let all_better: Vec<f64> = base.iter().map(|b| b + 100.0).collect();
    assert_eq!(
        decide(&base, &all_better, true, Some(0.1)),
        Verdict::BetterEveryRun
    );
}

#[test]
fn a_gain_needs_nine_in_ten_pairs_and_separated_medians() {
    assert_eq!(
        decide(&runs(100.0), &runs(103.0), true, Some(0.1)),
        Verdict::Gain
    );
    assert_eq!(
        decide(&runs(10.0), &runs(9.5), false, Some(0.1)),
        Verdict::Gain
    );
    // Eight of ten pairs are not enough.
    let base = runs(100.0);
    let mut new = runs(103.0);
    new[0] = 90.0;
    new[1] = 90.0;
    assert_eq!(decide(&base, &new, true, Some(0.1)), Verdict::NoChange);
    // Nor are fewer than ten pairs, however clear.
    assert_eq!(
        decide(&base[..5], &runs(103.0)[..5], true, Some(0.1)),
        Verdict::NoChange
    );
    // Medians inside the parent's interquartile range are not a gain.
    let wide: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 5) * 2.0).collect();
    let nudged: Vec<f64> = wide.iter().map(|b| b + 0.5).collect();
    assert_eq!(decide(&wide, &nudged, true, Some(0.1)), Verdict::NoChange);
    // Metrics without a bound still get the gain rule.
    assert_eq!(decide(&runs(5.0), &runs(4.0), false, None), Verdict::Gain);
}

fn results(roofline: f64) -> Json {
    let metric = |v: f64, unit: &str| Json::obj([("value", v.into()), ("unit", unit.into())]);
    Json::obj([(
        "workloads",
        Json::obj([(
            "psum2_i64_16mi",
            Json::obj([(
                "metrics",
                Json::obj([
                    ("roofline_frac", metric(roofline, "frac")),
                    ("peak_rss_mb", metric(400.0, "MiB")),
                ]),
            )]),
        )]),
    )])
}

#[test]
fn report_flags_regressions_from_results_files() {
    let base: Vec<Json> = runs(0.5).into_iter().map(results).collect();
    let same: Vec<Json> = runs(0.5).into_iter().map(results).collect();
    let slow: Vec<Json> = runs(0.3).into_iter().map(results).collect();
    let cat = catalog();
    let (lines, regressed) = report(&cat, &collect(&base), &collect(&same));
    assert!(!regressed);
    assert_eq!(lines.len(), 3, "header plus one row per shared metric");
    let (lines, regressed) = report(&cat, &collect(&base), &collect(&slow));
    assert!(regressed);
    assert!(lines
        .iter()
        .any(|l| l.contains("roofline_frac") && l.contains("REGRESSION")));
}
