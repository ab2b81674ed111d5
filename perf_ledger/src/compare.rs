//! `compare`: the decision rule for two sets of runs (a parent and a
//! change), applied to every workload × metric the two sets share.
//!
//! - A regression counts only when the change's median is worse than the
//!   parent's by more than the metric's bound.
//! - When the run-to-run spread (interquartile range over median, the
//!   wider of the two sides) exceeds the bound, the metric is
//!   *unresolved* — unless every run of the change beats every run of the
//!   parent.
//! - A gain counts only when the change wins at least nine tenths of the
//!   alternating pairs (ties count for neither side; at least ten pairs)
//!   and the medians differ by more than the parent's interquartile range.
//!   The mirror image, within the bound, is a *loss*.

use crate::catalog::Catalog;
use crate::json::Json;
use crate::stats::{median, quartiles, relative_iqr};
use std::collections::BTreeMap;
use std::fmt;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regression,
    Unresolved,
    /// Spread wider than the bound, but every change run beats every
    /// parent run.
    BetterEveryRun,
    Gain,
    Loss,
    NoChange,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::BetterEveryRun => "better (every run)",
            Verdict::Gain => "gain",
            Verdict::Loss => "loss (within bound)",
            Verdict::NoChange => "no change",
        })
    }
}

/// Minimum number of alternating pairs a gain or loss may rest on.
pub const MIN_PAIRS: usize = 10;

/// Applies the rule to one metric. `base[i]` and `new[i]` are the i-th
/// alternating pair; `bound` is `None` for metrics without one.
pub fn decide(base: &[f64], new: &[f64], higher_is_better: bool, bound: Option<f64>) -> Verdict {
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let (mb, mn) = (median(base), median(new));
    let pairs = base.len().min(new.len());
    let (mut wins, mut losses) = (0, 0);
    for (&b, &n) in base.iter().zip(new) {
        if better(n, b) {
            wins += 1;
        } else if better(b, n) {
            losses += 1;
        }
    }
    let (q1, q3) = quartiles(base);
    let separated = (mn - mb).abs() > q3 - q1;
    let decisive = |w: usize| pairs >= MIN_PAIRS && w * 10 >= pairs * 9 && separated;
    if let Some(bound) = bound {
        let spread = relative_iqr(base).max(relative_iqr(new));
        if spread > bound {
            let every = new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
            return if every {
                Verdict::BetterEveryRun
            } else {
                Verdict::Unresolved
            };
        }
        let worse_by = if higher_is_better { mb - mn } else { mn - mb } / mb.abs();
        if worse_by > bound {
            return Verdict::Regression;
        }
    }
    if decisive(wins) {
        Verdict::Gain
    } else if decisive(losses) {
        Verdict::Loss
    } else {
        Verdict::NoChange
    }
}

/// Values of every `workload/metric` across a set of results files, in
/// file order, with each metric's unit.
pub type Series = BTreeMap<(String, String), (String, Vec<f64>)>;

pub fn collect(docs: &[Json]) -> Series {
    let mut out = Series::new();
    for doc in docs {
        let Some(workloads) = doc.get("workloads").and_then(Json::as_object) else {
            continue;
        };
        for (w, body) in workloads {
            let Some(metrics) = body.get("metrics").and_then(Json::as_object) else {
                continue;
            };
            for (m, v) in metrics {
                if let Some(value) = v.get("value").and_then(Json::as_f64) {
                    let unit = v
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_owned();
                    out.entry((w.clone(), m.clone()))
                        .or_insert_with(|| (unit, Vec::new()))
                        .1
                        .push(value);
                }
            }
        }
    }
    out
}

/// One printable row per workload × metric present on both sides, and
/// whether any is a regression.
pub fn report(catalog: &Catalog, base: &Series, new: &Series) -> (Vec<String>, bool) {
    let mut lines = vec![format!(
        "{:<20} {:<27} {:>24} {:>24} {:>8}  verdict",
        "workload", "metric", "parent median [q1,q3]", "change median [q1,q3]", "Δ%"
    )];
    let mut regressed = false;
    for (key, (unit, b)) in base {
        let Some((_, n)) = new.get(key) else {
            continue;
        };
        let spec = catalog.spec(&key.1);
        // Metrics outside the contract (workload-specific ones) declare no
        // direction: rates are higher-is-better, times and shares lower.
        let higher = spec.map_or(unit.ends_with("/s"), |s| s.higher_is_better);
        let verdict = decide(b, n, higher, spec.and_then(|s| s.bound));
        regressed |= verdict == Verdict::Regression;
        let show = |v: &[f64]| {
            let (q1, q3) = quartiles(v);
            format!("{:.4} [{:.4},{:.4}]", median(v), q1, q3)
        };
        lines.push(format!(
            "{:<20} {:<27} {:>24} {:>24} {:>+8.2}  {verdict}",
            key.0,
            format!("{} ({unit})", key.1),
            show(b),
            show(n),
            (median(n) / median(b) - 1.0) * 100.0
        ));
    }
    (lines, regressed)
}
