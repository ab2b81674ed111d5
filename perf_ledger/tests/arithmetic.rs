//! The order statistics and the span self-time arithmetic.

use plr_ledger::json::Json;
use plr_ledger::stats::{median, percentile, quartiles, relative_iqr};
use plr_ledger::trace::{self_times, Span};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn percentiles_interpolate_between_ranks() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!(close(median(&v), 5.5));
    assert!(close(percentile(&v, 0.0), 1.0));
    assert!(close(percentile(&v, 100.0), 10.0));
    assert!(close(percentile(&v, 90.0), 9.1));
    assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
    assert!(percentile(&[], 50.0).is_nan());
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Values from Python's `statistics.quantiles(v, n=4)`.
    let cases: [(&[f64], (f64, f64)); 4] = [
        (&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.], (2.75, 8.25)),
        (&[3., 1., 2.], (1.0, 3.0)),
        (&[5., 1., 9., 2., 7., 3.], (1.75, 7.5)),
        (&[4., 8.], (3.0, 9.0)),
    ];
    for (v, (q1, q3)) in cases {
        let (a, b) = quartiles(v);
        assert!(close(a, q1) && close(b, q3), "{v:?}: got ({a}, {b})");
    }
    assert!(close(
        relative_iqr(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]),
        5.5 / 5.5
    ));
}

fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
    Span {
        id,
        parent,
        req: 0,
        name,
        start,
        end,
        args: Vec::new(),
    }
}

#[test]
fn self_time_subtracts_the_union_of_children_inside_the_parent() {
    let spans = [
        span(1, None, "request", 0, 100),
        // Two overlapping children cover [10, 60) once, not twice.
        span(2, Some(1), "call", 10, 40),
        span(3, Some(1), "call", 30, 60),
        // A child that outlives its parent counts only inside it.
        span(4, Some(1), "check", 90, 120),
        // A grandchild is its parent's business, not the root's.
        span(5, Some(2), "kernel", 15, 25),
    ];
    let s = self_times(&spans);
    assert_eq!(s["request"], (1, 100, 40));
    assert_eq!(s["call"], (2, 60, 50));
    assert_eq!(s["check"], (1, 30, 30));
    assert_eq!(s["kernel"], (1, 10, 10));
}

#[test]
fn json_round_trips() {
    let doc =
        Json::parse(r#"{"a": [1, 2.5e-3, -7], "b": "x\"y\\z\né", "c": {"d": null, "e": true}}"#)
            .expect("valid JSON");
    assert_eq!(Json::parse(&doc.dump()).expect("own output parses"), doc);
    assert_eq!(doc.get("b").and_then(Json::as_str), Some("x\"y\\z\né"));
    assert!(Json::parse("{\"a\": 1,}").is_err());
    assert_eq!(Json::Num(f64::NAN).dump(), "null");
}
