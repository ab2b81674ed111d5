//! Every workload, in quick mode, emits exactly the metrics BENCHMARK.json
//! declares, in the declared units, with well-formed names.

use plr_ledger::catalog::catalog;
use plr_ledger::json::Json;
use plr_ledger::workloads::{self, NAMES};
use plr_ledger::Config;
use std::collections::BTreeSet;

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_declares_the_implemented_workloads_and_unique_names() {
    let cat = catalog();
    assert_eq!(cat.workloads, NAMES);
    let mut seen = BTreeSet::new();
    for name in cat
        .workloads
        .iter()
        .map(String::as_str)
        .chain(cat.all().map(|m| m.name.as_str()))
    {
        assert!(well_formed(name), "malformed name {name:?}");
        assert!(seen.insert(name), "name {name:?} used twice");
    }
    assert!(cat
        .end_to_end
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    assert!(cat.per_layer.iter().all(|m| m.bound.is_none()));
    let setup = cat.spec("setup_s").expect("setup_s is declared");
    assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let cat = catalog();
    for name in NAMES {
        for traced in [false, true] {
            let cfg = Config {
                seed: 7,
                seconds: 0.02,
                trace: traced,
                quick: true,
            };
            let report = workloads::run(name, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(report.wrong, 0, "{name}: wrong outputs");
            assert!(report.attempted > 0);
            for m in &report.metrics {
                assert!(
                    well_formed(&m.name),
                    "{name}: malformed metric {:?}",
                    m.name
                );
            }
            let line = cat
                .result_line(&report, traced)
                .unwrap_or_else(|e| panic!("{name} (traced: {traced}): {e}"));
            let emitted: BTreeSet<&str> = line
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics object")
                .keys()
                .map(String::as_str)
                .collect();
            let declared = if traced {
                &cat.per_layer
            } else {
                &cat.end_to_end
            };
            let declared: BTreeSet<&str> = declared.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(emitted, declared, "{name} (traced: {traced})");
            assert_eq!(
                traced,
                !report.spans.is_empty(),
                "{name}: spans only when traced"
            );
        }
    }
}
