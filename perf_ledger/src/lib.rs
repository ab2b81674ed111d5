//! # plr-ledger
//!
//! The repository's performance ledger: five fixed, seeded workloads run
//! through the public API of `plr-core`, `plr-parallel` and `plr-service`,
//! with end-to-end metrics from untraced runs and per-layer metrics from a
//! separate traced run. `BENCHMARK.json` at the repository root names the
//! workloads and the contract metrics; it is compiled in (see [`catalog`]).

pub mod catalog;
pub mod compare;
pub mod json;
pub mod provenance;
pub mod replay;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;

use json::Json;
use trace::Span;

/// How one workload run is driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    pub seed: u64,
    /// Wall-clock budget of the measured phase.
    pub seconds: f64,
    /// `false`: the untraced run that yields the end-to-end metrics;
    /// `true`: the traced run that yields the per-layer metrics.
    pub trace: bool,
    /// Tiny inputs and few requests, for tests and smoke runs.
    pub quick: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    /// Requests that returned an error or a wrong output.
    pub failed: u64,
    /// Wrong outputs, and errors no load condition explains (anything but
    /// a missed deadline). Any makes the run incorrect.
    pub wrong: u64,
    pub metrics: Vec<Metric>,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn put(&mut self, name: &str, unit: &str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value,
        });
    }

    /// The result object: `correct`, `attempted`, `failed` and the given
    /// metrics as `{name: {value, unit}}`.
    pub fn result<'a>(&self, metrics: impl IntoIterator<Item = &'a Metric>) -> Json {
        let metrics = metrics
            .into_iter()
            .map(|m| {
                let v = Json::obj([("value", m.value.into()), ("unit", m.unit.as_str().into())]);
                (m.name.clone(), v)
            })
            .collect();
        Json::obj([
            ("correct", (self.wrong == 0).into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Counts one checked request.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.wrong += 1;
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
