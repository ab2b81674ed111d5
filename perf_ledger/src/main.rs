//! Command line of the performance ledger.
//!
//! ```text
//! plr-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! plr-ledger run --seed <n> [--seconds <s>] [--trace] [--quick] [--workload <name>]...
//! plr-ledger compare --base <results.json>... --new <results.json>...
//! ```
//!
//! The first form runs one workload and prints, as its last stdout line,
//! the contract's result object (`BENCHMARK.json`). `run` runs workloads in
//! child processes (so each one's peak RSS is its own), prints every metric
//! and writes `results/<rev>-<seed>.json`. `compare` applies the ledger's
//! decision rule to two sets of results files.

use plr_ledger::catalog::catalog;
use plr_ledger::compare;
use plr_ledger::json::Json;
use plr_ledger::provenance;
use plr_ledger::trace;
use plr_ledger::workloads::{self, summary_lines};
use plr_ledger::{Config, Report};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  plr-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  plr-ledger run --seed <n> [--seconds <s>] [--trace] [--quick] [--workload <name>]...
  plr-ledger compare --base <results.json>... --new <results.json>...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("-h" | "--help") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(_) => cmd_workload(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("plr-ledger: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Flags shared by the workload and `run` forms.
struct Flags {
    workloads: Vec<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    /// Print every metric on the result line, not only the contract's.
    all_metrics: bool,
}

fn parse_flags(args: &[String], trace_takes_value: bool) -> Result<Flags, String> {
    let mut f = Flags {
        workloads: Vec::new(),
        seed: None,
        seconds: None,
        trace: false,
        quick: false,
        all_metrics: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => f.workloads.push(value()?.clone()),
            "--seed" => f.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                f.seconds = Some(s);
            }
            "--trace" if trace_takes_value => {
                f.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--trace" => f.trace = true,
            "--quick" => f.quick = true,
            "--all-metrics" => f.all_metrics = true,
            _ => return Err(format!("unknown argument `{a}`")),
        }
    }
    Ok(f)
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// A human-readable block for one workload's result object.
fn describe(name: &str, result: &Json) -> String {
    let count = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let verdict = if result.get("correct") == Some(&Json::Bool(true)) {
        "all outputs correct"
    } else {
        "WRONG OUTPUTS"
    };
    let mut out = format!(
        "== {name}: attempted {}, failed {}, {verdict}\n",
        count("attempted"),
        count("failed")
    );
    for (m, v) in result
        .get("metrics")
        .and_then(Json::as_object)
        .into_iter()
        .flatten()
    {
        let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
        out.push_str(&format!("   {m:<28} {value:>16.6} {unit}\n"));
    }
    out
}

/// One workload in this process: the command form `BENCHMARK.json` names.
fn cmd_workload(args: &[String]) -> Result<ExitCode, String> {
    let f = parse_flags(args, true)?;
    let [name] = f.workloads.as_slice() else {
        return Err("give exactly one --workload".into());
    };
    let cat = catalog();
    let cfg = Config {
        seed: f.seed.ok_or("--seed is required")?,
        seconds: f.seconds.unwrap_or(cat.run_seconds),
        trace: f.trace,
        quick: f.quick,
    };
    let report: Report = workloads::run(name, &cfg)?;
    let full = report.result(&report.metrics);
    eprint!("{}", describe(name, &full));
    if cfg.trace {
        for line in summary_lines(&report.spans) {
            eprintln!("   {line}");
        }
        let dir = results_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{name}.json"));
        std::fs::write(&path, trace::chrome_trace(name, &report.spans).dump())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("   trace written to {}", path.display());
    }
    let line = if f.all_metrics {
        full
    } else {
        cat.result_line(&report, cfg.trace)?
    };
    println!("{}", line.dump());
    Ok(if report.wrong == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one workload in a child process and returns its result object.
fn child(name: &str, seed: u64, seconds: f64, traced: bool, quick: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }, "--all-metrics"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("{name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(last)
        .map_err(|e| format!("{name}: unreadable result ({e}); exit {}", out.status))?;
    if !out.status.success() {
        eprintln!("plr-ledger: {name} exited with {}", out.status);
    }
    Ok(doc)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let f = parse_flags(args, false)?;
    let seed = f.seed.ok_or("--seed is required")?;
    let seconds = f.seconds.unwrap_or(catalog().run_seconds);
    let names: Vec<String> = if f.workloads.is_empty() {
        workloads::NAMES.iter().map(|s| (*s).to_owned()).collect()
    } else {
        f.workloads.clone()
    };
    let mut all_correct = true;
    let mut results = BTreeMap::new();
    for name in &names {
        let passes: &[bool] = if f.trace { &[false, true] } else { &[false] };
        let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
        let mut metrics = BTreeMap::new();
        for &traced in passes {
            let doc = child(name, seed, seconds, traced, f.quick)?;
            attempted += doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            failed += doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            correct &= doc.get("correct") == Some(&Json::Bool(true));
            if let Some(m) = doc.get("metrics").and_then(Json::as_object) {
                metrics.extend(m.clone());
            }
        }
        all_correct &= correct;
        let result = Json::obj([
            ("attempted", attempted.into()),
            ("failed", failed.into()),
            ("correct", correct.into()),
            ("metrics", Json::Obj(metrics)),
        ]);
        print!("{}", describe(name, &result));
        results.insert(name.clone(), result);
    }
    let prov = provenance::collect(seed, seconds, f.quick);
    let rev = prov
        .get("git_rev")
        .and_then(Json::as_str)
        .unwrap_or("unknown");
    let short = &rev[..rev.len().min(12)];
    let dirty = if prov.get("git_dirty") == Some(&Json::Bool(true)) {
        "-dirty"
    } else {
        ""
    };
    let doc = Json::obj([
        ("schema", provenance::SCHEMA.into()),
        ("provenance", prov.clone()),
        ("workloads", Json::Obj(results)),
    ]);
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{short}{dirty}-{seed}.json"));
    std::fs::write(&path, doc.dump() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let (mut base, mut new) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<Json>> = None;
    for a in args {
        match a.as_str() {
            "--base" => side = Some(&mut base),
            "--new" => side = Some(&mut new),
            path => {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
                side.as_mut()
                    .ok_or("name --base or --new before files")?
                    .push(doc);
            }
        }
    }
    if base.is_empty() || new.is_empty() {
        return Err("compare needs at least one --base and one --new file".into());
    }
    let (lines, regressed) = compare::report(
        &catalog(),
        &compare::collect(&base),
        &compare::collect(&new),
    );
    for line in lines {
        println!("{line}");
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
