//! Where and how a results file was produced: source revision, toolchain,
//! compiled and detected vector ISA, kernel tier, and host.

use crate::json::Json;
use plr_core::kernel;
use plr_core::simd;
use std::path::Path;
use std::process::Command;

/// Version of the results-file layout; bump on any incompatible change.
pub const SCHEMA: &str = "plr-ledger/1";

/// The repository root this package was built from.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package lives inside the repository")
}

fn run(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// `(revision, dirty)`, or `("unknown", false)` outside a git checkout. Git
/// is pointed at this repository's own `.git`, never a parent's.
fn git_state() -> (String, bool) {
    let root = repo_root();
    let git = || {
        let mut c = Command::new("git");
        c.arg("--git-dir")
            .arg(root.join(".git"))
            .arg("--work-tree")
            .arg(root);
        c
    };
    match run(git().args(["rev-parse", "HEAD"])) {
        Some(rev) => {
            let dirty = run(git().args(["status", "--porcelain"])).is_some_and(|s| !s.is_empty());
            (rev, dirty)
        }
        None => ("unknown".into(), false),
    }
}

/// Vector features this binary was compiled for (the root
/// `.cargo/config.toml` builds for the host CPU).
fn compiled_features() -> Vec<&'static str> {
    [
        ("sse2", cfg!(target_feature = "sse2")),
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("avx512dq", cfg!(target_feature = "avx512dq")),
        ("avx512vl", cfg!(target_feature = "avx512vl")),
        ("neon", cfg!(target_feature = "neon")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect()
}

fn first_line_value(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_owned())
    })
}

/// Sizes of the L2 and L3 caches of CPU 0, as sysfs reports them.
fn cache_sizes() -> (String, String) {
    let mut l2 = String::from("unknown");
    let mut l3 = l2.clone();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| {
            std::fs::read_to_string(format!("{dir}/{f}"))
                .ok()
                .map(|s| s.trim().to_owned())
        };
        match (read("level").as_deref(), read("size")) {
            (Some("2"), Some(size)) => l2 = size,
            (Some("3"), Some(size)) => l3 = size,
            _ => {}
        }
    }
    (l2, l3)
}

pub fn collect(seed: u64, seconds: f64, quick: bool) -> Json {
    let (rev, dirty) = git_state();
    let (l2, l3) = cache_sizes();
    let isa = |i: Option<simd::Isa>| {
        Json::from(i.map_or_else(|| "none".to_owned(), |i| format!("{i:?}")))
    };
    Json::obj([
        ("git_rev", rev.into()),
        ("git_dirty", dirty.into()),
        (
            "rustc",
            run(Command::new("rustc").arg("--version"))
                .unwrap_or_default()
                .into(),
        ),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        (
            "target_features",
            Json::Arr(compiled_features().into_iter().map(Json::from).collect()),
        ),
        (
            "best_isa",
            Json::obj([
                ("f32", isa(simd::best_isa::<f32>())),
                ("f64", isa(simd::best_isa::<f64>())),
                ("i32", isa(simd::best_isa::<i32>())),
                ("i64", isa(simd::best_isa::<i64>())),
            ]),
        ),
        ("kernel_tier", format!("{:?}", kernel::tier()).into()),
        (
            "nproc",
            (std::thread::available_parallelism().map_or(0, |n| n.get()) as u64).into(),
        ),
        ("threads", (plr_parallel::resolve_threads(0) as u64).into()),
        (
            "cpu_model",
            first_line_value("/proc/cpuinfo", "model name")
                .unwrap_or_default()
                .into(),
        ),
        ("l2_size", l2.into()),
        ("l3_size", l3.into()),
        (
            "mem_total",
            first_line_value("/proc/meminfo", "MemTotal")
                .unwrap_or_default()
                .into(),
        ),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("quick", quick.into()),
    ])
}
