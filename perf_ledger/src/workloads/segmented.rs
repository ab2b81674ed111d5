//! The sparse segmented workload on `SegmentedRunner`: 1000-element
//! segments over 4 Ki chunks of which 90% are all zero, so per-chunk
//! overhead and reset-terminated look-back dominate rather than the kernel.

use super::{agrees, agrees_large, refresh_copy, run_call, Library, Ran};
use crate::replay::{self, Clock};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::Config;
use plr_core::error::EngineError;
use plr_core::segmented::{self as seg, SegmentedPlan, Segments};
use plr_core::signature::Signature;
use plr_parallel::{RunnerConfig, SegmentedRunner};
use std::time::Instant;

const SIG: &str = "1 : 0.9, -0.2";
const CHUNK: usize = 1 << 12;
const SEGMENT: usize = 1000;
/// One runner thread, unlike the other library workloads. A request is
/// only ~8 ms of tiny chunks, and on a 2-vCPU guest whether the pool's
/// second worker gets the other vCPU in time flips for minutes at a stretch
/// with the host's load: when it does not, the caller claims every chunk
/// alone and the request takes the one-thread time, ~1.5× longer. Two
/// threads made this workload's timing bimodal from run to run; one thread
/// measures the same per-chunk work (zero scans, reset look-back, fix-ups)
/// steadily.
const THREADS: usize = 1;

fn len(cfg: &Config) -> usize {
    if cfg.quick {
        1 << 15
    } else {
        1 << 24
    }
}

/// Zeros, except a seeded tenth of the chunks, filled uniformly.
pub fn input(cfg: &Config) -> Vec<f64> {
    let n = len(cfg);
    let chunks = n / CHUNK;
    let mut rng = Rng::new(cfg.seed, 4);
    // Written out rather than calloc'd: an untouched zero page would make
    // reads of the sparse input cheaper than reads of real data.
    let mut x = Vec::with_capacity(n);
    x.resize(n, 0.0);
    for c in rng.choose(chunks, chunks.div_ceil(10)) {
        for v in &mut x[c * CHUNK..(c + 1) * CHUNK] {
            *v = rng.uniform(-1.0, 1.0);
        }
    }
    x
}

pub struct Sparse {
    sig: Signature<f64>,
    segments: Segments,
    config: RunnerConfig,
    pristine: Vec<f64>,
    buf: Vec<f64>,
    reference: Vec<f64>,
    runner: Option<SegmentedRunner<f64>>,
}

impl Sparse {
    pub fn new(cfg: &Config) -> Self {
        let sig: Signature<f64> = SIG.parse().expect("valid signature literal");
        let pristine = input(cfg);
        let segments = Segments::uniform(SEGMENT, pristine.len());
        let reference = seg::run_serial(&sig, &segments, &pristine);
        Sparse {
            sig,
            segments,
            config: RunnerConfig {
                chunk_size: CHUNK,
                threads: THREADS,
                ..RunnerConfig::default()
            },
            buf: pristine.clone(),
            pristine,
            reference,
            runner: None,
        }
    }
}

impl Library for Sparse {
    type E = f64;

    fn elems(&self) -> usize {
        self.pristine.len()
    }

    fn threads(&self) -> usize {
        self.config.threads
    }

    fn refresh(&mut self, _i: usize) -> f64 {
        refresh_copy(&mut self.buf, &self.pristine)
    }

    fn teardown(&mut self) {
        self.runner = None;
    }

    fn setup(&mut self) -> Result<Ran, EngineError> {
        self.runner = Some(SegmentedRunner::with_config(
            self.sig.clone(),
            self.segments.clone(),
            self.pristine.len(),
            self.config,
        )?);
        self.call(None)
    }

    fn call(&mut self, tracer: Option<(&mut Tracer, u64, u64)>) -> Result<Ran, EngineError> {
        let runner = self.runner.as_ref().expect("set up before use");
        let buf = &mut self.buf;
        run_call(tracer, "runner.run_in_place", || runner.run_in_place(buf))
    }

    fn check(&mut self, i: usize) -> bool {
        agrees_large(i, &self.reference, &self.buf)
    }

    fn plan_build(&mut self) -> (Instant, Instant) {
        let t = Instant::now();
        let built =
            SegmentedPlan::build(&self.sig, self.segments.clone(), self.pristine.len(), CHUNK);
        let end = Instant::now();
        built.expect("the workload's plan builds");
        (t, end)
    }

    fn plan_hit(&mut self) -> Option<(Instant, Instant)> {
        // Segmented plans bypass the plan cache by design.
        None
    }

    fn replay(&mut self, clock: &mut Clock<'_>) -> (f64, bool) {
        // The reference buffer is free once the runner's last output passed.
        let out = &mut self.reference;
        out.copy_from_slice(&self.pristine);
        let plan = self.runner.as_ref().expect("set up before use").plan();
        let t = Instant::now();
        replay::segmented(plan, out, clock);
        let s = t.elapsed().as_secs_f64();
        (s, agrees(&self.buf, out))
    }

    fn input(&self) -> &[f64] {
        &self.pristine
    }
}
