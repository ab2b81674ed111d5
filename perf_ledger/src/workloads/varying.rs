//! The per-request selective-scan workload on `VaryingRunner`: every
//! request brings fresh gates, so building the matrix-carry plan is part of
//! what each request costs.

use super::{agrees, refresh_copy, run_call, Library, Ran};
use crate::replay::{self, Clock};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::Config;
use plr_core::error::EngineError;
use plr_core::varying::{self, VaryingPlan, VaryingSignature};
use plr_parallel::{resolve_threads, RunnerConfig, VaryingRunner};
use std::time::Instant;

fn len(cfg: &Config) -> usize {
    if cfg.quick {
        1 << 12
    } else {
        1 << 19
    }
}

/// The input sequence (the same for every request) and request `i`'s
/// gates, in `[0.5, 0.99)` like a discretized decay `exp(-Δ·A)`.
pub fn inputs(cfg: &Config, i: usize) -> (Vec<f32>, Vec<f32>) {
    let n = len(cfg);
    let mut rng = Rng::new(cfg.seed, 3);
    let x = (0..n).map(|_| rng.uniform(-1.0, 1.0) as f32).collect();
    (x, gates(cfg, i))
}

fn gates(cfg: &Config, i: usize) -> Vec<f32> {
    let mut rng = Rng::new(cfg.seed, 1000 + i as u64);
    (0..len(cfg))
        .map(|_| rng.uniform(0.5, 0.99) as f32)
        .collect()
}

pub struct Ssm {
    cfg: Config,
    config: RunnerConfig,
    x: Vec<f32>,
    buf: Vec<f32>,
    /// The next request's gates.
    gates: Vec<f32>,
    /// The last request's signature and runner.
    sig: Option<VaryingSignature<f32>>,
    runner: Option<VaryingRunner<f32>>,
    scratch: Vec<f32>,
}

impl Ssm {
    pub fn new(cfg: &Config) -> Self {
        let (x, gates) = inputs(cfg, 0);
        Ssm {
            cfg: *cfg,
            config: RunnerConfig {
                threads: resolve_threads(0),
                ..RunnerConfig::default()
            },
            buf: x.clone(),
            scratch: x.clone(),
            x,
            gates,
            sig: None,
            runner: None,
        }
    }

    fn sig(&self) -> &VaryingSignature<f32> {
        self.sig.as_ref().expect("a request ran")
    }
}

impl Library for Ssm {
    type E = f32;

    fn elems(&self) -> usize {
        self.x.len()
    }

    fn threads(&self) -> usize {
        self.config.threads
    }

    fn refresh(&mut self, i: usize) -> f64 {
        self.gates = gates(&self.cfg, i);
        refresh_copy(&mut self.buf, &self.x)
    }

    fn teardown(&mut self) {
        self.runner = None;
    }

    fn setup(&mut self) -> Result<Ran, EngineError> {
        self.call(None)
    }

    fn call(&mut self, mut tracer: Option<(&mut Tracer, u64, u64)>) -> Result<Ran, EngineError> {
        let gates = std::mem::take(&mut self.gates);
        let config = self.config;
        let build = || {
            let sig = VaryingSignature::first_order(gates)?;
            let runner = VaryingRunner::with_config(sig.clone(), config)?;
            Ok::<_, EngineError>((sig, runner))
        };
        let (sig, runner) = match tracer.as_mut() {
            Some((t, req, parent)) => t.span("runner.with_config", *req, Some(*parent), build).1,
            None => build(),
        }?;
        let stats = run_call(tracer, "runner.run_in_place", || {
            runner.run_in_place(&mut self.buf)
        });
        self.sig = Some(sig);
        self.runner = Some(runner);
        stats
    }

    fn check(&mut self, _i: usize) -> bool {
        varying::reference(self.sig(), &self.x).is_ok_and(|expected| agrees(&expected, &self.buf))
    }

    fn plan_build(&mut self) -> (Instant, Instant) {
        let sig = self.sig().clone();
        let t = Instant::now();
        let built = VaryingPlan::build(sig, self.config.chunk_size);
        let end = Instant::now();
        built.expect("the request's own signature builds");
        (t, end)
    }

    fn plan_hit(&mut self) -> Option<(Instant, Instant)> {
        // Time-varying plans never go through the plan cache.
        None
    }

    fn replay(&mut self, clock: &mut Clock<'_>) -> (f64, bool) {
        self.scratch.copy_from_slice(&self.x);
        let plan = self.runner.as_ref().expect("a request ran").plan();
        let t = Instant::now();
        replay::varying(plan, &mut self.scratch, clock);
        let s = t.elapsed().as_secs_f64();
        (s, agrees(&self.buf, &self.scratch))
    }

    fn input(&self) -> &[f32] {
        &self.x
    }
}
