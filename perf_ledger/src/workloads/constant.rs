//! The two constant-coefficient workloads on `ParallelRunner`: the paper's
//! IIR low-pass case (memory-bound, truncated plan) and the dense
//! second-order prefix sum (full-length corrections, look-back walks).

use super::{agrees, agrees_large, refresh_copy, run_call, Library, Ran};
use crate::replay::{self, Clock};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::Config;
use plr_core::element::Element;
use plr_core::error::EngineError;
use plr_core::plan::{self, PlanRequest};
use plr_core::serial;
use plr_core::signature::Signature;
use plr_parallel::{resolve_threads, ParallelRunner, RunnerConfig};
use std::time::Instant;

const LOWPASS: &str = "0.04 : 1.6, -0.64";
const PSUM2: &str = "1 : 2, -1";
const CHUNK: usize = 1 << 16;

fn lowpass_len(cfg: &Config) -> usize {
    if cfg.quick {
        1 << 16
    } else {
        1 << 26
    }
}

fn psum2_len(cfg: &Config) -> usize {
    if cfg.quick {
        1 << 14
    } else {
        1 << 24
    }
}

pub fn lowpass_input(cfg: &Config) -> Vec<f32> {
    let mut rng = Rng::new(cfg.seed, 1);
    (0..lowpass_len(cfg))
        .map(|_| rng.uniform(-1.0, 1.0) as f32)
        .collect()
}

pub fn psum2_input(cfg: &Config) -> Vec<i64> {
    let mut rng = Rng::new(cfg.seed, 2);
    (0..psum2_len(cfg))
        .map(|_| rng.below(2001) as i64 - 1000)
        .collect()
}

pub struct Constant<T> {
    sig: Signature<T>,
    config: RunnerConfig,
    pristine: Vec<T>,
    buf: Vec<T>,
    reference: Vec<T>,
    runner: Option<ParallelRunner<T>>,
}

impl Constant<f32> {
    pub fn lowpass(cfg: &Config) -> Self {
        Self::new(LOWPASS, lowpass_input(cfg))
    }
}

impl Constant<i64> {
    pub fn psum2(cfg: &Config) -> Self {
        Self::new(PSUM2, psum2_input(cfg))
    }
}

impl<T: Element> Constant<T> {
    fn new(sig: &str, pristine: Vec<T>) -> Self {
        let sig: Signature<T> = sig.parse().expect("valid signature literal");
        let reference = serial::run(&sig, &pristine);
        Constant {
            sig,
            config: RunnerConfig {
                chunk_size: CHUNK,
                threads: resolve_threads(0),
                ..RunnerConfig::default()
            },
            buf: pristine.clone(),
            pristine,
            reference,
            runner: None,
        }
    }

    fn plan_request(&self) -> PlanRequest {
        PlanRequest {
            mode: self.config.plan,
            ..PlanRequest::new::<T>(CHUNK)
        }
    }
}

impl<T: Element> Library for Constant<T> {
    type E = T;

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
        self.runner = Some(ParallelRunner::with_config(self.sig.clone(), self.config)?);
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
        plan::clear_cache();
        let t = Instant::now();
        plan::plan_for(&self.sig, self.plan_request());
        (t, Instant::now())
    }

    fn plan_hit(&mut self) -> Option<(Instant, Instant)> {
        plan::plan_for(&self.sig, self.plan_request());
        let t = Instant::now();
        let (_, hit) = plan::plan_for(&self.sig, self.plan_request());
        hit.then_some((t, Instant::now()))
    }

    fn replay(&mut self, clock: &mut Clock<'_>) -> (f64, bool) {
        // The runner's last output was already checked against the
        // reference, so the reference buffer is free to hold the replay.
        let out = &mut self.reference;
        out.copy_from_slice(&self.pristine);
        let plan = self.runner.as_ref().expect("set up before use").plan();
        let t = Instant::now();
        replay::constant(plan, out, clock);
        let s = t.elapsed().as_secs_f64();
        (s, agrees(&self.buf, out))
    }

    fn input(&self) -> &[T] {
        &self.pristine
    }
}
