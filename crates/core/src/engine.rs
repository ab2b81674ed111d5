//! The reference single-threaded engine combining all algorithm stages.
//!
//! This engine runs the complete PLR pipeline — FIR map, Phase 1 doubling,
//! Phase 2 carry propagation — in plain Rust with no machine model attached.
//! It is the semantic core that `plr-codegen`'s simulator executor,
//! `plr-parallel`'s multithreaded runtime, and the benchmarks all agree
//! with; its own correctness is anchored to [`crate::serial`].

use std::sync::Arc;

use crate::blocked;
use crate::element::Element;
use crate::error::EngineError;
use crate::nacci::CorrectionTable;
use crate::phase1;
use crate::plan::{self, CorrectionPlan, PlanRequest};
use crate::signature::Signature;

/// Maximum supported sequence length: 2^30 words (the paper's 4 GB cap).
pub const MAX_INPUT_LEN: usize = 1 << 30;

/// How a chunk's local solution is produced before carry propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalSolve {
    /// Hierarchical doubling from single-element chunks (the paper's
    /// Phase 1) — the choice when intra-chunk parallelism exists.
    #[default]
    HierarchicalDoubling,
    /// Direct serial solve of each chunk — the natural choice for one CPU
    /// thread per chunk, where intra-chunk lanes do not exist.
    Serial,
}

/// How global carries are produced (both yield identical results).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CarryPropagation {
    /// Chunk-after-chunk correction (gold model).
    #[default]
    Sequential,
    /// Decoupled look-back: chain carry fix-ups first, then correct all
    /// chunks independently (the parallel-friendly dependency structure).
    Decoupled,
}

/// Configuration for the two-phase engine.
///
/// # Examples
///
/// ```
/// use plr_core::engine::{Engine, EngineConfig};
/// use plr_core::signature::Signature;
///
/// let sig: Signature<i64> = "1 : 2, -1".parse()?;
/// let engine = Engine::with_config(sig, EngineConfig { chunk_size: 64, ..Default::default() })?;
/// let out = engine.run(&[1, 1, 1, 1, 1])?;
/// assert_eq!(out, vec![1, 3, 6, 10, 15]); // 2nd-order prefix sum
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Phase 1 terminal chunk size `m`. Must be a power of two for
    /// [`LocalSolve::HierarchicalDoubling`]; any positive value otherwise.
    pub chunk_size: usize,
    /// Local-solution strategy.
    pub local_solve: LocalSolve,
    /// Carry-propagation strategy.
    pub carry_propagation: CarryPropagation,
    /// Flush denormal correction factors to zero while precomputing them
    /// (paper Section 3.1; only affects floating-point signatures).
    pub flush_denormals: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            chunk_size: 1024,
            local_solve: LocalSolve::default(),
            carry_propagation: CarryPropagation::default(),
            flush_denormals: true,
        }
    }
}

/// A ready-to-run recurrence computation: signature + precomputed
/// correction-factor table.
///
/// Construction performs the offline work (n-nacci factor precomputation);
/// [`Engine::run`] only does the per-input work, mirroring how PLR emits
/// factor tables as compile-time constant arrays.
#[derive(Debug, Clone)]
pub struct Engine<T> {
    signature: Signature<T>,
    /// The cached correction plan: factor table (full-length when Phase 1
    /// doubling needs it), per-list strategies, FIR and solve kernels.
    plan: Arc<CorrectionPlan<T>>,
    config: EngineConfig,
}

impl<T: Element> Engine<T> {
    /// Creates an engine with the default configuration.
    ///
    /// # Errors
    ///
    /// See [`Engine::with_config`].
    pub fn new(signature: Signature<T>) -> Result<Self, EngineError> {
        Self::with_config(signature, EngineConfig::default())
    }

    /// Creates an engine with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidChunkSize`] if `chunk_size` is zero,
    /// not a power of two while hierarchical doubling is selected, or
    /// smaller than the recurrence order while decoupled look-back is
    /// selected (a chunk must hold all `k` published carries).
    pub fn with_config(signature: Signature<T>, config: EngineConfig) -> Result<Self, EngineError> {
        if config.chunk_size == 0
            || (config.local_solve == LocalSolve::HierarchicalDoubling
                && !config.chunk_size.is_power_of_two())
            || (config.carry_propagation == CarryPropagation::Decoupled
                && config.chunk_size < signature.order())
        {
            return Err(EngineError::InvalidChunkSize {
                chunk_size: config.chunk_size,
            });
        }
        // Phase 1 doubling indexes the factor table at every merge width,
        // so it needs the physically full table; the serial local solve
        // can use a decay-truncated one.
        let req = PlanRequest {
            chunk_size: config.chunk_size,
            flush: config.flush_denormals && T::IS_FLOAT,
            full_table: config.local_solve == LocalSolve::HierarchicalDoubling,
            ..PlanRequest::new::<T>(config.chunk_size)
        };
        let (plan, _) = plan::plan_for(&signature, req);
        Ok(Engine {
            signature,
            plan,
            config,
        })
    }

    /// The signature this engine computes.
    pub fn signature(&self) -> &Signature<T> {
        &self.signature
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The precomputed correction-factor table (exposed so that code
    /// generators and analyses can reuse the offline work; C-INTERMEDIATE).
    pub fn correction_table(&self) -> &CorrectionTable<T> {
        self.plan.table()
    }

    /// The correction plan this engine executes (strategy selection,
    /// truncation depth, kernels) — shared through the global plan cache.
    pub fn plan(&self) -> &CorrectionPlan<T> {
        &self.plan
    }

    /// Computes the recurrence over `input`, allocating the output.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InputTooLarge`] for inputs beyond 2^30
    /// elements (the paper's 4 GB limit).
    pub fn run(&self, input: &[T]) -> Result<Vec<T>, EngineError> {
        let mut data = input.to_vec();
        self.run_in_place(&mut data)?;
        Ok(data)
    }

    /// Computes the recurrence in place over `data`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InputTooLarge`] for inputs beyond 2^30
    /// elements.
    pub fn run_in_place(&self, data: &mut [T]) -> Result<(), EngineError> {
        if data.len() > MAX_INPUT_LEN {
            return Err(EngineError::InputTooLarge {
                len: data.len(),
                max: MAX_INPUT_LEN,
            });
        }
        let m = self.config.chunk_size;

        // Stages 1 and 2: the map operation eliminating the non-recursive
        // coefficients (paper equation (2)), then local solutions per
        // chunk. Hierarchical doubling needs the whole input mapped first;
        // the serial solve maps each chunk inside its solve, handing each
        // chunk the raw inputs its taps read across its left boundary.
        let pure = self.signature.is_pure_feedback();
        match self.config.local_solve {
            LocalSolve::HierarchicalDoubling => {
                if !pure {
                    blocked::fir_in_place(self.plan.fir(), &[], 0, data);
                }
                phase1::run(self.plan.table(), data, m);
            }
            LocalSolve::Serial => {
                let reach = if pure { 0 } else { self.plan.fir().len() - 1 };
                let mut prev: Vec<T> = Vec::new();
                for chunk in data.chunks_mut(m) {
                    let mut next = prev.clone();
                    next.extend_from_slice(&chunk[chunk.len().saturating_sub(reach)..]);
                    next.drain(..next.len().saturating_sub(reach));
                    self.plan.map_solve_sliced(chunk, &prev, &mut || true);
                    prev = next;
                }
            }
        }

        // Stage 3: carry propagation, specialized per the plan's factor
        // strategies (identical results to the dense phase2 forms).
        match self.config.carry_propagation {
            CarryPropagation::Sequential => self.plan.propagate_sequential(data),
            CarryPropagation::Decoupled => {
                self.plan.propagate_decoupled(data);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial;
    use crate::validate::validate;

    fn check_all_strategies<T: Element>(sig: &Signature<T>, input: &[T], m: usize, tol: f64) {
        let expect = serial::run(sig, input);
        for local in [LocalSolve::HierarchicalDoubling, LocalSolve::Serial] {
            for carry in [CarryPropagation::Sequential, CarryPropagation::Decoupled] {
                let config = EngineConfig {
                    chunk_size: m,
                    local_solve: local,
                    carry_propagation: carry,
                    flush_denormals: true,
                };
                let engine = Engine::with_config(sig.clone(), config).unwrap();
                let got = engine.run(input).unwrap();
                validate(&expect, &got, tol)
                    .unwrap_or_else(|e| panic!("{sig} {local:?} {carry:?}: {e}"));
            }
        }
    }

    #[test]
    fn all_strategy_combinations_match_serial_int() {
        let input: Vec<i64> = (0..333).map(|i| ((i * 131) % 29) as i64 - 14).collect();
        for text in ["1:1", "1:0,1", "1:0,0,1", "1:2,-1", "1:3,-3,1"] {
            let sig: Signature<i64> = text.parse().unwrap();
            check_all_strategies(&sig, &input, 16, 0.0);
        }
    }

    #[test]
    fn all_strategy_combinations_match_serial_float() {
        let input: Vec<f64> = (0..333)
            .map(|i| ((i * 7) % 23) as f64 * 0.5 - 5.0)
            .collect();
        for text in [
            "0.2:0.8",
            "0.04:1.6,-0.64",
            "0.9,-0.9:0.8",
            "0.008:2.4,-1.92,0.512",
        ] {
            let sig: Signature<f64> = text.parse().unwrap();
            check_all_strategies(&sig, &input, 32, 1e-3);
        }
    }

    #[test]
    fn non_pure_feedback_runs_map_stage() {
        let sig: Signature<f32> = "(0.81, -1.62, 0.81: 1.6, -0.64)".parse().unwrap();
        let input: Vec<f32> = (0..200).map(|i| ((i % 17) as f32) - 8.0).collect();
        let engine = Engine::new(sig.clone()).unwrap();
        let got = engine.run(&input).unwrap();
        let expect = serial::run(&sig, &input);
        validate(&expect, &got, 1e-3).unwrap();
    }

    #[test]
    fn chunk_size_validation() {
        let sig: Signature<i32> = "1:1".parse().unwrap();
        assert!(matches!(
            Engine::with_config(
                sig.clone(),
                EngineConfig {
                    chunk_size: 0,
                    ..Default::default()
                }
            ),
            Err(EngineError::InvalidChunkSize { .. })
        ));
        assert!(matches!(
            Engine::with_config(
                sig.clone(),
                EngineConfig {
                    chunk_size: 3,
                    ..Default::default()
                }
            ),
            Err(EngineError::InvalidChunkSize { .. })
        ));
        // Non-power-of-two is fine with serial local solves.
        let cfg = EngineConfig {
            chunk_size: 3,
            local_solve: LocalSolve::Serial,
            ..Default::default()
        };
        let engine = Engine::with_config(sig, cfg).unwrap();
        assert_eq!(engine.run(&[1, 1, 1, 1]).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn input_smaller_than_chunk() {
        let sig: Signature<i32> = "1:1".parse().unwrap();
        let engine = Engine::new(sig).unwrap(); // chunk 1024 > input
        assert_eq!(engine.run(&[5, 6, 7]).unwrap(), vec![5, 11, 18]);
    }

    #[test]
    fn exposes_offline_artifacts() {
        let sig: Signature<i32> = "1:2,-1".parse().unwrap();
        let engine = Engine::with_config(
            sig,
            EngineConfig {
                chunk_size: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(engine.correction_table().list(0), &[2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(engine.config().chunk_size, 8);
        assert_eq!(engine.signature().order(), 2);
    }
}
