//! A SAM-like executor (Maleki, Yang & Burtscher, PLDI'16: higher-order and
//! tuple-based massively-parallel prefix sums).
//!
//! Structure, per the paper's characterization:
//!
//! * single-pass with 2n data movement for *every* supported recurrence:
//!   for higher-order prefix sums "SAM only repeats the computation but not
//!   the reading in and writing out of the values, which is why it
//!   outperforms CUB" (Section 6.1.3);
//! * tuple prefix sums run as `s` independent *interleaved* scalar scans
//!   in one pass;
//! * an **auto-tuner** picks the number of values per thread for each
//!   input size, which is why SAM is the fastest code on small inputs
//!   (Sections 6.1.1–6.1.3). The reproduction tunes the tile size over the
//!   same candidate set using the cost model, mirroring the install-time
//!   tuning run.

use crate::executor::RecurrenceExecutor;
use crate::stream::{account_pass, estimate_pass, PassProfile};
use plr_core::element::Element;
use plr_core::error::EngineError;
use plr_core::prefix::{classify_prefix_family, PrefixFamily};
use plr_core::serial;
use plr_core::signature::Signature;
use plr_sim::timing::Workload;
use plr_sim::{CostModel, DeviceConfig, GlobalMemory, RunReport};

/// Maximum supported input: 4 GB of words.
const MAX_LEN: usize = 1 << 30;

/// The SAM-like executor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sam;

impl Sam {
    /// Values-per-thread candidates the auto-tuner searches (SAM tunes x
    /// per problem size at install time).
    const TILE_CANDIDATES: [usize; 6] = [512, 1024, 2048, 4096, 8192, 12288];
    const THREADS: usize = 1024;

    fn profile(family: PrefixFamily, tile: usize) -> PassProfile {
        let (s, r) = match family {
            PrefixFamily::Tuple(s) => (s, 1),
            PrefixFamily::HigherOrder(r) => (1, r),
            PrefixFamily::Standard => (1, 1),
        };
        PassProfile {
            tile,
            // The computation repeats r times inside the pass; interleaved
            // tuple lanes keep the scalar cost.
            flops_per_element: 3.0 * r as f64,
            // Multi-level scans keep intermediate levels in shared memory;
            // each extra level adds round trips (this is SAM's overhead
            // relative to a plain scan, calibrated to Figures 4/5).
            shared_per_element: 2.0 + 9.0 * (r as f64 - 1.0) + 2.5 * (s as f64 - 1.0),
            shuffles_per_element: 1.0 * r as f64,
            carry_words: s * r,
        }
    }

    /// Interleaved lanes stride the accesses; the multi-level in-register
    /// scans of higher orders cost substantially more (calibrated to the
    /// paper's ~21 billion ints/s at order 2).
    fn bandwidth_efficiency(family: PrefixFamily) -> f64 {
        match family {
            PrefixFamily::Tuple(s) => 1.0 / (1.0 + 0.26 * (s as f64 - 1.0)),
            // The in-register multi-scan costs grow with the order: the
            // paper reports SAM 50% / 38% / 33% ahead of PLR at orders
            // 2 / 3 / 4, i.e. its own throughput decays slowly.
            PrefixFamily::HigherOrder(r) => (0.65 - 0.075 * (r as f64 - 2.0)).max(0.4),
            PrefixFamily::Standard => 1.0,
        }
    }

    /// The auto-tuner: pick the tile minimizing modelled time for `n`.
    fn tuned_tile<T: Element>(family: PrefixFamily, n: usize, device: &DeviceConfig) -> usize {
        let model = CostModel::new(device.clone());
        let mut best = (f64::INFINITY, Self::TILE_CANDIDATES[0]);
        for &tile in &Self::TILE_CANDIDATES {
            let profile = Self::profile(family, tile);
            let mut counters = estimate_pass(n, T::BYTES as u64, &profile);
            counters.l2_read_miss_bytes = n as u64 * T::BYTES as u64;
            let workload = Self::workload_for(family, n, tile);
            let t = model.time(&counters, &workload).total;
            if t < best.0 {
                best = (t, tile);
            }
        }
        best.1
    }

    fn workload_for(family: PrefixFamily, n: usize, tile: usize) -> Workload {
        Workload {
            threads_per_block: Self::THREADS,
            registers_per_thread: 32,
            exposed_hops: 16,
            launches: 1,
            bandwidth_efficiency: Self::bandwidth_efficiency(family),
            ..Workload::new(n as u64, n.div_ceil(tile) as u64)
        }
    }
}

impl<T: Element> RecurrenceExecutor<T> for Sam {
    fn name(&self) -> &'static str {
        "SAM"
    }

    fn supports(&self, signature: &Signature<T>, n: usize) -> Result<(), EngineError> {
        if classify_prefix_family(signature).is_none() {
            return Err(EngineError::UnsupportedSignature {
                reason: format!(
                    "SAM computes tuple-based and higher-order prefix sums only, not {signature}"
                ),
            });
        }
        if n > MAX_LEN {
            return Err(EngineError::InputTooLarge {
                len: n,
                max: MAX_LEN,
            });
        }
        Ok(())
    }

    fn run(
        &self,
        signature: &Signature<T>,
        input: &[T],
        device: &DeviceConfig,
    ) -> Result<RunReport<T>, EngineError> {
        self.supports(signature, input.len())?;
        let n = input.len();
        check_budget::<T>(n, device)?;
        let family = classify_prefix_family(signature).expect("checked by supports");
        let elem = T::BYTES as u64;
        let tile = Self::tuned_tile::<T>(family, n, device);
        let profile = Self::profile(family, tile);

        let mut mem = GlobalMemory::new(device.clone());
        let src = mem.alloc(n as u64 * elem, "input");
        let dst = mem.alloc(n as u64 * elem, "output");
        let carry = mem.alloc(
            4 + 64 * (profile.carry_words as u64 + 1) * elem + 64 * 4,
            "tile state",
        );
        account_pass(&mut mem, src, dst, n, elem, carry, &profile);

        // Functional result: one pass computing the full recurrence.
        let output = serial::run(signature, input);

        Ok(RunReport {
            output,
            counters: *mem.counters(),
            workload: Self::workload_for(family, n, tile),
            peak_bytes: mem.peak_bytes(),
        })
    }

    fn estimate(
        &self,
        signature: &Signature<T>,
        n: usize,
        device: &DeviceConfig,
    ) -> Result<RunReport<T>, EngineError> {
        self.supports(signature, n)?;
        check_budget::<T>(n, device)?;
        let family = classify_prefix_family(signature).expect("checked by supports");
        let elem = T::BYTES as u64;
        let tile = Self::tuned_tile::<T>(family, n, device);
        let profile = Self::profile(family, tile);
        let mut counters = estimate_pass(n, elem, &profile);
        counters.l2_read_miss_bytes = n as u64 * elem;
        let peak = {
            let mut mem = GlobalMemory::new(device.clone());
            mem.alloc(n as u64 * elem, "input");
            mem.alloc(n as u64 * elem, "output");
            mem.alloc(
                4 + 64 * (profile.carry_words as u64 + 1) * elem + 64 * 4,
                "tile state",
            );
            mem.peak_bytes()
        };
        Ok(RunReport {
            output: Vec::new(),
            counters,
            workload: Self::workload_for(family, n, tile),
            peak_bytes: peak,
        })
    }
}

/// In/out arrays plus tile state must fit on the device.
fn check_budget<T: Element>(n: usize, device: &DeviceConfig) -> Result<(), EngineError> {
    let buffers = 2 * n as u64 * T::BYTES as u64 + (1 << 20);
    if !device.fits(buffers) {
        return Err(EngineError::InputTooLarge {
            len: n,
            max: device.max_elements(2 * T::BYTES as u64),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use plr_core::prefix;
    use plr_core::validate::validate;

    fn device() -> DeviceConfig {
        DeviceConfig::titan_x()
    }

    #[test]
    fn computes_prefix_family_correctly() {
        let input: Vec<i64> = (0..7777).map(|i| (i % 11) as i64 - 5).collect();
        for sig in [
            prefix::prefix_sum::<i64>(),
            prefix::tuple_prefix_sum::<i64>(3),
            prefix::higher_order_prefix_sum::<i64>(4),
        ] {
            let r = Sam.run(&sig, &input, &device()).unwrap();
            validate(&serial::run(&sig, &input), &r.output, 0.0).unwrap();
        }
    }

    #[test]
    fn single_pass_traffic_regardless_of_order() {
        let n = 1 << 20;
        let d = device();
        let one = Sam.estimate(&prefix::prefix_sum::<i32>(), n, &d).unwrap();
        let three = Sam
            .estimate(&prefix::higher_order_prefix_sum::<i32>(3), n, &d)
            .unwrap();
        // Payload traffic identical; only carries differ slightly.
        let diff = three.counters.global_read_bytes as i64 - one.counters.global_read_bytes as i64;
        assert!(diff.unsigned_abs() < (n as u64) / 16, "diff {diff}");
        // But compute scales with the order.
        assert!(three.counters.flops > 2 * one.counters.flops);
    }

    #[test]
    fn auto_tuner_prefers_smaller_tiles_for_smaller_inputs() {
        let d = device();
        let small = Sam::tuned_tile::<i32>(PrefixFamily::Standard, 1 << 14, &d);
        let large = Sam::tuned_tile::<i32>(PrefixFamily::Standard, 1 << 28, &d);
        assert!(small <= large, "small {small} vs large {large}");
        // At 2^14 elements, tiles above 2048 leave too few blocks in
        // flight to reach the bandwidth-saturation point.
        assert!(small <= 2048, "small-input tile {small}");
    }

    #[test]
    fn auto_tuning_beats_a_fixed_bad_tile_on_small_inputs() {
        // The tuned estimate must be at least as fast as every candidate.
        let d = device();
        let model = CostModel::new(d.clone());
        let n = 1 << 14;
        let sig = prefix::prefix_sum::<i32>();
        let tuned = Sam.estimate(&sig, n, &d).unwrap();
        let tuned_time = tuned.time(&model).total;
        for &tile in &Sam::TILE_CANDIDATES {
            let profile = Sam::profile(PrefixFamily::Standard, tile);
            let mut c = estimate_pass(n, 4, &profile);
            c.l2_read_miss_bytes = n as u64 * 4;
            let w = Sam::workload_for(PrefixFamily::Standard, n, tile);
            assert!(tuned_time <= model.time(&c, &w).total + 1e-12);
        }
    }

    #[test]
    fn rejects_general_recurrences() {
        let sig: Signature<i32> = "1: 1, 1".parse().unwrap(); // Fibonacci, not a prefix sum
        assert!(Sam.supports(&sig, 100).is_err());
    }

    #[test]
    fn memory_usage_close_to_memcpy() {
        // Table 2: SAM 622.5 MB at 2^26 words (memcpy + 1 MB).
        let r = Sam
            .estimate(&prefix::prefix_sum::<i32>(), 1 << 26, &device())
            .unwrap();
        let mb = r.peak_bytes as f64 / (1024.0 * 1024.0);
        assert!(mb > 621.0 && mb < 623.5, "SAM peak {mb:.1} MB");
    }
}
