//! A CUB-like prefix-sum executor (Merrill & Garland's single-pass
//! decoupled look-back scan, CUB 1.5.1's strategy).
//!
//! Structure, per the paper's characterization:
//!
//! * **standard prefix sum** — one single-pass scan, 2n data movement;
//! * **tuple prefix sums** — one scan over `s`-element *vectors*
//!   (`int2`/`int3` style); still 2n words of payload, but the
//!   block-load/block-store transposition through shared memory grows with
//!   the vector width, and strided vector accesses derate the achieved
//!   bandwidth — this is why CUB's tuple throughput decreases with `s`
//!   (paper Section 6.1.2);
//! * **higher-order prefix sums** — the *entire code* is repeated `r`
//!   times (prefix sum of prefix sum), so data movement is `r·2n`
//!   (Section 6.1.3: "CUB repeats the entire code", which is why SAM
//!   outperforms it).
//!
//! CUB does not support general recurrences: correction factors other than
//! one never arise in its carry math, so filters are rejected.

use crate::executor::RecurrenceExecutor;
use crate::stream::{account_pass, estimate_pass, PassProfile};
use plr_core::element::Element;
use plr_core::error::EngineError;
use plr_core::prefix::{self, classify_prefix_family, PrefixFamily};
use plr_core::serial;
use plr_core::signature::Signature;
use plr_sim::timing::Workload;
use plr_sim::{DeviceConfig, GlobalMemory, RunReport};

/// Maximum supported input: 4 GB of words, like all the tested codes.
const MAX_LEN: usize = 1 << 30;

/// The CUB-like executor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cub;

impl Cub {
    /// CUB's tile geometry: 128-thread blocks, ~16 items per thread.
    const TILE: usize = 2048;
    const THREADS: usize = 128;

    fn profile(family: PrefixFamily) -> PassProfile {
        let s = match family {
            PrefixFamily::Tuple(s) => s,
            _ => 1,
        };
        PassProfile {
            tile: Self::TILE,
            // Raking reduce-then-scan: ~3 ops per element.
            flops_per_element: 3.0,
            // Block load/store transposition grows with the vector width.
            shared_per_element: 2.0 + 3.0 * (s as f64 - 1.0),
            shuffles_per_element: 1.0,
            carry_words: s,
        }
    }

    /// Strided vector loads derate achieved bandwidth (calibrated to the
    /// paper's ~30% / ~17+% PLR advantage on 2- and 3-tuples).
    fn bandwidth_efficiency(family: PrefixFamily) -> f64 {
        match family {
            PrefixFamily::Tuple(s) => 1.0 / (1.0 + 0.3 * (s as f64 - 1.0)),
            // Pass boundaries of the iterated code stall the pipeline a bit.
            PrefixFamily::HigherOrder(_) => 0.82,
            PrefixFamily::Standard => 1.0,
        }
    }

    fn passes(family: PrefixFamily) -> usize {
        match family {
            PrefixFamily::HigherOrder(r) => r,
            _ => 1,
        }
    }
}

impl<T: Element> RecurrenceExecutor<T> for Cub {
    fn name(&self) -> &'static str {
        "CUB"
    }

    fn supports(&self, signature: &Signature<T>, n: usize) -> Result<(), EngineError> {
        if classify_prefix_family(signature).is_none() {
            return Err(EngineError::UnsupportedSignature {
                reason: format!("CUB computes prefix sums only, not {signature}"),
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
        let profile = Self::profile(family);
        let passes = Self::passes(family);

        let mut mem = GlobalMemory::new(device.clone());
        let src = mem.alloc(n as u64 * elem, "input");
        let dst = mem.alloc(n as u64 * elem, "output");
        let carry = mem.alloc(
            4 + 64 * (profile.carry_words as u64 + 1) * elem + 64 * 4,
            "tile state",
        );
        for _ in 0..passes {
            account_pass(&mut mem, src, dst, n, elem, carry, &profile);
        }

        // Functional result: iterated scans for higher order, the plain
        // recurrence otherwise (identical values either way).
        let mut output = input.to_vec();
        for _ in 0..passes {
            let scan = match family {
                PrefixFamily::Tuple(s) => prefix::tuple_prefix_sum::<T>(s),
                _ => prefix::prefix_sum::<T>(),
            };
            output = serial::run(&scan, &output);
        }

        Ok(RunReport {
            output,
            counters: *mem.counters(),
            workload: self.workload(family, n, passes),
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
        let profile = Self::profile(family);
        let passes = Self::passes(family);

        let mut counters = plr_sim::Counters::new();
        for _ in 0..passes {
            counters.merge(&estimate_pass(n, elem, &profile));
        }
        // Streaming approximation: every pass's payload reads are cold.
        counters.l2_read_miss_bytes = passes as u64 * n as u64 * elem;

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
            workload: self.workload(family, n, passes),
            peak_bytes: peak,
        })
    }
}

impl Cub {
    fn workload(&self, family: PrefixFamily, n: usize, passes: usize) -> Workload {
        Workload {
            threads_per_block: Self::THREADS,
            registers_per_thread: 32,
            exposed_hops: 16,
            launches: passes as u64,
            bandwidth_efficiency: Self::bandwidth_efficiency(family),
            ..Workload::new(n as u64, (passes * n.div_ceil(Self::TILE)) as u64)
        }
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
    use plr_core::validate::validate;

    fn device() -> DeviceConfig {
        DeviceConfig::titan_x()
    }

    #[test]
    fn computes_prefix_family_correctly() {
        let input: Vec<i64> = (0..9999).map(|i| (i % 13) as i64 - 6).collect();
        for sig in [
            prefix::prefix_sum::<i64>(),
            prefix::tuple_prefix_sum::<i64>(2),
            prefix::tuple_prefix_sum::<i64>(3),
            prefix::higher_order_prefix_sum::<i64>(2),
            prefix::higher_order_prefix_sum::<i64>(3),
        ] {
            let r = Cub.run(&sig, &input, &device()).unwrap();
            validate(&serial::run(&sig, &input), &r.output, 0.0)
                .unwrap_or_else(|e| panic!("{sig}: {e}"));
        }
    }

    #[test]
    fn rejects_filters() {
        let sig: Signature<f32> = "0.2:0.8".parse().unwrap();
        assert!(matches!(
            Cub.supports(&sig, 100),
            Err(EngineError::UnsupportedSignature { .. })
        ));
    }

    #[test]
    fn higher_order_multiplies_traffic_by_r() {
        let n = 1 << 20;
        let d = device();
        let one = Cub.estimate(&prefix::prefix_sum::<i32>(), n, &d).unwrap();
        let three = Cub
            .estimate(&prefix::higher_order_prefix_sum::<i32>(3), n, &d)
            .unwrap();
        let ratio = three.counters.global_read_bytes as f64 / one.counters.global_read_bytes as f64;
        assert!((ratio - 3.0).abs() < 0.01, "ratio {ratio}");
        assert_eq!(three.workload.launches, 3);
    }

    #[test]
    fn estimate_matches_run_traffic() {
        let n = 50_000;
        let d = device();
        let input = vec![1i32; n];
        for sig in [
            prefix::tuple_prefix_sum::<i32>(2),
            prefix::higher_order_prefix_sum::<i32>(2),
        ] {
            let run = Cub.run(&sig, &input, &d).unwrap();
            let est = Cub.estimate(&sig, n, &d).unwrap();
            assert_eq!(
                run.counters.global_read_bytes,
                est.counters.global_read_bytes
            );
            assert_eq!(
                run.counters.global_write_bytes,
                est.counters.global_write_bytes
            );
            assert_eq!(run.counters.flops, est.counters.flops);
        }
    }

    #[test]
    fn memory_usage_close_to_memcpy() {
        // Table 2: CUB 623.5 MB at 2^26 words (memcpy + 2 MB).
        let r = Cub
            .estimate(&prefix::prefix_sum::<i32>(), 1 << 26, &device())
            .unwrap();
        let mb = r.peak_bytes as f64 / (1024.0 * 1024.0);
        assert!(mb > 621.0 && mb < 624.5, "CUB peak {mb:.1} MB");
    }
}
