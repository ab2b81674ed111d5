//! Parallel reproduction of a linear congruential generator — one of the
//! "pseudo random-number generation" applications the paper's introduction
//! cites for linear recurrences.
//!
//! An LCG is `s[i] = a·s[i-1] + c (mod 2^64)`, which is the signature
//! `(1 : a)` applied to the constant input stream `x[i] = c` with the seed
//! folded into `x[0]` — two's-complement wrapping arithmetic *is* the
//! mod-2^64 arithmetic, which is why the whole workspace computes integers
//! with wrapping semantics like GPU hardware does.
//!
//! The example reproduces a sequential LCG's entire output stream in
//! parallel, bit for bit.
//!
//! ```text
//! cargo run --release --example parallel_lcg
//! ```

use plr::{ParallelRunner, RunnerConfig, Signature};
use std::time::Instant;

/// Knuth's MMIX LCG constants.
const A: i64 = 6364136223846793005;
const C: i64 = 1442695040888963407;

fn sequential_lcg(seed: i64, n: usize) -> Vec<i64> {
    let mut out = Vec::with_capacity(n);
    let mut s = seed;
    for _ in 0..n {
        s = s.wrapping_mul(A).wrapping_add(C);
        out.push(s);
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1 << 22;
    let seed = 0x5EED_5EED_5EED_5EEDu64 as i64;

    // s[i] = A·s[i-1] + x[i] with x[0] = A·seed + C and x[i>0] = C.
    let sig: Signature<i64> = Signature::new(vec![1], vec![A])?;
    let mut input = vec![C; n];
    input[0] = seed.wrapping_mul(A).wrapping_add(C);

    let runner = ParallelRunner::with_config(
        sig,
        RunnerConfig {
            chunk_size: 1 << 16,
            threads: 0,
            ..Default::default()
        },
    )?;

    let start = Instant::now();
    let parallel = runner.run(&input)?;
    let t_par = start.elapsed();

    let start = Instant::now();
    let sequential = sequential_lcg(seed, n);
    let t_seq = start.elapsed();

    assert_eq!(
        parallel, sequential,
        "the parallel stream must match bit for bit"
    );

    println!("reproduced {n} MMIX LCG states bit-exactly");
    println!("  sequential: {:7.1} ms", t_seq.as_secs_f64() * 1e3);
    println!(
        "  parallel:   {:7.1} ms on {} threads (correction factors A, A², A³, … mod 2^64)",
        t_par.as_secs_f64() * 1e3,
        runner.threads()
    );
    println!("  first states: {:x?}", &parallel[..4]);

    // The punchline: the correction factors of (1 : A) are the powers of A
    // in the wrapping ring, so jumping ahead m steps is one multiply-add —
    // exactly the classic LCG leapfrogging trick, rediscovered as n-nacci
    // correction factors.
    let table = plr::core::nacci::CorrectionTable::generate(&[A], 4);
    println!("  factor list (powers of A mod 2^64): {:x?}", table.list(0));
    Ok(())
}
