//! Inputs come from the seed alone: the same seed reproduces them, another
//! seed changes them.

use plr_ledger::rng::Rng;
use plr_ledger::workloads::{first_input, NAMES};
use plr_ledger::Config;

fn cfg(seed: u64) -> Config {
    Config {
        seed,
        seconds: 0.0,
        trace: false,
        quick: true,
    }
}

#[test]
fn seeded_inputs_are_reproducible() {
    for name in NAMES {
        let a = first_input(name, &cfg(3)).expect("known workload");
        let b = first_input(name, &cfg(3)).expect("known workload");
        let c = first_input(name, &cfg(4)).expect("known workload");
        assert!(!a.is_empty(), "{name}");
        assert_eq!(a, b, "{name}: same seed, different input");
        assert_ne!(a, c, "{name}: the seed does not reach the input");
    }
}

#[test]
fn rng_streams_are_deterministic_and_in_range() {
    let mut a = Rng::new(9, 1);
    let mut b = Rng::new(9, 1);
    let mut other = Rng::new(9, 2);
    let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
    assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
    assert_ne!(xs, (0..8).map(|_| other.next_u64()).collect::<Vec<_>>());
    for _ in 0..1000 {
        let u = a.unit();
        assert!((0.0..1.0).contains(&u));
        assert!(a.below(7) < 7);
        assert!(a.exp_gap(2000.0) >= 0.0);
    }
    let picked = a.choose(100, 10);
    assert_eq!(picked.len(), 10);
    assert!(picked.windows(2).all(|w| w[0] < w[1]) && picked[9] < 100);
}
