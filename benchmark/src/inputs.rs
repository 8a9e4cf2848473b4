//! Inputs generated from `--seed`, and the oracles that say what the
//! program must answer for them.
//!
//! The seed drives only what is generated here — element weights and
//! order, the request mix, the arrival schedule. It never reaches
//! `Config::seed`: the runtime's victim RNG keeps its default.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{Sizes, MODULUS};

/// Sequential naive Fibonacci: the unit of compute in every workload.
pub fn fib(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib(n - 1) + fib(n - 2)
    }
}

/// `fib(0..=max)` by iteration: the oracle the recursive results and the
/// server's replies are checked against.
pub fn fib_table(max: u64) -> Vec<u64> {
    let mut t = vec![0u64, 1];
    for i in 2..=max as usize {
        t.push(t[i - 1] + t[i - 2]);
    }
    t.truncate(max as usize + 1);
    t
}

fn rng_for(seed: u64, stream: u64) -> StdRng {
    // One independent stream per purpose, so adding a consumer never
    // shifts the numbers an existing one sees.
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Per-element weights in `1..=997`, in seed-shuffled order. Every batch
/// workload folds them into a position-weighted checksum, so a dropped,
/// duplicated or misplaced element changes the answer.
pub fn weights(seed: u64, len: usize) -> Vec<u64> {
    let mut rng = rng_for(seed, 1);
    let mut w: Vec<u64> = (0..len as u64).map(|i| 1 + (i * 31) % 997).collect();
    for i in (1..w.len()).rev() {
        let j = rng.gen_range(0..=i);
        w.swap(i, j);
    }
    w
}

/// `fib-compute`'s one input: the weight its result is folded with (the
/// first of a seeded shuffle, so it does depend on the seed).
pub fn single_weight(seed: u64) -> u64 {
    weights(seed, 997)[0]
}

/// What element `index` with weight `w` contributes when its computation
/// yields `unit`: `(index + 1) · w · unit  (mod M)`.
pub fn elem_value(index: usize, w: u64, unit: u64) -> u64 {
    (index as u64 + 1) % MODULUS * w % MODULUS * (unit % MODULUS) % MODULUS
}

/// Modular sum, the reduction every batch job uses.
pub fn add_mod(a: u64, b: u64) -> u64 {
    (a + b) % MODULUS
}

/// What a job over `weights` must return when every element's
/// computation yields `unit`.
pub fn weighted_checksum(weights: &[u64], unit: u64) -> u64 {
    weights
        .iter()
        .enumerate()
        .fold(0, |acc, (i, w)| add_mod(acc, elem_value(i, *w, unit)))
}

/// One request of the `server-open` mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Offset from the phase start at which the request is due, in ns
    /// (0 throughout for the closed-loop mix).
    pub due_ns: u64,
    pub n: u64,
}

/// Poisson arrivals at `rate` per second for `seconds`, each with `n`
/// uniform in the configured range.
pub fn open_loop_schedule(
    seed: u64,
    phase: u64,
    rate: f64,
    seconds: f64,
    sizes: &Sizes,
) -> Vec<Request> {
    let mut rng = rng_for(seed, 100 + phase);
    let mut out = Vec::with_capacity((rate * seconds * 1.05) as usize + 16);
    let mut t = 0.0f64;
    let horizon = seconds * 1e9;
    loop {
        let u: f64 = rng.gen();
        // Exponential inter-arrival; 1-u is in (0, 1] so the log is finite.
        t += -(1.0 - u).ln() / rate * 1e9;
        if t >= horizon {
            return out;
        }
        out.push(Request {
            due_ns: t as u64,
            n: rng.gen_range(sizes.srv_n_lo..=sizes.srv_n_hi),
        });
    }
}

/// The closed-loop request mix: `len` values of `n`, cycled by the
/// generator for as long as the phase lasts.
pub fn closed_loop_mix(seed: u64, len: usize, sizes: &Sizes) -> Vec<Request> {
    let mut rng = rng_for(seed, 200);
    (0..len)
        .map(|_| Request {
            due_ns: 0,
            n: rng.gen_range(sizes.srv_n_lo..=sizes.srv_n_hi),
        })
        .collect()
}

/// Every generated input of `workload` as bytes: the smoke test checks
/// that one seed gives byte-identical inputs and another seed does not.
pub fn dump(workload: &str, seed: u64, seconds: f64, quick: bool) -> Option<Vec<u8>> {
    let sizes = Sizes::new(quick);
    let mut out = Vec::new();
    let mut put = |v: u64| out.extend_from_slice(&v.to_le_bytes());
    match workload {
        "fib-compute" => put(single_weight(seed)),
        "spawn-flat" => weights(seed, sizes.flat_leaves)
            .into_iter()
            .for_each(&mut put),
        "mapreduce-latency" => weights(seed, sizes.mr_elems).into_iter().for_each(&mut put),
        "pipeline-channel" => weights(seed, sizes.pipe_msgs)
            .into_iter()
            .for_each(&mut put),
        "server-open" => {
            let phases = crate::workloads::server_open::phase_seconds(seconds);
            for (i, rate) in sizes.srv_rates.iter().enumerate() {
                for r in open_loop_schedule(seed, i as u64, *rate, phases[i], &sizes) {
                    put(r.due_ns);
                    put(r.n);
                }
            }
            for r in closed_loop_mix(seed, 4096, &sizes) {
                put(r.n);
            }
        }
        _ => return None,
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fib_table_matches_recursion() {
        let t = fib_table(20);
        assert_eq!(t.len(), 21);
        for (n, v) in t.iter().enumerate() {
            assert_eq!(*v, fib(n as u64));
        }
    }

    #[test]
    fn weights_are_a_seeded_permutation() {
        let a = weights(7, 100);
        assert_eq!(a, weights(7, 100));
        assert_ne!(a, weights(8, 100));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        let mut base: Vec<u64> = (0..100u64).map(|i| 1 + (i * 31) % 997).collect();
        base.sort_unstable();
        assert_eq!(sorted, base);
    }

    #[test]
    fn schedule_rate_is_close_to_nominal() {
        let s = open_loop_schedule(3, 0, 4000.0, 2.0, &Sizes::new(false));
        assert!((7500..8500).contains(&s.len()), "{}", s.len());
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    }
}
