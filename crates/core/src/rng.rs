//! The workspace's one SplitMix64 — shared by fault-plan decision words
//! ([`crate::fault`]), latency sampling ([`crate::LatencyProfile`]), and
//! per-worker seed derivation.
//!
//! These call sites used to carry their own copies of the same mixer;
//! they are deduplicated here behind golden-value tests because the
//! outputs are *contractual*: fault-plan schedule digests, chaos-soak
//! seeds, and latency samples must stay bit-identical across refactors
//! (a digest recorded in CI logs or EXPERIMENTS.md must keep meaning the
//! same run).
//!
//! Two copies intentionally remain elsewhere:
//!
//! * `shims/rand` — a vendored stand-in for the external `rand` crate;
//!   it cannot depend on this crate (lhws-core depends on *it*).
//! * `lhws_checkrt`'s private schedule-sampling xorshift — lhws-core
//!   depends on lhws-checkrt, so the dependency points the wrong way,
//!   and schedule sampling is not digest-contractual anyway.

/// The SplitMix64 additive constant (the golden-ratio gamma). Exposed
/// because worker seed derivation uses it directly as a stride.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64: advance `z` by [`GOLDEN_GAMMA`] and finalize. This is the
/// standard generator (Steele, Lea & Flood, OOPSLA'14 / Vigna's
/// reference `splitmix64.c`); `splitmix64(0) == 0xE220_A839_7B1D_CDAF`
/// matches the published test vector.
///
/// Used both as a one-shot hash of a key (latency sampling, decision
/// words) and as the transition function of [`SplitMix64`] streams.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 stream: the sequence `splitmix64(seed)`,
/// `splitmix64(seed + γ)`, `splitmix64(seed + 2γ)`, … — identical to the
/// canonical `next()` loop (and to the seed expansion the rand shim's
/// `StdRng::seed_from_u64` performs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Starts the stream at `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        out
    }

    /// A uniform draw in `[0, bound)`; `bound == 0` returns 0. Simple
    /// modulo — fine for scheduling/test purposes, where the bias at
    /// 2^64-scale bounds is irrelevant.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden values. The first is the published SplitMix64 test vector;
    /// all pin the exact outputs that fault-plan digests and latency
    /// samples are derived from. If one of these ever fails,
    /// a refactor changed contractual randomness — fix the refactor, do
    /// not re-pin the values.
    #[test]
    fn splitmix64_golden_values() {
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(splitmix64(0xDEAD_BEEF), 0x4ADF_B90F_68C9_EB9B);
        assert_eq!(splitmix64(GOLDEN_GAMMA), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn stream_matches_one_shot_ladder() {
        let mut s = SplitMix64::new(42);
        let got = [s.next_u64(), s.next_u64(), s.next_u64(), s.next_u64()];
        assert_eq!(
            got,
            [
                0xBDD7_3226_2FEB_6E95,
                0x28EF_E333_B266_F103,
                0x4752_6757_130F_9F52,
                0x581C_E1FF_0E4A_E394,
            ]
        );
        // The stream is exactly the one-shot mixer walked by gamma.
        assert_eq!(got[0], splitmix64(42));
        assert_eq!(got[1], splitmix64(42u64.wrapping_add(GOLDEN_GAMMA)));
    }

    #[test]
    fn next_below_bounds() {
        let mut s = SplitMix64::new(7);
        for _ in 0..100 {
            assert!(s.next_below(13) < 13);
        }
        assert_eq!(SplitMix64::new(9).next_below(0), 0);
        assert_eq!(SplitMix64::new(9).next_below(1), 0);
    }
}
