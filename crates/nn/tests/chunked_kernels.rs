//! Property tests for the chunked dot kernel: the optimized 8-lane
//! [`dot`] must match the scalar specification [`dot_spec`] **bit-for-bit**
//! at every length — full chunks, ragged tails (`len % 8 != 0`), short
//! inputs (`len < 8`), and the empty product.

use flextensor_nn::{dot, dot_spec, DOT_LANES};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `dot ≡ dot_spec` bit-for-bit at arbitrary lengths, covering
    /// `len % 8 != 0`, `len < 8`, and multi-chunk inputs.
    #[test]
    fn dot_matches_spec_at_any_length(
        len in 0usize..200,
        seed in any::<u64>(),
    ) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 2_000_001) as f64 / 1000.0 - 1000.0
        };
        let w: Vec<f64> = (0..len).map(|_| next()).collect();
        let x: Vec<f64> = (0..len).map(|_| next()).collect();
        prop_assert_eq!(dot(&w, &x).to_bits(), dot_spec(&w, &x).to_bits());
    }
}

/// Exhaustive sweep of every length around the chunk boundaries: 0..=3
/// chunks plus each possible tail.
#[test]
fn dot_matches_spec_exhaustive_boundary_lengths() {
    for len in 0..=(3 * DOT_LANES + 7) {
        let w: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
        let x: Vec<f64> = (0..len).map(|i| (i as f64 * 0.73).cos() * 5.0).collect();
        assert_eq!(
            dot(&w, &x).to_bits(),
            dot_spec(&w, &x).to_bits(),
            "len {len}"
        );
    }
}

/// The documented pairwise combine really is the order used: check an
/// input crafted so any other association changes the result.
#[test]
fn spec_defines_the_documented_lane_combine() {
    // One full chunk + 3-wide tail; values with wildly different
    // magnitudes make f64 addition order observable.
    let w = vec![1e16, 1.0, -1e16, 1.0, 1e8, 1.0, -1e8, 1.0, 0.5, 0.25, 2.0];
    let x = vec![1.0; 11];
    let lanes: [f64; 8] = [1e16, 1.0, -1e16, 1.0, 1e8, 1.0, -1e8, 1.0];
    let mut expect: f64 = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for t in [0.5, 0.25, 2.0] {
        expect += t;
    }
    assert_eq!(dot_spec(&w, &x).to_bits(), expect.to_bits());
    assert_eq!(dot(&w, &x).to_bits(), expect.to_bits());
}

/// Zero-length inputs are the all-tail/all-empty corner: both kernels
/// return exactly 0.0.
#[test]
fn empty_inputs() {
    assert_eq!(dot(&[], &[]).to_bits(), 0.0f64.to_bits());
    assert_eq!(dot_spec(&[], &[]).to_bits(), 0.0f64.to_bits());
}
