//! Host-speed normalization of the end-to-end times.
//!
//! On a shared 2-vCPU virtual machine the host ran the same code at two
//! speeds about 1.6× apart, switching every few seconds to minutes, so a
//! set of runs taken in a slow spell would read as a regression of every
//! time metric. The benchmark therefore runs a fixed reference kernel
//! (benchmark code, untouched by any change to the program) next to each
//! timed interval and scales the interval by `REFERENCE_S` over the
//! reference time measured around it: the result is the interval's length
//! on a host that runs the kernel in `REFERENCE_S`. On that machine the
//! ratio of a P-method `optimize()` call to the kernel stayed within ±5%
//! while the raw call time moved ±15% and more. Raw wall times are printed
//! on the notes lines.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time on the reference host at its fast speed.
pub const REFERENCE_S: f64 = 0.010;

/// Intervals on each side whose reference times feed an interval's
/// speed estimate (spikes of single samples are discarded by the median).
const WINDOW: usize = 2;

/// Live entries the kernel's map is held to, so the kernel adds well
/// under a megabyte to the process's peak memory.
const KERNEL_MAP_CAP: usize = 4096;

/// Runs the reference kernel once — ordered-map inserts and removals of
/// small allocations plus floating-point math, like the search loop — and
/// returns its wall time in seconds.
pub fn reference() -> f64 {
    let t = Instant::now();
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x5DEE_CE66;
    let mut acc = 0.0f64;
    for i in 0..80_000i64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x >> 40, vec![i; 6]);
        if map.len() > KERNEL_MAP_CAP {
            map.pop_first();
        }
        acc += ((x >> 11) as f64).sqrt().ln_1p();
    }
    black_box((map.len(), acc));
    t.elapsed().as_secs_f64()
}

/// Runs the reference kernel on `threads` threads at once and returns the
/// wall time until the last one finishes: the speed of a phase whose work
/// is spread over that many cores, which ends with its slowest core.
pub fn reference_on(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(reference);
        }
    });
    t.elapsed().as_secs_f64()
}

/// Scales each of `walls` to the reference host speed. `refs[i]` is the
/// reference time measured right after interval `i`; interval `i` is
/// scaled by `REFERENCE_S` over the median reference time of the intervals
/// within `WINDOW` of it.
pub fn normalize(walls: &[f64], refs: &[f64]) -> Vec<f64> {
    assert_eq!(walls.len(), refs.len(), "one reference per interval");
    (0..walls.len())
        .map(|i| {
            let lo = i.saturating_sub(WINDOW);
            let hi = (i + WINDOW + 1).min(refs.len());
            walls[i] * REFERENCE_S / crate::stats::median(&refs[lo..hi])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_follows_the_local_reference() {
        let walls = [1.0, 1.0, 2.0, 2.0, 2.0];
        let refs = [0.01, 0.01, 0.02, 0.02, 0.02];
        let n = normalize(&walls, &refs);
        assert_eq!(n[4], 1.0);
        assert_eq!(n[0], 1.0);
    }

    #[test]
    fn reference_kernel_takes_time() {
        assert!(reference() > 0.0);
        assert!(reference_on(2) > 0.0);
    }
}
