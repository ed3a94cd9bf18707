//! Host-speed calibration.
//!
//! On a small shared host the speed one thread gets drifts by a fifth or
//! more within seconds, as neighbours come and go; two runs of the same
//! code a minute apart can differ by that much. The benchmark therefore
//! times a fixed piece of work, [`kernel`], next to the engine: once after
//! every pass (or Q1) and before every set-up. A time measured while the
//! kernel ran at `c` ms is reported as if the host ran it at
//! [`REFERENCE_MS`]: `t × REFERENCE_MS / c`. The kernel is part of the
//! benchmark, not the engine, so no engine change moves it.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Median time of [`kernel`] on the host the benchmark was tuned on (a
/// 2-vCPU Intel Xeon guest): the speed every reported time is scaled to.
pub const REFERENCE_MS: f64 = 1.25;
/// Kernel runs per calibration point; the point is their median.
const REPS: usize = 3;
/// Calibration points in the rolling median that scales one pass.
const WINDOW: usize = 9;

/// A fixed mix of the work the engine does: sort 32 Ki pseudo-random
/// keys, hash a quarter of them into a map, sum float products and fold
/// bytes. Returns its wall time in ms.
pub fn kernel() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut keys: Vec<u64> = (0..32_768)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let map: std::collections::HashMap<u64, usize> =
        keys.iter().step_by(4).enumerate().map(|(i, &k)| (k, i)).collect();
    let area: f64 = keys.windows(2).map(|w| (w[0] >> 40) as f64 * (w[1] >> 40) as f64).sum();
    let folded = keys.iter().flat_map(|k| k.to_le_bytes()).fold(0u8, |a, b| a.rotate_left(3) ^ b);
    black_box((map.len(), area, folded));
    t.elapsed().as_secs_f64() * 1e3
}

/// One calibration point: the median of [`REPS`] kernel runs, in ms.
pub fn point() -> f64 {
    median(&(0..REPS).map(|_| kernel()).collect::<Vec<_>>())
}

/// Host slowness at each calibration point, relative to the reference:
/// the rolling median of [`WINDOW`] points centred on it, over
/// [`REFERENCE_MS`]. Divide a time by it (multiply a rate by it) to get
/// the reference-speed figure. An empty list gives no factors.
pub fn slowness(points: &[f64]) -> Vec<f64> {
    let half = WINDOW / 2;
    (0..points.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(points.len());
            median(&points[lo..hi]) / REFERENCE_MS
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_a_centred_rolling_median() {
        let mut pts = vec![REFERENCE_MS; 20];
        pts[10] = 100.0; // one outlier moves no factor
        pts[15..].iter_mut().for_each(|p| *p = 2.0 * REFERENCE_MS);
        let s = slowness(&pts);
        assert_eq!(s.len(), 20);
        assert_eq!(s[0], 1.0);
        assert_eq!(s[10], 1.0);
        assert_eq!(s[19], 2.0);
        assert!(slowness(&[]).is_empty());
    }

    #[test]
    fn kernel_takes_measurable_time() {
        assert!(point() > 0.0);
    }
}
