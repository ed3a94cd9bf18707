//! Order statistics and the order-independent result digest.

use paradise::exec::Tuple;

/// Median of `v` (0 for an empty sample).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The tail of a sample: the highest order statistic that still has ten
/// samples above it, with the percentile it sits at. Samples smaller than
/// eleven give the maximum, labelled p100.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n < 11 {
        return (s[n - 1], 100.0);
    }
    (s[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Samples per window of [`windowed_tail`].
pub const TAIL_WINDOW: usize = 200;

/// The tail of a run's latencies, in the order they were taken: the run
/// is cut into equal consecutive windows of at least [`TAIL_WINDOW`]
/// samples, and the median over windows of each window's [`tail`] is
/// reported, with the median percentile (about p95). One burst of host
/// noise then moves one window, not the result; a short run is a single
/// window.
pub fn windowed_tail(v: &[f64]) -> (f64, f64) {
    let windows = (v.len() / TAIL_WINDOW).max(1);
    let size = v.len().div_ceil(windows).max(1);
    let tails: Vec<(f64, f64)> = v.chunks(size).map(tail).collect();
    let pick = |f: fn(&(f64, f64)) -> f64| median(&tails.iter().map(f).collect::<Vec<_>>());
    (pick(|t| t.0), pick(|t| t.1))
}

fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A 64-bit hash of one encoded row, eight bytes at a time.
fn row_hash(bytes: &[u8]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = mix(h ^ u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let mut last = [0u8; 8];
    last[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    mix(h ^ u64::from_le_bytes(last))
}

/// Order-independent digest of a result: the wrapping sum of per-row
/// hashes of each row's tuple encoding. Two results agree when they hold
/// the same multiset of rows, whatever order the nodes delivered them in.
pub fn digest(rows: &[Tuple]) -> u64 {
    rows.iter().fold(0u64, |acc, t| acc.wrapping_add(row_hash(&t.encode())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradise::exec::Value;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        assert_eq!(tail(&[3.0, 1.0]), (3.0, 100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn windowed_tail_ignores_one_noisy_window() {
        let mut v: Vec<f64> = (0..1000).map(|i| f64::from(i % 200)).collect();
        // A burst in the second of five windows only.
        v[200..230].iter_mut().for_each(|x| *x = 1000.0);
        let (t, p) = windowed_tail(&v);
        assert_eq!((t, p), (189.0, 95.0));
        // Fewer than two windows' worth: one window, the plain tail.
        let short: Vec<f64> = (1..=300).map(f64::from).collect();
        assert_eq!(windowed_tail(&short), tail(&short));
    }

    #[test]
    fn digest_ignores_row_order_but_not_content() {
        let row = |i: i64| Tuple::new(vec![Value::Int(i), Value::Str(format!("r{i}"))]);
        let a = [row(1), row(2), row(3)];
        let b = [row(3), row(1), row(2)];
        let c = [row(1), row(2), row(4)];
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
        assert_ne!(digest(&a[..2]), digest(&a));
    }
}
