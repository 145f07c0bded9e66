//! Order statistics and the checksum the result checks use.

/// The `p`-th percentile (0..=100) by linear interpolation between the
/// two closest ranks. `values` need not be sorted; empty gives 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest of the usual tail percentiles that still has at least
/// ten of `n` samples beyond it, or `None` when not even the median does.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // In tenths of a percent, so the count beyond is exact.
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|p| n * (1000 - p) / 1000 >= 10)
        .map(|p| p as f64 / 10.0)
}

/// 64-bit FNV-1a, continued from `state` (start from [`FNV_START`]).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn fnv_is_the_reference_function() {
        assert_eq!(fnv1a(FNV_START, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_START, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a(fnv1a(FNV_START, b"foo"), b"bar"),
            fnv1a(FNV_START, b"foobar")
        );
    }
}
