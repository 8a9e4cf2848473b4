//! Order statistics over measured samples.

/// Sorts in place and returns the slice (NaNs never occur: inputs are
/// elapsed times and counts).
pub fn sorted(values: &mut [f64]) -> &[f64] {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    values
}

/// Percentile `p` in `[0, 1]` of a **sorted** slice, by linear
/// interpolation between the closest ranks. Empty input reads as 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(sorted(values), 0.5)
}

/// The quantile the end-to-end timings are reported at.
///
/// Interference on a shared host only ever adds time, in phases that last
/// from seconds to minutes: over ten runs of one build the *median* time
/// per 1 000 `server-open` replies spread 34 % around its own median, the
/// 10th percentile 8 %. The fast decile is what the program does when the
/// host leaves it alone, and a slower program moves it just as it moves
/// the median. Medians stay in the per-layer list.
pub const FAST_QUANTILE: f64 = 0.10;

/// The [`FAST_QUANTILE`] of the samples.
pub fn fast(values: &mut [f64]) -> f64 {
    percentile(sorted(values), FAST_QUANTILE)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the rule the acceptance driver uses for spreads.
pub fn quartiles(values: &mut [f64]) -> (f64, f64) {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median (0 for a zero median).
pub fn spread(values: &mut [f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Median, quartiles and count of one probe's repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

pub fn summarize(values: &mut [f64]) -> Summary {
    let (q1, q3) = quartiles(values);
    Summary {
        median: median(values),
        q1,
        q3,
        samples: values.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let mut v = vec![3.0, 1.0, 2.0];
        assert_eq!(quartiles(&mut v), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let mut v = vec![10.0, 20.0];
        assert_eq!(quartiles(&mut v), (7.5, 22.5));
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [0.0, 10.0, 20.0, 30.0];
        assert_eq!(percentile(&v, 0.5), 15.0);
        assert_eq!(percentile(&v, 1.0), 30.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }
}
