//! Order statistics: medians, quartile spread, and the percentile helper
//! that refuses a tail the sample cannot support.

/// One reported figure: the value, how many samples it rests on, and the
/// distance between their first and third quartile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub n: usize,
    pub iqr: f64,
}

impl Summary {
    /// A figure that is a single reading (a count, a ratio over a phase).
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            n: 1,
            iqr: 0.0,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// the spreads printed here are the ones the driver will compute.
/// `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let data = sorted(values);
    let len = data.len();
    let m = len + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let data = sorted(values);
    let len = data.len();
    match len {
        0 => None,
        _ if len % 2 == 1 => Some(data[len / 2]),
        _ => Some((data[len / 2 - 1] + data[len / 2]) / 2.0),
    }
}

/// Median, sample count and inter-quartile distance of `values`.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let value = median(values)?;
    let iqr = quartiles(values).map_or(0.0, |q| q[2] - q[0]);
    Some(Summary {
        value,
        n: values.len(),
        iqr,
    })
}

/// The quartile on the undisturbed side of `values`: the upper one of a
/// figure that is better higher, the lower one of a figure that is better
/// lower, with the sample count and inter-quartile distance. Below four
/// samples the quartile formula extrapolates, so the best sample stands
/// in.
///
/// Per-second windows on a shared runner are disturbed from one side
/// only — a neighbour can slow a window, nothing speeds one up — so this
/// quartile repeats from run to run where the median does not (see
/// `README.md` for the measurement).
pub fn undisturbed_quartile(values: &[f64], higher_is_better: bool) -> Option<Summary> {
    let best = values
        .iter()
        .copied()
        .reduce(if higher_is_better { f64::max } else { f64::min })?;
    Some(match quartiles(values) {
        Some(q) if values.len() >= 4 => Summary {
            value: if higher_is_better { q[2] } else { q[0] },
            n: values.len(),
            iqr: q[2] - q[0],
        },
        Some(q) => Summary {
            value: best,
            n: values.len(),
            iqr: q[2] - q[0],
        },
        None => Summary {
            value: best,
            n: 1,
            iqr: 0.0,
        },
    })
}

/// Inter-quartile distance as a share of the median — the driver's
/// spread. `None` below two samples or at a zero median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let q = quartiles(values)?;
    (q[1] != 0.0).then(|| (q[2] - q[0]) / q[1].abs())
}

/// The nearest rank of the `p`-th percentile in a sample of `n`:
/// `ceil(n × p / 100)`, in whole thousandths of a percent so that
/// 99.9 % of 10 000 is 9 990 and not, in floating point, 9 991.
fn nearest_rank(n: usize, p: f64) -> usize {
    let thousandths = (p * 1e3).round() as u128;
    (n as u128 * thousandths).div_ceil(100_000) as usize
}

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 100]`).
pub fn percentile(ascending: &[f64], p: f64) -> Option<f64> {
    if ascending.is_empty() {
        return None;
    }
    Some(ascending[nearest_rank(ascending.len(), p).clamp(1, ascending.len()) - 1])
}

/// How many samples lie strictly beyond the nearest-rank `p`-th
/// percentile of a sample of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// Fewest samples that must lie beyond a percentile for it to be
/// reported.
const MIN_BEYOND: usize = 10;

/// The tail percentiles the harness knows by name, ascending.
const TAILS: [f64; 5] = [90.0, 99.0, 99.9, 99.99, 99.999];

/// The highest of [`TAILS`] that still has [`MIN_BEYOND`] samples beyond
/// it in a sample of `n`, with that count.
pub fn highest_supported_tail(n: usize) -> Option<(f64, usize)> {
    TAILS
        .iter()
        .rev()
        .map(|&p| (p, beyond(n, p)))
        .find(|&(_, count)| count >= MIN_BEYOND)
}

/// Whether a sample of `n` supports reporting its `p`-th percentile.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(relative_spread(&v), Some(1.0));
    }

    #[test]
    fn undisturbed_quartile_sides_with_the_better_direction() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(
            undisturbed_quartile(&v, true),
            Some(Summary {
                value: 8.25,
                n: 10,
                iqr: 5.5
            })
        );
        assert_eq!(
            undisturbed_quartile(&v, false),
            Some(Summary {
                value: 2.75,
                n: 10,
                iqr: 5.5
            })
        );
        // Too few samples for a quartile: the best one.
        assert_eq!(undisturbed_quartile(&[3.0, 1.0], true).unwrap().value, 3.0);
        assert_eq!(undisturbed_quartile(&[3.0, 1.0], false).unwrap().value, 1.0);
        assert_eq!(
            undisturbed_quartile(&[7.0], false),
            Some(Summary::single(7.0))
        );
        assert_eq!(undisturbed_quartile(&[], true), None);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0, 1.0, 9.0]), Some(4.0));
        assert_eq!(median(&[4.0, 1.0, 9.0, 2.0]), Some(3.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        assert_eq!(highest_supported_tail(1000), Some((99.0, 10)));
        assert_eq!(highest_supported_tail(999), Some((90.0, 99)));
        assert_eq!(highest_supported_tail(10_000), Some((99.9, 10)));
        assert_eq!(highest_supported_tail(50), None);
        assert!(supports(2000, 99.0));
        assert!(!supports(900, 99.0));
        let data: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&data, 99.0), Some(990.0));
        assert_eq!(percentile(&data, 50.0), Some(500.0));
    }
}
