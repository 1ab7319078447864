//! Percentiles and the serve latency split.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile of `sorted` (ascending) by nearest rank: the
/// smallest sample with at least a share `q` of the samples at or below
/// it. `None` when fewer than [`MIN_BEYOND`] samples lie beyond it, so a
/// p90 needs at least 100 samples and a median at least 20.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sorts `samples` and takes [`percentile`].
pub fn percentile_of(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, q)
}

/// Median of a handful of samples (mean of the middle two for an even
/// count); for repeated set-ups, where the ten-beyond rule cannot hold.
pub fn small_median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Where one `serve` request's time went, in nanoseconds. `latency` runs
/// from the request's scheduled send time to the write of its response
/// line, and is exactly `late + hold + wait + exec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSplit {
    /// Scheduled send → line handed to `serve_batch`.
    pub late: i64,
    /// Handed over → response written, less the engine's wait and
    /// execution: parsing and ingest, queueing in request order, and the
    /// time the response sat until `serve_batch` wrote it.
    pub hold: i64,
    /// The job's wait on the engine scheduler (`wait_us`).
    pub wait: i64,
    /// The job's chase wall (`wall_us`).
    pub exec: i64,
    /// Scheduled send → response written.
    pub latency: i64,
}

impl ServeSplit {
    /// Splits one request from its three clock points (ns since the
    /// schedule started) and the response's `wait_us` and `wall_us`.
    pub fn new(scheduled: i64, handed: i64, written: i64, wait_us: u64, wall_us: u64) -> Self {
        let wait = wait_us as i64 * 1000;
        let exec = wall_us as i64 * 1000;
        ServeSplit {
            late: handed - scheduled,
            hold: written - handed - wait - exec,
            wait,
            exec,
            latency: written - scheduled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        // 99 samples leave only nine beyond the p90 rank.
        assert_eq!(percentile(&s[..99], 0.9), None);
        assert_eq!(percentile(&s, 0.99), None);
        assert_eq!(percentile(&s[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&s[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_of_sorts_first() {
        let mut s: Vec<f64> = (1..=200).map(f64::from).collect();
        s.reverse();
        assert_eq!(percentile_of(&s, 0.9), Some(180.0));
        assert_eq!(percentile_of(&s, 0.5), Some(100.0));
    }

    #[test]
    fn small_median_takes_the_middle() {
        assert_eq!(small_median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(small_median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn serve_split_sums_to_latency() {
        let s = ServeSplit::new(1_000, 1_250, 9_000_000, 40, 1_200);
        assert_eq!(s.late, 250);
        assert_eq!(s.wait, 40_000);
        assert_eq!(s.exec, 1_200_000);
        assert_eq!(s.late + s.hold + s.wait + s.exec, s.latency);
        assert_eq!(s.latency, 8_999_000);
    }
}
