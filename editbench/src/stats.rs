//! Sample statistics: medians, nearest-rank percentiles, the tail rule
//! and open-loop lateness.

/// Nearest-rank percentile `p` (0–100) of `samples` (any order).
/// Returns 0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Median (the nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Interquartile mean: the mean of the sorted samples left after the
/// lowest and the highest quarter are dropped. Unlike the median it
/// moves smoothly when the samples fall into two clusters whose shares
/// change a little between runs; unlike the mean it ignores the stalls
/// in the top quarter. 0 for an empty slice.
pub fn iqm(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

/// The typical value of samples from several projects of unequal cost:
/// the geometric mean of each project's interquartile mean, so every
/// project weighs the same whatever its cost and sample count, and the
/// result does not jump when the pooled median would cross from one
/// project's cluster to another's. Empty groups are skipped; 0 when all
/// are empty.
pub fn per_project(groups: &[Vec<f64>]) -> f64 {
    let logs: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| iqm(g).ln())
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        mean(&logs).exp()
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The tail of a latency sample: the highest whole percentile that
/// still leaves at least `beyond` samples above its nearest rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used (50 when the sample is too small for any
    /// higher one; then fewer than `beyond` samples lie above it).
    pub pct: u32,
    /// The sample value at that percentile.
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// Picks the highest percentile in 50..=99 whose nearest rank leaves at
/// least `beyond` samples after it, so the tail is estimated from
/// enough samples to mean something.
pub fn tail(samples: &[f64], beyond: usize) -> Tail {
    let n = samples.len();
    if n == 0 {
        return Tail {
            pct: 50,
            value: 0.0,
            beyond: 0,
            n,
        };
    }
    let beyond_at = |p: u32| n - rank(n, f64::from(p));
    let pct = (50..=99u32)
        .rev()
        .find(|&p| beyond_at(p) >= beyond)
        .unwrap_or(50);
    Tail {
        pct,
        value: percentile(samples, f64::from(pct)),
        beyond: beyond_at(pct),
        n,
    }
}

/// One open-loop request: when it was due, when it was actually sent and
/// when its response arrived, all in seconds from the schedule start.
#[derive(Debug, Clone, Copy)]
pub struct Scheduled {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
}

impl Scheduled {
    /// Latency as the caller sees it: from the due time, so a stall that
    /// delays later sends is charged to every request it delayed.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator sent the request (never negative).
    pub fn lateness(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// Due time of the `i`-th request of a fixed-rate schedule.
pub fn due_time(i: usize, rate_hz: f64) -> f64 {
    i as f64 / rate_hz
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        let s: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(iqm(&s), 4.5);
        // Two clusters: moving one sample across the gap moves the
        // median from one cluster to the other but the IQM only a little.
        let mut split = vec![12.0; 20];
        split.extend([18.0; 20]);
        let median_before = median(&split);
        let iqm_before = iqm(&split);
        split[19] = 18.0;
        assert_eq!((median_before, median(&split)), (12.0, 18.0));
        assert!((iqm(&split) - iqm_before).abs() < 0.5);
        assert_eq!(iqm(&[7.0]), 7.0);
        assert_eq!(iqm(&[]), 0.0);
    }

    #[test]
    fn every_project_weighs_the_same() {
        // One project 100x dearer than the other, with four times the
        // samples: the pooled median sits in the dear project's cluster,
        // the per-project figure halfway between them in log terms.
        let cheap = vec![1.0; 5];
        let dear = vec![100.0; 20];
        let pooled: Vec<f64> = cheap.iter().chain(&dear).copied().collect();
        assert_eq!(median(&pooled), 100.0);
        let v = per_project(&[cheap, dear, Vec::new()]);
        assert!((v - 10.0).abs() < 1e-9);
        assert_eq!(per_project(&[vec![3.0, 1.0, 2.0]]), iqm(&[3.0, 1.0, 2.0]));
        assert_eq!(per_project(&[Vec::new()]), 0.0);
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&s, 10);
        assert_eq!((t.pct, t.value, t.beyond, t.n), (90, 90.0, 10, 100));

        let s: Vec<f64> = (1..=80).map(f64::from).collect();
        let t = tail(&s, 10);
        // p87 -> rank 70 leaves 10; p88 -> rank 71 would leave 9.
        assert_eq!((t.pct, t.value, t.beyond), (87, 70.0, 10));

        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s, 10).pct, 99);
    }

    #[test]
    fn tail_of_a_small_sample_falls_back_to_the_median() {
        let s: Vec<f64> = (1..=12).map(f64::from).collect();
        let t = tail(&s, 10);
        assert_eq!(t.pct, 50);
        assert!(t.beyond < 10);
        assert_eq!(tail(&[], 10).n, 0);
    }

    #[test]
    fn lateness_and_latency_are_measured_from_the_due_time() {
        // 10 Hz schedule; request 3 is due at 0.3 s but the generator was
        // stuck until 0.45 s and the answer came at 0.5 s.
        let due = due_time(3, 10.0);
        assert!((due - 0.3).abs() < 1e-12);
        let r = Scheduled {
            due,
            sent: 0.45,
            done: 0.5,
        };
        assert!((r.latency() - 0.2).abs() < 1e-12);
        assert!((r.lateness() - 0.15).abs() < 1e-12);
        // Sending early never counts as negative lateness.
        let early = Scheduled {
            due: 1.0,
            sent: 0.99,
            done: 1.01,
        };
        assert_eq!(early.lateness(), 0.0);
    }
}
