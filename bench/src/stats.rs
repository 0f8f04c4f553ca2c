//! Order statistics, the serve step verdict, and the compare rule.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` of the samples at or below it. `p` is in `[0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle samples for even counts).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Ascending copy; NaN sorts last.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// First and third quartile with the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, `exclusive`), so the
/// spreads this tool reports are the ones an external checker computes.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median.
pub fn rel_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Largest relative deviation of any value from the median.
pub fn max_rel_dev(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    values
        .iter()
        .map(|v| ((v - med) / med).abs())
        .fold(0.0, f64::max)
}

/// What one open-loop step at a fixed offered rate measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Offered rate, requests per second.
    pub offered_rps: f64,
    /// Requests completed within the step over requests scheduled in it:
    /// the achieved rate as a share of the offered one (the schedule's own
    /// count, not the nominal rate, so Poisson noise does not count).
    pub achieved_share: f64,
    /// 99th-percentile latency from the due time, ms.
    pub p99_ms: f64,
    /// Failed over attempted requests.
    pub fail_ratio: f64,
}

impl Step {
    /// A step passes when the tail stays under the limit, almost nothing
    /// fails, and the server keeps up with the offered rate (no backlog).
    pub fn passes(&self, p99_limit_ms: f64) -> bool {
        self.p99_ms <= p99_limit_ms && self.keeps_up()
    }

    fn keeps_up(&self) -> bool {
        self.fail_ratio <= 0.001 && self.achieved_share >= 0.98
    }
}

/// Highest rate that meets the limit, from steps in increasing rate order.
/// Between the last passing step and the first failing one the rate is
/// interpolated on p99 (linear in rate); when the failing step failed for a
/// reason other than p99, the passing rate is kept. The flag is `true`
/// (censored) when the top step passes, so the true maximum lies above it.
/// `None` when even the first step fails.
pub fn max_rate(steps: &[Step], p99_limit_ms: f64) -> Option<(f64, bool)> {
    let mut best: Option<&Step> = None;
    for step in steps {
        if step.passes(p99_limit_ms) {
            best = Some(step);
            continue;
        }
        let pass = best?;
        if step.keeps_up() && step.p99_ms > pass.p99_ms {
            let frac = (p99_limit_ms - pass.p99_ms) / (step.p99_ms - pass.p99_ms);
            let rate = pass.offered_rps + frac * (step.offered_rps - pass.offered_rps);
            return Some((rate, false));
        }
        return Some((pass.offered_rps, false));
    }
    best.map(|s| (s.offered_rps, true))
}

/// Which direction is better for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Verdict of comparing a change (B) against its parent (A) on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Summary of one side of a comparison.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    pub fn of(values: &[f64]) -> Self {
        let med = median(values);
        let (q1, q3) = quartiles(values).unwrap_or((med, med));
        Side {
            median: med,
            q1,
            q3,
        }
    }
}

/// Compares runs of A (parent) and B (change) of one metric, paired by
/// index (run `i` of A with run `i` of B, run order alternating).
///
/// * **better** — B wins at least nine tenths of the pairs (ties count for
///   neither) and the medians differ by more than A's own quartile spread;
/// * **worse** — B's median is worse than A's by more than `bound` (a share
///   of A's median);
/// * **unresolved** — either side's quartile spread is wider than the bound,
///   unless every run of B reads better than every run of A;
/// * **same** — otherwise.
pub fn compare(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let sa = Side::of(a);
    let sb = Side::of(b);
    let gain = |x: f64, y: f64| match better {
        Better::Lower => x - y,
        Better::Higher => y - x,
    };
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| gain(a[i], b[i]) > 0.0).count();
    let win_share = if pairs == 0 {
        0.0
    } else {
        wins as f64 / pairs as f64
    };
    let scale = sa.median.abs().max(f64::MIN_POSITIVE);
    let a_spread = sa.q3 - sa.q1;
    let delta = gain(sa.median, sb.median);
    let all_better = match better {
        Better::Lower => sorted(b).last() < sorted(a).first(),
        Better::Higher => sorted(b).first() > sorted(a).last(),
    };
    let verdict = if pairs >= 10 && win_share >= 0.9 && delta > a_spread {
        Verdict::Better
    } else if -delta > bound * scale {
        Verdict::Worse
    } else if !all_better
        && (a_spread / scale > bound
            || (sb.q3 - sb.q1) / sb.median.abs().max(f64::MIN_POSITIVE) > bound)
    {
        Verdict::Unresolved
    } else {
        Verdict::Same
    };
    (verdict, win_share)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // two values: [0.75, 1.5, 2.25] for [1, 2] ... exclusive clamps j
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert!((rel_iqr(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    fn step(offered: f64, p99: f64) -> Step {
        Step {
            offered_rps: offered,
            achieved_share: 1.0,
            p99_ms: p99,
            fail_ratio: 0.0,
        }
    }

    #[test]
    fn step_pass_fail() {
        assert!(step(1000.0, 9.9).passes(10.0));
        assert!(!step(1000.0, 10.1).passes(10.0));
        let backlog = Step {
            achieved_share: 0.95,
            ..step(1000.0, 2.0)
        };
        assert!(!backlog.passes(10.0), "a growing backlog fails the step");
        let failing = Step {
            fail_ratio: 0.002,
            ..step(1000.0, 2.0)
        };
        assert!(!failing.passes(10.0));
    }

    #[test]
    fn max_rate_interpolates_on_p99_and_flags_censoring() {
        let steps = [
            step(500.0, 1.0),
            step(1000.0, 2.0),
            step(1500.0, 6.0),
            step(2000.0, 14.0),
        ];
        // 10 ms lies half way between 6 ms (1500) and 14 ms (2000)
        assert_eq!(max_rate(&steps, 10.0), Some((1750.0, false)));
        // every step passes: the top rate, censored
        assert_eq!(max_rate(&steps, 20.0), Some((2000.0, true)));
        // the first step already fails
        assert_eq!(max_rate(&steps, 0.5), None);
        // a step failing by backlog (not p99) keeps the last passing rate
        let mut backlog = steps;
        backlog[2].achieved_share = 0.9;
        assert_eq!(max_rate(&backlog, 10.0), Some((1000.0, false)));
    }

    #[test]
    fn compare_verdicts() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + (i % 5) as f64).collect();
        // identical runs: same
        assert_eq!(compare(&base, &base, Better::Lower, 0.05).0, Verdict::Same);
        // 20% faster on every pair: better
        let fast: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        let (v, share) = compare(&base, &fast, Better::Lower, 0.05);
        assert_eq!((v, share), (Verdict::Better, 1.0));
        // 20% slower: worse
        let slow: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(compare(&base, &slow, Better::Lower, 0.05).0, Verdict::Worse);
        // for a higher-is-better metric the same numbers flip
        assert_eq!(
            compare(&base, &fast, Better::Higher, 0.05).0,
            Verdict::Worse
        );
        // spread wider than the bound and no clear ordering: unresolved
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 70.0 } else { 130.0 })
            .collect();
        assert_eq!(
            compare(&noisy, &noisy, Better::Lower, 0.05).0,
            Verdict::Unresolved
        );
        // fewer than ten pairs never claim a gain
        assert_eq!(
            compare(&base[..5], &fast[..5], Better::Lower, 0.05).0,
            Verdict::Same
        );
    }
}
