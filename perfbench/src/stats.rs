//! The benchmark's own statistics: the percentile rule, open-loop
//! latency timed from due time, and failures counted as +∞.

use std::time::Duration;

/// Percentiles the tail rule may report, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// `true` when `pct` has at least [`MIN_BEYOND`] of `n` samples beyond it.
pub fn resolvable(n: usize, pct: f64) -> bool {
    n > 0 && n - rank(n, pct) >= MIN_BEYOND
}

/// Sort samples ascending; +∞ (a failed operation) sorts last.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of ascending `sorted` samples (NaN when empty).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// Percentile `pct` of `samples`, or an error naming the sample count
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn checked_percentile(samples: &[f64], pct: f64) -> Result<f64, String> {
    if !resolvable(samples.len(), pct) {
        return Err(format!(
            "p{pct} needs {MIN_BEYOND} samples beyond it, have {} samples",
            samples.len()
        ));
    }
    Ok(percentile(&sorted(samples), pct))
}

/// The tail the rule allows: the highest [`LADDER`] percentile with at
/// least [`MIN_BEYOND`] samples beyond it, its value, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub pct: f64,
    /// Its value (+∞ when failures reach that far).
    pub value: f64,
    /// Samples it was computed from.
    pub n: usize,
}

/// Apply the percentile rule; `None` when even the median is unresolved.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let pct = LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| resolvable(samples.len(), p))?;
    Some(Tail {
        pct,
        value: percentile(&sorted(samples), pct),
        n: samples.len(),
    })
}

/// Median of a small set of per-iteration figures (mean of the middle
/// pair for even counts; NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, when the reply completed, and whether it succeeded (a final
/// 200). Instants are offsets from the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shot {
    /// Scheduled send time.
    pub due: Duration,
    /// Actual send time.
    pub sent: Duration,
    /// Completion time of the reply.
    pub done: Duration,
    /// `true` for a final 200.
    pub ok: bool,
}

impl Shot {
    /// Latency timed from the due time, so a stall that delays later
    /// sends is charged to them; a failed or refused request is +∞.
    pub fn latency_ms(&self) -> f64 {
        if self.ok {
            self.done.saturating_sub(self.due).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator sent this request.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// Seeded SplitMix64: the benchmark derives every generated input from
/// it, so the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` and an input family `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        SplitMix(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        assert!(resolvable(1000, 99.0));
        assert!(!resolvable(1000, 99.9));
        // 999 samples: p99 sits at rank 990, leaving 9 beyond.
        assert!(!resolvable(999, 99.0));
        assert!(resolvable(999, 90.0));
        // The median needs 20 samples.
        assert!(!resolvable(19, 50.0));
        assert!(resolvable(20, 50.0));
        assert!(!resolvable(0, 50.0));
    }

    #[test]
    fn tail_reports_the_highest_resolvable_percentile_and_count() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!((t.pct, t.value, t.n), (99.0, 990.0, 1000));
        let t = tail(&samples[..999]).unwrap();
        assert_eq!((t.pct, t.value, t.n), (90.0, 900.0, 999));
        assert_eq!(tail(&samples[..19]), None);
        assert_eq!(tail(&samples[..20]).unwrap().pct, 50.0);
        assert!(checked_percentile(&samples[..999], 99.0)
            .unwrap_err()
            .contains("999 samples"));
        assert_eq!(checked_percentile(&samples, 50.0), Ok(500.0));
    }

    #[test]
    fn open_loop_latency_is_timed_from_due_time() {
        // Due at 10 ms, sent 5 ms late, answered 2 ms after sending:
        // the client saw 7 ms, not 2.
        let shot = Shot {
            due: ms(10),
            sent: ms(15),
            done: ms(17),
            ok: true,
        };
        assert_eq!(shot.latency_ms(), 7.0);
        assert_eq!(shot.late_ms(), 5.0);
        // Sent on time: no lateness, latency equals service time.
        let on_time = Shot {
            due: ms(10),
            sent: ms(10),
            done: ms(12),
            ok: true,
        };
        assert_eq!(on_time.latency_ms(), 2.0);
        assert_eq!(on_time.late_ms(), 0.0);
    }

    #[test]
    fn a_stall_is_charged_to_every_request_queued_behind_it() {
        // One 50 ms stall at t=0 delays the sends due at 1..=4 ms; each is
        // charged its full wait from its own due time.
        let shots: Vec<Shot> = (0..5u64)
            .map(|i| Shot {
                due: ms(i),
                sent: ms(if i == 0 { 0 } else { 50 }),
                done: ms(if i == 0 { 50 } else { 51 }),
                ok: true,
            })
            .collect();
        let lat: Vec<f64> = shots.iter().map(Shot::latency_ms).collect();
        assert_eq!(lat, vec![50.0, 50.0, 49.0, 48.0, 47.0]);
        let late: Vec<f64> = shots.iter().map(Shot::late_ms).collect();
        assert_eq!(late, vec![0.0, 49.0, 48.0, 47.0, 46.0]);
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        let failed = Shot {
            due: ms(0),
            sent: ms(0),
            done: ms(1),
            ok: false,
        };
        assert_eq!(failed.latency_ms(), f64::INFINITY);
        // 15 failures in 1000: they occupy the top ranks, so p99 is +∞
        // while the median is untouched.
        let mut samples: Vec<f64> = (0..985).map(|i| 1.0 + i as f64 / 1000.0).collect();
        samples.extend(std::iter::repeat_n(f64::INFINITY, 15));
        assert_eq!(checked_percentile(&samples, 99.0), Ok(f64::INFINITY));
        assert!(checked_percentile(&samples, 50.0).unwrap().is_finite());
        // 5 failures stay below p99.
        let mut few: Vec<f64> = (0..995).map(f64::from).collect();
        few.extend(std::iter::repeat_n(f64::INFINITY, 5));
        assert!(checked_percentile(&few, 99.0).unwrap().is_finite());
    }

    #[test]
    fn median_of_iterations() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn generated_inputs_repeat_for_a_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix::new(8, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = SplitMix::new(1, 2);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }
}
