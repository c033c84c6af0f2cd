//! The benchmark's own statistics: nearest-rank percentiles, the
//! reported tail percentile, serve goodput accounting and hit/miss
//! classification by first occurrence.

use std::collections::HashSet;
use std::hash::Hash;

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank `ceil(p/100 * n)`, clamped to `[1, n]`. `None` on an
/// empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float noise (99.99% of 100 000 is not exactly
    // 99 990.0) from bumping an exact rank up by one.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median of an unsorted sample: the middle value, or the mean of the
/// two middle values of an even-sized sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// An ascending copy of `values` (total order, so NaN cannot panic).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentiles the tail is chosen from, lowest first.
const TAIL_LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest ladder percentile with at least
/// [`TAIL_BEYOND`] samples beyond it, its value and that count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `95.0`.
    pub percentile: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The highest percentile of [`TAIL_LADDER`] whose nearest rank leaves
/// at least [`TAIL_BEYOND`] samples beyond it. `None` when even p50
/// does not (fewer than 20 samples).
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .rev()
        .map(|&p| (p, n.saturating_sub(rank(n.max(1), p))))
        .find(|&(_, beyond)| n > 0 && beyond >= TAIL_BEYOND)
        .map(|(p, beyond)| Tail {
            percentile: p,
            value: sorted[rank(n, p) - 1],
            beyond,
        })
}

/// How one serve reply (or its absence) counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// `ok: true`.
    Ok,
    /// `ok: false` with class `queue_full` or `rate_limited`: refused
    /// work, never goodput.
    Rejected,
    /// Any other `ok: false` frame.
    ErrorFrame,
    /// No reply before the read deadline.
    Lost,
}

impl Reply {
    /// Classifies a reply frame by its `ok` flag and error class.
    pub fn classify(ok: bool, class: Option<&str>) -> Reply {
        match (ok, class) {
            (true, _) => Reply::Ok,
            (false, Some("queue_full" | "rate_limited")) => Reply::Rejected,
            (false, _) => Reply::ErrorFrame,
        }
    }
}

/// Goodput accounting over one load phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Goodput {
    /// Requests sent.
    pub attempted: u64,
    /// `ok: true` replies.
    pub ok: u64,
    /// `queue_full` / `rate_limited` frames.
    pub rejected: u64,
    /// Other error frames.
    pub error_frames: u64,
    /// Requests never answered.
    pub lost: u64,
}

impl Goodput {
    /// Counts one request's outcome.
    pub fn record(&mut self, reply: Reply) {
        self.attempted += 1;
        match reply {
            Reply::Ok => self.ok += 1,
            Reply::Rejected => self.rejected += 1,
            Reply::ErrorFrame => self.error_frames += 1,
            Reply::Lost => self.lost += 1,
        }
    }

    /// Adds another phase's tally.
    pub fn merge(&mut self, other: Goodput) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.rejected += other.rejected;
        self.error_frames += other.error_frames;
        self.lost += other.lost;
    }

    /// Requests that did not produce a good reply.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    /// Good replies per second of `wall_s`.
    pub fn rate(&self, wall_s: f64) -> f64 {
        self.ok as f64 / wall_s.max(1e-9)
    }
}

/// Whether a request was the first for its point (a cold miss at a
/// server started on an empty cache) or a repeat (a hit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Occurrence {
    /// First request for the point.
    Miss,
    /// A later request for an already-requested point.
    Hit,
}

/// Classifies requests by first occurrence.
#[derive(Debug, Default)]
pub struct FirstSeen<T> {
    seen: HashSet<T>,
}

impl<T: Eq + Hash + Clone> FirstSeen<T> {
    /// An empty history.
    pub fn new() -> Self {
        FirstSeen {
            seen: HashSet::new(),
        }
    }

    /// Records `point` and says whether it was its first occurrence.
    pub fn classify(&mut self, point: &T) -> Occurrence {
        if self.seen.insert(point.clone()) {
            Occurrence::Miss
        } else {
            Occurrence::Hit
        }
    }

    /// Whether `point` has occurred.
    pub fn contains(&self, point: &T) -> bool {
        self.seen.contains(point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v = ramp(10);
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&v, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // Too few samples for any percentile.
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
        // n = 20: p50 is rank 10 with exactly 10 beyond; p75 leaves 5.
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
        // n = 100: p90 leaves 10, p95 only 5.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        // n = 200: p95 leaves 10.
        let t = tail(&ramp(200)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 190.0, 10));
        // n = 1000: p99 leaves 10; p99.9 leaves 1.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // n = 100_000: p99.9 leaves 100, p99.99 leaves 10.
        let t = tail(&ramp(100_000)).unwrap();
        assert_eq!(t.percentile, 99.99);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn refused_frames_are_failures_never_goodput() {
        let mut g = Goodput::default();
        g.record(Reply::classify(true, None));
        g.record(Reply::classify(false, Some("queue_full")));
        g.record(Reply::classify(false, Some("rate_limited")));
        g.record(Reply::classify(false, Some("protocol")));
        g.record(Reply::Lost);
        assert_eq!(g.attempted, 5);
        assert_eq!(g.ok, 1);
        assert_eq!(g.rejected, 2);
        assert_eq!(g.error_frames, 1);
        assert_eq!(g.lost, 1);
        assert_eq!(g.failed(), 4);
        assert_eq!(g.rate(2.0), 0.5);
        let mut total = Goodput::default();
        total.merge(g);
        total.merge(g);
        assert_eq!((total.attempted, total.ok, total.failed()), (10, 2, 8));
    }

    #[test]
    fn first_occurrence_is_the_only_miss() {
        let mut seen = FirstSeen::new();
        let stream = ["a", "b", "a", "c", "b", "a"];
        let classes: Vec<Occurrence> = stream.iter().map(|p| seen.classify(p)).collect();
        use Occurrence::{Hit, Miss};
        assert_eq!(classes, [Miss, Miss, Hit, Miss, Hit, Hit]);
        assert!(seen.contains(&"c") && !seen.contains(&"d"));
    }
}
