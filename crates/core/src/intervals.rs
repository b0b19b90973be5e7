use sr_tfg::{MessageId, TimeBounds};

use crate::EPS;

/// The partition of the period frame `[0, τ_in]` into intervals
/// `A_1 … A_K` induced by the distinct release/deadline endpoints of all
/// messages (paper §5.1: `t_0 = 0 < t_1 < … < t_K = τ_in`).
///
/// Because every window boundary is an interval endpoint, a message is
/// either active throughout an interval or not active in it at all — which
/// is what makes the activity matrix a clean 0/1 matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Intervals {
    endpoints: Vec<f64>,
}

impl Intervals {
    /// Crate-internal constructor from explicit ascending endpoints.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn from_endpoints(endpoints: Vec<f64>) -> Self {
        debug_assert!(endpoints.len() >= 2);
        debug_assert!(endpoints.windows(2).all(|w| w[1] > w[0]));
        Intervals { endpoints }
    }

    /// Builds the interval partition for a time-bound assignment.
    pub fn from_bounds(bounds: &TimeBounds) -> Self {
        let period = bounds.period();
        let mut pts = vec![0.0, period];
        for w in bounds.windows() {
            for (s, e) in w.spans() {
                pts.push(s);
                pts.push(e);
            }
        }
        pts.sort_by(f64::total_cmp);
        let mut endpoints: Vec<f64> = Vec::with_capacity(pts.len());
        for p in pts {
            let p = p.clamp(0.0, period);
            if endpoints.last().is_none_or(|&last| p - last > EPS) {
                endpoints.push(p);
            }
        }
        // Guarantee the frame end is the exact period value.
        let last = endpoints.last_mut().expect("at least one endpoint");
        if (*last - period).abs() <= EPS {
            *last = period;
        } else {
            endpoints.push(period);
        }
        Intervals { endpoints }
    }

    /// Number of intervals `K`.
    pub fn len(&self) -> usize {
        self.endpoints.len() - 1
    }

    /// `true` when the frame degenerated to a single point (never happens
    /// for a positive period).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k`-th interval `[t_{k}, t_{k+1}]` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn bounds(&self, k: usize) -> (f64, f64) {
        (self.endpoints[k], self.endpoints[k + 1])
    }

    /// Length of the `k`-th interval, in µs.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn length(&self, k: usize) -> f64 {
        let (s, e) = self.bounds(k);
        e - s
    }

    /// The ascending endpoint sequence `t_0 … t_K`.
    pub fn endpoints(&self) -> &[f64] {
        &self.endpoints
    }

    /// Index of the interval containing time `t` (end-exclusive except for
    /// the frame end).
    pub fn containing(&self, t: f64) -> Option<usize> {
        if t < -EPS || t > *self.endpoints.last().expect("non-empty") + EPS {
            return None;
        }
        let k = self
            .endpoints
            .partition_point(|&p| p <= t + EPS)
            .saturating_sub(1);
        Some(k.min(self.len() - 1))
    }
}

/// The message activity matrix `A = [a_ik]` (paper Def. preceding (2)):
/// `a_ik = 1` iff message `M_i` may transmit during interval `A_k`.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityMatrix {
    /// Row-major: `active[i][k]`.
    active: Vec<Vec<bool>>,
}

impl ActivityMatrix {
    /// Builds the activity matrix from windows and the interval partition.
    pub fn new(bounds: &TimeBounds, intervals: &Intervals) -> Self {
        let active = bounds
            .windows()
            .iter()
            .map(|w| {
                (0..intervals.len())
                    .map(|k| {
                        let (s, e) = intervals.bounds(k);
                        w.active_during(s, e)
                    })
                    .collect()
            })
            .collect();
        ActivityMatrix { active }
    }

    /// `a_ik`: may `message` transmit in interval `k`?
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn is_active(&self, message: MessageId, k: usize) -> bool {
        self.active[message.index()][k]
    }

    /// The intervals in which `message` is active, ascending.
    pub fn active_intervals(&self, message: MessageId) -> Vec<usize> {
        self.active[message.index()]
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(k, _)| k)
            .collect()
    }

    /// The messages active in interval `k`, ascending.
    pub fn active_messages(&self, k: usize) -> Vec<MessageId> {
        (0..self.active.len())
            .filter(|&i| self.active[i][k])
            .map(MessageId)
            .collect()
    }

    /// Number of message rows.
    pub fn num_messages(&self) -> usize {
        self.active.len()
    }

    /// Number of interval columns (0 when there are no messages).
    pub fn num_intervals(&self) -> usize {
        self.active.first().map_or(0, Vec::len)
    }

    /// Total active time of `message`: Σ over its active intervals of the
    /// interval length (the left side of the paper's constraint (2)).
    pub fn active_time(&self, message: MessageId, intervals: &Intervals) -> f64 {
        self.active_intervals(message)
            .iter()
            .map(|&k| intervals.length(k))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_tfg::{assign_time_bounds, generators, Timing, WindowPolicy};

    fn bounds(period: f64) -> TimeBounds {
        // chain of 3 tasks, exec 50 each, messages tx 10 each, τ_c = 50.
        let g = generators::chain(3, 500, 640);
        let t = Timing::new(64.0, 10.0);
        assign_time_bounds(&g, &t, period, WindowPolicy::LongestTask).unwrap()
    }

    #[test]
    fn endpoints_cover_frame() {
        let b = bounds(120.0);
        let iv = Intervals::from_bounds(&b);
        assert_eq!(iv.endpoints().first(), Some(&0.0));
        assert_eq!(iv.endpoints().last(), Some(&120.0));
        assert!(!iv.is_empty());
        let total: f64 = (0..iv.len()).map(|k| iv.length(k)).sum();
        assert!((total - 120.0).abs() < 1e-9);
    }

    #[test]
    fn interval_boundaries_are_window_endpoints() {
        // Releases at 50 (fold 50) and 150 (fold 30 at period 120),
        // windows of 50: spans [50,100] and [30,80].
        let b = bounds(120.0);
        let iv = Intervals::from_bounds(&b);
        for p in [0.0, 30.0, 50.0, 80.0, 100.0, 120.0] {
            assert!(
                iv.endpoints().iter().any(|&e| (e - p).abs() < 1e-6),
                "missing endpoint {p} in {:?}",
                iv.endpoints()
            );
        }
    }

    #[test]
    fn activity_matches_spans() {
        let b = bounds(120.0);
        let iv = Intervals::from_bounds(&b);
        let a = ActivityMatrix::new(&b, &iv);
        assert_eq!(a.num_messages(), 2);
        // Message 0 active exactly on [50,100].
        for k in 0..iv.len() {
            let (s, e) = iv.bounds(k);
            let mid = 0.5 * (s + e);
            let expect = (50.0..100.0).contains(&mid);
            assert_eq!(
                a.is_active(MessageId(0), k),
                expect,
                "interval {k} [{s},{e}]"
            );
        }
        // Constraint (2) holds: active time >= duration.
        for (i, w) in b.windows().iter().enumerate() {
            assert!(a.active_time(MessageId(i), &iv) >= w.duration() - 1e-9);
        }
    }

    #[test]
    fn wrap_windows_are_active_in_two_pieces() {
        // Period 80: message 1 releases at 70, window 50 -> [0,40] ∪ [70,80].
        let b = bounds(80.0);
        let iv = Intervals::from_bounds(&b);
        let a = ActivityMatrix::new(&b, &iv);
        let ks = a.active_intervals(MessageId(1));
        assert!(!ks.is_empty());
        let (first_start, _) = iv.bounds(ks[0]);
        let (_, last_end) = iv.bounds(*ks.last().unwrap());
        assert!(first_start.abs() < 1e-9, "wraps to frame start");
        assert!((last_end - 80.0).abs() < 1e-9, "extends to frame end");
        // There is a gap in the middle (not all intervals active).
        assert!(ks.len() < iv.len());
    }

    #[test]
    fn containing_lookup() {
        let b = bounds(120.0);
        let iv = Intervals::from_bounds(&b);
        for k in 0..iv.len() {
            let (s, e) = iv.bounds(k);
            assert_eq!(iv.containing(0.5 * (s + e)), Some(k));
        }
        assert_eq!(iv.containing(-5.0), None);
        assert_eq!(iv.containing(125.0), None);
        assert_eq!(iv.containing(120.0), Some(iv.len() - 1));
    }

    #[test]
    fn full_frame_windows_give_trivial_partition() {
        let b = bounds(50.0); // period = τ_c: every window covers the frame
        let iv = Intervals::from_bounds(&b);
        assert_eq!(iv.len(), 1);
        let a = ActivityMatrix::new(&b, &iv);
        assert!(a.is_active(MessageId(0), 0));
        assert!(a.is_active(MessageId(1), 0));
    }
}
