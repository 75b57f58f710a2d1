//! Offered-load schedules for latency-sensitive servers.
//!
//! A [`LoadSchedule`] is a step function from simulated time to offered
//! queries per second. The OS integrates it into fractional arrivals and
//! wakes `Wait`-parked servers when a whole query is pending — this
//! reproduces the fluctuating `web-search` load of the paper's
//! Figure 16(a).

/// A piecewise-constant offered-load schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadSchedule {
    /// `(start_second, qps)` steps, sorted by time; the first step should
    /// start at 0.
    steps: Vec<(f64, f64)>,
}

impl LoadSchedule {
    /// A constant offered load.
    pub fn constant(qps: f64) -> Self {
        LoadSchedule {
            steps: vec![(0.0, qps)],
        }
    }

    /// A step schedule from `(start_second, qps)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty or not sorted by time.
    pub fn steps(steps: Vec<(f64, f64)>) -> Self {
        assert!(!steps.is_empty(), "schedule needs at least one step");
        assert!(
            steps.windows(2).all(|w| w[0].0 <= w[1].0),
            "schedule steps must be sorted by time"
        );
        LoadSchedule { steps }
    }

    /// The paper's Figure 16(a) diurnal-style shape, scaled to a total
    /// duration: high load, low load, then high again.
    pub fn fig16_shape(duration_secs: f64, high_qps: f64, low_qps: f64) -> Self {
        let third = duration_secs / 3.0;
        LoadSchedule::steps(vec![
            (0.0, high_qps),
            (third, low_qps),
            (2.0 * third, high_qps),
        ])
    }

    /// Offered QPS at time `t` seconds.
    pub fn qps_at(&self, t: f64) -> f64 {
        let mut current = self.steps[0].1;
        for &(start, qps) in &self.steps {
            if t >= start {
                current = qps;
            } else {
                break;
            }
        }
        current
    }

    /// Arrivals during `[t0, t1)` seconds (exact piecewise integration).
    ///
    /// Visits only the steps that overlap the interval: from the last
    /// step starting at or before `t0` up to the first starting at or
    /// after `t1`. Every step outside that range contributes a
    /// zero-length segment, so the sum has the same terms in the same
    /// order as a scan over all steps.
    pub fn arrivals_between(&self, t0: f64, t1: f64) -> f64 {
        if t1 <= t0 {
            return 0.0;
        }
        let mut total = 0.0;
        let first = self.steps.partition_point(|s| s.0 <= t0).saturating_sub(1);
        for (i, &(start, qps)) in self.steps.iter().enumerate().skip(first) {
            if start >= t1 {
                break;
            }
            let seg_start = start.max(t0);
            let seg_end = self.steps.get(i + 1).map_or(t1, |n| n.0).min(t1);
            if seg_end > seg_start {
                total += qps * (seg_end - seg_start);
            }
        }
        // Time before the first step uses the first step's rate.
        if t0 < self.steps[0].0 {
            total += self.steps[0].1 * (self.steps[0].0.min(t1) - t0);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_schedule() {
        let s = LoadSchedule::constant(50.0);
        assert_eq!(s.qps_at(0.0), 50.0);
        assert_eq!(s.qps_at(1e6), 50.0);
        assert!((s.arrivals_between(2.0, 4.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn step_schedule_lookup() {
        let s = LoadSchedule::steps(vec![(0.0, 10.0), (100.0, 90.0), (200.0, 20.0)]);
        assert_eq!(s.qps_at(0.0), 10.0);
        assert_eq!(s.qps_at(99.9), 10.0);
        assert_eq!(s.qps_at(100.0), 90.0);
        assert_eq!(s.qps_at(250.0), 20.0);
    }

    #[test]
    fn arrivals_integrate_across_steps() {
        let s = LoadSchedule::steps(vec![(0.0, 10.0), (10.0, 20.0)]);
        // 5s at 10 qps + 5s at 20 qps = 150 arrivals.
        assert!((s.arrivals_between(5.0, 15.0) - 150.0).abs() < 1e-9);
        assert_eq!(s.arrivals_between(5.0, 5.0), 0.0);
        assert_eq!(s.arrivals_between(7.0, 3.0), 0.0);
    }

    #[test]
    fn fig16_shape_has_three_phases() {
        let s = LoadSchedule::fig16_shape(900.0, 80.0, 10.0);
        assert_eq!(s.qps_at(10.0), 80.0);
        assert_eq!(s.qps_at(450.0), 10.0);
        assert_eq!(s.qps_at(700.0), 80.0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_steps_rejected() {
        let _ = LoadSchedule::steps(vec![(5.0, 1.0), (2.0, 1.0)]);
    }
}
