//! The nap-only QoS law (ReQoS, Tang et al., ASPLOS 2013).
//!
//! Napping duty-cycles the batch host so a co-located, high-priority
//! co-runner meets its QoS target. The law has three parts, each used
//! unchanged by both controllers: the `reqos` crate runs it standalone,
//! once per window, and PC3D runs it as its steady-state nap trim and
//! as the whole policy of its `Degraded`/`Detached` rungs.
//!
//! * **Flux** ([`flux`], Section IV-F of the Protean Code paper): the
//!   host is frozen for [`FLUX_DURATION_SECS`] every
//!   [`FLUX_PERIOD_SECS`] and each co-runner's uncontended IPS is
//!   sampled; readings fold into the solo estimate with [`blend_solo`].
//! * **QoS rule** ([`qos`], [`smooth`]): windowed IPS over the solo
//!   estimate, with a mostly-idle co-runner read as meeting QoS, then
//!   capped and exponentially smoothed for decisions.
//! * **Nap step** ([`step`]): proportional raise on a violation, fast
//!   shed for an idle co-runner, slow release on headroom.
//!
//! The constants are the controllers' shared tuning; none is an option.

use simos::{Os, Pid};

use crate::monitor::{ExtMonitor, WindowStats};

/// Proportional gain for raising nap on a QoS violation.
pub const GAIN_UP: f64 = 1.5;
/// Proportional gain for releasing nap when QoS has headroom.
pub const GAIN_DOWN: f64 = 1.0;
/// Smoothing factor for the decision QoS (1.0 = unsmoothed).
pub const QOS_ALPHA: f64 = 0.35;
/// Exponential smoothing of the flux solo-IPS estimate.
pub const SOLO_EWMA: f64 = 0.35;
/// Measurement tolerance subtracted from the QoS target in decisions
/// (windowed IPS ratios carry a ~1% noise floor).
pub const QOS_EPSILON: f64 = 0.01;
/// Seconds between flux measurements (paper: 4 s).
pub const FLUX_PERIOD_SECS: f64 = 8.0;
/// Flux freeze duration (paper: 40 ms).
pub const FLUX_DURATION_SECS: f64 = 0.8;
/// A co-runner busy for less than this share of a window is idle.
pub const IDLE_BUSY: f64 = 0.35;
/// Upper bound on a window's QoS before smoothing and reporting.
pub const QOS_CAP: f64 = 1.25;
/// Largest nap intensity the law sets.
pub const NAP_MAX: f64 = 0.99;

/// The QoS target decisions compare against: `qos_target` less the
/// measurement tolerance.
pub fn effective_target(qos_target: f64) -> f64 {
    qos_target - QOS_EPSILON
}

/// A co-runner's QoS over one window: its IPS over the solo estimate.
/// A mostly-idle co-runner (a server between requests) is keeping up
/// with its offered load, so a low ratio from it reads as 1.0; so does
/// any window before the first solo estimate.
pub fn qos(window: &WindowStats, solo_ips: f64) -> f64 {
    if solo_ips <= 0.0 {
        return 1.0;
    }
    let raw = window.ips / solo_ips;
    if window.busy < IDLE_BUSY && raw < 1.0 {
        1.0
    } else {
        raw
    }
}

/// Folds one window's QoS into the smoothed decision QoS. The
/// [`QOS_CAP`] bounds the damage a garbled (inflated) counter read can
/// do; deflated reads are transient and the smoothing absorbs them.
pub fn smooth(smoothed: f64, qos: f64) -> f64 {
    QOS_ALPHA * qos.min(QOS_CAP) + (1.0 - QOS_ALPHA) * smoothed
}

/// One step of the nap law: the next nap intensity, in `[0, NAP_MAX]`,
/// given the current one, the smoothed QoS, the effective target and
/// the co-runner's busy share.
///
/// * Below target: raise by [`GAIN_UP`] times the error.
/// * At target with an idle co-runner: nothing to protect, shed fast.
/// * Headroom: release by [`GAIN_DOWN`] times the slack.
pub fn step(nap: f64, qos_smooth: f64, target: f64, busy: f64) -> f64 {
    let next = if qos_smooth < target {
        nap + GAIN_UP * (target - qos_smooth)
    } else if busy < IDLE_BUSY {
        nap * 0.5 - 0.01
    } else {
        nap - GAIN_DOWN * (qos_smooth - target)
    };
    next.clamp(0.0, NAP_MAX)
}

/// Folds a flux reading into a solo-IPS estimate (an empty estimate
/// takes the reading as is; a zero reading is ignored).
pub fn blend_solo(solo_ips: f64, reading: f64) -> f64 {
    if reading > 0.0 {
        if solo_ips == 0.0 {
            reading
        } else {
            SOLO_EWMA * reading + (1.0 - SOLO_EWMA) * solo_ips
        }
    } else {
        solo_ips
    }
}

/// The flux reading: the full-tail `primary`, or the median of the
/// three sub-probes when `primary` falls outside `[0.5, 2]×` of it.
fn cross_check(primary: f64, mut sub: [f64; 3]) -> f64 {
    sub.sort_by(|a, b| a.total_cmp(b));
    let med = sub[1];
    if med > 0.0 && !(med * 0.5..=med * 2.0).contains(&primary) {
        med
    } else {
        primary
    }
}

/// Flux: freezes `host` for [`FLUX_DURATION_SECS`] and returns each
/// co-runner's solo IPS, in `corunners` order. The first 60% of the
/// freeze lets the co-runners' cache state recover (the simulated time
/// base compresses wall time ~2600x but cache capacity only ~50x, so
/// refill takes a proportionally longer slice of simulated time than on
/// the paper's testbed); only the tail is measured.
///
/// HPM counter reads can be garbled (see `simos::ObsFaults`), and since
/// garbling perturbs *cumulative* counts, one bad read can throw a
/// windowed rate off by orders of magnitude and poison every later QoS
/// ratio. So three sub-probes over the same tail back the full-tail
/// reading with a median cross-check: it stands unless it falls outside
/// `[0.5, 2]×` the sub-probes' median, which then replaces it. At most
/// one sub-window shares a garbled read with the full one.
///
/// Callers restart their own monitoring windows afterwards: the freeze
/// perturbed them.
pub fn flux(os: &mut Os, host: Pid, corunners: &[Pid]) -> Vec<f64> {
    os.set_frozen(host, true);
    os.advance_seconds(FLUX_DURATION_SECS * 0.6);
    let sub_secs = FLUX_DURATION_SECS * 0.4 / 3.0;
    let mut full: Vec<ExtMonitor> = corunners.iter().map(|&p| ExtMonitor::new(os, p)).collect();
    let mut sub = vec![[0.0f64; 3]; corunners.len()];
    for k in 0..3 {
        let mut probes: Vec<ExtMonitor> =
            corunners.iter().map(|&p| ExtMonitor::new(os, p)).collect();
        os.advance_seconds(sub_secs);
        for (slot, probe) in sub.iter_mut().zip(probes.iter_mut()) {
            slot[k] = probe.end_window(os).ips;
        }
    }
    let full_ips: Vec<f64> = full.iter_mut().map(|m| m.end_window(os).ips).collect();
    os.set_frozen(host, false);
    full_ips
        .into_iter()
        .zip(sub)
        .map(|(primary, sub)| cross_check(primary, sub))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(ips: f64, busy: f64) -> WindowStats {
        WindowStats {
            ips,
            busy,
            ..WindowStats::default()
        }
    }

    #[test]
    fn violation_raises_nap_by_gain_up() {
        let next = step(0.2, 0.80, 0.94, 1.0);
        assert!((next - (0.2 + GAIN_UP * 0.14)).abs() < 1e-12, "{next}");
    }

    #[test]
    fn idle_corunner_at_target_sheds_nap_fast() {
        assert_eq!(step(0.4, 1.0, 0.94, 0.1), 0.4 * 0.5 - 0.01);
    }

    #[test]
    fn headroom_releases_nap_by_gain_down() {
        let next = step(0.4, 0.99, 0.94, 1.0);
        assert!((next - (0.4 - GAIN_DOWN * 0.05)).abs() < 1e-12, "{next}");
    }

    #[test]
    fn violation_raises_nap_even_for_an_idle_corunner() {
        assert!(step(0.2, 0.5, 0.94, 0.1) > 0.2);
    }

    #[test]
    fn nap_is_clamped_to_its_range() {
        assert_eq!(step(0.9, 0.0, 0.94, 1.0), NAP_MAX);
        assert_eq!(step(0.0, 1.2, 0.94, 1.0), 0.0);
        assert_eq!(step(0.01, 1.0, 0.94, 0.0), 0.0);
    }

    #[test]
    fn smoothing_caps_the_window_qos_first() {
        let capped = smooth(1.0, 50.0);
        assert_eq!(capped, QOS_ALPHA * QOS_CAP + (1.0 - QOS_ALPHA));
        assert_eq!(smooth(1.0, 0.5), QOS_ALPHA * 0.5 + (1.0 - QOS_ALPHA));
    }

    #[test]
    fn idle_corunner_below_solo_rate_reads_as_meeting_qos() {
        assert_eq!(qos(&window(100.0, 0.34), 1000.0), 1.0);
        assert_eq!(qos(&window(100.0, IDLE_BUSY), 1000.0), 0.1);
        // An idle co-runner above its solo rate keeps the raw ratio.
        assert_eq!(qos(&window(1500.0, 0.1), 1000.0), 1.5);
        // No solo estimate yet: nothing to compare against.
        assert_eq!(qos(&window(100.0, 1.0), 0.0), 1.0);
    }

    #[test]
    fn cross_check_falls_back_to_the_median_outside_its_band() {
        let sub = [90.0, 110.0, 100.0];
        assert_eq!(cross_check(150.0, sub), 150.0);
        assert_eq!(cross_check(50.0, sub), 50.0);
        assert_eq!(cross_check(200.0, sub), 200.0);
        assert_eq!(cross_check(201.0, sub), 100.0);
        assert_eq!(cross_check(49.0, sub), 100.0);
        assert_eq!(cross_check(1e12, sub), 100.0);
        // With no usable median the primary stands.
        assert_eq!(cross_check(7.0, [0.0, 0.0, 5.0]), 7.0);
    }

    #[test]
    fn solo_estimate_blends_nonzero_readings() {
        assert_eq!(blend_solo(0.0, 200.0), 200.0);
        assert_eq!(blend_solo(100.0, 0.0), 100.0);
        assert_eq!(
            blend_solo(100.0, 200.0),
            SOLO_EWMA * 200.0 + (1.0 - SOLO_EWMA) * 100.0
        );
    }

    #[test]
    fn effective_target_subtracts_the_tolerance() {
        assert_eq!(effective_target(0.95), 0.95 - QOS_EPSILON);
    }
}
