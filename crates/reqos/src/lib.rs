#![warn(missing_docs)]

//! # `reqos` — the ReQoS baseline (nap-only contention mitigation)
//!
//! ReQoS (Tang et al., ASPLOS 2013) is the paper's state-of-the-art
//! baseline: it protects a high-priority co-runner's QoS by *napping* the
//! low-priority host — duty-cycle throttling — without any code
//! transformation. The paper's criticism (Section I): "due to the
//! inability to transform application code online, these approaches are
//! limited to using the heavy handed approach of putting the batch
//! application to sleep".
//!
//! PC3D reuses this mechanism as its fallback, and both run the one law
//! in [`protean::nap`]; this crate is that law run standalone, once per
//! decision window:
//!
//! * The co-runner's solo performance is estimated with the **flux**
//!   technique (Section IV-F): every [`nap::FLUX_PERIOD_SECS`] the host
//!   is frozen for [`nap::FLUX_DURATION_SECS`] and the co-runner's
//!   uncontended IPS is sampled ([`nap::flux`]).
//! * The window's QoS ([`nap::qos`]) is smoothed ([`nap::smooth`]) and
//!   a proportional step ([`nap::step`]) adjusts nap intensity to hold
//!   the co-runner at its QoS target while napping as little as
//!   possible.
//!
//! # Example
//!
//! ```no_run
//! use reqos::{ReqosConfig, ReqosController};
//! use pcc::{Compiler, Options};
//! use simos::{Os, OsConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = OsConfig::scaled();
//! let llc = cfg.machine.llc_bytes() / cfg.machine.line_bytes;
//! let victim = workloads::catalog::build("mcf", llc).expect("catalog");
//! let host = workloads::catalog::build("libquantum", llc).expect("catalog");
//! let victim_img = Compiler::new(Options::plain()).compile(&victim)?.image;
//! let host_img = Compiler::new(Options::plain()).compile(&host)?.image;
//! let mut os = Os::new(cfg);
//! let v = os.spawn(&victim_img, 0);
//! let h = os.spawn(&host_img, 1);
//! let mut ctl = ReqosController::new(&mut os, h, v, ReqosConfig::default());
//! ctl.run_for(&mut os, 60.0);
//! println!("nap settled at {:.2}, victim QoS {:.3}", ctl.nap(), ctl.mean_qos(20));
//! # Ok(())
//! # }
//! ```

use protean::{nap, ExtMonitor};
use simos::{Os, Pid};

/// Controller configuration. The law's gains, smoothing, QoS tolerance
/// and flux timing are the shared constants of [`protean::nap`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ReqosConfig {
    /// Co-runner QoS target in (0, 1], e.g. 0.95.
    pub qos_target: f64,
    /// Decision-window length in simulated seconds.
    pub window_secs: f64,
}

impl Default for ReqosConfig {
    fn default() -> Self {
        ReqosConfig {
            qos_target: 0.95,
            window_secs: 0.5,
        }
    }
}

/// One decision-window record (for timeline plots like Figure 16).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct WindowRecord {
    /// Window end time in simulated seconds.
    pub t: f64,
    /// Nap intensity applied during the window.
    pub nap: f64,
    /// Co-runner QoS measured in the window (IPS / estimated solo IPS).
    pub qos: f64,
    /// Host branches per second during the window.
    pub host_bps: f64,
}

/// The ReQoS controller: naps `host` to protect `corunner`.
pub struct ReqosController {
    config: ReqosConfig,
    host: Pid,
    corunner: Pid,
    ext: ExtMonitor,
    host_mon: ExtMonitor,
    solo_ips: f64,
    nap: f64,
    qos_smooth: f64,
    next_flux: f64,
    history: Vec<WindowRecord>,
}

impl ReqosController {
    /// Creates a controller for the `(host, corunner)` pair. Performs an
    /// immediate flux measurement to seed the solo estimate.
    pub fn new(os: &mut Os, host: Pid, corunner: Pid, config: ReqosConfig) -> Self {
        let mut ctl = ReqosController {
            config,
            host,
            corunner,
            ext: ExtMonitor::new(os, corunner),
            host_mon: ExtMonitor::new(os, host),
            solo_ips: 0.0,
            nap: 0.0,
            qos_smooth: 1.0,
            next_flux: 0.0,
            history: Vec::new(),
        };
        ctl.flux(os);
        ctl.next_flux = os.now_seconds() + nap::FLUX_PERIOD_SECS;
        ctl
    }

    /// The flux measurement ([`nap::flux`]): freeze the host briefly and
    /// sample the co-runner running alone.
    fn flux(&mut self, os: &mut Os) {
        let reading = nap::flux(os, self.host, &[self.corunner])[0];
        self.solo_ips = nap::blend_solo(self.solo_ips, reading);
        // The flux interval perturbed both monitors; restart their windows.
        self.ext = ExtMonitor::new(os, self.corunner);
        self.host_mon = ExtMonitor::new(os, self.host);
    }

    /// Current solo-IPS estimate for the co-runner.
    pub fn solo_ips(&self) -> f64 {
        self.solo_ips
    }

    /// Current nap intensity.
    pub fn nap(&self) -> f64 {
        self.nap
    }

    /// Recorded windows.
    pub fn history(&self) -> &[WindowRecord] {
        &self.history
    }

    /// Runs one decision window: advance the simulation, measure QoS,
    /// adjust nap. Returns the record.
    pub fn run_window(&mut self, os: &mut Os) -> WindowRecord {
        if os.now_seconds() >= self.next_flux {
            self.flux(os);
            self.next_flux = os.now_seconds() + nap::FLUX_PERIOD_SECS;
        }
        os.advance_seconds(self.config.window_secs);
        let w = self.ext.end_window(os);
        let hw = self.host_mon.end_window(os);
        let qos = nap::qos(&w, self.solo_ips);
        // Proportional control on the *smoothed* QoS error (raw windows
        // jitter with the co-runner's own cache phases).
        self.qos_smooth = nap::smooth(self.qos_smooth, qos);
        let target = nap::effective_target(self.config.qos_target);
        self.nap = nap::step(self.nap, self.qos_smooth, target, w.busy);
        os.set_nap(self.host, self.nap);
        let rec = WindowRecord {
            t: os.now_seconds(),
            nap: self.nap,
            qos: qos.min(nap::QOS_CAP),
            host_bps: hw.bps,
        };
        self.history.push(rec);
        rec
    }

    /// Runs decision windows until `secs` of simulated time have passed.
    pub fn run_for(&mut self, os: &mut Os, secs: f64) {
        let end = os.now_seconds() + secs;
        while os.now_seconds() < end {
            self.run_window(os);
        }
    }

    /// Mean co-runner QoS over the recorded history (skipping the warmup
    /// prefix of `skip` windows).
    pub fn mean_qos(&self, skip: usize) -> f64 {
        let tail = &self.history[skip.min(self.history.len())..];
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().map(|r| r.qos).sum::<f64>() / tail.len() as f64
    }

    /// Mean host BPS over the recorded history (skipping warmup).
    pub fn mean_host_bps(&self, skip: usize) -> f64 {
        let tail = &self.history[skip.min(self.history.len())..];
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().map(|r| r.host_bps).sum::<f64>() / tail.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc::{Compiler, Options};
    use simos::OsConfig;
    use workloads::catalog;

    fn pair(host_name: &str, ext_name: &str) -> (Os, Pid, Pid) {
        let cfg = OsConfig::small();
        let llc = cfg.machine.llc_bytes() / cfg.machine.line_bytes;
        let host_m = catalog::build(host_name, llc).unwrap();
        let ext_m = catalog::build(ext_name, llc).unwrap();
        let host_img = Compiler::new(Options::protean())
            .compile(&host_m)
            .unwrap()
            .image;
        let ext_img = Compiler::new(Options::plain())
            .compile(&ext_m)
            .unwrap()
            .image;
        let mut os = Os::new(cfg);
        let ext = os.spawn(&ext_img, 0);
        let host = os.spawn(&host_img, 1);
        (os, host, ext)
    }

    #[test]
    fn naps_contentious_host_to_protect_corunner() {
        let (mut os, host, ext) = pair("libquantum", "er-naive");
        let mut ctl = ReqosController::new(
            &mut os,
            host,
            ext,
            ReqosConfig {
                qos_target: 0.95,
                ..Default::default()
            },
        );
        ctl.run_for(&mut os, 30.0);
        let qos = ctl.mean_qos(8);
        assert!(
            qos > 0.85,
            "ReQoS should hold QoS near target, got {qos:.3} (nap {:.2})",
            ctl.nap()
        );
        assert!(
            ctl.nap() > 0.05,
            "a contentious host should be napped, nap={}",
            ctl.nap()
        );
    }

    #[test]
    fn benign_host_not_napped() {
        // namd is compute-bound with a tiny footprint; against er-naive
        // QoS holds without napping.
        let (mut os, host, ext) = pair("namd", "er-naive");
        let mut ctl = ReqosController::new(
            &mut os,
            host,
            ext,
            ReqosConfig {
                qos_target: 0.90,
                ..Default::default()
            },
        );
        ctl.run_for(&mut os, 12.0);
        assert!(
            ctl.nap() < 0.6,
            "benign pairing should not be heavily napped: {}",
            ctl.nap()
        );
    }

    #[test]
    fn flux_seeds_solo_estimate() {
        let (mut os, host, ext) = pair("libquantum", "mcf");
        let ctl = ReqosController::new(&mut os, host, ext, ReqosConfig::default());
        assert!(ctl.solo_ips() > 0.0);
    }

    #[test]
    fn history_records_windows() {
        let (mut os, host, ext) = pair("bzip2", "milc");
        let mut ctl = ReqosController::new(&mut os, host, ext, ReqosConfig::default());
        ctl.run_for(&mut os, 6.0);
        assert!(ctl.history().len() >= 8);
        assert!(ctl.history().iter().all(|r| r.nap >= 0.0 && r.nap <= 0.99));
        assert!(ctl.mean_host_bps(0) > 0.0);
    }
}
