//! Live on-stack replacement: guarded park/transfer/resume with a deopt
//! fallback.
//!
//! Call-edge (EVT) dispatch only takes effect the *next* time a function
//! is entered — structurally blind on a thread stuck inside one enormous
//! loop. The [`OsrController`] closes that gap with the runtime half of
//! ROADMAP item 3: when a gate-proved variant exists and PC samples show
//! the host pinned in a certified loop, it
//!
//! 1. **arms** a park request at the baseline loop-header PC (resolved
//!    through `pcc` link metadata + [`pcc::block_offsets`]), bounded by
//!    an arming window — if the thread never reaches the header in time
//!    the request is abandoned cleanly and call-edge switching remains
//!    the fallback;
//! 2. **verifies before touching anything**: the armed
//!    [`TransferRecipe`]'s checksum is re-checked and the parked PC is
//!    re-validated against freshly recomputed link metadata; any mismatch
//!    is a typed refusal ([`OsrError`]) and the frame is never partially
//!    written;
//! 3. **applies** the recipe to the parked frame (zero-fill, moves,
//!    consts — the exact transfer order `pir::interp::run_with_transfer`
//!    defines), read-back-verifies the result against the recipe, and
//!    resumes at the matched variant header;
//! 4. **watches a probation window**: a health regression while on
//!    probation deopts — the thread is parked at the *variant* header and
//!    the inverse recipe rebuilds the baseline frame ([`Runtime::restore_all`]
//!    if no inverse exists), so the original code keeps running.
//!
//! Repeated runtime transfer failures quarantine the offending
//! `(function, header)` pair through
//! [`HealthMonitor::note_osr_fault`]; quarantined headers are never
//! OSR-targeted again while function-level dispatch keeps working. Any
//! health rung below `Healthy` attempts no OSR at all.
//!
//! Chaos coverage injects [`FaultKind::OsrArmStall`],
//! [`FaultKind::RecipeCorrupt`], and [`FaultKind::TransferMisapply`] to
//! drive the abandon, refusal, and deopt paths respectively (see
//! `tests/chaos.rs`).
//!
//! The interpreter's pre-decoded block tier is transparent to OSR: a park
//! lands mid-block by cutting the decoded replay at the armed PC (the
//! block is sliced at the cut point, never executed past it), and resume
//! at the variant header re-enters through the ordinary block lookup, so
//! a park/transfer/resume round-trip is bit-identical whether the decoded
//! tier or the from-scratch fallback decoder is active
//! (`tests/osr_live.rs` pins this).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};

use pir::equiv::TransferRecipe;
use pir::{BlockId, FuncId};
use simos::Os;
use visa::{PReg, FRAME_REGS};

use crate::faults::FaultKind;
use crate::health::HealthMonitor;
use crate::runtime::{DispatchError, Runtime};
use crate::trace::{EventKind, Subsystem};

/// Knobs of the live-OSR controller.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct OsrConfig {
    /// Maximum cycles an armed park request may wait before it is
    /// abandoned and call-edge switching takes over.
    pub arm_window_cycles: u64,
    /// Post-transfer probation length in cycles; a health regression
    /// inside the window deopts back to baseline.
    pub probation_cycles: u64,
    /// Consecutive PC samples inside the goal function's baseline body
    /// required before the controller considers the thread "stuck" and
    /// arms.
    pub stuck_samples: u32,
    /// Header entries to let pass before parking (1 = park at the very
    /// next entry).
    pub park_hit: u64,
}

impl Default for OsrConfig {
    fn default() -> Self {
        OsrConfig {
            arm_window_cycles: 200_000,
            probation_cycles: 200_000,
            stuck_samples: 3,
            park_hit: 1,
        }
    }
}

/// Typed failure of a live-OSR step. Every refusal path surfaces one of
/// these — the controller never leaves a frame partially transferred.
#[derive(Clone, Debug, PartialEq)]
pub enum OsrError {
    /// The health ladder is below `Healthy`; no OSR is attempted.
    HealthVeto {
        /// The function whose transfer was vetoed.
        func: FuncId,
    },
    /// The variant has no gate-proved transfer recipe for any certified
    /// header of the function.
    NoProvedRecipe {
        /// The function considered.
        func: FuncId,
    },
    /// Every header with a proved recipe is quarantined after repeated
    /// runtime transfer failures; OSR will never be re-attempted here.
    AllHeadersQuarantined {
        /// The function considered.
        func: FuncId,
    },
    /// An arm/deopt request raced an operation already in flight.
    Busy {
        /// The controller phase that blocked the request.
        phase: &'static str,
    },
    /// The arming window elapsed before the thread reached the header.
    WindowExpired {
        /// The function whose request was abandoned.
        func: FuncId,
        /// Cycles waited before giving up.
        waited: u64,
    },
    /// The armed recipe failed its pre-apply checksum — cache corruption
    /// between arming and parking. Nothing was applied.
    RecipeCorrupt {
        /// The function whose transfer was refused.
        func: FuncId,
        /// Checksum recorded at arm time.
        expected: u64,
        /// Checksum of the recipe observed at apply time.
        actual: u64,
    },
    /// The parked PC does not match the re-resolved header address.
    /// Nothing was applied.
    HeaderMismatch {
        /// The function whose transfer was refused.
        func: FuncId,
        /// Header PC recomputed from link metadata at apply time.
        expected_pc: u32,
        /// PC the context actually parked at.
        parked_pc: u32,
    },
    /// Post-apply read-back found a register that does not match the
    /// recipe; the snapshot was restored and the thread resumed in
    /// baseline code.
    TransferMisapply {
        /// The function whose transfer was rolled back.
        func: FuncId,
        /// First frame register that differed.
        reg: u8,
    },
    /// A probation deopt found a certified-live baseline register that no
    /// move sources, so the inverse recipe does not exist; everything was
    /// restored via [`Runtime::restore_all`] instead.
    InverseRefused {
        /// The function that stayed on its (proved) variant.
        func: FuncId,
        /// The live baseline register with no inverse image.
        reg: u32,
    },
    /// The EVT-level dispatch guard chain refused the variant before any
    /// frame work started.
    Dispatch(DispatchError),
}

impl fmt::Display for OsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsrError::HealthVeto { func } => {
                write!(
                    f,
                    "health ladder below healthy; no OSR attempted for {func}"
                )
            }
            OsrError::NoProvedRecipe { func } => {
                write!(f, "no gate-proved OSR transfer recipe for {func}")
            }
            OsrError::AllHeadersQuarantined { func } => {
                write!(f, "every provable OSR header of {func} is quarantined")
            }
            OsrError::Busy { phase } => {
                write!(f, "OSR controller busy (phase {phase})")
            }
            OsrError::WindowExpired { func, waited } => {
                write!(
                    f,
                    "OSR arming window expired for {func} after {waited} cycle(s)"
                )
            }
            OsrError::RecipeCorrupt {
                func,
                expected,
                actual,
            } => write!(
                f,
                "OSR recipe checksum mismatch for {func}: expected {expected:#x}, got {actual:#x}"
            ),
            OsrError::HeaderMismatch {
                func,
                expected_pc,
                parked_pc,
            } => write!(
                f,
                "parked PC {parked_pc} does not match re-resolved header {expected_pc} for {func}"
            ),
            OsrError::TransferMisapply { func, reg } => {
                write!(
                    f,
                    "OSR transfer misapplied for {func} (frame register r{reg} diverged); \
                     snapshot restored"
                )
            }
            OsrError::InverseRefused { func, reg } => {
                write!(
                    f,
                    "no inverse OSR recipe for {func}: live baseline register r{reg} has no \
                     source move; restored everything instead"
                )
            }
            OsrError::Dispatch(e) => write!(f, "OSR dispatch guard refused: {e}"),
        }
    }
}

impl Error for OsrError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OsrError::Dispatch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DispatchError> for OsrError {
    fn from(e: DispatchError) -> Self {
        OsrError::Dispatch(e)
    }
}

/// An armed park request waiting for the thread to reach the header.
#[derive(Clone, Debug)]
struct Armed {
    func: FuncId,
    header: BlockId,
    variant: usize,
    recipe: TransferRecipe,
    /// Recipe checksum captured at arm time, re-verified before apply.
    checksum: u64,
    armed_at: u64,
    baseline_pc: u32,
    variant_pc: u32,
    /// An injected [`FaultKind::OsrArmStall`] dropped the machine-level
    /// arm; the window will expire and the request abandons cleanly.
    stalled: bool,
}

/// A transfer on post-resume probation.
#[derive(Clone, Debug)]
struct Probation {
    func: FuncId,
    header: BlockId,
    variant: usize,
    recipe: TransferRecipe,
    resumed_at: u64,
    baseline_pc: u32,
    variant_pc: u32,
    /// A deopt was requested; the context is being parked at the variant
    /// header.
    deopt_armed: bool,
}

/// Controller phase.
#[derive(Clone, Debug)]
enum Phase {
    Idle,
    Armed(Armed),
    Probation(Probation),
}

/// The live-OSR state machine: one in-flight transfer at a time, layered
/// over [`Runtime`] + [`HealthMonitor`] + the kernel's park surface.
#[derive(Clone, Debug)]
pub struct OsrController {
    config: OsrConfig,
    phase: Phase,
    /// The (func, variant) pair the controller is trying to promote
    /// mid-loop, set by the owning policy layer.
    goal: Option<(FuncId, usize)>,
    /// Consecutive samples observed inside the goal's baseline body.
    stuck: u32,
    /// Proved transfer recipes per variant index (the prover is
    /// expensive; verdicts are immutable per variant).
    recipe_cache: HashMap<usize, Vec<TransferRecipe>>,
}

/// Deterministic content checksum of a recipe (seed-stable: fixed-key
/// SipHash, no `RandomState`).
fn recipe_checksum(r: &TransferRecipe) -> u64 {
    let mut h = DefaultHasher::new();
    r.hash(&mut h);
    h.finish()
}

impl OsrController {
    /// A controller in `Idle` with `config` knobs.
    pub fn new(config: OsrConfig) -> Self {
        OsrController {
            config,
            phase: Phase::Idle,
            goal: None,
            stuck: 0,
            recipe_cache: HashMap::new(),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> OsrConfig {
        self.config
    }

    /// Stable phase name: `idle`, `armed`, or `probation`.
    pub fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::Idle => "idle",
            Phase::Armed(_) => "armed",
            Phase::Probation(_) => "probation",
        }
    }

    /// The (function, variant) promotion goal, if one is set.
    pub fn goal(&self) -> Option<(FuncId, usize)> {
        self.goal
    }

    /// Sets the promotion goal: the next time PC samples show the host
    /// stuck in `func`'s baseline body, the controller arms an OSR
    /// transfer into `variant`. Replaces any previous goal.
    pub fn set_goal(&mut self, func: FuncId, variant: usize) {
        self.goal = Some((func, variant));
        self.stuck = 0;
    }

    /// Feeds one PC sample. Consecutive samples inside the goal
    /// function's *baseline* body advance the stuck counter; at
    /// [`stuck_samples`](OsrConfig::stuck_samples) the controller arms.
    /// Returns the typed refusal if an arm was attempted and failed.
    pub fn note_pc_sample(
        &mut self,
        os: &mut Os,
        rt: &mut Runtime,
        health: &mut HealthMonitor,
        pc: u32,
    ) -> Option<OsrError> {
        if !matches!(self.phase, Phase::Idle) {
            return None;
        }
        let (func, variant) = self.goal?;
        let in_baseline_body =
            pc < os.proc(rt.pid()).image_text_len() && rt.resolve_pc(os, pc) == Some(func);
        if !in_baseline_body {
            self.stuck = 0;
            return None;
        }
        self.stuck += 1;
        if self.stuck < self.config.stuck_samples {
            return None;
        }
        self.stuck = 0;
        match self.arm(os, rt, health, func, variant) {
            Ok(()) => None,
            Err(e) => {
                if matches!(e, OsrError::AllHeadersQuarantined { .. }) {
                    // Nothing left to try mid-loop for this function;
                    // stop sampling for it (call-edge dispatch still
                    // works).
                    self.goal = None;
                }
                Some(e)
            }
        }
    }

    /// Arms a park request at the first non-quarantined certified header
    /// of `func` that has a gate-proved transfer into `variant`.
    ///
    /// # Errors
    ///
    /// [`OsrError::Busy`] / [`OsrError::HealthVeto`] /
    /// [`OsrError::NoProvedRecipe`] /
    /// [`OsrError::AllHeadersQuarantined`] when no arm is possible; no
    /// machine state is touched on any error.
    pub fn arm(
        &mut self,
        os: &mut Os,
        rt: &mut Runtime,
        health: &mut HealthMonitor,
        func: FuncId,
        variant: usize,
    ) -> Result<(), OsrError> {
        if !matches!(self.phase, Phase::Idle) {
            return Err(OsrError::Busy {
                phase: self.phase_name(),
            });
        }
        if !health.allows_osr() {
            return Err(OsrError::HealthVeto { func });
        }
        let recipes = self.proved_recipes(rt, func, variant);
        if recipes.is_empty() {
            return Err(OsrError::NoProvedRecipe { func });
        }
        let Some(recipe) = recipes
            .into_iter()
            .find(|r| !health.osr_quarantined(func, r.baseline_header))
        else {
            return Err(OsrError::AllHeadersQuarantined { func });
        };
        let Some((baseline_pc, variant_pc)) = resolve_header_pcs(rt, &recipe, variant) else {
            return Err(OsrError::NoProvedRecipe { func });
        };
        let checksum = recipe_checksum(&recipe);
        let now = os.now();
        // An injected arm stall drops the machine-level request; the
        // controller still believes it armed, so the bounded window
        // expires and the request abandons cleanly — exactly the failure
        // mode of a kernel that never delivered the park.
        let stalled = rt
            .fault_plan_mut()
            .is_some_and(|p| p.draw(FaultKind::OsrArmStall));
        if !stalled {
            os.osr_arm(rt.pid(), baseline_pc, self.config.park_hit);
        }
        rt.metrics_mut().inc("osr.armed");
        self.phase = Phase::Armed(Armed {
            func,
            header: recipe.baseline_header,
            variant,
            recipe,
            checksum,
            armed_at: now,
            baseline_pc,
            variant_pc,
            stalled,
        });
        // The goal is consumed; a failed transfer must not instantly
        // re-arm from the same stale goal.
        self.goal = None;
        Ok(())
    }

    /// Requests a deoptimization of the transfer currently on probation
    /// (the owning policy layer's QoS-regression signal). The thread is
    /// parked at the *variant* header and unwound on a later
    /// [`tick`](OsrController::tick).
    ///
    /// # Errors
    ///
    /// [`OsrError::Busy`] when no transfer is on probation.
    pub fn request_deopt(&mut self, os: &mut Os, rt: &Runtime) -> Result<(), OsrError> {
        match &mut self.phase {
            Phase::Probation(p) if !p.deopt_armed => {
                os.osr_arm(rt.pid(), p.variant_pc, 1);
                p.deopt_armed = true;
                Ok(())
            }
            Phase::Probation(_) => Ok(()),
            _ => Err(OsrError::Busy {
                phase: self.phase_name(),
            }),
        }
    }

    /// Advances the state machine: abandons expired arming windows,
    /// verifies + applies + resumes parked transfers, expires probation,
    /// and unwinds requested deopts. Call once per controller tick.
    /// Returns the typed failure it handled this tick, if any (the
    /// failure is already fully resolved — abandon, restore, or
    /// quarantine — when this returns).
    pub fn tick(
        &mut self,
        os: &mut Os,
        rt: &mut Runtime,
        health: &mut HealthMonitor,
    ) -> Option<OsrError> {
        match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::Idle => None,
            Phase::Armed(a) => self.tick_armed(os, rt, health, a),
            Phase::Probation(p) => self.tick_probation(os, rt, health, p),
        }
    }

    /// One tick of the `Armed` phase. `self.phase` is `Idle` on entry and
    /// is re-set by every path that stays in flight.
    fn tick_armed(
        &mut self,
        os: &mut Os,
        rt: &mut Runtime,
        health: &mut HealthMonitor,
        a: Armed,
    ) -> Option<OsrError> {
        let now = os.now();
        if !health.allows_osr() {
            self.abandon(os, rt, &a, "health");
            return Some(OsrError::HealthVeto { func: a.func });
        }
        if !os.is_osr_parked(rt.pid()) {
            let waited = now.saturating_sub(a.armed_at);
            if waited > self.config.arm_window_cycles {
                let reason = if a.stalled {
                    "arm-stall"
                } else {
                    "window-expired"
                };
                self.abandon(os, rt, &a, reason);
                return Some(OsrError::WindowExpired {
                    func: a.func,
                    waited,
                });
            }
            self.phase = Phase::Armed(a);
            return None;
        }
        self.apply_parked(os, rt, health, &a).err()
    }

    /// The parked context is verified, transferred, and resumed in the
    /// variant. Any refusal resolves without a partial apply.
    fn apply_parked(
        &mut self,
        os: &mut Os,
        rt: &mut Runtime,
        health: &mut HealthMonitor,
        a: &Armed,
    ) -> Result<(), OsrError> {
        let pid = rt.pid();
        let now = os.now();
        // Pre-apply verification 1: recipe integrity. An injected
        // RecipeCorrupt garbles the checksum recorded at arm time,
        // modeling the cached recipe rotting between arm and park.
        let expected = if rt
            .fault_plan_mut()
            .is_some_and(|p| p.draw(FaultKind::RecipeCorrupt))
        {
            let garble = rt.fault_plan_mut().map_or(1, |p| p.garble_u64()) | 1;
            a.checksum ^ garble
        } else {
            a.checksum
        };
        let actual = recipe_checksum(&a.recipe);
        if expected != actual {
            self.abandon(os, rt, a, "recipe-corrupt");
            health.note_osr_fault(os, rt, a.func, a.header);
            self.note_quarantine(rt, health, a.func, a.header);
            return Err(OsrError::RecipeCorrupt {
                func: a.func,
                expected,
                actual,
            });
        }
        // Pre-apply verification 2: the parked PC must equal the header
        // address re-resolved from link metadata right now.
        let reresolved = resolve_header_pcs(rt, &a.recipe, a.variant).map(|(b, _)| b);
        let parked_pc = os.osr_armed(pid).unwrap_or(u32::MAX);
        if reresolved != Some(parked_pc) || parked_pc != a.baseline_pc {
            self.abandon(os, rt, a, "header-mismatch");
            health.note_osr_fault(os, rt, a.func, a.header);
            self.note_quarantine(rt, health, a.func, a.header);
            return Err(OsrError::HeaderMismatch {
                func: a.func,
                expected_pc: reresolved.unwrap_or(a.baseline_pc),
                parked_pc,
            });
        }
        // Pre-apply verification 3: recipe registers must fit the frame
        // window (a malformed recipe is refused, never partially applied).
        let fits = |r: u32| (r as usize) < FRAME_REGS;
        if !a.recipe.moves.iter().all(|&(d, s)| fits(d.0) && fits(s.0))
            || !a.recipe.consts.iter().all(|&(d, _)| fits(d.0))
        {
            self.abandon(os, rt, a, "recipe-corrupt");
            health.note_osr_fault(os, rt, a.func, a.header);
            self.note_quarantine(rt, health, a.func, a.header);
            return Err(OsrError::RecipeCorrupt {
                func: a.func,
                expected: a.checksum,
                actual: a.checksum,
            });
        }
        // EVT-level guard chain (quarantine → safety verdict → code
        // checksum → EVT write) runs before any frame work, so future
        // entries of the function also take the variant.
        if let Err(e) = rt.dispatch(os, a.variant) {
            self.abandon(os, rt, a, "dispatch");
            return Err(OsrError::Dispatch(e));
        }
        let snapshot: Vec<i64> = os.osr_frame(pid).to_vec();
        let moves: Vec<(PReg, PReg)> = a
            .recipe
            .moves
            .iter()
            .map(|&(d, s)| (PReg(d.0 as u8), PReg(s.0 as u8)))
            .collect();
        let mut consts: Vec<(PReg, i64)> = a
            .recipe
            .consts
            .iter()
            .map(|&(d, v)| (PReg(d.0 as u8), v))
            .collect();
        // An injected TransferMisapply perturbs the applied frame — the
        // model of a buggy transfer engine. The read-back below catches
        // it against the authentic recipe.
        if rt
            .fault_plan_mut()
            .is_some_and(|p| p.draw(FaultKind::TransferMisapply))
        {
            let garble = rt.fault_plan_mut().map_or(0, |p| p.garble_u64());
            let victim = moves.first().map_or(PReg(0), |&(d, _)| d);
            consts.push((victim, garble as i64 ^ i64::MIN | 1));
        }
        let applied = os.osr_apply(pid, &moves, &consts);
        debug_assert!(applied, "context was parked");
        // Read-back verification against the authentic recipe.
        let mut want = vec![0i64; FRAME_REGS];
        for &(d, s) in &a.recipe.moves {
            want[d.0 as usize] = snapshot[s.0 as usize];
        }
        for &(d, v) in &a.recipe.consts {
            want[d.0 as usize] = v;
        }
        let got = os.osr_frame(pid);
        if let Some(reg) = (0..FRAME_REGS).find(|&i| got[i] != want[i]) {
            // Roll back: restore the snapshot, resume in baseline code at
            // the very PC we parked on, and flip the EVT back.
            os.osr_restore(pid, &snapshot);
            os.osr_resume(pid, a.baseline_pc);
            let _ = rt.restore(os, a.func);
            rt.metrics_mut().inc("osr.deopt");
            rt.tracer_mut().emit(
                now,
                Subsystem::Runtime,
                EventKind::OsrDeopt {
                    func: u64::from(a.func.0),
                    variant: a.variant as u64,
                    header: u64::from(a.header.0),
                    reason: "transfer-misapply",
                },
            );
            health.note_osr_fault(os, rt, a.func, a.header);
            self.note_quarantine(rt, health, a.func, a.header);
            return Err(OsrError::TransferMisapply {
                func: a.func,
                reg: reg as u8,
            });
        }
        let park_cycles = os
            .osr_parked_since(pid)
            .map_or(0, |since| now.saturating_sub(since));
        let resumed = os.osr_resume(pid, a.variant_pc);
        debug_assert!(resumed, "context was parked");
        rt.metrics_mut().inc("osr.applied");
        rt.metrics_mut()
            .record("osr.park_to_resume_cycles", park_cycles);
        rt.tracer_mut().emit(
            now,
            Subsystem::Runtime,
            EventKind::OsrApply {
                func: u64::from(a.func.0),
                variant: a.variant as u64,
                header: u64::from(a.header.0),
                park_cycles,
            },
        );
        self.phase = Phase::Probation(Probation {
            func: a.func,
            header: a.header,
            variant: a.variant,
            recipe: a.recipe.clone(),
            resumed_at: now,
            baseline_pc: a.baseline_pc,
            variant_pc: a.variant_pc,
            deopt_armed: false,
        });
        Ok(())
    }

    /// One tick of the `Probation` phase.
    fn tick_probation(
        &mut self,
        os: &mut Os,
        rt: &mut Runtime,
        health: &mut HealthMonitor,
        mut p: Probation,
    ) -> Option<OsrError> {
        let pid = rt.pid();
        let now = os.now();
        if p.deopt_armed {
            if os.is_osr_parked(pid) {
                return self.deopt_parked(os, rt, health, &p).err();
            }
            self.phase = Phase::Probation(p);
            return None;
        }
        if !health.allows_osr() {
            // Health regression during probation: unwind.
            os.osr_arm(pid, p.variant_pc, 1);
            p.deopt_armed = true;
            self.phase = Phase::Probation(p);
            return None;
        }
        if now.saturating_sub(p.resumed_at) >= self.config.probation_cycles {
            // Survived probation: the transfer is committed.
            rt.metrics_mut().inc("osr.committed");
            return None;
        }
        self.phase = Phase::Probation(p);
        None
    }

    /// The context is parked at the variant header for a deopt: rebuild
    /// the baseline frame via the inverse recipe and resume in baseline
    /// code, or — if no inverse exists — restore everything and resume in
    /// the (gate-proved) variant.
    fn deopt_parked(
        &mut self,
        os: &mut Os,
        rt: &mut Runtime,
        health: &mut HealthMonitor,
        p: &Probation,
    ) -> Result<(), OsrError> {
        let pid = rt.pid();
        let now = os.now();
        // Inverse recipe: every certified-live baseline register must be
        // the source of some move (its value survives, relocated, in the
        // variant frame). Compensation consts have no inverse and need
        // none — they reconstruct variant-only registers.
        let live = rt
            .meta()
            .osr
            .iter()
            .find(|c| c.func == p.func && c.header == p.header)
            .map(|c| c.live.iter().map(|s| s.reg).collect::<Vec<_>>())
            .unwrap_or_default();
        let missing = live
            .iter()
            .find(|&&l| !p.recipe.moves.iter().any(|&(_, s)| s == l));
        if let Some(&reg) = missing {
            // Inversion refused: the variant stays installed (it is
            // proved equivalent) and the thread resumes where it parked.
            rt.restore_all(os);
            os.osr_resume(pid, p.variant_pc);
            rt.metrics_mut().inc("osr.deopt");
            rt.tracer_mut().emit(
                now,
                Subsystem::Runtime,
                EventKind::OsrDeopt {
                    func: u64::from(p.func.0),
                    variant: p.variant as u64,
                    header: u64::from(p.header.0),
                    reason: "inverse-refused",
                },
            );
            health.note_osr_fault(os, rt, p.func, p.header);
            self.note_quarantine(rt, health, p.func, p.header);
            return Err(OsrError::InverseRefused {
                func: p.func,
                reg: reg.0,
            });
        }
        let inverse: Vec<(PReg, PReg)> = live
            .iter()
            .filter_map(|&l| {
                p.recipe
                    .moves
                    .iter()
                    .find(|&&(_, s)| s == l)
                    .map(|&(d, _)| (PReg(l.0 as u8), PReg(d.0 as u8)))
            })
            .collect();
        let applied = os.osr_apply(pid, &inverse, &[]);
        debug_assert!(applied, "context was parked");
        os.osr_resume(pid, p.baseline_pc);
        let _ = rt.restore(os, p.func);
        rt.metrics_mut().inc("osr.deopt");
        rt.tracer_mut().emit(
            now,
            Subsystem::Runtime,
            EventKind::OsrDeopt {
                func: u64::from(p.func.0),
                variant: p.variant as u64,
                header: u64::from(p.header.0),
                reason: "probation-regression",
            },
        );
        health.note_osr_fault(os, rt, p.func, p.header);
        self.note_quarantine(rt, health, p.func, p.header);
        Ok(())
    }

    /// Abandons an armed request without touching the frame: disarm (a
    /// no-op for stalled arms), count, trace. Call-edge switching remains
    /// the fallback.
    fn abandon(&mut self, os: &mut Os, rt: &mut Runtime, a: &Armed, reason: &'static str) {
        os.osr_disarm(rt.pid());
        rt.metrics_mut().inc("osr.abandoned");
        rt.tracer_mut().emit(
            os.now(),
            Subsystem::Runtime,
            EventKind::OsrAbandon {
                func: u64::from(a.func.0),
                reason,
            },
        );
    }

    /// Mirrors a freshly tripped per-header quarantine into the `osr.*`
    /// counter namespace.
    fn note_quarantine(
        &mut self,
        rt: &mut Runtime,
        health: &HealthMonitor,
        func: FuncId,
        header: BlockId,
    ) {
        if health.osr_quarantined(func, header)
            && u64::from(health.osr_fault_count(func, header))
                == u64::from(health.config().osr_quarantine_threshold)
        {
            rt.metrics_mut().inc("osr.quarantined");
        }
    }

    /// Gate-proved transfer recipes for `variant`, memoized per variant
    /// index (verdicts are immutable once the variant is compiled).
    fn proved_recipes(
        &mut self,
        rt: &Runtime,
        func: FuncId,
        variant: usize,
    ) -> Vec<TransferRecipe> {
        if let Some(r) = self.recipe_cache.get(&variant) {
            return r.clone();
        }
        let rec = &rt.variants()[variant];
        if rec.func != func || rec.len == 0 {
            return Vec::new();
        }
        let meta = rt.meta();
        let summary = crate::safety::vet_osr_transfers(
            rt.module(),
            func,
            &rec.ir,
            &meta.osr,
            &meta.osr_recipes,
        );
        self.recipe_cache.insert(variant, summary.recipes.clone());
        summary.recipes
    }
}

impl Default for OsrController {
    fn default() -> Self {
        OsrController::new(OsrConfig::default())
    }
}

/// Resolves the baseline and variant header PCs of `recipe` through link
/// metadata: `pcc`'s lowering is deterministic, so
/// [`pcc::block_offsets`] recomputes the exact block starts the image
/// and the code-cache variant were emitted with.
fn resolve_header_pcs(rt: &Runtime, recipe: &TransferRecipe, variant: usize) -> Option<(u32, u32)> {
    let func = recipe.func;
    let baseline_fn = rt.module().function(func);
    let base_offsets = pcc::block_offsets(baseline_fn);
    let b_off = *base_offsets.get(recipe.baseline_header.index())?;
    let baseline_pc = rt.link().func_addrs.get(func.index())? + b_off;
    let rec = &rt.variants()[variant];
    let var_offsets = pcc::block_offsets(&rec.ir);
    let v_off = *var_offsets.get(recipe.variant_header.index())?;
    Some((baseline_pc, rec.addr + v_off))
}
