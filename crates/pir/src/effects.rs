//! Conservative alias and memory-effects analysis.
//!
//! The equivalence checker ([`crate::equiv`]) and the lint layer both need
//! answers to two questions about memory the verifier cannot give:
//!
//! * **Where may this address point?** Every register gets a *points-to
//!   class* ([`PtClass`]): derived from a specific global, derived from a
//!   specific incoming parameter, a known non-address integer, or unknown.
//!   The classes form a tiny join lattice and are computed flow-insensitively
//!   (a register's class covers every definition it may hold).
//! * **What does this instruction / function touch?** Per-instruction
//!   summaries ([`InstEffect`]) and transitive per-function summaries
//!   ([`FuncEffects`]) over abstract [`RegionSet`]s: which globals/params a
//!   body may read, write, or prefetch (non-temporal loads), plus whether it
//!   publishes application metrics or parks in `wait`.
//!
//! Precision notes, honest edition: the class lattice treats "not an
//! address" as the bottom element, so a register that mixes integer and
//! pointer definitions keeps the pointer class. That is fine for every use
//! in this crate — the equivalence checker only relies on effect
//! *emptiness* (`writes` empty ⇒ the callee executes no store at all, which
//! holds regardless of how store addresses were classified, because every
//! store inserts at least the unknown region), and the lint pass is
//! advisory. Region *disjointness* ([`RegionSet::may_overlap`]) is
//! conservative in the other direction: parameters and unknown regions
//! overlap everything, so "no overlap" claims are trustworthy.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

use crate::ids::{FuncId, GlobalId, Reg};
use crate::inst::{BinOp, Inst};
use crate::module::{Function, Module};

// ---------------------------------------------------------------------------
// Points-to classes
// ---------------------------------------------------------------------------

/// Abstract provenance of a register value, for alias reasoning.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PtClass {
    /// Known to be an ordinary integer (or still zero-initialized) on every
    /// definition seen so far. Bottom of the lattice.
    NotAddr,
    /// Derived (by `GlobalAddr` plus integer arithmetic) from one specific
    /// global's base address.
    Global(GlobalId),
    /// Derived from the value of one specific incoming parameter.
    Param(u32),
    /// Could point anywhere. Top of the lattice.
    Unknown,
}

impl PtClass {
    /// Lattice join: `NotAddr` is bottom, `Unknown` is top, distinct
    /// address classes join to `Unknown`.
    pub fn join(self, other: PtClass) -> PtClass {
        match (self, other) {
            (PtClass::NotAddr, x) | (x, PtClass::NotAddr) => x,
            (a, b) if a == b => a,
            _ => PtClass::Unknown,
        }
    }

    /// True if the class describes a potential address (anything above
    /// bottom).
    pub fn is_address(self) -> bool {
        !matches!(self, PtClass::NotAddr)
    }
}

impl fmt::Display for PtClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PtClass::NotAddr => write!(f, "int"),
            PtClass::Global(g) => write!(f, "&{g}"),
            PtClass::Param(p) => write!(f, "*p{p}"),
            PtClass::Unknown => write!(f, "?"),
        }
    }
}

/// Computes the points-to class of every register in `func`,
/// flow-insensitively (one class per register, joined over all
/// definitions). Parameters seed as [`PtClass::Param`]; everything else
/// starts at bottom.
pub fn reg_classes(func: &Function) -> Vec<PtClass> {
    // Size the table from both the declared register count and the highest
    // register actually mentioned, so unverified functions don't panic.
    let mut n = func.reg_count().max(func.params()) as usize;
    for block in func.blocks() {
        let mut bump = |r: Reg| n = n.max(r.index() + 1);
        for inst in &block.insts {
            if let Some(d) = inst.dst() {
                bump(d);
            }
            inst.for_each_use(&mut bump);
        }
        block.term.for_each_use(&mut bump);
    }
    let mut cls = vec![PtClass::NotAddr; n];
    for (p, c) in cls.iter_mut().enumerate().take(func.params() as usize) {
        *c = PtClass::Param(p as u32);
    }
    loop {
        let mut changed = false;
        for block in func.blocks() {
            for inst in &block.insts {
                let derived = match inst {
                    Inst::Const { dst, .. } => Some((*dst, PtClass::NotAddr)),
                    Inst::GlobalAddr { dst, global } => Some((*dst, PtClass::Global(*global))),
                    Inst::Bin { op, dst, lhs, rhs } => {
                        let (a, b) = (cls[lhs.index()], cls[rhs.index()]);
                        let c = match op {
                            // Pointer ± integer keeps the pointer's class;
                            // anything mixing two addresses loses track.
                            BinOp::Add => match (a.is_address(), b.is_address()) {
                                (false, false) => PtClass::NotAddr,
                                (true, false) => a,
                                (false, true) => b,
                                (true, true) => PtClass::Unknown,
                            },
                            BinOp::Sub => match (a.is_address(), b.is_address()) {
                                (false, false) => PtClass::NotAddr,
                                (true, false) => a,
                                _ => PtClass::Unknown,
                            },
                            // Any other arithmetic yields an integer: a
                            // scaled or masked pointer is an offset, not a
                            // pointer. If such a value is still used as an
                            // address, `RegionSet::insert_class` routes the
                            // `NotAddr` class to the unknown region.
                            _ => PtClass::NotAddr,
                        };
                        Some((*dst, c))
                    }
                    Inst::BinImm { op, dst, lhs, .. } => {
                        let a = cls[lhs.index()];
                        let c = match op {
                            BinOp::Add | BinOp::Sub => a,
                            _ => PtClass::NotAddr,
                        };
                        Some((*dst, c))
                    }
                    // Loaded values and call results may be stored pointers.
                    Inst::Load { dst, .. } => Some((*dst, PtClass::Unknown)),
                    Inst::Call { dst: Some(d), .. } => Some((*d, PtClass::Unknown)),
                    _ => None,
                };
                if let Some((d, c)) = derived {
                    let j = cls[d.index()].join(c);
                    if j != cls[d.index()] {
                        cls[d.index()] = j;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return cls;
        }
    }
}

// ---------------------------------------------------------------------------
// Region sets
// ---------------------------------------------------------------------------

/// An abstract set of memory regions: named globals, regions reachable
/// from named parameters, and optionally the unknown region (which covers
/// everything, including absolute integer addresses).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegionSet {
    globals: BTreeSet<GlobalId>,
    params: BTreeSet<u32>,
    unknown: bool,
}

impl RegionSet {
    /// The empty region set.
    pub fn new() -> RegionSet {
        RegionSet::default()
    }

    /// Adds the region an access through a register of class `c` may touch.
    /// Integer-class bases are absolute addresses, i.e. unknown.
    pub fn insert_class(&mut self, c: PtClass) {
        match c {
            PtClass::Global(g) => {
                self.globals.insert(g);
            }
            PtClass::Param(p) => {
                self.params.insert(p);
            }
            PtClass::NotAddr | PtClass::Unknown => self.unknown = true,
        }
    }

    /// `self ∪= other`; returns true if `self` grew.
    pub fn union_with(&mut self, other: &RegionSet) -> bool {
        let before = (self.globals.len(), self.params.len(), self.unknown);
        self.globals.extend(other.globals.iter().copied());
        self.params.extend(other.params.iter().copied());
        self.unknown |= other.unknown;
        before != (self.globals.len(), self.params.len(), self.unknown)
    }

    /// True if the set covers no region at all.
    pub fn is_empty(&self) -> bool {
        self.globals.is_empty() && self.params.is_empty() && !self.unknown
    }

    /// True if the set includes the unknown (anything-goes) region.
    pub fn has_unknown(&self) -> bool {
        self.unknown
    }

    /// True if the set may cover global `g`.
    pub fn may_touch_global(&self, g: GlobalId) -> bool {
        self.unknown || !self.params.is_empty() || self.globals.contains(&g)
    }

    /// Conservative overlap test. Parameter and unknown regions may alias
    /// anything, so disjointness is only claimed for two pure,
    /// non-intersecting global sets (or when either side is empty).
    pub fn may_overlap(&self, other: &RegionSet) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        if self.unknown || other.unknown || !self.params.is_empty() || !other.params.is_empty() {
            return true;
        }
        self.globals.intersection(&other.globals).next().is_some()
    }
}

impl fmt::Display for RegionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        let mut first = true;
        let mut item = |f: &mut fmt::Formatter<'_>, s: String| -> fmt::Result {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{s}")
        };
        write!(f, "{{")?;
        for g in &self.globals {
            item(f, g.to_string())?;
        }
        for p in &self.params {
            item(f, format!("*p{p}"))?;
        }
        if self.unknown {
            item(f, "?".to_string())?;
        }
        write!(f, "}}")
    }
}

// ---------------------------------------------------------------------------
// Effect summaries
// ---------------------------------------------------------------------------

/// Memory and observability effects of a single instruction, with callee
/// summaries already folded in for calls.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InstEffect {
    /// Regions the instruction may read.
    pub reads: RegionSet,
    /// Regions the instruction may write.
    pub writes: RegionSet,
    /// True if the instruction issues a non-temporal (prefetch-like) load.
    pub prefetch: bool,
    /// True if the instruction publishes an application metric.
    pub report: bool,
    /// True if the instruction may park the process.
    pub wait: bool,
}

/// Transitive memory and observability effects of one function.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FuncEffects {
    /// Regions the function (or anything it calls) may read.
    pub reads: RegionSet,
    /// Regions the function (or anything it calls) may write.
    pub writes: RegionSet,
    /// Regions touched by non-temporal loads, transitively.
    pub prefetches: RegionSet,
    /// True if any reachable instruction publishes an application metric.
    pub reports: bool,
    /// True if any reachable instruction may park the process.
    pub waits: bool,
}

/// Maps a callee-side region set into the caller's frame: parameter
/// regions are replaced by the classes of the actual arguments.
fn instantiate(r: &RegionSet, arg_classes: &[PtClass]) -> RegionSet {
    let mut out = RegionSet {
        globals: r.globals.clone(),
        params: BTreeSet::new(),
        unknown: r.unknown,
    };
    for &p in &r.params {
        match arg_classes.get(p as usize) {
            Some(c) => out.insert_class(*c),
            None => out.unknown = true,
        }
    }
    out
}

/// Whole-module effects: per-function transitive summaries plus the
/// per-register points-to classes they were computed from.
#[derive(Clone, Debug)]
pub struct ModuleEffects {
    funcs: Vec<FuncEffects>,
    classes: Vec<Vec<PtClass>>,
}

impl ModuleEffects {
    /// Analyzes every function of `module` to a fixed point over the call
    /// graph (recursion converges because the region lattice is finite).
    pub fn analyze(module: &Module) -> ModuleEffects {
        let classes: Vec<Vec<PtClass>> = module.functions().iter().map(reg_classes).collect();
        let locals: Vec<FuncEffects> = module
            .functions()
            .iter()
            .zip(&classes)
            .map(|(f, cls)| local_effects(f, cls))
            .collect();
        let mut funcs = locals.clone();
        loop {
            let mut changed = false;
            for (fi, func) in module.functions().iter().enumerate() {
                let mut acc = locals[fi].clone();
                for block in func.blocks() {
                    for inst in &block.insts {
                        if let Inst::Call { callee, args, .. } = inst {
                            let arg_classes: Vec<PtClass> =
                                args.iter().map(|r| classes[fi][r.index()]).collect();
                            let cs = &funcs[callee.index()];
                            acc.reads.union_with(&instantiate(&cs.reads, &arg_classes));
                            acc.writes
                                .union_with(&instantiate(&cs.writes, &arg_classes));
                            acc.prefetches
                                .union_with(&instantiate(&cs.prefetches, &arg_classes));
                            acc.reports |= cs.reports;
                            acc.waits |= cs.waits;
                        }
                    }
                }
                if acc != funcs[fi] {
                    funcs[fi] = acc;
                    changed = true;
                }
            }
            if !changed {
                return ModuleEffects { funcs, classes };
            }
        }
    }

    /// The transitive summary of `func`.
    pub fn func(&self, func: FuncId) -> &FuncEffects {
        &self.funcs[func.index()]
    }

    /// The points-to classes of `func`'s registers.
    pub fn classes(&self, func: FuncId) -> &[PtClass] {
        &self.classes[func.index()]
    }

    /// True if `func` (transitively) executes no store at all. This only
    /// depends on the *presence* of stores, not on how their addresses
    /// were classified, so it is sound even where the class lattice is
    /// imprecise.
    pub fn writes_nothing(&self, func: FuncId) -> bool {
        self.funcs[func.index()].writes.is_empty()
    }

    /// True if calling `func` is invisible to memory, the OS, and the
    /// application-metric channels (it may still read memory and warm
    /// caches).
    pub fn observably_pure(&self, func: FuncId) -> bool {
        let e = &self.funcs[func.index()];
        e.writes.is_empty() && !e.reports && !e.waits
    }

    /// The effect of one instruction of `func`, folding in the callee's
    /// transitive summary for calls.
    pub fn inst_effect(&self, func: FuncId, inst: &Inst) -> InstEffect {
        let cls = &self.classes[func.index()];
        let mut e = InstEffect::default();
        match inst {
            Inst::Load { base, locality, .. } => {
                e.reads.insert_class(cls[base.index()]);
                e.prefetch = locality.is_non_temporal();
            }
            Inst::Store { base, .. } => e.writes.insert_class(cls[base.index()]),
            Inst::Call { callee, args, .. } => {
                let arg_classes: Vec<PtClass> = args.iter().map(|r| cls[r.index()]).collect();
                let cs = &self.funcs[callee.index()];
                e.reads = instantiate(&cs.reads, &arg_classes);
                e.writes = instantiate(&cs.writes, &arg_classes);
                e.prefetch = !cs.prefetches.is_empty();
                e.report = cs.reports;
                e.wait = cs.waits;
            }
            Inst::Report { .. } => e.report = true,
            Inst::Wait => e.wait = true,
            _ => {}
        }
        e
    }
}

// ---------------------------------------------------------------------------
// Function-list-keyed summary cache
// ---------------------------------------------------------------------------

/// Hit/miss counts for a process-wide analysis cache, read per thread.
///
/// Shared by this module's [`analyze_cached`] and the abstract
/// interpreter's [`crate::absint::analyze_function_cached`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to compute a fixpoint.
    pub misses: u64,
}

std::thread_local! {
    static STATS: std::cell::Cell<CacheStats> = const { std::cell::Cell::new(CacheStats { hits: 0, misses: 0 }) };
}

/// This thread's cumulative [`analyze_cached`] hit/miss counts.
/// (Counters are thread-local so concurrent tests and worker pools don't
/// race; the cache itself is process-wide.)
pub fn cache_stats() -> CacheStats {
    STATS.with(|s| s.get())
}

/// Hash-keyed entries holding the analyzed functions (compared on lookup
/// to defuse collisions) beside their summaries.
type EffectsCache = HashMap<u64, (Vec<Function>, Arc<ModuleEffects>)>;

static CACHE: OnceLock<Mutex<EffectsCache>> = OnceLock::new();

const CACHE_CAP: usize = 16;

/// [`ModuleEffects::analyze`] with memoization keyed by the hash of
/// `module.functions()`.
///
/// The key is the function list alone, because the call-graph fixpoint
/// reads nothing else: a renamed module, or one whose globals differ,
/// hits. The stored functions are compared by value on lookup, so a hash
/// collision degrades to a recompute instead of returning another
/// module's summaries. When the cache exceeds `CACHE_CAP` distinct
/// function lists it is cleared wholesale (churn here means short-lived
/// fuzz mutants, not a working set worth LRU bookkeeping).
pub fn analyze_cached(module: &Module) -> Arc<ModuleEffects> {
    let funcs = module.functions();
    let mut h = DefaultHasher::new();
    funcs.hash(&mut h);
    let key = h.finish();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    {
        let guard = cache.lock().expect("effects cache poisoned");
        if let Some((stored, fx)) = guard.get(&key) {
            if stored.as_slice() == funcs {
                STATS.with(|s| {
                    let mut v = s.get();
                    v.hits += 1;
                    s.set(v);
                });
                return fx.clone();
            }
        }
    }
    STATS.with(|s| {
        let mut v = s.get();
        v.misses += 1;
        s.set(v);
    });
    let fx = Arc::new(ModuleEffects::analyze(module));
    let mut guard = cache.lock().expect("effects cache poisoned");
    if guard.len() >= CACHE_CAP && !guard.contains_key(&key) {
        guard.clear();
    }
    guard
        .entry(key)
        .or_insert_with(|| (funcs.to_vec(), fx.clone()));
    fx
}

/// Effects of `func`'s own instructions, calls excluded.
fn local_effects(func: &Function, cls: &[PtClass]) -> FuncEffects {
    let mut e = FuncEffects::default();
    for block in func.blocks() {
        for inst in &block.insts {
            match inst {
                Inst::Load { base, locality, .. } => {
                    e.reads.insert_class(cls[base.index()]);
                    if locality.is_non_temporal() {
                        e.prefetches.insert_class(cls[base.index()]);
                    }
                }
                Inst::Store { base, .. } => e.writes.insert_class(cls[base.index()]),
                Inst::Report { .. } => e.reports = true,
                Inst::Wait => e.waits = true,
                _ => {}
            }
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::Locality;

    #[test]
    fn classes_track_global_and_param_derivations() {
        let mut m = Module::new("m");
        let g = m.add_global("buf", 256);
        let mut b = FunctionBuilder::new("f", 1);
        let p = b.param(0);
        let base = b.global_addr(g);
        let off = b.shl_imm(p, 3);
        let a = b.add(base, off); // still &g: ptr + int
        let v = b.load(a, 0, Locality::Normal);
        let q = b.add_imm(p, 8); // still *p0
        let w = b.load(q, 0, Locality::Normal);
        let x = b.add(v, w);
        b.ret(Some(x));
        let f = b.finish();
        let cls = reg_classes(&f);
        assert_eq!(cls[p.index()], PtClass::Param(0));
        assert_eq!(cls[base.index()], PtClass::Global(g));
        assert_eq!(cls[a.index()], PtClass::Global(g));
        assert_eq!(cls[q.index()], PtClass::Param(0));
        // Loaded values could be anything.
        assert_eq!(cls[v.index()], PtClass::Unknown);
        assert_eq!(cls[off.index()], PtClass::NotAddr);
    }

    #[test]
    fn cached_summaries_are_shared_and_counted() {
        let mut m = Module::new("fx-cache");
        let g = m.add_global("buf", 64);
        let mut b = FunctionBuilder::new("f", 0);
        let base = b.global_addr(g);
        let v = b.load(base, 0, Locality::Normal);
        b.ret(Some(v));
        let f = m.add_function(b.finish());
        m.set_entry(f);

        let before = cache_stats();
        let a = analyze_cached(&m);
        let b2 = analyze_cached(&m);
        assert!(Arc::ptr_eq(&a, &b2), "second query must hit the cache");
        let after = cache_stats();
        assert!(after.misses >= before.misses, "miss counter monotone");
        assert!(after.hits > before.hits, "hit counter advanced");
        assert!(a.func(f).reads.globals.contains(&g));
    }

    #[test]
    fn cache_key_is_the_function_list_not_the_module() {
        // Two modules with the same functions: they differ only in their
        // names and in another global's initializer, neither of which the
        // summaries read.
        let module = |name: &str, words: Vec<i64>| {
            let mut m = Module::new(name);
            let g = m.add_global("buf", 64);
            m.add_global_full(crate::module::Global::with_words("table", words));
            let mut b = FunctionBuilder::new("effects-key-probe", 0);
            let base = b.global_addr(g);
            let v = b.load(base, 0, Locality::Normal);
            b.store(base, 8, v);
            b.ret(Some(v));
            let f = m.add_function(b.finish());
            m.set_entry(f);
            m
        };
        let a = module("key-a", vec![1, 2, 3]);
        let b = module("key-b", vec![4, 5, 6]);
        assert_ne!(a, b);
        let first = analyze_cached(&a);
        let before = cache_stats();
        let second = analyze_cached(&b);
        let after = cache_stats();
        assert_eq!(
            (after.hits - before.hits, after.misses - before.misses),
            (1, 0),
            "the same functions in another module must hit"
        );
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn region_overlap_is_conservative() {
        let mut a = RegionSet::new();
        a.insert_class(PtClass::Global(GlobalId(0)));
        let mut b = RegionSet::new();
        b.insert_class(PtClass::Global(GlobalId(1)));
        assert!(!a.may_overlap(&b), "distinct globals are disjoint");
        let mut c = RegionSet::new();
        c.insert_class(PtClass::Param(0));
        assert!(a.may_overlap(&c), "params may alias any global");
        let empty = RegionSet::new();
        assert!(!a.may_overlap(&empty));
        let mut u = RegionSet::new();
        u.insert_class(PtClass::Unknown);
        assert!(a.may_overlap(&u));
        assert_eq!(format!("{a}"), "{g0}");
    }

    #[test]
    fn summaries_propagate_through_calls_with_substitution() {
        let mut m = Module::new("m");
        let g = m.add_global("tbl", 64);
        // sink(p0): stores through its parameter.
        let mut sink = FunctionBuilder::new("sink", 1);
        let p = sink.param(0);
        let z = sink.const_(1);
        sink.store(p, 0, z);
        sink.ret(None);
        let sink_id = m.add_function(sink.finish());
        // caller(): passes &tbl to sink.
        let mut caller = FunctionBuilder::new("caller", 0);
        let base = caller.global_addr(g);
        caller.call_void(sink_id, &[base]);
        caller.ret(None);
        let caller_id = m.add_function(caller.finish());
        let me = ModuleEffects::analyze(&m);
        // sink writes through its param; the caller's instantiated summary
        // names the global.
        assert!(me.func(sink_id).writes.may_touch_global(g));
        assert!(!me.writes_nothing(caller_id));
        assert!(me.func(caller_id).writes.may_touch_global(g));
        assert!(
            !me.func(caller_id).writes.has_unknown(),
            "substitution should stay precise: {}",
            me.func(caller_id).writes
        );
    }

    #[test]
    fn observable_purity_and_flags() {
        let mut m = Module::new("m");
        let mut pure = FunctionBuilder::new("pure", 1);
        let p = pure.param(0);
        let d = pure.mul_imm(p, 3);
        pure.ret(Some(d));
        let pure_id = m.add_function(pure.finish());
        let mut noisy = FunctionBuilder::new("noisy", 0);
        let c = noisy.const_(1);
        noisy.report(0, c);
        noisy.call_void(pure_id, &[c]);
        noisy.ret(None);
        let noisy_id = m.add_function(noisy.finish());
        let me = ModuleEffects::analyze(&m);
        assert!(me.observably_pure(pure_id));
        assert!(me.writes_nothing(noisy_id));
        assert!(!me.observably_pure(noisy_id), "reports are observable");
        assert!(me.func(noisy_id).reports);
    }

    #[test]
    fn inst_effect_classifies_store_and_nt_load() {
        let mut m = Module::new("m");
        let g = m.add_global("buf", 128);
        let mut f = FunctionBuilder::new("f", 0);
        let base = f.global_addr(g);
        let v = f.load(base, 8, Locality::NonTemporal);
        f.store(base, 0, v);
        f.ret(None);
        let fid = m.add_function(f.finish());
        let me = ModuleEffects::analyze(&m);
        let func = m.function(fid);
        let mut saw_store = false;
        let mut saw_nt = false;
        for inst in &func.blocks()[0].insts {
            let e = me.inst_effect(fid, inst);
            if matches!(inst, Inst::Store { .. }) {
                saw_store = true;
                assert!(e.writes.may_touch_global(g));
                assert!(e.reads.is_empty());
            }
            if inst.is_load() {
                saw_nt |= e.prefetch;
                assert!(e.reads.may_touch_global(g));
            }
        }
        assert!(saw_store && saw_nt);
    }

    #[test]
    fn recursion_converges() {
        let mut m = Module::new("m");
        // f(p0) calls itself; has a store through a global.
        let g = m.add_global("acc", 8);
        let mut f = FunctionBuilder::new("rec", 1);
        let p = f.param(0);
        let base = f.global_addr(g);
        f.store(base, 0, p);
        let _ = f.call(crate::FuncId(0), &[p]);
        f.ret(None);
        let fid = m.add_function(f.finish());
        let me = ModuleEffects::analyze(&m);
        assert!(me.func(fid).writes.may_touch_global(g));
        assert!(!me.observably_pure(fid));
    }
}
