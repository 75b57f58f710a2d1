#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # `pir` — the Protean Intermediate Representation
//!
//! A compact, virtual-register intermediate representation standing in for
//! LLVM IR in the Protean Code reproduction (MICRO 2014). The protean code
//! compiler (`pcc`) lowers PIR to the virtual ISA (`visa`) and embeds a
//! serialized, compressed copy of the PIR into the binary's data region so
//! the protean runtime can re-transform code online.
//!
//! The crate provides:
//!
//! * the IR data model ([`Module`], [`Function`], [`Block`], [`Inst`]),
//! * an ergonomic [`builder::FunctionBuilder`],
//! * a structural [`verify`](verify::verify_module) pass,
//! * CFG construction, dominators, and a generic worklist dataflow engine
//!   ([`dataflow`]) with reaching-definitions, liveness, and
//!   definite-assignment instances,
//! * a conservative alias/memory-effects analysis ([`effects`]) with
//!   points-to classes for globals and parameters,
//! * an abstract-interpretation engine ([`absint`]) — intervals, known
//!   bits, and flow-sensitive points-to classes under one
//!   widening/narrowing fixpoint — powering OSR-point certification and
//!   the equivalence checker's alias precision,
//! * a symbolic equivalence checker ([`equiv`]) — translation validation
//!   for the online transformations, with "proved modulo NT hints"
//!   verdicts, interpreter-confirmed counterexamples, and a cut-point
//!   simulation prover for OSR transfer recipes,
//! * loop-header matching between baseline and variant ([`osr_map`]) —
//!   the structural half of the OSR-transfer proof obligation,
//! * a diagnostic lint layer ([`lint`]) over those analyses,
//! * dominator-based natural-loop analysis ([`loops`]) used by PC3D's
//!   "innermost loops only" search heuristic,
//! * load-site enumeration ([`analysis`]) — the unit of PC3D's variant
//!   bit vectors,
//! * a binary codec ([`encode`]) and an LZ-style compressor ([`compress`])
//!   implementing the paper's "serialize, compress and place the IR into the
//!   data region" step.
//!
//! # Example
//!
//! ```
//! use pir::{Module, builder::FunctionBuilder, Locality};
//!
//! let mut module = Module::new("demo");
//! let buf = module.add_global("buf", 4096);
//! let mut b = FunctionBuilder::new("sum", 0);
//! let base = b.global_addr(buf);
//! let acc0 = b.const_(0);
//! let acc = b.accumulate_loop(0, 512, 1, acc0, |b, i, acc| {
//!     let off = b.shl_imm(i, 3);
//!     let addr = b.add(base, off);
//!     let v = b.load(addr, 0, Locality::Normal);
//!     b.add_into(acc, acc, v);
//! });
//! b.ret(Some(acc));
//! let f = module.add_function(b.finish());
//! module.set_entry(f);
//! assert!(pir::verify::verify_module(&module).is_ok());
//! ```

pub mod absint;
pub mod analysis;
pub mod builder;
pub mod compress;
pub mod dataflow;
pub mod effects;
pub mod encode;
pub mod equiv;
pub mod ids;
pub mod inst;
pub mod interp;
pub mod lint;
pub mod loops;
pub mod module;
pub mod osr_map;
pub mod print;
pub mod verify;

pub use absint::{
    certify_function, certify_module, AbsVal, FuncAbsint, Interval, KnownBits, OsrCertificate,
    OsrDecision, OsrLiveSlot, OsrRefusal,
};
pub use analysis::{load_sites, LoadSite};
pub use builder::FunctionBuilder;
pub use effects::{CacheStats, FuncEffects, ModuleEffects, PtClass, RegionSet};
pub use equiv::{
    check_function_in, check_module, interval_disjoint_facts, prove_osr_transfer,
    prove_osr_transfers, validate_osr_transfer, Counterexample, EquivOptions, EquivReport,
    TransferRecipe, TransferRefusal, TransferVerdict, Verdict,
};
pub use ids::{BlockId, FuncId, GlobalId, LoadSiteId, Reg};
pub use inst::{BinOp, Inst, Locality, Term};
pub use module::{Block, Function, Global, GlobalInit, Module};
pub use osr_map::{map_headers, HeaderPair, MapRefusal, OsrMap};
pub use print::{
    render_function, render_module, render_osr_certificate, render_transfer_recipe, PrintOptions,
};

/// Maximum number of virtual registers a single function may use.
///
/// The virtual ISA gives every activation frame a private register file of
/// this size (a register-window design), so the lowering in `pcc` never
/// needs spill code. The verifier enforces the bound.
pub const MAX_REGS: u32 = 240;

/// Maximum number of parameters a function may declare.
pub const MAX_PARAMS: u32 = 8;
