#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # `pcc` — the Protean Code Compiler
//!
//! The static half of the paper's co-designed system (Section III-A). It
//! lowers PIR modules to VISA images and, in protean mode, performs the two
//! preparation steps that make online re-transformation near-free:
//!
//! 1. **Control-flow edge virtualization** ([`virtualize`]): a selected
//!    subset of direct calls become indirect calls through the **Edge
//!    Virtualization Table**. The default [`EdgePolicy`] is the paper's:
//!    virtualize only calls whose callee has more than one basic block.
//! 2. **Metadata embedding** ([`annex`], [`layout`]): the module's IR is
//!    serialized, compressed, and placed in the image's data region
//!    together with a link annex (function/global addresses, EVT slots),
//!    discoverable at runtime via the meta root header.
//!
//! The same backend doubles as the **runtime compiler**:
//! [`compile_function_variant`] lowers a single function — with an
//! arbitrary set of non-temporal hints applied ([`nt`]) — at a code-cache
//! address, producing the variant the runtime dispatches by patching the
//! EVT.
//!
//! # Example
//!
//! ```
//! use pcc::{Compiler, Options};
//! use pir::{Module, FunctionBuilder};
//!
//! let mut m = Module::new("demo");
//! let mut b = FunctionBuilder::new("main", 0);
//! b.ret(None);
//! let f = m.add_function(b.finish());
//! m.set_entry(f);
//! let out = Compiler::new(Options::protean()).compile(&m).expect("compile");
//! assert!(out.image.is_protean());
//! ```

pub mod annex;
pub mod compile;
pub mod inline;
pub mod invariants;
pub mod layout;
pub mod lower;
pub mod nt;
pub mod opt;
pub mod virtualize;

pub use annex::{EmbeddedMeta, LinkInfo};
pub use compile::{
    compile_function_variant, compile_function_variant_checked, CompileError, Compiler, Options,
    Output,
};
pub use inline::{inline_module, inline_module_checked, InlineConfig, InlineStats};
pub use lower::{block_offsets, lowered_size};
pub use nt::NtAssignment;
pub use opt::{
    optimize_function, optimize_module, optimize_module_checked, optimize_module_validated,
    OptStats,
};
pub use virtualize::EdgePolicy;
