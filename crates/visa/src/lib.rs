#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # `visa` — the Virtual Instruction Set Architecture
//!
//! The compilation target of the protean code compiler (`pcc`) and the
//! instruction set executed by the `machine` simulator. VISA stands in
//! for x86-64 in the Protean Code reproduction; the correspondence that
//! matters to the paper is:
//!
//! * **`prefetchnta`** → [`Op::PrefetchNta`]: a non-temporal prefetch that
//!   installs a line with the machine's non-temporal fill policy (LLC
//!   bypass or LRU-position insert). Inserting/removing these is the code
//!   transformation PC3D performs online. Like on x86, the hint is an
//!   *extra instruction*, which is why the paper measures batch progress in
//!   branches per second rather than instructions per second.
//! * **Indirect calls through the Edge Virtualization Table** →
//!   [`Op::CallVirt`]: reads its target address from a data-memory slot
//!   (one per virtualized edge), so the runtime can redirect the edge with
//!   a single atomic memory write.
//! * **Register windows**: every activation owns a private file of
//!   [`FRAME_REGS`] registers; `Call` copies arguments into the callee's
//!   `r0..rN` and `Ret` copies the return register back. This keeps the
//!   `pcc` lowering free of spill code without losing the memory behaviour
//!   the paper studies (heap/global traffic).
//!
//! The [`image`] module defines the executable container: text, an
//! initialized data segment containing the EVT and the embedded compressed
//! IR, and symbol tables. [`encode`] gives images a durable byte format,
//! and [`disasm`] renders text sections in the style of the paper's
//! Figure 2.

pub mod asm;
pub mod disasm;
pub mod encode;
pub mod image;
pub mod op;

pub use asm::{assemble, AsmError};
pub use image::{
    EvtEntry, FuncSym, GlobalSym, Image, MetaDesc, META_MAGIC, META_ROOT_ADDR, META_ROOT_SIZE,
};
pub use op::{Op, PReg};

/// Number of registers in each activation frame's private register file.
///
/// Sized to the full range of a [`PReg`] byte so that *any* encodable
/// register operand addresses a valid slot: the interpreter's hot path
/// needs no per-access range check, and hand-built text with registers
/// above `pir::MAX_REGS` (which the compiler never emits) reads zeros
/// instead of panicking the simulator.
pub const FRAME_REGS: usize = 256;

/// Maximum call arguments (mirrors [`pir::MAX_PARAMS`]).
pub const MAX_ARGS: usize = pir::MAX_PARAMS as usize;
