//! Structured program generation: a small DSL compiled to MIPS machine code.
//!
//! The paper's workload is 25 Mälardalen benchmarks compiled for MIPS
//! R2000/R3000 (§IV-A). The static analysis only observes the *instruction
//! fetch address stream shape* — code layout, basic-block structure, loop
//! nests and bounds, call structure — so this crate provides the equivalent
//! substrate: a structured program description ([`Program`], [`Stmt`]) and a
//! code generator that turns it into a real [`pwcet_mips::BinaryImage`],
//! together with
//!
//! * **loop-bound annotations** ([`LoopBound`]) consumed by the IPET path
//!   analysis (the role of Heptane's annotation mechanism), and
//! * a **structure tree** ([`StructureNode`]) consumed by the tree-based
//!   WCET engine (Heptane's original engine \[14\]).
//!
//! Generated code uses a fixed register discipline (documented in
//! [`codegen_doc`]) so that every program is also *executable* by the
//! functional simulator in `pwcet-sim`, which validates the static bounds.
//!
//! # Example
//!
//! ```
//! use pwcet_progen::{stmt, Program};
//!
//! # fn main() -> Result<(), pwcet_progen::ProgenError> {
//! // for i in 0..10 { 8 instructions } — plus a helper called once.
//! let program = Program::new("demo")
//!     .with_function("main", stmt::seq([
//!         stmt::loop_(10, stmt::compute(8)),
//!         stmt::call("helper"),
//!     ]))
//!     .with_function("helper", stmt::compute(4));
//! let compiled = program.compile(0x0040_0000)?;
//! assert!(compiled.image().len_words() > 12);
//! assert_eq!(compiled.loop_bounds().len(), 1);
//! assert_eq!(compiled.loop_bounds()[0].bound, 10);
//! # Ok(())
//! # }
//! ```

mod ast;
mod codegen;
mod error;
mod generator;
mod tree;

pub use ast::{stmt, Function, Program, Stmt, MAX_EXPANDED_INSTRUCTIONS};
pub use codegen::{CompiledProgram, FunctionInfo, LoopBound, MAX_LOOP_DEPTH};
pub use error::ProgenError;
pub use generator::{GeneratorConfig, ProgramGenerator};
pub use tree::StructureNode;

pub mod codegen_doc {
    //! # Register discipline of generated code
    //!
    //! | Register | Role |
    //! |---|---|
    //! | `$sp` | stack pointer (initialized by `main` to `0x7fff_f000`) |
    //! | `$ra` | return address (`jal`/`jr`) |
    //! | `$s0..$s7` | loop counters, indexed by nesting depth within a function |
    //! | `$t9` | branch-direction toggle for `if_else` (alternates sides) |
    //! | `$t0..$t7` | operands of straight-line compute instructions |
    //!
    //! Functions save `$ra` and every `$sN` they use on the stack, so calls
    //! may appear anywhere, including inside loops. `main` ends with
    //! `break 0`, the workspace's halt instruction.
}
