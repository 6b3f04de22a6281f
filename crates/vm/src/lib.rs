//! Query-time kernel compilation: the bytecode VM engine mode.
//!
//! The paper's holistic model generates C source per query and compiles it
//! with `gcc` at prepare time; this workspace's `hique-holistic` crate
//! instantiates the same templates as statically compiled Rust kernels
//! (DESIGN.md §2).  This crate closes the gap with compilation that really
//! happens at query time: [`compile`] lowers the generated kernel program
//! into compact register-machine bytecode
//! ([`bytecode::Op`]), and [`VmProgram::execute`] resolves it back into
//! kernels that the shared evaluate-query driver runs as the fifth engine
//! mode (`vm`) — same threads, memory budget, spill namespaces,
//! cancellation and [`ExecStats`] contract as the holistic engine, because
//! it is the same driver (DESIGN.md §13).
//!
//! Constant specialization is the paper's headline trick and the axis this
//! crate makes explicit: a [`CompileMode::Specialized`] program folds the
//! query's predicate constants into the instructions as immediates, while
//! a [`CompileMode::Pooled`] program keeps them in a [`ConstPool`] so the
//! compiled code is a template for its entire `shape_class` — the server's
//! plan cache stores both, serving repeat queries the specialized program
//! and literal-varying classmates a cheap [`VmProgram::bind`] (signature
//! checked, pool swapped, constants folded) instead of a full prepare.
//!
//! Bytecode is a front end, not a second executor (DESIGN.md §15): once
//! per execution the verified fragments and the constant pool resolve into
//! the kernel set the generator builds from the plan
//! ([`hique_holistic::KernelSet`]: scans, join keys, the aggregation's
//! group keys and register program, the output decoders), and the one
//! evaluate-query driver runs the plan's algorithms over it.  So what runs
//! is exactly what was verified, and `engine=vm` returns the holistic
//! engine's rows and [`ExecStats`] bit for bit, `vm_batches` (the pages the
//! resolved scans swept) aside.  The per-op interpreter
//! ([`bytecode::run_filter`] and its siblings) defines the ops' semantics;
//! only the resolvers' tests run it.
//!
//! Every compiled or rebound program passes a static verifier
//! ([`verify::verify`]) before it can be resolved and run: abstract
//! interpretation proving register def-before-use, operand/field type
//! agreement, pool and fragment bounds, plan agreement and output arity
//! (DESIGN.md §14).  [`mutate`] generates seeded single-op corruptions of
//! verified programs for the conformance mutation lane — negative tests
//! that the verifier (or, failing that, a typed runtime error) catches
//! every one.
//!
//! [`ExecStats`]: hique_types::ExecStats

#![forbid(unsafe_code)]

pub mod bytecode;
pub mod exec;
pub mod mutate;
pub mod program;
pub(crate) mod vector;
pub mod verify;

pub use bytecode::{ConstPool, Frag, Op};
pub use mutate::{mutants, Mutant};
pub use program::{collect_pool, compile, plan_signature, plan_structure, CompileMode, VmProgram};
pub use verify::{verify, VerifyError};
