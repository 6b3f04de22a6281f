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
//! compiled code is a template for its entire shape class (the query's
//! tokens with every literal masked, [`hique_plan::shape_class_and_consts`]).
//! The server's plan cache stores both, serving repeat queries the
//! specialized program and literal-varying classmates a cheap
//! [`VmProgram::bind`] (pool swapped, verified, constants folded) instead
//! of a full prepare.
//!
//! Bytecode is a front end, not a second executor (DESIGN.md §15): once
//! per execution the fragments and the constant pool decode into the
//! kernel set the generator builds from the plan
//! ([`hique_holistic::KernelSet`]: scans, join keys, the aggregation's
//! group keys and register program, the output decoders), and the one
//! evaluate-query driver runs the plan's algorithms over it.  `engine=vm`
//! returns the holistic engine's rows and [`ExecStats`] bit for bit,
//! `vm_batches` (the pages the resolved scans swept) aside.  The per-op
//! interpreter ([`bytecode::run_filter`] and its siblings) defines the
//! ops' semantics; only the decoders' tests run it.
//!
//! The verifier is that decode (DESIGN.md §14): a program is accepted iff
//! it decodes into exactly the generator's kernel set, every component
//! compared as it is read ([`verify::verify`]), so what runs is what was
//! verified.  [`compile`] and [`VmProgram::bind`] verify before they hand a
//! program out, and [`VmProgram::execute`] runs what the same
//! decode-and-compare yields.  [`mutate`] generates seeded single-op
//! corruptions of verified programs for the conformance mutation lane —
//! negative tests the verifier rejects every one of.
//!
//! [`ExecStats`]: hique_types::ExecStats

pub mod bytecode;
pub mod exec;
pub mod mutate;
pub mod program;
pub(crate) mod vector;
pub mod verify;

pub use bytecode::{ConstPool, Frag, Op};
pub use mutate::{mutants, Mutant};
pub use program::{collect_pool, compile, CompileMode, VmProgram};
pub use verify::{verify, VerifyError};
