//! Query-time kernel compilation: the bytecode VM engine mode.
//!
//! The paper's holistic model generates C source per query and compiles it
//! with `gcc` at prepare time; this workspace's `hique-holistic` crate
//! instantiates the same templates as statically compiled Rust kernels
//! (DESIGN.md §2).  This crate closes the gap with compilation that really
//! happens at query time: [`compile`] lowers the generated kernel program
//! into compact register-machine bytecode
//! ([`bytecode::Op`]), and [`VmProgram::execute`] plugs it into the shared
//! evaluate-query driver as the fifth engine mode (`vm`) — same threads,
//! memory budget, spill namespaces, cancellation and [`ExecStats`] contract
//! as the holistic engine, because it is the same driver (DESIGN.md §13).
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
//! Execution has two tiers ([`exec::Tier`]).  The default vectorized tier
//! is a front end to the compiled kernels (`vector` module, DESIGN.md
//! §15): once per hook call it resolves the verified fragments into the
//! objects the generator builds — filter sweeps and a copy plan staged
//! through core's one scan loop, the aggregation's page fold, key-image
//! sweeps — so what runs is exactly what was verified.  The scalar tier
//! is the row-at-a-time reference interpreter it is tested against.
//! Results and [`ExecStats`] are bit-identical across tiers, with
//! `vm_batches` recording which tier ran.
//!
//! Every compiled or rebound program passes a static verifier
//! ([`verify::verify`]) before it can reach the interpreter: abstract
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
pub use exec::Tier;
pub use mutate::{mutants, Mutant};
pub use program::{collect_pool, compile, plan_signature, plan_structure, CompileMode, VmProgram};
pub use verify::{verify, VerifyError};
