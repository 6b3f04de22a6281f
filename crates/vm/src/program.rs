//! Lowering a generated kernel program to bytecode.
//!
//! [`compile`] walks the rendered program ([`GeneratedQuery`]) exactly the
//! way the executor will run it — staging filters and projections per
//! table, key images per binary join step, argument expressions
//! per aggregate, decode kernels per output column — and emits one flat
//! code array with a fragment table over it.  The walk is canonical: the
//! same plan shape always produces the same instruction sequence and the
//! same constant-pool extraction order, which is what makes a
//! [`CompileMode::Pooled`] program a rebindable template for its whole
//! `shape_class`.
//!
//! Rebinding ([`VmProgram::bind`]) is guarded by a *plan-shape signature*:
//! a structural hash of everything the bytecode's offsets and fragment
//! layout depend on (schemas, kept columns, join order and key columns,
//! aggregate and output structure) and nothing they do not (constant
//! values, cardinality estimates, algorithm choices).  Two queries of one
//! shape class that re-plan to the same structure share one compiled
//! program; a class-mate whose constants change the join order simply
//! falls back to a fresh compile.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use hique_holistic::agg::{AccumLayout, AggNode, AggProgram};
use hique_holistic::kernel::{CompiledExpr, CompiledKey};
use hique_holistic::{GeneratedQuery, OutputKernel};
use hique_storage::Catalog;
use hique_types::{DataType, HiqueError, Result, Schema};

use crate::bytecode::{ConstPool, Frag, Op, RhsF, RhsI, MAX_REGISTERS};

/// Constant-handling strategy of a compiled program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileMode {
    /// Numeric constants folded into the instructions as immediates — the
    /// paper's per-query specialization (string constants stay pooled;
    /// they are compared by reference).
    Specialized,
    /// All constants in the pool: the program is a template shared by its
    /// shape class and rebound per query via [`VmProgram::bind`].
    Pooled,
}

/// Staging fragments of one input table.
#[derive(Debug, Clone, Copy, Default)]
pub struct TableFrags {
    /// Conjunctive predicate tests over the base record.
    pub filter: Frag,
    /// Byte-range copies building the projected record.
    pub project: Frag,
}

/// Key-image fragments of one binary join step.
#[derive(Debug, Clone, Copy)]
pub struct JoinFrags {
    /// Image of the left (accumulated intermediate) key column.
    pub left_image: Frag,
    /// Image of the right (staged input) key column.
    pub right_image: Frag,
}

/// Aggregation fragments: the generator's aggregate program
/// ([`AggProgram`]) lowered once, shared by every aggregate.
#[derive(Debug, Clone)]
pub struct AggFrags {
    /// One image fragment per grouping column (over the joined schema).
    pub group_images: Vec<Frag>,
    /// The program's register DAG, one op per node: op `i` of the fragment
    /// defines register `i` and nothing redefines it.
    pub dag: Frag,
    /// The program's accumulator slots and aggregate finishes; slot
    /// registers name DAG nodes.
    pub layout: AccumLayout,
}

/// How one output column is decoded.
#[derive(Debug, Clone)]
pub enum OutputOp {
    /// Decode the column at the key's offset (any type).
    Column(CompiledKey),
    /// Evaluate a bytecode expression and cast to the output type.
    Expr(Frag, DataType),
    /// The `i`-th grouping column of the aggregation output.
    Group(usize),
    /// The `i`-th aggregate of the aggregation output.
    Aggregate(usize),
}

/// A compiled bytecode program: code, constants and the fragment table.
///
/// The program is pure code — it holds no plan. Execution takes the
/// [`GeneratedQuery`] it was compiled from (or any shape-compatible one
/// after [`VmProgram::bind`]); the signature check at execution time makes
/// a mismatch a typed error instead of undefined decoding.
#[derive(Debug, Clone)]
pub struct VmProgram {
    pub(crate) mode: CompileMode,
    pub(crate) code: Vec<Op>,
    pub(crate) pool: ConstPool,
    /// Indexed by staged-table position in the plan.
    pub(crate) tables: Vec<TableFrags>,
    /// Indexed by position in [`hique_plan::PhysicalPlan::binary_steps`].
    pub(crate) joins: Vec<JoinFrags>,
    pub(crate) agg: Option<AggFrags>,
    pub(crate) outputs: Vec<OutputOp>,
    pub(crate) float_registers: usize,
    pub(crate) signature: u64,
    /// Human-readable structural components behind `signature`, in hash
    /// order — kept so a rebind against a diverged plan can name the first
    /// component that differs instead of reporting a bare hash mismatch.
    pub(crate) structure: Vec<String>,
    pub(crate) compile_cost: Duration,
    pub(crate) verify_cost: Duration,
}

impl VmProgram {
    /// The constant-handling mode this program was compiled in.
    pub fn mode(&self) -> CompileMode {
        self.mode
    }

    /// The plan-shape signature this program is bound to.
    pub fn signature(&self) -> u64 {
        self.signature
    }

    /// Wall time spent compiling (or rebinding) this program — the
    /// bytecode share of the paper's Table III preparation cost.
    pub fn compile_cost(&self) -> Duration {
        self.compile_cost
    }

    /// Wall time spent statically verifying this program (included in
    /// [`VmProgram::compile_cost`]; reported separately so the prepare-cost
    /// figures can show the verifier's share).
    pub fn verify_cost(&self) -> Duration {
        self.verify_cost
    }

    /// Re-run the static verifier against the query this program claims to
    /// implement.  [`compile`] and [`VmProgram::bind`] already verify
    /// unconditionally; this re-check exists for external callers (plan
    /// caches, the conformance mutation lane).
    pub fn verify(
        &self,
        generated: &GeneratedQuery,
        catalog: &Catalog,
    ) -> std::result::Result<(), crate::verify::VerifyError> {
        crate::verify::verify(self, generated, catalog)
    }

    /// Total instructions in the code array.
    pub fn code_len(&self) -> usize {
        self.code.len()
    }

    /// Float registers one evaluation frame needs.
    pub fn float_registers(&self) -> usize {
        self.float_registers
    }

    /// Whether any instruction still references the constant pool (always
    /// `true` for pooled programs with constants; `false` for specialized
    /// programs unless they carry string constants, which stay pooled).
    pub fn has_pool_refs(&self) -> bool {
        self.code.iter().any(|op| {
            matches!(
                op,
                Op::TestI32 {
                    rhs: RhsI::Pool(_),
                    ..
                } | Op::TestI64 {
                    rhs: RhsI::Pool(_),
                    ..
                } | Op::TestF64 {
                    rhs: RhsF::Pool(_),
                    ..
                } | Op::PoolF { .. }
            )
        })
    }

    /// Rebind a pooled template to another query of the same plan shape:
    /// swap in `generated`'s constants and fold them to immediates.  The
    /// result is a [`CompileMode::Specialized`] program for `generated`,
    /// produced without re-lowering any code.  Typed errors when `self` is
    /// not a template or the plan shapes diverge.
    pub fn bind(&self, generated: &GeneratedQuery, catalog: &Catalog) -> Result<VmProgram> {
        let started = Instant::now();
        if self.mode != CompileMode::Pooled {
            return Err(HiqueError::Codegen(
                "only pooled templates can be rebound".into(),
            ));
        }
        let sig = plan_signature(generated, catalog)?;
        if sig != self.signature {
            return Err(structure_divergence(
                &self.structure,
                &plan_structure(generated, catalog)?,
            ));
        }
        let pool = collect_pool(generated, catalog)?;
        if !self.pool.same_shape(&pool) {
            return Err(HiqueError::Unsupported(
                "constant vector shape diverged from the cached template".into(),
            ));
        }
        let mut rebound = self.clone();
        rebound.mode = CompileMode::Specialized;
        rebound.pool = pool;
        fold_constants(&mut rebound.code, &rebound.pool);
        let verify_started = Instant::now();
        crate::verify::verify(&rebound, generated, catalog)?;
        rebound.verify_cost = verify_started.elapsed();
        rebound.compile_cost = started.elapsed();
        Ok(rebound)
    }
}

/// Compile the rendered kernel program into bytecode.
///
/// The catalog supplies base-table schemas (filters run over base records,
/// before projection, exactly like the static staging kernels).
pub fn compile(
    generated: &GeneratedQuery,
    catalog: &Catalog,
    mode: CompileMode,
) -> Result<VmProgram> {
    let started = Instant::now();
    let plan = generated.plan();
    let mut b = Builder::default();

    // Staging fragments, in staged-table order (canonical, independent of
    // the join order the executor stages in).
    let mut tables = Vec::with_capacity(plan.staged.len());
    for staged in &plan.staged {
        let base = catalog.table(&staged.table_name)?.heap.schema().clone();
        let filter_start = b.pc();
        for f in &staged.filters {
            b.emit_test(&base, f)?;
        }
        let filter = b.frag(filter_start);
        let project_start = b.pc();
        let mut dst = 0u32;
        for &c in &staged.keep {
            let width = base.column(c).dtype.width() as u32;
            b.code.push(Op::Copy {
                src: base.offset(c) as u32,
                width,
                dst,
            });
            dst += width;
        }
        let project = b.frag(project_start);
        tables.push(TableFrags { filter, project });
    }

    // Key images per binary step over the accumulating intermediate
    // schema.  A team's steps all key on member 0's column, which stays the
    // record prefix, so one left image serves every step.
    let steps = plan.binary_steps();
    let mut joins: Vec<JoinFrags> = Vec::with_capacity(steps.len());
    if !steps.is_empty() {
        let mut current = plan.staged[plan.join_order[0]].schema.clone();
        for step in &steps {
            let right = &plan.staged[step.right].schema;
            let left_image = match joins.last() {
                Some(prev) if plan.join_team.is_some() => prev.left_image,
                _ => b.emit_image(&current, step.left_key),
            };
            let right_image = b.emit_image(right, step.right_key);
            joins.push(JoinFrags {
                left_image,
                right_image,
            });
            current = current.join(right);
        }
    }

    // Aggregation fragments over the joined schema: the group-key images
    // and the generator's aggregate program, lowered node for node.
    let agg = match plan.aggregate.as_ref().zip(generated.aggregation()) {
        Some((spec, compiled)) => Some(AggFrags {
            group_images: spec
                .group_columns
                .iter()
                .map(|&g| b.emit_image(&plan.joined_schema, g))
                .collect(),
            dag: b.emit_agg_program(compiled.program())?,
            layout: compiled.program().layout().clone(),
        }),
        None => None,
    };

    // Output decode kernels, lowered from the generator's output kernels.
    let mut outputs = Vec::with_capacity(generated.outputs().len());
    for kernel in generated.outputs() {
        outputs.push(match kernel {
            OutputKernel::Column(key) => OutputOp::Column(*key),
            OutputKernel::Expr(expr, dtype) => {
                let frag = b.emit_compiled_expr(expr)?;
                OutputOp::Expr(frag, *dtype)
            }
            OutputKernel::GroupPosition(p) => OutputOp::Group(*p),
            OutputKernel::AggregatePosition(i) => OutputOp::Aggregate(*i),
        });
    }

    let mut program = VmProgram {
        mode,
        code: b.code,
        pool: b.pool,
        tables,
        joins,
        agg,
        outputs,
        float_registers: b.max_regs.max(1),
        signature: plan_signature(generated, catalog)?,
        structure: plan_structure(generated, catalog)?,
        compile_cost: Duration::ZERO,
        verify_cost: Duration::ZERO,
    };
    if mode == CompileMode::Specialized {
        fold_constants(&mut program.code, &program.pool);
    }
    let verify_started = Instant::now();
    crate::verify::verify(&program, generated, catalog)?;
    program.verify_cost = verify_started.elapsed();
    program.compile_cost = started.elapsed();
    Ok(program)
}

/// The typed divergence error for a rebind whose plan-shape signature does
/// not match the template: name the first structural component that
/// differs (by hash-order index) instead of reporting a bare mismatch.
fn structure_divergence(template: &[String], candidate: &[String]) -> HiqueError {
    for (i, (a, b)) in template.iter().zip(candidate).enumerate() {
        if a != b {
            return HiqueError::Unsupported(format!(
                "plan shape diverged from the cached template at component {i}: \
                 template has [{a}], query has [{b}]; full compile required"
            ));
        }
    }
    if template.len() != candidate.len() {
        let i = template.len().min(candidate.len());
        return HiqueError::Unsupported(format!(
            "plan shape diverged from the cached template at component {i}: \
             template has {} components, query has {}; full compile required",
            template.len(),
            candidate.len()
        ));
    }
    // Signatures differ but every component label agrees — the divergence
    // is below the label granularity (e.g. a base-schema change the labels
    // summarize); fall back to the generic message.
    HiqueError::Unsupported(
        "plan shape diverged from the cached template; full compile required".into(),
    )
}

/// Rewrite pooled numeric operands into immediates (string constants stay
/// pooled — they are compared by reference, never copied into code).
fn fold_constants(code: &mut [Op], pool: &ConstPool) {
    for op in code.iter_mut() {
        match op {
            Op::TestI32 { rhs, .. } | Op::TestI64 { rhs, .. } => {
                if let RhsI::Pool(i) = *rhs {
                    *rhs = RhsI::Imm(pool.ints[i as usize]);
                }
            }
            Op::TestF64 { rhs, .. } => {
                if let RhsF::Pool(i) = *rhs {
                    *rhs = RhsF::Imm(pool.floats[i as usize]);
                }
            }
            Op::PoolF { dst, idx } => {
                *op = Op::ConstF {
                    dst: *dst,
                    value: pool.floats[*idx as usize],
                };
            }
            _ => {}
        }
    }
}

/// Emission state: the growing code array, pool, and register high-water.
#[derive(Default)]
struct Builder {
    code: Vec<Op>,
    pool: ConstPool,
    max_regs: usize,
}

impl Builder {
    fn pc(&self) -> u32 {
        self.code.len() as u32
    }

    fn frag(&self, start: u32) -> Frag {
        Frag {
            start,
            end: self.pc(),
        }
    }

    /// One predicate test, typed by the base column (mirrors the static
    /// `CompiledFilter::compile` constant conversions exactly).
    fn emit_test(&mut self, base: &Schema, f: &hique_sql::analyze::ColumnFilter) -> Result<()> {
        let offset = base.offset(f.column) as u32;
        let op = match base.column(f.column).dtype {
            DataType::Int32 | DataType::Date => Op::TestI32 {
                offset,
                op: f.op,
                rhs: RhsI::Pool(self.pool.push_int(f.value.as_i64()? as i32 as i64)),
            },
            DataType::Int64 => Op::TestI64 {
                offset,
                op: f.op,
                rhs: RhsI::Pool(self.pool.push_int(f.value.as_i64()?)),
            },
            DataType::Float64 => Op::TestF64 {
                offset,
                op: f.op,
                rhs: RhsF::Pool(self.pool.push_float(f.value.as_f64()?)),
            },
            DataType::Char(w) => {
                let s = f.value.as_str().ok_or_else(|| {
                    HiqueError::Codegen("string filter on non-string constant".into())
                })?;
                let mut bytes = s.as_bytes().to_vec();
                bytes.resize(w as usize, b' ');
                Op::TestBytes {
                    offset,
                    width: w as u32,
                    op: f.op,
                    pool: self.pool.push_bytes(bytes),
                }
            }
        };
        self.code.push(op);
        Ok(())
    }

    /// One key-image instruction for `column` of `schema`.
    fn emit_image(&mut self, schema: &Schema, column: usize) -> Frag {
        let start = self.pc();
        let offset = schema.offset(column) as u32;
        let col = schema.column(column);
        self.code.push(match col.dtype {
            DataType::Int32 | DataType::Date => Op::ImageI32 { offset },
            DataType::Int64 => Op::ImageI64 { offset },
            DataType::Float64 => Op::ImageF64 { offset },
            DataType::Char(w) => Op::ImageChar {
                offset,
                width: w as u32,
            },
        });
        self.frag(start)
    }

    /// Lower the aggregate program's register DAG: one op per node, node
    /// `i` into register `i` (constants pooled, like every literal).
    fn emit_agg_program(&mut self, program: &AggProgram) -> Result<Frag> {
        let start = self.pc();
        let nodes = program.nodes();
        if nodes.len() > MAX_REGISTERS {
            return Err(HiqueError::Unsupported(format!(
                "aggregate program needs {} registers, the bytecode bank holds {MAX_REGISTERS}",
                nodes.len()
            )));
        }
        self.max_regs = self.max_regs.max(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            let dst = i as u8;
            self.code.push(match *node {
                AggNode::Const(c) => Op::PoolF {
                    dst,
                    idx: self.pool.push_float(c),
                },
                AggNode::ColI32(off) => Op::LoadI32F {
                    dst,
                    offset: off as u32,
                },
                AggNode::ColI64(off) => Op::LoadI64F {
                    dst,
                    offset: off as u32,
                },
                AggNode::ColF64(off) => Op::LoadF {
                    dst,
                    offset: off as u32,
                },
                AggNode::Bin { op, left, right } => Op::Arith {
                    op,
                    dst,
                    a: left as u8,
                    b: right as u8,
                },
            });
        }
        Ok(self.frag(start))
    }

    /// Lower an already-instantiated kernel expression (output kernels).
    fn emit_compiled_expr(&mut self, expr: &CompiledExpr) -> Result<Frag> {
        let start = self.pc();
        self.lower_compiled(expr, 0)?;
        Ok(self.frag(start))
    }

    fn lower_compiled(&mut self, expr: &CompiledExpr, reg: u8) -> Result<()> {
        self.max_regs = self.max_regs.max(reg as usize + 1);
        match expr {
            CompiledExpr::ColI32(off) => self.code.push(Op::LoadI32F {
                dst: reg,
                offset: *off as u32,
            }),
            CompiledExpr::ColI64(off) => self.code.push(Op::LoadI64F {
                dst: reg,
                offset: *off as u32,
            }),
            CompiledExpr::ColF64(off) => self.code.push(Op::LoadF {
                dst: reg,
                offset: *off as u32,
            }),
            CompiledExpr::Const(c) => {
                let idx = self.pool.push_float(*c);
                self.code.push(Op::PoolF { dst: reg, idx });
            }
            CompiledExpr::Bin { op, left, right } => {
                self.lower_compiled(left, reg)?;
                self.lower_compiled(right, reg + 1)?;
                self.code.push(Op::Arith {
                    op: *op,
                    dst: reg,
                    a: reg,
                    b: reg + 1,
                });
            }
        }
        Ok(())
    }
}

/// Extract the constant pool `generated` would compile to, following the
/// exact emission walk of [`compile`] — the canonical constant vector of
/// the query within its shape class.
pub fn collect_pool(generated: &GeneratedQuery, catalog: &Catalog) -> Result<ConstPool> {
    let plan = generated.plan();
    let mut pool = ConstPool::default();
    for staged in &plan.staged {
        let info = catalog.table(&staged.table_name)?;
        let base = info.heap.schema();
        for f in &staged.filters {
            match base.column(f.column).dtype {
                DataType::Int32 | DataType::Date => {
                    pool.push_int(f.value.as_i64()? as i32 as i64);
                }
                DataType::Int64 => {
                    pool.push_int(f.value.as_i64()?);
                }
                DataType::Float64 => {
                    pool.push_float(f.value.as_f64()?);
                }
                DataType::Char(w) => {
                    let s = f.value.as_str().ok_or_else(|| {
                        HiqueError::Codegen("string filter on non-string constant".into())
                    })?;
                    let mut bytes = s.as_bytes().to_vec();
                    bytes.resize(w as usize, b' ');
                    pool.push_bytes(bytes);
                }
            }
        }
    }
    if let Some(compiled) = generated.aggregation() {
        for node in compiled.program().nodes() {
            if let AggNode::Const(c) = node {
                pool.push_float(*c);
            }
        }
    }
    for kernel in generated.outputs() {
        if let OutputKernel::Expr(expr, _) = kernel {
            collect_compiled_literals(expr, &mut pool);
        }
    }
    Ok(pool)
}

fn collect_compiled_literals(expr: &CompiledExpr, pool: &mut ConstPool) {
    match expr {
        CompiledExpr::Const(c) => {
            pool.push_float(*c);
        }
        CompiledExpr::Bin { left, right, .. } => {
            collect_compiled_literals(left, pool);
            collect_compiled_literals(right, pool);
        }
        _ => {}
    }
}

fn dtype_tag(d: DataType) -> (u8, u32) {
    match d {
        DataType::Int32 => (0, 0),
        DataType::Int64 => (1, 0),
        DataType::Float64 => (2, 0),
        DataType::Date => (3, 0),
        DataType::Char(w) => (4, w as u32),
    }
}

/// The structure of the aggregate program: which nodes exist and who reads
/// whom (so two class-mates whose equal or unequal literals intern to
/// different DAGs do not share a template), not what the constants are.
fn hash_agg_program(program: &AggProgram, h: &mut DefaultHasher) {
    program.nodes().len().hash(h);
    for node in program.nodes() {
        match *node {
            AggNode::Const(_) => 0u8.hash(h),
            AggNode::ColI32(off) => (1u8, off).hash(h),
            AggNode::ColI64(off) => (2u8, off).hash(h),
            AggNode::ColF64(off) => (3u8, off).hash(h),
            AggNode::Bin { op, left, right } => (4u8, op as u8, left, right).hash(h),
        }
    }
    program.layout().slots().hash(h);
}

fn hash_compiled_structure(expr: &CompiledExpr, h: &mut DefaultHasher) {
    match expr {
        CompiledExpr::ColI32(off) => (0u8, *off).hash(h),
        CompiledExpr::ColI64(off) => (1u8, *off).hash(h),
        CompiledExpr::ColF64(off) => (2u8, *off).hash(h),
        CompiledExpr::Const(_) => 3u8.hash(h),
        CompiledExpr::Bin { op, left, right } => {
            4u8.hash(h);
            (*op as u8).hash(h);
            hash_compiled_structure(left, h);
            hash_compiled_structure(right, h);
        }
    }
}

fn agg_program_shape(program: &AggProgram) -> String {
    let nodes: Vec<String> = program
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, node)| match *node {
            AggNode::Const(_) => format!("r{i}=const"),
            AggNode::ColI32(off) => format!("r{i}=i32@{off}"),
            AggNode::ColI64(off) => format!("r{i}=i64@{off}"),
            AggNode::ColF64(off) => format!("r{i}=f64@{off}"),
            AggNode::Bin { op, left, right } => format!("r{i}=(r{left} {op:?} r{right})"),
        })
        .collect();
    format!(
        "aggregate program: {} slots={:?}",
        nodes.join(" "),
        program.layout().slots()
    )
}

fn compiled_shape(expr: &CompiledExpr) -> String {
    match expr {
        CompiledExpr::ColI32(off) => format!("i32@{off}"),
        CompiledExpr::ColI64(off) => format!("i64@{off}"),
        CompiledExpr::ColF64(off) => format!("f64@{off}"),
        CompiledExpr::Const(_) => "const".into(),
        CompiledExpr::Bin { op, left, right } => {
            format!(
                "({} {op:?} {})",
                compiled_shape(left),
                compiled_shape(right)
            )
        }
    }
}

/// The human-readable components of the plan-shape signature, in hash
/// order — one label per structural element [`plan_signature`] hashes
/// (and nothing it does not).  Two plans with equal signatures produce
/// equal component lists; a diverged rebind diffs the lists to name the
/// first mismatching component.
pub fn plan_structure(generated: &GeneratedQuery, catalog: &Catalog) -> Result<Vec<String>> {
    let plan = generated.plan();
    let mut parts = Vec::new();
    for (t, staged) in plan.staged.iter().enumerate() {
        let base = catalog.table(&staged.table_name)?.heap.schema().clone();
        let cols: Vec<String> = base
            .columns()
            .iter()
            .map(|c| format!("{:?}", c.dtype))
            .collect();
        let filters: Vec<String> = staged
            .filters
            .iter()
            .map(|f| format!("col{} {:?}", f.column, f.op))
            .collect();
        parts.push(format!(
            "staged[{t}]: table={} keep={:?} base=[{}] filters=[{}]",
            staged.table_name,
            staged.keep,
            cols.join(", "),
            filters.join(", ")
        ));
    }
    parts.push(format!("join order: {:?}", plan.join_order));
    for (i, step) in plan.joins.iter().enumerate() {
        parts.push(format!(
            "join[{i}]: right={} left_key={} right_key={}",
            step.right, step.left_key, step.right_key
        ));
    }
    parts.push(match &plan.join_team {
        Some(team) => format!(
            "team: members={:?} keys={:?}",
            team.members, team.key_columns
        ),
        None => "team: none".into(),
    });
    match &plan.aggregate {
        Some(spec) => {
            parts.push(format!("group columns: {:?}", spec.group_columns));
            if let Some(compiled) = generated.aggregation() {
                let program = compiled.program();
                parts.push(agg_program_shape(program));
                for (i, (slot, func, dtype)) in program.layout().outputs().iter().enumerate() {
                    parts.push(format!(
                        "aggregate[{i}]: {func:?}:{dtype:?} from slot {slot}"
                    ));
                }
            }
        }
        None => parts.push("aggregate: none".into()),
    }
    for (k, kernel) in generated.outputs().iter().enumerate() {
        parts.push(match kernel {
            OutputKernel::Column(key) => format!(
                "output[{k}]: column {:?} at offset {} width {}",
                key.dtype, key.offset, key.width
            ),
            OutputKernel::Expr(expr, dtype) => {
                format!("output[{k}]: expr {} as {dtype:?}", compiled_shape(expr))
            }
            OutputKernel::GroupPosition(p) => format!("output[{k}]: group {p}"),
            OutputKernel::AggregatePosition(i) => format!("output[{k}]: aggregate {i}"),
        });
    }
    Ok(parts)
}

/// The plan-shape signature: a structural hash of everything the compiled
/// bytecode's offsets and fragment layout depend on — base and staged
/// schemas, kept columns, filter structure (column/operator, not values),
/// join order and key columns, team layout, aggregate and output
/// structure.  Deliberately excludes constant values, cardinality
/// estimates, staging strategies and algorithm choices: those vary within
/// a shape class without invalidating the code.
pub fn plan_signature(generated: &GeneratedQuery, catalog: &Catalog) -> Result<u64> {
    let plan = generated.plan();
    let mut h = DefaultHasher::new();
    plan.staged.len().hash(&mut h);
    for staged in &plan.staged {
        staged.table_name.hash(&mut h);
        staged.keep.hash(&mut h);
        let base = catalog.table(&staged.table_name)?.heap.schema().clone();
        for col in base.columns() {
            dtype_tag(col.dtype).hash(&mut h);
        }
        staged.filters.len().hash(&mut h);
        for f in &staged.filters {
            f.column.hash(&mut h);
            (f.op as u8).hash(&mut h);
        }
    }
    plan.join_order.hash(&mut h);
    plan.joins.len().hash(&mut h);
    for step in &plan.joins {
        (step.right, step.left_key, step.right_key).hash(&mut h);
    }
    match &plan.join_team {
        Some(team) => {
            1u8.hash(&mut h);
            team.members.hash(&mut h);
            team.key_columns.hash(&mut h);
        }
        None => 0u8.hash(&mut h),
    }
    match &plan.aggregate {
        Some(spec) => {
            1u8.hash(&mut h);
            spec.group_columns.hash(&mut h);
            if let Some(compiled) = generated.aggregation() {
                let program = compiled.program();
                hash_agg_program(program, &mut h);
                for (slot, func, dtype) in program.layout().outputs() {
                    (*slot, *func as u8).hash(&mut h);
                    dtype_tag(*dtype).hash(&mut h);
                }
            }
        }
        None => 0u8.hash(&mut h),
    }
    generated.outputs().len().hash(&mut h);
    for kernel in generated.outputs() {
        match kernel {
            OutputKernel::Column(key) => {
                (0u8, key.offset, key.width).hash(&mut h);
                dtype_tag(key.dtype).hash(&mut h);
            }
            OutputKernel::Expr(expr, dtype) => {
                1u8.hash(&mut h);
                dtype_tag(*dtype).hash(&mut h);
                hash_compiled_structure(expr, &mut h);
            }
            OutputKernel::GroupPosition(p) => (2u8, *p).hash(&mut h),
            OutputKernel::AggregatePosition(i) => (3u8, *i).hash(&mut h),
        }
    }
    Ok(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::run_expr;
    use crate::vector::resolve_agg_dag;
    use hique_holistic::agg::{AccumSlot, PageFold};
    use hique_plan::{AggAlgorithm, AggregateSpec};
    use hique_sql::analyze::{BoundAggregate, ScalarExpr};
    use hique_sql::ast::{AggFunc, BinOp};
    use hique_types::tuple::encode_record;
    use hique_types::{Column, Value};

    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("i", DataType::Int32),
            Column::new("l", DataType::Int64),
            Column::new("f", DataType::Float64),
            Column::new("g", DataType::Float64),
            Column::new("d", DataType::Date),
        ])
    }

    /// A random expression; subtrees are drawn from `made` (everything
    /// generated so far, across aggregates) to force sharing.
    fn random_expr(rng: &mut XorShift, made: &mut Vec<ScalarExpr>, depth: usize) -> ScalarExpr {
        let s = schema();
        let expr = match rng.below(if depth == 0 { 2 } else { 5 }) {
            0 => {
                let index = rng.below(s.len());
                ScalarExpr::Column {
                    index,
                    dtype: s.column(index).dtype,
                }
            }
            1 => ScalarExpr::Literal(
                [
                    Value::Int32(1),
                    Value::Int32(0),
                    Value::Float64(-0.0),
                    Value::Float64(0.1),
                    Value::Float64(1.0),
                    Value::Int64((1 << 53) + 1),
                ][rng.below(6)]
                .clone(),
            ),
            2 if !made.is_empty() => made[rng.below(made.len())].clone(),
            _ => ScalarExpr::Binary {
                op: [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div][rng.below(4)],
                left: Box::new(random_expr(rng, made, depth - 1)),
                right: Box::new(random_expr(rng, made, depth - 1)),
                dtype: DataType::Float64,
            },
        };
        made.push(expr.clone());
        expr
    }

    fn tree_size(e: &ScalarExpr) -> usize {
        match e {
            ScalarExpr::Binary { left, right, .. } => 1 + tree_size(left) + tree_size(right),
            _ => 1,
        }
    }

    fn edge_records() -> Vec<Vec<u8>> {
        let ints = [0, 1, -1, i32::MIN, i32::MAX];
        let longs = [0, -1, (1i64 << 53) + 1, i64::MIN, i64::MAX];
        let floats = [
            0.0,
            -0.0,
            1.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -1e308,
        ];
        let mut records = Vec::new();
        for (n, &f) in floats.iter().enumerate() {
            for (m, &g) in floats.iter().enumerate() {
                let values = [
                    Value::Int32(ints[(n + m) % ints.len()]),
                    Value::Int64(longs[(n * 3 + m) % longs.len()]),
                    Value::Float64(f),
                    Value::Float64(g),
                    Value::Date(ints[(n + 2 * m) % ints.len()]),
                ];
                records.push(encode_record(&schema(), &values).unwrap());
            }
        }
        records
    }

    /// Aggregate program ≡ tree evaluation, bit for bit, on the compiled
    /// provider (the page fold's lanes over the program's nodes), the scalar
    /// tier (`run_expr` over the lowered DAG, pooled and folded) and the
    /// vectorized tier (the page fold's lanes over the nodes resolved from
    /// the lowered DAG, pooled and folded).
    #[test]
    fn aggregate_program_matches_tree_evaluation_bit_for_bit() {
        let s = schema();
        let records = edge_records();
        let mut shared_somewhere = false;
        for seed in 1..=40u64 {
            let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut made = Vec::new();
            let exprs: Vec<ScalarExpr> = (0..1 + rng.below(6))
                .map(|_| random_expr(&mut rng, &mut made, 3))
                .collect();
            let spec = AggregateSpec {
                group_columns: vec![],
                aggregates: exprs
                    .iter()
                    .map(|e| BoundAggregate {
                        func: AggFunc::Sum,
                        arg: Some(e.clone()),
                        dtype: DataType::Float64,
                    })
                    .collect(),
                algorithm: AggAlgorithm::Map,
            };
            let program = AggProgram::compile(&spec, &s).unwrap();
            shared_somewhere |= program.nodes().len() < exprs.iter().map(tree_size).sum::<usize>();
            // Which register holds aggregate `a`'s argument.
            let arg_reg = |a: usize| match program.layout().slots()
                [program.layout().outputs()[a].0 as usize]
            {
                AccumSlot::Sum(reg) => reg as usize,
                other => panic!("SUM finishes from {other:?}"),
            };
            let trees: Vec<CompiledExpr> = exprs
                .iter()
                .map(|e| CompiledExpr::compile(e, &s).unwrap())
                .collect();

            let mut b = Builder::default();
            let dag = b.emit_agg_program(&program).unwrap();
            let pooled = b.code.clone();
            let mut folded = b.code.clone();
            fold_constants(&mut folded, &b.pool);
            assert!(folded.iter().all(|op| !matches!(op, Op::PoolF { .. })));

            let mut regs = vec![0.0; program.nodes().len().max(1)];
            let packed = records.concat();
            let fill = |nodes: &[AggNode]| {
                let mut fold = PageFold::new(nodes, program.layout(), s.tuple_size());
                assert_eq!(fold.fill(&packed), records.len());
                fold
            };
            let compiled = fill(program.nodes());
            let vectorized = [&pooled, &folded].map(|code| {
                let nodes = resolve_agg_dag(dag.ops(code), &b.pool);
                assert_eq!(nodes.len(), program.nodes().len());
                fill(&nodes)
            });
            for (r, rec) in records.iter().enumerate() {
                for (a, tree) in trees.iter().enumerate() {
                    let want = tree.eval(rec).to_bits();
                    let reg = arg_reg(a);
                    let got = compiled.lane(reg as u16)[r].to_bits();
                    assert_eq!(got, want, "compiled, seed {seed}");
                    for code in [&pooled, &folded] {
                        run_expr(dag.ops(code), &b.pool, rec, &mut regs);
                        assert_eq!(regs[reg].to_bits(), want, "scalar tier, seed {seed}");
                    }
                    for fold in &vectorized {
                        let got = fold.lane(reg as u16)[r].to_bits();
                        assert_eq!(got, want, "vectorized, seed {seed}");
                    }
                }
            }
        }
        assert!(shared_somewhere, "the generator must force shared nodes");
    }

    // ---- Template-cache soundness ------------------------------------------

    fn soundness_catalog() -> Catalog {
        use hique_types::Row;
        let mut cat = Catalog::new();
        cat.create_table(
            "r",
            Schema::new(vec![
                Column::new("k", DataType::Int32),
                Column::new("tag", DataType::Char(4)),
                Column::new("v", DataType::Float64),
            ]),
        )
        .unwrap();
        cat.create_table(
            "s",
            Schema::new(vec![
                Column::new("k", DataType::Int32),
                Column::new("w", DataType::Int64),
            ]),
        )
        .unwrap();
        let tags = ["", "A", "ABCD", "AAA"];
        let floats = [0.5, -0.0, 0.0, 3.5, -2.25, 1e300, f64::INFINITY, f64::NAN];
        for i in 0..300i32 {
            let row = Row::new(vec![
                Value::Int32([i32::MIN, -3, 0, 3, i32::MAX][i as usize % 5] / 7 + i % 11),
                Value::Str(tags[i as usize % tags.len()].into()),
                Value::Float64(floats[(i * 7) as usize % floats.len()] + (i % 3) as f64),
            ]);
            cat.table_mut("r").unwrap().heap.append_row(&row).unwrap();
        }
        for i in 0..40i64 {
            let w = [i64::MIN, -1, 0, 150, i64::MAX][i as usize % 5];
            let row = Row::new(vec![Value::Int32(i as i32 % 11), Value::Int64(w)]);
            cat.table_mut("s").unwrap().heap.append_row(&row).unwrap();
        }
        cat.analyze_table("r").unwrap();
        cat.analyze_table("s").unwrap();
        cat
    }

    /// A float literal of 10^200: its square folds to +∞, and ∞ − ∞ to NaN.
    fn big() -> String {
        format!("1{}.0", "0".repeat(200))
    }

    /// The one plan `compile` refuses: an aggregate DAG wider than the
    /// register bank (1 load + 100 constants + 100 adds = 201 nodes) is a
    /// typed `Unsupported` naming the register count, in both modes.
    #[test]
    fn an_aggregate_wider_than_the_register_bank_is_a_typed_refusal() {
        let cat = soundness_catalog();
        let sums: Vec<String> = (1..=100).map(|i| format!("sum(v + {i}) as a{i}")).collect();
        let sql = format!("select k, {} from r group by k", sums.join(", "));
        let plan = hique_plan::plan_sql(&sql, &cat, &hique_plan::PlannerConfig::default());
        let generated = hique_holistic::generate(&plan.unwrap()).unwrap();
        for mode in [CompileMode::Specialized, CompileMode::Pooled] {
            match compile(&generated, &cat, mode) {
                Err(HiqueError::Unsupported(msg)) => assert_eq!(
                    msg,
                    format!(
                        "aggregate program needs 201 registers, the bytecode bank holds \
                         {MAX_REGISTERS}"
                    )
                ),
                other => panic!("{mode:?}: expected the register-bank refusal, got {other:?}"),
            }
        }
    }

    /// Template hit + `bind()` ≡ cold prepare, or a named refusal: for
    /// seeded literal vectors of several shape classes, binding one
    /// vector's pooled template to another vector's query either refuses
    /// with a typed `Unsupported` naming the diverging component, or yields
    /// exactly the program a specialized compile of that query produces and
    /// executes to the same rows (floats by bit pattern) and `ExecStats`.
    #[test]
    fn a_rebound_template_is_the_cold_compile_or_a_named_refusal() {
        let cat = soundness_catalog();
        let (inf, nan) = (
            format!("({0} * {0})", big()),
            format!("({0} * {0} - {0} * {0})", big()),
        );
        let neg_inf = format!("(0 - {inf})");
        // Integer slots hold the extremes; float slots mix integer and float
        // literals (int↔float in one slot), signed zero, ±∞ and NaN.
        let ints = ["2147483647", "-2147483648", "0", "3", "-7"];
        let longs = [
            "-9223372036854775807 - 1",
            "9223372036854775807",
            "0",
            "150",
            "-1",
        ];
        let floats: Vec<&str> = vec!["3", "3.5", "-0.0", "1", &inf, &neg_inf, &nan];
        // Empty, short, full-width and wider than the `Char(4)` column.
        let strings = ["", "A", "ABCD", "AAA", "ABCDE"];
        type Class<'a> = (Vec<&'a [&'a str]>, fn(&[&str]) -> String);
        let classes: Vec<Class> = vec![
            (vec![&ints, &floats, &strings], |l| {
                format!(
                    "select k, v, tag from r where k < {} and v >= {} and tag <> '{}' \
                     order by k, v, tag",
                    l[0], l[1], l[2]
                )
            }),
            (vec![&longs, &floats], |l| {
                format!(
                    "select r.k, s.w from r, s where r.k = s.k and s.w > {} and r.v < {} \
                     order by r.k, s.w",
                    l[0], l[1]
                )
            }),
            // Equal literals intern to one DAG node, different ones to two.
            (vec![&floats, &floats, &floats, &ints], |l| {
                format!(
                    "select k, sum(v * {}) as x, avg(v * {} + 1) as y, max(v / {}) as z, \
                     count(*) as n from r where k < {} group by k order by k",
                    l[0], l[1], l[2], l[3]
                )
            }),
            (vec![&floats, &floats, &strings], |l| {
                format!(
                    "select k, v * {} - {} as e from r where tag = '{}' order by k, e",
                    l[0], l[1], l[2]
                )
            }),
        ];
        let prepare = |sql: &str| {
            let plan = hique_plan::plan_sql(sql, &cat, &hique_plan::PlannerConfig::default());
            hique_holistic::generate(&plan.unwrap_or_else(|e| panic!("{sql}: {e}"))).unwrap()
        };
        let program_parts = |p: &VmProgram| {
            format!(
                "{:?}",
                (
                    &p.code,
                    &p.pool,
                    &p.tables,
                    &p.joins,
                    &p.agg,
                    &p.outputs,
                    p.float_registers,
                )
            )
        };
        let options = hique_holistic::ExecOptions::default();
        let (mut hits, mut refusals) = (0, 0);
        let mut rng = XorShift(0x5EED_CAFE_F00D_1234);
        for (slots, sql) in &classes {
            let queries: Vec<String> = (0..6)
                .map(|_| {
                    let literals: Vec<&str> = slots.iter().map(|s| s[rng.below(s.len())]).collect();
                    sql(&literals)
                })
                .collect();
            for template_sql in &queries {
                let template = compile(&prepare(template_sql), &cat, CompileMode::Pooled).unwrap();
                for sql in &queries {
                    let query = prepare(sql);
                    let context = format!("template [{template_sql}] bound to [{sql}]");
                    let rebound = match template.bind(&query, &cat) {
                        Ok(rebound) => rebound,
                        Err(HiqueError::Unsupported(msg)) => {
                            assert!(msg.contains("component"), "{context}: {msg}");
                            refusals += 1;
                            continue;
                        }
                        Err(e) => panic!("{context}: untyped refusal {e}"),
                    };
                    let cold = compile(&query, &cat, CompileMode::Specialized).unwrap();
                    assert_eq!(rebound.mode, CompileMode::Specialized, "{context}");
                    assert_eq!(program_parts(&rebound), program_parts(&cold), "{context}");
                    let (a, b) = (
                        rebound.execute(&query, &cat, &options).unwrap(),
                        cold.execute(&query, &cat, &options).unwrap(),
                    );
                    let exact = |rows: &[hique_types::Row]| -> Vec<String> {
                        let value = |v: &Value| match v {
                            Value::Float64(f) => format!("f64:{:016x}", f.to_bits()),
                            other => format!("{other:?}"),
                        };
                        rows.iter()
                            .map(|r| r.values().iter().map(value).collect::<Vec<_>>().join("|"))
                            .collect()
                    };
                    assert_eq!(exact(&a.rows), exact(&b.rows), "{context}: rows");
                    assert_eq!(a.stats, b.stats, "{context}: stats");
                    hits += 1;
                }
            }
        }
        assert!(
            hits > 40 && refusals > 10,
            "{hits} hits, {refusals} refusals"
        );
    }
}
