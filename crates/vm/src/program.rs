//! Lowering a generated kernel program to bytecode.
//!
//! [`compile`] walks the generated program ([`GeneratedQuery`]) exactly the
//! way the executor will run it — staging filters and projections per
//! table, key images per binary join step, the aggregate program, the
//! output program and a decode kernel per output column — and emits one
//! flat code array with a fragment table over it.  Both register programs
//! lower through one routine: op `i` of the fragment defines register `i`,
//! a `u16` like the generator's own, so every program the generator
//! accepts lowers.  The walk is canonical: the same plan shape always
//! produces the same instruction sequence and the same constant-pool
//! extraction order, which is what makes a [`CompileMode::Pooled`] program
//! a rebindable template for its whole shape class
//! ([`hique_plan::ShapeKey`]).
//!
//! Rebinding ([`VmProgram::bind`]) swaps in a class-mate's constants and
//! verifies the result like any program: it is accepted iff it decodes to
//! the class-mate's kernel set ([`crate::verify()`]).  Two queries of one
//! shape class that re-plan to the same kernels share one compiled
//! program; a class-mate whose constants change the join order or the
//! shared nodes of a register program diverges at a named component and
//! falls back to a fresh compile.

use std::time::{Duration, Instant};

use hique_holistic::agg::{AccumLayout, AggNode};
use hique_holistic::kernel::CompiledKey;
use hique_holistic::{GeneratedQuery, OutputKernel};
use hique_sql::analyze::ColumnFilter;
use hique_storage::Catalog;
use hique_types::{DataType, HiqueError, Result, Schema};

use crate::bytecode::{ConstPool, Frag, Op, RhsF, RhsI};
use crate::verify::VerifyError;

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
/// ([`hique_holistic::agg::AggProgram`]) lowered once, shared by every
/// aggregate.
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
#[derive(Debug, Clone, PartialEq)]
pub enum OutputOp {
    /// Decode the column at the key's offset (any type).
    Column(CompiledKey),
    /// Register of the output program, cast to the output type.
    Expr(u16, DataType),
    /// The `i`-th grouping column of the aggregation output.
    Group(usize),
    /// The `i`-th aggregate of the aggregation output.
    Aggregate(usize),
}

impl OutputOp {
    /// The output kernel this entry decodes to.
    pub(crate) fn kernel(&self) -> OutputKernel {
        match *self {
            OutputOp::Column(key) => OutputKernel::Column(key),
            OutputOp::Expr(reg, dtype) => OutputKernel::Expr(reg, dtype),
            OutputOp::Group(p) => OutputKernel::GroupPosition(p),
            OutputOp::Aggregate(i) => OutputKernel::AggregatePosition(i),
        }
    }
}

/// A compiled bytecode program: code, constants and the fragment table.
///
/// The program is pure code — it holds no plan. Execution takes the
/// [`GeneratedQuery`] it was compiled from (or rebound to with
/// [`VmProgram::bind`]) and decodes the program against it, so a mismatch
/// is a typed error instead of undefined decoding.
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
    /// The generator's output program, one op per node: op `i` defines
    /// register `i`.  Run once per output record; empty when no output is
    /// arithmetic.
    pub(crate) output_dag: Frag,
    pub(crate) outputs: Vec<OutputOp>,
    pub(crate) compile_cost: Duration,
    pub(crate) verify_cost: Duration,
}

impl VmProgram {
    /// The constant-handling mode this program was compiled in.
    pub fn mode(&self) -> CompileMode {
        self.mode
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
    ) -> std::result::Result<(), crate::verify::VerifyError> {
        crate::verify::verify(self, generated)
    }

    /// Total instructions in the code array.
    pub fn code_len(&self) -> usize {
        self.code.len()
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
    /// not a template, and [`HiqueError::Unsupported`] naming the first
    /// diverging component when the template with `generated`'s constants
    /// does not decode to `generated`'s kernels.
    pub fn bind(&self, generated: &GeneratedQuery, catalog: &Catalog) -> Result<VmProgram> {
        #[expect(clippy::disallowed_methods, reason = "compile, verify and bind cost")]
        let started = Instant::now();
        if self.mode != CompileMode::Pooled {
            return Err(HiqueError::Codegen(
                "only pooled templates can be rebound".into(),
            ));
        }
        let mut rebound = self.clone();
        rebound.pool = collect_pool(generated, catalog)?;
        // Verified while pooled, so every slot the code names exists before
        // it is folded.
        #[expect(clippy::disallowed_methods, reason = "compile, verify and bind cost")]
        let verify_started = Instant::now();
        crate::verify::verify(&rebound, generated).map_err(VerifyError::refusal)?;
        rebound.verify_cost = verify_started.elapsed();
        rebound.mode = CompileMode::Specialized;
        fold_constants(&mut rebound.code, &rebound.pool);
        rebound.compile_cost = started.elapsed();
        Ok(rebound)
    }
}

/// Compile the generated kernel program into bytecode.
///
/// The catalog supplies base-table schemas (filters run over base records,
/// before projection, exactly like the static staging kernels).
pub fn compile(
    generated: &GeneratedQuery,
    catalog: &Catalog,
    mode: CompileMode,
) -> Result<VmProgram> {
    #[expect(clippy::disallowed_methods, reason = "compile, verify and bind cost")]
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
            b.code.push(test_op(&base, f, &mut b.pool)?);
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
    let kernels = generated.kernels();
    let agg = plan
        .aggregate
        .as_ref()
        .zip(kernels.aggregation.as_ref())
        .map(|(spec, compiled)| AggFrags {
            group_images: spec
                .group_columns
                .iter()
                .map(|&g| b.emit_image(&plan.joined_schema, g))
                .collect(),
            dag: b.emit_dag(compiled.program().nodes()),
            layout: compiled.program().layout().clone(),
        });

    // The output program and the decode kernels over it, lowered from the
    // generator's output kernels.
    let output_dag = b.emit_dag(&kernels.output_program);
    let outputs = kernels
        .outputs
        .iter()
        .map(|kernel| match kernel {
            OutputKernel::Column(key) => OutputOp::Column(*key),
            OutputKernel::Expr(reg, dtype) => OutputOp::Expr(*reg, *dtype),
            OutputKernel::GroupPosition(p) => OutputOp::Group(*p),
            OutputKernel::AggregatePosition(i) => OutputOp::Aggregate(*i),
        })
        .collect();

    let mut program = VmProgram {
        mode,
        code: b.code,
        pool: b.pool,
        tables,
        joins,
        agg,
        output_dag,
        outputs,
        compile_cost: Duration::ZERO,
        verify_cost: Duration::ZERO,
    };
    if mode == CompileMode::Specialized {
        fold_constants(&mut program.code, &program.pool);
    }
    #[expect(clippy::disallowed_methods, reason = "compile, verify and bind cost")]
    let verify_started = Instant::now();
    crate::verify::verify(&program, generated)?;
    program.verify_cost = verify_started.elapsed();
    program.compile_cost = started.elapsed();
    Ok(program)
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

/// Emission state: the growing code array and pool.
#[derive(Default)]
struct Builder {
    code: Vec<Op>,
    pool: ConstPool,
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

    /// Lower a register program (the aggregate or the output program): one
    /// op per node, node `i` into register `i` (constants pooled, like
    /// every literal).
    fn emit_dag(&mut self, nodes: &[AggNode]) -> Frag {
        let start = self.pc();
        for (i, node) in nodes.iter().enumerate() {
            // The generator's registers are `u16`: `i` fits.
            let dst = i as u16;
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
                    a: left,
                    b: right,
                },
            });
        }
        self.frag(start)
    }
}

/// The test op of one filter over the base record, its constant pushed to
/// `pool` — the one place the VM converts a filter constant, with the
/// conversions of `CompiledFilter::compile`: an `Int32`/`Date` column's
/// constant narrowed to `i32`, a `Char(w)` constant space-padded to `w`
/// bytes (a longer one is kept whole).
fn test_op(base: &Schema, f: &ColumnFilter, pool: &mut ConstPool) -> Result<Op> {
    let (offset, op) = (base.offset(f.column) as u32, f.op);
    Ok(match base.column(f.column).dtype {
        DataType::Int32 | DataType::Date => Op::TestI32 {
            offset,
            op,
            rhs: RhsI::Pool(pool.push_int(f.value.as_i64()? as i32 as i64)),
        },
        DataType::Int64 => Op::TestI64 {
            offset,
            op,
            rhs: RhsI::Pool(pool.push_int(f.value.as_i64()?)),
        },
        DataType::Float64 => Op::TestF64 {
            offset,
            op,
            rhs: RhsF::Pool(pool.push_float(f.value.as_f64()?)),
        },
        DataType::Char(w) => {
            let s = f.value.as_str().ok_or_else(|| {
                HiqueError::Codegen("string filter on non-string constant".into())
            })?;
            let mut bytes = s.as_bytes().to_vec();
            if bytes.len() < w as usize {
                bytes.resize(w as usize, b' ');
            }
            Op::TestBytes {
                offset,
                width: w as u32,
                op,
                pool: pool.push_bytes(bytes),
            }
        }
    })
}

/// Extract the constant pool `generated` would compile to, in the emission
/// order of [`compile`] — the canonical constant vector of the query within
/// its shape class.
pub fn collect_pool(generated: &GeneratedQuery, catalog: &Catalog) -> Result<ConstPool> {
    let plan = generated.plan();
    let mut pool = ConstPool::default();
    for staged in &plan.staged {
        let info = catalog.table(&staged.table_name)?;
        for f in &staged.filters {
            test_op(info.heap.schema(), f, &mut pool)?;
        }
    }
    // The register programs' constants, in emission order.
    let kernels = generated.kernels();
    let aggregate = kernels.aggregation.as_ref().map(|c| c.program().nodes());
    for node in aggregate
        .unwrap_or_default()
        .iter()
        .chain(&kernels.output_program)
    {
        if let AggNode::Const(c) = node {
            pool.push_float(*c);
        }
    }
    Ok(pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::run_expr;
    use crate::vector::dag;
    use hique_holistic::agg::{AccumSlot, AggProgram, PageFold};
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

    /// The same bits, or NaN where the reference is NaN: IEEE 754 leaves the
    /// sign and payload of an invalid operation's NaN unspecified, and an
    /// optimised build's constant folder and its run-time arithmetic pick
    /// different ones (the engine canonicalises where a value leaves it,
    /// `Value::from_f64`).
    fn same_f64(got: f64, want: f64) -> bool {
        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
    }

    /// Aggregate program ≡ tree evaluation, bit for bit, on the generator's
    /// program (the page fold's lanes over its nodes), the per-op reference
    /// interpreter (`run_expr` over the lowered DAG, pooled and folded) and
    /// the resolved program (the page fold's lanes over the nodes resolved
    /// from the lowered DAG, pooled and folded).
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
            let mut b = Builder::default();
            let frag = b.emit_dag(program.nodes());
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
            let resolved = [&pooled, &folded].map(|code| {
                let nodes = dag(frag.ops(code), &b.pool).unwrap();
                assert_eq!(nodes.len(), program.nodes().len());
                fill(&nodes)
            });
            for (r, rec) in records.iter().enumerate() {
                for (a, tree) in exprs.iter().enumerate() {
                    let want = tree.eval_f64_record(rec, &s);
                    let reg = arg_reg(a);
                    let check = |got: f64, what: &str| {
                        assert!(
                            same_f64(got, want),
                            "{what}, seed {seed}: {got:?} ({:#x}) vs {want:?} ({:#x})",
                            got.to_bits(),
                            want.to_bits()
                        )
                    };
                    check(compiled.lane(reg as u16)[r], "compiled");
                    for code in [&pooled, &folded] {
                        run_expr(frag.ops(code), &b.pool, rec, &mut regs);
                        check(regs[reg], "reference interpreter");
                    }
                    for fold in &resolved {
                        check(fold.lane(reg as u16)[r], "resolved");
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

    /// An aggregate DAG of 201 nodes (1 load + 100 constants + 100 adds) —
    /// wider than any one-byte register file — compiles in both modes,
    /// verifies, and executes to exactly the holistic engine's rows.
    #[test]
    fn a_201_node_aggregate_compiles_verifies_and_matches_holistic() {
        let cat = soundness_catalog();
        let sums: Vec<String> = (1..=100).map(|i| format!("sum(v + {i}) as a{i}")).collect();
        let sql = format!("select k, {} from r group by k order by k", sums.join(", "));
        let plan = hique_plan::plan_sql(&sql, &cat, &hique_plan::PlannerConfig::default());
        let generated = hique_holistic::generate(&plan.unwrap()).unwrap();
        let aggregation = generated.kernels().aggregation.as_ref().unwrap();
        assert_eq!(aggregation.program().nodes().len(), 201);
        let holistic = generated.execute(&cat).unwrap();
        for mode in [CompileMode::Specialized, CompileMode::Pooled] {
            let program = compile(&generated, &cat, mode).unwrap();
            assert_eq!(program.agg.as_ref().unwrap().dag.len(), 201, "{mode:?}");
            program.verify(&generated).unwrap();
            let options = hique_types::ExecOptions::default();
            let vm = program.execute(&generated, &cat, &options).unwrap();
            assert_eq!(
                format!("{:?}", vm.rows),
                format!("{:?}", holistic.rows),
                "{mode:?}"
            );
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
                    p.output_dag,
                    &p.outputs,
                )
            )
        };
        let options = hique_types::ExecOptions::default();
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
