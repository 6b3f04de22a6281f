//! The resolvers: verified bytecode fragments → the kernel objects of the
//! paper's instantiated templates.
//!
//! The per-op interpreter in [`crate::bytecode`] would pay one dispatch per
//! op per tuple — exactly the per-tuple overhead the paper's compiled
//! kernels eliminate — so nothing executes it: it is the definition of the
//! ops the resolvers are tested against.  Once per execution [`resolve`]
//! reads the fragments, with their operands from the constant pool, into
//! the [`KernelSet`] the generator builds from the plan, and the driver
//! runs that.  A staged table's filter and projection fragments become a
//! [`ScanKernels`] ([`resolve_scan`]); a key-image fragment names the
//! [`CompiledKey`] whose image it computes ([`image_key`]); the aggregate
//! and the output DAG fragments become register programs
//! ([`resolve_agg_dag`]).
//!
//! What runs is what the verifier checked: every resolver reads the
//! fragments themselves and maps them op for op (a test to a filter sweep,
//! the `Copy` list to the copy plan, DAG op `i` to node `i`), so results and
//! every [`hique_types::ExecStats`] work counter equal the generator's
//! kernels' by construction.

use hique_holistic::agg::{AggNode, AggProgram, CompiledAgg};
use hique_holistic::kernel::{CompiledFilter, CompiledKey, CompiledProjection};
use hique_holistic::staging::ScanKernels;
use hique_holistic::{KernelSet, OutputKernel};
use hique_plan::PhysicalPlan;
use hique_types::DataType;

use crate::bytecode::{image_key, rhs_f, rhs_i, ConstPool, Frag, Op};
use crate::program::{OutputOp, TableFrags, VmProgram};

/// The page sweep of one predicate-test op.
fn sweep_of(op: &Op, pool: &ConstPool) -> CompiledFilter {
    let key = |offset: u32, dtype| CompiledKey::at(offset as usize, dtype);
    match *op {
        Op::TestI32 { offset, op, rhs } => {
            CompiledFilter::on_int(key(offset, DataType::Int32), op, rhs_i(rhs, pool))
        }
        Op::TestI64 { offset, op, rhs } => {
            CompiledFilter::on_int(key(offset, DataType::Int64), op, rhs_i(rhs, pool))
        }
        Op::TestF64 { offset, op, rhs } => {
            CompiledFilter::on_float(key(offset, DataType::Float64), op, rhs_f(rhs, pool))
        }
        Op::TestBytes {
            offset,
            width,
            op,
            pool: slot,
        } => CompiledFilter::on_bytes(
            key(offset, DataType::Char(width as u16)),
            op,
            pool.bytes[slot as usize].clone(),
        ),
        _ => unreachable!("non-test op in filter fragment"),
    }
}

/// Resolve a filter fragment against the program's constant pool: one
/// page sweep ([`CompiledFilter::narrow`]) per test, in fragment order, so
/// nothing about a test is dispatched per row.
pub(crate) fn resolve_filter(ops: &[Op], pool: &ConstPool) -> Vec<CompiledFilter> {
    ops.iter().map(|op| sweep_of(op, pool)).collect()
}

/// The copy plan of a projection fragment: the same coalesced,
/// constant-width copies the compiled kernels run
/// ([`CompiledProjection::append`]), built from the verified `Copy` list.
pub(crate) fn copy_plan(ops: &[Op]) -> CompiledProjection {
    CompiledProjection::from_copies(ops.iter().map(|op| match *op {
        Op::Copy { src, width, dst } => (src as usize, width as usize, dst as usize),
        _ => unreachable!("non-copy op in projection fragment"),
    }))
}

/// The scan of one staged table, resolved from its filter and projection
/// fragments: what core's staging loop sweeps over the table's pages.
pub(crate) fn resolve_scan(frags: &TableFrags, code: &[Op], pool: &ConstPool) -> ScanKernels {
    ScanKernels {
        filters: resolve_filter(frags.filter.ops(code), pool),
        projection: copy_plan(frags.project.ops(code)),
    }
}

/// Resolve a register-program fragment (the aggregate or the output DAG)
/// against the program's constant pool into the generator's nodes: op `i`
/// of the fragment defines register `i` (the verifier holds the fragment
/// to the generator's program node for node), so the ops *are* the
/// program's nodes.
pub(crate) fn resolve_agg_dag(ops: &[Op], pool: &ConstPool) -> Vec<AggNode> {
    ops.iter()
        .map(|op| match *op {
            Op::LoadF { offset, .. } => AggNode::ColF64(offset as usize),
            Op::LoadI32F { offset, .. } => AggNode::ColI32(offset as usize),
            Op::LoadI64F { offset, .. } => AggNode::ColI64(offset as usize),
            Op::ConstF { value, .. } => AggNode::Const(value),
            Op::PoolF { idx, .. } => AggNode::Const(pool.floats[idx as usize]),
            Op::Arith { op, a, b, .. } => AggNode::Bin {
                op,
                left: a,
                right: b,
            },
            _ => unreachable!("non-expression op in expression fragment"),
        })
        .collect()
}

/// Resolve a verified program into the kernel set the driver runs for
/// `plan`, the plan it was compiled (or rebound) for.
///
/// Every kernel comes from the fragments; the plan supplies only what the
/// bytecode does not encode and the verifier held the fragments to: the
/// joined record's width, and the type a group value decodes to (an
/// `i32` and a date column share one image op).
pub(crate) fn resolve(program: &VmProgram, plan: &PhysicalPlan) -> KernelSet {
    let (code, pool) = (&program.code[..], &program.pool);
    let key = |frag: Frag| image_key(frag.ops(code));
    let joined = &plan.joined_schema;
    let aggregation = program.agg.as_ref().zip(plan.aggregate.as_ref());
    KernelSet {
        scans: program
            .tables
            .iter()
            .map(|frags| resolve_scan(frags, code, pool))
            .collect(),
        joins: program
            .joins
            .iter()
            .map(|j| (key(j.left_image), key(j.right_image)))
            .collect(),
        aggregation: aggregation.map(|(frags, spec)| {
            let group_keys = frags
                .group_images
                .iter()
                .zip(&spec.group_columns)
                .map(|(&frag, &c)| CompiledKey {
                    dtype: joined.column(c).dtype,
                    ..key(frag)
                })
                .collect();
            let nodes = resolve_agg_dag(frags.dag.ops(code), pool);
            let program = AggProgram::new(nodes, frags.layout.clone());
            CompiledAgg::new(group_keys, program, joined.tuple_size())
        }),
        outputs: program
            .outputs
            .iter()
            .map(|output| match *output {
                OutputOp::Column(key) => OutputKernel::Column(key),
                OutputOp::Expr(reg, dtype) => OutputKernel::Expr(reg, dtype),
                OutputOp::Group(p) => OutputKernel::GroupPosition(p),
                OutputOp::Aggregate(i) => OutputKernel::AggregatePosition(i),
            })
            .collect(),
        output_program: resolve_agg_dag(program.output_dag.ops(code), pool),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{run_expr, run_filter, run_image, run_project, RhsF, RhsI};
    use hique_holistic::agg::{AccumLayout, AggProgram, PageFold};
    use hique_holistic::kernel::Selection;
    use hique_sql::ast::{BinOp, CmpOp};
    use hique_types::tuple::encode_record;
    use hique_types::{Column, DataType, Schema, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("i", DataType::Int32),
            Column::new("f", DataType::Float64),
            Column::new("s", DataType::Char(4)),
            Column::new("l", DataType::Int64),
        ])
    }

    fn record(i: i32, f: f64, s: &str, l: i64) -> Vec<u8> {
        encode_record(
            &schema(),
            &[
                Value::Int32(i),
                Value::Float64(f),
                Value::Str(s.into()),
                Value::Int64(l),
            ],
        )
        .unwrap()
    }

    fn records(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                record(
                    i as i32 % 7,
                    i as f64 * 0.5,
                    ["aa", "bb", "cc"][i % 3],
                    i as i64,
                )
            })
            .collect()
    }

    fn filter_ops() -> (Vec<Op>, ConstPool) {
        let s = schema();
        let mut pool = ConstPool::default();
        let slot = pool.push_bytes(b"aa  ".to_vec());
        let ops = vec![
            Op::TestI32 {
                offset: s.offset(0) as u32,
                op: CmpOp::Lt,
                rhs: RhsI::Imm(5),
            },
            Op::TestF64 {
                offset: s.offset(1) as u32,
                op: CmpOp::GtEq,
                rhs: RhsF::Imm(2.0),
            },
            Op::TestBytes {
                offset: s.offset(2) as u32,
                width: 4,
                op: CmpOp::NotEq,
                pool: slot,
            },
        ];
        (ops, pool)
    }

    /// Narrow the identity selection over packed `recs` by the filters
    /// resolved from `ops`, charging each the selection entering it — what
    /// core's scan loop does per page.
    fn filter_packed(ops: &[Op], pool: &ConstPool, recs: &[Vec<u8>]) -> (Vec<u32>, u64) {
        let (data, width) = (recs.concat(), schema().tuple_size());
        let (mut sel, mut cmp) = (Selection::new(), 0u64);
        sel.select_all(recs.len());
        for filter in resolve_filter(ops, pool) {
            cmp += sel.len() as u64;
            filter.narrow(&data, width, &mut sel);
        }
        (sel.rows().to_vec(), cmp)
    }

    #[test]
    fn empty_batch_yields_empty_selection() {
        let (ops, pool) = filter_ops();
        let (sel, cmp) = filter_packed(&ops, &pool, &[]);
        assert!(sel.is_empty());
        assert_eq!(cmp, 0);
        let mut out = Vec::new();
        copy_plan(&[]).append(&[], schema().tuple_size(), &sel, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn all_pass_and_last_row_only_selections() {
        let s = schema();
        let recs = records(6);
        let pool = ConstPool::default();
        // All pass.
        let test = |op, v| Op::TestI64 {
            offset: s.offset(3) as u32,
            op,
            rhs: RhsI::Imm(v),
        };
        let (sel, cmp) = filter_packed(&[test(CmpOp::GtEq, 0)], &pool, &recs);
        assert_eq!(sel, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(cmp, 6);
        // Only the last row survives.
        let (sel, _) = filter_packed(&[test(CmpOp::Eq, 5)], &pool, &recs);
        assert_eq!(sel, vec![5]);
    }

    #[test]
    fn batched_filter_matches_scalar_selection_and_comparisons() {
        let (ops, pool) = filter_ops();
        let recs = records(100);
        let (sel, cmp) = filter_packed(&ops, &pool, &recs);
        let mut scalar_cmp = 0u64;
        let survivors: Vec<u32> = recs
            .iter()
            .enumerate()
            .filter(|(_, r)| run_filter(&ops, &pool, r, &mut scalar_cmp))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(sel, survivors);
        assert_eq!(cmp, scalar_cmp, "short-circuit accounting must agree");
    }

    #[test]
    fn copy_plan_and_batched_images_match_scalar() {
        let s = schema();
        let recs = records(50);
        let refs: Vec<&[u8]> = recs.iter().map(|r| r.as_slice()).collect();
        let proj = [
            Op::Copy {
                src: s.offset(3) as u32,
                width: 8,
                dst: 0,
            },
            Op::Copy {
                src: s.offset(0) as u32,
                width: 4,
                dst: 8,
            },
        ];
        let sel: Vec<u32> = (0..refs.len() as u32).step_by(3).collect();
        let mut out = Vec::new();
        copy_plan(&proj).append(&recs.concat(), s.tuple_size(), &sel, &mut out);
        let mut scalar = Vec::new();
        let mut buf = vec![0u8; 12];
        for &i in &sel {
            run_project(&proj, refs[i as usize], &mut buf);
            scalar.extend_from_slice(&buf);
        }
        assert_eq!(out, scalar);

        for image in [
            Op::ImageI32 {
                offset: s.offset(0) as u32,
            },
            Op::ImageF64 {
                offset: s.offset(1) as u32,
            },
            Op::ImageChar {
                offset: s.offset(2) as u32,
                width: 4,
            },
            Op::ImageI64 {
                offset: s.offset(3) as u32,
            },
        ] {
            let mut lane = vec![7];
            image_key(&[image]).images_into(&recs.concat(), s.tuple_size(), &mut lane);
            assert_eq!(lane.remove(0), 7, "appended to the lane");
            let scalar: Vec<u64> = refs.iter().map(|r| run_image(&[image], r)).collect();
            assert_eq!(lane, scalar);
        }
    }

    #[test]
    fn resolved_dag_fills_lanes_bit_identical_to_scalar() {
        let s = schema();
        let recs = records(64);
        let mut pool = ConstPool::default();
        let one = pool.push_float(1.0);
        // f * (1 - i) + l as an aggregate DAG: op `i` defines register `i`.
        let ops = [
            Op::PoolF { dst: 0, idx: one },
            Op::LoadF {
                dst: 1,
                offset: s.offset(1) as u32,
            },
            Op::LoadI32F {
                dst: 2,
                offset: s.offset(0) as u32,
            },
            Op::Arith {
                op: BinOp::Sub,
                dst: 3,
                a: 0,
                b: 2,
            },
            Op::Arith {
                op: BinOp::Mul,
                dst: 4,
                a: 1,
                b: 3,
            },
            Op::LoadI64F {
                dst: 5,
                offset: s.offset(3) as u32,
            },
            Op::Arith {
                op: BinOp::Add,
                dst: 6,
                a: 4,
                b: 5,
            },
        ];
        let nodes = resolve_agg_dag(&ops, &pool);
        assert_eq!(nodes.len(), ops.len());
        let layout: AccumLayout = no_slots();
        let mut fold = PageFold::new(&nodes, &layout, s.tuple_size());
        assert_eq!(fold.fill(&recs.concat()), recs.len());
        let mut regs = [0.0f64; 7];
        for (i, rec) in recs.iter().enumerate() {
            run_expr(&ops, &pool, rec, &mut regs);
            for (r, reg) in regs.iter().enumerate() {
                assert_eq!(
                    fold.lane(r as u16)[i].to_bits(),
                    reg.to_bits(),
                    "r{r} row {i}"
                );
            }
        }
    }

    /// The layout of an aggregate list without aggregates.
    fn no_slots() -> AccumLayout {
        let spec = hique_plan::AggregateSpec {
            group_columns: vec![],
            aggregates: vec![],
            algorithm: hique_plan::AggAlgorithm::Map,
        };
        AggProgram::compile(&spec, &schema())
            .unwrap()
            .layout()
            .clone()
    }
}
