//! The vectorized dispatch tier: batch interpretation + superinstruction
//! fusion.
//!
//! The scalar interpreter in [`crate::bytecode`] pays one dispatch per op
//! per tuple — exactly the per-tuple overhead the paper's compiled kernels
//! eliminate.  With no offline compiler available at query time, this
//! module takes the two classic interpreter routes around it:
//!
//! * **Batch interpretation** (MonetDB/X100-style): each op is dispatched
//!   once per batch of up to [`BATCH`] tuples and then runs a tight loop
//!   over the batch.  Filters narrow a *selection vector* instead of
//!   branching per row — staging resolves each test, once per `stage`
//!   call, into the page sweep the compiled kernels run
//!   ([`resolve_filter`]), and the projection's `Copy` list into their
//!   copy plan ([`copy_plan`]); the aggregate DAG fragment into the nodes
//!   of their page fold ([`resolve_agg_dag`]), which fills one `f64` lane
//!   per register; key images fill an `i64` lane through the compiled key
//!   accessor's sweep ([`run_image_batch`]).
//! * **Superinstruction fusion** (Ertl & Gregg): a peephole pass over each
//!   fragment rewrites hot adjacent pairs — two predicate tests into a
//!   fused conjunction, an operand load feeding an arithmetic op into a
//!   fused load-arith — so one dispatch covers both ops.
//!
//! Semantics are bit-identical to the scalar tier by construction: every
//! batch loop performs the same per-row operations in the same order the
//! scalar loop would, including the filter's short-circuit `comparisons`
//! accounting (test `j` is only charged for rows that survived tests
//! `0..j`).  The verifier checks each fused plan against its scalar
//! fragments (operand contracts plus un-fuse equality), keeping the
//! mutation-rejection gate closed over the fused ISA.

use hique_holistic::agg::AggNode;
use hique_holistic::kernel::{CompiledFilter, CompiledKey, CompiledProjection, Selection};
use hique_types::DataType;

use crate::bytecode::{rhs_f, rhs_i, ConstPool, Op};
use crate::program::{AggFrags, TableFrags};

/// Maximum tuples per batch of a join's build and probe sides (packed runs
/// of the staged relations).  Staged scans and aggregation inputs batch by
/// page instead — the page *is* the batch, which keeps `vm_batches`
/// independent of the thread count and keeps spilled consumption at one
/// pinned page at a time.
pub(crate) const BATCH: usize = 1024;

/// One step of a vectorized fragment: a scalar op dispatched once per
/// batch, or a fused superinstruction covering an adjacent pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum VecStep {
    /// A single op, batch-dispatched.
    Op(Op),
    /// Fused conjunction of two adjacent predicate tests: one step narrows
    /// the selection vector through both, preserving the scalar
    /// short-circuit (the second test only runs where the first passed).
    TestTest(Op, Op),
    /// Fused operand load + arithmetic combine — the canonical lowering's
    /// `Load*/ConstF/PoolF {dst: b}` immediately followed by
    /// `Arith {.., b}` pair.
    LoadArith(Op, Op),
}

/// The vectorized lowering of a whole program.  Built by
/// [`build_vec_plan`] after constant folding (the steps hold copies of the
/// *folded* ops); fragments that decline to lower (`None`) fall back to
/// the scalar loops per fragment, never per row.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct VecPlan {
    /// One entry per staged table, parallel to `VmProgram::tables`.
    pub(crate) filters: Vec<Option<Vec<VecStep>>>,
    /// The aggregate DAG fragment (`AggFrags::dag`); `None` without an
    /// aggregation or for a scalar-fallback fragment.
    pub(crate) agg_dag: Option<Vec<VecStep>>,
}

/// True for predicate-test ops (the only ops filter fragments contain).
fn is_test(op: &Op) -> bool {
    matches!(
        op,
        Op::TestI32 { .. } | Op::TestI64 { .. } | Op::TestF64 { .. } | Op::TestBytes { .. }
    )
}

/// True for register-defining operand loads (including constants).
pub(crate) fn is_load(op: &Op) -> bool {
    matches!(
        op,
        Op::LoadF { .. }
            | Op::LoadI32F { .. }
            | Op::LoadI64F { .. }
            | Op::ConstF { .. }
            | Op::PoolF { .. }
    )
}

/// Destination register of an expression op.
pub(crate) fn expr_dst(op: &Op) -> usize {
    match *op {
        Op::LoadF { dst, .. }
        | Op::LoadI32F { dst, .. }
        | Op::LoadI64F { dst, .. }
        | Op::ConstF { dst, .. }
        | Op::PoolF { dst, .. }
        | Op::Arith { dst, .. } => dst as usize,
        _ => unreachable!("op has no destination register"),
    }
}

/// Peephole-fuse a filter fragment: adjacent test pairs become
/// [`VecStep::TestTest`] conjunctions, an odd trailing test stays scalar-
/// dispatched.  `None` when the fragment contains a non-test op (it then
/// runs through the scalar filter loop).
pub(crate) fn fuse_filter(ops: &[Op]) -> Option<Vec<VecStep>> {
    if !ops.iter().all(is_test) {
        return None;
    }
    let mut steps = Vec::with_capacity(ops.len().div_ceil(2));
    let mut i = 0;
    while i < ops.len() {
        if i + 1 < ops.len() {
            steps.push(VecStep::TestTest(ops[i], ops[i + 1]));
            i += 2;
        } else {
            steps.push(VecStep::Op(ops[i]));
            i += 1;
        }
    }
    Some(steps)
}

/// Peephole-fuse an expression fragment: a load whose destination is the
/// `b` operand of the immediately following `Arith` becomes one
/// [`VecStep::LoadArith`] — the exact adjacency the canonical expression
/// lowering produces for every `Binary` node with a leaf right operand.
/// `None` when the fragment contains a non-expression op.
pub(crate) fn fuse_expr(ops: &[Op]) -> Option<Vec<VecStep>> {
    if !ops
        .iter()
        .all(|op| is_load(op) || matches!(op, Op::Arith { .. }))
    {
        return None;
    }
    let mut steps = Vec::with_capacity(ops.len());
    let mut i = 0;
    while i < ops.len() {
        if i + 1 < ops.len() && is_load(&ops[i]) {
            if let Op::Arith { b, .. } = ops[i + 1] {
                if expr_dst(&ops[i]) == b as usize {
                    steps.push(VecStep::LoadArith(ops[i], ops[i + 1]));
                    i += 2;
                    continue;
                }
            }
        }
        steps.push(VecStep::Op(ops[i]));
        i += 1;
    }
    Some(steps)
}

/// Build the vectorized plan of a compiled program.  Runs after constant
/// folding in both `compile()` and `bind()` — the steps carry copies of
/// the folded ops, and the verifier holds them to un-fuse equality with
/// the scalar fragments.
pub(crate) fn build_vec_plan(
    code: &[Op],
    tables: &[TableFrags],
    agg: Option<&AggFrags>,
) -> VecPlan {
    VecPlan {
        filters: tables
            .iter()
            .map(|t| fuse_filter(t.filter.ops(code)))
            .collect(),
        agg_dag: agg.and_then(|a| fuse_expr(a.dag.ops(code))),
    }
}

/// Flatten fused steps back into the scalar op sequence they claim to
/// batch (the verifier compares this against the scalar fragment).
pub(crate) fn unfuse(steps: &[VecStep]) -> Vec<Op> {
    let mut ops = Vec::with_capacity(steps.len() * 2);
    for s in steps {
        match s {
            VecStep::Op(op) => ops.push(*op),
            VecStep::TestTest(a, b) | VecStep::LoadArith(a, b) => {
                ops.push(*a);
                ops.push(*b);
            }
        }
    }
    ops
}

/// One step of a filter fragment resolved for a `stage` call: operands read
/// from the constant pool and every test turned into the page sweep the
/// compiled kernels use ([`CompiledFilter::narrow`]), so nothing about a
/// test is dispatched per row.
pub(crate) enum FilterSweep {
    /// A single test.
    One(CompiledFilter),
    /// A fused conjunction ([`VecStep::TestTest`]).
    Pair(CompiledFilter, CompiledFilter),
}

/// The page sweep of one predicate-test op.
fn sweep_of(op: &Op, pool: &ConstPool) -> CompiledFilter {
    let key = |offset: u32, width: u32, dtype| CompiledKey {
        offset: offset as usize,
        width: width as usize,
        dtype,
    };
    match *op {
        Op::TestI32 { offset, op, rhs } => {
            CompiledFilter::on_int(key(offset, 4, DataType::Int32), op, rhs_i(rhs, pool))
        }
        Op::TestI64 { offset, op, rhs } => {
            CompiledFilter::on_int(key(offset, 8, DataType::Int64), op, rhs_i(rhs, pool))
        }
        Op::TestF64 { offset, op, rhs } => {
            CompiledFilter::on_float(key(offset, 8, DataType::Float64), op, rhs_f(rhs, pool))
        }
        Op::TestBytes {
            offset,
            width,
            op,
            pool: slot,
        } => CompiledFilter::on_bytes(
            key(offset, width, DataType::Char(width as u16)),
            op,
            pool.bytes[slot as usize].clone(),
        ),
        _ => unreachable!("non-test op in filter fragment"),
    }
}

/// Resolve a fused filter plan against the program's constant pool, once
/// per `stage` call.
pub(crate) fn resolve_filter(steps: &[VecStep], pool: &ConstPool) -> Vec<FilterSweep> {
    steps
        .iter()
        .map(|step| match step {
            VecStep::Op(op) => FilterSweep::One(sweep_of(op, pool)),
            VecStep::TestTest(a, b) => FilterSweep::Pair(sweep_of(a, pool), sweep_of(b, pool)),
            VecStep::LoadArith(..) => unreachable!("expression step in filter fragment"),
        })
        .collect()
}

/// Run a resolved filter over one packed page (`data`, records of `width`
/// bytes), narrowing `sel` (reset to the identity selection first).
/// `comparisons` reproduces the scalar loop's short-circuit totals exactly —
/// each test is charged the selection length entering it; `fused_ops`
/// counts one per fused step per batch.
pub(crate) fn run_filter_batch(
    sweeps: &[FilterSweep],
    data: &[u8],
    width: usize,
    sel: &mut Selection,
    comparisons: &mut u64,
    fused_ops: &mut u64,
) {
    sel.select_all(data.len() / width.max(1));
    let mut test = |f: &CompiledFilter, sel: &mut Selection| {
        *comparisons += sel.len() as u64;
        f.narrow(data, width, sel);
    };
    for sweep in sweeps {
        if sel.is_empty() {
            break;
        }
        match sweep {
            FilterSweep::One(f) => test(f, sel),
            FilterSweep::Pair(a, b) => {
                *fused_ops += 1;
                test(a, sel);
                test(b, sel);
            }
        }
    }
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

/// Run a key-image fragment over every record of one packed batch
/// (`data`, records of `width` bytes), appending to `out` the same
/// order-preserving `i64` images [`crate::bytecode::run_image`] produces
/// row-at-a-time: the fragment's one op (the verifier's contract) is the
/// compiled kernels' key accessor, whose sweep resolves the type once.
pub(crate) fn run_image_batch(ops: &[Op], data: &[u8], width: usize, out: &mut Vec<i64>) {
    let key = |offset: u32, width: u32, dtype| CompiledKey {
        offset: offset as usize,
        width: width as usize,
        dtype,
    };
    let key = match ops {
        [Op::ImageI32 { offset }] => key(*offset, 4, DataType::Int32),
        [Op::ImageI64 { offset }] => key(*offset, 8, DataType::Int64),
        [Op::ImageF64 { offset }] => key(*offset, 8, DataType::Float64),
        [Op::ImageChar { offset, width }] => key(*offset, *width, DataType::Char(*width as u16)),
        _ => unreachable!("a key-image fragment is one image op"),
    };
    key.images_into(data, width, out);
}

/// Resolve the fused aggregate-DAG plan against the program's constant
/// pool, once per `aggregate` call, into the nodes of the page fold both
/// kernel providers run ([`hique_holistic::agg::PageFold`]): op `i` of the
/// fragment defines register `i` (the verifier holds the fragment to the
/// aggregate program node for node), so the ops *are* the program's nodes.
/// Also returns the fused steps of the plan — what one batch adds to
/// `vm_fused_ops`.
pub(crate) fn resolve_agg_dag(steps: &[VecStep], pool: &ConstPool) -> (Vec<AggNode>, u64) {
    let fused = steps
        .iter()
        .filter(|s| matches!(s, VecStep::LoadArith(..)))
        .count();
    let nodes = unfuse(steps)
        .iter()
        .map(|op| match *op {
            Op::LoadF { offset, .. } => AggNode::ColF64(offset as usize),
            Op::LoadI32F { offset, .. } => AggNode::ColI32(offset as usize),
            Op::LoadI64F { offset, .. } => AggNode::ColI64(offset as usize),
            Op::ConstF { value, .. } => AggNode::Const(value),
            Op::PoolF { idx, .. } => AggNode::Const(pool.floats[idx as usize]),
            Op::Arith { op, a, b, .. } => AggNode::Bin {
                op,
                left: a as u16,
                right: b as u16,
            },
            _ => unreachable!("non-expression op in expression fragment"),
        })
        .collect();
    (nodes, fused as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{run_expr, run_filter, run_image, run_project, RhsF, RhsI};
    use hique_holistic::agg::{AccumLayout, AggProgram, PageFold};
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

    /// Run `ops` as a resolved, fused filter over packed `recs`.
    fn filter_packed(ops: &[Op], pool: &ConstPool, recs: &[Vec<u8>]) -> (Vec<u32>, u64, u64) {
        let sweeps = resolve_filter(&fuse_filter(ops).unwrap(), pool);
        let width = schema().tuple_size();
        let (mut sel, mut cmp, mut fused) = (Selection::new(), 0u64, 0u64);
        sel.push(9);
        run_filter_batch(
            &sweeps,
            &recs.concat(),
            width,
            &mut sel,
            &mut cmp,
            &mut fused,
        );
        (sel.rows().to_vec(), cmp, fused)
    }

    #[test]
    fn empty_batch_yields_empty_selection() {
        let (ops, pool) = filter_ops();
        let (sel, cmp, fused) = filter_packed(&ops, &pool, &[]);
        assert!(sel.is_empty());
        assert_eq!((cmp, fused), (0, 0));
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
        let (sel, cmp, _) = filter_packed(&[test(CmpOp::GtEq, 0)], &pool, &recs);
        assert_eq!(sel, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(cmp, 6);
        // Only the last row survives.
        let (sel, _, _) = filter_packed(&[test(CmpOp::Eq, 5)], &pool, &recs);
        assert_eq!(sel, vec![5]);
    }

    #[test]
    fn fusion_pairs_adjacent_tests_and_load_arith() {
        let (ops, _) = filter_ops();
        let steps = fuse_filter(&ops).unwrap();
        assert_eq!(steps.len(), 2);
        assert!(matches!(steps[0], VecStep::TestTest(..)));
        assert!(matches!(steps[1], VecStep::Op(Op::TestBytes { .. })));
        // Copy ops are not tests: the fragment declines to lower.
        assert!(fuse_filter(&[Op::Copy {
            src: 0,
            width: 4,
            dst: 0
        }])
        .is_none());

        // Canonical Binary lowering: load of r1 immediately feeding an
        // arith reading r1 as `b` fuses; an arith whose `b` was defined
        // earlier does not.
        let s = schema();
        let load0 = Op::LoadF {
            dst: 0,
            offset: s.offset(1) as u32,
        };
        let load1 = Op::LoadI32F {
            dst: 1,
            offset: s.offset(0) as u32,
        };
        let arith = Op::Arith {
            op: BinOp::Mul,
            dst: 0,
            a: 0,
            b: 1,
        };
        let steps = fuse_expr(&[load0, load1, arith]).unwrap();
        assert_eq!(
            steps,
            vec![VecStep::Op(load0), VecStep::LoadArith(load1, arith)]
        );
        // `b` does not match the preceding load's destination: no fusion.
        let steps = fuse_expr(&[load1, load0, arith]).unwrap();
        assert_eq!(
            steps,
            vec![VecStep::Op(load1), VecStep::Op(load0), VecStep::Op(arith)]
        );
        assert_eq!(
            unfuse(&fuse_expr(&[load0, load1, arith]).unwrap()),
            vec![load0, load1, arith]
        );
    }

    #[test]
    fn batched_filter_matches_scalar_selection_and_comparisons() {
        let (ops, pool) = filter_ops();
        let recs = records(100);
        let (sel, cmp, fused) = filter_packed(&ops, &pool, &recs);
        let mut scalar_cmp = 0u64;
        let survivors: Vec<u32> = recs
            .iter()
            .enumerate()
            .filter(|(_, r)| run_filter(&ops, &pool, r, &mut scalar_cmp))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(sel, survivors);
        assert_eq!(cmp, scalar_cmp, "short-circuit accounting must agree");
        assert_eq!(fused, 1, "one fused pair, reached once");
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
            run_image_batch(&[image], &recs.concat(), s.tuple_size(), &mut lane);
            assert_eq!(lane.remove(0), 7, "appended to the lane");
            let scalar: Vec<i64> = refs.iter().map(|r| run_image(&[image], r)).collect();
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
        let steps = fuse_expr(&ops).unwrap();
        let (nodes, fused) = resolve_agg_dag(&steps, &pool);
        assert_eq!(fused, 2, "both column loads feed the next op's `b`");
        assert_eq!(nodes.len(), ops.len());
        let layout: AccumLayout = no_slots();
        let mut fold = PageFold::new(&nodes, &layout, s.tuple_size());
        assert_eq!(fold.fill(&recs.concat()), recs.len());
        let mut regs = [0.0f64; 7];
        for (i, rec) in recs.iter().enumerate() {
            let scalar = run_expr(&ops, &pool, rec, &mut regs);
            assert_eq!(fold.lane(6)[i].to_bits(), scalar.to_bits(), "row {i}");
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
            group_domain_sizes: vec![],
        };
        AggProgram::compile(&spec, &schema())
            .unwrap()
            .layout()
            .clone()
    }
}
