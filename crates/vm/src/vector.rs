//! The decode: bytecode fragments → the kernel objects of the paper's
//! instantiated templates, each held to the generator's as it is read.
//!
//! The per-op interpreter in [`crate::bytecode`] would pay one dispatch per
//! op per tuple — exactly the per-tuple overhead the paper's compiled
//! kernels eliminate — so nothing executes it: it is the definition of the
//! ops the decoders are tested against.  [`resolve`] reads the fragments,
//! with their operands from the constant pool, into the [`KernelSet`] the
//! generator builds from the plan, and the driver runs that.  A staged
//! table's filter and projection fragments become a [`ScanKernels`]
//! ([`filters`], [`projection`]); a key-image fragment names the
//! [`CompiledKey`] whose image it computes ([`image`]); the aggregate and
//! the output DAG fragments become register programs ([`dag`]).
//!
//! The decode is the verifier ([`crate::verify`]): an op that does not
//! decode is [`VerifyError::Malformed`], and every decoded component is
//! compared with the generator's before the next is read, the first that
//! differs a [`VerifyError::Diverges`].  So what runs is the generator's
//! kernel set, read back from the bytecode, and its results and every
//! [`hique_types::ExecStats`] work counter equal the generator's kernels'.

use std::fmt::Arguments;

use hique_holistic::agg::{AggNode, AggProgram, CompiledAgg};
use hique_holistic::kernel::{CompiledFilter, CompiledKey, CompiledProjection};
use hique_holistic::staging::ScanKernels;
use hique_holistic::{GeneratedQuery, KernelSet};
use hique_types::DataType;

use crate::bytecode::{image_key, ConstPool, Frag, Op, RhsF, RhsI};
use crate::program::VmProgram;
use crate::verify::{agree, agree_all, VerifyError};

/// Why a fragment does not decode: the index of the offending op within
/// it, and what is wrong with that op.
type Fault = (usize, String);

/// The value of an integer operand, if its pool slot exists.
fn int(rhs: RhsI, pool: &ConstPool) -> Result<i64, String> {
    match rhs {
        RhsI::Imm(v) => Ok(v),
        RhsI::Pool(i) => pool
            .ints
            .get(i as usize)
            .copied()
            .ok_or_else(|| format!("int pool slot {i} of {}", pool.ints.len())),
    }
}

/// The value of a float operand, if its pool slot exists.
fn float(rhs: RhsF, pool: &ConstPool) -> Result<f64, String> {
    match rhs {
        RhsF::Imm(v) => Ok(v),
        RhsF::Pool(i) => pool
            .floats
            .get(i as usize)
            .copied()
            .ok_or_else(|| format!("float pool slot {i} of {}", pool.floats.len())),
    }
}

/// The page sweep of one predicate-test op.
fn sweep(op: &Op, pool: &ConstPool) -> Result<CompiledFilter, String> {
    let key = |offset: u32, dtype| CompiledKey::at(offset as usize, dtype);
    Ok(match *op {
        Op::TestI32 { offset, op, rhs } => {
            CompiledFilter::on_int(key(offset, DataType::Int32), op, int(rhs, pool)?)
        }
        Op::TestI64 { offset, op, rhs } => {
            CompiledFilter::on_int(key(offset, DataType::Int64), op, int(rhs, pool)?)
        }
        Op::TestF64 { offset, op, rhs } => {
            CompiledFilter::on_float(key(offset, DataType::Float64), op, float(rhs, pool)?)
        }
        Op::TestBytes {
            offset,
            width,
            op,
            pool: slot,
        } => {
            let value = pool
                .bytes
                .get(slot as usize)
                .ok_or_else(|| format!("bytes pool slot {slot} of {}", pool.bytes.len()))?;
            let dtype = u16::try_from(width)
                .ok()
                .filter(|_| value.len() == width as usize)
                .map(DataType::Char)
                .ok_or_else(|| format!("a {}-byte constant in a {width}-byte test", value.len()))?;
            CompiledFilter::on_bytes(key(offset, dtype), op, value.clone())
        }
        ref other => return Err(format!("{other:?} in a filter fragment")),
    })
}

/// Decode a filter fragment against the program's constant pool: one page
/// sweep ([`CompiledFilter::narrow`]) per test, in fragment order, so
/// nothing about a test is dispatched per row.
pub(crate) fn filters(ops: &[Op], pool: &ConstPool) -> Result<Vec<CompiledFilter>, Fault> {
    ops.iter()
        .enumerate()
        .map(|(i, op)| sweep(op, pool).map_err(|detail| (i, detail)))
        .collect()
}

/// The copy plan of a projection fragment: the same coalesced,
/// constant-width copies the compiled kernels run
/// ([`CompiledProjection::append`]), built from the `Copy` list.
pub(crate) fn projection(ops: &[Op]) -> Result<CompiledProjection, Fault> {
    let copies = ops.iter().enumerate().map(|(i, op)| match *op {
        Op::Copy { src, width, dst } => Ok((src as usize, width as usize, dst as usize)),
        ref other => Err((i, format!("{other:?} in a projection fragment"))),
    });
    Ok(CompiledProjection::from_copies(
        copies.collect::<Result<Vec<_>, _>>()?,
    ))
}

/// The key a key-image fragment, one image op, names.
pub(crate) fn image(ops: &[Op]) -> Result<CompiledKey, Fault> {
    match ops {
        [op] => image_key(op).ok_or_else(|| (0, format!("{op:?} is no key image"))),
        [] => Err((0, "an empty key-image fragment".into())),
        _ => Err((
            1,
            format!("{} ops in a one-op key-image fragment", ops.len()),
        )),
    }
}

/// Decode a register-program fragment (the aggregate or the output DAG)
/// against the program's constant pool into the generator's nodes: op `i`
/// defines register `i` and reads only registers defined before it, so
/// the ops *are* the program's nodes.
pub(crate) fn dag(ops: &[Op], pool: &ConstPool) -> Result<Vec<AggNode>, Fault> {
    let node = |i: usize, op: &Op| {
        let (dst, node) = match *op {
            Op::LoadF { dst, offset } => (dst, AggNode::ColF64(offset as usize)),
            Op::LoadI32F { dst, offset } => (dst, AggNode::ColI32(offset as usize)),
            Op::LoadI64F { dst, offset } => (dst, AggNode::ColI64(offset as usize)),
            Op::ConstF { dst, value } => (dst, AggNode::Const(value)),
            Op::PoolF { dst, idx } => (dst, AggNode::Const(float(RhsF::Pool(idx), pool)?)),
            Op::Arith { op, dst, a, b } if (a.max(b) as usize) < i => (
                dst,
                AggNode::Bin {
                    op,
                    left: a,
                    right: b,
                },
            ),
            Op::Arith { a, b, .. } => return Err(format!("op {i} reads r{a} and r{b}")),
            ref other => return Err(format!("{other:?} in a register program")),
        };
        match dst as usize == i {
            true => Ok(node),
            false => Err(format!("op {i} defines r{dst}")),
        }
    };
    ops.iter()
        .enumerate()
        .map(|(i, op)| node(i, op).map_err(|detail| (i, detail)))
        .collect()
}

/// Decode `frag` with `decoder`, naming `component` and the offending op
/// when it does not decode.
fn decode<T>(
    component: Arguments<'_>,
    frag: Frag,
    code: &[Op],
    decoder: impl FnOnce(&[Op]) -> Result<T, Fault>,
) -> Result<T, VerifyError> {
    let malformed = |op: usize, detail| VerifyError::Malformed {
        component: component.to_string(),
        op,
        detail,
    };
    if frag.start > frag.end || frag.end as usize > code.len() {
        return Err(malformed(
            frag.start as usize,
            format!(
                "fragment [{}, {}) lies outside the {}-op code array",
                frag.start,
                frag.end,
                code.len()
            ),
        ));
    }
    decoder(frag.ops(code)).map_err(|(i, detail)| malformed(frag.start as usize + i, detail))
}

/// Decode `program` into the kernel set the driver runs for `generated`,
/// holding each component to the generator's as it is read.
///
/// Every kernel comes from the fragments; the plan supplies only what the
/// bytecode does not encode: the joined record's width, and the type a
/// group value decodes to (an `i32` and a date column share one image
/// op), taken from the generator's key once the image agreed.
pub(crate) fn resolve(
    program: &VmProgram,
    generated: &GeneratedQuery,
) -> Result<KernelSet, VerifyError> {
    let (code, pool) = (&program.code[..], &program.pool);
    let want = generated.kernels();

    let tables = &program.tables;
    agree(
        format_args!("scans"),
        &want.scans.len(),
        &tables.len(),
        usize::eq,
    )?;
    let mut scans = Vec::with_capacity(tables.len());
    for (t, (frags, want)) in tables.iter().zip(&want.scans).enumerate() {
        let component = format_args!("scan[{t}].filter");
        let filters = decode(component, frags.filter, code, |ops| filters(ops, pool))?;
        agree_all(
            component,
            &want.filters,
            &filters,
            CompiledFilter::same_test,
        )?;
        let component = format_args!("scan[{t}].projection");
        let projection = decode(component, frags.project, code, projection)?;
        agree(
            component,
            &want.projection,
            &projection,
            CompiledProjection::eq,
        )?;
        scans.push(ScanKernels {
            filters,
            projection,
        });
    }

    agree(
        format_args!("joins"),
        &want.joins.len(),
        &program.joins.len(),
        usize::eq,
    )?;
    let mut joins = Vec::with_capacity(program.joins.len());
    for (s, (frags, (left, right))) in program.joins.iter().zip(&want.joins).enumerate() {
        let component = format_args!("join[{s}].left");
        let found_left = decode(component, frags.left_image, code, image)?;
        agree(component, left, &found_left, CompiledKey::same_image)?;
        let component = format_args!("join[{s}].right");
        let found_right = decode(component, frags.right_image, code, image)?;
        agree(component, right, &found_right, CompiledKey::same_image)?;
        joins.push((found_left, found_right));
    }

    let (expected, found) = (want.aggregation.is_some(), program.agg.is_some());
    agree(format_args!("agg"), &expected, &found, bool::eq)?;
    let aggregation = match (&program.agg, &want.aggregation) {
        (Some(frags), Some(want)) => {
            let keys = frags
                .group_images
                .iter()
                .enumerate()
                .map(|(g, &frag)| decode(format_args!("group_key[{g}]"), frag, code, image));
            let keys = keys.collect::<Result<Vec<_>, _>>()?;
            let want_keys = want.group_keys();
            agree_all(
                format_args!("group_key"),
                want_keys,
                &keys,
                CompiledKey::same_image,
            )?;
            let nodes = decode(format_args!("agg.dag"), frags.dag, code, |ops| {
                dag(ops, pool)
            })?;
            let program = want.program();
            agree_all(
                format_args!("agg.node"),
                program.nodes(),
                &nodes,
                AggNode::same,
            )?;
            let layout = &frags.layout;
            agree(
                format_args!("agg.layout"),
                program.layout(),
                layout,
                PartialEq::eq,
            )?;
            let group_keys = keys
                .iter()
                .zip(want_keys)
                .map(|(key, want)| CompiledKey {
                    dtype: want.dtype,
                    ..*key
                })
                .collect();
            let program = AggProgram::new(nodes, layout.clone());
            let tuple_size = generated.plan().joined_schema.tuple_size();
            Some(CompiledAgg::new(group_keys, program, tuple_size))
        }
        _ => None,
    };

    let outputs: Vec<_> = program.outputs.iter().map(|op| op.kernel()).collect();
    agree_all(
        format_args!("output"),
        &want.outputs,
        &outputs,
        PartialEq::eq,
    )?;
    let component = format_args!("output.dag");
    let output_program = decode(component, program.output_dag, code, |ops| dag(ops, pool))?;
    let want_nodes = &want.output_program;
    agree_all(
        format_args!("output.node"),
        want_nodes,
        &output_program,
        AggNode::same,
    )?;

    Ok(KernelSet {
        scans,
        joins,
        aggregation,
        outputs,
        output_program,
    })
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
        for filter in filters(ops, pool).unwrap() {
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
        projection(&[])
            .unwrap()
            .append(&[], schema().tuple_size(), &sel, &mut out);
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
        projection(&proj)
            .unwrap()
            .append(&recs.concat(), s.tuple_size(), &sel, &mut out);
        let mut scalar = Vec::new();
        let mut buf = vec![0u8; 12];
        for &i in &sel {
            run_project(&proj, refs[i as usize], &mut buf);
            scalar.extend_from_slice(&buf);
        }
        assert_eq!(out, scalar);

        for op in [
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
            image(&[op])
                .unwrap()
                .images_into(&recs.concat(), s.tuple_size(), &mut lane);
            assert_eq!(lane.remove(0), 7, "appended to the lane");
            let scalar: Vec<u64> = refs.iter().map(|r| run_image(&[op], r)).collect();
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
        let nodes = dag(&ops, &pool).unwrap();
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
