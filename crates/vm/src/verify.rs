//! Static verification of compiled bytecode programs: the verifier is the
//! decode.
//!
//! A bytecode program is an encoding of the generator's kernel set
//! ([`hique_holistic::KernelSet`]): the plan's templates instantiated once.
//! So a program is accepted iff it decodes back into exactly that set.
//! [`verify`] runs the one decode the executor runs (`vector::resolve`),
//! which reads each component — a staged table's filters and copy plan,
//! the join keys, the group keys, the aggregate program and its slots, the
//! output decode table and the output program — and compares it with the
//! generator's before reading the next:
//!
//! * an op that does not decode is [`VerifyError::Malformed`]: a fragment
//!   outside the code array, an op of the wrong kind for its fragment, a
//!   pool slot out of range, a string constant whose width is not its
//!   test's, an empty key image, or a register-program op `i` that does not
//!   define register `i` or reads a register `≥ i`;
//! * a decoded component unequal to the generator's is
//!   [`VerifyError::Diverges`], naming the first that differs
//!   (`scan[t].filter[i]`, `join[s].left`, `group_key[g]`, `agg.node[i]`,
//!   `agg.layout`, `output[k]`, `output.node[i]`, …).
//!
//! Equality is exact but for two rules.  Keys (filter, join and group)
//! agree when offset, width and *image kind* agree
//! ([`CompiledKey::same_image`]): an `Int32` and a `Date` column share one
//! test and one image op, while an `f64` image of an `i64` column is a
//! different key.  Float constants compare by bits, so `-0.0` is not `0.0`
//! and a NaN is itself ([`AggNode::same`]).
//!
//! [`crate::compile`] and [`crate::VmProgram::bind`] verify before they
//! hand a program out, and [`crate::VmProgram::execute`] runs the kernels
//! the same decode-and-compare yields, so what runs is what was verified.
//!
//! [`CompiledKey::same_image`]: hique_holistic::kernel::CompiledKey::same_image
//! [`AggNode::same`]: hique_holistic::agg::AggNode::same

use std::fmt::{self, Arguments, Debug};

use hique_holistic::GeneratedQuery;
use hique_types::HiqueError;

use crate::program::VmProgram;

/// A program that is not the generator's kernel set.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// An op of `component` does not decode; `op` indexes the program's
    /// flat code array.
    Malformed {
        component: String,
        op: usize,
        detail: String,
    },
    /// `component` decodes to something other than the generator's.
    Diverges {
        component: String,
        expected: String,
        found: String,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Malformed {
                component,
                op,
                detail,
            } => write!(
                f,
                "component {component}: op {op} does not decode: {detail}"
            ),
            VerifyError::Diverges {
                component,
                expected,
                found,
            } => write!(
                f,
                "component {component}: expected {expected}, found {found}"
            ),
        }
    }
}

impl From<VerifyError> for HiqueError {
    fn from(e: VerifyError) -> Self {
        HiqueError::Codegen(format!("bytecode verifier: {e}"))
    }
}

impl VerifyError {
    /// The refusal of a program that is sound but implements another
    /// plan: a rebind across diverged shapes, or an execution against a
    /// foreign query.
    pub(crate) fn refusal(self) -> HiqueError {
        HiqueError::Unsupported(format!(
            "bytecode program does not implement this plan: {self}; full compile required"
        ))
    }
}

/// Hold `found` to `expected` under `same`.
pub(crate) fn agree<T: Debug>(
    component: Arguments<'_>,
    expected: &T,
    found: &T,
    same: impl Fn(&T, &T) -> bool,
) -> Result<(), VerifyError> {
    match same(expected, found) {
        true => Ok(()),
        false => Err(VerifyError::Diverges {
            component: component.to_string(),
            expected: format!("{expected:?}"),
            found: format!("{found:?}"),
        }),
    }
}

/// Hold `found` to `expected` entry for entry under `same`; a missing
/// entry differs from any.
pub(crate) fn agree_all<T: Debug>(
    component: Arguments<'_>,
    expected: &[T],
    found: &[T],
    same: impl Fn(&T, &T) -> bool,
) -> Result<(), VerifyError> {
    let describe = |entry: Option<&T>| entry.map_or("nothing".into(), |e| format!("{e:?}"));
    for i in 0..expected.len().max(found.len()) {
        let (e, f) = (expected.get(i), found.get(i));
        if !matches!((e, f), (Some(e), Some(f)) if same(e, f)) {
            return Err(VerifyError::Diverges {
                component: format!("{component}[{i}]"),
                expected: describe(e),
                found: describe(f),
            });
        }
    }
    Ok(())
}

/// Verify a compiled program against the query it claims to implement:
/// decode it and compare it with the generator's kernel set.
///
/// Runs inside [`crate::compile`] and [`crate::VmProgram::bind`]; exposed
/// so the conformance mutation lane (and any cache layer) can re-check a
/// program without recompiling it.
pub fn verify(program: &VmProgram, generated: &GeneratedQuery) -> Result<(), VerifyError> {
    crate::vector::resolve(program, generated).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{Op, RhsF, RhsI};
    use crate::program::{compile, CompileMode, OutputOp};
    use hique_plan::{plan_query, CatalogProvider, PlannerConfig};
    use hique_sql::ast::CmpOp;
    use hique_storage::Catalog;
    use hique_types::{Column, DataType, Row, Schema, Value};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(
            "r",
            Schema::new(vec![
                Column::new("k", DataType::Int32),
                Column::new("tag", DataType::Char(4)),
                Column::new("v", DataType::Float64),
                Column::new("j", DataType::Int32),
            ]),
        )
        .unwrap();
        cat.create_table(
            "s",
            Schema::new(vec![
                Column::new("k", DataType::Int32),
                Column::new("w", DataType::Int64),
                Column::new("d", DataType::Date),
            ]),
        )
        .unwrap();
        for i in 0..20 {
            cat.table_mut("r")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![
                    Value::Int32(i % 5),
                    Value::Str("AAA".into()),
                    Value::Float64(i as f64),
                    Value::Int32(i * 7 % 3),
                ]))
                .unwrap();
        }
        for i in 0..5 {
            cat.table_mut("s")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![
                    Value::Int32(i),
                    Value::Int64(i as i64),
                    Value::Date(9000 + i % 2),
                ]))
                .unwrap();
        }
        cat.analyze_table("r").unwrap();
        cat.analyze_table("s").unwrap();
        cat
    }

    fn prepare(sql: &str, cat: &Catalog) -> GeneratedQuery {
        let q = hique_sql::parse_query(sql).unwrap();
        let bound = hique_sql::analyze(&q, &CatalogProvider::new(cat)).unwrap();
        let plan = plan_query(&bound, cat, &PlannerConfig::default()).unwrap();
        hique_holistic::generate(&plan).unwrap()
    }

    fn program(sql: &str, cat: &Catalog, mode: CompileMode) -> (VmProgram, GeneratedQuery) {
        let generated = prepare(sql, cat);
        // compile() itself runs the verifier: reaching here at all means the
        // well-formed program passed.
        let program = compile(&generated, cat, mode).unwrap();
        (program, generated)
    }

    /// The component of a program that no longer decodes.
    fn malformed(p: &VmProgram, g: &GeneratedQuery) -> String {
        match verify(p, g) {
            Err(VerifyError::Malformed { component, .. }) => component,
            other => panic!("expected a malformed program, got {other:?}"),
        }
    }

    /// The first component of a program that decodes to other kernels than
    /// the generator's.
    fn diverges(p: &VmProgram, g: &GeneratedQuery) -> String {
        match verify(p, g) {
            Err(VerifyError::Diverges { component, .. }) => component,
            other => panic!("expected a divergence, got {other:?}"),
        }
    }

    /// Code index of the first column load of the aggregate DAG (its
    /// constants come first).
    fn first_dag_load(p: &VmProgram) -> usize {
        let frag = p.agg.as_ref().unwrap().dag;
        let load = frag.ops(&p.code).iter().position(|op| {
            matches!(
                op,
                Op::LoadF { .. } | Op::LoadI32F { .. } | Op::LoadI64F { .. }
            )
        });
        frag.start as usize + load.expect("the DAG loads a column")
    }

    /// The first op index of staged table 0's filter fragment.
    fn first_test(p: &VmProgram) -> usize {
        assert!(
            !p.tables[0].filter.is_empty(),
            "fixture query needs a filter"
        );
        p.tables[0].filter.start as usize
    }

    #[test]
    fn well_formed_programs_verify_cleanly_in_both_modes() {
        let cat = catalog();
        for sql in [
            "select k, v from r where v < 12.5 order by v",
            "select k, tag from r where tag = 'AAA' and k < 3 order by k",
            "select r.k, s.w from r, s where r.k = s.k order by r.k, s.w",
            "select k, count(*) as n, sum(v * 2.5 + 1) as adj from r group by k order by k",
            // A date filter and a date group key share the i32 test and image.
            "select d, count(*) as n from s where d >= date '1994-08-23' group by d order by d",
            "select r.k, s.d from r, s where r.k = s.k and s.d < date '1994-08-24'",
        ] {
            for mode in [CompileMode::Specialized, CompileMode::Pooled] {
                let (p, g) = program(sql, &cat, mode);
                verify(&p, &g).unwrap();
            }
        }
    }

    #[test]
    fn use_before_def_in_an_argument_expression_is_rejected() {
        let cat = catalog();
        let (mut p, g) = program(
            "select k, sum(v * 2.5 + 1) as adj from r group by k order by k",
            &cat,
            CompileMode::Specialized,
        );
        let frag = p.agg.as_ref().unwrap().dag;
        p.code[frag.start as usize] = Op::Arith {
            op: hique_sql::ast::BinOp::Add,
            dst: 0,
            a: 0,
            b: 0,
        };
        assert_eq!(malformed(&p, &g), "agg.dag");
    }

    #[test]
    fn register_past_the_bank_is_rejected() {
        let cat = catalog();
        let (mut p, g) = program(
            "select k, sum(v * 2.5 + 1) as adj from r group by k order by k",
            &cat,
            CompileMode::Specialized,
        );
        let i = first_dag_load(&p);
        match &mut p.code[i] {
            Op::LoadF { dst, .. } | Op::LoadI32F { dst, .. } | Op::LoadI64F { dst, .. } => {
                *dst = 200
            }
            other => unreachable!("{other:?} is not a load"),
        }
        assert_eq!(malformed(&p, &g), "agg.dag");
    }

    #[test]
    fn type_confusion_between_image_ops_is_rejected() {
        let cat = catalog();
        let (mut p, g) = program(
            "select r.k, s.w from r, s where r.k = s.k order by r.k, s.w",
            &cat,
            CompileMode::Specialized,
        );
        let frag = p.joins[0].left_image;
        let i = frag.start as usize;
        let offset = match p.code[i] {
            Op::ImageI32 { offset } => offset,
            other => panic!("expected an i32 key image, got {other:?}"),
        };
        // Read the i32 join key as if it were an f64: the image would hash
        // garbage bits into the join placement.
        p.code[i] = Op::ImageF64 { offset };
        assert_eq!(diverges(&p, &g), "join[0].left");
    }

    /// An `f64` image of an `i64` group column has the column's width and
    /// offset; only its image kind tells it apart, and the group key's
    /// decode type is taken from the plan only after that check.
    #[test]
    fn an_f64_image_of_an_i64_group_column_is_rejected() {
        let cat = catalog();
        let (mut p, g) = program(
            "select w, count(*) as n from s group by w order by w",
            &cat,
            CompileMode::Specialized,
        );
        let i = p.agg.as_ref().unwrap().group_images[0].start as usize;
        let offset = match p.code[i] {
            Op::ImageI64 { offset } => offset,
            other => panic!("expected an i64 key image, got {other:?}"),
        };
        p.code[i] = Op::ImageF64 { offset };
        assert_eq!(diverges(&p, &g), "group_key[0]");
    }

    #[test]
    fn type_confusion_between_arith_loads_is_rejected() {
        let cat = catalog();
        let (mut p, g) = program(
            "select k, sum(v * 2.5 + 1) as adj from r group by k order by k",
            &cat,
            CompileMode::Specialized,
        );
        let i = first_dag_load(&p);
        match p.code[i] {
            // `v` is f64; loading it as i32 reinterprets half the mantissa.
            Op::LoadF { dst, offset } => p.code[i] = Op::LoadI32F { dst, offset },
            other => panic!("expected an f64 load, got {other:?}"),
        }
        let node = i - p.agg.as_ref().unwrap().dag.start as usize;
        assert_eq!(diverges(&p, &g), format!("agg.node[{node}]"));
    }

    #[test]
    fn pool_index_past_the_end_is_rejected() {
        let cat = catalog();
        let (mut p, g) = program(
            "select k from r where k < 3 order by k",
            &cat,
            CompileMode::Pooled,
        );
        let i = first_test(&p);
        match &mut p.code[i] {
            Op::TestI32 { rhs, .. } => *rhs = RhsI::Pool(99),
            other => panic!("expected an i32 test, got {other:?}"),
        }
        assert_eq!(malformed(&p, &g), "scan[0].filter");
    }

    #[test]
    fn output_arity_mismatch_is_rejected() {
        let cat = catalog();
        let (mut p, g) = program(
            "select k, v from r where v < 12.5 order by v",
            &cat,
            CompileMode::Specialized,
        );
        p.outputs.pop();
        assert_eq!(diverges(&p, &g), "output[1]");
    }

    #[test]
    fn filter_arity_mismatch_is_rejected() {
        let cat = catalog();
        let (mut p, g) = program(
            "select k from r where k < 3 and v < 12.5 order by k",
            &cat,
            CompileMode::Specialized,
        );
        // Shrink the filter fragment by one test: a declared conjunct is
        // silently dropped — exactly the wrong-answer shape the verifier
        // must catch.
        p.tables[0].filter.end -= 1;
        assert_eq!(diverges(&p, &g), "scan[0].filter[1]");
    }

    #[test]
    fn fragment_escaping_the_code_array_is_rejected() {
        let cat = catalog();
        let (mut p, g) = program(
            "select k from r where k < 3 order by k",
            &cat,
            CompileMode::Specialized,
        );
        p.tables[0].filter.end = p.code.len() as u32 + 5;
        assert_eq!(malformed(&p, &g), "scan[0].filter");
    }

    #[test]
    fn wrong_op_kind_in_a_filter_fragment_is_rejected() {
        let cat = catalog();
        let (mut p, g) = program(
            "select k from r where k < 3 order by k",
            &cat,
            CompileMode::Specialized,
        );
        let i = first_test(&p);
        p.code[i] = Op::Copy {
            src: 0,
            width: 4,
            dst: 0,
        };
        assert_eq!(malformed(&p, &g), "scan[0].filter");
    }

    #[test]
    fn offset_outside_every_field_is_rejected() {
        let cat = catalog();
        let (mut p, g) = program(
            "select k from r where k < 3 order by k",
            &cat,
            CompileMode::Specialized,
        );
        let i = first_test(&p);
        match &mut p.code[i] {
            Op::TestI32 { offset, .. } => *offset = 1 << 20,
            other => panic!("expected an i32 test, got {other:?}"),
        }
        assert_eq!(diverges(&p, &g), "scan[0].filter[0]");
    }

    #[test]
    fn swapped_comparison_operator_is_rejected() {
        let cat = catalog();
        let (mut p, g) = program(
            "select k from r where k < 3 order by k",
            &cat,
            CompileMode::Specialized,
        );
        let i = first_test(&p);
        match &mut p.code[i] {
            Op::TestI32 { op, .. } => *op = CmpOp::Gt,
            other => panic!("expected an i32 test, got {other:?}"),
        }
        assert_eq!(diverges(&p, &g), "scan[0].filter[0]");
    }

    #[test]
    fn nudged_folded_constant_is_rejected() {
        let cat = catalog();
        let (mut p, g) = program(
            "select k from r where k < 3 order by k",
            &cat,
            CompileMode::Specialized,
        );
        let i = first_test(&p);
        match &mut p.code[i] {
            Op::TestI32 {
                rhs: RhsI::Imm(v), ..
            } => *v += 1,
            other => panic!("expected a folded i32 test, got {other:?}"),
        }
        assert_eq!(diverges(&p, &g), "scan[0].filter[0]");
    }

    /// Float constants compare by bits: a filter's `0.0` and an output
    /// program's `0.0` do not accept `-0.0`.
    #[test]
    fn a_signed_zero_is_not_zero() {
        let cat = catalog();
        let (p, g) = program(
            "select k, v * 0.0 as z from r where v < 0.0",
            &cat,
            CompileMode::Specialized,
        );
        let mut filter = p.clone();
        let i = first_test(&filter);
        match &mut filter.code[i] {
            Op::TestF64 {
                rhs: RhsF::Imm(v), ..
            } => *v = -0.0,
            other => panic!("expected a folded f64 test, got {other:?}"),
        }
        assert_eq!(diverges(&filter, &g), "scan[0].filter[0]");
        let mut output = p;
        let i = output_op(&output, |op| matches!(op, Op::ConstF { .. }));
        match &mut output.code[i] {
            Op::ConstF { value, .. } => *value = -0.0,
            other => unreachable!("{other:?} is not a constant"),
        }
        let node = i - output.output_dag.start as usize;
        assert_eq!(diverges(&output, &g), format!("output.node[{node}]"));
    }

    #[test]
    fn widened_projection_copy_is_rejected() {
        let cat = catalog();
        let (mut p, g) = program(
            "select k from r where k < 3 order by k",
            &cat,
            CompileMode::Specialized,
        );
        let i = p.tables[0].project.start as usize;
        match &mut p.code[i] {
            Op::Copy { width, .. } => *width += 4,
            other => panic!("expected a copy, got {other:?}"),
        }
        assert_eq!(diverges(&p, &g), "scan[0].projection");
    }

    /// The output program's op of kind `pick`, as a code index.
    fn output_op(p: &VmProgram, pick: fn(&Op) -> bool) -> usize {
        let frag = p.output_dag;
        let i = frag.ops(&p.code).iter().position(pick);
        frag.start as usize + i.expect("the output program has the op")
    }

    #[test]
    fn a_rewritten_output_operator_is_rejected() {
        let cat = catalog();
        let (mut p, g) = program(
            "select k, v * 2 as d from r",
            &cat,
            CompileMode::Specialized,
        );
        let i = output_op(&p, |op| matches!(op, Op::Arith { .. }));
        match &mut p.code[i] {
            Op::Arith { op, .. } => *op = hique_sql::ast::BinOp::Add,
            other => unreachable!("{other:?} is not arithmetic"),
        }
        let node = i - p.output_dag.start as usize;
        assert_eq!(diverges(&p, &g), format!("output.node[{node}]"));
    }

    #[test]
    fn a_changed_output_constant_is_rejected() {
        let cat = catalog();
        let (mut p, g) = program(
            "select k, v * 2 as d from r",
            &cat,
            CompileMode::Specialized,
        );
        let i = output_op(&p, |op| matches!(op, Op::ConstF { .. }));
        match &mut p.code[i] {
            Op::ConstF { value, .. } => *value = 3.0,
            other => unreachable!("{other:?} is not a constant"),
        }
        let node = i - p.output_dag.start as usize;
        assert_eq!(diverges(&p, &g), format!("output.node[{node}]"));
    }

    #[test]
    fn an_output_naming_a_sibling_register_is_rejected() {
        let cat = catalog();
        let (mut p, g) = program(
            "select k, v * 2 as d from r",
            &cat,
            CompileMode::Specialized,
        );
        for o in &mut p.outputs {
            if let OutputOp::Expr(reg, _) = o {
                // The `v` load instead of the product.
                *reg = 0;
            }
        }
        assert_eq!(diverges(&p, &g), "output[1]");
    }

    #[test]
    fn group_reference_past_the_group_list_is_rejected() {
        let cat = catalog();
        let (mut p, g) = program(
            "select k, count(*) as n from r group by k order by k",
            &cat,
            CompileMode::Specialized,
        );
        let slot = p
            .outputs
            .iter_mut()
            .find_map(|o| match o {
                OutputOp::Group(p) => Some(p),
                _ => None,
            })
            .unwrap();
        *slot = 10;
        assert_eq!(diverges(&p, &g), "output[0]");
    }

    /// Two entries of the output decode table swapped — two aggregates, two
    /// group positions, two scalar columns of one type — still decode, each
    /// into the other's position: a wrong row, held off by the comparison
    /// with the generator's decode table.
    #[test]
    fn a_permuted_output_table_is_rejected() {
        let cat = catalog();
        for (sql, i, j) in [
            (
                "select k, count(*) as n, sum(v) as s from r group by k order by k",
                1,
                2,
            ),
            (
                "select k, j, count(*) as n from r group by k, j order by k, j",
                0,
                1,
            ),
            ("select k, j from r where v < 12.5 order by k, j", 0, 1),
        ] {
            for mode in [CompileMode::Specialized, CompileMode::Pooled] {
                let (mut p, g) = program(sql, &cat, mode);
                assert_ne!(p.outputs[i], p.outputs[j], "{sql}");
                p.outputs.swap(i, j);
                assert_eq!(diverges(&p, &g), format!("output[{i}]"), "{sql}");
            }
        }
    }

    #[test]
    fn emptied_key_image_fragment_is_rejected() {
        let cat = catalog();
        let (mut p, g) = program(
            "select r.k, s.w from r, s where r.k = s.k order by r.k, s.w",
            &cat,
            CompileMode::Specialized,
        );
        p.joins[0].left_image.end = p.joins[0].left_image.start;
        assert_eq!(malformed(&p, &g), "join[0].left");
    }

    #[test]
    fn verifier_errors_convert_to_typed_codegen_errors() {
        let e: HiqueError = VerifyError::Malformed {
            component: "join[0].left".into(),
            op: 7,
            detail: "an empty key-image fragment".into(),
        }
        .into();
        match e {
            HiqueError::Codegen(msg) => {
                assert!(msg.contains("bytecode verifier"), "{msg}");
                assert!(msg.contains("join[0].left"), "{msg}");
                assert!(msg.contains("op 7"), "{msg}");
            }
            other => panic!("expected Codegen, got {other:?}"),
        }
    }
}
