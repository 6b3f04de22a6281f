//! Static verification of compiled bytecode programs.
//!
//! The VM executes whatever [`VmProgram`] the compiler hands it, and the
//! interpreter loops index registers, constant pools and record bytes
//! without checking — a malformed program (a future lowering bug, a stale
//! cached template) would surface as a panic or a silently wrong answer at
//! execution time.  This module closes that hole with an abstract
//! interpretation that runs at *prepare* time, inside [`crate::compile`]
//! and [`crate::VmProgram::bind`], proving before any record is touched:
//!
//! * **fragment integrity** — every fragment the program hands the
//!   interpreter lies inside the code array and contains only the op kinds
//!   that fragment's interpreter loop accepts;
//! * **register safety** — every register operand addresses the declared
//!   float bank, and every register an [`Op::Arith`] reads was defined
//!   earlier in the same fragment (def-before-use; the interpreter reuses
//!   one register frame across records, so a use-before-def read would
//!   silently observe a stale value, never a crash);
//! * **type consistency** — every column access (test, load, image, copy)
//!   lands exactly on a field boundary of the record schema that fragment
//!   runs over, with the op's operand type matching the field's type under
//!   the lattice `{Int32, Date} → i32-repr`, `Int64 → i64-repr`,
//!   `Float64 → f64-repr`, `Char(w) → bytes(w)` (DESIGN.md §14);
//! * **constant-pool bounds** — every pool operand indexes inside the
//!   pool, and byte-string constants carry exactly the width the test
//!   compares;
//! * **plan agreement** — filters, projections and key images agree
//!   *positionally* with the plan they claim to implement: filter `i` of
//!   staged table `t` tests the declared column with the declared operator
//!   and the declared constant, projection copies reproduce the staged
//!   schema field-for-field, and every key image reads the declared key
//!   column.  This is what makes structural single-op mutations (swapped
//!   operator, nudged constant, relocated offset) statically detectable
//!   instead of silent wrong answers;
//! * **aggregate-program agreement** — the aggregation's one shared
//!   expression fragment is the generator's aggregate program node for
//!   node: op `i` defines register `i` (so no register has a second
//!   definition a folded constant could leak through), loads read the
//!   declared offsets, arithmetic reads the declared operand registers,
//!   constants carry the declared values, and every accumulator slot reads
//!   the declared node — a slot redirected to a sibling node is a static
//!   rejection, not a plausible wrong sum;
//! * **output arity** — the output decode table matches the plan's output
//!   schema in length, kind (scalar vs. group/aggregate) and type, and
//!   key-image widths agree with the holistic [`CompiledKey`] encoding the
//!   join/group hash placement depends on.
//!
//! Verification failures are the typed [`VerifyError`], converted to
//! [`HiqueError::Codegen`] at the `compile`/`bind` boundary — a bad
//! program is a prepare-time error, never an interpreter panic.
//!
//! [`CompiledKey`]: hique_holistic::kernel::CompiledKey

use std::fmt;

use hique_holistic::agg::{AggNode, AggProgram};
use hique_holistic::GeneratedQuery;
use hique_sql::ast::CmpOp;
use hique_storage::Catalog;
use hique_types::{DataType, HiqueError, Schema, Value};

use crate::bytecode::{ConstPool, Frag, Op, RhsF, RhsI};
use crate::program::{OutputOp, VmProgram};

/// A static fault found in a compiled bytecode program.
///
/// Every variant names the failing code position (`op` is an index into
/// the program's flat code array) and the fragment context it was reached
/// from, so a rejected program points at its defect instead of at the
/// interpreter.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// A fragment's `[start, end)` range escapes the code array.
    FragOutOfRange {
        context: String,
        start: u32,
        end: u32,
        code_len: usize,
    },
    /// A fragment contains an op kind its interpreter loop rejects.
    WrongOpKind {
        context: String,
        op: u32,
        expected: &'static str,
        found: &'static str,
    },
    /// An [`Op::Arith`] reads a register no earlier op in the fragment
    /// defined.
    UseBeforeDef { context: String, op: u32, reg: u8 },
    /// A register operand addresses past the declared float bank.
    RegisterOutOfRange {
        context: String,
        op: u32,
        reg: u8,
        bank: usize,
    },
    /// A pool operand indexes past the end of its constant-pool section.
    PoolIndexOutOfRange {
        context: String,
        op: u32,
        section: &'static str,
        index: u32,
        len: usize,
    },
    /// A column access does not land on any field boundary of the record
    /// schema the fragment runs over.
    NoFieldAtOffset {
        context: String,
        op: u32,
        offset: u32,
        record_width: usize,
    },
    /// A column access lands on a field whose type disagrees with the
    /// op's operand contract.
    TypeMismatch {
        context: String,
        op: u32,
        offset: u32,
        expected: String,
        found: String,
    },
    /// A byte width (string test, char image, projection copy) disagrees
    /// with the field or constant it addresses.
    WidthMismatch {
        context: String,
        op: u32,
        expected: u32,
        found: u32,
    },
    /// An op disagrees with the plan component it positionally
    /// implements (wrong column offset, comparison operator, constant
    /// value, projection layout, key column).
    PlanMismatch {
        context: String,
        op: u32,
        detail: String,
    },
    /// A fragment table, argument list or output table has the wrong
    /// number of entries for the plan.
    ArityMismatch {
        context: String,
        expected: usize,
        found: usize,
    },
    /// An aggregate-output reference (`Group(p)` / `Aggregate(i)`)
    /// indexes past the plan's group or aggregate list.
    OutputIndexOutOfRange {
        context: String,
        index: usize,
        len: usize,
    },
    /// A fragment that must produce a value (expression, key image) is
    /// empty.
    EmptyFragment { context: String },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::FragOutOfRange {
                context,
                start,
                end,
                code_len,
            } => write!(
                f,
                "{context}: fragment [{start}, {end}) escapes the {code_len}-op code array"
            ),
            VerifyError::WrongOpKind {
                context,
                op,
                expected,
                found,
            } => write!(
                f,
                "{context}: op {op} is a {found} op in a {expected} fragment"
            ),
            VerifyError::UseBeforeDef { context, op, reg } => write!(
                f,
                "{context}: op {op} reads register r{reg} before any definition"
            ),
            VerifyError::RegisterOutOfRange {
                context,
                op,
                reg,
                bank,
            } => write!(
                f,
                "{context}: op {op} addresses register r{reg} outside the {bank}-register bank"
            ),
            VerifyError::PoolIndexOutOfRange {
                context,
                op,
                section,
                index,
                len,
            } => write!(
                f,
                "{context}: op {op} references {section} pool slot {index} of {len}"
            ),
            VerifyError::NoFieldAtOffset {
                context,
                op,
                offset,
                record_width,
            } => write!(
                f,
                "{context}: op {op} reads offset {offset} which is no field boundary \
                 of the {record_width}-byte record"
            ),
            VerifyError::TypeMismatch {
                context,
                op,
                offset,
                expected,
                found,
            } => write!(
                f,
                "{context}: op {op} reads offset {offset} as {found} but the field is {expected}"
            ),
            VerifyError::WidthMismatch {
                context,
                op,
                expected,
                found,
            } => write!(
                f,
                "{context}: op {op} carries width {found}, the field/constant has width {expected}"
            ),
            VerifyError::PlanMismatch {
                context,
                op,
                detail,
            } => write!(f, "{context}: op {op} diverges from the plan: {detail}"),
            VerifyError::ArityMismatch {
                context,
                expected,
                found,
            } => write!(f, "{context}: expected {expected} entries, found {found}"),
            VerifyError::OutputIndexOutOfRange {
                context,
                index,
                len,
            } => write!(f, "{context}: references position {index} of {len}"),
            VerifyError::EmptyFragment { context } => {
                write!(f, "{context}: value-producing fragment is empty")
            }
        }
    }
}

impl From<VerifyError> for HiqueError {
    fn from(e: VerifyError) -> Self {
        HiqueError::Codegen(format!("bytecode verifier: {e}"))
    }
}

/// The op-kind label of an instruction, for diagnostics.
fn op_kind(op: &Op) -> &'static str {
    match op {
        Op::TestI32 { .. } => "test-i32",
        Op::TestI64 { .. } => "test-i64",
        Op::TestF64 { .. } => "test-f64",
        Op::TestBytes { .. } => "test-bytes",
        Op::Copy { .. } => "copy",
        Op::LoadF { .. } => "load-f64",
        Op::LoadI32F { .. } => "load-i32",
        Op::LoadI64F { .. } => "load-i64",
        Op::ConstF { .. } => "const-f64",
        Op::PoolF { .. } => "pool-f64",
        Op::Arith { .. } => "arith",
        Op::ImageI32 { .. } => "image-i32",
        Op::ImageI64 { .. } => "image-i64",
        Op::ImageF64 { .. } => "image-f64",
        Op::ImageChar { .. } => "image-char",
    }
}

fn dtype_label(d: DataType) -> String {
    match d {
        DataType::Int32 => "i32".into(),
        DataType::Int64 => "i64".into(),
        DataType::Float64 => "f64".into(),
        DataType::Date => "date(i32)".into(),
        DataType::Char(w) => format!("char({w})"),
    }
}

/// The record-layout model a fragment's column accesses are checked
/// against: every field boundary of a schema with its declared type.
struct FieldMap<'a> {
    schema: &'a Schema,
}

impl<'a> FieldMap<'a> {
    fn new(schema: &'a Schema) -> Self {
        FieldMap { schema }
    }

    fn width(&self) -> usize {
        self.schema.tuple_size()
    }

    /// The field starting exactly at `offset`, if any.
    fn field_at(&self, offset: u32) -> Option<DataType> {
        (0..self.schema.len())
            .find(|&i| self.schema.offset(i) == offset as usize)
            .map(|i| self.schema.column(i).dtype)
    }

    /// Check a read of `offset` with the abstract operand type the op
    /// expects; `accepts` encodes the type lattice (e.g. an i32 read
    /// accepts both `Int32` and `Date` fields).
    fn check_read(
        &self,
        context: &str,
        op: u32,
        offset: u32,
        expected: &'static str,
        accepts: impl Fn(DataType) -> bool,
    ) -> Result<DataType, VerifyError> {
        let dtype = self
            .field_at(offset)
            .ok_or_else(|| VerifyError::NoFieldAtOffset {
                context: context.to_string(),
                op,
                offset,
                record_width: self.width(),
            })?;
        if !accepts(dtype) {
            return Err(VerifyError::TypeMismatch {
                context: context.to_string(),
                op,
                offset,
                expected: dtype_label(dtype),
                found: expected.to_string(),
            });
        }
        Ok(dtype)
    }
}

/// Check a fragment's range against the code array and return its ops.
fn frag_ops<'a>(context: &str, frag: Frag, code: &'a [Op]) -> Result<(&'a [Op], u32), VerifyError> {
    if frag.start > frag.end || frag.end as usize > code.len() {
        return Err(VerifyError::FragOutOfRange {
            context: context.to_string(),
            start: frag.start,
            end: frag.end,
            code_len: code.len(),
        });
    }
    Ok((&code[frag.start as usize..frag.end as usize], frag.start))
}

fn cmp_label(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::NotEq => "<>",
        CmpOp::Lt => "<",
        CmpOp::LtEq => "<=",
        CmpOp::Gt => ">",
        CmpOp::GtEq => ">=",
    }
}

/// Resolve an integer right-hand operand abstractly: bounds-check pool
/// references and return the constant value either way.
fn resolve_rhs_i(context: &str, op: u32, rhs: RhsI, pool: &ConstPool) -> Result<i64, VerifyError> {
    match rhs {
        RhsI::Imm(v) => Ok(v),
        RhsI::Pool(i) => {
            pool.ints
                .get(i as usize)
                .copied()
                .ok_or_else(|| VerifyError::PoolIndexOutOfRange {
                    context: context.to_string(),
                    op,
                    section: "int",
                    index: i,
                    len: pool.ints.len(),
                })
        }
    }
}

fn resolve_rhs_f(context: &str, op: u32, rhs: RhsF, pool: &ConstPool) -> Result<f64, VerifyError> {
    match rhs {
        RhsF::Imm(v) => Ok(v),
        RhsF::Pool(i) => {
            pool.floats
                .get(i as usize)
                .copied()
                .ok_or_else(|| VerifyError::PoolIndexOutOfRange {
                    context: context.to_string(),
                    op,
                    section: "float",
                    index: i,
                    len: pool.floats.len(),
                })
        }
    }
}

/// Verify one filter fragment positionally against its staged table's
/// declared filter list: op `i` must test filter `i`'s column (exact
/// offset and type), with filter `i`'s comparison operator and constant.
fn verify_filter(
    context: &str,
    frag: Frag,
    code: &[Op],
    pool: &ConstPool,
    base: &FieldMap,
    filters: &[hique_sql::analyze::ColumnFilter],
) -> Result<(), VerifyError> {
    let (ops, start) = frag_ops(context, frag, code)?;
    if ops.len() != filters.len() {
        return Err(VerifyError::ArityMismatch {
            context: format!("{context} (one test per declared filter)"),
            expected: filters.len(),
            found: ops.len(),
        });
    }
    for (i, (op, filter)) in ops.iter().zip(filters).enumerate() {
        let pc = start + i as u32;
        let declared_offset = base.schema.offset(filter.column) as u32;
        let declared_dtype = base.schema.column(filter.column).dtype;
        let mismatch = |detail: String| VerifyError::PlanMismatch {
            context: context.to_string(),
            op: pc,
            detail,
        };
        let check_position = |offset: u32, test_op: CmpOp| -> Result<(), VerifyError> {
            if offset != declared_offset {
                return Err(mismatch(format!(
                    "tests offset {offset}, filter {i} declares column {} at offset \
                     {declared_offset}",
                    filter.column
                )));
            }
            if test_op != filter.op {
                return Err(mismatch(format!(
                    "compares with {}, filter {i} declares {}",
                    cmp_label(test_op),
                    cmp_label(filter.op)
                )));
            }
            Ok(())
        };
        match *op {
            Op::TestI32 {
                offset,
                op: test_op,
                rhs,
            } => {
                base.check_read(context, pc, offset, "i32", |d| {
                    matches!(d, DataType::Int32 | DataType::Date)
                })?;
                check_position(offset, test_op)?;
                let got = resolve_rhs_i(context, pc, rhs, pool)?;
                let want =
                    expected_int_constant(&filter.value, declared_dtype).map_err(&mismatch)?;
                if got != want {
                    return Err(mismatch(format!(
                        "constant {got}, filter {i} declares {want}"
                    )));
                }
            }
            Op::TestI64 {
                offset,
                op: test_op,
                rhs,
            } => {
                base.check_read(context, pc, offset, "i64", |d| matches!(d, DataType::Int64))?;
                check_position(offset, test_op)?;
                let got = resolve_rhs_i(context, pc, rhs, pool)?;
                let want =
                    expected_int_constant(&filter.value, declared_dtype).map_err(&mismatch)?;
                if got != want {
                    return Err(mismatch(format!(
                        "constant {got}, filter {i} declares {want}"
                    )));
                }
            }
            Op::TestF64 {
                offset,
                op: test_op,
                rhs,
            } => {
                base.check_read(context, pc, offset, "f64", |d| {
                    matches!(d, DataType::Float64)
                })?;
                check_position(offset, test_op)?;
                let got = resolve_rhs_f(context, pc, rhs, pool)?;
                let want = filter
                    .value
                    .as_f64()
                    .map_err(|_| mismatch("non-numeric constant on a float column".into()))?;
                if got.to_bits() != want.to_bits() {
                    return Err(mismatch(format!(
                        "constant {got}, filter {i} declares {want}"
                    )));
                }
            }
            Op::TestBytes {
                offset,
                width,
                op: test_op,
                pool: slot,
            } => {
                let dtype = base.check_read(context, pc, offset, "bytes", |d| {
                    matches!(d, DataType::Char(_))
                })?;
                check_position(offset, test_op)?;
                let field_width = match dtype {
                    DataType::Char(w) => w as u32,
                    _ => unreachable!("check_read only accepted Char"),
                };
                if width != field_width {
                    return Err(VerifyError::WidthMismatch {
                        context: context.to_string(),
                        op: pc,
                        expected: field_width,
                        found: width,
                    });
                }
                let bytes = pool.bytes.get(slot as usize).ok_or_else(|| {
                    VerifyError::PoolIndexOutOfRange {
                        context: context.to_string(),
                        op: pc,
                        section: "bytes",
                        index: slot,
                        len: pool.bytes.len(),
                    }
                })?;
                if bytes.len() != width as usize {
                    return Err(VerifyError::WidthMismatch {
                        context: context.to_string(),
                        op: pc,
                        expected: width,
                        found: bytes.len() as u32,
                    });
                }
                let s = filter
                    .value
                    .as_str()
                    .ok_or_else(|| mismatch("non-string constant on a char column".into()))?;
                let mut want = s.as_bytes().to_vec();
                want.resize(width as usize, b' ');
                if bytes != &want {
                    return Err(mismatch(format!(
                        "string constant {:?}, filter {i} declares {:?}",
                        String::from_utf8_lossy(bytes),
                        String::from_utf8_lossy(&want)
                    )));
                }
            }
            ref other => {
                return Err(VerifyError::WrongOpKind {
                    context: context.to_string(),
                    op: pc,
                    expected: "test",
                    found: op_kind(other),
                })
            }
        }
    }
    Ok(())
}

/// The integer constant the compiler folds for a filter on an
/// `Int32`/`Date`/`Int64` column (mirrors `emit_test`'s conversions).
fn expected_int_constant(value: &Value, dtype: DataType) -> Result<i64, String> {
    let raw = value
        .as_i64()
        .map_err(|_| "non-numeric constant on an integer column".to_string())?;
    Ok(match dtype {
        DataType::Int32 | DataType::Date => raw as i32 as i64,
        _ => raw,
    })
}

/// Verify one projection fragment positionally against the staged table's
/// kept columns: copy `i` must move kept column `i` from its base offset
/// to its staged offset, full width.
fn verify_project(
    context: &str,
    frag: Frag,
    code: &[Op],
    base: &FieldMap,
    keep: &[usize],
    staged: &Schema,
) -> Result<(), VerifyError> {
    let (ops, start) = frag_ops(context, frag, code)?;
    if ops.len() != keep.len() {
        return Err(VerifyError::ArityMismatch {
            context: format!("{context} (one copy per kept column)"),
            expected: keep.len(),
            found: ops.len(),
        });
    }
    for (i, (op, &col)) in ops.iter().zip(keep).enumerate() {
        let pc = start + i as u32;
        match *op {
            Op::Copy { src, width, dst } => {
                let want_src = base.schema.offset(col) as u32;
                let want_width = base.schema.column(col).dtype.width() as u32;
                let want_dst = staged.offset(i) as u32;
                if width != want_width {
                    return Err(VerifyError::WidthMismatch {
                        context: context.to_string(),
                        op: pc,
                        expected: want_width,
                        found: width,
                    });
                }
                if src != want_src || dst != want_dst {
                    return Err(VerifyError::PlanMismatch {
                        context: context.to_string(),
                        op: pc,
                        detail: format!(
                            "copies [{src}, {src}+{width}) to {dst}; kept column {i} \
                             (base column {col}) is [{want_src}, {want_src}+{want_width}) \
                             to {want_dst}"
                        ),
                    });
                }
            }
            ref other => {
                return Err(VerifyError::WrongOpKind {
                    context: context.to_string(),
                    op: pc,
                    expected: "copy",
                    found: op_kind(other),
                })
            }
        }
    }
    Ok(())
}

/// Verify a key-image fragment: exactly one image op reading the declared
/// key column of `schema`, with the char-image width matching the column
/// (the [`CompiledKey`] big-endian-prefix encoding takes
/// `min(width, 8)` bytes, so a diverging width changes hash placement).
///
/// [`CompiledKey`]: hique_holistic::kernel::CompiledKey
fn verify_image(
    context: &str,
    frag: Frag,
    code: &[Op],
    map: &FieldMap,
    declared_column: usize,
) -> Result<(), VerifyError> {
    let (ops, start) = frag_ops(context, frag, code)?;
    if ops.is_empty() {
        return Err(VerifyError::EmptyFragment {
            context: context.to_string(),
        });
    }
    if ops.len() != 1 {
        return Err(VerifyError::ArityMismatch {
            context: format!("{context} (single-op key image)"),
            expected: 1,
            found: ops.len(),
        });
    }
    let pc = start;
    let declared_offset = map.schema.offset(declared_column) as u32;
    let offset = match ops[0] {
        Op::ImageI32 { offset } => {
            map.check_read(context, pc, offset, "i32", |d| {
                matches!(d, DataType::Int32 | DataType::Date)
            })?;
            offset
        }
        Op::ImageI64 { offset } => {
            map.check_read(context, pc, offset, "i64", |d| matches!(d, DataType::Int64))?;
            offset
        }
        Op::ImageF64 { offset } => {
            map.check_read(context, pc, offset, "f64", |d| {
                matches!(d, DataType::Float64)
            })?;
            offset
        }
        Op::ImageChar { offset, width } => {
            let dtype = map.check_read(context, pc, offset, "bytes", |d| {
                matches!(d, DataType::Char(_))
            })?;
            let field_width = match dtype {
                DataType::Char(w) => w as u32,
                _ => unreachable!("check_read only accepted Char"),
            };
            if width != field_width {
                return Err(VerifyError::WidthMismatch {
                    context: context.to_string(),
                    op: pc,
                    expected: field_width,
                    found: width,
                });
            }
            offset
        }
        ref other => {
            return Err(VerifyError::WrongOpKind {
                context: context.to_string(),
                op: pc,
                expected: "image",
                found: op_kind(other),
            })
        }
    };
    if offset != declared_offset {
        return Err(VerifyError::PlanMismatch {
            context: context.to_string(),
            op: pc,
            detail: format!(
                "images offset {offset}, the declared key column {declared_column} \
                 sits at offset {declared_offset}"
            ),
        });
    }
    Ok(())
}

/// Verify an expression fragment by abstract interpretation: register
/// bounds, def-before-use over the fragment-local definedness lattice,
/// typed column loads and pool bounds.  Returns `()` — the value is the
/// last op's destination, which every non-empty well-formed fragment has.
fn verify_expr(
    context: &str,
    frag: Frag,
    code: &[Op],
    pool: &ConstPool,
    map: &FieldMap,
    bank: usize,
) -> Result<(), VerifyError> {
    let (ops, start) = frag_ops(context, frag, code)?;
    if ops.is_empty() {
        return Err(VerifyError::EmptyFragment {
            context: context.to_string(),
        });
    }
    let mut defined = vec![false; bank];
    let check_reg = |pc: u32, reg: u8| -> Result<usize, VerifyError> {
        let idx = reg as usize;
        if idx >= bank {
            return Err(VerifyError::RegisterOutOfRange {
                context: context.to_string(),
                op: pc,
                reg,
                bank,
            });
        }
        Ok(idx)
    };
    for (i, op) in ops.iter().enumerate() {
        let pc = start + i as u32;
        match *op {
            Op::LoadF { dst, offset } => {
                map.check_read(context, pc, offset, "f64", |d| {
                    matches!(d, DataType::Float64)
                })?;
                defined[check_reg(pc, dst)?] = true;
            }
            Op::LoadI32F { dst, offset } => {
                map.check_read(context, pc, offset, "i32", |d| {
                    matches!(d, DataType::Int32 | DataType::Date)
                })?;
                defined[check_reg(pc, dst)?] = true;
            }
            Op::LoadI64F { dst, offset } => {
                map.check_read(context, pc, offset, "i64", |d| matches!(d, DataType::Int64))?;
                defined[check_reg(pc, dst)?] = true;
            }
            Op::ConstF { dst, .. } => {
                defined[check_reg(pc, dst)?] = true;
            }
            Op::PoolF { dst, idx } => {
                if idx as usize >= pool.floats.len() {
                    return Err(VerifyError::PoolIndexOutOfRange {
                        context: context.to_string(),
                        op: pc,
                        section: "float",
                        index: idx,
                        len: pool.floats.len(),
                    });
                }
                defined[check_reg(pc, dst)?] = true;
            }
            Op::Arith { dst, a, b, .. } => {
                let (ai, bi) = (check_reg(pc, a)?, check_reg(pc, b)?);
                if !defined[ai] {
                    return Err(VerifyError::UseBeforeDef {
                        context: context.to_string(),
                        op: pc,
                        reg: a,
                    });
                }
                if !defined[bi] {
                    return Err(VerifyError::UseBeforeDef {
                        context: context.to_string(),
                        op: pc,
                        reg: b,
                    });
                }
                defined[check_reg(pc, dst)?] = true;
            }
            ref other => {
                return Err(VerifyError::WrongOpKind {
                    context: context.to_string(),
                    op: pc,
                    expected: "expression",
                    found: op_kind(other),
                })
            }
        }
    }
    Ok(())
}

/// Hold the aggregation's shared expression fragment and slot table to
/// the generator's aggregate program.  The generic expression checks run
/// first (register bounds, def-before-use, typed loads, pool bounds), so a
/// corrupted op keeps its specific diagnosis; positional agreement with
/// the program's nodes and slots follows.
fn verify_agg_program(
    frags: &crate::program::AggFrags,
    code: &[Op],
    pool: &ConstPool,
    joined: &FieldMap,
    bank: usize,
    program: &AggProgram,
) -> Result<(), VerifyError> {
    let context = "aggregate DAG";
    let nodes = program.nodes();
    let (ops, start) = frag_ops(context, frags.dag, code)?;
    // COUNT-only aggregations have an empty DAG.
    if !ops.is_empty() {
        verify_expr(context, frags.dag, code, pool, joined, bank)?;
    }
    if ops.len() != nodes.len() {
        return Err(VerifyError::ArityMismatch {
            context: "aggregate DAG ops vs program nodes".into(),
            expected: nodes.len(),
            found: ops.len(),
        });
    }
    for (i, (op, node)) in ops.iter().zip(nodes).enumerate() {
        let agrees = match (*op, *node) {
            (Op::ConstF { dst, value }, AggNode::Const(c)) => {
                dst as usize == i && value.to_bits() == c.to_bits()
            }
            (Op::PoolF { dst, idx }, AggNode::Const(c)) => {
                dst as usize == i && pool.floats[idx as usize].to_bits() == c.to_bits()
            }
            (Op::LoadI32F { dst, offset }, AggNode::ColI32(off))
            | (Op::LoadI64F { dst, offset }, AggNode::ColI64(off))
            | (Op::LoadF { dst, offset }, AggNode::ColF64(off)) => {
                dst as usize == i && offset as usize == off
            }
            (
                Op::Arith { op, dst, a, b },
                AggNode::Bin {
                    op: nop,
                    left,
                    right,
                },
            ) => dst as usize == i && op == nop && a as u16 == left && b as u16 == right,
            _ => false,
        };
        if !agrees {
            return Err(VerifyError::PlanMismatch {
                context: format!("aggregate DAG node {i}"),
                op: start + i as u32,
                detail: format!("program declares {node:?} into r{i}, code has {op:?}"),
            });
        }
    }
    if frags.layout != *program.layout() {
        return Err(VerifyError::PlanMismatch {
            context: "aggregate slots".into(),
            op: frags.dag.start,
            detail: format!(
                "program declares {:?}, bytecode carries {:?}",
                program.layout(),
                frags.layout
            ),
        });
    }
    Ok(())
}

/// Verify a compiled program against the query it claims to implement.
///
/// Runs unconditionally inside [`crate::compile`] and
/// [`crate::VmProgram::bind`]; exposed publicly so the conformance
/// mutation lane (and any cache layer) can re-check a program without
/// recompiling it.
pub fn verify(
    program: &VmProgram,
    generated: &GeneratedQuery,
    catalog: &Catalog,
) -> Result<(), VerifyError> {
    let plan = generated.plan();
    let code = &program.code[..];
    let pool = &program.pool;
    let bank = program.float_registers;

    // ---- Fragment-table arities against the plan -----------------------
    if program.tables.len() != plan.staged.len() {
        return Err(VerifyError::ArityMismatch {
            context: "staging fragment table".into(),
            expected: plan.staged.len(),
            found: program.tables.len(),
        });
    }
    let steps = plan.binary_steps();
    if program.joins.len() != steps.len() {
        return Err(VerifyError::ArityMismatch {
            context: "join fragment table".into(),
            expected: steps.len(),
            found: program.joins.len(),
        });
    }
    if plan.aggregate.is_some() != program.agg.is_some() {
        return Err(VerifyError::ArityMismatch {
            context: "aggregation fragments vs plan aggregate".into(),
            expected: plan.aggregate.is_some() as usize,
            found: program.agg.is_some() as usize,
        });
    }

    // ---- Staging fragments ---------------------------------------------
    for (t, (staged, frags)) in plan.staged.iter().zip(&program.tables).enumerate() {
        let info = catalog
            .table(&staged.table_name)
            .map_err(|e| VerifyError::PlanMismatch {
                context: format!("staged[{t}]"),
                op: frags.filter.start,
                detail: format!("base table {} unavailable: {e}", staged.table_name),
            })?;
        let base_schema = info.heap.schema().clone();
        let base = FieldMap::new(&base_schema);
        verify_filter(
            &format!("staged[{t}] ({}) filter", staged.table_name),
            frags.filter,
            code,
            pool,
            &base,
            &staged.filters,
        )?;
        verify_project(
            &format!("staged[{t}] ({}) projection", staged.table_name),
            frags.project,
            code,
            &base,
            &staged.keep,
            &staged.schema,
        )?;
    }

    // ---- Join-step key images over the evolving intermediate -----------
    if !steps.is_empty() {
        let mut current = plan.staged[plan.join_order[0]].schema.clone();
        for (i, (step, frags)) in steps.iter().zip(&program.joins).enumerate() {
            let right = &plan.staged[step.right].schema;
            verify_image(
                &format!("join[{i}] left image"),
                frags.left_image,
                code,
                &FieldMap::new(&current),
                step.left_key,
            )?;
            verify_image(
                &format!("join[{i}] right image"),
                frags.right_image,
                code,
                &FieldMap::new(right),
                step.right_key,
            )?;
            current = current.join(right);
        }
    }

    // ---- Aggregation fragments over the joined schema ------------------
    let joined = FieldMap::new(&plan.joined_schema);
    if let (Some(spec), Some(frags)) = (&plan.aggregate, &program.agg) {
        if frags.group_images.len() != spec.group_columns.len() {
            return Err(VerifyError::ArityMismatch {
                context: "group-image fragments".into(),
                expected: spec.group_columns.len(),
                found: frags.group_images.len(),
            });
        }
        for (i, (&g, frag)) in spec
            .group_columns
            .iter()
            .zip(&frags.group_images)
            .enumerate()
        {
            verify_image(&format!("group image {i}"), *frag, code, &joined, g)?;
        }
        let Some(compiled) = generated.aggregation() else {
            return Err(VerifyError::PlanMismatch {
                context: "aggregate DAG".into(),
                op: frags.dag.start,
                detail: "the generated query carries no aggregate program".into(),
            });
        };
        verify_agg_program(frags, code, pool, &joined, bank, compiled.program())?;
    }

    // ---- Output decode table vs the plan signature ---------------------
    if program.outputs.len() != plan.output_schema.len() {
        return Err(VerifyError::ArityMismatch {
            context: "output decode table vs output schema".into(),
            expected: plan.output_schema.len(),
            found: program.outputs.len(),
        });
    }
    if program.outputs.len() != generated.outputs().len() {
        return Err(VerifyError::ArityMismatch {
            context: "output decode table vs generated kernels".into(),
            expected: generated.outputs().len(),
            found: program.outputs.len(),
        });
    }
    for (k, out) in program.outputs.iter().enumerate() {
        let out_dtype = plan.output_schema.column(k).dtype;
        match (out, &plan.aggregate) {
            (OutputOp::Group(p), Some(spec)) => {
                if *p >= spec.group_columns.len() {
                    return Err(VerifyError::OutputIndexOutOfRange {
                        context: format!("output {k} (group reference)"),
                        index: *p,
                        len: spec.group_columns.len(),
                    });
                }
            }
            (OutputOp::Aggregate(i), Some(spec)) => {
                if *i >= spec.aggregates.len() {
                    return Err(VerifyError::OutputIndexOutOfRange {
                        context: format!("output {k} (aggregate reference)"),
                        index: *i,
                        len: spec.aggregates.len(),
                    });
                }
            }
            (OutputOp::Group(_) | OutputOp::Aggregate(_), None) => {
                return Err(VerifyError::PlanMismatch {
                    context: format!("output {k}"),
                    op: 0,
                    detail: "group/aggregate decode in a non-aggregate query".into(),
                })
            }
            (OutputOp::Column(key), None) => {
                let map = &joined;
                let dtype = map.field_at(key.offset as u32).ok_or_else(|| {
                    VerifyError::NoFieldAtOffset {
                        context: format!("output {k} (column decode)"),
                        op: 0,
                        offset: key.offset as u32,
                        record_width: map.width(),
                    }
                })?;
                if dtype != key.dtype || key.width != dtype.width() {
                    return Err(VerifyError::TypeMismatch {
                        context: format!("output {k} (column decode)"),
                        op: 0,
                        offset: key.offset as u32,
                        expected: dtype_label(dtype),
                        found: dtype_label(key.dtype),
                    });
                }
            }
            (OutputOp::Expr(frag, dtype), None) => {
                verify_expr(
                    &format!("output {k} (expression)"),
                    *frag,
                    code,
                    pool,
                    &joined,
                    bank,
                )?;
                if *dtype != out_dtype {
                    return Err(VerifyError::TypeMismatch {
                        context: format!("output {k} (expression cast)"),
                        op: frag.start,
                        offset: 0,
                        expected: dtype_label(out_dtype),
                        found: dtype_label(*dtype),
                    });
                }
            }
            (OutputOp::Column(_) | OutputOp::Expr(..), Some(_)) => {
                return Err(VerifyError::PlanMismatch {
                    context: format!("output {k}"),
                    op: 0,
                    detail: "scalar decode in an aggregate query".into(),
                })
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{Op, RhsI};
    use crate::program::{compile, CompileMode, OutputOp};
    use hique_plan::{plan_query, CatalogProvider, PlannerConfig};
    use hique_sql::ast::CmpOp;
    use hique_types::{Column, Row, Value};

    fn catalog() -> Catalog {
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
        for i in 0..20 {
            cat.table_mut("r")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![
                    Value::Int32(i % 5),
                    Value::Str("AAA".into()),
                    Value::Float64(i as f64),
                ]))
                .unwrap();
        }
        for i in 0..5 {
            cat.table_mut("s")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![Value::Int32(i), Value::Int64(i as i64)]))
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

    /// The first op index of staged table 0's filter fragment.
    /// Code index of the first column load of the aggregate DAG (its
    /// constants come first).
    fn first_dag_load(p: &VmProgram) -> usize {
        let frag = p.agg.as_ref().unwrap().dag;
        let load = frag.ops(&p.code).iter().position(is_load_from_record);
        frag.start as usize + load.expect("the DAG loads a column")
    }

    fn is_load_from_record(op: &Op) -> bool {
        matches!(
            op,
            Op::LoadF { .. } | Op::LoadI32F { .. } | Op::LoadI64F { .. }
        )
    }

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
        ] {
            for mode in [CompileMode::Specialized, CompileMode::Pooled] {
                let (p, g) = program(sql, &cat, mode);
                verify(&p, &g, &cat).unwrap();
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
        assert!(matches!(
            verify(&p, &g, &cat),
            Err(VerifyError::UseBeforeDef { reg: 0, .. })
        ));
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
        assert!(matches!(
            verify(&p, &g, &cat),
            Err(VerifyError::RegisterOutOfRange { reg: 200, .. })
        ));
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
        assert!(matches!(
            verify(&p, &g, &cat),
            Err(VerifyError::TypeMismatch { .. })
        ));
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
        assert!(matches!(
            verify(&p, &g, &cat),
            Err(VerifyError::TypeMismatch { .. })
        ));
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
        assert!(matches!(
            verify(&p, &g, &cat),
            Err(VerifyError::PoolIndexOutOfRange { index: 99, .. })
        ));
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
        assert!(matches!(
            verify(&p, &g, &cat),
            Err(VerifyError::ArityMismatch { .. })
        ));
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
        assert!(matches!(
            verify(&p, &g, &cat),
            Err(VerifyError::ArityMismatch { .. })
        ));
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
        assert!(matches!(
            verify(&p, &g, &cat),
            Err(VerifyError::FragOutOfRange { .. })
        ));
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
        assert!(matches!(
            verify(&p, &g, &cat),
            Err(VerifyError::WrongOpKind {
                expected: "test",
                found: "copy",
                ..
            })
        ));
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
        assert!(matches!(
            verify(&p, &g, &cat),
            Err(VerifyError::NoFieldAtOffset { .. })
        ));
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
        assert!(matches!(
            verify(&p, &g, &cat),
            Err(VerifyError::PlanMismatch { .. })
        ));
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
        assert!(matches!(
            verify(&p, &g, &cat),
            Err(VerifyError::PlanMismatch { .. })
        ));
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
        assert!(matches!(
            verify(&p, &g, &cat),
            Err(VerifyError::WidthMismatch { .. })
        ));
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
        assert!(matches!(
            verify(&p, &g, &cat),
            Err(VerifyError::OutputIndexOutOfRange { index: 10, .. })
        ));
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
        assert!(matches!(
            verify(&p, &g, &cat),
            Err(VerifyError::EmptyFragment { .. })
        ));
    }

    #[test]
    fn verifier_errors_convert_to_typed_codegen_errors() {
        let e: HiqueError = VerifyError::EmptyFragment {
            context: "join[0] left image".into(),
        }
        .into();
        match e {
            HiqueError::Codegen(msg) => {
                assert!(msg.contains("bytecode verifier"), "{msg}");
                assert!(msg.contains("join[0] left image"), "{msg}");
            }
            other => panic!("expected Codegen, got {other:?}"),
        }
    }
}
