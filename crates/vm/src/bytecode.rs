//! The bytecode ISA and its interpreter.
//!
//! The instruction set is shaped by the kernels the generator emits
//! (DESIGN.md §2): predicate *tests* with baked-in offsets and constants,
//! byte-range *copies* for staging projections, a small register machine
//! for arithmetic expressions, and key-*image* loads naming the key whose
//! order-preserving `u64` image ([`CompiledKey::order_image`]) the
//! statically compiled kernels hash, partition and index by.  A program is
//! one flat `Vec<Op>`; the compiler hands out [`Frag`] ranges (filter
//! fragment, projection fragment, the aggregation's one shared expression
//! fragment, …) into it.
//!
//! Constants appear in two forms.  In [`CompileMode::Specialized`]
//! programs numeric constants are immediates folded into the instruction —
//! the specialization the paper obtains by running `gcc` on per-query C
//! source.  In [`CompileMode::Pooled`] programs they are slots of a
//! [`ConstPool`], so one compiled program can be rebound to any query of
//! the same shape class by swapping the pool (plan-cache template
//! sharing).  String constants always live in the pool: they are compared
//! by reference, never loaded into a register.
//!
//! [`CompileMode::Specialized`]: crate::CompileMode::Specialized
//! [`CompileMode::Pooled`]: crate::CompileMode::Pooled

use hique_holistic::kernel::CompiledKey;
use hique_sql::ast::{BinOp, CmpOp};
use hique_types::tuple::{read_f64_at, read_i32_at, read_i64_at};
use hique_types::DataType;

/// Integer right-hand operand: an immediate (specialized) or a constant
/// pool slot (shared template).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RhsI {
    /// Constant folded into the instruction.
    Imm(i64),
    /// Index into [`ConstPool::ints`].
    Pool(u32),
}

/// Float right-hand operand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RhsF {
    /// Constant folded into the instruction.
    Imm(f64),
    /// Index into [`ConstPool::floats`].
    Pool(u32),
}

/// One bytecode instruction.
///
/// Register indexes are `u16`, the register type of the generator's register
/// program ([`hique_holistic::agg::AggNode`]): an expression fragment is
/// that program lowered op for op, op `i` defining register `i`, so every
/// program the generator accepts has a bank, one `f64` register per op of
/// the fragment.  Key images and test results do not use registers (tests
/// short-circuit the fragment, images return their value directly).  An
/// `Op` stays 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Predicate: `i32` column at `offset` compared with `rhs` (also used
    /// for dates, which are day-number `i32`s on disk).
    TestI32 { offset: u32, op: CmpOp, rhs: RhsI },
    /// Predicate: `i64` column at `offset` compared with `rhs`.
    TestI64 { offset: u32, op: CmpOp, rhs: RhsI },
    /// Predicate: `f64` column at `offset` compared with `rhs` under IEEE
    /// total order (matching the static kernels).
    TestF64 { offset: u32, op: CmpOp, rhs: RhsF },
    /// Predicate: fixed-width string at `offset` compared bytewise with
    /// the space-padded constant in [`ConstPool::bytes`] slot `pool`.
    TestBytes {
        offset: u32,
        width: u32,
        op: CmpOp,
        pool: u32,
    },
    /// Projection: copy `width` record bytes from `src` to output `dst`.
    Copy { src: u32, width: u32, dst: u32 },
    /// Load the `f64` column at `offset` into register `dst`.
    LoadF { dst: u16, offset: u32 },
    /// Load the `i32`/date column at `offset` into register `dst` as `f64`.
    LoadI32F { dst: u16, offset: u32 },
    /// Load the `i64` column at `offset` into register `dst` as `f64`.
    LoadI64F { dst: u16, offset: u32 },
    /// Load an immediate into register `dst`.
    ConstF { dst: u16, value: f64 },
    /// Load [`ConstPool::floats`] slot `idx` into register `dst`.
    PoolF { dst: u16, idx: u32 },
    /// `dst = a <op> b` over the float bank.
    Arith { op: BinOp, dst: u16, a: u16, b: u16 },
    /// Key image of the `i32`/date column at `offset`.
    ImageI32 { offset: u32 },
    /// Key image of the `i64` column at `offset`.
    ImageI64 { offset: u32 },
    /// Key image of the `f64` column at `offset`.
    ImageF64 { offset: u32 },
    /// Key image of the `width`-byte string at `offset`.  Every image op
    /// names a [`CompiledKey`] and computes its
    /// [`CompiledKey::order_image`]; equal images are equal keys only when
    /// [`CompiledKey::image_is_exact`] (not for strings wider than eight
    /// bytes, whose image hits are confirmed on the key bytes).
    ImageChar { offset: u32, width: u32 },
}

/// The constant pool of a compiled program: every literal the query text
/// carried, in the canonical extraction order.  Two queries of one shape
/// class compile to identical code and differ only in this pool.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConstPool {
    /// Integer constants (filter operands for `i32`/`i64`/date columns).
    pub ints: Vec<i64>,
    /// Float constants (filter operands and expression literals).
    pub floats: Vec<f64>,
    /// String constants, space-padded to their column width.
    pub bytes: Vec<Vec<u8>>,
}

impl ConstPool {
    /// Append an integer constant, returning its slot.
    pub fn push_int(&mut self, v: i64) -> u32 {
        self.ints.push(v);
        (self.ints.len() - 1) as u32
    }

    /// Append a float constant, returning its slot.
    pub fn push_float(&mut self, v: f64) -> u32 {
        self.floats.push(v);
        (self.floats.len() - 1) as u32
    }

    /// Append a byte-string constant, returning its slot.
    pub fn push_bytes(&mut self, v: Vec<u8>) -> u32 {
        self.bytes.push(v);
        (self.bytes.len() - 1) as u32
    }
}

/// A fragment: a half-open range of instructions in the shared code array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Frag {
    /// First instruction.
    pub start: u32,
    /// One past the last instruction.
    pub end: u32,
}

impl Frag {
    /// The instructions of this fragment within `code`.
    #[inline]
    pub fn ops<'a>(&self, code: &'a [Op]) -> &'a [Op] {
        &code[self.start as usize..self.end as usize]
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the fragment is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

#[inline(always)]
pub(crate) fn rhs_i(rhs: RhsI, pool: &ConstPool) -> i64 {
    match rhs {
        RhsI::Imm(v) => v,
        RhsI::Pool(i) => {
            debug_assert!(
                (i as usize) < pool.ints.len(),
                "verified program cannot reference int pool slot {i} of {}",
                pool.ints.len()
            );
            pool.ints[i as usize]
        }
    }
}

#[inline(always)]
pub(crate) fn rhs_f(rhs: RhsF, pool: &ConstPool) -> f64 {
    match rhs {
        RhsF::Imm(v) => v,
        RhsF::Pool(i) => {
            debug_assert!(
                (i as usize) < pool.floats.len(),
                "verified program cannot reference float pool slot {i} of {}",
                pool.floats.len()
            );
            pool.floats[i as usize]
        }
    }
}

/// Cross-check (debug builds only) that a column access the verifier
/// proved in-bounds really is: `width` bytes at `offset` inside `record`.
#[inline(always)]
fn debug_check_read(record: &[u8], offset: u32, width: u32) {
    debug_assert!(
        offset as usize + width as usize <= record.len(),
        "verified program cannot read [{offset}, {offset}+{width}) of a {}-byte record",
        record.len()
    );
}

/// Evaluate one predicate test against one record — the definition of the
/// test ops; execution resolves each into a page sweep instead
/// (`vector::filters`).
#[inline(always)]
fn test_op(op: &Op, pool: &ConstPool, record: &[u8]) -> bool {
    match *op {
        Op::TestI32 { offset, op, rhs } => {
            debug_check_read(record, offset, 4);
            op.matches((read_i32_at(record, offset as usize) as i64).cmp(&rhs_i(rhs, pool)))
        }
        Op::TestI64 { offset, op, rhs } => {
            debug_check_read(record, offset, 8);
            op.matches(read_i64_at(record, offset as usize).cmp(&rhs_i(rhs, pool)))
        }
        Op::TestF64 { offset, op, rhs } => {
            debug_check_read(record, offset, 8);
            op.matches(read_f64_at(record, offset as usize).total_cmp(&rhs_f(rhs, pool)))
        }
        Op::TestBytes {
            offset,
            width,
            op,
            pool: slot,
        } => {
            debug_check_read(record, offset, width);
            debug_assert!(
                (slot as usize) < pool.bytes.len(),
                "verified program cannot reference bytes pool slot {slot} of {}",
                pool.bytes.len()
            );
            let field = &record[offset as usize..(offset + width) as usize];
            op.matches(field.cmp(pool.bytes[slot as usize].as_slice()))
        }
        _ => unreachable!("non-test op in filter fragment"),
    }
}

/// Run a filter fragment over one record: every test must pass.
/// `comparisons` counts the tests executed (the generated code's
/// short-circuit `continue` skips the rest, exactly like the static
/// kernels' filter loop).
#[inline]
pub fn run_filter(ops: &[Op], pool: &ConstPool, record: &[u8], comparisons: &mut u64) -> bool {
    for op in ops {
        *comparisons += 1;
        if !test_op(op, pool, record) {
            return false;
        }
    }
    true
}

/// Run a projection fragment: copy the kept byte ranges of `record` into
/// `out` (sized to the projected width by the caller).
#[inline]
pub fn run_project(ops: &[Op], record: &[u8], out: &mut [u8]) {
    for op in ops {
        match *op {
            Op::Copy { src, width, dst } => {
                debug_check_read(record, src, width);
                debug_assert!(
                    dst as usize + width as usize <= out.len(),
                    "verified program cannot write [{dst}, {dst}+{width}) of a {}-byte output",
                    out.len()
                );
                out[dst as usize..(dst + width) as usize]
                    .copy_from_slice(&record[src as usize..(src + width) as usize]);
            }
            _ => unreachable!("non-copy op in projection fragment"),
        }
    }
}

/// Run an expression fragment over one record: every op writes its
/// destination register.
#[inline]
pub fn run_expr(ops: &[Op], pool: &ConstPool, record: &[u8], regs: &mut [f64]) {
    for op in ops {
        #[cfg(debug_assertions)]
        if let Op::LoadF { dst, .. }
        | Op::LoadI32F { dst, .. }
        | Op::LoadI64F { dst, .. }
        | Op::ConstF { dst, .. }
        | Op::PoolF { dst, .. }
        | Op::Arith { dst, .. } = *op
        {
            debug_assert!(
                (dst as usize) < regs.len(),
                "verified program cannot address register r{dst} of a {}-register bank",
                regs.len()
            );
        }
        match *op {
            Op::LoadF { dst, offset } => {
                debug_check_read(record, offset, 8);
                regs[dst as usize] = read_f64_at(record, offset as usize);
            }
            Op::LoadI32F { dst, offset } => {
                debug_check_read(record, offset, 4);
                regs[dst as usize] = read_i32_at(record, offset as usize) as f64;
            }
            Op::LoadI64F { dst, offset } => {
                debug_check_read(record, offset, 8);
                regs[dst as usize] = read_i64_at(record, offset as usize) as f64;
            }
            Op::ConstF { dst, value } => regs[dst as usize] = value,
            Op::PoolF { dst, idx } => {
                debug_assert!(
                    (idx as usize) < pool.floats.len(),
                    "verified program cannot reference float pool slot {idx} of {}",
                    pool.floats.len()
                );
                regs[dst as usize] = pool.floats[idx as usize];
            }
            Op::Arith { op, dst, a, b } => {
                debug_assert!(
                    (a as usize) < regs.len() && (b as usize) < regs.len(),
                    "verified program cannot read registers r{a}/r{b} of a {}-register bank",
                    regs.len()
                );
                let (l, r) = (regs[a as usize], regs[b as usize]);
                regs[dst as usize] = match op {
                    BinOp::Add => l + r,
                    BinOp::Sub => l - r,
                    BinOp::Mul => l * r,
                    BinOp::Div => l / r,
                };
            }
            _ => unreachable!("non-expression op in expression fragment"),
        }
    }
}

/// The compiled key accessor an image op names — its offset, width and
/// image type — or `None` for any other op (or a string wider than any
/// column).  The one place an image op becomes a key: the resolved join
/// and group keys, and the reference interpreter's images, come from it.
pub(crate) fn image_key(op: &Op) -> Option<CompiledKey> {
    let key = |offset: u32, dtype| Some(CompiledKey::at(offset as usize, dtype));
    match *op {
        Op::ImageI32 { offset } => key(offset, DataType::Int32),
        Op::ImageI64 { offset } => key(offset, DataType::Int64),
        Op::ImageF64 { offset } => key(offset, DataType::Float64),
        Op::ImageChar { offset, width } => key(offset, DataType::Char(u16::try_from(width).ok()?)),
        _ => None,
    }
}

/// Run a key-image fragment, returning the key's order image
/// ([`CompiledKey::order_image`]), so hash placement agrees across engine
/// modes.
#[inline]
pub fn run_image(ops: &[Op], record: &[u8]) -> u64 {
    let key = match ops {
        [op] => image_key(op),
        _ => None,
    };
    let Some(key) = key else {
        unreachable!("a key-image fragment is one image op")
    };
    debug_check_read(record, key.offset as u32, key.width as u32);
    key.order_image(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_types::tuple::encode_record;
    use hique_types::{Column, DataType, Schema, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("i", DataType::Int32),
            Column::new("f", DataType::Float64),
            Column::new("s", DataType::Char(6)),
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

    #[test]
    fn filter_fragment_short_circuits_and_counts() {
        let s = schema();
        let rec = record(5, 2.5, "abc", 77);
        let mut pool = ConstPool::default();
        let slot = pool.push_bytes(b"abc   ".to_vec());
        let ops = [
            Op::TestI32 {
                offset: s.offset(0) as u32,
                op: CmpOp::Eq,
                rhs: RhsI::Imm(5),
            },
            Op::TestF64 {
                offset: s.offset(1) as u32,
                op: CmpOp::Lt,
                rhs: RhsF::Imm(3.0),
            },
            Op::TestBytes {
                offset: s.offset(2) as u32,
                width: 6,
                op: CmpOp::Eq,
                pool: slot,
            },
        ];
        let mut cmp = 0u64;
        assert!(run_filter(&ops, &pool, &rec, &mut cmp));
        assert_eq!(cmp, 3);
        // First test fails: the rest are skipped.
        let miss = record(6, 2.5, "abc", 77);
        cmp = 0;
        assert!(!run_filter(&ops, &pool, &miss, &mut cmp));
        assert_eq!(cmp, 1);
    }

    #[test]
    fn pooled_and_immediate_operands_agree() {
        let s = schema();
        let rec = record(5, 2.5, "abc", 77);
        let mut pool = ConstPool::default();
        let islot = pool.push_int(5);
        let mut cmp = 0u64;
        let pooled = [Op::TestI32 {
            offset: s.offset(0) as u32,
            op: CmpOp::Eq,
            rhs: RhsI::Pool(islot),
        }];
        let imm = [Op::TestI32 {
            offset: s.offset(0) as u32,
            op: CmpOp::Eq,
            rhs: RhsI::Imm(5),
        }];
        assert_eq!(
            run_filter(&pooled, &pool, &rec, &mut cmp),
            run_filter(&imm, &pool, &rec, &mut cmp)
        );
    }

    #[test]
    fn expression_fragment_evaluates_registers() {
        let s = schema();
        let rec = record(4, 0.25, "zz", 8);
        let pool = ConstPool::default();
        // f * (1 - i) + l  ==  0.25 * (1 - 4) + 8  ==  7.25
        let ops = [
            Op::LoadF {
                dst: 0,
                offset: s.offset(1) as u32,
            },
            Op::ConstF { dst: 1, value: 1.0 },
            Op::LoadI32F {
                dst: 2,
                offset: s.offset(0) as u32,
            },
            Op::Arith {
                op: BinOp::Sub,
                dst: 1,
                a: 1,
                b: 2,
            },
            Op::Arith {
                op: BinOp::Mul,
                dst: 0,
                a: 0,
                b: 1,
            },
            Op::LoadI64F {
                dst: 1,
                offset: s.offset(3) as u32,
            },
            Op::Arith {
                op: BinOp::Add,
                dst: 0,
                a: 0,
                b: 1,
            },
        ];
        let mut regs = [0.0; 4];
        run_expr(&ops, &pool, &rec, &mut regs);
        assert!((regs[0] - 7.25).abs() < 1e-12);
    }

    #[test]
    fn an_op_is_24_bytes() {
        // `u16` register operands fit beside the widest operand sets (a
        // test's offset, operator and 16-byte right-hand side).
        assert_eq!(std::mem::size_of::<Op>(), 24);
    }

    #[test]
    fn key_images_match_static_kernels() {
        let s = schema();
        let recs = [
            record(-3, -0.0, "ab", i64::MIN + 1),
            record(7, 3.75, "zzzzzz", 42),
        ];
        for (col, op) in [
            (
                0usize,
                Op::ImageI32 {
                    offset: s.offset(0) as u32,
                },
            ),
            (
                1,
                Op::ImageF64 {
                    offset: s.offset(1) as u32,
                },
            ),
            (
                2,
                Op::ImageChar {
                    offset: s.offset(2) as u32,
                    width: 6,
                },
            ),
            (
                3,
                Op::ImageI64 {
                    offset: s.offset(3) as u32,
                },
            ),
        ] {
            let key = CompiledKey::compile(&s, col);
            for rec in &recs {
                assert_eq!(run_image(&[op], rec), key.order_image(rec), "column {col}");
            }
        }
    }

    #[test]
    fn projection_fragment_copies_ranges() {
        let s = schema();
        let rec = record(9, 1.5, "xy", 33);
        let ops = [
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
        let mut out = vec![0u8; 12];
        run_project(&ops, &rec, &mut out);
        assert_eq!(read_i64_at(&out, 0), 33);
        assert_eq!(read_i32_at(&out, 8), 9);
    }
}
