//! Seeded single-op corruption of compiled programs — the negative-test
//! generator behind the conformance mutation lane
//! (`conformance --mutate-bytecode N`).
//!
//! Every mutation kind here produces a program that is *definitely* wrong
//! with respect to the plan it was compiled from: a relocated offset lands
//! outside every field, a swapped comparison operator contradicts the
//! declared filter, a truncated pool orphans a live reference.  There are
//! deliberately no "maybe equivalent" mutants (no ±1 offset skews that
//! could land on a neighbouring one-byte field, no register renames that
//! could stay live) — the lane's contract is that each mutant must be
//! rejected by [`crate::verify::verify`] or fail typed at runtime, never
//! panic and never return a plausible answer, and an equivalent mutant
//! would make that gate unfalsifiable.
//!
//! The generator is deterministic: one `u64` seed drives a xorshift64*
//! stream, so a failing mutant from CI reproduces locally from its seed.

use hique_sql::ast::CmpOp;

use hique_holistic::agg::AccumSlot;

use crate::bytecode::{Frag, Op, RhsF, RhsI, MAX_REGISTERS};
use crate::program::{OutputOp, VmProgram};

/// One corrupted program and the human-readable description of the single
/// mutation applied to it.
#[derive(Debug, Clone)]
pub struct Mutant {
    /// What was corrupted (kind, code position, old → new), for replay
    /// diagnostics when a mutant slips past the verifier.
    pub description: String,
    /// The corrupted program.
    pub program: VmProgram,
}

/// xorshift64* — tiny deterministic stream, no external RNG dependency.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below(items.len())])
        }
    }
}

/// An offset far past any record the workspace's schemas can produce;
/// guaranteed to land on no field boundary.
const FAR_OFFSET: u32 = 1 << 20;

/// A register index past any bank the compiler sizes.
const FAR_REGISTER: u8 = 200;
const _: () = assert!(FAR_REGISTER as usize >= MAX_REGISTERS);

const KINDS: usize = 14;

/// Generate up to `count` single-mutation corruptions of `template`,
/// deterministically from `seed`.  Kinds that do not apply to the program
/// (e.g. pool truncation of a pool-free specialized program) are skipped,
/// so short programs may yield fewer than `count` mutants.
pub fn mutants(template: &VmProgram, seed: u64, count: usize) -> Vec<Mutant> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(count);
    let mut attempts = 0usize;
    let budget = count * 64 + 64;
    while out.len() < count && attempts < budget {
        attempts += 1;
        let mut program = template.clone();
        let kind = rng.below(KINDS);
        if let Some(description) = apply(&mut program, kind, &mut rng) {
            out.push(Mutant {
                description,
                program,
            });
        }
    }
    out
}

/// Apply one mutation of `kind`; `None` when the kind has no valid target
/// in this program.
fn apply(p: &mut VmProgram, kind: usize, rng: &mut Rng) -> Option<String> {
    match kind {
        0 => relocate_offset(p, rng),
        1 => register_out_of_bank(p, rng),
        2 => use_before_def(p, rng),
        3 => pool_index_out(p, rng),
        4 => truncate_pool(p, rng),
        5 => wrong_type_tag(p, rng),
        6 => wrong_op_kind(p, rng),
        7 => swap_cmp_op(p, rng),
        8 => tweak_constant(p, rng),
        9 => skew_copy(p, rng),
        10 => frag_out_of_range(p, rng),
        11 => corrupt_outputs(p, rng),
        12 => truncate_code(p),
        13 => redirect_aggregate_register(p, rng),
        _ => None,
    }
}

fn indices_where(code: &[Op], pred: impl Fn(&Op) -> bool) -> Vec<usize> {
    code.iter()
        .enumerate()
        .filter(|(_, op)| pred(op))
        .map(|(i, _)| i)
        .collect()
}

/// Relocate a column access past every record: statically a
/// `NoFieldAtOffset`.
fn relocate_offset(p: &mut VmProgram, rng: &mut Rng) -> Option<String> {
    let targets = indices_where(&p.code, |op| {
        !matches!(op, Op::ConstF { .. } | Op::PoolF { .. } | Op::Arith { .. })
    });
    let &i = rng.pick(&targets)?;
    let old = match &mut p.code[i] {
        Op::TestI32 { offset, .. }
        | Op::TestI64 { offset, .. }
        | Op::TestF64 { offset, .. }
        | Op::TestBytes { offset, .. }
        | Op::LoadF { offset, .. }
        | Op::LoadI32F { offset, .. }
        | Op::LoadI64F { offset, .. }
        | Op::ImageI32 { offset }
        | Op::ImageI64 { offset }
        | Op::ImageF64 { offset }
        | Op::ImageChar { offset, .. } => {
            let old = *offset;
            *offset = FAR_OFFSET;
            old
        }
        Op::Copy { src, .. } => {
            let old = *src;
            *src = FAR_OFFSET;
            old
        }
        _ => return None,
    };
    Some(format!("op {i}: relocated offset {old} -> {FAR_OFFSET}"))
}

/// Point a register operand outside the float bank: statically a
/// `RegisterOutOfRange`.
fn register_out_of_bank(p: &mut VmProgram, rng: &mut Rng) -> Option<String> {
    let targets = indices_where(&p.code, |op| {
        matches!(
            op,
            Op::LoadF { .. }
                | Op::LoadI32F { .. }
                | Op::LoadI64F { .. }
                | Op::ConstF { .. }
                | Op::PoolF { .. }
                | Op::Arith { .. }
        )
    });
    let &i = rng.pick(&targets)?;
    let which = rng.below(3);
    let old = match &mut p.code[i] {
        Op::LoadF { dst, .. }
        | Op::LoadI32F { dst, .. }
        | Op::LoadI64F { dst, .. }
        | Op::ConstF { dst, .. }
        | Op::PoolF { dst, .. } => {
            let old = *dst;
            *dst = FAR_REGISTER;
            old
        }
        Op::Arith { dst, a, b, .. } => {
            let r = match which {
                0 => dst,
                1 => a,
                _ => b,
            };
            let old = *r;
            *r = FAR_REGISTER;
            old
        }
        _ => return None,
    };
    Some(format!(
        "op {i}: register r{old} -> r{FAR_REGISTER} (bank is {})",
        p.float_registers
    ))
}

/// Expression fragments of the program (the aggregate DAG and output
/// expressions) — the only fragments the register machine runs.
fn expr_frags(p: &VmProgram) -> Vec<Frag> {
    let mut frags = Vec::new();
    if let Some(agg) = &p.agg {
        frags.push(agg.dag);
    }
    for o in &p.outputs {
        if let OutputOp::Expr(f, _) = o {
            frags.push(*f);
        }
    }
    frags.retain(|f| !f.is_empty());
    frags
}

/// Make the first op of an expression fragment read its own undefined
/// destination: statically a `UseBeforeDef`.
fn use_before_def(p: &mut VmProgram, rng: &mut Rng) -> Option<String> {
    let frags = expr_frags(p);
    let frag = *rng.pick(&frags)?;
    let i = frag.start as usize;
    p.code[i] = Op::Arith {
        op: hique_sql::ast::BinOp::Add,
        dst: 0,
        a: 0,
        b: 0,
    };
    Some(format!(
        "op {i}: expression fragment now opens with r0 = r0 + r0 (r0 undefined)"
    ))
}

/// Point a live pool reference past its section: statically a
/// `PoolIndexOutOfRange`.
fn pool_index_out(p: &mut VmProgram, rng: &mut Rng) -> Option<String> {
    let targets = indices_where(&p.code, |op| {
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
            } | Op::TestBytes { .. }
                | Op::PoolF { .. }
        )
    });
    let &i = rng.pick(&targets)?;
    let (ints, floats, bytes) = (p.pool.ints.len(), p.pool.floats.len(), p.pool.bytes.len());
    let detail = match &mut p.code[i] {
        Op::TestI32 { rhs, .. } | Op::TestI64 { rhs, .. } => {
            *rhs = RhsI::Pool(ints as u32 + 3);
            format!("int slot {} of {ints}", ints + 3)
        }
        Op::TestF64 { rhs, .. } => {
            *rhs = RhsF::Pool(floats as u32 + 3);
            format!("float slot {} of {floats}", floats + 3)
        }
        Op::TestBytes { pool, .. } => {
            *pool = bytes as u32 + 3;
            format!("bytes slot {} of {bytes}", bytes + 3)
        }
        Op::PoolF { idx, .. } => {
            *idx = floats as u32 + 3;
            format!("float slot {} of {floats}", floats + 3)
        }
        _ => return None,
    };
    Some(format!(
        "op {i}: pool reference past its section ({detail})"
    ))
}

/// Pop the last slot of a pool section some op still references:
/// statically a `PoolIndexOutOfRange` on that op.
fn truncate_pool(p: &mut VmProgram, rng: &mut Rng) -> Option<String> {
    let last_int = p.pool.ints.len().checked_sub(1).map(|s| s as u32);
    let last_float = p.pool.floats.len().checked_sub(1).map(|s| s as u32);
    let last_bytes = p.pool.bytes.len().checked_sub(1).map(|s| s as u32);
    let mut candidates = Vec::new();
    for op in &p.code {
        match *op {
            Op::TestI32 {
                rhs: RhsI::Pool(s), ..
            }
            | Op::TestI64 {
                rhs: RhsI::Pool(s), ..
            } if Some(s) == last_int => candidates.push(0),
            Op::TestF64 {
                rhs: RhsF::Pool(s), ..
            }
            | Op::PoolF { idx: s, .. }
                if Some(s) == last_float =>
            {
                candidates.push(1)
            }
            Op::TestBytes { pool: s, .. } if Some(s) == last_bytes => candidates.push(2),
            _ => {}
        }
    }
    let &section = rng.pick(&candidates)?;
    let name = match section {
        0 => {
            p.pool.ints.pop();
            "int"
        }
        1 => {
            p.pool.floats.pop();
            "float"
        }
        _ => {
            p.pool.bytes.pop();
            "bytes"
        }
    };
    Some(format!(
        "constant pool: dropped the last {name} slot while an op still references it"
    ))
}

/// Re-tag a typed column access with a different type: statically a
/// `TypeMismatch` (the field at the op's offset keeps its real type).
fn wrong_type_tag(p: &mut VmProgram, rng: &mut Rng) -> Option<String> {
    let targets = indices_where(&p.code, |op| {
        matches!(
            op,
            Op::TestI32 { .. }
                | Op::TestI64 { .. }
                | Op::TestF64 { .. }
                | Op::TestBytes { .. }
                | Op::LoadF { .. }
                | Op::LoadI32F { .. }
                | Op::LoadI64F { .. }
                | Op::ImageI32 { .. }
                | Op::ImageI64 { .. }
                | Op::ImageF64 { .. }
                | Op::ImageChar { .. }
        )
    });
    let &i = rng.pick(&targets)?;
    let (old, new) = match p.code[i] {
        Op::TestI32 { offset, op, .. } => (
            "test-i32",
            Op::TestF64 {
                offset,
                op,
                rhs: RhsF::Imm(0.5),
            },
        ),
        Op::TestI64 { offset, op, rhs } => ("test-i64", Op::TestI32 { offset, op, rhs }),
        Op::TestF64 { offset, op, .. } => (
            "test-f64",
            Op::TestI64 {
                offset,
                op,
                rhs: RhsI::Imm(1),
            },
        ),
        Op::TestBytes { offset, op, .. } => (
            "test-bytes",
            Op::TestI32 {
                offset,
                op,
                rhs: RhsI::Imm(0),
            },
        ),
        Op::LoadF { dst, offset } => ("load-f64", Op::LoadI32F { dst, offset }),
        Op::LoadI32F { dst, offset } => ("load-i32", Op::LoadF { dst, offset }),
        Op::LoadI64F { dst, offset } => ("load-i64", Op::LoadF { dst, offset }),
        Op::ImageI32 { offset } => ("image-i32", Op::ImageF64 { offset }),
        Op::ImageI64 { offset } => ("image-i64", Op::ImageI32 { offset }),
        Op::ImageF64 { offset } => ("image-f64", Op::ImageI64 { offset }),
        Op::ImageChar { offset, .. } => ("image-char", Op::ImageI32 { offset }),
        _ => return None,
    };
    p.code[i] = new;
    Some(format!(
        "op {i}: re-tagged a {old} access with a foreign type"
    ))
}

/// Replace an op with one from a family its fragment's interpreter loop
/// rejects: statically a `WrongOpKind`.
fn wrong_op_kind(p: &mut VmProgram, rng: &mut Rng) -> Option<String> {
    if p.code.is_empty() {
        return None;
    }
    let i = rng.below(p.code.len());
    let (old, new) = match p.code[i] {
        Op::TestI32 { .. } | Op::TestI64 { .. } | Op::TestF64 { .. } | Op::TestBytes { .. } => (
            "test",
            Op::Copy {
                src: 0,
                width: 0,
                dst: 0,
            },
        ),
        Op::Copy { .. } => (
            "copy",
            Op::TestI32 {
                offset: 0,
                op: CmpOp::Eq,
                rhs: RhsI::Imm(0),
            },
        ),
        Op::ImageI32 { .. } | Op::ImageI64 { .. } | Op::ImageF64 { .. } | Op::ImageChar { .. } => (
            "image",
            Op::Copy {
                src: 0,
                width: 0,
                dst: 0,
            },
        ),
        Op::LoadF { .. }
        | Op::LoadI32F { .. }
        | Op::LoadI64F { .. }
        | Op::ConstF { .. }
        | Op::PoolF { .. }
        | Op::Arith { .. } => ("expression", Op::ImageI32 { offset: 0 }),
    };
    p.code[i] = new;
    Some(format!(
        "op {i}: replaced a {old} op with an op its fragment's loop rejects"
    ))
}

/// Swap a test's comparison operator: statically a `PlanMismatch` against
/// the declared filter.
fn swap_cmp_op(p: &mut VmProgram, rng: &mut Rng) -> Option<String> {
    let targets = indices_where(&p.code, |op| {
        matches!(
            op,
            Op::TestI32 { .. } | Op::TestI64 { .. } | Op::TestF64 { .. } | Op::TestBytes { .. }
        )
    });
    let &i = rng.pick(&targets)?;
    let swap = |c: CmpOp| match c {
        CmpOp::Eq => CmpOp::Lt,
        CmpOp::NotEq => CmpOp::Eq,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::LtEq => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::GtEq => CmpOp::Lt,
    };
    match &mut p.code[i] {
        Op::TestI32 { op, .. }
        | Op::TestI64 { op, .. }
        | Op::TestF64 { op, .. }
        | Op::TestBytes { op, .. } => {
            let old = *op;
            *op = swap(old);
            Some(format!(
                "op {i}: comparison operator {old:?} -> {:?}",
                swap(old)
            ))
        }
        _ => None,
    }
}

/// Nudge a folded or pooled constant: statically a `PlanMismatch` (the
/// plan's declared constant no longer matches).  Floats are bit-flipped,
/// not incremented — `x + 1.0 == x` for large `x` would be an equivalent
/// mutant.
fn tweak_constant(p: &mut VmProgram, rng: &mut Rng) -> Option<String> {
    let imm_targets = indices_where(&p.code, |op| {
        matches!(
            op,
            Op::TestI32 {
                rhs: RhsI::Imm(_),
                ..
            } | Op::TestI64 {
                rhs: RhsI::Imm(_),
                ..
            } | Op::TestF64 {
                rhs: RhsF::Imm(_),
                ..
            }
        )
    });
    // Three target families: immediates in code, numeric pool slots
    // referenced by tests, byte-string pool slots referenced by tests.
    let mut families = Vec::new();
    if !imm_targets.is_empty() {
        families.push(0);
    }
    let pool_targets = indices_where(&p.code, |op| {
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
            }
        )
    });
    if !pool_targets.is_empty() {
        families.push(1);
    }
    let bytes_targets = indices_where(&p.code, |op| matches!(op, Op::TestBytes { .. }));
    if !bytes_targets.is_empty() {
        families.push(2);
    }
    match *rng.pick(&families)? {
        0 => {
            let &i = rng.pick(&imm_targets)?;
            match &mut p.code[i] {
                Op::TestI32 {
                    rhs: RhsI::Imm(v), ..
                }
                | Op::TestI64 {
                    rhs: RhsI::Imm(v), ..
                } => {
                    *v = v.wrapping_add(1);
                }
                Op::TestF64 {
                    rhs: RhsF::Imm(v), ..
                } => {
                    *v = f64::from_bits(v.to_bits() ^ 1);
                }
                _ => return None,
            }
            Some(format!("op {i}: nudged the folded immediate constant"))
        }
        1 => {
            let &i = rng.pick(&pool_targets)?;
            match p.code[i] {
                Op::TestI32 {
                    rhs: RhsI::Pool(s), ..
                }
                | Op::TestI64 {
                    rhs: RhsI::Pool(s), ..
                } => {
                    let v = &mut p.pool.ints[s as usize];
                    *v = v.wrapping_add(1);
                }
                Op::TestF64 {
                    rhs: RhsF::Pool(s), ..
                } => {
                    let v = &mut p.pool.floats[s as usize];
                    *v = f64::from_bits(v.to_bits() ^ 1);
                }
                _ => return None,
            }
            Some(format!("op {i}: nudged the pooled constant it references"))
        }
        _ => {
            let &i = rng.pick(&bytes_targets)?;
            let slot = match p.code[i] {
                Op::TestBytes { pool, .. } => pool as usize,
                _ => return None,
            };
            let bytes = &mut p.pool.bytes[slot];
            let b = bytes.first_mut()?;
            *b ^= 0x01;
            Some(format!(
                "op {i}: flipped a bit of the pooled string constant"
            ))
        }
    }
}

/// Skew a projection copy's geometry: statically a `WidthMismatch` or
/// `PlanMismatch` against the staged layout.
fn skew_copy(p: &mut VmProgram, rng: &mut Rng) -> Option<String> {
    let targets = indices_where(&p.code, |op| matches!(op, Op::Copy { .. }));
    let &i = rng.pick(&targets)?;
    let which = rng.below(2);
    match &mut p.code[i] {
        Op::Copy { width, dst, .. } => {
            if which == 0 {
                *width += 4;
                Some(format!("op {i}: widened a projection copy by 4 bytes"))
            } else {
                *dst += 4;
                Some(format!(
                    "op {i}: shifted a projection copy's destination by 4"
                ))
            }
        }
        _ => None,
    }
}

/// Push a fragment's end past the code array: statically a
/// `FragOutOfRange`.
fn frag_out_of_range(p: &mut VmProgram, rng: &mut Rng) -> Option<String> {
    let far = p.code.len() as u32 + 3;
    let mut frags: Vec<(&'static str, &mut Frag)> = Vec::new();
    for t in &mut p.tables {
        frags.push(("staging filter", &mut t.filter));
        frags.push(("staging projection", &mut t.project));
    }
    for j in &mut p.joins {
        frags.push(("join left image", &mut j.left_image));
        frags.push(("join right image", &mut j.right_image));
    }
    if let Some(agg) = &mut p.agg {
        for f in &mut agg.group_images {
            frags.push(("group image", f));
        }
        frags.push(("aggregate DAG", &mut agg.dag));
    }
    for o in &mut p.outputs {
        if let OutputOp::Expr(f, _) = o {
            frags.push(("output expression", f));
        }
    }
    if frags.is_empty() {
        return None;
    }
    let i = rng.below(frags.len());
    let (name, frag) = &mut frags[i];
    frag.end = far;
    Some(format!(
        "fragment table: {name} fragment end pushed past the code array ({far})"
    ))
}

/// Corrupt the output decode table: statically an `ArityMismatch` or
/// `OutputIndexOutOfRange`.
fn corrupt_outputs(p: &mut VmProgram, rng: &mut Rng) -> Option<String> {
    if p.outputs.is_empty() {
        return None;
    }
    let i = rng.below(p.outputs.len());
    match &mut p.outputs[i] {
        OutputOp::Group(idx) => {
            *idx += 17;
            Some(format!(
                "output {i}: group reference pushed past the group list"
            ))
        }
        OutputOp::Aggregate(idx) => {
            *idx += 17;
            Some(format!(
                "output {i}: aggregate reference pushed past the aggregate list"
            ))
        }
        _ => {
            p.outputs.pop();
            Some("output table: dropped the last decode entry".into())
        }
    }
}

/// Pop the final code op: the fragment it belonged to now escapes the
/// array — statically a `FragOutOfRange`.
fn truncate_code(p: &mut VmProgram) -> Option<String> {
    if p.code.is_empty() {
        return None;
    }
    p.code.pop();
    Some("code array: dropped the final op out from under its fragment".into())
}

/// Point one accumulator slot at a sibling node of the aggregate DAG: a
/// defined, in-bank register holding another expression's value —
/// statically a `PlanMismatch` against the generator's aggregate program.
fn redirect_aggregate_register(p: &mut VmProgram, rng: &mut Rng) -> Option<String> {
    let agg = p.agg.as_mut()?;
    let nodes = agg.dag.len();
    if nodes < 2 {
        return None;
    }
    let mut registers: Vec<(usize, &mut u16)> = agg
        .layout
        .slots_mut()
        .iter_mut()
        .enumerate()
        .filter_map(|(s, slot)| match slot {
            AccumSlot::Sum(reg) | AccumSlot::Min(reg) | AccumSlot::Max(reg) => Some((s, reg)),
            AccumSlot::Count => None,
        })
        .collect();
    if registers.is_empty() {
        return None;
    }
    let pick = rng.below(registers.len());
    let (s, reg) = &mut registers[pick];
    let old = **reg;
    **reg = (old + 1 + rng.below(nodes - 1) as u16) % nodes as u16;
    Some(format!(
        "aggregate slot {s}: argument register r{old} -> r{reg} (a sibling DAG node)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{compile, CompileMode};
    use hique_plan::{plan_query, CatalogProvider, PlannerConfig};
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

    /// A filtered scan, a join, and a grouped aggregate with an argument
    /// expression: between them every fragment kind and pool section.
    const FIXTURE_QUERIES: [&str; 3] = [
        "select k, v from r where v < 12.5 and tag = 'AAA' order by v",
        "select r.k, s.w from r, s where r.k = s.k and s.w < 4 order by r.k, s.w",
        "select k, count(*) as n, sum(v * 2.5 + 1) as adj from r \
         where k < 4 group by k order by k",
    ];

    fn prepare(sql: &str, cat: &Catalog) -> hique_holistic::GeneratedQuery {
        let q = hique_sql::parse_query(sql).unwrap();
        let bound = hique_sql::analyze(&q, &CatalogProvider::new(cat)).unwrap();
        let plan = plan_query(&bound, cat, &PlannerConfig::default()).unwrap();
        hique_holistic::generate(&plan).unwrap()
    }

    /// Every mutation kind produces a definitely-wrong program, so the
    /// verifier must reject every single mutant — across query shapes,
    /// compile modes and seeds.
    #[test]
    fn every_mutant_is_rejected_by_the_verifier() {
        let cat = catalog();
        for sql in FIXTURE_QUERIES {
            let generated = prepare(sql, &cat);
            for mode in [CompileMode::Specialized, CompileMode::Pooled] {
                let template = compile(&generated, &cat, mode).unwrap();
                for seed in [1u64, 0x41_1CDE, u64::MAX] {
                    let batch = mutants(&template, seed, 48);
                    assert!(batch.len() >= 24, "mutant generation starved: {sql}");
                    for m in batch {
                        assert!(
                            crate::verify::verify(&m.program, &generated, &cat).is_err(),
                            "mutant slipped past the verifier ({sql}, {mode:?}, \
                             seed {seed}): {}",
                            m.description
                        );
                    }
                }
            }
        }
    }

    /// Every kind still has a target: over the fixture queries in both
    /// compile modes, each kind corrupts at least one program.  A kind that
    /// never applies would sit in the lane unexercised.
    #[test]
    fn every_kind_produces_a_mutant() {
        let cat = catalog();
        let mut produced = [0usize; KINDS];
        for sql in FIXTURE_QUERIES {
            let generated = prepare(sql, &cat);
            for mode in [CompileMode::Specialized, CompileMode::Pooled] {
                let template = compile(&generated, &cat, mode).unwrap();
                for (kind, count) in produced.iter_mut().enumerate() {
                    for seed in 1..=8u64 {
                        let mut program = template.clone();
                        if apply(&mut program, kind, &mut Rng::new(seed)).is_some() {
                            *count += 1;
                        }
                    }
                }
            }
        }
        for (kind, count) in produced.iter().enumerate() {
            assert!(*count > 0, "mutation kind {kind} found no target");
        }
    }

    /// The stream is deterministic: one seed, one mutant sequence.
    #[test]
    fn mutant_stream_is_deterministic_per_seed() {
        let cat = catalog();
        let generated = prepare("select k from r where k < 3 order by k", &cat);
        let template = compile(&generated, &cat, CompileMode::Pooled).unwrap();
        let a: Vec<String> = mutants(&template, 7, 32)
            .into_iter()
            .map(|m| m.description)
            .collect();
        let b: Vec<String> = mutants(&template, 7, 32)
            .into_iter()
            .map(|m| m.description)
            .collect();
        assert_eq!(a, b);
        let c: Vec<String> = mutants(&template, 8, 32)
            .into_iter()
            .map(|m| m.description)
            .collect();
        assert_ne!(a, c, "different seeds should usually diverge");
    }
}
