//! The aggregate program: what an optimizing compiler would make of the
//! aggregation loop's body, done once at generation time for every kernel
//! provider.
//!
//! The paper hands its generated C to `gcc -O2`, which computes shared
//! subexpressions once, drops accumulator fields nobody reads and hoists
//! loop-invariant values.  This reproduction has no compiler behind its
//! kernels, so the generator does those three things itself:
//!
//! * the argument expressions of all aggregates are interned into one flat
//!   **register DAG** ([`AggNode`]; node `i` defines register `i`, operands
//!   precede their users) — each distinct column load, constant and
//!   arithmetic node exists once, so `l_extendedprice * (1 - l_discount)`
//!   is evaluated once per tuple however many aggregates mention it.  A
//!   node is a pure function of its operands and operands are never
//!   reordered, so every value is bit-identical to evaluating each
//!   aggregate's tree on its own;
//! * constants are numbered first, so a register file with them preloaded
//!   ([`AggProgram::frame`]) never writes them again (invariant hoisting);
//! * accumulators are **function-specialised slots** ([`AccumSlot`]): SUM
//!   and AVG keep a sum and a count and share one slot when their argument
//!   is the same node, COUNT keeps a count, only MIN/MAX keep a bound —
//!   the fields of [`Accum`] a slot's functions never read are never
//!   written.
//!
//! The compiled kernels evaluate the DAG directly ([`AggProgram::eval`]);
//! the bytecode VM lowers the same nodes to one shared expression fragment
//! and carries a copy of the [`AccumLayout`], which its verifier holds to
//! this program node for node.

use hique_plan::AggregateSpec;
use hique_sql::analyze::ScalarExpr;
use hique_sql::ast::{AggFunc, BinOp};
use hique_types::tuple::{read_f64_at, read_i32_at, read_i64_at};
use hique_types::{DataType, HiqueError, Result, Schema, Value};

use crate::kernel::apply;

/// One node of the register DAG; node `i` defines register `i`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggNode {
    /// Constant (all constants precede every other node).
    Const(f64),
    /// `i32`/date column at a fixed record offset, widened to `f64`.
    ColI32(usize),
    /// `i64` column at a fixed record offset, widened to `f64`.
    ColI64(usize),
    /// `f64` column at a fixed record offset.
    ColF64(usize),
    /// `left <op> right` over two earlier registers.
    Bin {
        /// Operator.
        op: BinOp,
        /// Register of the left operand.
        left: u16,
        /// Register of the right operand.
        right: u16,
    },
}

impl AggNode {
    /// Structural identity for interning: constants compare by bit pattern
    /// (`0.0` and `-0.0` divide differently; a NaN is itself).
    fn same(&self, other: &AggNode) -> bool {
        match (self, other) {
            (AggNode::Const(a), AggNode::Const(b)) => a.to_bits() == b.to_bits(),
            _ => self == other,
        }
    }
}

/// What one accumulator slot folds per tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccumSlot {
    /// Running sum and count of a register (SUM and AVG).
    Sum(u16),
    /// Tuple count (every COUNT).
    Count,
    /// Running minimum of a register.
    Min(u16),
    /// Running maximum of a register.
    Max(u16),
}

/// Fixed-size numeric accumulator (one per slot per group), shared by the
/// compiled kernels and the bytecode interpreter so both finish every
/// aggregate function the same way.  A slot only ever writes the fields its
/// functions read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accum {
    sum: f64,
    count: i64,
    min: f64,
    max: f64,
}

impl Default for Accum {
    fn default() -> Self {
        Accum::new()
    }
}

impl Accum {
    /// The empty accumulator.
    pub fn new() -> Self {
        Accum {
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// SUM/AVG step.
    #[inline(always)]
    fn add(&mut self, v: f64) {
        self.sum += v;
        self.count += 1;
    }

    /// COUNT step.
    #[inline(always)]
    fn tally(&mut self) {
        self.count += 1;
    }

    /// MIN step.
    #[inline(always)]
    fn lower(&mut self, v: f64) {
        if v < self.min {
            self.min = v;
        }
    }

    /// MAX step.
    #[inline(always)]
    fn raise(&mut self, v: f64) {
        if v > self.max {
            self.max = v;
        }
    }

    /// Fold another accumulator of the same slot into this one (the combine
    /// step of the thread-local aggregation merge).  COUNT/MIN/MAX combine
    /// exactly; SUM (and AVG through it) re-associates the floating-point
    /// addition, which is deterministic for a fixed chunking but may differ
    /// from the serial accumulation order in the final bits (DESIGN.md §7).
    /// Combining onto a fresh accumulator reproduces `other` bit for bit.
    #[inline(always)]
    pub fn combine(&mut self, other: &Accum) {
        self.sum += other.sum;
        self.count += other.count;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// The aggregate's result value for `func` with result type `dtype`.
    pub fn finish(&self, func: AggFunc, dtype: DataType) -> Value {
        match func {
            AggFunc::Count => Value::Int64(self.count),
            AggFunc::Sum => Value::from_f64(self.sum, dtype),
            AggFunc::Avg => Value::Float64(if self.count == 0 {
                f64::NAN
            } else {
                self.sum / self.count as f64
            }),
            AggFunc::Min => Value::from_f64(self.min, dtype),
            AggFunc::Max => Value::from_f64(self.max, dtype),
        }
    }
}

/// The accumulator side of an aggregate program: the slots one group keeps
/// and which slot, function and result type each aggregate finishes from.
#[derive(Debug, Clone, PartialEq)]
pub struct AccumLayout {
    slots: Vec<AccumSlot>,
    /// Per aggregate, in select-list order.
    outputs: Vec<(u16, AggFunc, DataType)>,
}

impl AccumLayout {
    /// The slots of one group.
    pub fn slots(&self) -> &[AccumSlot] {
        &self.slots
    }

    /// Mutable slots — for the bytecode mutation lane only.
    pub fn slots_mut(&mut self) -> &mut [AccumSlot] {
        &mut self.slots
    }

    /// Per aggregate, in select-list order: the slot it finishes from, its
    /// function and its result type.
    pub fn outputs(&self) -> &[(u16, AggFunc, DataType)] {
        &self.outputs
    }

    /// Number of aggregates finished from the slots.
    pub fn num_aggregates(&self) -> usize {
        self.outputs.len()
    }

    /// Fold one tuple into its group's slots; `reg` yields the tuple's value
    /// of a DAG register.
    #[inline(always)]
    pub fn accumulate(&self, accums: &mut [Accum], reg: impl Fn(u16) -> f64) {
        for (acc, &slot) in accums.iter_mut().zip(&self.slots) {
            match slot {
                AccumSlot::Sum(r) => acc.add(reg(r)),
                AccumSlot::Count => acc.tally(),
                AccumSlot::Min(r) => acc.lower(reg(r)),
                AccumSlot::Max(r) => acc.raise(reg(r)),
            }
        }
    }

    /// Fold a batch of tuples slot by slot (each slot dispatched once per
    /// batch): row `r` goes to the group whose slots start at
    /// `accums[group_base[r]]`, with `lane(reg)[r]` its register value.
    /// Every group sees its rows in batch order, as [`Self::accumulate`]
    /// row by row would feed them.
    pub fn accumulate_batch<'l>(
        &self,
        accums: &mut [Accum],
        group_base: &[usize],
        lane: impl Fn(u16) -> &'l [f64],
    ) {
        for (s, &slot) in self.slots.iter().enumerate() {
            let rows = |r: u16| group_base.iter().zip(lane(r));
            match slot {
                AccumSlot::Sum(r) => rows(r).for_each(|(&g, &v)| accums[g + s].add(v)),
                AccumSlot::Count => group_base.iter().for_each(|&g| accums[g + s].tally()),
                AccumSlot::Min(r) => rows(r).for_each(|(&g, &v)| accums[g + s].lower(v)),
                AccumSlot::Max(r) => rows(r).for_each(|(&g, &v)| accums[g + s].raise(v)),
            }
        }
    }

    /// The result value of aggregate `i` from its group's slots.
    pub fn finish(&self, i: usize, accums: &[Accum]) -> Value {
        let (slot, func, dtype) = self.outputs[i];
        accums[slot as usize].finish(func, dtype)
    }
}

/// A query's aggregate list lowered to one register DAG plus accumulator
/// slots (see the module documentation).
#[derive(Debug, Clone, PartialEq)]
pub struct AggProgram {
    nodes: Vec<AggNode>,
    /// Leading nodes that are constants.
    consts: usize,
    layout: AccumLayout,
}

impl AggProgram {
    /// Lower `spec`'s aggregates over records of `schema`.
    pub fn compile(spec: &AggregateSpec, schema: &Schema) -> Result<Self> {
        let mut nodes = Vec::new();
        // Constants first: a preloaded frame never rewrites them.
        for a in spec.aggregates.iter().filter(|a| a.func != AggFunc::Count) {
            if let Some(arg) = &a.arg {
                intern_literals(arg, &mut nodes)?;
            }
        }
        let consts = nodes.len();
        let mut slots = Vec::new();
        let mut outputs = Vec::with_capacity(spec.aggregates.len());
        for a in &spec.aggregates {
            let slot = match (a.func, &a.arg) {
                // No NULLs: COUNT(expr) counts tuples and its argument is
                // dead code.
                (AggFunc::Count, _) => AccumSlot::Count,
                (func, Some(arg)) => {
                    if matches!(func, AggFunc::Min | AggFunc::Max)
                        && matches!(arg.dtype(), DataType::Char(_))
                    {
                        return Err(HiqueError::Codegen(
                            "MIN/MAX over string columns is not supported by the holistic kernels"
                                .into(),
                        ));
                    }
                    let reg = intern(arg, schema, &mut nodes)?;
                    match func {
                        AggFunc::Min => AccumSlot::Min(reg),
                        AggFunc::Max => AccumSlot::Max(reg),
                        _ => AccumSlot::Sum(reg),
                    }
                }
                (func, None) => {
                    return Err(HiqueError::Codegen(format!(
                        "{func:?} aggregate without an argument"
                    )))
                }
            };
            let index = slots.iter().position(|s| *s == slot).unwrap_or_else(|| {
                slots.push(slot);
                slots.len() - 1
            });
            outputs.push((index as u16, a.func, a.dtype));
        }
        Ok(AggProgram {
            nodes,
            consts,
            layout: AccumLayout { slots, outputs },
        })
    }

    /// The register DAG: node `i` defines register `i`.
    pub fn nodes(&self) -> &[AggNode] {
        &self.nodes
    }

    /// The accumulator slots and aggregate finishes.
    pub fn layout(&self) -> &AccumLayout {
        &self.layout
    }

    /// A register file for [`AggProgram::eval`], constants preloaded.
    pub fn frame(&self) -> Vec<f64> {
        self.nodes
            .iter()
            .map(|n| match *n {
                AggNode::Const(c) => c,
                _ => 0.0,
            })
            .collect()
    }

    /// Evaluate every non-constant node over `record` into `regs` (a
    /// [`AggProgram::frame`]).
    #[inline(always)]
    pub fn eval(&self, record: &[u8], regs: &mut [f64]) {
        for (i, node) in self.nodes.iter().enumerate().skip(self.consts) {
            regs[i] = match *node {
                AggNode::ColI32(off) => read_i32_at(record, off) as f64,
                AggNode::ColI64(off) => read_i64_at(record, off) as f64,
                AggNode::ColF64(off) => read_f64_at(record, off),
                AggNode::Bin { op, left, right } => {
                    apply(op, regs[left as usize], regs[right as usize])
                }
                AggNode::Const(c) => c,
            };
        }
    }
}

/// Intern `node`, returning its register.
fn intern_node(node: AggNode, nodes: &mut Vec<AggNode>) -> Result<u16> {
    if let Some(i) = nodes.iter().position(|n| n.same(&node)) {
        return Ok(i as u16);
    }
    if nodes.len() > u16::MAX as usize {
        return Err(HiqueError::Codegen(
            "aggregate program exceeds the register file".into(),
        ));
    }
    nodes.push(node);
    Ok((nodes.len() - 1) as u16)
}

fn intern_literals(expr: &ScalarExpr, nodes: &mut Vec<AggNode>) -> Result<()> {
    match expr {
        ScalarExpr::Column { .. } => {}
        ScalarExpr::Literal(v) => {
            intern_node(AggNode::Const(v.as_f64()?), nodes)?;
        }
        ScalarExpr::Binary { left, right, .. } => {
            intern_literals(left, nodes)?;
            intern_literals(right, nodes)?;
        }
    }
    Ok(())
}

fn intern(expr: &ScalarExpr, schema: &Schema, nodes: &mut Vec<AggNode>) -> Result<u16> {
    let node = match expr {
        ScalarExpr::Column { index, dtype } => {
            let off = schema.offset(*index);
            match dtype {
                DataType::Int32 | DataType::Date => AggNode::ColI32(off),
                DataType::Int64 => AggNode::ColI64(off),
                DataType::Float64 => AggNode::ColF64(off),
                DataType::Char(_) => {
                    return Err(HiqueError::Codegen(
                        "string column in arithmetic expression".into(),
                    ))
                }
            }
        }
        ScalarExpr::Literal(v) => AggNode::Const(v.as_f64()?),
        ScalarExpr::Binary {
            op, left, right, ..
        } => AggNode::Bin {
            op: *op,
            left: intern(left, schema, nodes)?,
            right: intern(right, schema, nodes)?,
        },
    };
    intern_node(node, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_plan::AggAlgorithm;
    use hique_sql::analyze::BoundAggregate;
    use hique_types::Column;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("qty", DataType::Float64),
            Column::new("price", DataType::Float64),
            Column::new("disc", DataType::Float64),
            Column::new("tax", DataType::Float64),
            Column::new("line", DataType::Int32),
            Column::new("ship", DataType::Date),
        ])
    }

    fn col(index: usize) -> ScalarExpr {
        ScalarExpr::Column {
            index,
            dtype: schema().column(index).dtype,
        }
    }

    fn bin(op: BinOp, left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
            dtype: DataType::Float64,
        }
    }

    fn spec(aggregates: Vec<(AggFunc, Option<ScalarExpr>, DataType)>) -> AggregateSpec {
        AggregateSpec {
            group_columns: vec![],
            aggregates: aggregates
                .into_iter()
                .map(|(func, arg, dtype)| BoundAggregate { func, arg, dtype })
                .collect(),
            algorithm: AggAlgorithm::Map,
            group_domain_sizes: vec![],
        }
    }

    /// TPC-H Q1's aggregate list.
    fn q1() -> AggregateSpec {
        let one = || ScalarExpr::Literal(Value::Int32(1));
        let disc_price = || bin(BinOp::Mul, col(1), bin(BinOp::Sub, one(), col(2)));
        let charge = bin(BinOp::Mul, disc_price(), bin(BinOp::Add, one(), col(3)));
        let f = DataType::Float64;
        spec(vec![
            (AggFunc::Sum, Some(col(0)), f),
            (AggFunc::Sum, Some(col(1)), f),
            (AggFunc::Sum, Some(disc_price()), f),
            (AggFunc::Sum, Some(charge), f),
            (AggFunc::Avg, Some(col(0)), f),
            (AggFunc::Avg, Some(col(1)), f),
            (AggFunc::Avg, Some(col(2)), f),
            (AggFunc::Count, None, DataType::Int64),
        ])
    }

    #[test]
    fn q1_shares_nodes_and_slots() {
        let program = AggProgram::compile(&q1(), &schema()).unwrap();
        // 19 tree nodes; distinct: the constant 1, four columns, four
        // arithmetic nodes.
        assert_eq!(program.nodes().len(), 9);
        assert_eq!(program.nodes()[0], AggNode::Const(1.0));
        assert!(program.nodes()[1..]
            .iter()
            .all(|n| !matches!(n, AggNode::Const(_))));
        // sum/avg(qty) and sum/avg(price) share a slot each.
        assert_eq!(program.layout().slots().len(), 6);
        assert_eq!(program.layout().num_aggregates(), 8);
        let slot = |i: usize| program.layout().outputs()[i].0;
        assert_eq!(slot(0), slot(4));
        assert_eq!(slot(1), slot(5));
        assert_ne!(slot(2), slot(3));
    }

    #[test]
    fn constants_intern_by_bit_pattern() {
        let lit = |v: f64| ScalarExpr::Literal(Value::Float64(v));
        let f = DataType::Float64;
        let program = AggProgram::compile(
            &spec(vec![
                (AggFunc::Sum, Some(bin(BinOp::Div, col(0), lit(0.0))), f),
                (AggFunc::Sum, Some(bin(BinOp::Div, col(0), lit(-0.0))), f),
                (AggFunc::Sum, Some(bin(BinOp::Div, col(0), lit(0.0))), f),
            ]),
            &schema(),
        )
        .unwrap();
        // 0.0 and -0.0 stay two constants (x / 0.0 ≠ x / -0.0); the third
        // aggregate is the first one's node and slot.
        assert_eq!(program.nodes().len(), 5);
        assert_eq!(program.layout().slots().len(), 2);
    }

    #[test]
    fn count_arguments_are_dead_code() {
        let program = AggProgram::compile(
            &spec(vec![
                (AggFunc::Count, Some(col(4)), DataType::Int64),
                (AggFunc::Count, None, DataType::Int64),
            ]),
            &schema(),
        )
        .unwrap();
        assert!(program.nodes().is_empty());
        assert_eq!(program.layout().slots(), [AccumSlot::Count]);
    }

    #[test]
    fn slots_only_touch_the_fields_their_functions_read() {
        let program = AggProgram::compile(
            &spec(vec![
                (AggFunc::Sum, Some(col(4)), DataType::Int64),
                (AggFunc::Min, Some(col(4)), DataType::Int32),
                (AggFunc::Max, Some(col(5)), DataType::Date),
                (AggFunc::Count, None, DataType::Int64),
                (AggFunc::Avg, Some(col(4)), DataType::Float64),
            ]),
            &schema(),
        )
        .unwrap();
        let layout = program.layout();
        let mut accums = vec![Accum::new(); layout.slots().len()];
        for v in [3.0, -2.0, 8041.0] {
            layout.accumulate(&mut accums, |_| v);
        }
        let fresh = Accum::new();
        for (acc, slot) in accums.iter().zip(layout.slots()) {
            match slot {
                AccumSlot::Sum(_) => assert_eq!((acc.min, acc.max), (fresh.min, fresh.max)),
                AccumSlot::Count => assert_eq!((acc.sum, acc.min), (0.0, fresh.min)),
                AccumSlot::Min(_) => assert_eq!((acc.count, acc.max), (0, fresh.max)),
                AccumSlot::Max(_) => assert_eq!((acc.count, acc.min), (0, fresh.min)),
            }
        }
        // Every function finishes in its aggregate's type: MIN/MAX too.
        let finished: Vec<Value> = (0..5).map(|i| layout.finish(i, &accums)).collect();
        assert_eq!(format!("{:?}", finished[0]), "Int64(8042)");
        assert_eq!(format!("{:?}", finished[1]), "Int32(-2)");
        assert_eq!(format!("{:?}", finished[2]), "Date(8041)");
        assert_eq!(format!("{:?}", finished[3]), "Int64(3)");
        assert!((finished[4].as_f64().unwrap() - 8042.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn batch_accumulation_matches_row_by_row() {
        let program = AggProgram::compile(&q1(), &schema()).unwrap();
        let layout = program.layout();
        let s = layout.slots().len();
        // Nine rows over three groups, register r of row i = lanes[r][i].
        let lanes: Vec<Vec<f64>> = (0..program.nodes().len())
            .map(|r| (0..9).map(|i| (r * 10 + i) as f64 * 0.1).collect())
            .collect();
        let groups: Vec<usize> = (0..9).map(|i| (i * 7 % 3) * s).collect();
        let mut by_row = vec![Accum::new(); 3 * s];
        for (i, &g) in groups.iter().enumerate() {
            layout.accumulate(&mut by_row[g..g + s], |r| lanes[r as usize][i]);
        }
        let mut by_batch = vec![Accum::new(); 3 * s];
        layout.accumulate_batch(&mut by_batch, &groups, |r| &lanes[r as usize]);
        assert_eq!(by_batch, by_row);
    }

    #[test]
    fn combining_onto_a_fresh_accumulator_is_bit_exact() {
        // What lets a serial pool run the chunked kernels as the serial
        // form: one chunk folded into a fresh accumulator must reproduce the
        // chunk's own bits, signed zeros, infinities and NaN included.
        let cases: [&[f64]; 6] = [
            &[],
            &[-0.0],
            &[-0.0, -0.0],
            &[0.1, 0.2, 0.3, -0.6],
            &[f64::INFINITY, 1.0],
            &[f64::NAN, 1.0],
        ];
        for values in cases {
            let mut chunk = Accum::new();
            for &v in values {
                chunk.add(v);
                chunk.lower(v);
                chunk.raise(v);
            }
            let mut merged = Accum::new();
            merged.combine(&chunk);
            assert_eq!(merged.sum.to_bits(), chunk.sum.to_bits(), "{values:?}");
            assert_eq!(merged.min.to_bits(), chunk.min.to_bits(), "{values:?}");
            assert_eq!(merged.max.to_bits(), chunk.max.to_bits(), "{values:?}");
            assert_eq!(merged.count, chunk.count, "{values:?}");
        }
    }
}
