//! The aggregate program: what an optimizing compiler would make of the
//! aggregation loop's body, done once at generation time for every kernel
//! provider.
//!
//! The paper hands its generated C to `gcc -O2`, which computes shared
//! subexpressions once, drops accumulator fields nobody reads, hoists
//! loop-invariant values and turns the loop body into straight-line loads
//! and arithmetic.  This reproduction has no compiler behind its kernels,
//! so the generator and the fold below do those things themselves:
//!
//! * the argument expressions of all aggregates are interned into one flat
//!   **register DAG** ([`AggNode`]; node `i` defines register `i`, operands
//!   precede their users) — each distinct column load, constant and
//!   arithmetic node exists once, so `l_extendedprice * (1 - l_discount)`
//!   is evaluated once per tuple however many aggregates mention it.  A
//!   node is a pure function of its operands and operands are never
//!   reordered, so every value is bit-identical to evaluating each
//!   aggregate's tree on its own;
//! * accumulators are **function-specialised slots** ([`AccumSlot`]): a
//!   group keeps one `f64` per slot — a SUM/AVG slot its running sum
//!   (shared when the argument is the same node), a MIN/MAX slot its
//!   bound — and one tuple count ([`GroupAccums`]; there are no NULLs, so
//!   every COUNT and every AVG's divisor is the group's count);
//! * the program runs as **monomorphic page sweeps** ([`PageFold`]),
//!   resolved once per kernel call: per packed page one strided loop per
//!   column node and one per arithmetic node (operator chosen outside the
//!   loop) fill `f64` lanes; the page is cut into key runs ([`KeyRuns`]:
//!   stretches of consecutive rows of one group, which look their group up
//!   once); and the rows are added to their groups — a page that is one
//!   run folds its slots in registers, a page of several adds each row's
//!   lanes to its group's slots in place (the paper's
//!   `aggregates[offset] += value`), several slots per sweep either way.
//!   A group receives its values in input order, so every
//!   SUM/AVG/MIN/MAX is bit-identical to a row-at-a-time fold.
//!
//! Every aggregation folds through [`PageFold`] over an [`AggProgram`]: the
//! generator's, or the one the bytecode VM resolves from its verified DAG
//! fragment (which its verifier holds to this program node for node) and
//! pool constants.
//!
//! The register DAG is the one form of every arithmetic expression a query
//! evaluates: the generator interns a non-aggregate query's scalar output
//! expressions with the same [`intern`] into an output program, which the
//! output decoder runs once per record ([`eval_registers`]).

use std::ops::Range;

use hique_plan::AggregateSpec;
use hique_sql::analyze::ScalarExpr;
use hique_sql::ast::{AggFunc, BinOp};
use hique_types::tuple::{read_f64_at, read_i32_at, read_i64_at};
use hique_types::{DataType, HiqueError, Result, Schema, Value};

use crate::kernel::CompiledKey;

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
    /// Structural identity, for interning and for holding a decoded program
    /// to the generated one: constants compare by bit pattern (`0.0` and
    /// `-0.0` divide differently; a NaN is itself).
    pub fn same(&self, other: &AggNode) -> bool {
        match (self, other) {
            (AggNode::Const(a), AggNode::Const(b)) => a.to_bits() == b.to_bits(),
            _ => self == other,
        }
    }
}

/// What one accumulator slot folds per tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccumSlot {
    /// Running sum of a register (SUM and AVG).
    Sum(u16),
    /// Nothing of its own: every COUNT finishes from the group's count.
    Count,
    /// Running minimum of a register.
    Min(u16),
    /// Running maximum of a register.
    Max(u16),
}

impl AccumSlot {
    /// What the slot of a group without tuples holds.
    fn fresh(self) -> f64 {
        match self {
            AccumSlot::Sum(_) | AccumSlot::Count => 0.0,
            AccumSlot::Min(_) => f64::INFINITY,
            AccumSlot::Max(_) => f64::NEG_INFINITY,
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
}

/// The accumulators of every group of one aggregation, shared by every
/// aggregation kernel so each finishes every aggregate function the same
/// way: per group one `f64` per slot of the layout (the one value the
/// slot's functions read) and one tuple count.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupAccums {
    layout: AccumLayout,
    /// Group-major slot values.
    values: Vec<f64>,
    /// Tuples per group.
    counts: Vec<i64>,
}

impl GroupAccums {
    /// No groups yet.
    pub fn new(layout: &AccumLayout) -> Self {
        GroupAccums {
            layout: layout.clone(),
            values: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.counts.len()
    }

    /// Enter a group without tuples, returning its number.
    pub fn push_group(&mut self) -> usize {
        self.values
            .extend(self.layout.slots.iter().map(|s| s.fresh()));
        self.counts.push(0);
        self.counts.len() - 1
    }

    /// Tuples folded into group `g`.
    pub fn count(&self, g: usize) -> i64 {
        self.counts[g]
    }

    /// The slot values of group `g`.
    pub fn slot_values(&self, g: usize) -> &[f64] {
        let s = self.layout.slots.len();
        &self.values[g * s..(g + 1) * s]
    }

    /// Drop every group but the last, which becomes group 0 (the group a
    /// sorted scan carries from one page into the next).
    pub fn retain_last(&mut self) {
        let (s, groups) = (self.layout.slots.len(), self.groups());
        if groups > 1 {
            self.values.copy_within((groups - 1) * s.., 0);
            self.counts[0] = self.counts[groups - 1];
        }
        self.values.truncate(s * groups.min(1));
        self.counts.truncate(1);
    }

    /// Fold one tuple into group `g`, row at a time; `reg` yields the
    /// tuple's value of a DAG register.  This is the definition
    /// [`PageFold`] is tested against.
    #[cfg(test)]
    pub(crate) fn accumulate_row(&mut self, g: usize, reg: impl Fn(u16) -> f64) {
        self.counts[g] += 1;
        let s = self.layout.slots.len();
        for (acc, &slot) in self.values[g * s..(g + 1) * s]
            .iter_mut()
            .zip(&self.layout.slots)
        {
            match slot {
                AccumSlot::Sum(r) => *acc += reg(r),
                AccumSlot::Count => {}
                AccumSlot::Min(r) => *acc = lower(*acc, reg(r)),
                AccumSlot::Max(r) => *acc = raise(*acc, reg(r)),
            }
        }
    }

    /// Fold group `from` of `other` (same layout) into group `g` — the
    /// combine step of the thread-local aggregation merge.  COUNT/MIN/MAX
    /// combine exactly; SUM (and AVG through it) re-associates the
    /// floating-point addition, which is deterministic for a fixed chunking
    /// but may differ from the serial accumulation order in the final bits
    /// (DESIGN.md §7).  Combining onto a fresh group reproduces `other`'s
    /// bit for bit.
    pub fn combine(&mut self, g: usize, other: &GroupAccums, from: usize) {
        self.counts[g] += other.counts[from];
        let s = self.layout.slots.len();
        for ((acc, &o), &slot) in self.values[g * s..(g + 1) * s]
            .iter_mut()
            .zip(other.slot_values(from))
            .zip(&self.layout.slots)
        {
            match slot {
                AccumSlot::Sum(_) => *acc += o,
                AccumSlot::Count => {}
                AccumSlot::Min(_) => *acc = lower(*acc, o),
                AccumSlot::Max(_) => *acc = raise(*acc, o),
            }
        }
    }

    /// The result value of aggregate `i` for group `g`.
    pub fn finish(&self, i: usize, g: usize) -> Value {
        let (slot, func, dtype) = self.layout.outputs[i];
        let (v, count) = (self.slot_values(g)[slot as usize], self.counts[g]);
        match func {
            AggFunc::Count => Value::Int64(count),
            AggFunc::Avg => {
                let avg = if count == 0 {
                    f64::NAN
                } else {
                    v / count as f64
                };
                Value::from_f64(avg, DataType::Float64)
            }
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => Value::from_f64(v, dtype),
        }
    }
}

/// MIN step: a NaN never enters, and of `0.0`/`-0.0` the first seen stays.
#[inline(always)]
fn lower(min: f64, v: f64) -> f64 {
    if v < min {
        v
    } else {
        min
    }
}

/// MAX step (see [`lower`]).
#[inline(always)]
fn raise(max: f64, v: f64) -> f64 {
    if v > max {
        v
    } else {
        max
    }
}

/// SUM slots one pass over a page's rows folds side by side (independent
/// addition chains).
const SUM_LANES: usize = 8;

/// Call `$self.$fold::<K>($sums, ..)` with `K = $sums.len()`.
macro_rules! with_sum_lanes {
    ($self:ident.$fold:ident($sums:expr, $($arg:expr),*)) => {
        match $sums.len() {
            1 => $self.$fold::<1>($sums, $($arg),*),
            2 => $self.$fold::<2>($sums, $($arg),*),
            3 => $self.$fold::<3>($sums, $($arg),*),
            4 => $self.$fold::<4>($sums, $($arg),*),
            5 => $self.$fold::<5>($sums, $($arg),*),
            6 => $self.$fold::<6>($sums, $($arg),*),
            7 => $self.$fold::<7>($sums, $($arg),*),
            _ => $self.$fold::<SUM_LANES>($sums, $($arg),*),
        }
    };
}

/// The rows of one page cut into **key runs**: maximal stretches of
/// consecutive rows that agree on every grouping attribute — rows of one
/// group, which therefore looks its group up once.  A cut is one boundary
/// sweep per attribute: over its key images where they are the whole keys
/// ([`KeyRuns::cut`]), or over its key bytes ([`KeyRuns::cut_records`]).
#[derive(Debug, Clone, Default)]
pub struct KeyRuns {
    /// Per row, whether a run starts there.
    boundaries: Vec<bool>,
    /// The first row of every run.
    starts: Vec<u32>,
    /// Per row, the run it belongs to.
    run_of_row: Vec<u32>,
}

impl KeyRuns {
    /// No rows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cut a page of `rows` rows by its key images: `images[i][r]` is row
    /// `r`'s image of grouping attribute `i`.
    pub fn cut(&mut self, images: &[Vec<u64>], rows: usize) {
        self.begin(rows);
        for lane in images {
            let pairs = lane[..rows].windows(2);
            for (boundary, pair) in self.boundaries.iter_mut().skip(1).zip(pairs) {
                *boundary |= pair[0] != pair[1];
            }
        }
        self.finish();
    }

    /// Cut a packed page (`page`, records of `ts` bytes) by the key bytes of
    /// `keys`: a run ends where any key field differs from the row before.
    pub fn cut_records(&mut self, keys: &[CompiledKey], page: &[u8], ts: usize) {
        self.begin(page.len() / ts);
        for key in keys {
            key.mark_changes(page, ts, &mut self.boundaries);
        }
        self.finish();
    }

    /// Start cutting a page of `rows` rows: one run so far.
    fn begin(&mut self, rows: usize) {
        self.boundaries.clear();
        self.boundaries.resize(rows, false);
        if let Some(first) = self.boundaries.first_mut() {
            *first = true;
        }
    }

    /// Number the runs.  Branch-free: every row is written as the start of
    /// a run and kept by advancing the cursor.
    fn finish(&mut self) {
        let rows = self.boundaries.len();
        self.starts.clear();
        self.starts.resize(rows, 0);
        self.run_of_row.clear();
        self.run_of_row.resize(rows, 0);
        let mut runs = 0;
        for ((row, &boundary), run) in (0u32..).zip(&self.boundaries).zip(&mut self.run_of_row) {
            self.starts[runs] = row;
            runs += boundary as usize;
            *run = runs as u32 - 1;
        }
        self.starts.truncate(runs);
    }

    /// The first row of every run, ascending.
    pub fn starts(&self) -> &[u32] {
        &self.starts
    }

    /// Rows of the page.
    pub fn rows(&self) -> usize {
        self.run_of_row.len()
    }

    /// Every run as its `(first row, end row)`.
    fn ranges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let ends = self.starts.iter().skip(1).copied();
        self.starts
            .iter()
            .copied()
            .zip(ends.chain([self.rows() as u32]))
    }
}

/// An aggregate program resolved for one kernel call into page sweeps (see
/// the module documentation): [`PageFold::fill`] evaluates the registers
/// over a page, [`PageFold::fold`] adds the page's rows to their groups.
#[derive(Debug, Clone)]
pub struct PageFold {
    tuple_size: usize,
    nodes: Vec<AggNode>,
    /// Per register, its value for every row of the filled page.
    lanes: Vec<Vec<f64>>,
    /// `(slot, register)` of the SUM, MIN and MAX slots.
    sums: Vec<(usize, usize)>,
    mins: Vec<(usize, usize)>,
    maxs: Vec<(usize, usize)>,
    slots: usize,
}

/// `out[i] = f(l[i], r[i])`, monomorphic in `f`.
#[inline(always)]
fn sweep(out: &mut [f64], l: &[f64], r: &[f64], f: impl Fn(f64, f64) -> f64) {
    for ((o, &a), &b) in out.iter_mut().zip(l).zip(r) {
        *o = f(a, b);
    }
}

impl PageFold {
    /// Resolve `nodes` (node `i` defines register `i`, operands first) and
    /// `layout` over packed records of `tuple_size` bytes.
    pub fn new(nodes: &[AggNode], layout: &AccumLayout, tuple_size: usize) -> Self {
        let slot_regs = |pick: fn(AccumSlot) -> Option<u16>| -> Vec<(usize, usize)> {
            layout
                .slots
                .iter()
                .enumerate()
                .filter_map(|(s, &slot)| pick(slot).map(|r| (s, r as usize)))
                .collect()
        };
        PageFold {
            tuple_size,
            nodes: nodes.to_vec(),
            lanes: vec![Vec::new(); nodes.len()],
            sums: slot_regs(|s| match s {
                AccumSlot::Sum(r) => Some(r),
                _ => None,
            }),
            mins: slot_regs(|s| match s {
                AccumSlot::Min(r) => Some(r),
                _ => None,
            }),
            maxs: slot_regs(|s| match s {
                AccumSlot::Max(r) => Some(r),
                _ => None,
            }),
            slots: layout.slots.len(),
        }
    }

    /// Evaluate every register over the rows of one packed page, one sweep
    /// per node; returns the number of rows.
    pub fn fill(&mut self, data: &[u8]) -> usize {
        let ts = self.tuple_size;
        let rows = data.len() / ts;
        for (i, node) in self.nodes.iter().enumerate() {
            let (operands, rest) = self.lanes.split_at_mut(i);
            let lane = &mut rest[0];
            if lane.len() < rows {
                // A constant's lane is written only here.
                lane.resize(
                    rows,
                    match *node {
                        AggNode::Const(c) => c,
                        _ => 0.0,
                    },
                );
            }
            let lane = &mut lane[..rows];
            let records = data.chunks_exact(ts);
            match *node {
                AggNode::Const(_) => {}
                AggNode::ColI32(off) => {
                    for (o, rec) in lane.iter_mut().zip(records) {
                        *o = read_i32_at(rec, off) as f64;
                    }
                }
                AggNode::ColI64(off) => {
                    for (o, rec) in lane.iter_mut().zip(records) {
                        *o = read_i64_at(rec, off) as f64;
                    }
                }
                AggNode::ColF64(off) => {
                    for (o, rec) in lane.iter_mut().zip(records) {
                        *o = read_f64_at(rec, off);
                    }
                }
                AggNode::Bin { op, left, right } => {
                    let l = &operands[left as usize][..rows];
                    let r = &operands[right as usize][..rows];
                    match op {
                        BinOp::Add => sweep(lane, l, r, |a, b| a + b),
                        BinOp::Sub => sweep(lane, l, r, |a, b| a - b),
                        BinOp::Mul => sweep(lane, l, r, |a, b| a * b),
                        BinOp::Div => sweep(lane, l, r, |a, b| a / b),
                    }
                }
            }
        }
        rows
    }

    /// Register `reg`'s values over the filled page (at least its rows).
    pub fn lane(&self, reg: u16) -> &[f64] {
        &self.lanes[reg as usize]
    }

    /// Add every row of the filled page to its group: the page was cut
    /// into `runs`, and `groups[i]` is the group of run `i`.  A page that
    /// is one run folds its slots in registers ([`PageFold::fold_range`]);
    /// otherwise each row's registers are added to its group's slots in
    /// place — the paper's `aggregates[offset] += value` — several slots
    /// per sweep, no dispatch per row.  Either way a group receives its
    /// rows in input order.
    pub fn fold(&self, runs: &KeyRuns, groups: &[u32], accums: &mut GroupAccums) {
        for (&group, (start, end)) in groups.iter().zip(runs.ranges()) {
            accums.counts[group as usize] += (end - start) as i64;
        }
        if let [group] = *groups {
            return self.fold_slots(0..runs.rows(), group as usize, accums);
        }
        let group_of = |row: usize| groups[runs.run_of_row[row] as usize] as usize;
        let (s, values) = (self.slots, &mut accums.values[..]);
        for sums in self.sums.chunks(SUM_LANES) {
            with_sum_lanes!(self.add_rows(sums, runs.rows(), group_of, values));
        }
        for (bounds, step) in [
            (&self.mins, lower as fn(f64, f64) -> f64),
            (&self.maxs, raise),
        ] {
            for &(slot, reg) in bounds {
                for (row, &v) in self.lanes[reg][..runs.rows()].iter().enumerate() {
                    let bound = &mut values[group_of(row) * s + slot];
                    *bound = step(*bound, v);
                }
            }
        }
    }

    /// Fold the rows `rows` of the filled page into group `g`, its slots
    /// held in registers for the stretch.
    pub fn fold_range(&self, rows: Range<usize>, g: usize, accums: &mut GroupAccums) {
        accums.counts[g] += rows.len() as i64;
        self.fold_slots(rows, g, accums);
    }

    /// [`PageFold::fold_range`] without the count.
    fn fold_slots(&self, rows: Range<usize>, g: usize, accums: &mut GroupAccums) {
        let acc = &mut accums.values[g * self.slots..(g + 1) * self.slots];
        for sums in self.sums.chunks(SUM_LANES) {
            with_sum_lanes!(self.sum_range(sums, rows.clone(), acc));
        }
        for &(slot, reg) in &self.mins {
            let lane = &self.lanes[reg][rows.clone()];
            acc[slot] = lane.iter().fold(acc[slot], |m, &v| lower(m, v));
        }
        for &(slot, reg) in &self.maxs {
            let lane = &self.lanes[reg][rows.clone()];
            acc[slot] = lane.iter().fold(acc[slot], |m, &v| raise(m, v));
        }
    }

    /// `K` SUM slots over one stretch of rows, every one adding its values
    /// in row order.
    #[inline(always)]
    fn sum_range<const K: usize>(
        &self,
        sums: &[(usize, usize)],
        rows: Range<usize>,
        acc: &mut [f64],
    ) {
        let lanes: [&[f64]; K] = std::array::from_fn(|k| &self.lanes[sums[k].1][rows.clone()]);
        let mut totals: [f64; K] = std::array::from_fn(|k| acc[sums[k].0]);
        for i in 0..rows.len() {
            for (total, lane) in totals.iter_mut().zip(&lanes) {
                *total += lane[i];
            }
        }
        for (total, &(slot, _)) in totals.iter().zip(sums) {
            acc[slot] = *total;
        }
    }

    /// `K` SUM slots over the page's first `rows` rows, each row added to
    /// the slots of `group_of(row)`.
    #[inline(always)]
    fn add_rows<const K: usize>(
        &self,
        sums: &[(usize, usize)],
        rows: usize,
        group_of: impl Fn(usize) -> usize,
        values: &mut [f64],
    ) {
        let lanes: [&[f64]; K] = std::array::from_fn(|k| &self.lanes[sums[k].1][..rows]);
        let slots: [usize; K] = std::array::from_fn(|k| sums[k].0);
        for row in 0..rows {
            let acc = &mut values[group_of(row) * self.slots..][..self.slots];
            for (slot, lane) in slots.iter().zip(&lanes) {
                acc[*slot] += lane[row];
            }
        }
    }
}

/// A query's aggregate list lowered to one register DAG plus accumulator
/// slots (see the module documentation).
#[derive(Debug, Clone, PartialEq)]
pub struct AggProgram {
    nodes: Vec<AggNode>,
    layout: AccumLayout,
}

impl AggProgram {
    /// Lower `spec`'s aggregates over records of `schema`.
    pub fn compile(spec: &AggregateSpec, schema: &Schema) -> Result<Self> {
        let mut nodes = Vec::new();
        // Constants first: their lanes are filled once per kernel call.
        for a in spec.aggregates.iter().filter(|a| a.func != AggFunc::Count) {
            if let Some(arg) = &a.arg {
                intern_literals(arg, &mut nodes)?;
            }
        }
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
        Ok(AggProgram::new(nodes, AccumLayout { slots, outputs }))
    }

    /// A program from its resolved parts: the register DAG (node `i`
    /// defines register `i`) and the slots and finishes reading it.
    pub fn new(nodes: Vec<AggNode>, layout: AccumLayout) -> Self {
        AggProgram { nodes, layout }
    }

    /// The register DAG: node `i` defines register `i`.
    pub fn nodes(&self) -> &[AggNode] {
        &self.nodes
    }

    /// The accumulator slots and aggregate finishes.
    pub fn layout(&self) -> &AccumLayout {
        &self.layout
    }
}

/// Every register's value for one record, row at a time: `regs[i]` is
/// node `i`'s value (`regs` holds one entry per node).  The output
/// decoder's loop, and the definition [`PageFold::fill`] is tested against.
#[inline]
pub fn eval_registers(nodes: &[AggNode], record: &[u8], regs: &mut [f64]) {
    for (i, node) in nodes.iter().enumerate() {
        regs[i] = match *node {
            AggNode::Const(c) => c,
            AggNode::ColI32(off) => read_i32_at(record, off) as f64,
            AggNode::ColI64(off) => read_i64_at(record, off) as f64,
            AggNode::ColF64(off) => read_f64_at(record, off),
            AggNode::Bin { op, left, right } => {
                let (l, r) = (regs[left as usize], regs[right as usize]);
                match op {
                    BinOp::Add => l + r,
                    BinOp::Sub => l - r,
                    BinOp::Mul => l * r,
                    BinOp::Div => l / r,
                }
            }
        };
    }
}

/// Intern `node`, returning its register.
fn intern_node(node: AggNode, nodes: &mut Vec<AggNode>) -> Result<u16> {
    if let Some(i) = nodes.iter().position(|n| n.same(&node)) {
        return Ok(i as u16);
    }
    if nodes.len() > u16::MAX as usize {
        return Err(HiqueError::Codegen(
            "register program exceeds the register file".into(),
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

/// Intern `expr` over records of `schema` into `nodes`, returning the
/// register holding its value: each distinct load, constant and arithmetic
/// node exists once.
pub(crate) fn intern(expr: &ScalarExpr, schema: &Schema, nodes: &mut Vec<AggNode>) -> Result<u16> {
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
    fn registers_evaluate_like_the_expression_tree() {
        use hique_types::tuple::encode_record;
        let s = Schema::new(vec![
            Column::new("i", DataType::Int32),
            Column::new("f", DataType::Float64),
            Column::new("s", DataType::Char(6)),
            Column::new("l", DataType::Int64),
        ]);
        let values = [
            Value::Int32(4),
            Value::Float64(0.25),
            Value::Str("zz".into()),
            Value::Int64(8),
        ];
        let rec = encode_record(&s, &values).unwrap();
        let column = |index: usize| ScalarExpr::Column {
            index,
            dtype: s.column(index).dtype,
        };
        let lit = |v: i32| ScalarExpr::Literal(Value::Int32(v));
        // f * (1 - i) + l, and l / 2 over the same program.
        let tree = bin(
            BinOp::Add,
            bin(BinOp::Mul, column(1), bin(BinOp::Sub, lit(1), column(0))),
            column(3),
        );
        let half = bin(BinOp::Div, column(3), lit(2));
        let mut nodes = Vec::new();
        let (a, b) = (
            intern(&tree, &s, &mut nodes).unwrap(),
            intern(&half, &s, &mut nodes).unwrap(),
        );
        let mut regs = vec![0.0; nodes.len()];
        eval_registers(&nodes, &rec, &mut regs);
        assert_eq!(regs[a as usize], 0.25 * (1.0 - 4.0) + 8.0);
        assert_eq!(
            regs[a as usize].to_bits(),
            tree.eval_f64_record(&rec, &s).to_bits()
        );
        assert_eq!(regs[b as usize], 4.0);
        // `l` is loaded once for both expressions.
        assert_eq!(nodes.len(), 9);
        // A string column is no arithmetic operand.
        assert!(intern(&column(2), &s, &mut nodes).is_err());
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
    fn a_group_keeps_one_value_per_slot_and_one_count() {
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
        let mut accums = GroupAccums::new(program.layout());
        assert_eq!(accums.push_group(), 0);
        assert_eq!(
            accums.slot_values(0),
            [0.0, f64::INFINITY, f64::NEG_INFINITY, 0.0],
            "SUM and AVG share a slot; COUNT's holds nothing"
        );
        for v in [3.0, -2.0, 8041.0] {
            accums.accumulate_row(0, |_| v);
        }
        assert_eq!(accums.slot_values(0), [8042.0, -2.0, 8041.0, 0.0]);
        assert_eq!(accums.count(0), 3);
        // Every function finishes in its aggregate's type: MIN/MAX too.
        let finished: Vec<Value> = (0..5).map(|i| accums.finish(i, 0)).collect();
        assert_eq!(format!("{:?}", finished[0]), "Int64(8042)");
        assert_eq!(format!("{:?}", finished[1]), "Int32(-2)");
        assert_eq!(format!("{:?}", finished[2]), "Date(8041)");
        assert_eq!(format!("{:?}", finished[3]), "Int64(3)");
        assert!((finished[4].as_f64().unwrap() - 8042.0 / 3.0).abs() < 1e-9);
    }

    fn bits(accums: &GroupAccums) -> Vec<(i64, Vec<u64>)> {
        bits_by(accums, f64::to_bits)
    }

    fn bits_by(accums: &GroupAccums, image: impl Fn(f64) -> u64) -> Vec<(i64, Vec<u64>)> {
        (0..accums.groups())
            .map(|g| {
                let values = accums.slot_values(g).iter().map(|&v| image(v));
                (accums.count(g), values.collect())
            })
            .collect()
    }

    /// [`bits`], every NaN read as the canonical one: IEEE 754 leaves the
    /// sign and payload of an invalid operation's NaN unspecified, and an
    /// optimised build's constant folder and its run-time arithmetic pick
    /// different ones.  Every other value still compares by bits, and a NaN
    /// only against a NaN.
    fn bits_nan_as_one(accums: &GroupAccums) -> Vec<(i64, Vec<u64>)> {
        bits_by(accums, |v| if v.is_nan() { f64::NAN } else { v }.to_bits())
    }

    #[test]
    fn page_fold_matches_the_row_at_a_time_fold_bit_for_bit() {
        use hique_types::tuple::encode_record;
        let mut aggregates = q1().aggregates;
        aggregates.push(BoundAggregate {
            func: AggFunc::Min,
            arg: Some(bin(BinOp::Div, col(0), col(2))),
            dtype: DataType::Float64,
        });
        aggregates.push(BoundAggregate {
            func: AggFunc::Max,
            arg: Some(col(5)),
            dtype: DataType::Date,
        });
        let program =
            AggProgram::compile(&AggregateSpec { aggregates, ..q1() }, &schema()).unwrap();
        let floats = [0.1, -0.0, 0.0, 2.5, f64::NAN, f64::INFINITY, -1e300, 7.0];
        let records: Vec<Vec<u8>> = (0..300usize)
            .map(|i| {
                let f = |k: usize| Value::Float64(floats[(i * 7 + k * 3 + i / 11) % floats.len()]);
                let values = [
                    f(0),
                    f(1),
                    f(2),
                    f(3),
                    Value::Int32(i as i32 - 150),
                    Value::Date(8000 + (i * 13 % 50) as i32),
                ];
                encode_record(&schema(), &values).unwrap()
            })
            .collect();
        // Groupings: one group, every row its own, a few interleaved, runs.
        let groupings: [fn(usize) -> u32; 4] = [
            |_| 0,
            |i| i as u32,
            |i| (i * 7 % 5) as u32,
            |i| (i / 40) as u32,
        ];
        for group_of in groupings {
            let mut by_row = GroupAccums::new(program.layout());
            let mut by_page = GroupAccums::new(program.layout());
            let groups = (0..records.len()).map(group_of).max().unwrap() as usize + 1;
            for _ in 0..groups {
                by_row.push_group();
                by_page.push_group();
            }
            let mut regs = vec![0.0; program.nodes().len()];
            for (i, rec) in records.iter().enumerate() {
                eval_registers(program.nodes(), rec, &mut regs);
                by_row.accumulate_row(group_of(i) as usize, |r| regs[r as usize]);
            }
            // Pages of uneven size, so runs cross page boundaries.
            let mut fold = PageFold::new(program.nodes(), program.layout(), schema().tuple_size());
            let mut runs = KeyRuns::new();
            let mut at = 0;
            for len in [1, 120, 0, 7, 172] {
                assert_eq!(fold.fill(&records[at..at + len].concat()), len);
                // The group number itself as the one key image.
                let images = [(at..at + len)
                    .map(|i| group_of(i) as u64)
                    .collect::<Vec<_>>()];
                runs.cut(&images, len);
                let ids: Vec<u32> = runs
                    .starts()
                    .iter()
                    .map(|&r| images[0][r as usize] as u32)
                    .collect();
                assert!(ids.windows(2).all(|w| w[0] != w[1]), "runs are maximal");
                fold.fold(&runs, &ids, &mut by_page);
                at += len;
            }
            assert_eq!(at, records.len());
            assert_eq!(bits_nan_as_one(&by_page), bits_nan_as_one(&by_row));
            // A stretch of rows folds like the rows one at a time.
            let mut by_range = GroupAccums::new(program.layout());
            (0..groups).for_each(|_| {
                by_range.push_group();
            });
            assert_eq!(fold.fill(&records.concat()), records.len());
            let mut start = 0;
            for i in 1..=records.len() {
                if i == records.len() || group_of(i) != group_of(start) {
                    fold.fold_range(start..i, group_of(start) as usize, &mut by_range);
                    start = i;
                }
            }
            assert_eq!(bits_nan_as_one(&by_range), bits_nan_as_one(&by_row));
        }
    }

    #[test]
    fn the_carried_group_of_a_sorted_scan_is_the_last() {
        let program = AggProgram::compile(&q1(), &schema()).unwrap();
        let mut accums = GroupAccums::new(program.layout());
        accums.retain_last();
        assert_eq!(accums.groups(), 0);
        for g in 0..3 {
            accums.push_group();
            for _ in 0..=g {
                accums.accumulate_row(g, |r| (g * 10) as f64 + r as f64);
            }
        }
        let last = bits(&accums).split_off(2);
        accums.retain_last();
        assert_eq!(bits(&accums), last);
        accums.retain_last();
        assert_eq!(bits(&accums), last);
    }

    #[test]
    fn combining_onto_a_fresh_group_is_bit_exact() {
        // What lets a serial pool run the chunked kernels as the serial
        // form: one chunk folded into a fresh group must reproduce the
        // chunk's own bits, signed zeros, infinities and NaN included.
        let program = AggProgram::compile(
            &spec(vec![
                (AggFunc::Sum, Some(col(0)), DataType::Float64),
                (AggFunc::Min, Some(col(0)), DataType::Float64),
                (AggFunc::Max, Some(col(0)), DataType::Float64),
                (AggFunc::Count, None, DataType::Int64),
            ]),
            &schema(),
        )
        .unwrap();
        let cases: [&[f64]; 6] = [
            &[],
            &[-0.0],
            &[-0.0, -0.0],
            &[0.1, 0.2, 0.3, -0.6],
            &[f64::INFINITY, 1.0],
            &[f64::NAN, 1.0],
        ];
        for values in cases {
            let mut chunk = GroupAccums::new(program.layout());
            chunk.push_group();
            for &v in values {
                chunk.accumulate_row(0, |_| v);
            }
            let mut merged = GroupAccums::new(program.layout());
            merged.push_group();
            merged.combine(0, &chunk, 0);
            assert_eq!(bits(&merged), bits(&chunk), "{values:?}");
        }
    }
}
