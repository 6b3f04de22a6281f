//! Pool-backed row runs: the iterator engine's spilled intermediates.
//!
//! Blocking operators in this engine materialize `Vec<Row>`s (sort runs,
//! hash-partitioned join inputs).  Under a memory budget those runs are
//! encoded back into the fixed-width record layout of their schema and
//! written through the catalog's buffer pool via the shared pipeline
//! [`SpillContext`]; consumption decodes them **one pinned pool page at a
//! time** through a [`RowCursor`], so a spilled run is never re-materialized
//! as a whole row vector on its way to the parent operator.
//!
//! The spill decision is size-only (the shared `SpillContext` threshold),
//! so `threads = N` spills exactly what `threads = 1` spills and results
//! are identical for every budget.

use std::sync::Arc;

use hique_pipeline::SpillContext;
use hique_storage::SpillHandle;
use hique_types::{Result, Row, Schema};

/// A row run encoded into spill pages: handle + the schema needed to decode
/// records back into rows.
pub struct SpilledRows {
    handle: SpillHandle,
    schema: Schema,
}

impl SpilledRows {
    /// Encode `rows` (laid out by `schema`) into spill pages.
    pub fn spill(rows: &[Row], schema: &Schema, ctx: &SpillContext) -> Result<SpilledRows> {
        let ts = schema.tuple_size();
        let mut buf = Vec::with_capacity(rows.len() * ts);
        for row in rows {
            buf.extend_from_slice(&row.to_record(schema)?);
        }
        let handle = ctx.spill(&buf, ts)?;
        Ok(SpilledRows {
            handle,
            schema: schema.clone(),
        })
    }

    /// Number of rows in the run.
    pub fn num_rows(&self) -> usize {
        self.handle.records
    }

    /// Decode the whole run back into rows, reading page-at-a-time through
    /// pin guards (for consumers that need the full run at once, e.g. a
    /// merge cursor over one partition pair).
    pub fn load(&self, ctx: &SpillContext) -> Result<Vec<Row>> {
        // A full load holds the whole range's rows; record it on the meter
        // so the gap to the streaming cursor stays observable.
        let _resident = ctx.meter().track(self.handle.pages);
        let mut rows = Vec::with_capacity(self.handle.records);
        let ts = self.schema.tuple_size();
        for i in 0..self.handle.pages {
            let page = ctx.temp().page_guard(&self.handle, i)?;
            for rec in page.data().chunks_exact(ts) {
                rows.push(Row::from_record(&self.schema, rec));
            }
        }
        Ok(rows)
    }

    /// A streaming decoder over the run: rows come back in order, decoding
    /// one page per refill, with only that page's rows resident.
    pub fn cursor(&self, ctx: Arc<SpillContext>) -> RowCursor {
        RowCursor {
            ctx,
            handle: self.handle,
            schema: self.schema.clone(),
            next_page: 0,
            buffer: Vec::new(),
            pos: 0,
        }
    }
}

/// Streaming decoder over a [`SpilledRows`] run.
pub struct RowCursor {
    ctx: Arc<SpillContext>,
    handle: SpillHandle,
    schema: Schema,
    next_page: usize,
    buffer: Vec<Row>,
    pos: usize,
}

impl RowCursor {
    /// The next row of the run, or `None` when exhausted.  (Named like the
    /// Volcano interface on purpose — this is a pull cursor, not a std
    /// iterator, because each pull can fail on I/O.)
    #[expect(
        clippy::should_implement_trait,
        reason = "Iterator::next cannot express the fallible pull"
    )]
    pub fn next(&mut self) -> Result<Option<Row>> {
        loop {
            if self.pos < self.buffer.len() {
                let row = self.buffer[self.pos].clone();
                self.pos += 1;
                return Ok(Some(row));
            }
            if self.next_page >= self.handle.pages {
                return Ok(None);
            }
            // Refill from the next pinned page, then release it: only one
            // page's rows are ever resident.
            let ts = self.schema.tuple_size();
            let page = self.ctx.temp().page_guard(&self.handle, self.next_page)?;
            let _resident = self.ctx.meter().track(1);
            self.buffer.clear();
            self.buffer.extend(
                page.data()
                    .chunks_exact(ts)
                    .map(|rec| Row::from_record(&self.schema, rec)),
            );
            self.pos = 0;
            self.next_page += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_storage::{BufferPool, TempSpace};
    use hique_types::{CancelToken, Column, DataType, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("k", DataType::Int32),
            Column::new("v", DataType::Float64),
            Column::new("tag", DataType::Char(4)),
        ])
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int32(i as i32),
                    Value::Float64(i as f64 * 0.5),
                    Value::Str(if i % 2 == 0 { "ev" } else { "od" }.into()),
                ])
            })
            .collect()
    }

    fn ctx(name: &str, budget: usize) -> (Arc<SpillContext>, std::path::PathBuf) {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "hique_iter_spill_{}_{name}.spill",
            std::process::id()
        ));
        let pool = Arc::new(BufferPool::new(budget).unwrap());
        let temp = Arc::new(TempSpace::create(pool, &path).unwrap());
        (
            Arc::new(SpillContext::acquire(&temp, 1, CancelToken::disabled()).expect("space free")),
            path,
        )
    }

    #[test]
    fn rows_round_trip_through_load_and_cursor() {
        let (ctx, path) = ctx("roundtrip", 2);
        let original = rows(1000);
        let run = SpilledRows::spill(&original, &schema(), &ctx).unwrap();
        assert_eq!(run.num_rows(), 1000);

        let mut cursor = run.cursor(Arc::clone(&ctx));
        let mut streamed = Vec::new();
        while let Some(row) = cursor.next().unwrap() {
            streamed.push(row);
        }
        assert_eq!(streamed, original);
        // The streaming decode held one page at a time on the meter...
        assert_eq!(ctx.meter().peak(), 1);

        // ...while a full load registers the whole multi-page range.
        assert_eq!(run.load(&ctx).unwrap(), original);
        assert!(ctx.meter().peak() > 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_runs_are_fine() {
        let (ctx, path) = ctx("empty", 2);
        let run = SpilledRows::spill(&[], &schema(), &ctx).unwrap();
        assert_eq!(run.num_rows(), 0);
        assert!(run.load(&ctx).unwrap().is_empty());
        assert!(run.cursor(Arc::clone(&ctx)).next().unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }
}
