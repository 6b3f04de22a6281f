//! Deterministic TPC-H-shaped data generation.
//!
//! Row counts scale with the scale factor exactly as in the official
//! specification (SF=1: 150k customers, 1.5M orders, ~6M lineitems); value
//! distributions reproduce what Queries 1, 3 and 10 are sensitive to:
//! shipdate/orderdate ranges (1992-01-01 … 1998-08-02), return flags coupled
//! to receipt dates, line statuses coupled to ship dates, uniform market
//! segments and uniform nation keys.  Generation is seeded and fully
//! deterministic for a given scale factor.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use hique_storage::{Catalog, TableHeap};
use hique_types::value::days_from_civil;
use hique_types::{Result, Row, Value};

use crate::schema;

/// The 25 TPC-H nations (name, region).
pub const NATIONS: [(&str, i32); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

/// The 5 TPC-H regions.
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// The customer market segments.
pub const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];

const SHIP_INSTRUCT: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];
const SHIP_MODE: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

/// TPC-H-shaped generator for one scale factor.
pub struct TpchGenerator {
    sf: f64,
    rng: SmallRng,
}

impl TpchGenerator {
    /// Create a generator for scale factor `sf` (1.0 ≈ the paper's 1.3 GB
    /// raw data-set) with a fixed seed.
    pub fn new(sf: f64) -> Self {
        TpchGenerator {
            sf,
            rng: SmallRng::seed_from_u64(0x7bc4_2026_u64 ^ (sf * 1000.0) as u64),
        }
    }

    /// Number of customers at this scale factor.
    pub fn num_customers(&self) -> usize {
        ((150_000.0 * self.sf) as usize).max(10)
    }

    /// Number of orders at this scale factor.
    pub fn num_orders(&self) -> usize {
        self.num_customers() * 10
    }

    /// Number of suppliers.
    pub fn num_suppliers(&self) -> usize {
        ((10_000.0 * self.sf) as usize).max(5)
    }

    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        ((200_000.0 * self.sf) as usize).max(10)
    }

    fn date(&mut self, lo: (i32, i32, i32), hi: (i32, i32, i32)) -> i32 {
        let lo = days_from_civil(lo.0, lo.1, lo.2);
        let hi = days_from_civil(hi.0, hi.1, hi.2);
        self.rng.gen_range(lo..=hi)
    }

    /// Generate the `nation` table.
    pub fn nation(&mut self) -> Result<TableHeap> {
        let mut heap = TableHeap::new(schema::nation())?;
        for (i, (name, region)) in NATIONS.iter().enumerate() {
            heap.append_row(&Row::new(vec![
                Value::Int32(i as i32),
                Value::Str(name.to_string()),
                Value::Int32(*region),
                Value::Str(format!("nation comment {i}")),
            ]))?;
        }
        Ok(heap)
    }

    /// Generate the `region` table.
    pub fn region(&mut self) -> Result<TableHeap> {
        let mut heap = TableHeap::new(schema::region())?;
        for (i, name) in REGIONS.iter().enumerate() {
            heap.append_row(&Row::new(vec![
                Value::Int32(i as i32),
                Value::Str(name.to_string()),
                Value::Str(format!("region comment {i}")),
            ]))?;
        }
        Ok(heap)
    }

    /// Generate the `customer` table.
    pub fn customer(&mut self) -> Result<TableHeap> {
        let mut heap = TableHeap::new(schema::customer())?;
        let n = self.num_customers();
        for i in 1..=n {
            let nation = self.rng.gen_range(0..25);
            let segment = SEGMENTS[self.rng.gen_range(0..SEGMENTS.len())];
            heap.append_row(&Row::new(vec![
                Value::Int32(i as i32),
                Value::Str(format!("Customer#{i:09}")),
                Value::Str(format!("Address {i} Main Street")),
                Value::Int32(nation),
                Value::Str(format!(
                    "{:02}-{:03}-{:03}-{:04}",
                    10 + nation,
                    i % 999,
                    (i * 7) % 999,
                    i % 9999
                )),
                Value::Float64(self.rng.gen_range(-999.99..9999.99)),
                Value::Str(segment.to_string()),
                Value::Str(format!("customer comment {i}")),
            ]))?;
        }
        Ok(heap)
    }

    /// Generate the `supplier` table.
    pub fn supplier(&mut self) -> Result<TableHeap> {
        let mut heap = TableHeap::new(schema::supplier())?;
        for i in 1..=self.num_suppliers() {
            let nation = self.rng.gen_range(0..25);
            heap.append_row(&Row::new(vec![
                Value::Int32(i as i32),
                Value::Str(format!("Supplier#{i:09}")),
                Value::Str(format!("Supplier address {i}")),
                Value::Int32(nation),
                Value::Str(format!(
                    "{:02}-{:03}-{:03}-{:04}",
                    10 + nation,
                    i % 999,
                    (i * 3) % 999,
                    i % 9999
                )),
                Value::Float64(self.rng.gen_range(-999.99..9999.99)),
                Value::Str(format!("supplier comment {i}")),
            ]))?;
        }
        Ok(heap)
    }

    /// Generate the `part` table.
    pub fn part(&mut self) -> Result<TableHeap> {
        let mut heap = TableHeap::new(schema::part())?;
        for i in 1..=self.num_parts() {
            heap.append_row(&Row::new(vec![
                Value::Int32(i as i32),
                Value::Str(format!("part name {i}")),
                Value::Str(format!("Manufacturer#{}", 1 + i % 5)),
                Value::Str(format!("Brand#{}{}", 1 + i % 5, 1 + i % 5)),
                Value::Str(format!("TYPE {}", i % 150)),
                Value::Int32((1 + i % 50) as i32),
                Value::Str(format!("CONTAINER {}", i % 40)),
                Value::Float64(900.0 + (i % 200_000) as f64 / 10.0),
                Value::Str(format!("part comment {i}")),
            ]))?;
        }
        Ok(heap)
    }

    /// Generate the `orders` and `lineitem` tables together (so that
    /// lineitems reference real orders and inherit their dates).
    pub fn orders_and_lineitems(&mut self) -> Result<(TableHeap, TableHeap)> {
        let mut orders = TableHeap::new(schema::orders())?;
        let mut lineitems = TableHeap::new(schema::lineitem())?;
        let num_orders = self.num_orders();
        let num_customers = self.num_customers() as i32;
        let cutoff = days_from_civil(1995, 6, 17);
        for okey in 1..=num_orders {
            let custkey = self.rng.gen_range(1..=num_customers);
            let orderdate = self.date((1992, 1, 1), (1998, 8, 2));
            let num_lines = self.rng.gen_range(1..=7usize);
            let mut total = 0.0f64;
            let mut any_open = false;
            for line in 1..=num_lines {
                let quantity = self.rng.gen_range(1..=50) as f64;
                let partkey = self.rng.gen_range(1..=self.num_parts().max(1)) as i32;
                let suppkey = self.rng.gen_range(1..=self.num_suppliers().max(1)) as i32;
                let extendedprice = quantity * (900.0 + (partkey % 200_000) as f64 / 10.0);
                let discount = self.rng.gen_range(0..=10) as f64 / 100.0;
                let tax = self.rng.gen_range(0..=8) as f64 / 100.0;
                let shipdate = orderdate + self.rng.gen_range(1..=121);
                let commitdate = orderdate + self.rng.gen_range(30..=90);
                let receiptdate = shipdate + self.rng.gen_range(1..=30);
                let returnflag = if receiptdate <= cutoff {
                    if self.rng.gen_bool(0.5) {
                        "R"
                    } else {
                        "A"
                    }
                } else {
                    "N"
                };
                let linestatus = if shipdate > cutoff { "O" } else { "F" };
                any_open |= linestatus == "O";
                total += extendedprice * (1.0 - discount) * (1.0 + tax);
                lineitems.append_row(&Row::new(vec![
                    Value::Int32(okey as i32),
                    Value::Int32(partkey),
                    Value::Int32(suppkey),
                    Value::Int32(line as i32),
                    Value::Float64(quantity),
                    Value::Float64(extendedprice),
                    Value::Float64(discount),
                    Value::Float64(tax),
                    Value::Str(returnflag.to_string()),
                    Value::Str(linestatus.to_string()),
                    Value::Date(shipdate),
                    Value::Date(commitdate),
                    Value::Date(receiptdate),
                    Value::Str(
                        SHIP_INSTRUCT[self.rng.gen_range(0..SHIP_INSTRUCT.len())].to_string(),
                    ),
                    Value::Str(SHIP_MODE[self.rng.gen_range(0..SHIP_MODE.len())].to_string()),
                    Value::Str(format!("lineitem comment {okey} {line}")),
                ]))?;
            }
            let status = if any_open { "O" } else { "F" };
            orders.append_row(&Row::new(vec![
                Value::Int32(okey as i32),
                Value::Int32(custkey),
                Value::Str(status.to_string()),
                Value::Float64(total),
                Value::Date(orderdate),
                Value::Str(PRIORITIES[self.rng.gen_range(0..PRIORITIES.len())].to_string()),
                Value::Str(format!("Clerk#{:09}", self.rng.gen_range(1..1000))),
                Value::Int32(0),
                Value::Str(format!("order comment {okey}")),
            ]))?;
        }
        Ok((orders, lineitems))
    }
}

/// Generate every table at scale factor `sf`, register them in a fresh
/// catalog and gather statistics.
pub fn generate_into_catalog(sf: f64) -> Result<Catalog> {
    let mut generator = TpchGenerator::new(sf);
    let mut catalog = Catalog::new();
    catalog.register_table("nation", generator.nation()?)?;
    catalog.register_table("region", generator.region()?)?;
    catalog.register_table("customer", generator.customer()?)?;
    catalog.register_table("supplier", generator.supplier()?)?;
    catalog.register_table("part", generator.part()?)?;
    let (orders, lineitems) = generator.orders_and_lineitems()?;
    catalog.register_table("orders", orders)?;
    catalog.register_table("lineitem", lineitems)?;
    for t in [
        "nation", "region", "customer", "supplier", "part", "orders", "lineitem",
    ] {
        catalog.analyze_table(t)?;
    }
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_types::tuple::read_value;

    #[test]
    fn row_counts_scale_with_sf() {
        let g = TpchGenerator::new(0.01);
        assert_eq!(g.num_customers(), 1500);
        assert_eq!(g.num_orders(), 15_000);
        let g = TpchGenerator::new(1.0);
        assert_eq!(g.num_customers(), 150_000);
        assert_eq!(g.num_orders(), 1_500_000);
    }

    #[test]
    fn generated_catalog_is_consistent() {
        let catalog = generate_into_catalog(0.002).unwrap();
        let customers = catalog.table("customer").unwrap();
        let orders = catalog.table("orders").unwrap();
        let lineitem = catalog.table("lineitem").unwrap();
        let nation = catalog.table("nation").unwrap();
        assert_eq!(nation.row_count(), 25);
        assert_eq!(catalog.table("region").unwrap().row_count(), 5);
        assert_eq!(customers.row_count(), 300);
        assert_eq!(orders.row_count(), 3000);
        // 1..7 lineitems per order.
        assert!(lineitem.row_count() >= orders.row_count());
        assert!(lineitem.row_count() <= orders.row_count() * 7);

        // Foreign keys are within range.
        let oschema = &orders.schema;
        let custkey_idx = oschema.index_of("o_custkey").unwrap();
        for record in orders.heap.records().take(500) {
            let v = read_value(record, oschema, custkey_idx).as_i64().unwrap();
            assert!((1..=300).contains(&v));
        }
        // Return flags and statuses come from the expected domains.
        let lschema = &lineitem.schema;
        let rf = lschema.index_of("l_returnflag").unwrap();
        let ls = lschema.index_of("l_linestatus").unwrap();
        for record in lineitem.heap.records().take(500) {
            let flag = read_value(record, lschema, rf).to_string();
            assert!(["R", "A", "N"].contains(&flag.as_str()));
            let status = read_value(record, lschema, ls).to_string();
            assert!(["O", "F"].contains(&status.as_str()));
        }
        // Statistics were gathered.
        let stats = &lineitem.column_stats;
        assert!(!stats.is_empty());
        assert!(stats[lschema.index_of("l_returnflag").unwrap()].distinct <= 3);
        assert!(stats[lschema.index_of("l_linestatus").unwrap()].distinct <= 2);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_into_catalog(0.001).unwrap();
        let b = generate_into_catalog(0.001).unwrap();
        let ra: Vec<_> = a.table("orders").unwrap().heap.all_rows();
        let rb: Vec<_> = b.table("orders").unwrap().heap.all_rows();
        assert_eq!(ra, rb);
    }
}
