//! TPC-C data generation.
//!
//! Produces the initial dataset as streams of `(table, key, logical width)`
//! rows. The `density` knob scales the per-warehouse cardinalities so tests
//! and benches can run the *same code paths* at a fraction of the 100 GB the
//! paper loads, while the logical widths keep per-row I/O costs authentic.
//! No row bytes are generated: the engine stores a version as its header
//! alone, and a row costs its logical width.
//!
//! **The RNG stream is the dataset.** Every row is drawn from one seeded
//! stream per warehouse (and one for ITEM), in load order, and the number
//! of order lines per order comes out of the same stream. So every draw is
//! part of the dataset: rows once carried eight random stand-in bytes, and
//! those values are still drawn, and dropped, for every row — take them out
//! and every order after the first gets a different number of lines.

use wattdb_common::{DetRng, Key};

use crate::schema::{keys, TpccTable, ITEM_ROWS};

/// Generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct TpccConfig {
    /// Number of warehouses (the scale factor; paper: 1000).
    pub warehouses: u32,
    /// Cardinality scale in (0, 1]: customers/orders/stock per warehouse
    /// are multiplied by this (minimum 1 row where the table is non-empty).
    pub density: f64,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for TpccConfig {
    fn default() -> Self {
        Self {
            warehouses: 4,
            density: 0.02,
            seed: 42,
        }
    }
}

impl TpccConfig {
    /// Scaled row count for `table`, per warehouse.
    pub fn rows_per_warehouse(&self, table: TpccTable) -> u64 {
        let base = table.rows_per_warehouse();
        if base == 0 {
            return 0;
        }
        ((base as f64 * self.density).round() as u64).max(1)
    }

    /// Scaled global ITEM count.
    pub fn item_rows(&self) -> u64 {
        ((ITEM_ROWS as f64 * self.density).round() as u64).max(1)
    }

    /// Scaled customers per district.
    pub fn customers_per_district(&self) -> u64 {
        (self.rows_per_warehouse(TpccTable::Customer) / 10).max(1)
    }

    /// Scaled orders per district.
    pub fn orders_per_district(&self) -> u64 {
        (self.rows_per_warehouse(TpccTable::Orders) / 10).max(1)
    }

    /// Scaled stock rows per warehouse.
    pub fn stock_per_warehouse(&self) -> u64 {
        self.rows_per_warehouse(TpccTable::Stock)
    }

    /// Total logical bytes the initial dataset occupies.
    pub fn logical_dataset_bytes(&self) -> u64 {
        let mut total = self.item_rows() * TpccTable::Item.row_width() as u64;
        for t in TpccTable::ALL {
            total += self.rows_per_warehouse(t) * t.row_width() as u64 * self.warehouses as u64;
        }
        total
    }
}

/// One generated row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenRow {
    /// Owning table.
    pub table: TpccTable,
    /// Primary key.
    pub key: Key,
    /// Logical width (schema row width).
    pub width: u32,
}

/// The row `table`/`key`, drawn from `rng`.
fn row(table: TpccTable, key: Key, rng: &mut DetRng) -> GenRow {
    // The eight stand-in bytes a row once stored: nothing reads them, but
    // the stream they came from is the dataset (module docs), so they are
    // drawn and dropped.
    for _ in 0..8 {
        rng.uniform(0, 255);
    }
    GenRow {
        table,
        key,
        width: table.row_width(),
    }
}

/// Generate all rows of one warehouse, in load order. Deterministic in
/// `(cfg.seed, w)`.
pub fn warehouse_rows(cfg: &TpccConfig, w: u32) -> Vec<GenRow> {
    let mut rng = DetRng::new(cfg.seed).derive(w as u64 + 1);
    let mut out = Vec::new();
    let mut push = |table: TpccTable, key: Key, rng: &mut DetRng| out.push(row(table, key, rng));
    push(TpccTable::Warehouse, keys::warehouse(w), &mut rng);
    let cust_per_d = cfg.customers_per_district();
    let orders_per_d = cfg.orders_per_district();
    // 2/3 of initial orders are delivered; the last third populates
    // NEW-ORDER, per the spec's 900/3000 ratio.
    let new_order_floor = orders_per_d - (orders_per_d * 3 / 10).max(1).min(orders_per_d);
    for d in 0..10u32 {
        push(TpccTable::District, keys::district(w, d), &mut rng);
        for c in 0..cust_per_d {
            push(
                TpccTable::Customer,
                keys::customer(w, d, c as u32),
                &mut rng,
            );
            push(TpccTable::History, keys::history(w, d, c), &mut rng);
        }
        for o in 0..orders_per_d {
            push(TpccTable::Orders, keys::order(w, d, o), &mut rng);
            let lines = rng.uniform(5, 15);
            for l in 0..lines {
                let key = keys::order_line(w, d, o, l as u32);
                push(TpccTable::OrderLine, key, &mut rng);
            }
            if o >= new_order_floor {
                push(TpccTable::NewOrder, keys::new_order(w, d, o), &mut rng);
            }
        }
    }
    for i in 0..cfg.stock_per_warehouse() {
        push(TpccTable::Stock, keys::stock(w, i), &mut rng);
    }
    out
}

/// Generate the global ITEM rows (spread across the warehouse key space).
pub fn item_rows(cfg: &TpccConfig) -> Vec<GenRow> {
    let mut rng = DetRng::new(cfg.seed).derive(0xC0FFEE);
    (0..cfg.item_rows())
        .map(|i| row(TpccTable::Item, keys::item(i, cfg.warehouses), &mut rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::key_warehouse;
    use std::collections::HashSet;

    fn cfg() -> TpccConfig {
        TpccConfig {
            warehouses: 2,
            density: 0.01,
            seed: 7,
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = warehouse_rows(&cfg(), 1);
        let b = warehouse_rows(&cfg(), 1);
        assert_eq!(a, b);
        let other = warehouse_rows(&cfg(), 0);
        assert_ne!(a[0].key, other[0].key);
    }

    #[test]
    fn keys_unique_within_tables() {
        let rows = warehouse_rows(&cfg(), 0);
        let mut seen: HashSet<(TpccTable, Key)> = HashSet::new();
        for r in &rows {
            assert!(
                seen.insert((r.table, r.key)),
                "dup {:?} {:?}",
                r.table,
                r.key
            );
        }
    }

    #[test]
    fn rows_belong_to_their_warehouse() {
        let rows = warehouse_rows(&cfg(), 1);
        assert!(rows.iter().all(|r| key_warehouse(r.key) == 1));
    }

    #[test]
    fn density_scales_cardinalities() {
        let lo = TpccConfig {
            density: 0.01,
            ..cfg()
        };
        let hi = TpccConfig {
            density: 0.1,
            ..cfg()
        };
        let n_lo = warehouse_rows(&lo, 0).len();
        let n_hi = warehouse_rows(&hi, 0).len();
        assert!(n_hi > 5 * n_lo, "lo={n_lo} hi={n_hi}");
        assert!(hi.logical_dataset_bytes() > lo.logical_dataset_bytes());
    }

    #[test]
    fn widths_follow_schema() {
        let rows = warehouse_rows(&cfg(), 0);
        for r in &rows {
            assert_eq!(r.width, r.table.row_width());
        }
    }

    #[test]
    fn new_order_subset_of_orders() {
        let rows = warehouse_rows(&cfg(), 0);
        let orders: HashSet<Key> = rows
            .iter()
            .filter(|r| r.table == TpccTable::Orders)
            .map(|r| r.key)
            .collect();
        let new_orders: Vec<Key> = rows
            .iter()
            .filter(|r| r.table == TpccTable::NewOrder)
            .map(|r| r.key)
            .collect();
        assert!(!new_orders.is_empty());
        assert!(new_orders.len() < orders.len());
    }

    #[test]
    fn item_rows_spread_over_warehouses() {
        let c = TpccConfig {
            warehouses: 4,
            density: 0.05,
            ..cfg()
        };
        let items = item_rows(&c);
        let whs: HashSet<u32> = items.iter().map(|r| key_warehouse(r.key)).collect();
        assert!(whs.len() > 1, "items should spread: {whs:?}");
    }

    /// FNV-1a over `(table, key, width)` of every row `item_rows` and
    /// `warehouse_rows` (each warehouse) produce, and the row count.
    fn dataset_fingerprint(cfg: &TpccConfig) -> (u64, usize) {
        let mut rows = item_rows(cfg);
        for w in 0..cfg.warehouses {
            rows.extend(warehouse_rows(cfg, w));
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in &rows {
            let table = r.table.table_id().raw().to_le_bytes();
            let (key, width) = (r.key.raw().to_le_bytes(), r.width.to_le_bytes());
            for b in table.iter().chain(&key).chain(&width) {
                h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        (h, rows.len())
    }

    /// The dataset the stand-in bytes were generated with, to the row: the
    /// values they took are still drawn, so the order-line counts — and
    /// everything keyed after them — are what they were.
    #[test]
    fn the_dataset_is_the_one_generated_with_stand_in_bytes() {
        let pins = [
            (11, 0xf34c_a69c_189f_83e5, 31_919),
            (12, 0x3dd7_3b63_5bb4_1422, 31_835),
        ];
        for (seed, hash, rows) in pins {
            let cfg = TpccConfig {
                warehouses: 3,
                density: 0.02,
                seed,
            };
            assert_eq!(dataset_fingerprint(&cfg), (hash, rows), "seed {seed}");
        }
    }
}
