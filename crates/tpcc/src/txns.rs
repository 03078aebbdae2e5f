//! The five TPC-C transactions as record-operation profiles.
//!
//! §5.1: "we modified all queries to exclude (emulated) user interaction
//! and to execute in a single run on the database" — each transaction is a
//! straight-line list of keyed record operations (reads, updates, inserts,
//! deletes) that the cluster executor runs under the configured
//! concurrency control. Key selection follows the spec's randomness (NURand
//! for customers/items, uniform districts), scaled to the generated
//! cardinalities.

use wattdb_common::{DetRng, Key};

use crate::gen::TpccConfig;
use crate::schema::{keys, TpccTable};

/// What an operation does to its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Point read.
    Read,
    /// Read-modify-write.
    Update,
    /// Insert a new row.
    Insert,
    /// Delete an existing row.
    Delete,
}

/// One record operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Target table.
    pub table: TpccTable,
    /// Target key.
    pub key: Key,
    /// Access kind.
    pub kind: OpKind,
}

/// The five transaction profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnProfile {
    /// ~45 %: order entry (mid-weight read/write).
    NewOrder,
    /// ~43 %: payment (light read/write).
    Payment,
    /// ~4 %: order status (read-only).
    OrderStatus,
    /// ~4 %: delivery (heavy write batch).
    Delivery,
    /// ~4 %: stock level (read-only scan-ish).
    StockLevel,
}

impl TxnProfile {
    /// The standard mix weights (per mille-free integer weights).
    pub const MIX: [(TxnProfile, u32); 5] = [
        (TxnProfile::NewOrder, 45),
        (TxnProfile::Payment, 43),
        (TxnProfile::OrderStatus, 4),
        (TxnProfile::Delivery, 4),
        (TxnProfile::StockLevel, 4),
    ];

    /// Draw a profile according to the standard mix.
    pub fn draw(rng: &mut DetRng) -> TxnProfile {
        Self::MIX[rng.weighted(&Self::MIX.map(|(_, w)| w))].0
    }

    /// Most operations one transaction of this profile generates.
    pub fn max_ops(self) -> usize {
        match self {
            TxnProfile::NewOrder => 5 + 3 * 15,
            TxnProfile::Payment => 4,
            TxnProfile::OrderStatus => 2 + 15,
            TxnProfile::Delivery => 3 * 10,
            TxnProfile::StockLevel => 1 + 2 * 20,
        }
    }

    /// True if the profile never writes.
    pub fn read_only(self) -> bool {
        matches!(self, TxnProfile::OrderStatus | TxnProfile::StockLevel)
    }
}

/// Stateful transaction generator: tracks order-id high-water marks per
/// (warehouse, district) so inserts never collide and Delivery consumes
/// the oldest undelivered orders.
#[derive(Debug)]
pub struct TpccWorkload {
    cfg: TpccConfig,
    /// next order id per (w, d).
    next_o_id: Vec<u64>,
    /// oldest undelivered order per (w, d).
    delivery_cursor: Vec<u64>,
    /// next history sequence per (w, d).
    next_h_seq: Vec<u64>,
}

impl TpccWorkload {
    /// A workload over the generated dataset shape.
    pub fn new(cfg: TpccConfig) -> Self {
        let slots = (cfg.warehouses as usize) * 10;
        let orders = cfg.orders_per_district();
        let new_order_floor = orders - (orders * 3 / 10).max(1).min(orders);
        Self {
            cfg,
            next_o_id: vec![orders; slots],
            delivery_cursor: vec![new_order_floor; slots],
            next_h_seq: vec![cfg.customers_per_district(); slots],
        }
    }

    /// The dataset configuration in force.
    pub fn config(&self) -> &TpccConfig {
        &self.cfg
    }

    fn slot(&self, w: u32, d: u32) -> usize {
        (w as usize) * 10 + d as usize
    }

    fn rand_customer(&self, rng: &mut DetRng, w: u32, d: u32) -> Key {
        let n = self.cfg.customers_per_district();
        let c = rng.nurand(1023, 0, n - 1, 259);
        keys::customer(w, d, c as u32)
    }

    fn rand_item(&self, rng: &mut DetRng) -> Key {
        let n = self.cfg.item_rows();
        let i = rng.nurand(8191, 0, n - 1, 7911);
        keys::item(i, self.cfg.warehouses)
    }

    /// Generate the op list for one transaction homed at warehouse `w`.
    pub fn generate(&mut self, profile: TxnProfile, w: u32, rng: &mut DetRng) -> Vec<Op> {
        let mut ops = Vec::new();
        self.generate_into(profile, w, rng, &mut ops);
        ops
    }

    /// [`TpccWorkload::generate`] into a caller-owned (recycled) list,
    /// which is cleared first and sized once for the profile.
    pub fn generate_into(
        &mut self,
        profile: TxnProfile,
        w: u32,
        rng: &mut DetRng,
        ops: &mut Vec<Op>,
    ) {
        ops.clear();
        ops.reserve(profile.max_ops());
        let d = rng.uniform(0, 9) as u32;
        match profile {
            TxnProfile::NewOrder => self.new_order(w, d, rng, ops),
            TxnProfile::Payment => self.payment(w, d, rng, ops),
            TxnProfile::OrderStatus => self.order_status(w, d, rng, ops),
            TxnProfile::Delivery => self.delivery(w, rng, ops),
            TxnProfile::StockLevel => self.stock_level(w, d, rng, ops),
        }
    }

    fn new_order(&mut self, w: u32, d: u32, rng: &mut DetRng, ops: &mut Vec<Op>) {
        ops.extend([
            Op {
                table: TpccTable::Warehouse,
                key: keys::warehouse(w),
                kind: OpKind::Read,
            },
            Op {
                table: TpccTable::District,
                key: keys::district(w, d),
                kind: OpKind::Update, // D_NEXT_O_ID bump
            },
            Op {
                table: TpccTable::Customer,
                key: self.rand_customer(rng, w, d),
                kind: OpKind::Read,
            },
        ]);
        let slot = self.slot(w, d);
        let o_id = self.next_o_id[slot];
        self.next_o_id[slot] += 1;
        ops.push(Op {
            table: TpccTable::Orders,
            key: keys::order(w, d, o_id),
            kind: OpKind::Insert,
        });
        ops.push(Op {
            table: TpccTable::NewOrder,
            key: keys::new_order(w, d, o_id),
            kind: OpKind::Insert,
        });
        let lines = rng.uniform(5, 15) as u32;
        for l in 0..lines {
            let item = self.rand_item(rng);
            // 1 % of lines hit a remote warehouse's stock (spec §2.4.1.5).
            let stock_w = if self.cfg.warehouses > 1 && rng.chance(0.01) {
                let mut ow = rng.uniform(0, self.cfg.warehouses as u64 - 1) as u32;
                if ow == w {
                    ow = (ow + 1) % self.cfg.warehouses;
                }
                ow
            } else {
                w
            };
            let stock_i = rng.uniform(0, self.cfg.stock_per_warehouse() - 1);
            ops.push(Op {
                table: TpccTable::Item,
                key: item,
                kind: OpKind::Read,
            });
            ops.push(Op {
                table: TpccTable::Stock,
                key: keys::stock(stock_w, stock_i),
                kind: OpKind::Update,
            });
            ops.push(Op {
                table: TpccTable::OrderLine,
                key: keys::order_line(w, d, o_id, l),
                kind: OpKind::Insert,
            });
        }
    }

    fn payment(&mut self, w: u32, d: u32, rng: &mut DetRng, ops: &mut Vec<Op>) {
        let slot = self.slot(w, d);
        let h_seq = self.next_h_seq[slot];
        self.next_h_seq[slot] += 1;
        ops.extend([
            Op {
                table: TpccTable::Warehouse,
                key: keys::warehouse(w),
                kind: OpKind::Update, // W_YTD
            },
            Op {
                table: TpccTable::District,
                key: keys::district(w, d),
                kind: OpKind::Update, // D_YTD
            },
            Op {
                table: TpccTable::Customer,
                key: self.rand_customer(rng, w, d),
                kind: OpKind::Update, // C_BALANCE
            },
            Op {
                table: TpccTable::History,
                key: keys::history(w, d, h_seq),
                kind: OpKind::Insert,
            },
        ]);
    }

    fn order_status(&mut self, w: u32, d: u32, rng: &mut DetRng, ops: &mut Vec<Op>) {
        let orders = self.next_o_id[self.slot(w, d)];
        let o = rng.uniform(0, orders.saturating_sub(1));
        ops.extend([
            Op {
                table: TpccTable::Customer,
                key: self.rand_customer(rng, w, d),
                kind: OpKind::Read,
            },
            Op {
                table: TpccTable::Orders,
                key: keys::order(w, d, o),
                kind: OpKind::Read,
            },
        ]);
        for l in 0..rng.uniform(5, 15) as u32 {
            ops.push(Op {
                table: TpccTable::OrderLine,
                key: keys::order_line(w, d, o, l),
                kind: OpKind::Read,
            });
        }
    }

    fn delivery(&mut self, w: u32, rng: &mut DetRng, ops: &mut Vec<Op>) {
        for d in 0..10u32 {
            let slot = self.slot(w, d);
            if self.delivery_cursor[slot] >= self.next_o_id[slot] {
                continue; // district drained
            }
            let o = self.delivery_cursor[slot];
            self.delivery_cursor[slot] += 1;
            ops.push(Op {
                table: TpccTable::NewOrder,
                key: keys::new_order(w, d, o),
                kind: OpKind::Delete,
            });
            ops.push(Op {
                table: TpccTable::Orders,
                key: keys::order(w, d, o),
                kind: OpKind::Update, // O_CARRIER_ID
            });
            ops.push(Op {
                table: TpccTable::Customer,
                key: self.rand_customer(rng, w, d),
                kind: OpKind::Update, // C_BALANCE += sum(OL_AMOUNT)
            });
        }
    }

    fn stock_level(&mut self, w: u32, d: u32, rng: &mut DetRng, ops: &mut Vec<Op>) {
        ops.push(Op {
            table: TpccTable::District,
            key: keys::district(w, d),
            kind: OpKind::Read,
        });
        let orders = self.next_o_id[self.slot(w, d)];
        // Inspect order lines of the last 20 orders and their stock.
        for back in 0..20u64 {
            let Some(o) = orders.checked_sub(back + 1) else {
                break;
            };
            ops.push(Op {
                table: TpccTable::OrderLine,
                key: keys::order_line(w, d, o, 0),
                kind: OpKind::Read,
            });
            let i = rng.uniform(0, self.cfg.stock_per_warehouse() - 1);
            ops.push(Op {
                table: TpccTable::Stock,
                key: keys::stock(w, i),
                kind: OpKind::Read,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::key_warehouse;

    fn setup() -> (TpccWorkload, DetRng) {
        let cfg = TpccConfig {
            warehouses: 4,
            density: 0.02,
            payload_bytes: 8,
            seed: 3,
        };
        (TpccWorkload::new(cfg), DetRng::new(99))
    }

    #[test]
    fn new_order_shape() {
        let (mut w, mut rng) = setup();
        let ops = w.generate(TxnProfile::NewOrder, 1, &mut rng);
        // 3 header ops + 2 inserts + 3 per line (5–15 lines).
        assert!(ops.len() >= 3 + 2 + 3 * 5);
        assert!(ops.len() <= 3 + 2 + 3 * 15);
        let inserts = ops.iter().filter(|o| o.kind == OpKind::Insert).count();
        assert!(inserts >= 7, "orders + new-order + lines");
        // Order ids advance within a district.
        let oid = |ops: &[Op]| {
            ops.iter()
                .find(|o| o.table == TpccTable::Orders)
                .unwrap()
                .key
        };
        let first = oid(&ops);
        loop {
            let ops2 = w.generate(TxnProfile::NewOrder, 1, &mut rng);
            let second = oid(&ops2);
            if crate::schema::key_district(second) == crate::schema::key_district(first) {
                assert!(second > first);
                break;
            }
        }
    }

    #[test]
    fn payment_is_light() {
        let (mut w, mut rng) = setup();
        let ops = w.generate(TxnProfile::Payment, 0, &mut rng);
        assert_eq!(ops.len(), 4);
        assert_eq!(ops.iter().filter(|o| o.kind == OpKind::Update).count(), 3);
        // Distinct history keys on successive payments.
        let h1 = ops.last().unwrap().key;
        loop {
            let ops2 = w.generate(TxnProfile::Payment, 0, &mut rng);
            if crate::schema::key_district(ops2[1].key) == crate::schema::key_district(ops[1].key) {
                assert_ne!(ops2.last().unwrap().key, h1);
                break;
            }
        }
    }

    #[test]
    fn read_only_profiles_never_write() {
        let (mut w, mut rng) = setup();
        for p in [TxnProfile::OrderStatus, TxnProfile::StockLevel] {
            for _ in 0..20 {
                let ops = w.generate(p, 2, &mut rng);
                assert!(
                    ops.iter().all(|o| o.kind == OpKind::Read),
                    "{p:?} must be read-only"
                );
            }
            assert!(p.read_only());
        }
    }

    #[test]
    fn delivery_consumes_new_orders_in_order() {
        let (mut w, mut rng) = setup();
        let ops1 = w.generate(TxnProfile::Delivery, 0, &mut rng);
        let ops2 = w.generate(TxnProfile::Delivery, 0, &mut rng);
        let del1: Vec<Key> = ops1
            .iter()
            .filter(|o| o.kind == OpKind::Delete)
            .map(|o| o.key)
            .collect();
        let del2: Vec<Key> = ops2
            .iter()
            .filter(|o| o.kind == OpKind::Delete)
            .map(|o| o.key)
            .collect();
        assert_eq!(del1.len(), 10, "one per district");
        // Strictly later order per district.
        for (a, b) in del1.iter().zip(&del2) {
            assert!(b > a);
        }
    }

    #[test]
    fn home_warehouse_dominates() {
        let (mut w, mut rng) = setup();
        let mut home = 0usize;
        let mut total = 0usize;
        for _ in 0..50 {
            for op in w.generate(TxnProfile::NewOrder, 2, &mut rng) {
                if op.table == TpccTable::Stock {
                    total += 1;
                    home += usize::from(key_warehouse(op.key) == 2);
                }
            }
        }
        assert!(
            home as f64 / total as f64 > 0.95,
            "~99 % of stock ops at the home warehouse ({home}/{total})"
        );
    }

    #[test]
    fn mix_draw_roughly_matches_weights() {
        let mut rng = DetRng::new(5);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..10_000 {
            *counts.entry(TxnProfile::draw(&mut rng)).or_insert(0u32) += 1;
        }
        let no = counts[&TxnProfile::NewOrder] as f64 / 10_000.0;
        let pay = counts[&TxnProfile::Payment] as f64 / 10_000.0;
        assert!((no - 0.45).abs() < 0.03, "{no}");
        assert!((pay - 0.43).abs() < 0.03, "{pay}");
        assert_eq!(counts.len(), 5, "all profiles drawn");
    }
}
