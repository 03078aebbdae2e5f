//! TPC-C workload for WattDB-RS (§5.1 of the paper).
//!
//! The paper drives its evaluation with the TPC-C dataset at scale factor
//! 1000 and a client-limited ("think time") adaptation of the TPC-C
//! transaction mix. This crate provides the schema with warehouse-major
//! 64-bit keys, a density-scalable deterministic generator, the five
//! transactions as record-operation profiles, and the closed-loop client
//! model.

pub mod client;
pub mod gen;
pub mod pool;
pub mod schema;
pub mod trace;
pub mod txns;

pub use client::{Client, TenantSpec};
pub use gen::{item_rows, warehouse_rows, GenRow, TpccConfig};
pub use pool::{
    carrier_split, carrier_split_within, ClientBatching, ClientPool, MAX_CARRIERS,
    POOL_AUTO_THRESHOLD,
};
pub use schema::{
    key_district, key_entity, key_warehouse, keys, warehouse_range, wkey, TpccTable, ITEM_ROWS,
};
pub use trace::{
    diurnal_target, flash_shape, DiurnalConfig, FlashCrowdConfig, LoadTrace, TenantLoad, TracePoint,
};
pub use txns::{Op, OpKind, TpccWorkload, TxnProfile};
