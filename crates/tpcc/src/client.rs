//! OLTP client model.
//!
//! §5.1: "we spawned a number of OLTP clients, sending queries to the DBMS.
//! Each client submits a randomly selected query at specified intervals. If
//! the query is answered, the next query is delayed until the subsequent
//! interval, similar to defined think times in the TPC-C specification.
//! Hence, the more OLTP clients and the lower the think time, the more
//! utilization is generated."
//!
//! This closed-loop design — throughput limited at the client side — is
//! what lets the paper study *fitness to a given workload* instead of peak
//! throughput.

use wattdb_common::{ClientId, DetRng, SimDuration};

use crate::txns::TxnProfile;

/// Mean backoff before an aborted transaction is retried (jittered to
/// 0.5–1.5× per retry).
const RETRY_BACKOFF: SimDuration = SimDuration::from_millis(10);

/// One closed-loop client bound to a home warehouse.
#[derive(Debug)]
pub struct Client {
    /// Client id.
    pub id: ClientId,
    /// Home warehouse (transactions are homed here, per the spec).
    pub home_warehouse: u32,
    /// Mean think time between transactions (exponentially distributed).
    think: SimDuration,
    /// Profile weights of the client's tenant ([`TenantSpec::txn_mix`]).
    mix: [u32; 5],
    rng: DetRng,
    completed: u64,
}

impl Client {
    /// A client with mean think time `think`, drawing its profiles with
    /// the weights `mix`, and its own derived random stream.
    pub fn new(
        id: ClientId,
        home_warehouse: u32,
        think: SimDuration,
        mix: [u32; 5],
        root_rng: &DetRng,
    ) -> Self {
        Self {
            id,
            home_warehouse,
            think,
            mix,
            rng: root_rng.derive(0x10_0000 + id.raw() as u64),
            completed: 0,
        }
    }

    /// Draw the next transaction profile from the tenant's mix.
    pub fn next_profile(&mut self) -> TxnProfile {
        TxnProfile::draw(&mut self.rng, &self.mix)
    }

    /// Exponentially distributed think time before the next submission.
    pub fn think(&mut self) -> SimDuration {
        SimDuration::from_micros(self.rng.exp_micros(self.think.as_micros() as f64))
    }

    /// Backoff before retrying an aborted transaction.
    pub fn backoff(&mut self) -> SimDuration {
        // Jittered: 0.5–1.5× the mean backoff.
        let base = RETRY_BACKOFF.as_micros();
        SimDuration::from_micros(self.rng.uniform(base / 2, base * 3 / 2))
    }

    /// Record `n` completions at once: a pooled carrier's one executed
    /// transaction completes on behalf of `weight` modeled clients.
    pub fn complete_n(&mut self, n: u64) {
        self.completed += n;
    }

    /// Client's private random stream (for key selection).
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// Transactions completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

/// One tenant of the client population: its transaction mix and its
/// homing rule — what fraction of its clients concentrate on which hot
/// warehouses.
#[derive(Debug, Clone, Copy)]
pub struct TenantSpec {
    /// Profile weights in [`TxnProfile::MIX`] order; a client draws each
    /// transaction's profile with these weights.
    pub txn_mix: [u32; 5],
    /// Fraction of the tenant's clients homed on the hot range.
    pub hot_fraction: f64,
    /// First warehouse of the tenant's hot range.
    pub hot_first: u32,
    /// Width of the hot range in warehouses (≥ 1).
    pub hot_warehouses: u32,
}

impl Default for TenantSpec {
    /// The standard mix (45/43/4/4/4), no skew: clients spread
    /// round-robin over every warehouse.
    fn default() -> Self {
        Self {
            txn_mix: TxnProfile::MIX.map(|(_, w)| w),
            hot_fraction: 0.0,
            hot_first: 0,
            hot_warehouses: 1,
        }
    }
}

impl TenantSpec {
    /// Home warehouses of the tenant's `n` clients over `warehouses`: the
    /// first `n × hot_fraction` round-robin inside the hot range (from
    /// `hot_first`, `hot_warehouses` wide, wrapping past the last
    /// warehouse), the rest round-robin over all of them. With e.g.
    /// `hot_fraction = 0.8, hot_warehouses = 1`, 80 % of the load hammers
    /// one warehouse's key range — the workload shape that separates
    /// heat-aware from fraction-based rebalance planning.
    pub fn homes(&self, n: u32, warehouses: u32) -> impl Iterator<Item = u32> {
        let w = warehouses.max(1);
        let hot_w = self.hot_warehouses.clamp(1, w);
        let hot_n = (n as f64 * self.hot_fraction.clamp(0.0, 1.0)).round() as u32;
        let first = self.hot_first;
        (0..n).map(move |j| {
            if j < hot_n {
                (first + j % hot_w) % w
            } else {
                j % w
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A standard-mix client homed on warehouse 0.
    fn client(id: u32, think: SimDuration, root: &DetRng) -> Client {
        Client::new(ClientId(id), 0, think, TenantSpec::default().txn_mix, root)
    }

    #[test]
    fn clients_have_decorrelated_streams() {
        let root = DetRng::new(1);
        let think = SimDuration::from_millis(100);
        let mut a = client(0, think, &root);
        let mut b = client(1, think, &root);
        let sa: Vec<u64> = (0..8).map(|_| a.think().as_micros()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.think().as_micros()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn think_time_mean_tracks_config() {
        let root = DetRng::new(2);
        let mut c = client(0, SimDuration::from_millis(50), &root);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| c.think().as_micros()).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 50_000.0).abs() < 2_000.0, "{mean}");
    }

    #[test]
    fn round_robin_homes() {
        let homes: Vec<u32> = TenantSpec::default().homes(7, 3).collect();
        assert_eq!(homes, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn skewed_homes_concentrate_on_the_hot_range() {
        let tenant = TenantSpec {
            hot_fraction: 0.8,
            ..TenantSpec::default()
        };
        let homes: Vec<u32> = tenant.homes(10, 4).collect();
        let hot = homes.iter().filter(|&&h| h == 0).count();
        assert!(
            hot >= 8,
            "at least 80% of clients home on warehouse 0: {hot}"
        );
        // The tail still spreads over all warehouses.
        assert!(homes.iter().any(|&h| h != 0));
    }

    #[test]
    fn a_hot_range_starts_at_hot_first_and_wraps() {
        let tenant = TenantSpec {
            hot_fraction: 0.5,
            hot_first: 3,
            hot_warehouses: 2,
            ..TenantSpec::default()
        };
        let homes: Vec<u32> = tenant.homes(6, 4).collect();
        assert_eq!(homes, vec![3, 0, 3, 3, 0, 1]);
    }

    #[test]
    fn counters() {
        let root = DetRng::new(4);
        let mut c = client(0, SimDuration::from_millis(100), &root);
        c.next_profile();
        c.complete_n(1);
        c.backoff();
        assert_eq!(c.completed(), 1);
    }

    #[test]
    fn backoff_jitter_bounded() {
        let root = DetRng::new(5);
        let mut c = client(0, SimDuration::from_millis(100), &root);
        for _ in 0..100 {
            let b = c.backoff().as_micros();
            assert!((5_000..=15_000).contains(&b), "{b}");
        }
    }
}
