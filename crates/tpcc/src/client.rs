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
    rng: DetRng,
    submitted: u64,
    completed: u64,
    retried: u64,
}

impl Client {
    /// A client with mean think time `think` and its own derived random
    /// stream.
    pub fn new(id: ClientId, home_warehouse: u32, think: SimDuration, root_rng: &DetRng) -> Self {
        Self {
            id,
            home_warehouse,
            think,
            rng: root_rng.derive(0x10_0000 + id.raw() as u64),
            submitted: 0,
            completed: 0,
            retried: 0,
        }
    }

    /// Draw the next transaction profile from the standard mix.
    pub fn next_profile(&mut self) -> TxnProfile {
        self.submitted += 1;
        TxnProfile::draw(&mut self.rng)
    }

    /// Exponentially distributed think time before the next submission.
    pub fn think(&mut self) -> SimDuration {
        SimDuration::from_micros(self.rng.exp_micros(self.think.as_micros() as f64))
    }

    /// Backoff before retrying an aborted transaction.
    pub fn backoff(&mut self) -> SimDuration {
        self.retried += 1;
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

    /// Transactions submitted.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Transactions completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Retries performed.
    pub fn retried(&self) -> u64 {
        self.retried
    }
}

/// Spawn `n` clients spread round-robin over `warehouses` home
/// warehouses: [`spawn_clients_skewed`] with no hot range.
pub fn spawn_clients(
    n: u32,
    warehouses: u32,
    think: SimDuration,
    root_rng: &DetRng,
) -> Vec<Client> {
    spawn_clients_skewed(n, warehouses, think, root_rng, 0.0, 1)
}

/// Spawn `n` clients with a hot-range skew: the first
/// `n × hot_fraction` clients are homed round-robin inside the first
/// `hot_warehouses` warehouses, the rest round-robin over all of them.
/// With e.g. `hot_fraction = 0.8, hot_warehouses = 1`, 80 % of the load
/// hammers warehouse 0's key range — the workload shape that separates
/// heat-aware from fraction-based rebalance planning.
pub fn spawn_clients_skewed(
    n: u32,
    warehouses: u32,
    think: SimDuration,
    root_rng: &DetRng,
    hot_fraction: f64,
    hot_warehouses: u32,
) -> Vec<Client> {
    let w = warehouses.max(1);
    let hot_w = hot_warehouses.clamp(1, w);
    let hot_n = (n as f64 * hot_fraction.clamp(0.0, 1.0)).round() as u32;
    (0..n)
        .map(|i| {
            let home = if i < hot_n { i % hot_w } else { i % w };
            Client::new(ClientId(i), home, think, root_rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clients_have_decorrelated_streams() {
        let root = DetRng::new(1);
        let think = SimDuration::from_millis(100);
        let mut a = Client::new(ClientId(0), 0, think, &root);
        let mut b = Client::new(ClientId(1), 0, think, &root);
        let sa: Vec<u64> = (0..8).map(|_| a.think().as_micros()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.think().as_micros()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn think_time_mean_tracks_config() {
        let root = DetRng::new(2);
        let mut c = Client::new(ClientId(0), 0, SimDuration::from_millis(50), &root);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| c.think().as_micros()).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 50_000.0).abs() < 2_000.0, "{mean}");
    }

    #[test]
    fn round_robin_homes() {
        let root = DetRng::new(3);
        let clients = spawn_clients(7, 3, SimDuration::from_millis(100), &root);
        let homes: Vec<u32> = clients.iter().map(|c| c.home_warehouse).collect();
        assert_eq!(homes, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn skewed_homes_concentrate_on_the_hot_range() {
        let root = DetRng::new(6);
        let clients = spawn_clients_skewed(10, 4, SimDuration::from_millis(100), &root, 0.8, 1);
        let hot = clients.iter().filter(|c| c.home_warehouse == 0).count();
        assert!(
            hot >= 8,
            "at least 80% of clients home on warehouse 0: {hot}"
        );
        // The tail still spreads over all warehouses.
        assert!(clients.iter().any(|c| c.home_warehouse != 0));
    }

    #[test]
    fn counters() {
        let root = DetRng::new(4);
        let mut c = Client::new(ClientId(0), 0, SimDuration::from_millis(100), &root);
        c.next_profile();
        c.complete_n(1);
        c.backoff();
        assert_eq!(c.submitted(), 1);
        assert_eq!(c.completed(), 1);
        assert_eq!(c.retried(), 1);
    }

    #[test]
    fn backoff_jitter_bounded() {
        let root = DetRng::new(5);
        let mut c = Client::new(ClientId(0), 0, SimDuration::from_millis(100), &root);
        for _ in 0..100 {
            let b = c.backoff().as_micros();
            assert!((5_000..=15_000).contains(&b), "{b}");
        }
    }
}
