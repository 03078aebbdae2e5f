//! Aggregated client arrival process — N modeled clients, one repeater.
//!
//! §5.1's closed-loop client model spawns one think-timer event per
//! client per transaction; at 10⁵–10⁶ clients the per-client timers *are*
//! the workload. [`ClientPool`] batches them: the modeled population is
//! folded onto a bounded set of **carrier** clients (each representing
//! [`ClientPool::weight`] modeled clients), and a single periodic tick
//! drives a deterministic batched arrival process.
//!
//! Per tick of width `dt`, each thinking carrier independently finishes
//! its think (mean `T`) with probability `p = dt/T` — so the pool's
//! arrival counts are Binomial(thinking, p) draws and per-carrier think
//! times are geometric with mean exactly `T`, the rate-preserving
//! discretization of N independent exponential think timers.
//! Completed carriers re-enter the thinking set and the loop closes,
//! preserving the closed-loop property (throughput limited client-side).
//!
//! What stays statistically identical to per-client mode:
//!
//! * the transaction mix — carriers draw profiles from the same per-client
//!   derived RNG streams;
//! * the per-warehouse skew — carriers are homed by the same round-robin /
//!   hot-fraction rules over the same warehouse count;
//! * the offered load — `carriers / weight × (T + R)` reproduces the
//!   modeled population's throughput, with each executed carrier
//!   transaction charged `weight`× into metrics, heat, and resource
//!   occupancy.
//!
//! What is approximated: think times are quantized to the tick width
//! (`dt = T/4`, so the quantization error is well inside the exponential
//! distribution's own spread), and response-time percentiles sample one
//! carrier execution per `weight` modeled transactions.

use wattdb_common::{DetRng, SimDuration};

/// How `spawn_clients`/`spawn_clients_skewed` decide between per-client
/// think timers and the pooled arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClientBatching {
    /// Pooled above [`POOL_AUTO_THRESHOLD`] modeled clients, per-client
    /// below it.
    #[default]
    Auto,
    /// Always one think timer per client (the legacy behaviour).
    PerClient,
    /// Always the pooled arrival process, whatever the population.
    Pooled,
}

/// Modeled-client count above which [`ClientBatching::Auto`] switches to
/// the pooled arrival process.
pub const POOL_AUTO_THRESHOLD: u32 = 4_096;

/// Carrier-population cap: a pooled spawn never materializes more than
/// this many carrier clients; the remainder is folded into per-carrier
/// weight.
pub const MAX_CARRIERS: u32 = 2_048;

impl ClientBatching {
    /// Does a population of `n` modeled clients run pooled under this
    /// setting?
    pub fn pooled(self, n: u32) -> bool {
        match self {
            ClientBatching::Auto => n > POOL_AUTO_THRESHOLD,
            ClientBatching::PerClient => false,
            ClientBatching::Pooled => true,
        }
    }
}

/// Carrier count and per-carrier weight for a pooled population of `n`
/// modeled clients: `weight = ceil(n / MAX_CARRIERS)` and
/// `carriers = ceil(n / weight)`, so `carriers × weight ≥ n` with at
/// most one carrier of slack and weight 1 whenever the population fits.
pub fn carrier_split(n: u32) -> (u32, u64) {
    let weight = (n as u64).div_ceil(MAX_CARRIERS as u64).max(1);
    let carriers = ((n as u64).div_ceil(weight) as u32).max(1);
    (carriers, weight)
}

/// One contiguous run of carriers sharing a weight — a tenant, in
/// trace-driven runs. `active` of the group's `len` carriers
/// participate in the arrival process; the rest idle (a parked carrier
/// costs one skipped slot per tick, no RNG draws, no events).
#[derive(Debug, Clone, Copy)]
struct CarrierGroup {
    /// First carrier index of the group.
    start: u32,
    /// Carriers materialized for the group (its capacity / weight).
    len: u32,
    /// Modeled clients per carrier.
    weight: u64,
    /// Carriers currently enabled (`≤ len`).
    active: u32,
    /// Modeled-client target the activation approximates.
    target: u64,
}

/// The aggregated arrival process over a set of carrier clients.
///
/// The pool owns only the arrival state — which carriers are thinking,
/// the tick width, the Bernoulli parameter — while the carriers
/// themselves stay ordinary [`crate::Client`]s in the cluster's client
/// vector, so the whole executor path (profiles, key RNG streams,
/// backoff) is unchanged.
///
/// Carriers are partitioned into contiguous **groups** (one per tenant;
/// classic spawns have exactly one). Each group activates
/// `ceil(target / weight)` of its carriers, so a [`crate::LoadTrace`]
/// resizes the offered load in O(groups) per breakpoint. With every
/// carrier active the arrival RNG stream is byte-identical to the
/// pre-group pool — disabled carriers are skipped *without* consuming
/// a draw.
#[derive(Debug)]
pub struct ClientPool {
    /// Carrier groups, in ascending `start` order.
    groups: Vec<CarrierGroup>,
    /// Arrival tick width.
    tick: SimDuration,
    /// Per-tick completion probability of one thinking carrier.
    p: f64,
    /// Carriers currently in their think phase (unordered).
    thinking: Vec<u32>,
    rng: DetRng,
}

/// Tick width and Bernoulli parameter for a mean think time.
///
/// A quarter of the mean think time keeps the discretization error far
/// inside the exponential's own spread while bounding the tick rate;
/// the floor keeps degenerate configs sane. `p = dt/T`, with each
/// arrival jittered uniformly inside its tick (see
/// [`ClientPool::arrivals`]): a carrier parks mid-tick (dt/2 to its
/// first trial on average), waits (1/p − 1)·dt of geometric trials, and
/// fires dt/2 of jitter into the winning tick — summing to exactly T.
/// The jitter also breaks up the tick-boundary thundering herd that
/// synchronized arrivals would inflict on the lock manager and the
/// resource queues.
fn tick_and_p(think_mean: SimDuration) -> (SimDuration, f64) {
    let tick_us = (think_mean.as_micros() / 4).max(1_000);
    let p = (tick_us as f64 / think_mean.as_micros().max(1) as f64).min(1.0);
    (SimDuration::from_micros(tick_us), p)
}

impl ClientPool {
    /// A single-group pool over `carriers` carrier clients, each
    /// representing `weight` modeled clients of a `modeled`-strong
    /// population with the given mean think time. All carriers start
    /// thinking and active.
    pub fn new(
        carriers: u32,
        weight: u64,
        modeled: u64,
        think_mean: SimDuration,
        rng: DetRng,
    ) -> Self {
        let (tick, p) = tick_and_p(think_mean);
        Self {
            groups: vec![CarrierGroup {
                start: 0,
                len: carriers,
                weight,
                active: carriers,
                target: modeled,
            }],
            tick,
            p,
            thinking: (0..carriers).collect(),
            rng,
        }
    }

    /// A multi-group pool: one `(carriers, weight)` group per tenant,
    /// laid out contiguously in argument order. Every carrier starts
    /// thinking and active at full capacity; drive per-group load with
    /// [`ClientPool::set_target`].
    pub fn new_grouped(specs: &[(u32, u64)], think_mean: SimDuration, rng: DetRng) -> Self {
        assert!(!specs.is_empty(), "a pool needs at least one group");
        let (tick, p) = tick_and_p(think_mean);
        let mut groups = Vec::with_capacity(specs.len());
        let mut start = 0u32;
        for &(carriers, weight) in specs {
            let carriers = carriers.max(1);
            let weight = weight.max(1);
            groups.push(CarrierGroup {
                start,
                len: carriers,
                weight,
                active: carriers,
                target: carriers as u64 * weight,
            });
            start += carriers;
        }
        Self {
            groups,
            tick,
            p,
            thinking: (0..start).collect(),
            rng,
        }
    }

    /// Retarget group `group` at `target` modeled clients: activates
    /// `ceil(target / weight)` of its carriers (clamped to the group's
    /// capacity), so the activation granularity is one carrier weight.
    /// A carrier mid-transaction when deactivated finishes it and then
    /// idles; re-activation picks idle carriers back up on the next tick.
    pub fn set_target(&mut self, group: usize, target: u64) {
        let g = &mut self.groups[group];
        let capacity = g.len as u64 * g.weight;
        g.target = target.min(capacity);
        g.active = g.target.div_ceil(g.weight).min(g.len as u64) as u32;
    }

    /// Modeled clients per carrier of the **first** group — the
    /// single-group multiplier. Multi-group pools must use
    /// [`ClientPool::weight_of`] per carrier.
    pub fn weight(&self) -> u64 {
        self.groups[0].weight
    }

    /// Modeled clients the given carrier stands in for.
    pub fn weight_of(&self, carrier: u32) -> u64 {
        self.group_of(carrier).weight
    }

    /// Total modeled population currently targeted across groups.
    pub fn modeled(&self) -> u64 {
        self.groups.iter().map(|g| g.target).sum()
    }

    /// Alias of [`ClientPool::modeled`] under the trace vocabulary: the
    /// sum of per-group targets in force right now (exported as the
    /// `workload.target_clients` gauge).
    pub fn current_target(&self) -> u64 {
        self.modeled()
    }

    fn group_of(&self, carrier: u32) -> &CarrierGroup {
        let i = self
            .groups
            .partition_point(|g| g.start <= carrier)
            .saturating_sub(1);
        &self.groups[i]
    }

    /// Is the carrier currently participating in the arrival process?
    fn enabled(&self, carrier: u32) -> bool {
        let g = self.group_of(carrier);
        carrier - g.start < g.active
    }

    /// Arrival tick width (the single repeater's period).
    pub fn tick(&self) -> SimDuration {
        self.tick
    }

    /// Draw one tick's arrivals: each thinking carrier finishes its
    /// think with probability `p`, independently — a Binomial draw whose
    /// members are removed from the thinking set and returned for
    /// submission, each with a uniform offset inside the upcoming tick.
    /// The offsets spread the batch over the tick (per-client arrivals
    /// are not synchronized, and neither should carrier arrivals be) and
    /// complete the mean-`T` think-time accounting. Order and offsets are
    /// fully determined by the pool's RNG stream.
    pub fn arrivals(&mut self) -> Vec<(u32, SimDuration)> {
        let mut due = Vec::new();
        let mut i = 0;
        while i < self.thinking.len() {
            // Deactivated carriers idle in the thinking set without
            // consuming RNG draws, so a fully-active pool's arrival
            // stream is bit-identical to one that never had groups.
            if !self.enabled(self.thinking[i]) {
                i += 1;
                continue;
            }
            if self.rng.chance(self.p) {
                let carrier = self.thinking.swap_remove(i);
                let jitter = self.rng.uniform(0, self.tick.as_micros().saturating_sub(1));
                due.push((carrier, SimDuration::from_micros(jitter)));
            } else {
                i += 1;
            }
        }
        due
    }

    /// Return a carrier to the thinking set (its transaction finished
    /// or was abandoned).
    pub fn park(&mut self, carrier: u32) {
        debug_assert!(!self.thinking.contains(&carrier), "double park");
        self.thinking.push(carrier);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_mode_switches_at_the_threshold() {
        assert!(!ClientBatching::Auto.pooled(POOL_AUTO_THRESHOLD));
        assert!(ClientBatching::Auto.pooled(POOL_AUTO_THRESHOLD + 1));
        assert!(!ClientBatching::PerClient.pooled(1_000_000));
        assert!(ClientBatching::Pooled.pooled(1));
    }

    #[test]
    fn carrier_split_covers_the_population() {
        for n in [1u32, 10, 2_048, 2_049, 10_000, 100_000, 1_000_000] {
            let (carriers, weight) = carrier_split(n);
            assert!(carriers <= MAX_CARRIERS);
            assert!(carriers as u64 * weight >= n as u64, "n={n}");
            assert!((carriers as u64 - 1) * weight < n as u64, "n={n}");
        }
        assert_eq!(carrier_split(100), (100, 1), "small populations: weight 1");
    }

    #[test]
    fn arrival_rate_matches_the_think_time() {
        let think = SimDuration::from_millis(100);
        let mut pool = ClientPool::new(1_000, 1, 1_000, think, DetRng::new(7));
        // Carriers parked right back each tick: draws per carrier are
        // geometric with success dt/T, so the draw rate is
        // carriers / T ≈ 10_000/s (the in-engine jitter shifts *when* in
        // the tick each fires, not how many fire).
        let ticks_per_sec = 1_000_000 / pool.tick().as_micros();
        let mut total = 0u64;
        let secs = 20;
        for _ in 0..(ticks_per_sec * secs) {
            let due = pool.arrivals();
            total += due.len() as u64;
            for (c, jitter) in due {
                assert!(jitter < pool.tick());
                pool.park(c);
            }
        }
        let per_sec = total as f64 / secs as f64;
        assert!(
            (per_sec - 10_000.0).abs() < 300.0,
            "arrival rate {per_sec}/s, expected ~10000/s"
        );
    }

    #[test]
    fn arrivals_drain_and_parks_refill() {
        let mut pool = ClientPool::new(4, 25, 100, SimDuration::from_millis(1), DetRng::new(3));
        assert_eq!(pool.weight(), 25);
        assert_eq!(pool.thinking.len(), 4);
        let mut out = 0;
        for _ in 0..10_000 {
            out += pool.arrivals().len();
            if pool.thinking.is_empty() {
                break;
            }
        }
        assert_eq!(out, 4, "every carrier eventually arrives");
        assert_eq!(pool.thinking.len(), 0);
        pool.park(2);
        assert_eq!(pool.thinking.len(), 1);
    }

    #[test]
    fn grouped_pool_routes_weights_per_carrier() {
        let mut pool = ClientPool::new_grouped(
            &[(4, 10), (2, 25)],
            SimDuration::from_millis(100),
            DetRng::new(9),
        );
        assert_eq!(pool.groups.len(), 2);
        assert_eq!(pool.weight_of(0), 10);
        assert_eq!(pool.weight_of(3), 10);
        assert_eq!(pool.weight_of(4), 25);
        assert_eq!(pool.weight_of(5), 25);
        let active = |pool: &ClientPool| pool.groups.iter().map(|g| g.active).sum::<u32>();
        assert_eq!(pool.current_target(), 4 * 10 + 2 * 25);
        assert_eq!(active(&pool), 6);
        // Retarget group 0 down: ceil(15/10) = 2 carriers stay active.
        pool.set_target(0, 15);
        assert_eq!(active(&pool), 2 + 2);
        assert_eq!(pool.current_target(), 15 + 50);
        // Targets clamp at group capacity.
        pool.set_target(1, 1_000_000);
        assert_eq!(pool.current_target(), 15 + 50);
        // Zero target disables the group entirely.
        pool.set_target(1, 0);
        assert_eq!(active(&pool), 2);
    }

    #[test]
    fn fully_active_groups_draw_the_same_arrival_stream_as_a_flat_pool() {
        let think = SimDuration::from_millis(50);
        let mut flat = ClientPool::new(8, 1, 8, think, DetRng::new(11));
        let mut grouped = ClientPool::new_grouped(&[(3, 1), (5, 1)], think, DetRng::new(11));
        for _ in 0..200 {
            let a = flat.arrivals();
            let b = grouped.arrivals();
            assert_eq!(a, b, "grouping must not perturb the RNG stream");
            for (c, _) in a {
                flat.park(c);
                grouped.park(c);
            }
        }
    }

    #[test]
    fn resizing_a_group_halves_its_arrival_rate() {
        let think = SimDuration::from_millis(100);
        let mut pool = ClientPool::new_grouped(&[(1_000, 1)], think, DetRng::new(13));
        let ticks_per_sec = 1_000_000 / pool.tick().as_micros();
        let rate = |pool: &mut ClientPool, secs: u64| -> f64 {
            let mut total = 0u64;
            for _ in 0..(ticks_per_sec * secs) {
                let due = pool.arrivals();
                total += due.len() as u64;
                for (c, _) in due {
                    pool.park(c);
                }
            }
            total as f64 / secs as f64
        };
        let full = rate(&mut pool, 20);
        pool.set_target(0, 500);
        let half = rate(&mut pool, 20);
        assert!(
            (full - 10_000.0).abs() < 300.0,
            "full rate {full}/s, expected ~10000/s"
        );
        assert!(
            (half - 5_000.0).abs() < 300.0,
            "half rate {half}/s, expected ~5000/s"
        );
    }
}
