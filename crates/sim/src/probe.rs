//! Windowed utilization probes.
//!
//! WattDB nodes "send their monitoring data every few seconds to the master
//! node" (§3.4); [`UtilizationProbe`] computes the per-window utilization of
//! a resource the same way. Periodic actions such as monitoring reports and
//! power sampling are [`Sim::every`](crate::Sim::every) events.

use wattdb_common::SimTime;

use crate::resource::ResourceHandle;

/// Computes per-window utilization of a [`Resource`] from deltas of its
/// busy-time integral; the default's first sample covers from time zero.
///
/// [`Resource`]: crate::resource::Resource
#[derive(Debug, Default)]
pub struct UtilizationProbe {
    last_integral: u64,
    last_time: SimTime,
}

impl UtilizationProbe {
    /// Utilization (0.0–1.0) of `res` since the previous `sample` call.
    /// An empty window returns 0.
    pub fn sample(&mut self, res: &ResourceHandle, now: SimTime) -> f64 {
        let (integral, slots) = (res.borrow().busy_integral_us(now), res.borrow().slots());
        let d_busy = integral - std::mem::replace(&mut self.last_integral, integral);
        let d_t = now
            .since(std::mem::replace(&mut self.last_time, now))
            .as_micros();
        if d_t == 0 {
            return 0.0;
        }
        (d_busy as f64 / (d_t * slots as u64) as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Completion;
    use crate::kernel::Sim;
    use crate::resource::Resource;
    use std::cell::RefCell;
    use std::rc::Rc;
    use wattdb_common::SimDuration;

    #[test]
    fn utilization_half_busy_window() {
        let mut sim = Sim::new();
        let res = Resource::new("disk", 1);
        Resource::submit(
            &res,
            &mut sim,
            SimDuration::from_micros(500),
            Completion::Detached,
        );
        sim.run_until(SimTime::from_micros(1_000));
        let mut probe = UtilizationProbe::default();
        let u = probe.sample(&res, sim.now());
        assert!((u - 0.5).abs() < 1e-9, "expected 0.5, got {u}");
        // Next window is idle.
        sim.run_until(SimTime::from_micros(2_000));
        assert_eq!(probe.sample(&res, sim.now()), 0.0);
    }

    #[test]
    fn utilization_multi_slot() {
        let mut sim = Sim::new();
        let res = Resource::new("cpu", 2);
        // One of two cores busy the whole window → 50 %.
        Resource::submit(
            &res,
            &mut sim,
            SimDuration::from_micros(1_000),
            Completion::Detached,
        );
        sim.run_until(SimTime::from_micros(1_000));
        let mut probe = UtilizationProbe::default();
        assert!((probe.sample(&res, sim.now()) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_width_window_is_zero() {
        let sim = Sim::new();
        let res = Resource::new("cpu", 1);
        let mut probe = UtilizationProbe::default();
        assert_eq!(probe.sample(&res, sim.now()), 0.0);
        assert_eq!(probe.sample(&res, sim.now()), 0.0);
    }

    #[test]
    fn repeater_fires_until_stopped() {
        let mut sim = Sim::new();
        let hits: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
        let h = hits.clone();
        sim.every(SimDuration::from_secs(1), move |sim| {
            h.borrow_mut().push(sim.now());
            h.borrow().len() < 3
        });
        sim.run_to_completion();
        assert_eq!(
            *hits.borrow(),
            vec![
                SimTime::from_secs(1),
                SimTime::from_secs(2),
                SimTime::from_secs(3)
            ]
        );
    }
}
