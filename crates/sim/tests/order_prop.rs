//! Kernel order property: typed events and reserved keys fire in the order
//! closures did.
//!
//! A random program — data events, closure events, repeaters, resource
//! requests, message pairs and utilisation probes, at equal and distinct
//! times, each firing spawning more of the same — runs on the real kernel
//! and on a reference model: a sorted `Vec` of boxed closures plus the old
//! closure-only resource, which files every completion as an event and
//! keeps its busy integral eagerly, and an `Rc`-counted two-arm join. The
//! test also acts from outside any event: before the first one, after
//! `run_until` returns and between `step()` calls (stepping until the next
//! firing, a point both kernels share). Both must log the same `(time,
//! tag)` sequence and the same busy-integral readings, and end with the
//! same stats on every resource: the typed core consumes `seq` exactly
//! where the closure core did, and a detached request on a reserved key
//! does exactly what its event would have.
//!
//! Mutation checks (done by hand on a copy of the code; each fails this test):
//! running the finished request's completion *before* re-arming the
//! resource's queue in `Resource::served`; settling a reserved key with `≤`
//! instead of `<` against the kernel's position; not materialising the
//! reserved requests when a request queues; deferring a re-armed detached
//! request that still has a queue behind it; letting the free arm of a
//! message pair close the join.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use wattdb_common::{DetRng, SimDuration, SimTime};
use wattdb_sim::{Completion, Resource, ResourceHandle, Signal, Sim};

/// How a resource request or a join says it is done.
#[derive(Debug, Clone, Copy)]
enum Style {
    Data,
    Closure,
    Detached,
}

#[derive(Debug, Clone, Copy)]
enum Action {
    /// Fire `tag` after `delay`, as a data event or as a closure.
    Timer { delay: u64, tag: u32, data: bool },
    /// Fire `tag` every `period`, `times` times.
    Repeat { period: u64, tag: u32, times: u32 },
    /// Occupy resource `res` for `service`, then fire `tag` in `style`.
    Submit {
        res: usize,
        service: u64,
        tag: u32,
        style: Style,
    },
    /// Occupy single-slot resources 0 and 1 in parallel for `service`
    /// (`Resource::submit_pair`); `tag` fires `hop` after both.
    Join {
        service: u64,
        hop: u64,
        tag: u32,
        style: Style,
    },
    /// Read resource `res`'s busy integral now.
    Probe { res: usize },
}

/// How the test moves the clock before a batch of outside actions.
#[derive(Debug, Clone, Copy)]
enum Advance {
    /// `run_until(now + delta)`.
    RunUntil(u64),
    /// `step()` until the next firing is logged.
    Step,
}

/// `children[tag]` is what firing `tag` does next; `phases` is what the
/// test does from outside any event once `root` is submitted.
struct Program {
    root: Vec<Action>,
    phases: Vec<(Advance, Vec<Action>)>,
    children: Vec<Vec<Action>>,
}

/// Times that collide (0, repeats), straddle a wheel slot (1 024 µs) and
/// leave the wheel's horizon (300 ms).
const TIMES: [u64; 8] = [0, 0, 1, 7, 1_000, 1_024, 5_000, 300_000];
/// Two single-slot links (the `Join` pair, also submitted to alone), a
/// two-slot and a three-slot resource.
const SLOTS: [u32; 4] = [1, 1, 2, 3];
/// Past every firing: the run ends here and probes every resource.
const END: SimTime = SimTime(1 << 40);

fn random_actions(rng: &mut DetRng, children: &mut Vec<Vec<Action>>, depth: u32) -> Vec<Action> {
    let n = rng.uniform(1, if depth == 0 { 12 } else { 3 });
    (0..n)
        .map(|_| {
            let tag = children.len() as u32;
            children.push(Vec::new());
            if depth < 3 {
                children[tag as usize] = random_actions(rng, children, depth + 1);
            }
            let time = |rng: &mut DetRng| TIMES[rng.uniform(0, TIMES.len() as u64 - 1) as usize];
            let res = |rng: &mut DetRng| rng.uniform(0, SLOTS.len() as u64 - 1) as usize;
            let style = [Style::Data, Style::Closure, Style::Detached][rng.uniform(0, 2) as usize];
            match rng.uniform(0, 11) {
                0..=2 => Action::Timer {
                    delay: time(rng),
                    tag,
                    data: rng.chance(0.5),
                },
                3 => Action::Repeat {
                    period: time(rng).max(1),
                    tag,
                    times: rng.uniform(1, 3) as u32,
                },
                4..=7 => Action::Submit {
                    res: res(rng),
                    service: time(rng),
                    tag,
                    style,
                },
                8..=9 => Action::Join {
                    service: time(rng),
                    hop: time(rng),
                    tag,
                    style,
                },
                _ => Action::Probe { res: res(rng) },
            }
        })
        .collect()
}

fn program(seed: u64) -> Program {
    let mut rng = DetRng::new(seed);
    let mut children = Vec::new();
    let root = random_actions(&mut rng, &mut children, 0);
    let phases = (0..rng.uniform(0, 6))
        .map(|_| {
            let advance = if rng.chance(0.5) {
                Advance::RunUntil(TIMES[rng.uniform(0, TIMES.len() as u64 - 1) as usize])
            } else {
                Advance::Step
            };
            (advance, random_actions(&mut rng, &mut children, 2))
        })
        .collect();
    Program {
        root,
        phases,
        children,
    }
}

/// `(completed, service_us, wait_us, max_queue)`.
type Stats = (u64, u64, u64, usize);

/// What a run leaves behind; the real kernel's must equal the model's.
#[derive(Debug, Default, PartialEq)]
struct Outcome {
    /// `(time, tag)` of every firing.
    log: Vec<(SimTime, u32)>,
    /// `(time, resource, busy integral)` of every probe.
    readings: Vec<(SimTime, usize, u64)>,
    /// Every resource's counters at `END`.
    stats: Vec<Stats>,
}

/// Probe every resource (the last thing a run does).
fn probe_all() -> Vec<Action> {
    (0..SLOTS.len()).map(|res| Action::Probe { res }).collect()
}

// ------------------------------------------------------------ real kernel

struct Real {
    program: Program,
    resources: Vec<ResourceHandle>,
    out: RefCell<Outcome>,
}

fn real_completion(cx: &Rc<Real>, tag: u32, style: Style) -> Completion {
    match style {
        Style::Data => Signal::Retry { job: tag as u64 }.into(),
        Style::Closure => {
            let cx = cx.clone();
            Completion::call(move |sim| real_fire(&cx, sim, tag))
        }
        Style::Detached => Completion::Detached,
    }
}

fn real_fire(cx: &Rc<Real>, sim: &mut Sim, tag: u32) {
    cx.out.borrow_mut().log.push((sim.now(), tag));
    real_run(cx, sim, &cx.program.children[tag as usize]);
}

fn real_run(cx: &Rc<Real>, sim: &mut Sim, actions: &[Action]) {
    for &action in actions {
        match action {
            Action::Timer { delay, tag, data } => {
                let style = if data { Style::Data } else { Style::Closure };
                sim.post_after(
                    SimDuration::from_micros(delay),
                    real_completion(cx, tag, style),
                );
            }
            Action::Repeat { period, tag, times } => {
                let (cx, left) = (cx.clone(), Cell::new(times));
                sim.every(SimDuration::from_micros(period), move |sim| {
                    real_fire(&cx, sim, tag);
                    left.set(left.get() - 1);
                    left.get() > 0
                });
            }
            Action::Submit {
                res,
                service,
                tag,
                style,
            } => Resource::submit(
                &cx.resources[res],
                sim,
                SimDuration::from_micros(service),
                real_completion(cx, tag, style),
            ),
            Action::Join {
                service,
                hop,
                tag,
                style,
            } => Resource::submit_pair(
                &cx.resources[0],
                &cx.resources[1],
                sim,
                SimDuration::from_micros(service),
                SimDuration::from_micros(hop),
                real_completion(cx, tag, style),
            ),
            Action::Probe { res } => {
                let integral = cx.resources[res].borrow_mut().busy_integral_us(sim.now());
                cx.out
                    .borrow_mut()
                    .readings
                    .push((sim.now(), res, integral));
            }
        }
    }
}

fn run_real(program: Program) -> Outcome {
    let cx = Rc::new(Real {
        program,
        resources: SLOTS.iter().map(|&s| Resource::new("r", s)).collect(),
        out: RefCell::default(),
    });
    let mut sim = Sim::new();
    let handler_cx = cx.clone();
    sim.set_handler(move |sim, signal| match signal {
        Signal::Retry { job } => real_fire(&handler_cx, sim, job as u32),
        other => panic!("unexpected signal {other:?}"),
    });
    real_run(&cx, &mut sim, &cx.program.root);
    let firings = || cx.out.borrow().log.len();
    for (advance, actions) in &cx.program.phases {
        match *advance {
            Advance::RunUntil(delta) => {
                sim.run_until(sim.now() + SimDuration::from_micros(delta));
            }
            Advance::Step => {
                let before = firings();
                while firings() == before && sim.step() {}
            }
        }
        real_run(&cx, &mut sim, actions);
    }
    sim.run_to_completion();
    sim.run_until(END);
    real_run(&cx, &mut sim, &probe_all());
    assert_eq!(
        sim.events_by_kind().iter().map(|(_, n)| n).sum::<u64>(),
        sim.events_executed(),
        "per-kind counts sum to the events executed"
    );
    let stats = cx
        .resources
        .iter()
        .map(|r| {
            let s = r.borrow().stats();
            (s.completed, s.service_us, s.wait_us, s.max_queue)
        })
        .collect();
    let mut out = cx.out.take();
    out.stats = stats;
    out
}

// -------------------------------------------------------- reference model

type ModelFn = Box<dyn FnOnce(&mut Model)>;

/// The closure-only kernel: one sorted `Vec`, `(at, seq)` order.
#[derive(Default)]
struct Model {
    now: SimTime,
    seq: u64,
    queue: Vec<(SimTime, u64, ModelFn)>,
}

impl Model {
    fn after(&mut self, delay: u64, f: impl FnOnce(&mut Model) + 'static) {
        let at = self.now + SimDuration::from_micros(delay);
        self.queue.push((at, self.seq, Box::new(f)));
        self.seq += 1;
    }

    /// Index of the earliest entry.
    fn next(&self) -> Option<usize> {
        (0..self.queue.len()).min_by_key(|&i| (self.queue[i].0, self.queue[i].1))
    }

    fn step(&mut self) -> bool {
        let Some(first) = self.next() else {
            return false;
        };
        let (at, _, f) = self.queue.remove(first);
        self.now = at;
        f(self);
        true
    }

    fn run_until(&mut self, t: SimTime) {
        while self.next().is_some_and(|i| self.queue[i].0 <= t) {
            self.step();
        }
        self.now = self.now.max(t);
    }
}

/// The resource as it was when every completion was a closure event.
struct ModelResource {
    slots: u32,
    busy: u32,
    /// `(service, enqueued, done)`.
    queue: VecDeque<(u64, SimTime, ModelFn)>,
    integral: u64,
    last_change: SimTime,
    stats: Stats,
}

impl ModelResource {
    fn advance(&mut self, now: SimTime) {
        self.integral += now.since(self.last_change).as_micros() * self.busy as u64;
        self.last_change = now;
    }
}

fn model_submit(this: &Rc<RefCell<ModelResource>>, m: &mut Model, service: u64, done: ModelFn) {
    let mut r = this.borrow_mut();
    r.advance(m.now);
    if r.busy < r.slots {
        r.busy += 1;
        drop(r);
        model_serve(this, m, service, 0, done);
    } else {
        r.queue.push_back((service, m.now, done));
        r.stats.3 = r.stats.3.max(r.queue.len());
    }
}

fn model_serve(
    this: &Rc<RefCell<ModelResource>>,
    m: &mut Model,
    service: u64,
    waited: u64,
    done: ModelFn,
) {
    let handle = this.clone();
    m.after(service, move |m| {
        let next = {
            let mut r = handle.borrow_mut();
            r.advance(m.now);
            r.stats.0 += 1;
            r.stats.1 += service;
            r.stats.2 += waited;
            let next = r.queue.pop_front();
            if next.is_none() {
                r.busy -= 1;
            }
            next
        };
        if let Some((service, enqueued, next_done)) = next {
            let waited = m.now.since(enqueued).as_micros();
            model_serve(&handle, m, service, waited, next_done);
        }
        done(m);
    });
}

struct Reference {
    program: Program,
    resources: Vec<Rc<RefCell<ModelResource>>>,
    out: RefCell<Outcome>,
    /// `Join`s met with no link free, one free and both free.
    link_states: Cell<[u32; 3]>,
}

fn model_completion(cx: &Rc<Reference>, tag: u32, style: Style) -> ModelFn {
    match style {
        Style::Data | Style::Closure => {
            let cx = cx.clone();
            Box::new(move |m| model_fire(&cx, m, tag))
        }
        Style::Detached => Box::new(|_| {}),
    }
}

fn model_fire(cx: &Rc<Reference>, m: &mut Model, tag: u32) {
    cx.out.borrow_mut().log.push((m.now, tag));
    model_run(cx, m, &cx.program.children[tag as usize]);
}

fn model_repeat(cx: Rc<Reference>, m: &mut Model, period: u64, tag: u32, left: u32) {
    m.after(period, move |m| {
        model_fire(&cx, m, tag);
        if left > 1 {
            model_repeat(cx, m, period, tag, left - 1);
        }
    });
}

fn model_run(cx: &Rc<Reference>, m: &mut Model, actions: &[Action]) {
    for &action in actions {
        match action {
            Action::Timer { delay, tag, .. } => {
                m.after(delay, model_completion(cx, tag, Style::Closure))
            }
            Action::Repeat { period, tag, times } => {
                model_repeat(cx.clone(), m, period, tag, times)
            }
            Action::Submit {
                res,
                service,
                tag,
                style,
            } => model_submit(
                &cx.resources[res],
                m,
                service,
                model_completion(cx, tag, style),
            ),
            Action::Join {
                service,
                hop,
                tag,
                style,
            } => {
                let free = |res: usize| {
                    let r = cx.resources[res].borrow();
                    usize::from(r.busy < r.slots)
                };
                let mut states = cx.link_states.get();
                states[free(0) + free(1)] += 1;
                cx.link_states.set(states);
                if let Style::Detached = style {
                    // Nothing to deliver, so no join: the no-op delivery
                    // event a two-arm join posted is the one event the
                    // real kernel drops outright, and it could only move
                    // the clock of a drained queue.
                    for res in 0..2 {
                        model_submit(&cx.resources[res], m, service, Box::new(|_| {}));
                    }
                    continue;
                }
                let remaining = Rc::new(Cell::new(2u8));
                let done = Rc::new(Cell::new(Some(model_completion(cx, tag, style))));
                for res in 0..2 {
                    let (remaining, done) = (remaining.clone(), done.clone());
                    let arm: ModelFn = Box::new(move |m| {
                        remaining.set(remaining.get() - 1);
                        if remaining.get() == 0 {
                            m.after(hop, done.take().expect("delivered once"));
                        }
                    });
                    model_submit(&cx.resources[res], m, service, arm);
                }
            }
            Action::Probe { res } => {
                let integral = {
                    let mut r = cx.resources[res].borrow_mut();
                    r.advance(m.now);
                    r.integral
                };
                cx.out.borrow_mut().readings.push((m.now, res, integral));
            }
        }
    }
}

/// The model's outcome, and how often each link state met a `Join`.
fn run_model(program: Program) -> (Outcome, [u32; 3]) {
    let resource = |&slots| {
        Rc::new(RefCell::new(ModelResource {
            slots,
            busy: 0,
            queue: VecDeque::new(),
            integral: 0,
            last_change: SimTime::ZERO,
            stats: Stats::default(),
        }))
    };
    let cx = Rc::new(Reference {
        program,
        resources: SLOTS.iter().map(resource).collect(),
        out: RefCell::default(),
        link_states: Cell::default(),
    });
    let mut m = Model::default();
    model_run(&cx, &mut m, &cx.program.root);
    let firings = || cx.out.borrow().log.len();
    for (advance, actions) in &cx.program.phases {
        match *advance {
            Advance::RunUntil(delta) => m.run_until(m.now + SimDuration::from_micros(delta)),
            Advance::Step => {
                let before = firings();
                while firings() == before && m.step() {}
            }
        }
        model_run(&cx, &mut m, actions);
    }
    m.run_until(END);
    model_run(&cx, &mut m, &probe_all());
    let stats = cx.resources.iter().map(|r| r.borrow().stats).collect();
    let mut out = cx.out.take();
    out.stats = stats;
    (out, cx.link_states.get())
}

#[test]
fn typed_events_fire_in_the_reference_order() {
    let (mut fired, mut readings, mut link_states) = (0, 0, [0; 3]);
    for seed in 0..300 {
        let real = run_real(program(seed));
        let (model, states) = run_model(program(seed));
        assert_eq!(real.log, model.log, "seed {seed}: firings");
        assert_eq!(real.readings, model.readings, "seed {seed}: busy integrals");
        assert_eq!(real.stats, model.stats, "seed {seed}: final stats");
        fired += real.log.len();
        readings += real.readings.len();
        for (total, n) in link_states.iter_mut().zip(states) {
            *total += n;
        }
    }
    assert!(
        fired > 10_000,
        "the programs did real work ({fired} firings)"
    );
    assert!(readings > 3_000, "the probes ran ({readings} readings)");
    assert!(
        link_states.iter().all(|&n| n > 200),
        "message pairs met no link free, one free and both free: {link_states:?}"
    );
}
