//! Kernel order property: requests booked at submit fire as an
//! event-per-completion queue fires them.
//!
//! A random program — data events, closure events, repeaters, resource
//! requests, message pairs and utilisation probes, at equal and distinct
//! times, each firing spawning more of the same — runs on the real kernel
//! and on a reference model. The model is a sorted `Vec` of boxed closures
//! plus a resource that runs every completion as an event of its own,
//! detached ones included, re-arms its FIFO queue from those events and
//! keeps its busy integral eagerly; a message is two such arms and an
//! `Rc`-counted join that posts its delivery when the later arm fires. Every
//! event is filed under `(due, as-of instant, submit order)`: a request's
//! completion as of the instant it starts service, a message's delivery as
//! of the instant its later arm clears, anything else as of the instant it
//! is posted. The test also acts from outside any event: before the first
//! one, after `run_until` returns and between `step()` calls (stepping until
//! the next firing, a point both kernels share).
//!
//! Both must log the same `(time, tag)` sequence, book every request with
//! the same start and finish and every message with the same clear instant,
//! read the same busy integrals and end with the same stats on every
//! resource. The model's `max_queue` is counted from its starts: the
//! requests submitted no later than a submit that start after it. The real
//! kernel must fire one event per waited-on request or message and none per
//! detached one.
//!
//! Mutation checks (done by hand on a copy of the code; each fails this
//! test): starting a request at `now` whatever its slot's free-at time;
//! booking a request on the slot that frees last instead of first; making a
//! message's `done` due `hop` after the earlier arm's end; counting queued
//! work as busy (the busy integral subtracts only the last request booked
//! on each slot from the work still ahead).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use wattdb_common::{DetRng, SimDuration, SimTime};
use wattdb_sim::{Completion, Resource, ResourceHandle, Signal, Sim};

/// How a resource request or a message says it is done.
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

/// Times that collide (0, repeats), fall a few µs apart (1, 7), a
/// millisecond apart (1 000, 1 024) and far apart (5 ms, 300 ms).
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
    /// `(resource, start, finish)` of every `Submit`, in submit order.
    spans: Vec<(usize, SimTime, SimTime)>,
    /// The instant both links of every `Join` are clear, in submit order.
    clears: Vec<SimTime>,
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
            } => {
                let service = SimDuration::from_micros(service);
                let then = real_completion(cx, tag, style);
                let finish = Resource::submit(&cx.resources[res], sim, service, then);
                let start = SimTime(finish.0 - service.as_micros());
                cx.out.borrow_mut().spans.push((res, start, finish));
            }
            Action::Join {
                service,
                hop,
                tag,
                style,
            } => {
                let clear = Resource::submit_pair(
                    &cx.resources[0],
                    &cx.resources[1],
                    sim,
                    SimDuration::from_micros(service),
                    SimDuration::from_micros(hop),
                    real_completion(cx, tag, style),
                );
                cx.out.borrow_mut().clears.push(clear);
            }
            Action::Probe { res } => {
                let integral = cx.resources[res].borrow().busy_integral_us(sim.now());
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
    assert_eq!(
        sim.events_executed(),
        firings() as u64,
        "one event per firing: none for a detached request or message"
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

/// `(due, as-of instant, submit order)`.
type Due = (SimTime, SimTime, u64);

/// The closure-only kernel: one `Vec`, fired in [`Due`] order.
#[derive(Default)]
struct Model {
    now: SimTime,
    /// The key of the event firing, or of the last one fired.
    firing: Option<Due>,
    seq: u64,
    queue: Vec<(Due, ModelFn)>,
}

impl Model {
    /// The next submit order.
    fn take_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    fn file(&mut self, due: Due, f: impl FnOnce(&mut Model) + 'static) {
        assert!(
            self.firing.is_none_or(|firing| due > firing),
            "the model filed an event before the one firing"
        );
        self.queue.push((due, Box::new(f)));
    }

    fn after(&mut self, delay: u64, f: impl FnOnce(&mut Model) + 'static) {
        let due = (
            self.now + SimDuration::from_micros(delay),
            self.now,
            self.take_seq(),
        );
        self.file(due, f);
    }

    /// Index of the earliest entry.
    fn next(&self) -> Option<usize> {
        (0..self.queue.len()).min_by_key(|&i| self.queue[i].0)
    }

    fn step(&mut self) -> bool {
        let Some(first) = self.next() else {
            return false;
        };
        let (due, f) = self.queue.remove(first);
        self.now = due.0;
        self.firing = Some(due);
        f(self);
        true
    }

    fn run_until(&mut self, t: SimTime) {
        while self.next().is_some_and(|i| self.queue[i].0 .0 <= t) {
            self.step();
        }
        self.now = self.now.max(t);
    }
}

/// Starts a queued request at `(start, finish)`.
type StartFn = Box<dyn FnOnce(&mut Model, SimTime, SimTime)>;

/// A resource whose every completion is an event.
struct ModelResource {
    slots: u32,
    busy: u32,
    /// `(service, start it)` of the requests waiting.
    queue: VecDeque<(u64, StartFn)>,
    integral: u64,
    last_change: SimTime,
    /// `(submitted, start)` of every request.
    starts: Vec<(SimTime, SimTime)>,
    /// `(completed, service_us, wait_us)` booked by completion events.
    booked: (u64, u64, u64),
}

impl ModelResource {
    fn advance(&mut self, now: SimTime) {
        self.integral += now.since(self.last_change).as_micros() * self.busy as u64;
        self.last_change = now;
    }

    /// `max_queue` counted from the starts: at each submit, the requests
    /// submitted no later that start after it.
    fn max_queue(&self) -> usize {
        (0..self.starts.len())
            .map(|i| {
                let submitted = self.starts[i].0;
                self.starts[..=i]
                    .iter()
                    .filter(|&&(_, start)| start > submitted)
                    .count()
            })
            .max()
            .unwrap_or(0)
    }
}

type ResRc = Rc<RefCell<ModelResource>>;

/// Submit `service` to `res`; `on_start(m, start, finish)` runs when the
/// request starts (so a span can be logged), and `done` when it completes.
fn model_submit(
    res: &ResRc,
    m: &mut Model,
    service: u64,
    on_start: impl FnOnce(&mut Model, SimTime, SimTime) + 'static,
    done: ModelFn,
) {
    let seq = m.take_seq();
    let index = res.borrow().starts.len();
    res.borrow_mut().starts.push((m.now, SimTime::ZERO));
    let submitted = m.now;
    let handle = res.clone();
    let start_it = move |m: &mut Model, start: SimTime, finish: SimTime| {
        handle.borrow_mut().starts[index].1 = start;
        on_start(m, start, finish);
        let handle = handle.clone();
        m.file((finish, start, seq), move |m| {
            let next = {
                let mut r = handle.borrow_mut();
                r.advance(m.now);
                r.booked.0 += 1;
                r.booked.1 += service;
                r.booked.2 += start.since(submitted).as_micros();
                let next = r.queue.pop_front();
                if next.is_none() {
                    r.busy -= 1;
                }
                next
            };
            if let Some((service, start_next)) = next {
                start_next(m, m.now, m.now + SimDuration::from_micros(service));
            }
            done(m);
        });
    };
    let mut r = res.borrow_mut();
    r.advance(m.now);
    if r.busy < r.slots {
        r.busy += 1;
        drop(r);
        start_it(m, m.now, m.now + SimDuration::from_micros(service));
    } else {
        r.queue.push_back((service, Box::new(start_it)));
    }
}

struct Reference {
    program: Program,
    resources: Vec<ResRc>,
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
            } => {
                // A span is logged in submit order, filled in at its start.
                let span = cx.out.borrow().spans.len();
                cx.out
                    .borrow_mut()
                    .spans
                    .push((res, SimTime::ZERO, SimTime::ZERO));
                let out = cx.clone();
                let on_start = move |_: &mut Model, start, finish| {
                    out.out.borrow_mut().spans[span] = (res, start, finish);
                };
                let done = model_completion(cx, tag, style);
                model_submit(&cx.resources[res], m, service, on_start, done);
            }
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
                let clear_index = cx.out.borrow().clears.len();
                cx.out.borrow_mut().clears.push(SimTime::ZERO);
                // Two arms, then the delivery's submit order; the later arm
                // to fire posts it, as of the instant it clears.
                let remaining = Rc::new(Cell::new(2u8));
                let cleared = Rc::new(Cell::new(SimTime::ZERO));
                let done = Rc::new(Cell::new(Some(model_completion(cx, tag, style))));
                let deliver_seq = Rc::new(Cell::new(0));
                for res in 0..2 {
                    let (remaining, done) = (remaining.clone(), done.clone());
                    let (cleared, deliver_seq) = (cleared.clone(), deliver_seq.clone());
                    let out = cx.clone();
                    let on_start = {
                        let cleared = cleared.clone();
                        move |_: &mut Model, _, finish: SimTime| {
                            cleared.set(cleared.get().max(finish));
                            out.out.borrow_mut().clears[clear_index] = cleared.get();
                        }
                    };
                    let detached = matches!(style, Style::Detached);
                    let arm: ModelFn = Box::new(move |m| {
                        remaining.set(remaining.get() - 1);
                        if remaining.get() == 0 && !detached {
                            let at = m.now + SimDuration::from_micros(hop);
                            let done = done.take().expect("delivered once");
                            m.file((at, m.now, deliver_seq.get()), done);
                        }
                    });
                    model_submit(&cx.resources[res], m, service, on_start, arm);
                }
                deliver_seq.set(m.take_seq());
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
            starts: Vec::new(),
            booked: (0, 0, 0),
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
    let stats = cx
        .resources
        .iter()
        .map(|r| {
            let r = r.borrow();
            let (completed, service, wait) = r.booked;
            (completed, service, wait, r.max_queue())
        })
        .collect();
    let mut out = cx.out.take();
    out.stats = stats;
    (out, cx.link_states.get())
}

#[test]
fn typed_events_fire_in_the_reference_order() {
    let (mut fired, mut readings, mut queued, mut link_states) = (0, 0, 0, [0; 3]);
    for seed in 0..300 {
        let real = run_real(program(seed));
        let (model, states) = run_model(program(seed));
        assert_eq!(real.log, model.log, "seed {seed}: firings");
        assert_eq!(real.spans, model.spans, "seed {seed}: request spans");
        assert_eq!(real.clears, model.clears, "seed {seed}: message clears");
        assert_eq!(real.readings, model.readings, "seed {seed}: busy integrals");
        assert_eq!(real.stats, model.stats, "seed {seed}: final stats");
        fired += real.log.len();
        readings += real.readings.len();
        queued += real.stats.iter().filter(|s| s.3 > 0).count();
        for (total, n) in link_states.iter_mut().zip(states) {
            *total += n;
        }
    }
    assert!(
        fired > 10_000,
        "the programs did real work ({fired} firings)"
    );
    assert!(readings > 3_000, "the probes ran ({readings} readings)");
    assert!(queued > 300, "requests queued ({queued} resources)");
    assert!(
        link_states.iter().all(|&n| n > 200),
        "message pairs met no link free, one free and both free: {link_states:?}"
    );
}
