//! Kernel order property: typed events fire in the order closures did.
//!
//! A random program — data events, closure events, repeaters, resource
//! requests and two-arm joins, at equal and distinct times, each firing
//! spawning more of the same — runs on the real kernel and on a reference
//! model: a sorted `Vec` of boxed closures plus the old closure-only
//! resource and `Rc`-counted join. Both must log the same `(time, tag)`
//! sequence: the typed core consumes `seq` exactly where the closure core
//! did.
//!
//! Mutation check (done by hand when this test was written): running the
//! finished request's completion *before* re-arming the resource's queue in
//! `Resource::served` fails this test on the first seed.

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
    /// Occupy resources 0 and 1 in parallel; `tag` fires `hop` after both.
    Join {
        services: [u64; 2],
        hop: u64,
        tag: u32,
        style: Style,
    },
}

/// `children[tag]` is what firing `tag` does next.
struct Program {
    root: Vec<Action>,
    children: Vec<Vec<Action>>,
}

/// Times that collide (0, repeats), straddle a wheel slot (1 024 µs) and
/// leave the wheel's horizon (300 ms).
const TIMES: [u64; 8] = [0, 0, 1, 7, 1_000, 1_024, 5_000, 300_000];
const SLOTS: [u32; 3] = [1, 1, 2];

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
            let style = [Style::Data, Style::Closure, Style::Detached][rng.uniform(0, 2) as usize];
            match rng.uniform(0, 9) {
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
                    res: rng.uniform(0, SLOTS.len() as u64 - 1) as usize,
                    service: time(rng),
                    tag,
                    style,
                },
                _ => Action::Join {
                    services: [time(rng), time(rng)],
                    hop: time(rng),
                    tag,
                    style,
                },
            }
        })
        .collect()
}

type Log = Rc<RefCell<Vec<(SimTime, u32)>>>;

// ------------------------------------------------------------ real kernel

struct Real {
    program: Program,
    resources: Vec<ResourceHandle>,
    log: Log,
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
    cx.log.borrow_mut().push((sim.now(), tag));
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
                services,
                hop,
                tag,
                style,
            } => {
                let then = real_completion(cx, tag, style);
                let join = sim.join(2, SimDuration::from_micros(hop), then);
                for (res, service) in services.into_iter().enumerate() {
                    Resource::submit(
                        &cx.resources[res],
                        sim,
                        SimDuration::from_micros(service),
                        Completion::JoinArm(join),
                    );
                }
            }
        }
    }
}

fn run_real(program: Program) -> Vec<(SimTime, u32)> {
    let cx = Rc::new(Real {
        program,
        resources: SLOTS.iter().map(|&s| Resource::new("r", s)).collect(),
        log: Log::default(),
    });
    let mut sim = Sim::new();
    let handler_cx = cx.clone();
    sim.set_handler(move |sim, signal| match signal {
        Signal::Retry { job } => real_fire(&handler_cx, sim, job as u32),
        other => panic!("unexpected signal {other:?}"),
    });
    real_run(&cx, &mut sim, &cx.program.root);
    let fired = sim.run_to_completion();
    assert_eq!(
        sim.events_by_kind().iter().map(|(_, n)| n).sum::<u64>(),
        fired,
        "per-kind counts sum to the events executed"
    );
    let log = cx.log.borrow().clone();
    log
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

    fn run(&mut self) {
        while !self.queue.is_empty() {
            let key = |e: &(SimTime, u64, ModelFn)| (e.0, e.1);
            let first = (0..self.queue.len())
                .min_by_key(|&i| key(&self.queue[i]))
                .expect("non-empty");
            let (at, _, f) = self.queue.remove(first);
            self.now = at;
            f(self);
        }
    }
}

/// The resource as it was when every completion was a closure.
struct ModelResource {
    slots: u32,
    busy: u32,
    queue: VecDeque<(u64, ModelFn)>,
}

fn model_submit(this: &Rc<RefCell<ModelResource>>, m: &mut Model, service: u64, done: ModelFn) {
    let mut r = this.borrow_mut();
    if r.busy < r.slots {
        r.busy += 1;
        drop(r);
        model_serve(this, m, service, done);
    } else {
        r.queue.push_back((service, done));
    }
}

fn model_serve(this: &Rc<RefCell<ModelResource>>, m: &mut Model, service: u64, done: ModelFn) {
    let handle = this.clone();
    m.after(service, move |m| {
        let next = {
            let mut r = handle.borrow_mut();
            let next = r.queue.pop_front();
            if next.is_none() {
                r.busy -= 1;
            }
            next
        };
        if let Some((service, next_done)) = next {
            model_serve(&handle, m, service, next_done);
        }
        done(m);
    });
}

struct Reference {
    program: Program,
    resources: Vec<Rc<RefCell<ModelResource>>>,
    log: Log,
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
    cx.log.borrow_mut().push((m.now, tag));
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
                services,
                hop,
                tag,
                style,
            } => {
                let remaining = Rc::new(Cell::new(2u8));
                let done = Rc::new(Cell::new(Some(model_completion(cx, tag, style))));
                for (res, service) in services.into_iter().enumerate() {
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
        }
    }
}

fn run_model(program: Program) -> Vec<(SimTime, u32)> {
    let resource = |&slots| {
        Rc::new(RefCell::new(ModelResource {
            slots,
            busy: 0,
            queue: VecDeque::new(),
        }))
    };
    let cx = Rc::new(Reference {
        program,
        resources: SLOTS.iter().map(resource).collect(),
        log: Log::default(),
    });
    let mut m = Model::default();
    model_run(&cx, &mut m, &cx.program.root);
    m.run();
    let log = cx.log.borrow().clone();
    log
}

fn program(seed: u64) -> Program {
    let mut rng = DetRng::new(seed);
    let mut children = Vec::new();
    let root = random_actions(&mut rng, &mut children, 0);
    Program { root, children }
}

#[test]
fn typed_events_fire_in_the_reference_order() {
    let mut fired = 0;
    for seed in 0..200 {
        let (real, model) = (run_real(program(seed)), run_model(program(seed)));
        assert_eq!(real, model, "seed {seed}");
        fired += real.len();
    }
    assert!(
        fired > 10_000,
        "the programs did real work ({fired} firings)"
    );
}
