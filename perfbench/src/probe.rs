//! The traced run's decorators. They time calls into the program's public
//! interfaces from outside and change nothing inside it:
//!
//! * [`TimedProtocol`] wraps each node's `DiscoveryProtocol` (installed
//!   through `World::with_protocols`) and times every callback;
//! * [`TimedWorld`] wraps `sim::World` as the `simcore::Handler` the engine
//!   drives, and times every event by kind.
//!
//! Counters live in a thread-local [`Probe`]: one simulated world runs on
//! one thread, so a sweep worker can reset the probe, run a cell and take
//! its snapshot without locks.

use realtor_core::protocol::{
    Action, Actions, DiscoveryProtocol, Introspection, LocalView, TimerToken,
};
use realtor_core::Message;
use realtor_net::NodeId;
use realtor_sim::world::{Ev, World};
use realtor_simcore::{Context, Handler, SimTime, Tracer};
use std::cell::RefCell;
use std::time::Instant;

/// The event kinds the world's time is split by (`sim.handle.<kind>`).
pub const KINDS: [&str; 8] = [
    "arrival",
    "flood_deliver",
    "deliver",
    "timer",
    "drain",
    "migrate",
    "chaos",
    "window",
];

fn kind_of(ev: &Ev) -> usize {
    match ev {
        Ev::Arrival(_) => 0,
        Ev::FloodDeliver { .. } => 1,
        Ev::Deliver { .. } => 2,
        Ev::Timer { .. } => 3,
        Ev::Drain { .. } => 4,
        Ev::MigrateRequest { .. } | Ev::MigrateReply { .. } | Ev::MigrateTimeout { .. } => 5,
        Ev::Attack(_)
        | Ev::DelayedKill { .. }
        | Ev::ChurnTick
        | Ev::AdversaryStrike
        | Ev::AdversaryRestore { .. } => 6,
        Ev::WindowTick => 7,
    }
}

/// Counts and nanoseconds gathered by the decorators on one thread.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Probe {
    /// `World::handle` calls per event kind.
    pub kind_calls: [u64; 8],
    /// Nanoseconds inside `World::handle` per event kind.
    pub kind_ns: [u64; 8],
    /// Nanoseconds of protocol callbacks made inside those handles.
    pub kind_proto_ns: [u64; 8],
    /// `on_message` calls made while handling `FloodDeliver` events.
    pub flood_recipients: u64,
    /// Protocol callbacks of every kind, and their nanoseconds.
    pub proto_calls: u64,
    /// Nanoseconds inside every protocol callback.
    pub proto_ns: u64,
    /// `on_message` calls and their nanoseconds.
    pub on_message: u64,
    /// Nanoseconds inside `on_message`.
    pub on_message_ns: u64,
    /// `on_message` calls that emitted at least one action.
    pub on_message_reacted: u64,
    /// `on_timer` calls.
    pub on_timer: u64,
    /// `on_usage_change` calls.
    pub on_usage_change: u64,
    /// `on_task_arrival` calls.
    pub on_task_arrival: u64,
    /// `pick_candidate` calls.
    pub pick_candidate: u64,
    /// `pick_candidate` calls that named a destination.
    pub pick_hits: u64,
    /// Flood actions emitted.
    pub actions_flood: u64,
    /// Unicast actions emitted.
    pub actions_unicast: u64,
}

impl Probe {
    /// Handle calls over every kind.
    pub fn events(&self) -> u64 {
        self.kind_calls.iter().sum()
    }

    /// Add `other`'s counts into `self`.
    pub fn merge(&mut self, other: &Probe) {
        for k in 0..KINDS.len() {
            self.kind_calls[k] += other.kind_calls[k];
            self.kind_ns[k] += other.kind_ns[k];
            self.kind_proto_ns[k] += other.kind_proto_ns[k];
        }
        self.flood_recipients += other.flood_recipients;
        self.proto_calls += other.proto_calls;
        self.proto_ns += other.proto_ns;
        self.on_message += other.on_message;
        self.on_message_ns += other.on_message_ns;
        self.on_message_reacted += other.on_message_reacted;
        self.on_timer += other.on_timer;
        self.on_usage_change += other.on_usage_change;
        self.on_task_arrival += other.on_task_arrival;
        self.pick_candidate += other.pick_candidate;
        self.pick_hits += other.pick_hits;
        self.actions_flood += other.actions_flood;
        self.actions_unicast += other.actions_unicast;
    }

    /// The counts alone, without any time: equal across repeats of one
    /// seed, because the simulation is deterministic.
    pub fn counts(&self) -> Probe {
        Probe {
            kind_ns: [0; 8],
            kind_proto_ns: [0; 8],
            proto_ns: 0,
            on_message_ns: 0,
            ..self.clone()
        }
    }
}

thread_local! {
    static PROBE: RefCell<Probe> = RefCell::new(Probe::default());
}

/// Clear this thread's probe.
pub fn reset() {
    PROBE.with(|p| *p.borrow_mut() = Probe::default());
}

/// A copy of this thread's probe.
pub fn snapshot() -> Probe {
    PROBE.with(|p| p.borrow().clone())
}

fn with<R>(f: impl FnOnce(&mut Probe) -> R) -> R {
    PROBE.with(|p| f(&mut p.borrow_mut()))
}

fn nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// A protocol instance that forwards every call and times it.
pub struct TimedProtocol(pub Box<dyn DiscoveryProtocol>);

impl TimedProtocol {
    /// Forward one action-emitting callback, timing it and counting the
    /// actions it appended to `out`.
    fn timed(
        &mut self,
        out: &mut Actions,
        call: impl FnOnce(&mut dyn DiscoveryProtocol, &mut Actions),
    ) -> (u64, bool) {
        let before = out.len();
        let start = Instant::now();
        call(&mut *self.0, out);
        let ns = nanos(start);
        let emitted = &out.as_slice()[before..];
        with(|p| {
            p.proto_calls += 1;
            p.proto_ns += ns;
            for action in emitted {
                match action {
                    Action::Flood(_) => p.actions_flood += 1,
                    Action::Unicast(..) => p.actions_unicast += 1,
                    Action::SetTimer(..) | Action::DeclareDead(_) => {}
                }
            }
        });
        (ns, !emitted.is_empty())
    }
}

impl DiscoveryProtocol for TimedProtocol {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn node(&self) -> NodeId {
        self.0.node()
    }

    fn on_start(&mut self, now: SimTime, local: LocalView, out: &mut Actions) {
        self.timed(out, |p, out| p.on_start(now, local, out));
    }

    fn on_task_arrival(&mut self, now: SimTime, local: LocalView, out: &mut Actions) {
        self.timed(out, |p, out| p.on_task_arrival(now, local, out));
        with(|p| p.on_task_arrival += 1);
    }

    fn on_usage_change(&mut self, now: SimTime, local: LocalView, out: &mut Actions) {
        self.timed(out, |p, out| p.on_usage_change(now, local, out));
        with(|p| p.on_usage_change += 1);
    }

    fn on_message(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: &Message,
        local: LocalView,
        out: &mut Actions,
    ) {
        let (ns, reacted) = self.timed(out, |p, out| p.on_message(now, from, msg, local, out));
        with(|p| {
            p.on_message += 1;
            p.on_message_ns += ns;
            p.on_message_reacted += u64::from(reacted);
        });
    }

    fn on_timer(&mut self, now: SimTime, token: TimerToken, local: LocalView, out: &mut Actions) {
        self.timed(out, |p, out| p.on_timer(now, token, local, out));
        with(|p| p.on_timer += 1);
    }

    fn pick_candidate(&mut self, now: SimTime, need_secs: f64) -> Option<NodeId> {
        let start = Instant::now();
        let picked = self.0.pick_candidate(now, need_secs);
        let ns = nanos(start);
        with(|p| {
            p.proto_calls += 1;
            p.proto_ns += ns;
            p.pick_candidate += 1;
            p.pick_hits += u64::from(picked.is_some());
        });
        picked
    }

    fn on_migration_result(&mut self, now: SimTime, dest: NodeId, admitted: bool) {
        let start = Instant::now();
        self.0.on_migration_result(now, dest, admitted);
        let ns = nanos(start);
        with(|p| {
            p.proto_calls += 1;
            p.proto_ns += ns;
        });
    }

    fn on_reset(&mut self, now: SimTime) {
        self.0.on_reset(now);
    }

    fn introspect(&self, now: SimTime) -> Introspection {
        self.0.introspect(now)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.0.set_tracer(tracer);
    }
}

/// The world as the engine's handler, timing each event by kind.
pub struct TimedWorld<'a>(pub &'a mut World);

impl Handler for TimedWorld<'_> {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Context<'_, Ev>) {
        let kind = kind_of(&ev);
        let (proto_ns, messages) = with(|p| (p.proto_ns, p.on_message));
        let start = Instant::now();
        self.0.handle(ev, ctx);
        let ns = nanos(start);
        with(|p| {
            p.kind_calls[kind] += 1;
            p.kind_ns[kind] += ns;
            p.kind_proto_ns[kind] += p.proto_ns - proto_ns;
            if kind == 1 {
                p.flood_recipients += p.on_message - messages;
            }
        });
    }
}
