//! Pass-through wrappers that time calls into the simulator's layers
//! from outside the program.
//!
//! Each wrapper forwards every call unchanged to the object it wraps and
//! charges the call's wall time to one [`Span`]. Spans nest (a protocol
//! hook can run inside an application poll, an Event Logger delivery
//! never does, but nothing here relies on that), so each span records
//! its *self* time: its duration minus the time covered by spans opened
//! inside it. Self times of different spans therefore never overlap and
//! can be subtracted from the kernel's `dispatch` phase to leave the
//! daemon's own time.
//!
//! The accumulators are thread-local, like the kernel profiler's: a
//! benchmark pass runs on one thread.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Instant;

use vlog_core::el::EventLogger;
use vlog_sim::{Actor, ActorId, Delivery, NodeId, Sim, SimDuration};
use vlog_vmpi::{
    AppMsg, AppSpec, CkptScheduler, Ctx, PiggybackBlob, ProtoBlob, Rank, RecoveryStyle, RecvGate,
    SchedulerPolicy, SendGate, SharedRankStats, Ssn, Suite, Tag, Topology, VProtocol,
};

/// A timed layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    OnSendAccept,
    OnTransmit,
    OnAppMsg,
    OnControl,
    /// `checkpoint_due`, `checkpoint_blob`, `snapshot_version`,
    /// `on_image_assembled` and `on_checkpoint_committed`.
    Checkpoint,
    OnRestart,
    /// `on_timer`, `on_app_finished` and `name`: the hooks the metric
    /// list does not name one by one, timed so that the partition of
    /// dispatch time stays exclusive.
    OtherHooks,
    /// Every handler of the single Event Logger actor.
    ElService,
    /// One `poll` of an application future.
    AppPoll,
}

pub const SPANS: [Span; 9] = [
    Span::OnSendAccept,
    Span::OnTransmit,
    Span::OnAppMsg,
    Span::OnControl,
    Span::Checkpoint,
    Span::OnRestart,
    Span::OtherHooks,
    Span::ElService,
    Span::AppPoll,
];

impl Span {
    fn index(self) -> usize {
        self as usize
    }

    /// Metric name stem, e.g. `core.on_transmit`.
    pub fn metric(self) -> &'static str {
        match self {
            Span::OnSendAccept => "core.on_send_accept",
            Span::OnTransmit => "core.on_transmit",
            Span::OnAppMsg => "core.on_app_msg",
            Span::OnControl => "core.on_control",
            Span::Checkpoint => "core.checkpoint",
            Span::OnRestart => "core.on_restart",
            Span::OtherHooks => "core.other_hooks",
            Span::ElService => "core.el_service",
            Span::AppPoll => "workloads.app_poll",
        }
    }

    /// True for the protocol hooks (every span but the EL and the app).
    pub fn is_hook(self) -> bool {
        !matches!(self, Span::ElService | Span::AppPoll)
    }
}

/// Calls and self time of one span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanReading {
    pub calls: u64,
    pub self_ns: u64,
}

thread_local! {
    static ACC: RefCell<[SpanReading; SPANS.len()]> =
        const { RefCell::new([SpanReading { calls: 0, self_ns: 0 }; SPANS.len()]) };
    /// Nanoseconds covered by spans closed inside the innermost open span.
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f`, charging its self time to `span`.
#[inline]
pub fn timed<R>(span: Span, f: impl FnOnce() -> R) -> R {
    let outer_child = CHILD_NS.replace(0);
    let start = Instant::now();
    let out = f();
    let total = start.elapsed().as_nanos() as u64;
    let inner = CHILD_NS.get();
    ACC.with(|a| {
        let r = &mut a.borrow_mut()[span.index()];
        r.calls += 1;
        r.self_ns += total.saturating_sub(inner);
    });
    CHILD_NS.set(outer_child + total);
    out
}

/// This thread's readings since the last call, in [`SPANS`] order; the
/// accumulators restart from zero.
pub fn take() -> [SpanReading; SPANS.len()] {
    CHILD_NS.set(0);
    ACC.with(|a| std::mem::take(&mut *a.borrow_mut()))
}

/// Wraps an application so that every poll of each rank's future is
/// timed as [`Span::AppPoll`].
pub fn timed_app(spec: AppSpec) -> AppSpec {
    Arc::new(move |mpi| {
        let inner = spec(mpi);
        Box::pin(TimedFuture(inner))
    })
}

struct TimedFuture(Pin<Box<dyn Future<Output = ()> + Send>>);

impl Future for TimedFuture {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        timed(Span::AppPoll, || self.0.as_mut().poll(cx))
    }
}

/// Pass-through actor timing every handler as [`Span::ElService`] and
/// counting deliveries.
struct TimedActor<A: Actor>(A);

impl<A: Actor> Actor for TimedActor<A> {
    fn on_deliver(&mut self, sim: &mut Sim, me: ActorId, msg: Delivery) {
        timed(Span::ElService, || self.0.on_deliver(sim, me, msg))
    }
    fn on_poke(&mut self, sim: &mut Sim, me: ActorId, token: u64) {
        timed(Span::ElService, || self.0.on_poke(sim, me, token))
    }
    fn on_timer(&mut self, sim: &mut Sim, me: ActorId, token: u64) {
        timed(Span::ElService, || self.0.on_timer(sim, me, token))
    }
    fn on_crash(&mut self, sim: &mut Sim, me: ActorId) {
        timed(Span::ElService, || self.0.on_crash(sim, me))
    }
}

/// Pass-through suite: every rank's protocol is wrapped in a
/// [`TimedProtocol`].
///
/// `single_el` is the checkpoint-scheduler policy of a suite whose only
/// stable component besides the scheduler is one classic
/// [`EventLogger`] (Vcausal or pessimistic with one EL). For those the
/// wrapper installs the same two actors, in the same order on the same
/// nodes, with the Event Logger inside a timed actor; the traced and
/// untraced digests prove the installs equivalent. Any other suite's
/// components are installed by the suite itself, unwrapped.
pub struct TimedSuite {
    inner: Arc<dyn Suite>,
    single_el: Option<SchedulerPolicy>,
}

impl TimedSuite {
    pub fn new(inner: Arc<dyn Suite>, single_el: Option<SchedulerPolicy>) -> TimedSuite {
        TimedSuite { inner, single_el }
    }
}

impl Suite for TimedSuite {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn install(&self, sim: &mut Sim, topo: &Topology, stable_nodes: &[NodeId]) {
        match self.single_el {
            Some(policy) => {
                let node = stable_nodes[0];
                let el = sim.add_actor(
                    node,
                    Box::new(TimedActor(EventLogger::new(node, topo.n_ranks()))),
                );
                topo.set_el(el, node);
                CkptScheduler::install(sim, stable_nodes[1], topo.clone(), policy);
            }
            None => self.inner.install(sim, topo, stable_nodes),
        }
    }

    fn make_protocol(
        &self,
        rank: Rank,
        topo: &Topology,
        stats: SharedRankStats,
    ) -> Box<dyn VProtocol> {
        Box::new(TimedProtocol(self.inner.make_protocol(rank, topo, stats)))
    }

    fn recovery_style(&self) -> RecoveryStyle {
        self.inner.recovery_style()
    }
}

/// Pass-through protocol: forwards every hook, including the ones the
/// inner protocol leaves at their defaults, and times each call.
struct TimedProtocol(Box<dyn VProtocol>);

impl VProtocol for TimedProtocol {
    fn name(&self) -> String {
        timed(Span::OtherHooks, || self.0.name())
    }

    fn on_send_accept(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Rank,
        tag: Tag,
        ssn: Ssn,
        payload: &vlog_vmpi::Payload,
    ) -> SendGate {
        timed(Span::OnSendAccept, || {
            self.0.on_send_accept(ctx, dst, tag, ssn, payload)
        })
    }

    fn on_transmit(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Rank,
        ssn: Ssn,
    ) -> (PiggybackBlob, SimDuration) {
        timed(Span::OnTransmit, || self.0.on_transmit(ctx, dst, ssn))
    }

    fn on_app_msg(&mut self, ctx: &mut Ctx<'_>, msg: &mut AppMsg) -> RecvGate {
        timed(Span::OnAppMsg, || self.0.on_app_msg(ctx, msg))
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, body: Box<dyn Any + Send>) {
        timed(Span::OnControl, || self.0.on_control(ctx, body))
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        timed(Span::OtherHooks, || self.0.on_timer(ctx, token))
    }

    fn checkpoint_due(&mut self, ctx: &mut Ctx<'_>) -> bool {
        timed(Span::Checkpoint, || self.0.checkpoint_due(ctx))
    }

    fn checkpoint_blob(&mut self, ctx: &mut Ctx<'_>) -> ProtoBlob {
        timed(Span::Checkpoint, || self.0.checkpoint_blob(ctx))
    }

    fn snapshot_version(&mut self) -> Option<u64> {
        timed(Span::Checkpoint, || self.0.snapshot_version())
    }

    fn on_image_assembled(&mut self, ctx: &mut Ctx<'_>, version: u64) {
        timed(Span::Checkpoint, || self.0.on_image_assembled(ctx, version))
    }

    fn on_checkpoint_committed(&mut self, ctx: &mut Ctx<'_>, version: u64) {
        timed(Span::Checkpoint, || {
            self.0.on_checkpoint_committed(ctx, version)
        })
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>, blob: Option<ProtoBlob>) {
        timed(Span::OnRestart, || self.0.on_restart(ctx, blob))
    }

    fn on_app_finished(&mut self, ctx: &mut Ctx<'_>) {
        timed(Span::OtherHooks, || self.0.on_app_finished(ctx))
    }
}
