//! Single-threaded async process model over a `Send` core.
//!
//! Simulated application processes (MPI ranks in the reproduction) are
//! ordinary `async` blocks. Every blocking operation — send, receive,
//! compute, checkpoint — is an [`OpCell`] that the *kernel side* (actors,
//! scheduled closures) completes at the right virtual time. The executor
//! never blocks an OS thread and never needs real wakers: when a cell
//! completes, the waiting task is pushed onto a ready queue that the
//! simulation loop drains after every event dispatch.
//!
//! Killing a simulated process is simply dropping its future, which is the
//! fail-stop model the paper assumes: all volatile state vanishes, pending
//! operations are abandoned, and completions racing with the kill are
//! discarded thanks to per-task generation counters.
//!
//! Task code must not touch the [`Sim`](crate::kernel::Sim) directly — it
//! would be mutably borrowed by the run loop. Instead tasks *stage* events
//! through the [`ExecHandle`]; the run loop flushes staged events into the
//! real queue between polls. This mirrors the paper's architecture where
//! the MPI process only talks to its communication daemon through a pipe.
//!
//! # Ownership and `Send`
//!
//! Tasks and actors live in arena slots owned by the kernel and are
//! addressed by index+generation handles ([`TaskId`],
//! [`ActorId`](crate::kernel::ActorId)). The only genuinely shared state
//! is `ExecShared` (kernel ↔ task futures) and the one-shot [`OpCell`]s
//! (kernel ↔ one waiting task); both are `Arc<Mutex<…>>` so a whole
//! simulation — futures included — is `Send` and independent cluster runs
//! can be sharded across worker threads. Each run stays single-threaded,
//! so the mutexes are never contended.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use crate::kernel::Event;
use crate::time::SimDuration;

/// Identifier of a spawned task. The generation distinguishes incarnations
/// of a restarted process occupying the same slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct TaskId {
    pub(crate) idx: u32,
    pub(crate) gen: u32,
}

/// Shared handle on [`ExecShared`].
pub(crate) type SharedExec = Arc<Mutex<ExecShared>>;

/// State shared between the kernel, task handles and operation cells.
pub(crate) struct ExecShared {
    /// Tasks ready to be polled.
    pub(crate) ready: VecDeque<TaskId>,
    /// Task currently being polled, if any.
    pub(crate) current: Option<TaskId>,
    /// Events staged from task context, flushed by the run loop.
    pub(crate) staged: Vec<(SimDuration, Event)>,
    /// Set from task context to stop the simulation loop.
    pub(crate) stop: bool,
    /// Mirror of the kernel clock, readable from task context.
    pub(crate) now: crate::time::SimTime,
}

impl ExecShared {
    pub(crate) fn new() -> SharedExec {
        Arc::new(Mutex::new(ExecShared {
            ready: VecDeque::new(),
            current: None,
            staged: Vec::new(),
            stop: false,
            now: crate::time::SimTime::ZERO,
        }))
    }
}

/// Clonable handle on the executor, usable from task context.
#[derive(Clone)]
pub struct ExecHandle {
    pub(crate) shared: SharedExec,
}

impl ExecHandle {
    /// Creates a fresh operation cell bound to this executor.
    pub fn new_op<T: Send + 'static>(&self) -> OpCell<T> {
        OpCell {
            inner: Arc::new(Mutex::new(OpInner {
                result: None,
                waiter: None,
                exec: self.shared.clone(),
            })),
        }
    }

    /// Stages an event to fire `delay` after the current virtual time.
    /// Callable from task context; the run loop flushes it.
    pub fn stage(&self, delay: SimDuration, ev: Event) {
        self.shared.lock().unwrap().staged.push((delay, ev));
    }

    /// Stages an actor poke (used by pipes between processes and daemons).
    pub fn stage_poke(&self, delay: SimDuration, actor: crate::kernel::ActorId, token: u64) {
        self.stage(delay, Event::Poke { actor, token });
    }

    /// Requests the simulation loop to stop at the next opportunity.
    pub fn stage_stop(&self) {
        self.shared.lock().unwrap().stop = true;
    }

    /// Suspends the calling task for `dur` of virtual time.
    pub fn sleep(&self, dur: SimDuration) -> OpFuture<()> {
        let cell = self.new_op::<()>();
        let done = cell.clone();
        self.stage(dur, Event::closure(move |_| done.complete(())));
        cell.wait()
    }

    /// The task being polled right now. Panics outside task context.
    pub fn current_task(&self) -> TaskId {
        self.shared
            .lock()
            .unwrap()
            .current
            .expect("current_task() called outside task context")
    }

    /// Current virtual time, readable from task context. Applications use
    /// this through `Mpi::time()` for in-program measurements.
    pub fn now(&self) -> crate::time::SimTime {
        self.shared.lock().unwrap().now
    }
}

struct OpInner<T> {
    result: Option<T>,
    waiter: Option<TaskId>,
    exec: SharedExec,
}

/// A one-shot completion cell: the kernel side calls [`OpCell::complete`],
/// the task side awaits [`OpCell::wait`]. Clonable (shared ownership).
pub struct OpCell<T> {
    inner: Arc<Mutex<OpInner<T>>>,
}

impl<T> Clone for OpCell<T> {
    fn clone(&self) -> Self {
        OpCell {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Send + 'static> OpCell<T> {
    /// Completes the operation. If a task is waiting it becomes ready.
    ///
    /// Panics if the cell was already completed: operations are one-shot,
    /// a double completion is a kernel bug.
    pub fn complete(&self, value: T) {
        let mut inner = self.inner.lock().unwrap();
        assert!(inner.result.is_none(), "OpCell completed twice");
        inner.result = Some(value);
        if let Some(t) = inner.waiter.take() {
            inner.exec.lock().unwrap().ready.push_back(t);
        }
    }

    /// True once `complete` has been called and the value not yet consumed.
    pub fn is_done(&self) -> bool {
        self.inner.lock().unwrap().result.is_some()
    }

    /// Returns the future resolving to the completed value.
    pub fn wait(&self) -> OpFuture<T> {
        OpFuture {
            inner: self.inner.clone(),
        }
    }
}

/// Future returned by [`OpCell::wait`].
pub struct OpFuture<T> {
    inner: Arc<Mutex<OpInner<T>>>,
}

impl<T: Send + 'static> Future for OpFuture<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<T> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(v) = inner.result.take() {
            Poll::Ready(v)
        } else {
            let current = inner
                .exec
                .lock()
                .unwrap()
                .current
                .expect("OpFuture polled outside task context");
            inner.waiter = Some(current);
            Poll::Pending
        }
    }
}

/// Callback run once when a task exits.
pub(crate) type OnExit = Box<dyn FnOnce(&mut crate::kernel::Sim) + Send>;

/// Storage for one spawned task.
pub(crate) struct TaskSlot {
    pub(crate) fut: Option<Pin<Box<dyn Future<Output = ()> + Send>>>,
    pub(crate) gen: u32,
    pub(crate) node: Option<crate::kernel::NodeId>,
    pub(crate) on_exit: Option<OnExit>,
}

/// A waker that does nothing: readiness is signalled through the executor's
/// ready queue by [`OpCell::complete`], never through `Waker::wake`.
pub(crate) fn noop_waker() -> Waker {
    const VTABLE: RawWakerVTable = RawWakerVTable::new(
        |_| RawWaker::new(std::ptr::null(), &VTABLE),
        |_| {},
        |_| {},
        |_| {},
    );
    // SAFETY: all vtable functions are no-ops; the data pointer is unused.
    unsafe { Waker::from_raw(RawWaker::new(std::ptr::null(), &VTABLE)) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Sim;

    #[test]
    fn op_cell_completes_before_wait() {
        let mut sim = Sim::new(1);
        let cell = sim.exec().new_op::<u32>();
        cell.complete(5);
        assert!(cell.is_done());
        sim.spawn_detached({
            let cell = cell.clone();
            async move {
                assert_eq!(cell.wait().await, 5);
            }
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "OpCell completed twice")]
    fn double_complete_panics() {
        let sim = Sim::new(1);
        let cell = sim.exec().new_op::<u32>();
        cell.complete(1);
        cell.complete(2);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let mut sim = Sim::new(1);
        let h = sim.exec();
        sim.spawn_detached(async move {
            h.sleep(SimDuration::from_micros(10)).await;
            h.sleep(SimDuration::from_micros(5)).await;
        });
        sim.run();
        assert_eq!(sim.now().as_nanos(), 15_000);
    }

    #[test]
    fn two_tasks_interleave_deterministically() {
        let mut sim = Sim::new(1);
        let log: Arc<Mutex<Vec<(u64, &'static str)>>> = Arc::new(Mutex::new(Vec::new()));
        for (name, step) in [("a", 3u64), ("b", 5u64)] {
            let h = sim.exec();
            let log = log.clone();
            sim.spawn_detached(async move {
                for _ in 0..3 {
                    h.sleep(SimDuration::from_micros(step)).await;
                    log.lock().unwrap().push((step, name));
                }
            });
        }
        sim.run();
        let got = log.lock().unwrap().clone();
        assert_eq!(
            got,
            vec![(3, "a"), (5, "b"), (3, "a"), (3, "a"), (5, "b"), (5, "b")]
        );
        assert_eq!(sim.now().as_nanos(), 15_000);
    }

    #[test]
    fn handles_and_cells_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ExecHandle>();
        assert_send::<OpCell<u64>>();
        assert_send::<OpFuture<()>>();
        assert_send::<TaskId>();
    }
}
