//! Protocol-phase boundaries and phase-triggered fault injection.
//!
//! A timed [`crate::FaultPlan`] kills a rank at a fixed virtual instant
//! — which protocol step that instant lands on is an accident of the
//! seed and the scale. Phase faults instead crash a rank exactly when it
//! crosses an *enumerated protocol-phase boundary* (the `n`-th marker
//! broadcast, determinant shipment, Event-Logger ack, checkpoint-image
//! fetch), so a schedule explorer can enumerate the fault-timing space
//! structurally instead of sampling wall-clock instants.
//!
//! Protocols report boundary crossings through
//! [`crate::hooks::Ctx::phase_boundary`]; the cluster builder arms a
//! [`PhaseFaultArmature`] from the plan's [`PhaseFault`]s and wires it
//! to the dispatcher, so a triggered fault follows the exact crash →
//! detect → relaunch path of a timed fault.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use vlog_sim::{ActorId, Event, NodeId, Sim, SimDuration, WireSize};

use crate::dispatcher::DispatcherMsg;
use crate::types::Rank;

/// An enumerated protocol-phase boundary a rank can cross.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProtoPhase {
    /// A coordinated-checkpoint marker broadcast left this rank.
    MarkerSent,
    /// A determinant record was shipped to the Event Logger.
    DeterminantShipped,
    /// An Event-Logger stability ack was applied by this rank.
    AckReceived,
    /// This rank's checkpoint image arrived and its restart completed.
    ImageFetched,
}

/// A fault armed on a phase boundary: crash `rank` the `nth` time
/// (1-based) it crosses `phase`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseFault {
    /// Which boundary triggers the crash.
    pub phase: ProtoPhase,
    /// The rank to kill.
    pub rank: Rank,
    /// Which crossing triggers it (1 = the first).
    pub nth: u64,
}

struct ArmState {
    pending: Vec<PhaseFault>,
    counts: BTreeMap<(Rank, ProtoPhase), u64>,
}

/// Dispatcher-side wiring, installed by the cluster builder once the
/// dispatcher actor exists.
struct Wiring {
    dispatcher: ActorId,
    stable_node: NodeId,
    detect_delay: SimDuration,
    rank_nodes: Vec<NodeId>,
}

/// Shared between the cluster builder (which arms and wires it) and
/// every daemon (which reports crossings through its [`crate::Topology`]
/// handle). Genuine cross-ownership sharing, hence `Arc`; per-run, so
/// the mutex is uncontended.
pub struct PhaseFaultArmature {
    state: Mutex<ArmState>,
    wiring: Mutex<Option<Wiring>>,
}

impl PhaseFaultArmature {
    /// Arms `faults`; crossings match them in arming order.
    pub fn new(faults: Vec<PhaseFault>) -> Arc<Self> {
        Arc::new(PhaseFaultArmature {
            state: Mutex::new(ArmState {
                pending: faults,
                counts: BTreeMap::new(),
            }),
            wiring: Mutex::new(None),
        })
    }

    /// Connects the armature to the dispatcher (crash notification path).
    /// Called once by the cluster builder.
    pub fn wire(
        &self,
        dispatcher: ActorId,
        stable_node: NodeId,
        detect_delay: SimDuration,
        rank_nodes: Vec<NodeId>,
    ) {
        *self.wiring.lock().unwrap() = Some(Wiring {
            dispatcher,
            stable_node,
            detect_delay,
            rank_nodes,
        });
    }

    /// Records that `rank` crossed `phase`; when an armed fault matches,
    /// the crash is scheduled at the current instant (never re-entering
    /// the reporting handler) and the dispatcher is notified after the
    /// same detection delay a timed fault uses.
    pub fn crossed(&self, sim: &mut Sim, rank: Rank, phase: ProtoPhase) {
        let hit = {
            let mut st = self.state.lock().unwrap();
            let count = st.counts.entry((rank, phase)).or_insert(0);
            *count += 1;
            let n = *count;
            st.pending
                .iter()
                .position(|f| f.rank == rank && f.phase == phase && f.nth == n)
                .map(|pos| st.pending.remove(pos))
        };
        let Some(fault) = hit else { return };
        let w = self.wiring.lock().unwrap();
        let Some(w) = w.as_ref() else { return };
        let node = w.rank_nodes[fault.rank];
        sim.schedule(
            SimDuration::ZERO,
            Event::closure(move |sim| {
                sim.crash_node(node);
            }),
        );
        let dispatcher = w.dispatcher;
        let stable_node = w.stable_node;
        let rank = fault.rank;
        sim.after(w.detect_delay, move |sim| {
            sim.local_send(
                stable_node,
                dispatcher,
                WireSize::default(),
                Box::new(DispatcherMsg::Fault { rank }),
                SimDuration::from_micros(1),
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_crossing_arithmetic_matches_in_order() {
        let arm = PhaseFaultArmature::new(vec![PhaseFault {
            phase: ProtoPhase::DeterminantShipped,
            rank: 1,
            nth: 2,
        }]);
        // Unwired armatures count crossings but cannot fire; exercised
        // here purely for the matching logic.
        let mut sim = Sim::new(1);
        arm.crossed(&mut sim, 1, ProtoPhase::DeterminantShipped);
        assert_eq!(arm.state.lock().unwrap().pending.len(), 1, "nth=2 not yet");
        arm.crossed(&mut sim, 0, ProtoPhase::DeterminantShipped);
        assert_eq!(arm.state.lock().unwrap().pending.len(), 1, "other rank");
        arm.crossed(&mut sim, 1, ProtoPhase::AckReceived);
        assert_eq!(arm.state.lock().unwrap().pending.len(), 1, "other phase");
        arm.crossed(&mut sim, 1, ProtoPhase::DeterminantShipped);
        assert!(arm.state.lock().unwrap().pending.is_empty(), "2nd crossing");
    }
}
