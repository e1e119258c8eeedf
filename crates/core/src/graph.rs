//! The antecedence graph (paper §III-B.2).
//!
//! *"This graph extends the reception sequences structure of Vcausal with
//! a relation between events of different processes. Two events e_P1 of
//! process P1 and e_P2 of process P2 are linked if and only if e_P2
//! denotes a reception of a message m sent by P1 and e_P1 is the last non
//! deterministic event preceding the emission of m."*
//!
//! Vertices are reception events keyed `(creator, clock)`; each vertex
//! has an implicit program-order edge to `(creator, clock-1)` and an
//! explicit *cause* edge to the sender's last event before the emission.
//! Stable vertices (acknowledged by the Event Logger) are pruned — the
//! paper notes the graphs "lose some vertices and incident edges" when
//! the EL acknowledges.
//!
//! # Storage: one lane per creator
//!
//! A creator's clocks are dense (1, 2, 3, …), so its unstable vertices
//! live in a contiguous lane indexed by position: slot `i` of creator
//! `c`'s lane holds clock `stable[c] + 1 + i`. Lookup, insertion and the
//! range scans of the traversal are index arithmetic, pruning drains the
//! lane from the front, and cloning the graph for a checkpoint image is a
//! contiguous copy.
//!
//! A creator's events need not arrive in clock order: a peer that knows
//! some of them are stable at *its* end skips them on the wire, and a
//! recovery `absorb` delivers whatever the responders still retain. A
//! slot that was never filled is a **hole**, marked by the sentinel
//! `clock == 0` (real clocks start at 1). Every scan skips holes, and a
//! hole never counts as a visit: the visit count is the *modelled*
//! traversal cost ([`crate::costs::CausalCosts::graph_visit_ns`] per
//! vertex), which charges the vertices a graph holds, not the empty slots
//! this layout happens to step over.

use std::collections::VecDeque;

use vlog_vmpi::{RClock, Rank};

use crate::event::Determinant;

/// The hole sentinel: a lane slot whose vertex is not held.
const HOLE: Determinant = Determinant {
    receiver: 0,
    clock: 0,
    sender: 0,
    ssn: 0,
    cause: 0,
};

fn is_vertex(d: &&Determinant) -> bool {
    d.clock != 0
}

/// One process's view of the antecedence graph.
#[derive(Clone)]
pub struct AGraph {
    n: usize,
    /// Unstable vertices per creator: slot `i` of `lanes[c]` holds clock
    /// `stable[c] + 1 + i`, or a [`HOLE`] when that vertex is not held.
    /// A lane never ends in a hole.
    lanes: Vec<VecDeque<Determinant>>,
    /// Highest clock ever seen per creator (survives pruning).
    heads: Vec<RClock>,
    /// Stability watermarks (vertices at or below are pruned); the base
    /// clock of each lane.
    stable: Vec<RClock>,
    /// Number of held vertices over all lanes (holes excluded).
    len: usize,
}

impl AGraph {
    pub fn new(n: usize) -> Self {
        AGraph {
            n,
            lanes: vec![VecDeque::new(); n],
            heads: vec![0; n],
            stable: vec![0; n],
            len: 0,
        }
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// Highest known clock of `creator` (its last event we know of).
    pub fn head(&self, creator: Rank) -> RClock {
        self.heads[creator]
    }

    pub fn stable(&self, creator: Rank) -> RClock {
        self.stable[creator]
    }

    /// Lane slot of `clock` for `creator`; `clock` must be above stable.
    fn slot(&self, creator: Rank, clock: RClock) -> usize {
        (clock - self.stable[creator] - 1) as usize
    }

    /// Inserts a vertex; returns false when it was already present or
    /// already stable. A duplicate overwrites the held copy.
    pub fn insert(&mut self, det: Determinant) -> bool {
        let c = det.receiver;
        self.heads[c] = self.heads[c].max(det.clock);
        if det.clock <= self.stable[c] {
            return false;
        }
        let i = self.slot(c, det.clock);
        let lane = &mut self.lanes[c];
        if i >= lane.len() {
            lane.resize(i, HOLE);
            lane.push_back(det);
        } else {
            let fresh = lane[i].clock == 0;
            lane[i] = det;
            if !fresh {
                return false;
            }
        }
        self.len += 1;
        true
    }

    /// Number of retained (unstable) vertices.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Applies stability watermarks, pruning covered vertices.
    pub fn apply_stable(&mut self, stable: &[RClock]) {
        for ((lane, mine), &s) in self.lanes.iter_mut().zip(&mut self.stable).zip(stable) {
            if s > *mine {
                let covered = (s - *mine).min(lane.len() as u64) as usize;
                self.len -= lane.drain(..covered).filter(|d| d.clock != 0).count();
                *mine = s;
            }
        }
    }

    /// All retained determinants, ordered by (creator, clock).
    pub fn retained(&self) -> Vec<Determinant> {
        let mut out = Vec::with_capacity(self.len);
        for lane in &self.lanes {
            out.extend(lane.iter().filter(is_vertex));
        }
        out
    }

    /// Computes the causal past of `roots` as per-creator prefixes:
    /// `past[c]` is the highest clock of `c` reachable backwards from the
    /// roots. Pruned (stable) vertices terminate the search — they are
    /// globally known. Returns the prefix vector and the number of
    /// vertices visited (the traversal cost the paper charges Manetho and
    /// LogOn for).
    pub fn causal_past(&self, roots: &[(Rank, RClock)]) -> (Vec<RClock>, u64) {
        let mut past = vec![0; self.n];
        let visits = self.causal_past_from(roots, &mut past, &mut Vec::new());
        (past, visits)
    }

    /// [`AGraph::causal_past`] with a per-creator floor, over
    /// caller-owned buffers: `past` holds the floor on entry and the
    /// prefix vector on return; regions at or below `past[c]` are treated
    /// as already covered and not walked. Manetho's incremental border
    /// computation passes its per-channel sent-cache here, so repeated
    /// sends to the same peer only traverse the events that are new since
    /// the previous send. `stack` is scratch. Returns the number of
    /// vertices visited.
    pub fn causal_past_from(
        &self,
        roots: &[(Rank, RClock)],
        past: &mut [RClock],
        stack: &mut Vec<(Rank, RClock)>,
    ) -> u64 {
        let mut visits = 0u64;
        stack.clear();
        stack.extend_from_slice(roots);
        while let Some((c, k)) = stack.pop() {
            let k = k.min(self.heads[c]);
            if k <= past[c] {
                continue;
            }
            let lo = past[c].max(self.stable[c]);
            past[c] = k;
            if lo >= k {
                continue; // the whole range is stable: globally known
            }
            // Walk the newly covered range `lo+1..=k` following cause
            // edges. The program-order chain below `lo` is already
            // covered (or stable).
            let lane = &self.lanes[c];
            let start = self.slot(c, lo + 1);
            let end = (self.slot(c, k) + 1).min(lane.len());
            if start >= end {
                continue;
            }
            for det in lane.range(start..end).filter(is_vertex) {
                visits += 1;
                if let Some(cause) = det.cause_id() {
                    stack.push((cause.creator, cause.clock));
                }
            }
        }
        visits
    }

    /// Retained determinants of `creator` with clock strictly above `lo`,
    /// ascending.
    pub fn above(&self, creator: Rank, lo: RClock) -> impl Iterator<Item = &Determinant> + '_ {
        let lane = &self.lanes[creator];
        let start = lo
            .saturating_sub(self.stable[creator])
            .min(lane.len() as u64) as usize;
        lane.range(start..).filter(is_vertex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(receiver: Rank, clock: RClock, sender: Rank, cause: RClock) -> Determinant {
        Determinant {
            receiver,
            clock,
            sender,
            ssn: clock,
            cause,
        }
    }

    /// A diamond: P0's event 1 causes P1's 1 and P2's 1; both cause P3's
    /// 1 and 2.
    fn diamond() -> AGraph {
        let mut g = AGraph::new(4);
        g.insert(det(0, 1, 3, 0));
        g.insert(det(1, 1, 0, 1));
        g.insert(det(2, 1, 0, 1));
        g.insert(det(3, 1, 1, 1));
        g.insert(det(3, 2, 2, 1));
        g
    }

    #[test]
    fn causal_past_follows_cause_and_program_order() {
        let g = diamond();
        let (past, visits) = g.causal_past(&[(3, 2)]);
        assert_eq!(past, vec![1, 1, 1, 2]);
        assert_eq!(visits, 5);
        // Past of P3's first event does not include P2's event.
        let (past1, _) = g.causal_past(&[(3, 1)]);
        assert_eq!(past1, vec![1, 1, 0, 1]);
    }

    #[test]
    fn stable_vertices_are_pruned_and_terminate_traversal() {
        let mut g = diamond();
        g.apply_stable(&[1, 1, 0, 0]);
        assert_eq!(g.len(), 3);
        // Traversal still works; stable prefixes are silently covered.
        let (past, visits) = g.causal_past(&[(3, 2)]);
        assert_eq!(past[3], 2);
        assert_eq!(past[2], 1);
        assert!(visits <= 3);
        // Re-inserting a stable determinant is refused.
        assert!(!g.insert(det(0, 1, 3, 0)));
        // Heads survive pruning.
        assert_eq!(g.head(0), 1);
    }

    #[test]
    fn insert_deduplicates() {
        let mut g = AGraph::new(2);
        assert!(g.insert(det(0, 1, 1, 0)));
        assert!(!g.insert(det(0, 1, 1, 0)));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn above_iterates_ascending_suffix() {
        let mut g = AGraph::new(1);
        for k in 1..=5 {
            g.insert(det(0, k, 0, 0));
        }
        let clocks: Vec<RClock> = g.above(0, 2).map(|d| d.clock).collect();
        assert_eq!(clocks, vec![3, 4, 5]);
    }

    #[test]
    fn retained_is_sorted_by_creator_then_clock() {
        let g = diamond();
        let r = g.retained();
        let mut sorted = r.clone();
        sorted.sort_by_key(|d| (d.receiver, d.clock));
        assert_eq!(r, sorted);
        assert_eq!(r.len(), 5);
    }
}
