//! Differential property test of the antecedence-graph store.
//!
//! [`AGraph`] keeps each creator's unstable vertices in a lane indexed by
//! clock, with holes for vertices it never received. This file checks it
//! against [`Model`], a plain `BTreeMap` per creator with the same
//! contract, over random operation sequences: inserts out of order,
//! duplicated, with gaps and below the stability watermark, interleaved
//! with stability advances (some past the head) and traversal queries
//! under random floors. Every observable must agree exactly, including
//! the traversal's visit count, which the protocol charges as modelled
//! CPU time.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vlog_core::{AGraph, Determinant};

const N: usize = 4;
/// Clocks are drawn below this bound; watermarks and queries reach past
/// it so that "past the head" cases come up.
const MAX_CLOCK: u64 = 40;

/// The reference store: what `AGraph` must be indistinguishable from.
struct Model {
    verts: Vec<BTreeMap<u64, Determinant>>,
    heads: Vec<u64>,
    stable: Vec<u64>,
}

impl Model {
    fn new() -> Model {
        Model {
            verts: vec![BTreeMap::new(); N],
            heads: vec![0; N],
            stable: vec![0; N],
        }
    }

    fn insert(&mut self, det: Determinant) -> bool {
        let c = det.receiver;
        self.heads[c] = self.heads[c].max(det.clock);
        det.clock > self.stable[c] && self.verts[c].insert(det.clock, det).is_none()
    }

    fn apply_stable(&mut self, stable: &[u64]) {
        for c in 0..N {
            if stable[c] > self.stable[c] {
                self.stable[c] = stable[c];
                self.verts[c] = self.verts[c].split_off(&(stable[c] + 1));
            }
        }
    }

    fn retained(&self) -> Vec<Determinant> {
        self.verts
            .iter()
            .flat_map(|m| m.values().copied())
            .collect()
    }

    fn above(&self, c: usize, lo: u64) -> Vec<Determinant> {
        self.verts[c].range(lo + 1..).map(|(_, d)| *d).collect()
    }

    fn causal_past_from(&self, roots: &[(usize, u64)], floor: &[u64]) -> (Vec<u64>, u64) {
        let mut past = floor.to_vec();
        let mut visits = 0;
        let mut stack = roots.to_vec();
        while let Some((c, k)) = stack.pop() {
            let k = k.min(self.heads[c]);
            if k <= past[c] {
                continue;
            }
            let lo = past[c].max(self.stable[c]);
            past[c] = k;
            if lo >= k {
                continue;
            }
            for det in self.verts[c].range(lo + 1..=k).map(|(_, d)| d) {
                visits += 1;
                if det.cause > 0 {
                    stack.push((det.sender, det.cause));
                }
            }
        }
        (past, visits)
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Determinant),
    Stable(Vec<u64>),
    Query(Vec<(usize, u64)>, Vec<u64>),
}

fn insert_op() -> impl Strategy<Value = Op> {
    // Clock 0 is the store's hole sentinel: a real event never has it,
    // and the store must refuse it like any stable clock.
    (0..N, 0..MAX_CLOCK, 0..N, 0..MAX_CLOCK, 0u64..3).prop_map(
        |(receiver, clock, sender, cause, ssn)| {
            Op::Insert(Determinant {
                receiver,
                clock,
                sender,
                ssn,
                cause,
            })
        },
    )
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        insert_op(),
        insert_op(),
        insert_op(),
        insert_op(),
        prop::collection::vec(0..MAX_CLOCK + 8, N).prop_map(Op::Stable),
        (
            prop::collection::vec((0..N, 0..MAX_CLOCK + 8), 1..4),
            prop::collection::vec(0..MAX_CLOCK + 8, N),
        )
            .prop_map(|(roots, floor)| Op::Query(roots, floor)),
    ];
    prop::collection::vec(op, 1..160)
}

/// Every read-only observable of the two stores must agree.
fn assert_same(g: &AGraph, m: &Model) {
    assert_eq!(g.retained(), m.retained(), "retained");
    assert_eq!(g.len(), m.retained().len(), "len");
    assert_eq!(g.is_empty(), m.retained().is_empty(), "is_empty");
    for c in 0..N {
        assert_eq!(g.head(c), m.heads[c], "head({c})");
        assert_eq!(g.stable(c), m.stable[c], "stable({c})");
        for lo in 0..=MAX_CLOCK + 8 {
            let got: Vec<Determinant> = g.above(c, lo).copied().collect();
            assert_eq!(got, m.above(c, lo), "above({c}, {lo})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lane_store_matches_btreemap_model(ops in ops()) {
        let mut g = AGraph::new(N);
        let mut m = Model::new();
        // A reused traversal stack left dirty on purpose: the store must
        // not depend on what a previous caller left in it.
        let mut stack = vec![(N - 1, MAX_CLOCK)];
        for op in &ops {
            match op {
                Op::Insert(det) => {
                    prop_assert_eq!(g.insert(*det), m.insert(*det), "insert {:?}", det);
                }
                Op::Stable(wm) => {
                    g.apply_stable(wm);
                    m.apply_stable(wm);
                }
                Op::Query(roots, floor) => {
                    let mut past = floor.clone();
                    let visits = g.causal_past_from(roots, &mut past, &mut stack);
                    prop_assert_eq!((past, visits), m.causal_past_from(roots, floor));
                    stack.push((0, MAX_CLOCK));
                }
            }
            assert_same(&g, &m);
        }
        // A checkpoint copy is an independent, equal store.
        let snapshot = g.clone();
        g.apply_stable(&[MAX_CLOCK + 8; N]);
        assert_same(&snapshot, &m);
    }
}
