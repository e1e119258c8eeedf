//! Property-based tests of the piggyback-reduction layer.
//!
//! The central safety property of causal message logging: **whenever a
//! process receives a message, its causality knowledge must afterwards
//! cover the entire unstable causal past of that message** — otherwise a
//! crash of some third process could orphan the receiver. We check it for
//! all three reduction techniques against a brute-force set-based oracle
//! over randomly generated executions, alongside the no-resend-per-channel
//! guarantee and the codec roundtrips.

use std::collections::BTreeSet;

use proptest::prelude::*;
use vlog_core::{
    decode_factored, decode_flat, encode_factored, encode_flat, factored_len, flat_len,
    make_reduction, Determinant, Reduction, Technique,
};

const N: usize = 4;

/// A randomly generated execution: a sequence of (from, to) messages.
fn exec_strategy(max_len: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..N, 0..N - 1), 1..max_len).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(from, to_raw)| {
                // Skew `to` away from `from` to get a valid pair.
                let to = if to_raw >= from { to_raw + 1 } else { to_raw };
                (from, to)
            })
            .collect()
    })
}

/// One step of an execution with Event Logger stability mixed in.
#[derive(Debug, Clone)]
enum Step {
    /// An application message `from -> to`.
    Msg(usize, usize),
    /// The EL's stable watermark of `creator` rises by `delta`, capped at
    /// the events that creator has created so far.
    Advance(usize, u64),
    /// `rank` applies the EL's current stable vector (acks reach ranks at
    /// different times, so ranks lag one another).
    Apply(usize),
    /// `rank` gets a GC notice carrying the vector `peer` last applied.
    Notice(usize, usize),
}

fn steps_strategy(max_len: usize) -> impl Strategy<Value = Vec<Step>> {
    let msg = || {
        (0..N, 0..N - 1).prop_map(|(from, to_raw)| {
            let to = if to_raw >= from { to_raw + 1 } else { to_raw };
            Step::Msg(from, to)
        })
    };
    let step = prop_oneof![
        msg(),
        msg(),
        msg(),
        msg(),
        (0..N, 1u64..4).prop_map(|(c, d)| Step::Advance(c, d)),
        (0..N).prop_map(Step::Apply),
        (0..N, 0..N).prop_map(|(r, p)| Step::Notice(r, p)),
    ];
    prop::collection::vec(step, 1..max_len)
}

/// Brute-force oracle: each process's knowledge as an explicit event set.
struct Oracle {
    knows: Vec<BTreeSet<(usize, u64)>>,
    clocks: Vec<u64>,
}

impl Oracle {
    fn new() -> Oracle {
        Oracle {
            knows: vec![BTreeSet::new(); N],
            clocks: vec![0; N],
        }
    }

    /// Applies one message and returns the new event plus the message's
    /// causal past (the sender's knowledge at emission).
    fn step(&mut self, from: usize, to: usize) -> ((usize, u64), BTreeSet<(usize, u64)>) {
        let past = self.knows[from].clone();
        self.clocks[to] += 1;
        let ev = (to, self.clocks[to]);
        let union: BTreeSet<_> = self.knows[to].union(&past).copied().collect();
        self.knows[to] = union;
        self.knows[to].insert(ev);
        (ev, past)
    }
}

/// Runs an execution through real reductions while checking the safety
/// property against the oracle.
fn run_checked(technique: Technique, msgs: &[(usize, usize)]) {
    let mut reds: Vec<Box<dyn Reduction>> = (0..N).map(|_| make_reduction(technique, N)).collect();
    let mut oracle = Oracle::new();
    let mut clocks = vec![0u64; N];
    let mut ssn = vec![vec![0u64; N]; N];
    for &(from, to) in msgs {
        let (pb, _) = reds[from].build(to);
        // Safety: after integrating, the receiver must know the whole
        // causal past of the message.
        let (ev, past) = oracle.step(from, to);
        reds[to].integrate(from, clocks[from], &pb);
        clocks[to] += 1;
        assert_eq!(clocks[to], ev.1);
        let det = Determinant {
            receiver: to,
            clock: clocks[to],
            sender: from,
            ssn: ssn[from][to],
            cause: clocks[from],
        };
        ssn[from][to] += 1;
        reds[to].add_local(det);
        let retained: BTreeSet<(usize, u64)> = reds[to]
            .retained()
            .into_iter()
            .map(|d| (d.receiver, d.clock))
            .collect();
        for needed in &past {
            assert!(
                retained.contains(needed),
                "{technique:?}: receiver {to} missing event {needed:?} from the \
                 causal past of a message it received"
            );
        }
    }
}

/// LogOn's emission order: ascending per creator, and no determinant
/// after one of its ancestors' descendants — for every emitted event,
/// each emitted event of its cause's creator at or below the cause clock
/// (the cause and its program-order predecessors) comes first.
fn check_ancestors_first(pb: &[Determinant]) {
    for (i, d) in pb.iter().enumerate() {
        let later = &pb[i + 1..];
        assert!(
            later
                .iter()
                .all(|e| e.receiver != d.receiver || e.clock > d.clock),
            "LogOn emitted creator {} out of clock order: {pb:?}",
            d.receiver
        );
        if let Some(cause) = d.cause_id() {
            assert!(
                later
                    .iter()
                    .all(|e| e.receiver != cause.creator || e.clock > cause.clock),
                "LogOn emitted an ancestor of ({}, {}) after it: {pb:?}",
                d.receiver,
                d.clock
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn causal_past_is_always_covered(msgs in exec_strategy(60)) {
        for t in [Technique::Vcausal, Technique::Manetho, Technique::LogOn] {
            run_checked(t, &msgs);
        }
    }

    #[test]
    fn no_event_is_piggybacked_twice_on_one_channel(msgs in exec_strategy(60)) {
        for t in [Technique::Vcausal, Technique::Manetho, Technique::LogOn] {
            let mut reds: Vec<Box<dyn Reduction>> =
                (0..N).map(|_| make_reduction(t, N)).collect();
            let mut clocks = vec![0u64; N];
            // sent[from][to]: events already piggybacked on that channel.
            let mut sent: Vec<Vec<BTreeSet<(usize, u64)>>> =
                vec![vec![BTreeSet::new(); N]; N];
            for &(from, to) in &msgs {
                let (pb, _) = reds[from].build(to);
                for d in &pb {
                    let key = (d.receiver, d.clock);
                    prop_assert!(
                        sent[from][to].insert(key),
                        "{:?}: event {:?} resent on channel {}->{}",
                        t, key, from, to
                    );
                }
                reds[to].integrate(from, clocks[from], &pb);
                clocks[to] += 1;
                reds[to].add_local(Determinant {
                    receiver: to,
                    clock: clocks[to],
                    sender: from,
                    ssn: 0,
                    cause: clocks[from],
                });
            }
        }
    }

    #[test]
    fn graph_methods_never_send_receiver_its_own_events(msgs in exec_strategy(60)) {
        for t in [Technique::Manetho, Technique::LogOn] {
            let mut reds: Vec<Box<dyn Reduction>> =
                (0..N).map(|_| make_reduction(t, N)).collect();
            let mut clocks = vec![0u64; N];
            for &(from, to) in &msgs {
                let (pb, _) = reds[from].build(to);
                prop_assert!(
                    pb.iter().all(|d| d.receiver != to),
                    "{:?}: sent {} its own event", t, to
                );
                reds[to].integrate(from, clocks[from], &pb);
                clocks[to] += 1;
                reds[to].add_local(Determinant {
                    receiver: to,
                    clock: clocks[to],
                    sender: from,
                    ssn: 0,
                    cause: clocks[from],
                });
            }
        }
    }

    #[test]
    fn graph_methods_agree_per_build_under_stability(steps in steps_strategy(120)) {
        // Manetho and LogOn run the same execution side by side. Their
        // stores evolve identically as long as every build emits the same
        // set, which is the first thing checked.
        let techniques = [Technique::Manetho, Technique::LogOn];
        let mut worlds: Vec<Vec<Box<dyn Reduction>>> = techniques
            .iter()
            .map(|&t| (0..N).map(|_| make_reduction(t, N)).collect())
            .collect();
        let mut clocks = vec![0u64; N];
        let mut el_stable = vec![0u64; N];
        let mut applied = vec![vec![0u64; N]; N];
        let mut sent: Vec<Vec<Vec<BTreeSet<(usize, u64)>>>> =
            vec![vec![vec![BTreeSet::new(); N]; N]; techniques.len()];
        for step in &steps {
            match *step {
                Step::Msg(from, to) => {
                    let held: BTreeSet<(usize, u64)> = worlds[1][from]
                        .retained()
                        .iter()
                        .map(|d| (d.receiver, d.clock))
                        .collect();
                    let pbs: Vec<Vec<Determinant>> =
                        worlds.iter_mut().map(|reds| reds[from].build(to).0).collect();
                    let sets: Vec<BTreeSet<(usize, u64)>> = pbs
                        .iter()
                        .map(|pb| pb.iter().map(|d| (d.receiver, d.clock)).collect())
                        .collect();
                    prop_assert_eq!(&sets[0], &sets[1], "Manetho and LogOn sets differ");
                    for (w, pb) in pbs.iter().enumerate() {
                        for d in pb {
                            prop_assert!(
                                sent[w][from][to].insert((d.receiver, d.clock)),
                                "{:?}: event ({}, {}) resent on channel {}->{}",
                                techniques[w], d.receiver, d.clock, from, to
                            );
                        }
                    }
                    // LogOn orders by the causes it can resolve: held,
                    // stable at the sender, or the receiver's own. A
                    // cause the sender never held (pruned upstream before
                    // this rank applied the same watermark) sends the
                    // build down its flush fallback, which keeps creator
                    // order only, so those builds are not checked here.
                    let resolvable = |d: &Determinant| {
                        d.cause_id().is_none_or(|id| {
                            id.creator == to
                                || id.clock <= applied[from][id.creator]
                                || held.contains(&(id.creator, id.clock))
                        })
                    };
                    if pbs[1].iter().all(resolvable) {
                        check_ancestors_first(&pbs[1]);
                    }
                    for (reds, pb) in worlds.iter_mut().zip(&pbs) {
                        reds[to].integrate(from, clocks[from], pb);
                    }
                    clocks[to] += 1;
                    let det = Determinant {
                        receiver: to,
                        clock: clocks[to],
                        sender: from,
                        ssn: 0,
                        cause: clocks[from],
                    };
                    for reds in &mut worlds {
                        reds[to].add_local(det);
                    }
                }
                Step::Advance(c, delta) => {
                    el_stable[c] = (el_stable[c] + delta).min(clocks[c]);
                }
                Step::Apply(rank) => {
                    applied[rank] = el_stable.clone();
                    for reds in &mut worlds {
                        reds[rank].apply_stable(&el_stable);
                    }
                }
                Step::Notice(rank, peer) => {
                    for reds in &mut worlds {
                        reds[rank].note_peer_stable(peer, &applied[peer]);
                    }
                }
            }
        }
    }

    #[test]
    fn codec_roundtrips(dets in prop::collection::vec(
        (0..N, 1u64..1000, 0..N, 0u64..1000, 0u64..1000),
        0..50,
    )) {
        let mut dets: Vec<Determinant> = dets
            .into_iter()
            .map(|(receiver, clock, sender, ssn, cause)| Determinant {
                receiver,
                clock,
                sender,
                ssn,
                cause,
            })
            .collect();
        // Flat preserves arbitrary order. All generated fields are in
        // wire range, so encoding cannot fail.
        let flat = encode_flat(&dets).expect("in-range determinants encode");
        prop_assert_eq!(flat.len() as u64, flat_len(&dets));
        prop_assert_eq!(decode_flat(flat).unwrap(), dets.clone());
        // Factored groups runs of equal receiver; canonicalize first.
        dets.sort_by_key(|d| (d.receiver, d.clock));
        let fac = encode_factored(&dets).expect("in-range determinants encode");
        prop_assert_eq!(fac.len() as u64, factored_len(&dets));
        prop_assert_eq!(decode_factored(fac).unwrap(), dets);
    }

    #[test]
    fn stability_never_loses_unstable_events(
        msgs in exec_strategy(40),
        stable_at in prop::collection::vec(0u64..10, N),
    ) {
        for t in [Technique::Vcausal, Technique::Manetho, Technique::LogOn] {
            let mut red = make_reduction(t, N);
            let mut clocks = vec![0u64; N];
            for &(from, to) in &msgs {
                let _ = from;
                clocks[to] += 1;
                red.add_local(Determinant {
                    receiver: to,
                    clock: clocks[to],
                    sender: from,
                    ssn: 0,
                    cause: 0,
                });
            }
            red.apply_stable(&stable_at);
            for d in red.retained() {
                prop_assert!(
                    d.clock > stable_at[d.receiver],
                    "{:?}: stable event retained", t
                );
            }
            // Everything above the watermark is still there.
            let expect: usize = (0..N)
                .map(|c| clocks[c].saturating_sub(stable_at[c]) as usize)
                .sum();
            prop_assert_eq!(red.retained_count(), expect);
        }
    }
}
