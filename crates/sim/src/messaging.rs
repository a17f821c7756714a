//! Message-level emulation of Willow's control plane (paper Fig. 2, §V-A1).
//!
//! The controller in `willow-core` is level-synchronous: one `step()`
//! atomically aggregates demands and distributes budgets. The real system
//! is distributed — PMUs exchange messages with per-hop latency `α` — and
//! the paper's stability argument rests on the *measured* propagation
//! delay `δ ≤ h·α` being much smaller than `Δ_D`. This module emulates the
//! message plane: demand reports climb the tree one hop per `α`, budget
//! directives descend likewise, and the emulation records exactly when
//! every site converged on an update, so δ can be measured instead of
//! assumed.
//!
//! [`emulate_round`] can subject every message to loss (timeout +
//! retransmission, +2α per lost attempt), delay (+α) and duplication (a
//! second copy one hop later; receivers deduplicate by sequence number) —
//! the control-plane half of the fault-injection story.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use willow_thermal::units::{Seconds, Watts};
use willow_topology::{NodeId, Tree};

/// A control message in flight.
#[derive(Debug, Clone, PartialEq)]
enum Payload {
    /// Demand report, carrying the subtree's aggregated demand.
    Report(Watts),
    /// Budget directive for the receiving node.
    Directive(Watts),
}

/// Rank used to order payload kinds deterministically (reports before
/// directives at the same instant — matching the up-then-down flow).
fn kind_rank(p: &Payload) -> u8 {
    match p {
        Payload::Report(_) => 0,
        Payload::Directive(_) => 1,
    }
}

#[derive(Debug, Clone)]
struct InFlight {
    deliver_at: f64,
    from: NodeId,
    to: NodeId,
    payload: Payload,
    /// Logical message number: unique per send, shared by duplicates.
    seq: u64,
}

// BinaryHeap ordering by delivery time, earliest first via `Reverse`. The
// tie-break covers every discriminating field — `(deliver_at, to, from,
// payload kind, seq)` — so delivery order is fully deterministic even when
// many messages share a delivery instant (which they always do on a
// uniform tree), instead of depending on heap insertion order.
impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for InFlight {}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.deliver_at
            .total_cmp(&other.deliver_at)
            .then_with(|| self.to.cmp(&other.to))
            .then_with(|| self.from.cmp(&other.from))
            .then_with(|| kind_rank(&self.payload).cmp(&kind_rank(&other.payload)))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-message fault probabilities for the control plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MessageFaults {
    /// Probability a transmission attempt is lost. Lost attempts are
    /// detected by timeout and retransmitted, costing 2α each (one α for
    /// the timeout, one for the retry). Must be < 1.
    pub loss: f64,
    /// Probability a delivered message is duplicated; the copy arrives one
    /// α later and is discarded by the receiver's sequence-number dedup.
    pub duplication: f64,
    /// Probability a message is delayed by one extra α in transit.
    pub delay: f64,
    /// A severed link: every message between this node pair (either
    /// direction) is dropped outright — no timeout/retransmission can save
    /// it, so the round genuinely fails to converge. This is the 100%-loss
    /// case that probabilistic `loss` (capped below 1) cannot express.
    pub dead_link: Option<(NodeId, NodeId)>,
}

impl MessageFaults {
    /// True when every probability is zero and no link is severed.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.loss == 0.0 && self.duplication == 0.0 && self.delay == 0.0 && self.dead_link.is_none()
    }

    fn kills(&self, from: NodeId, to: NodeId) -> bool {
        self.dead_link == Some((from, to)) || self.dead_link == Some((to, from))
    }
}

/// Result of emulating one reporting round.
///
/// Convergence instants are `None` when the round never converged (e.g. a
/// severed link partitioned the tree) — there is deliberately no sentinel
/// value, so unconverged rounds cannot masquerade as timing samples in
/// downstream statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// When the root had received every leaf's report (the upward δ), or
    /// `None` if it never did.
    pub root_converged_at: Option<Seconds>,
    /// When every leaf had received its budget directive (the downward δ),
    /// or `None` if some leaf never did.
    pub leaves_converged_at: Option<Seconds>,
    /// Logical messages processed (duplicates excluded).
    pub messages: usize,
    /// The root's aggregated view of total demand.
    pub root_view: Watts,
}

impl RoundOutcome {
    /// True when both the upward and downward waves completed.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.root_converged_at.is_some() && self.leaves_converged_at.is_some()
    }
}

/// [`RoundOutcome`] plus the fault accounting of a faulty round.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyRoundOutcome {
    /// The round's timing and aggregation outcome.
    pub outcome: RoundOutcome,
    /// Transmission attempts lost (each cost 2α before the retransmission
    /// got through).
    pub lost: usize,
    /// Messages duplicated in transit (the copies were deduplicated).
    pub duplicated: usize,
    /// Messages delayed by an extra α.
    pub delayed: usize,
    /// Total physical deliveries, duplicates included.
    pub deliveries: usize,
}

/// Message-plane counters and the convergence-latency histogram. The
/// `Default` value is disabled; [`MessagingTelemetry::register`] wires the
/// handles to a registry, and [`observe_round`](Self::observe_round) folds
/// one emulated round's outcome in — allocation-free, so sweeping many
/// rounds stays cheap.
#[derive(Debug, Clone, Default)]
pub struct MessagingTelemetry {
    sent: willow_telemetry::Counter,
    lost: willow_telemetry::Counter,
    duplicated: willow_telemetry::Counter,
    delayed: willow_telemetry::Counter,
    unconverged_rounds: willow_telemetry::Counter,
    convergence: willow_telemetry::Histogram,
}

impl MessagingTelemetry {
    /// Register the message-plane metrics on `registry`.
    #[must_use]
    pub fn register(registry: &willow_telemetry::TelemetryRegistry) -> Self {
        MessagingTelemetry {
            sent: registry.counter(
                "willow_messages_sent_total",
                "Logical control messages delivered (duplicates excluded)",
            ),
            lost: registry.counter(
                "willow_messages_lost_total",
                "Transmission attempts lost in transit",
            ),
            duplicated: registry.counter(
                "willow_messages_duplicated_total",
                "Messages duplicated in transit (copies deduplicated)",
            ),
            delayed: registry.counter(
                "willow_messages_delayed_total",
                "Messages delayed by an extra hop latency",
            ),
            unconverged_rounds: registry.counter(
                "willow_rounds_unconverged_total",
                "Emulated rounds that never converged (e.g. severed link)",
            ),
            convergence: registry.duration_histogram(
                "willow_round_convergence_seconds",
                "Full-round convergence latency (leaves' directive receipt)",
            ),
        }
    }

    /// Fold one emulated round into the counters. Rounds that never
    /// converged count into `willow_rounds_unconverged_total` instead of
    /// contributing a (meaningless) latency sample.
    pub fn observe_round(&self, round: &FaultyRoundOutcome) {
        self.sent.add(round.outcome.messages as u64);
        self.lost.add(round.lost as u64);
        self.duplicated.add(round.duplicated as u64);
        self.delayed.add(round.delayed as u64);
        match round.outcome.leaves_converged_at {
            Some(at) => self.convergence.record(at.0),
            None => self.unconverged_rounds.inc(),
        }
    }
}

/// Reusable working storage for [`emulate_round`]: the delivery queue,
/// the duplicate-dedup set and the per-node aggregation buffers, kept
/// across rounds so repeated emulation (fault sweeps, the message-plane
/// benchmark) does not reallocate them every call. A fresh scratch and a
/// reused one give bit-for-bit identical rounds.
#[derive(Debug, Default)]
pub struct RoundScratch {
    queue: BinaryHeap<Reverse<InFlight>>,
    seen: HashSet<u64>,
    pending_children: Vec<usize>,
    aggregate: Vec<Watts>,
    leaves: Vec<NodeId>,
}

/// Emulate one full demand-report + budget-directive round over `tree`
/// with per-hop latency `alpha`, every message subject to the loss,
/// duplication and delay in `faults`, drawn from a dedicated RNG seeded
/// with `seed`. Leaf demands are given per leaf (arena order of
/// `tree.leaves()`); the root divides `supply` equally per watt of
/// reported demand (the emulation measures *timing*, not policy). With
/// every fault probability at zero the round is the fault-free one,
/// whatever the seed.
///
/// Interior nodes forward their aggregate upward only once all their
/// children's reports have arrived — exactly the one-way update flow of
/// §V-A1. `scratch` is working storage only.
///
/// # Panics
/// Panics if `alpha` is not positive, `demands` does not match the leaf
/// count, or `faults.loss` is not in `[0, 1)` (a loss rate of 1 would
/// retransmit forever).
#[must_use]
pub fn emulate_round(
    tree: &Tree,
    alpha: Seconds,
    demands: &[Watts],
    supply: Watts,
    faults: &MessageFaults,
    seed: u64,
    scratch: &mut RoundScratch,
) -> FaultyRoundOutcome {
    assert!(alpha.is_positive(), "per-hop latency must be positive");
    assert!(
        (0.0..1.0).contains(&faults.loss),
        "loss probability must be in [0,1)"
    );
    scratch.leaves.clear();
    scratch.leaves.extend(tree.leaves());
    let leaves = &scratch.leaves;
    assert_eq!(leaves.len(), demands.len(), "one demand per leaf");

    let n = tree.len();
    scratch.pending_children.clear();
    scratch
        .pending_children
        .extend((0..n).map(|i| tree.children(NodeId(i as u32)).len()));
    let pending_children = &mut scratch.pending_children;
    scratch.aggregate.clear();
    scratch.aggregate.resize(n, Watts::ZERO);
    let aggregate = &mut scratch.aggregate;
    scratch.queue.clear();
    let queue = &mut scratch.queue;
    scratch.seen.clear();
    let seen = &mut scratch.seen;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_seq = 0u64;
    let (mut lost, mut duplicated, mut delayed, mut deliveries) = (0usize, 0usize, 0usize, 0usize);
    let mut messages = 0usize;

    let mut send = |queue: &mut BinaryHeap<Reverse<InFlight>>,
                    rng: &mut StdRng,
                    sent_at: f64,
                    from: NodeId,
                    to: NodeId,
                    payload: Payload,
                    lost: &mut usize,
                    duplicated: &mut usize,
                    delayed: &mut usize| {
        if faults.kills(from, to) {
            // The link is severed: the message and every retransmission of
            // it die on the wire. One lost attempt is recorded; nothing is
            // queued, so the receiver simply never hears it.
            *lost += 1;
            return;
        }
        let seq = next_seq;
        next_seq += 1;
        let mut at = sent_at + alpha.0;
        // Each lost attempt is detected by timeout and retransmitted.
        while rng.gen_bool(faults.loss) {
            *lost += 1;
            at += 2.0 * alpha.0;
        }
        if rng.gen_bool(faults.delay) {
            *delayed += 1;
            at += alpha.0;
        }
        let msg = InFlight {
            deliver_at: at,
            from,
            to,
            payload,
            seq,
        };
        if rng.gen_bool(faults.duplication) {
            *duplicated += 1;
            let mut copy = msg.clone();
            copy.deliver_at += alpha.0;
            queue.push(Reverse(copy));
        }
        queue.push(Reverse(msg));
    };

    // Leaves report at t = 0 (their own measurement is local).
    for (leaf, &d) in leaves.iter().zip(demands) {
        aggregate[leaf.index()] = d;
        if let Some(parent) = tree.parent(*leaf) {
            send(
                queue,
                &mut rng,
                0.0,
                *leaf,
                parent,
                Payload::Report(d),
                &mut lost,
                &mut duplicated,
                &mut delayed,
            );
        }
    }

    let root = tree.root();
    let mut root_converged_at = if tree.len() == 1 { Some(0.0) } else { None };
    let mut leaves_pending = leaves.len();
    let mut leaves_converged_at = None;

    while let Some(Reverse(msg)) = queue.pop() {
        deliveries += 1;
        if !seen.insert(msg.seq) {
            continue; // duplicate delivery, already processed
        }
        messages += 1;
        let now = msg.deliver_at;
        match msg.payload {
            Payload::Report(w) => {
                let i = msg.to.index();
                aggregate[i] += w;
                pending_children[i] -= 1;
                if pending_children[i] == 0 {
                    if msg.to == root {
                        root_converged_at = Some(now);
                        // Root issues budget directives downward.
                        let total = aggregate[root.index()];
                        let scale = if total.0 > 0.0 { supply / total } else { 0.0 };
                        for &c in tree.children(root) {
                            send(
                                queue,
                                &mut rng,
                                now,
                                root,
                                c,
                                Payload::Directive(aggregate[c.index()] * scale),
                                &mut lost,
                                &mut duplicated,
                                &mut delayed,
                            );
                        }
                        if tree.children(root).is_empty() {
                            leaves_converged_at = Some(now);
                        }
                    } else {
                        let parent = tree.parent(msg.to).expect("non-root has parent");
                        send(
                            queue,
                            &mut rng,
                            now,
                            msg.to,
                            parent,
                            Payload::Report(aggregate[i]),
                            &mut lost,
                            &mut duplicated,
                            &mut delayed,
                        );
                    }
                }
            }
            Payload::Directive(budget) => {
                let i = msg.to.index();
                if tree.is_leaf(msg.to) {
                    leaves_pending -= 1;
                    if leaves_pending == 0 {
                        leaves_converged_at = Some(now);
                    }
                } else {
                    // Split proportionally to the aggregates seen on the
                    // way up and forward.
                    let total = aggregate[i];
                    for &c in tree.children(msg.to) {
                        let share = if total.0 > 0.0 {
                            budget * (aggregate[c.index()] / total)
                        } else {
                            Watts::ZERO
                        };
                        send(
                            queue,
                            &mut rng,
                            now,
                            msg.to,
                            c,
                            Payload::Directive(share),
                            &mut lost,
                            &mut duplicated,
                            &mut delayed,
                        );
                    }
                }
            }
        }
    }

    FaultyRoundOutcome {
        outcome: RoundOutcome {
            root_converged_at: root_converged_at.map(Seconds),
            leaves_converged_at: leaves_converged_at.map(Seconds),
            messages,
            root_view: aggregate[root.index()],
        },
        lost,
        duplicated,
        delayed,
        deliveries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use willow_core::convergence::ConvergenceAnalysis;

    /// A fault-free round on fresh scratch.
    fn clean_round(tree: &Tree, alpha: Seconds, demands: &[Watts], supply: Watts) -> RoundOutcome {
        faulty_round(tree, alpha, demands, supply, &MessageFaults::default(), 0).outcome
    }

    /// A round under `faults` on fresh scratch.
    fn faulty_round(
        tree: &Tree,
        alpha: Seconds,
        demands: &[Watts],
        supply: Watts,
        faults: &MessageFaults,
        seed: u64,
    ) -> FaultyRoundOutcome {
        let mut scratch = RoundScratch::default();
        emulate_round(tree, alpha, demands, supply, faults, seed, &mut scratch)
    }

    #[test]
    fn upward_delta_is_height_times_alpha() {
        let tree = Tree::paper_fig3(); // height 3
        let demands = vec![Watts(10.0); 18];
        let out = clean_round(&tree, Seconds(0.02), &demands, Watts(500.0));
        // Reports cross 3 hops: leaf→L1→L2→root.
        assert!((out.root_converged_at.unwrap().0 - 0.06).abs() < 1e-12);
        // Directives cross 3 more hops back down.
        assert!((out.leaves_converged_at.unwrap().0 - 0.12).abs() < 1e-12);
        assert_eq!(out.root_view, Watts(180.0));
    }

    #[test]
    fn measured_delta_matches_analysis_bound() {
        // The measured upward convergence equals the §V-A1 bound h·α for
        // every uniform topology — the emulation validates the analysis.
        for branching in [&[3][..], &[2, 3][..], &[2, 3, 3][..], &[2, 2, 2, 2][..]] {
            let tree = Tree::uniform(branching);
            let alpha = Seconds(0.01);
            let analysis = ConvergenceAnalysis::for_tree(&tree, alpha);
            let demands = vec![Watts(5.0); tree.leaves().count()];
            let out = clean_round(&tree, alpha, &demands, Watts(100.0));
            assert!(
                (out.root_converged_at.unwrap().0 - analysis.delta.0).abs() < 1e-12,
                "{branching:?}: measured {} vs bound {}",
                out.root_converged_at.unwrap().0,
                analysis.delta.0
            );
            // Full round trip is 2δ — still far below the recommended Δ_D.
            assert!(
                out.leaves_converged_at.unwrap().0 * 5.0 <= analysis.recommended_delta_d.0 + 1e-12
            );
        }
    }

    #[test]
    fn message_count_is_two_per_link() {
        let tree = Tree::paper_fig3();
        let demands = vec![Watts(1.0); 18];
        let out = clean_round(&tree, Seconds(0.01), &demands, Watts(100.0));
        // One report and one directive per link.
        assert_eq!(out.messages, 2 * (tree.len() - 1));
    }

    #[test]
    fn budgets_partition_supply() {
        // The emulation's proportional split conserves the supply at every
        // level; with equal demands the root view is exact.
        let tree = Tree::uniform(&[2, 2]);
        let demands = vec![Watts(25.0), Watts(75.0), Watts(50.0), Watts(50.0)];
        let out = clean_round(&tree, Seconds(0.01), &demands, Watts(100.0));
        assert_eq!(out.root_view, Watts(200.0));
    }

    #[test]
    fn single_node_tree_converges_instantly() {
        let tree = Tree::uniform(&[1]);
        // One leaf under the root.
        let out = clean_round(&tree, Seconds(0.01), &[Watts(9.0)], Watts(10.0));
        assert!((out.root_converged_at.unwrap().0 - 0.01).abs() < 1e-12);
        assert_eq!(out.root_view, Watts(9.0));
    }

    #[test]
    #[should_panic(expected = "one demand per leaf")]
    fn demand_mismatch_rejected() {
        let tree = Tree::paper_fig3();
        let _ = clean_round(&tree, Seconds(0.01), &[Watts(1.0)], Watts(10.0));
    }

    #[test]
    fn zero_faults_identical_to_fault_free_for_any_seed() {
        let tree = Tree::paper_fig3();
        let demands = vec![Watts(10.0); 18];
        let clean = clean_round(&tree, Seconds(0.02), &demands, Watts(500.0));
        for seed in [0, 1, 42, u64::MAX] {
            let faulty = faulty_round(
                &tree,
                Seconds(0.02),
                &demands,
                Watts(500.0),
                &MessageFaults::default(),
                seed,
            );
            assert_eq!(faulty.outcome, clean, "seed {seed}");
            assert_eq!(faulty.lost + faulty.duplicated + faulty.delayed, 0);
            assert_eq!(faulty.deliveries, clean.messages);
        }
    }

    #[test]
    fn faulty_rounds_are_deterministic_and_still_converge() {
        let tree = Tree::paper_fig3();
        let demands = vec![Watts(10.0); 18];
        let faults = MessageFaults {
            loss: 0.2,
            duplication: 0.1,
            delay: 0.15,
            dead_link: None,
        };
        let a = faulty_round(&tree, Seconds(0.02), &demands, Watts(500.0), &faults, 7);
        let b = faulty_round(&tree, Seconds(0.02), &demands, Watts(500.0), &faults, 7);
        assert_eq!(a, b, "same seed must reproduce the same round");
        // Retransmission guarantees eventual convergence with the same
        // aggregate view, only later.
        assert_eq!(a.outcome.root_view, Watts(180.0));
        assert!(a.outcome.root_converged_at.unwrap().0 >= 0.06);
        assert!(a.outcome.leaves_converged_at.is_some());
        // All logical messages still got through exactly once.
        assert_eq!(a.outcome.messages, 2 * (tree.len() - 1));
    }

    #[test]
    fn loss_delays_convergence() {
        let tree = Tree::uniform(&[2, 3, 3]);
        let demands = vec![Watts(10.0); 18];
        let clean = clean_round(&tree, Seconds(0.02), &demands, Watts(500.0));
        // With heavy loss some seed must show a strictly later convergence.
        let faults = MessageFaults {
            loss: 0.5,
            duplication: 0.0,
            delay: 0.0,
            dead_link: None,
        };
        let mut any_later = false;
        for seed in 0..10 {
            let f = faulty_round(&tree, Seconds(0.02), &demands, Watts(500.0), &faults, seed);
            assert!(
                f.outcome.leaves_converged_at.unwrap().0
                    >= clean.leaves_converged_at.unwrap().0 - 1e-12
            );
            any_later |= f.outcome.leaves_converged_at.unwrap().0
                > clean.leaves_converged_at.unwrap().0 + 1e-12;
        }
        assert!(any_later, "50% loss must delay at least one of ten rounds");
    }

    #[test]
    fn duplicates_are_deduplicated() {
        let tree = Tree::paper_fig3();
        let demands = vec![Watts(10.0); 18];
        let faults = MessageFaults {
            loss: 0.0,
            duplication: 1.0,
            delay: 0.0,
            dead_link: None,
        };
        let f = faulty_round(&tree, Seconds(0.02), &demands, Watts(500.0), &faults, 3);
        // Every message duplicated, every duplicate discarded.
        assert_eq!(f.duplicated, 2 * (tree.len() - 1));
        assert_eq!(f.outcome.messages, 2 * (tree.len() - 1));
        assert_eq!(f.deliveries, 2 * f.outcome.messages);
        assert_eq!(f.outcome.root_view, Watts(180.0), "aggregation unskewed");
    }

    #[test]
    fn dead_link_round_reports_no_convergence() {
        // Regression for the NaN sentinel: 100% loss on one link used to
        // yield `root_converged_at == NaN`, which leaked into downstream
        // stats. With `Option`, the unconverged round is explicit.
        let tree = Tree::paper_fig3();
        let demands = vec![Watts(10.0); 18];
        let leaf = tree.leaves().next().unwrap();
        let parent = tree.parent(leaf).unwrap();
        let faults = MessageFaults {
            dead_link: Some((leaf, parent)),
            ..MessageFaults::default()
        };
        assert!(!faults.is_quiet());
        let f = faulty_round(&tree, Seconds(0.02), &demands, Watts(500.0), &faults, 5);
        assert_eq!(f.outcome.root_converged_at, None);
        assert_eq!(f.outcome.leaves_converged_at, None);
        assert!(!f.outcome.converged());
        assert_eq!(f.lost, 1, "the severed report is counted as lost");
        // The rest of the tree still exchanged its reports, but the root
        // never completed aggregation, so no directives were issued.
        assert!(f.outcome.messages < 2 * (tree.len() - 1));
        assert!(f.outcome.root_view.0 < 180.0);
    }

    #[test]
    fn dead_link_kills_both_directions() {
        // Severing a root→child link on the way down: the upward wave
        // completes (reports flow through other links... here choose a
        // root child so reports over this link die too).
        let tree = Tree::uniform(&[2, 2]);
        let root = tree.root();
        let child = tree.children(root)[0];
        let faults = MessageFaults {
            dead_link: Some((child, root)),
            ..MessageFaults::default()
        };
        let demands = vec![Watts(10.0); 4];
        let f = faulty_round(&tree, Seconds(0.01), &demands, Watts(100.0), &faults, 0);
        // The child's aggregate never reaches the root (and any directive
        // back would die too): no convergence either way.
        assert!(!f.outcome.converged());
    }

    #[test]
    fn scratch_reuse_is_bit_for_bit_identical() {
        // One scratch reused across heterogeneous rounds (different trees,
        // fault mixes and seeds) must reproduce a round on fresh scratch
        // exactly — including `u64`-exact convergence times and counters.
        let mut scratch = RoundScratch::default();
        let cases: Vec<(Tree, MessageFaults, u64)> = vec![
            (Tree::paper_fig3(), MessageFaults::default(), 0),
            (
                Tree::uniform(&[3, 9, 9]),
                MessageFaults {
                    loss: 0.3,
                    duplication: 0.2,
                    delay: 0.25,
                    dead_link: None,
                },
                7,
            ),
            (
                Tree::uniform(&[2, 2]),
                MessageFaults {
                    dead_link: Some((NodeId(1), NodeId(0))),
                    ..MessageFaults::default()
                },
                3,
            ),
            (Tree::uniform(&[4]), MessageFaults::default(), 11),
        ];
        for (tree, faults, seed) in &cases {
            let demands = vec![Watts(12.5); tree.leaves().count()];
            let fresh = faulty_round(tree, Seconds(0.02), &demands, Watts(400.0), faults, *seed);
            let reused = emulate_round(
                tree,
                Seconds(0.02),
                &demands,
                Watts(400.0),
                faults,
                *seed,
                &mut scratch,
            );
            assert_eq!(fresh, reused);
            let t0 = fresh.outcome.root_converged_at.map(|s| s.0.to_bits());
            let t1 = reused.outcome.root_converged_at.map(|s| s.0.to_bits());
            assert_eq!(t0, t1, "convergence times must match bit-for-bit");
        }
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn certain_loss_rejected() {
        let tree = Tree::uniform(&[2]);
        let _ = faulty_round(
            &tree,
            Seconds(0.01),
            &[Watts(1.0), Watts(1.0)],
            Watts(10.0),
            &MessageFaults {
                loss: 1.0,
                duplication: 0.0,
                delay: 0.0,
                dead_link: None,
            },
            0,
        );
    }
}
