//! The consolidation round's receiver index: every eligible leaf, kept in
//! `order_receivers` order for the whole round, so an evacuation plan
//! probes receivers lazily instead of rebuilding and re-sorting the whole
//! receiver list per victim.
//!
//! Entries carry their sort key as plain integers (see
//! `Willow::receiver_key`), so ascending key order *is* the policy's
//! order, ties included. The bulk of the index is one sorted `Vec`; a
//! re-keyed leaf is tombstoned in place and re-inserted into a small
//! sorted overlay, and the two are merged back once tombstones plus
//! overlay pass `√N`. An update therefore costs `O(√N)` amortized — never
//! the `O(N)` memmove of re-inserting into one sorted `Vec` — and a scan
//! in order is a two-way merge that skips tombstones.

use willow_topology::{NodeId, Tree};

/// Arena-slot marker: the leaf has no entry.
const ABSENT: u32 = u32::MAX;
/// Arena-slot marker: the leaf's entry lives in the overlay.
const IN_OVERLAY: u32 = u32::MAX - 1;
/// `Receiver::leaf` of a tombstone, and `Receiver::parent` of a parentless
/// leaf.
const NONE: u32 = u32::MAX;

/// Order-preserving image of `x` under [`f64::total_cmp`]: `a.total_cmp(b)`
/// equals `total_order_bits(a).cmp(&total_order_bits(b))`.
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Sort key for a descending `f64` order.
pub(super) fn descending(x: f64) -> u64 {
    !total_order_bits(x)
}

/// One indexed receiver.
#[derive(Debug, Clone, Copy)]
pub(super) struct Receiver {
    /// The policy's sort key; ties fall to the leaf id.
    key: (u64, u64),
    /// Leaf arena index ([`NONE`] for a tombstone).
    leaf: u32,
    /// Parent arena index, so sibling exclusion needs no tree lookup.
    parent: u32,
}

impl Receiver {
    fn order(&self) -> ((u64, u64), u32) {
        (self.key, self.leaf)
    }

    /// The receiver's leaf.
    pub(super) fn leaf(&self) -> NodeId {
        NodeId(self.leaf)
    }

    /// True if the receiver shares `parent` (its siblings and the leaf
    /// itself are probed separately, or never).
    pub(super) fn is_child_of(&self, parent: Option<NodeId>) -> bool {
        self.parent == parent.map_or(NONE, |p| p.0)
    }
}

/// Every eligible leaf in receiver order. Scratch of one consolidation
/// round: built at the round's first plan, never snapshotted, and reset at
/// the start of every round (and before an operator drain), so it never
/// outlives the state it indexes.
#[derive(Debug, Default)]
pub(super) struct ReceiverIndex {
    /// Built for the current round.
    ready: bool,
    /// Sorted entries, tombstones included.
    sorted: Vec<Receiver>,
    /// Sorted re-keyed entries not yet merged into `sorted`.
    overlay: Vec<Receiver>,
    /// Arena slot → position in `sorted`, [`IN_OVERLAY`] or [`ABSENT`].
    slot: Vec<u32>,
    /// Tombstones in `sorted`.
    dead: usize,
    /// Merge once `dead + overlay.len()` exceeds this (`≈ √N`).
    merge_at: usize,
}

impl ReceiverIndex {
    /// Pre-size for every leaf of `tree`, so building and re-keying never
    /// allocate.
    pub(super) fn for_tree(tree: &Tree) -> Self {
        let leaves = tree.nodes_at_level(0).len();
        let overlay = merge_threshold(leaves) + 1;
        ReceiverIndex {
            sorted: Vec::with_capacity(leaves),
            overlay: Vec::with_capacity(overlay),
            slot: Vec::with_capacity(tree.len()),
            ..ReceiverIndex::default()
        }
    }

    /// Whether the index was built this round.
    pub(super) fn is_ready(&self) -> bool {
        self.ready
    }

    /// Forget the index; the next plan rebuilds it.
    pub(super) fn reset(&mut self) {
        self.ready = false;
    }

    /// Index `entries` (leaf, parent, key) over an arena of `arena`
    /// slots, replacing any previous content.
    pub(super) fn build(
        &mut self,
        arena: usize,
        entries: impl Iterator<Item = (NodeId, Option<NodeId>, (u64, u64))>,
    ) {
        self.sorted.clear();
        self.sorted
            .extend(entries.map(|(leaf, parent, key)| Receiver {
                key,
                leaf: leaf.0,
                parent: parent.map_or(NONE, |p| p.0),
            }));
        self.sorted.sort_unstable_by_key(Receiver::order);
        self.overlay.clear();
        self.dead = 0;
        self.merge_at = merge_threshold(self.sorted.len());
        self.slot.clear();
        self.slot.resize(arena, ABSENT);
        for (pos, r) in self.sorted.iter().enumerate() {
            self.slot[r.leaf as usize] = pos as u32;
        }
        self.ready = true;
    }

    /// Whether `leaf` has an entry.
    pub(super) fn contains(&self, leaf: NodeId) -> bool {
        self.ready && self.slot[leaf.index()] != ABSENT
    }

    /// Drop `leaf`'s entry, if any.
    pub(super) fn remove(&mut self, leaf: NodeId) {
        if !self.contains(leaf) {
            return;
        }
        self.unlink(leaf);
        self.slot[leaf.index()] = ABSENT;
        self.maybe_merge();
    }

    /// Move `leaf`'s entry (which must exist) to `key`.
    pub(super) fn rekey(&mut self, leaf: NodeId, key: (u64, u64)) {
        let current = match self.slot[leaf.index()] {
            IN_OVERLAY => self.overlay.iter().find(|r| r.leaf == leaf.0),
            pos => self.sorted.get(pos as usize),
        };
        if current.is_some_and(|r| r.key == key) {
            return;
        }
        let parent = self.unlink(leaf).expect("re-keyed leaf is indexed");
        let entry = Receiver {
            key,
            leaf: leaf.0,
            parent,
        };
        let at = self.overlay.partition_point(|r| r.order() < entry.order());
        self.overlay.insert(at, entry);
        self.slot[leaf.index()] = IN_OVERLAY;
        self.maybe_merge();
    }

    /// Take `leaf`'s entry out of its current home, returning its parent
    /// field (`None` if it had no entry). Leaves `slot` to the caller.
    fn unlink(&mut self, leaf: NodeId) -> Option<u32> {
        match self.slot[leaf.index()] {
            ABSENT => None,
            IN_OVERLAY => {
                let at = self.overlay.iter().position(|r| r.leaf == leaf.0)?;
                Some(self.overlay.remove(at).parent)
            }
            pos => {
                let r = &mut self.sorted[pos as usize];
                r.leaf = NONE;
                self.dead += 1;
                Some(r.parent)
            }
        }
    }

    /// Drop the tombstones and fold the overlay back into `sorted` once
    /// the two together outnumber `√N`: `O(N)` every `√N` updates. The
    /// merge runs in place from the back, into the room the overlay's
    /// entries take at the end (every leaf has at most one entry, so
    /// `sorted` never outgrows its pre-sized capacity).
    fn maybe_merge(&mut self) {
        if self.dead + self.overlay.len() <= self.merge_at {
            return;
        }
        self.sorted.retain(|r| r.leaf != NONE);
        let mut live = self.sorted.len();
        self.sorted.extend_from_slice(&self.overlay);
        for k in (0..self.sorted.len()).rev() {
            let Some(o) = self.overlay.last() else {
                break; // the rest of `sorted` is already in place
            };
            if live > 0 && self.sorted[live - 1].order() > o.order() {
                live -= 1;
                self.sorted[k] = self.sorted[live];
            } else {
                self.sorted[k] = *o;
                self.overlay.pop();
            }
        }
        self.dead = 0;
        for (pos, r) in self.sorted.iter().enumerate() {
            self.slot[r.leaf as usize] = pos as u32;
        }
    }

    /// The live entries in receiver order.
    pub(super) fn iter(&self) -> impl Iterator<Item = &Receiver> + '_ {
        let mut sorted = self.sorted.iter().filter(|r| r.leaf != NONE).peekable();
        let mut overlay = self.overlay.iter().peekable();
        std::iter::from_fn(move || match (sorted.peek(), overlay.peek()) {
            (Some(s), Some(o)) if o.order() < s.order() => overlay.next(),
            (Some(_), _) => sorted.next(),
            (None, _) => overlay.next(),
        })
    }
}

/// Tombstone-plus-overlay budget between merges for `n` entries.
fn merge_threshold(n: usize) -> usize {
    n.isqrt().max(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn total_order_bits_matches_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            1e-310,
            2.5,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in xs {
            for b in xs {
                let bits = total_order_bits(a).cmp(&total_order_bits(b));
                assert_eq!(bits, a.total_cmp(&b), "{a} vs {b}");
                assert_eq!(descending(a).cmp(&descending(b)), b.total_cmp(&a));
            }
        }
    }

    /// Random re-keys and removals across many merges: a scan always
    /// equals a fresh sort of the live entries, parents ride along.
    #[test]
    fn scan_matches_a_fresh_sort() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 300;
        let mut keys: Vec<Option<(u64, u64)>> = (0..n)
            .map(|_| Some((rng.gen_range(0..40), rng.gen_range(0..3))))
            .collect();
        let parent = |leaf: usize| NodeId(leaf as u32 / 4);
        let mut index = ReceiverIndex::default();
        index.build(
            n,
            (keys.iter().enumerate()).map(|(i, k)| (NodeId(i as u32), Some(parent(i)), k.unwrap())),
        );
        for step in 0..3000 {
            let i = rng.gen_range(0..n);
            let leaf = NodeId(i as u32);
            assert_eq!(index.contains(leaf), keys[i].is_some());
            if rng.gen_bool(0.05) {
                index.remove(leaf);
                keys[i] = None;
            } else if keys[i].is_some() {
                let key = (rng.gen_range(0..40), rng.gen_range(0..3));
                index.rekey(leaf, key);
                keys[i] = Some(key);
            }
            let mut expected: Vec<((u64, u64), u32)> = (keys.iter().enumerate())
                .filter_map(|(i, k)| k.map(|k| (k, i as u32)))
                .collect();
            expected.sort_unstable();
            let scan: Vec<_> = index.iter().map(Receiver::order).collect();
            assert_eq!(scan, expected, "step {step}");
            assert!(index
                .iter()
                .all(|r| r.is_child_of(Some(parent(r.leaf().index())))));
        }
        assert!(keys.iter().any(Option::is_some), "some entries survive");
    }
}
