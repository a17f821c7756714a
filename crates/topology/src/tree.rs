//! Struct-of-arrays PMU tree with id-based navigation.
//!
//! The arena is stored column-wise (parents / levels / names as parallel
//! vectors, children and per-level node lists in CSR form) so the per-level
//! loops of the control pipeline iterate contiguous slices instead of
//! chasing per-node heap allocations. [`Node`] survives as the builder and
//! serialization wire format; [`Tree::to_arena`] reconstructs it on demand,
//! so the serialized form is byte-identical to the historical
//! array-of-structs layout (including detached tombstone slots).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a node in a [`Tree`] arena. Stable for the life of the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Arena index as `usize`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Height of a node above the leaf level; leaves are level 0, the root of
/// the paper's Fig. 3 topology is level 3.
pub type Level = u8;

/// Sentinel for "no parent" in the packed parent column (root and detached
/// tombstones).
const NO_PARENT: u32 = u32::MAX;

/// One node of the hierarchy — the construction and serialization wire
/// format. The [`Tree`] itself stores the arena column-wise; use
/// [`Tree::to_arena`] to materialize this representation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// Parent node, `None` for the root.
    pub parent: Option<NodeId>,
    /// Children in insertion order.
    pub children: Vec<NodeId>,
    /// Height above the leaves (filled in when the tree is finalized).
    pub level: Level,
    /// Human-readable name, e.g. `"rack0"` or `"server12"`.
    pub name: String,
}

impl Node {
    /// True if the node has no children.
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// Errors from tree construction, online edits and queries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TreeError {
    /// A referenced id does not exist in this tree.
    UnknownNode(NodeId),
    /// The builder produced a tree whose leaves are at different depths;
    /// Willow's level-synchronous control requires a uniform leaf level.
    RaggedLeaves {
        /// Depth of the first leaf encountered.
        expected_depth: usize,
        /// Conflicting depth found.
        found_depth: usize,
    },
    /// The tree has no nodes.
    Empty,
    /// The slot is a detached tombstone (a removed node), or an arena
    /// carried an unreachable node that still held parent/child links.
    Detached(NodeId),
    /// Online leaf insertion requires a level-1 parent; this node is not
    /// directly above the leaf level.
    NotAboveLeaves(NodeId),
    /// The target of a leaf edit is not a leaf.
    NotALeaf(NodeId),
    /// Removing this parent's only child would leave it childless — an
    /// interior node masquerading as a leaf at the wrong depth.
    LastChild(NodeId),
    /// A live node with this name already exists.
    DuplicateName(String),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::UnknownNode(id) => write!(f, "unknown node {id}"),
            TreeError::RaggedLeaves {
                expected_depth,
                found_depth,
            } => write!(
                f,
                "leaves at differing depths ({expected_depth} vs {found_depth}); \
                 the hierarchy must be uniform"
            ),
            TreeError::Empty => write!(f, "tree has no nodes"),
            TreeError::Detached(id) => write!(f, "node {id} is a detached (removed) slot"),
            TreeError::NotAboveLeaves(id) => {
                write!(f, "node {id} is not a level-1 parent of leaves")
            }
            TreeError::NotALeaf(id) => write!(f, "node {id} is not a leaf"),
            TreeError::LastChild(id) => {
                write!(f, "cannot remove the only child of node {id}")
            }
            TreeError::DuplicateName(name) => write!(f, "a node named {name:?} already exists"),
        }
    }
}

impl std::error::Error for TreeError {}

/// The power-control hierarchy: a struct-of-arrays arena with CSR child
/// and per-level indices.
///
/// Construction goes through [`crate::TreeBuilder`] (arbitrary shapes),
/// [`Tree::uniform`] (per-level branching factors) or [`Tree::paper_fig3`]
/// (the paper's simulated configuration).
///
/// Besides the packed parent/level/name columns the tree carries derived
/// indices — CSR per-level node lists and an Euler-tour leaf order in
/// which every subtree's leaves form one contiguous range — so hot-path
/// queries ([`Tree::leaf_range`], [`Tree::subtree_contains`],
/// [`Tree::nodes_at_level`], [`Tree::children`]) are contiguous slice
/// lookups rather than tree walks. The derived indices are rebuilt on
/// deserialization, not serialized; the wire format stays the historical
/// `Vec<Node>` arena (see [`Tree::to_arena`]).
///
/// Immutable: the online edits return a new tree, so holders can share one
/// behind an `Arc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    /// Parent arena index per slot; `NO_PARENT` for the root and for
    /// detached tombstones.
    parents: Vec<u32>,
    /// Level (height above leaves) per slot; 0 for tombstones.
    levels: Vec<Level>,
    /// Name per slot; empty for tombstones.
    names: Vec<String>,
    /// CSR child index: the children of slot `i` are
    /// `child_list[child_start[i]..child_start[i+1]]`, in insertion order.
    child_start: Vec<u32>,
    child_list: Vec<NodeId>,
    /// CSR level index: the live nodes at level `l` are
    /// `level_nodes[level_start[l]..level_start[l+1]]`, in arena order.
    level_start: Vec<u32>,
    level_nodes: Vec<NodeId>,
    root: NodeId,
    /// All leaves in depth-first (Euler-tour) order: the leaves under any
    /// node occupy the contiguous range `leaf_span[node]` of this list.
    leaf_order: Vec<NodeId>,
    /// `leaf_span[i] = (start, end)`: half-open range of `leaf_order`
    /// holding the leaves of the subtree rooted at arena index `i`.
    leaf_span: Vec<(u32, u32)>,
}

impl Serialize for Tree {
    fn to_value(&self) -> serde::Value {
        // Only the arena is authoritative; derived indices (levels CSR,
        // leaf_order, leaf_span) are rebuilt on load. The wire format is
        // the historical `Vec<Node>` arena.
        serde::Value::Object(vec![
            ("nodes".to_owned(), self.to_arena().to_value()),
            ("root".to_owned(), self.root.to_value()),
        ])
    }
}

impl Deserialize for Tree {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let nodes_v = value
            .get("nodes")
            .ok_or_else(|| serde::DeError::missing_field("nodes", "Tree"))?;
        let root_v = value
            .get("root")
            .ok_or_else(|| serde::DeError::missing_field("root", "Tree"))?;
        let nodes = Vec::<Node>::from_value(nodes_v)?;
        let root = NodeId::from_value(root_v)?;
        Tree::from_arena(nodes, root)
            .map_err(|e| serde::DeError::custom(format!("invalid tree: {e}")))
    }
}

impl Tree {
    /// Build from a raw arena. Validates parent/child consistency, computes
    /// levels and requires all leaves to sit at the same depth.
    pub(crate) fn from_arena(nodes: Vec<Node>, root: NodeId) -> Result<Self, TreeError> {
        if nodes.is_empty() {
            return Err(TreeError::Empty);
        }
        if root.index() >= nodes.len() {
            return Err(TreeError::UnknownNode(root));
        }
        // Compute depth of every node and check leaf uniformity.
        let mut depth = vec![usize::MAX; nodes.len()];
        depth[root.index()] = 0;
        let mut stack = vec![root];
        let mut leaf_depth: Option<usize> = None;
        let mut visited = 0usize;
        while let Some(id) = stack.pop() {
            visited += 1;
            let node = &nodes[id.index()];
            if node.is_leaf() {
                match leaf_depth {
                    None => leaf_depth = Some(depth[id.index()]),
                    Some(d) if d != depth[id.index()] => {
                        return Err(TreeError::RaggedLeaves {
                            expected_depth: d,
                            found_depth: depth[id.index()],
                        })
                    }
                    Some(_) => {}
                }
            }
            for &c in &node.children {
                if c.index() >= nodes.len() {
                    return Err(TreeError::UnknownNode(c));
                }
                depth[c.index()] = depth[id.index()] + 1;
                stack.push(c);
            }
        }
        // Unreachable slots are legal only as *detached tombstones* left by
        // [`Tree::remove_leaf`]: fully unlinked, so they can be skipped by
        // every derived index. Anything unreachable that still carries links
        // is a malformed arena, not a tombstone.
        for (i, node) in nodes.iter().enumerate() {
            if depth[i] == usize::MAX && (node.parent.is_some() || !node.children.is_empty()) {
                return Err(TreeError::Detached(NodeId(i as u32)));
            }
        }
        debug_assert_eq!(
            visited,
            depth.iter().filter(|&&d| d != usize::MAX).count(),
            "arena must be a single tree plus detached tombstones"
        );
        let height = leaf_depth.expect("non-empty tree has leaves");
        let n = nodes.len();

        // Flatten into the packed columns and CSR indices.
        let mut parents = vec![NO_PARENT; n];
        let mut levels = vec![0 as Level; n];
        let mut child_start = Vec::with_capacity(n + 1);
        let mut child_list = Vec::new();
        // Count-sort by level keeps each level's nodes in arena order.
        let mut level_count = vec![0u32; height + 1];
        for (i, node) in nodes.iter().enumerate() {
            if depth[i] != usize::MAX {
                parents[i] = node.parent.map_or(NO_PARENT, |p| p.0);
                let lvl = (height - depth[i]) as Level;
                levels[i] = lvl;
                level_count[lvl as usize] += 1;
            }
        }
        let mut level_start = Vec::with_capacity(height + 2);
        level_start.push(0u32);
        for &c in &level_count {
            level_start.push(level_start.last().unwrap() + c);
        }
        let mut level_fill = level_start.clone();
        let mut level_nodes = vec![NodeId(0); level_start[height + 1] as usize];
        for i in 0..n {
            child_start.push(child_list.len() as u32);
            child_list.extend_from_slice(&nodes[i].children);
            if depth[i] != usize::MAX {
                let lvl = levels[i] as usize;
                level_nodes[level_fill[lvl] as usize] = NodeId(i as u32);
                level_fill[lvl] += 1;
            }
        }
        child_start.push(child_list.len() as u32);

        // Euler-tour leaf order: a post-order walk visiting children
        // left-to-right assigns every subtree a contiguous [start, end)
        // range of the global leaf list.
        let n_leaves = level_count[0] as usize;
        let mut leaf_order = Vec::with_capacity(n_leaves);
        let mut leaf_span = vec![(0u32, 0u32); n];
        // Explicit stack of (node, entered): on first visit record the
        // range start and push children in reverse; on re-visit (after the
        // whole subtree is done) record the range end.
        let mut walk: Vec<(NodeId, bool)> = vec![(root, false)];
        while let Some((id, entered)) = walk.pop() {
            if entered {
                leaf_span[id.index()].1 = leaf_order.len() as u32;
                continue;
            }
            leaf_span[id.index()].0 = leaf_order.len() as u32;
            let kids = &nodes[id.index()].children;
            if kids.is_empty() {
                leaf_order.push(id);
                leaf_span[id.index()].1 = leaf_order.len() as u32;
            } else {
                walk.push((id, true));
                for &c in kids.iter().rev() {
                    walk.push((c, false));
                }
            }
        }
        debug_assert_eq!(leaf_order.len(), n_leaves);

        // A fresh buffer: collecting in place would keep the arena's much
        // larger `Node` allocation alive under the names for the tree's life.
        let mut names = Vec::with_capacity(n);
        names.extend(nodes.into_iter().map(|node| node.name));
        Ok(Tree {
            parents,
            levels,
            names,
            child_start,
            child_list,
            level_start,
            level_nodes,
            root,
            leaf_order,
            leaf_span,
        })
    }

    /// Materialize the arena back into the historical `Vec<Node>` wire
    /// format: live nodes carry their parent/children/level/name, detached
    /// tombstones serialize as fully unlinked slots (`parent: null`, no
    /// children, level 0, empty name) — byte-identical to the layout the
    /// tree used before the struct-of-arrays refactor.
    #[must_use]
    pub fn to_arena(&self) -> Vec<Node> {
        (0..self.parents.len())
            .map(|i| {
                let id = NodeId(i as u32);
                Node {
                    parent: self.parent(id),
                    children: self.children(id).to_vec(),
                    level: self.levels[i],
                    name: self.names[i].clone(),
                }
            })
            .collect()
    }

    /// A uniform tree described by per-level branching factors, root first.
    ///
    /// `Tree::uniform(&[2, 3, 3])` builds a root with 2 children, each with
    /// 3 children, each with 3 leaves — the paper's Fig. 3 shape (4 levels,
    /// 18 leaf servers).
    ///
    /// # Panics
    /// Panics if any branching factor is zero.
    #[must_use]
    pub fn uniform(branching: &[usize]) -> Tree {
        assert!(
            branching.iter().all(|&b| b > 0),
            "branching factors must be positive"
        );
        let mut b = TreeBuilderInner::new("dc");
        let mut frontier = vec![b.root];
        for (lvl, &k) in branching.iter().enumerate() {
            let mut next = Vec::with_capacity(frontier.len() * k);
            for &parent in &frontier {
                for _ in 0..k {
                    // Interior nodes get level-qualified names; leaves are
                    // renamed to the paper's 1-based server names below.
                    let name = format!("l{}-{}", branching.len() - lvl - 1, next.len());
                    next.push(b.add_child(parent, name));
                }
            }
            frontier = next;
        }
        // Give leaves stable 1-based names matching the paper ("servers 1–18").
        for (i, &leaf) in frontier.iter().enumerate() {
            b.nodes[leaf.index()].name = format!("server{}", i + 1);
        }
        Tree::from_arena(b.nodes, b.root).expect("uniform construction is well-formed")
    }

    /// The paper's simulation topology (Fig. 3): four levels in the power
    /// control hierarchy and 18 server nodes (root → 2 → 3 → 3).
    #[must_use]
    pub fn paper_fig3() -> Tree {
        Tree::uniform(&[2, 3, 3])
    }

    /// The 2-level testbed control plane of §V-C1: one level-2 root
    /// ("control plane"), two level-1 switches, three servers unevenly
    /// attached (2 + 1), matching Fig. 13's cluster of three ESX hosts.
    ///
    /// Note this shape is *ragged-free*: servers hang off both switches at
    /// the same depth.
    #[must_use]
    pub fn paper_testbed() -> Tree {
        let mut b = TreeBuilderInner::new("control-plane");
        let s1 = b.add_child(b.root, "switch1");
        let s2 = b.add_child(b.root, "switch2");
        b.add_child(s1, "serverA");
        b.add_child(s1, "serverB");
        // Keep leaf depth uniform: server C sits under the second switch.
        b.add_child(s2, "serverC");
        Tree::from_arena(b.nodes, b.root).expect("testbed construction is well-formed")
    }

    /// The root node id.
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Total number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// True if the tree is empty (never true for a constructed tree).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Height of the tree == level of the root.
    #[must_use]
    pub fn height(&self) -> Level {
        self.levels[self.root.index()]
    }

    /// Parent of `id`, `None` for the root.
    #[must_use]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let p = self.parents[id.index()];
        (p != NO_PARENT).then_some(NodeId(p))
    }

    /// Children of `id`, in insertion order (a contiguous CSR slice).
    #[must_use]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.child_list[self.child_start[i] as usize..self.child_start[i + 1] as usize]
    }

    /// True if the node has no children (detached slots are childless too).
    #[must_use]
    pub fn is_leaf(&self, id: NodeId) -> bool {
        let i = id.index();
        self.child_start[i] == self.child_start[i + 1]
    }

    /// Level (height above leaves) of `id`.
    #[must_use]
    pub fn level(&self, id: NodeId) -> Level {
        self.levels[id.index()]
    }

    /// Human-readable name of `id` (empty for detached tombstones).
    #[must_use]
    pub fn name(&self, id: NodeId) -> &str {
        &self.names[id.index()]
    }

    /// All node ids at a given level, in arena order (a contiguous CSR
    /// slice; detached tombstones appear at no level).
    #[must_use]
    pub fn nodes_at_level(&self, level: Level) -> &[NodeId] {
        let l = level as usize;
        if l + 1 >= self.level_start.len() {
            return &[];
        }
        &self.level_nodes[self.level_start[l] as usize..self.level_start[l + 1] as usize]
    }

    /// Iterator over all node ids.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.parents.len() as u32).map(NodeId)
    }

    /// Iterator over the leaf nodes (level 0), in arena order.
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes_at_level(0).iter().copied()
    }

    /// Siblings of `id` (children of the same parent, excluding `id`).
    pub fn siblings(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let parent = self.parent(id);
        parent
            .map(|p| self.children(p))
            .unwrap_or(&[])
            .iter()
            .copied()
            .filter(move |&c| c != id)
    }

    /// True if `a` and `b` share a parent (and are distinct).
    #[must_use]
    pub fn are_siblings(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.parent(a).is_some() && self.parent(a) == self.parent(b)
    }

    /// Ancestors of `id` from its parent up to the root.
    pub fn ancestors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(self.parent(id), move |&n| self.parent(n))
    }

    /// Lowest common ancestor of two nodes.
    #[must_use]
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let (mut x, mut y) = (a, b);
        // Climb the deeper one (lower level) first.
        while self.level(x) < self.level(y) {
            x = self.parent(x).expect("levels bounded by root");
        }
        while self.level(y) < self.level(x) {
            y = self.parent(y).expect("levels bounded by root");
        }
        while x != y {
            x = self
                .parent(x)
                .expect("distinct nodes at root level impossible");
            y = self
                .parent(y)
                .expect("distinct nodes at root level impossible");
        }
        x
    }

    /// Number of tree edges on the path from `a` to `b` — the hop count a
    /// migration between the two nodes traverses in the control hierarchy.
    #[must_use]
    pub fn path_len(&self, a: NodeId, b: NodeId) -> usize {
        let l = self.lca(a, b);
        let up = |mut n: NodeId| {
            let mut hops = 0;
            while n != l {
                n = self.parent(n).expect("lca is an ancestor");
                hops += 1;
            }
            hops
        };
        up(a) + up(b)
    }

    /// All leaves in the subtree rooted at `id` (including `id` itself if it
    /// is a leaf), sorted ascending by id.
    ///
    /// Allocates a fresh `Vec`; hot paths should prefer [`Tree::leaf_range`],
    /// which borrows the cached Euler-tour order instead.
    #[must_use]
    pub fn subtree_leaves(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = self.leaf_range(id).to_vec();
        out.sort_unstable();
        out
    }

    /// The leaves of the subtree rooted at `id` as a borrowed slice of the
    /// global Euler-tour leaf order (depth-first, children left-to-right).
    ///
    /// Unlike [`Tree::subtree_leaves`] this performs no allocation and no
    /// walk; the slice is in *tour* order, which coincides with ascending
    /// id order for level-by-level constructions ([`Tree::uniform`] and
    /// friends) but is not guaranteed sorted for arbitrary builder input.
    #[must_use]
    pub fn leaf_range(&self, id: NodeId) -> &[NodeId] {
        let (start, end) = self.leaf_span[id.index()];
        &self.leaf_order[start as usize..end as usize]
    }

    /// All leaves in Euler-tour order; `leaf_order()[i]` is the leaf with
    /// [`Tree::leaf_position`] `i`.
    #[must_use]
    pub fn leaf_order(&self) -> &[NodeId] {
        &self.leaf_order
    }

    /// Position of `leaf` in the Euler-tour leaf order, or `None` if the
    /// node is not a leaf.
    #[must_use]
    pub fn leaf_position(&self, leaf: NodeId) -> Option<usize> {
        let (start, end) = self.leaf_span[leaf.index()];
        (end == start + 1 && self.is_leaf(leaf)).then_some(start as usize)
    }

    /// True if `leaf` lies in the subtree rooted at `node` — an O(1) range
    /// check on the Euler-tour positions (both arguments may also be equal,
    /// or `node` may itself be the leaf).
    #[must_use]
    pub fn subtree_contains(&self, node: NodeId, leaf: NodeId) -> bool {
        let (ns, ne) = self.leaf_span[node.index()];
        let (ls, le) = self.leaf_span[leaf.index()];
        ns <= ls && le <= ne && ls < le
    }

    /// Maximum branching factor among nodes at `level` (the `b_l` of the
    /// paper's complexity analysis, §V-A2).
    #[must_use]
    pub fn max_branching_at(&self, level: Level) -> usize {
        self.nodes_at_level(level)
            .iter()
            .map(|&id| self.children(id).len())
            .max()
            .unwrap_or(0)
    }

    /// Look up a node by name (linear scan; intended for tests/config).
    /// Detached tombstone slots are never returned.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.ids()
            .find(|&id| !self.is_detached(id) && self.names[id.index()] == name)
    }

    /// True if `id` is a detached tombstone slot left behind by
    /// [`Tree::remove_leaf`]. Out-of-range ids are not detached (they are
    /// unknown).
    #[must_use]
    pub fn is_detached(&self, id: NodeId) -> bool {
        id != self.root
            && self
                .parents
                .get(id.index())
                .is_some_and(|&p| p == NO_PARENT)
    }

    /// Number of *live* (non-detached) nodes. [`Tree::len`] keeps counting
    /// arena slots, since index-parallel state vectors are sized to those.
    #[must_use]
    pub fn live_len(&self) -> usize {
        self.parents
            .len()
            .saturating_sub(self.detached_slots().count())
    }

    /// Iterator over detached tombstone slot ids, lowest first.
    pub fn detached_slots(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ids().filter(move |&id| self.is_detached(id))
    }

    /// Online insertion of a new leaf under level-1 parent `parent`:
    /// returns the edited tree and the new leaf's id.
    ///
    /// The lowest detached tombstone slot is reused if one exists,
    /// otherwise the arena grows by one slot (callers holding
    /// index-parallel state vectors must resize them to the new tree's
    /// [`Tree::len`]). All derived indices (levels, Euler-tour leaf order
    /// and spans) are rebuilt, so range queries stay coherent.
    ///
    /// # Errors
    /// - [`TreeError::UnknownNode`] / [`TreeError::Detached`] — `parent`
    ///   does not name a live node;
    /// - [`TreeError::NotAboveLeaves`] — `parent` is not a level-1 node,
    ///   so hanging a leaf off it would violate leaf-depth uniformity;
    /// - [`TreeError::DuplicateName`] — a live node already uses `name`.
    pub fn insert_leaf(&self, parent: NodeId, name: &str) -> Result<(Tree, NodeId), TreeError> {
        if parent.index() >= self.parents.len() {
            return Err(TreeError::UnknownNode(parent));
        }
        if self.is_detached(parent) {
            return Err(TreeError::Detached(parent));
        }
        if self.level(parent) != 1 {
            return Err(TreeError::NotAboveLeaves(parent));
        }
        if self.find(name).is_some() {
            return Err(TreeError::DuplicateName(name.to_owned()));
        }
        // Validated: materialize the arena, edit it, rebuild the packed
        // columns. Edits are rare (operator commands), so the O(n) rebuild
        // is the price of keeping every hot-path index contiguous.
        let mut nodes = self.to_arena();
        let reusable = self.detached_slots().next();
        let id = match reusable {
            Some(slot) => slot,
            None => {
                nodes.push(Node {
                    parent: None,
                    children: Vec::new(),
                    level: 0,
                    name: String::new(),
                });
                NodeId((nodes.len() - 1) as u32)
            }
        };
        let node = &mut nodes[id.index()];
        node.parent = Some(parent);
        node.children.clear();
        node.level = 0;
        name.clone_into(&mut node.name);
        nodes[parent.index()].children.push(id);
        let tree = Tree::from_arena(nodes, self.root).expect("validated edit is well-formed");
        Ok((tree, id))
    }

    /// Online removal of leaf `leaf`: returns the edited tree, in which
    /// `leaf` is a detached tombstone slot.
    ///
    /// The arena keeps its size (so index-parallel state vectors stay
    /// valid) and the slot is reusable by a later [`Tree::insert_leaf`].
    /// All derived indices are rebuilt.
    ///
    /// # Errors
    /// - [`TreeError::UnknownNode`] / [`TreeError::Detached`] — `leaf`
    ///   does not name a live node;
    /// - [`TreeError::Empty`] — `leaf` is the root;
    /// - [`TreeError::NotALeaf`] — `leaf` has children;
    /// - [`TreeError::LastChild`] — `leaf` is its parent's only child, so
    ///   removing it would turn the parent into a false leaf at the wrong
    ///   depth.
    pub fn remove_leaf(&self, leaf: NodeId) -> Result<Tree, TreeError> {
        if leaf.index() >= self.parents.len() {
            return Err(TreeError::UnknownNode(leaf));
        }
        if leaf == self.root {
            return Err(TreeError::Empty);
        }
        if self.is_detached(leaf) {
            return Err(TreeError::Detached(leaf));
        }
        if !self.is_leaf(leaf) {
            return Err(TreeError::NotALeaf(leaf));
        }
        let parent = self.parent(leaf).expect("non-root has a parent");
        if self.children(parent).len() == 1 {
            return Err(TreeError::LastChild(parent));
        }
        let mut nodes = self.to_arena();
        nodes[parent.index()].children.retain(|&c| c != leaf);
        let node = &mut nodes[leaf.index()];
        node.parent = None;
        node.children.clear();
        node.level = 0;
        node.name.clear();
        Ok(Tree::from_arena(nodes, self.root).expect("validated edit is well-formed"))
    }
}

/// Internal builder shared by [`Tree::uniform`] and [`crate::TreeBuilder`].
pub(crate) struct TreeBuilderInner {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeId,
}

impl TreeBuilderInner {
    pub(crate) fn new(root_name: impl Into<String>) -> Self {
        TreeBuilderInner {
            nodes: vec![Node {
                parent: None,
                children: Vec::new(),
                level: 0,
                name: root_name.into(),
            }],
            root: NodeId(0),
        }
    }

    pub(crate) fn add_child(&mut self, parent: NodeId, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            parent: Some(parent),
            children: Vec::new(),
            level: 0,
            name: name.into(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_shape() {
        let t = Tree::paper_fig3();
        assert_eq!(t.height(), 3);
        assert_eq!(t.len(), 1 + 2 + 6 + 18);
        assert_eq!(t.nodes_at_level(3).len(), 1);
        assert_eq!(t.nodes_at_level(2).len(), 2);
        assert_eq!(t.nodes_at_level(1).len(), 6);
        assert_eq!(t.nodes_at_level(0).len(), 18);
        assert_eq!(t.leaves().count(), 18);
    }

    #[test]
    fn leaf_names_are_one_based() {
        let t = Tree::paper_fig3();
        assert!(t.find("server1").is_some());
        assert!(t.find("server18").is_some());
        assert!(t.find("server0").is_none());
        assert!(t.find("server19").is_none());
    }

    #[test]
    fn testbed_shape() {
        let t = Tree::paper_testbed();
        assert_eq!(t.height(), 2);
        assert_eq!(t.leaves().count(), 3);
        let a = t.find("serverA").unwrap();
        let b = t.find("serverB").unwrap();
        let c = t.find("serverC").unwrap();
        assert!(t.are_siblings(a, b));
        assert!(!t.are_siblings(a, c));
    }

    #[test]
    fn parent_child_consistency() {
        let t = Tree::paper_fig3();
        for id in t.ids() {
            for &c in t.children(id) {
                assert_eq!(t.parent(c), Some(id));
                assert_eq!(t.level(c) + 1, t.level(id));
            }
        }
        assert_eq!(t.parent(t.root()), None);
    }

    #[test]
    fn levels_partition_nodes() {
        let t = Tree::paper_fig3();
        let total: usize = (0..=t.height()).map(|l| t.nodes_at_level(l).len()).sum();
        assert_eq!(total, t.len());
        for l in 0..=t.height() {
            for &id in t.nodes_at_level(l) {
                assert_eq!(t.level(id), l);
            }
        }
    }

    #[test]
    fn siblings_of_leaf() {
        let t = Tree::paper_fig3();
        let first = t.leaves().next().unwrap();
        let sibs: Vec<_> = t.siblings(first).collect();
        assert_eq!(sibs.len(), 2, "each level-1 PMU has 3 servers");
        assert!(!sibs.contains(&first));
    }

    #[test]
    fn root_has_no_siblings() {
        let t = Tree::paper_fig3();
        assert_eq!(t.siblings(t.root()).count(), 0);
    }

    #[test]
    fn lca_and_path_len() {
        let t = Tree::paper_fig3();
        let leaves: Vec<_> = t.leaves().collect();
        // Same pod (siblings): LCA is their shared parent, 2 hops.
        let (a, b) = (leaves[0], leaves[1]);
        assert_eq!(t.lca(a, b), t.parent(a).unwrap());
        assert_eq!(t.path_len(a, b), 2);
        // Opposite halves of the tree: LCA is the root, 6 hops.
        let (x, y) = (leaves[0], leaves[17]);
        assert_eq!(t.lca(x, y), t.root());
        assert_eq!(t.path_len(x, y), 6);
        // Self: zero hops.
        assert_eq!(t.lca(a, a), a);
        assert_eq!(t.path_len(a, a), 0);
        // Node with its ancestor.
        let anc = t.parent(t.parent(a).unwrap()).unwrap();
        assert_eq!(t.lca(a, anc), anc);
        assert_eq!(t.path_len(a, anc), 2);
    }

    #[test]
    fn ancestors_reach_root() {
        let t = Tree::paper_fig3();
        let leaf = t.leaves().next().unwrap();
        let anc: Vec<_> = t.ancestors(leaf).collect();
        assert_eq!(anc.len(), 3);
        assert_eq!(*anc.last().unwrap(), t.root());
    }

    #[test]
    fn subtree_leaves_counts() {
        let t = Tree::paper_fig3();
        assert_eq!(t.subtree_leaves(t.root()).len(), 18);
        let l2 = t.nodes_at_level(2)[0];
        assert_eq!(t.subtree_leaves(l2).len(), 9);
        let l1 = t.nodes_at_level(1)[0];
        assert_eq!(t.subtree_leaves(l1).len(), 3);
        let leaf = t.leaves().next().unwrap();
        assert_eq!(t.subtree_leaves(leaf), vec![leaf]);
    }

    #[test]
    fn leaf_ranges_match_subtree_leaves() {
        let t = Tree::paper_fig3();
        for id in t.ids() {
            let mut from_range = t.leaf_range(id).to_vec();
            from_range.sort_unstable();
            assert_eq!(from_range, t.subtree_leaves(id));
        }
    }

    #[test]
    fn leaf_order_covers_leaves_once() {
        for t in [
            Tree::paper_fig3(),
            Tree::paper_testbed(),
            Tree::uniform(&[4]),
        ] {
            let mut order = t.leaf_order().to_vec();
            order.sort_unstable();
            let mut leaves: Vec<_> = t.leaves().collect();
            leaves.sort_unstable();
            assert_eq!(order, leaves);
            for (pos, &leaf) in t.leaf_order().iter().enumerate() {
                assert_eq!(t.leaf_position(leaf), Some(pos));
            }
            assert_eq!(t.leaf_position(t.root()), None);
        }
    }

    #[test]
    fn subtree_contains_is_ancestry() {
        let t = Tree::paper_fig3();
        for id in t.ids() {
            for leaf in t.leaves() {
                let expected = leaf == id || t.ancestors(leaf).any(|a| a == id);
                assert_eq!(t.subtree_contains(id, leaf), expected, "{id} {leaf}");
            }
        }
    }

    #[test]
    fn max_branching() {
        let t = Tree::paper_fig3();
        assert_eq!(t.max_branching_at(3), 2);
        assert_eq!(t.max_branching_at(2), 3);
        assert_eq!(t.max_branching_at(1), 3);
        assert_eq!(t.max_branching_at(0), 0);
    }

    #[test]
    fn uniform_single_level() {
        let t = Tree::uniform(&[5]);
        assert_eq!(t.height(), 1);
        assert_eq!(t.leaves().count(), 5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn uniform_rejects_zero_branching() {
        let _ = Tree::uniform(&[2, 0]);
    }

    #[test]
    fn display_and_index() {
        let id = NodeId(7);
        assert_eq!(id.to_string(), "n7");
        assert_eq!(id.index(), 7);
    }

    #[test]
    fn arena_round_trips_through_wire_format() {
        let fig3 = Tree::paper_fig3();
        let t = fig3.remove_leaf(fig3.find("server4").unwrap()).unwrap();
        let rebuilt = Tree::from_arena(t.to_arena(), t.root()).unwrap();
        assert_eq!(rebuilt, t, "to_arena → from_arena is the identity");
    }

    /// Cross-check every derived index against first-principles walks.
    fn assert_coherent(t: &Tree) {
        let live: Vec<NodeId> = t.ids().filter(|&id| !t.is_detached(id)).collect();
        assert_eq!(t.live_len(), live.len());
        let by_level: usize = (0..=t.height()).map(|l| t.nodes_at_level(l).len()).sum();
        assert_eq!(by_level, live.len(), "levels partition live nodes");
        let mut order = t.leaf_order().to_vec();
        order.sort_unstable();
        let mut leaves: Vec<_> = t.leaves().collect();
        leaves.sort_unstable();
        assert_eq!(order, leaves, "leaf order covers live leaves once");
        for &id in &live {
            let mut from_range = t.leaf_range(id).to_vec();
            from_range.sort_unstable();
            assert_eq!(from_range, t.subtree_leaves(id), "{id}");
            for leaf in t.leaves() {
                let expected = leaf == id || t.ancestors(leaf).any(|a| a == id);
                assert_eq!(t.subtree_contains(id, leaf), expected, "{id} {leaf}");
            }
        }
        for d in t.detached_slots() {
            assert_eq!(t.leaf_position(d), None);
            assert!(t.leaf_range(d).is_empty());
            assert!(!t.subtree_contains(t.root(), d));
        }
    }

    #[test]
    fn remove_then_insert_reuses_slot() {
        let fig3 = Tree::paper_fig3();
        let n = fig3.len();
        let victim = fig3.find("server5").unwrap();
        let parent = fig3.parent(victim).unwrap();
        let t = fig3.remove_leaf(victim).unwrap();
        assert_eq!(fig3, Tree::paper_fig3(), "the source tree is unchanged");
        assert_eq!(t.len(), n, "arena keeps its size");
        assert_eq!(t.live_len(), n - 1);
        assert!(t.is_detached(victim));
        assert_eq!(t.find("server5"), None);
        assert_coherent(&t);

        let (grown, added) = t.insert_leaf(parent, "server5b").unwrap();
        assert!(t.is_detached(victim), "the source tree is unchanged");
        let t = grown;
        assert_eq!(added, victim, "lowest tombstone slot is reused");
        assert_eq!(t.len(), n);
        assert_eq!(t.live_len(), n);
        assert_eq!(t.find("server5b"), Some(added));
        assert!(t.leaf_range(parent).contains(&added));
        assert_coherent(&t);
    }

    #[test]
    fn insert_without_tombstone_grows_arena() {
        let fig3 = Tree::paper_fig3();
        let n = fig3.len();
        let parent = fig3.parent(fig3.find("server1").unwrap()).unwrap();
        let (t, added) = fig3.insert_leaf(parent, "server19").unwrap();
        assert_eq!(fig3, Tree::paper_fig3(), "the source tree is unchanged");
        assert_eq!(added.index(), n);
        assert_eq!(t.len(), n + 1);
        assert_eq!(t.children(parent).len(), 4);
        assert_eq!(t.level(added), 0);
        assert_coherent(&t);
    }

    #[test]
    fn edit_errors_leave_tree_unchanged() {
        let t = Tree::paper_testbed();
        let a = t.find("serverA").unwrap();
        let c = t.find("serverC").unwrap();
        let switch1 = t.parent(a).unwrap();
        let root = t.root();

        assert_eq!(
            t.insert_leaf(NodeId(99), "x"),
            Err(TreeError::UnknownNode(NodeId(99)))
        );
        assert_eq!(
            t.insert_leaf(root, "x"),
            Err(TreeError::NotAboveLeaves(root))
        );
        assert_eq!(t.insert_leaf(a, "x"), Err(TreeError::NotAboveLeaves(a)));
        assert_eq!(
            t.insert_leaf(switch1, "serverC"),
            Err(TreeError::DuplicateName("serverC".to_owned()))
        );
        assert_eq!(
            t.remove_leaf(NodeId(99)),
            Err(TreeError::UnknownNode(NodeId(99)))
        );
        assert_eq!(t.remove_leaf(root), Err(TreeError::Empty));
        assert_eq!(t.remove_leaf(switch1), Err(TreeError::NotALeaf(switch1)));
        let switch2 = t.parent(c).unwrap();
        assert_eq!(t.remove_leaf(c), Err(TreeError::LastChild(switch2)));

        let t = t.remove_leaf(a).unwrap();
        assert_eq!(t.remove_leaf(a), Err(TreeError::Detached(a)));
        assert_eq!(t.insert_leaf(a, "x"), Err(TreeError::Detached(a)));
    }

    #[test]
    fn tree_with_tombstones_serde_round_trips() {
        let fig3 = Tree::paper_fig3();
        let t = fig3.remove_leaf(fig3.find("server7").unwrap()).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: Tree = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t, "tombstones and derived indices survive serde");
        assert_coherent(&back);
    }

    #[test]
    fn malformed_detached_arena_is_rejected() {
        let fig3 = Tree::paper_fig3();
        let t = fig3.remove_leaf(fig3.find("server7").unwrap()).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        // Re-point the tombstone's parent at the root without relinking it
        // as a child: unreachable but carrying links — must be rejected.
        let broken = json.replacen(
            "{\"parent\":null,\"children\":[],\"level\":0,\"name\":\"\"}",
            "{\"parent\":0,\"children\":[],\"level\":0,\"name\":\"\"}",
            1,
        );
        assert_ne!(broken, json, "tombstone found in the serialized arena");
        assert!(serde_json::from_str::<Tree>(&broken).is_err());
    }

    #[test]
    fn repeated_edits_stay_coherent() {
        let mut t = Tree::uniform(&[2, 2]);
        let l1 = t.nodes_at_level(1).to_vec();
        for round in 0..3 {
            let name_a = format!("extra-a{round}");
            let name_b = format!("extra-b{round}");
            let (with_a, a) = t.insert_leaf(l1[0], &name_a).unwrap();
            let (with_b, b) = with_a.insert_leaf(l1[1], &name_b).unwrap();
            assert_coherent(&with_b);
            let without_a = with_b.remove_leaf(a).unwrap();
            assert_coherent(&without_a);
            t = without_a.remove_leaf(b).unwrap();
            assert_coherent(&t);
            assert_eq!(
                with_b.live_len(),
                1 + 2 + 4 + 2,
                "each edit leaves its source"
            );
        }
        assert_eq!(t.live_len(), 1 + 2 + 4);
    }
}
