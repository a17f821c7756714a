//! Fluent construction of arbitrary (uniform-depth) hierarchies.

use crate::tree::{NodeId, Tree, TreeBuilderInner, TreeError};

/// Builder for arbitrary PMU hierarchies.
///
/// Willow's level-synchronous control requires all leaves at the same depth;
/// [`TreeBuilder::build`] enforces this and computes node levels.
///
/// ```
/// use willow_topology::TreeBuilder;
///
/// let mut b = TreeBuilder::new("dc");
/// let rack0 = b.add_child(b.root(), "rack0");
/// let rack1 = b.add_child(b.root(), "rack1");
/// b.add_child(rack0, "server1");
/// b.add_child(rack0, "server2");
/// b.add_child(rack1, "server3");
/// let tree = b.build().unwrap();
/// assert_eq!(tree.height(), 2);
/// assert_eq!(tree.leaves().count(), 3);
/// ```
pub struct TreeBuilder {
    inner: TreeBuilderInner,
}

impl TreeBuilder {
    /// Start a tree with a root named `root_name`.
    #[must_use]
    pub fn new(root_name: impl Into<String>) -> Self {
        TreeBuilder {
            inner: TreeBuilderInner::new(root_name),
        }
    }

    /// The root id (always valid).
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.inner.root
    }

    /// Append a child under `parent` and return its id.
    ///
    /// # Panics
    /// Panics if `parent` was not minted by this builder.
    pub fn add_child(&mut self, parent: NodeId, name: impl Into<String>) -> NodeId {
        assert!(
            parent.index() < self.inner.nodes.len(),
            "parent id {parent} does not belong to this builder"
        );
        self.inner.add_child(parent, name)
    }

    /// Finalize into an immutable [`Tree`], validating leaf-depth uniformity.
    pub fn build(self) -> Result<Tree, TreeError> {
        Tree::from_arena(self.inner.nodes, self.inner.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_custom_tree() {
        let mut b = TreeBuilder::new("dc");
        for r in 1..=3 {
            let rack = b.add_child(b.root(), format!("rack{r}"));
            for s in 1..=4 {
                b.add_child(rack, format!("srv{s}"));
            }
        }
        let t = b.build().unwrap();
        assert_eq!(t.height(), 2);
        assert_eq!(t.leaves().count(), 12);
        assert!(t.find("rack2").is_some());
        assert!(t.find("srv4").is_some());
    }

    #[test]
    fn rejects_ragged_leaves() {
        let mut b = TreeBuilder::new("dc");
        let rack = b.add_child(b.root(), "rack");
        b.add_child(rack, "deep-leaf");
        b.add_child(b.root(), "shallow-leaf");
        match b.build() {
            Err(TreeError::RaggedLeaves { .. }) => {}
            other => panic!("expected ragged-leaf error, got {other:?}"),
        }
    }

    #[test]
    fn single_node_tree() {
        let b = TreeBuilder::new("lonely");
        let t = b.build().unwrap();
        assert_eq!(t.height(), 0);
        assert_eq!(t.leaves().count(), 1);
        assert_eq!(t.leaves().next().unwrap(), t.root());
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn foreign_parent_panics() {
        let mut b = TreeBuilder::new("dc");
        b.add_child(NodeId(99), "oops");
    }
}
