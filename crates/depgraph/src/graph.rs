//! Dependence graphs over cached objects.
//!
//! A directed edge `a → b` records that `a` *depends on* (embeds,
//! references) `b` — e.g. a story page depends on its photos. §5.2 stores
//! relationships in exactly such graphs; the mutual-consistency machinery
//! then consumes them as flat [`ObjectGroup`]s, produced here either per
//! embedding ([`DependencyGraph::embedding_groups`]: each page with its
//! direct dependencies) or per weakly connected component
//! ([`DependencyGraph::component_groups`]: everything transitively
//! related).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use mutcon_core::error::ConfigError;
use mutcon_core::group::{GroupRegistry, ObjectGroup};
use mutcon_core::object::ObjectId;

/// A directed dependence graph over object identifiers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DependencyGraph {
    /// node → nodes it depends on.
    out_edges: BTreeMap<ObjectId, BTreeSet<ObjectId>>,
    /// node → nodes depending on it.
    in_edges: BTreeMap<ObjectId, BTreeSet<ObjectId>>,
}

impl DependencyGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DependencyGraph::default()
    }

    /// Ensures a node exists (isolated nodes are legal).
    pub fn add_node(&mut self, id: ObjectId) {
        self.out_edges.entry(id.clone()).or_default();
        self.in_edges.entry(id).or_default();
    }

    /// Adds the edge `from → to` ("`from` depends on `to`"), creating
    /// nodes as needed. Self-edges are ignored.
    pub fn add_dependency(&mut self, from: ObjectId, to: ObjectId) {
        self.add_node(from.clone());
        if from == to {
            return;
        }
        self.add_node(to.clone());
        self.out_edges.get_mut(&from).expect("just added").insert(to.clone());
        self.in_edges.get_mut(&to).expect("just added").insert(from);
    }

    /// Whether the node exists.
    pub fn contains(&self, id: &ObjectId) -> bool {
        self.out_edges.contains_key(id)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out_edges.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.out_edges.values().map(BTreeSet::len).sum()
    }

    /// All nodes, in sorted order.
    pub fn nodes(&self) -> impl Iterator<Item = &ObjectId> + '_ {
        self.out_edges.keys()
    }

    /// Direct dependencies of `id` (what it embeds).
    pub fn dependencies<'a>(&'a self, id: &ObjectId) -> impl Iterator<Item = &'a ObjectId> + 'a {
        self.out_edges.get(id).into_iter().flatten()
    }

    /// Direct dependents of `id` (what embeds it).
    pub fn dependents<'a>(&'a self, id: &ObjectId) -> impl Iterator<Item = &'a ObjectId> + 'a {
        self.in_edges.get(id).into_iter().flatten()
    }

    /// Everything reachable from `id` following dependency edges
    /// (excluding `id` itself), breadth-first.
    pub fn transitive_dependencies(&self, id: &ObjectId) -> Vec<ObjectId> {
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<&ObjectId> = self.dependencies(id).collect();
        let mut out = Vec::new();
        seen.insert(id.clone());
        while let Some(next) = queue.pop_front() {
            if seen.insert(next.clone()) {
                out.push(next.clone());
                queue.extend(self.dependencies(next));
            }
        }
        out
    }

    /// Whether the dependency relation contains a cycle.
    pub fn has_cycle(&self) -> bool {
        // Kahn's algorithm: a cycle exists iff topological sort is partial.
        let mut in_deg: BTreeMap<&ObjectId, usize> = self
            .in_edges
            .iter()
            .map(|(id, preds)| (id, preds.len()))
            .collect();
        let mut queue: VecDeque<&ObjectId> = in_deg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&id, _)| id)
            .collect();
        let mut visited = 0usize;
        while let Some(id) = queue.pop_front() {
            visited += 1;
            for dep in self.dependencies(id) {
                let d = in_deg.get_mut(dep).expect("node exists");
                *d -= 1;
                if *d == 0 {
                    queue.push_back(dep);
                }
            }
        }
        visited != self.node_count()
    }

    /// One group per node with outgoing edges: the node plus its direct
    /// dependencies — the "story + embedded objects" grouping of §1.
    /// Group ids are `embed:<node>`.
    pub fn embedding_groups(&self) -> Vec<ObjectGroup> {
        self.out_edges
            .iter()
            .filter(|(_, deps)| !deps.is_empty())
            .map(|(id, deps)| {
                let members = std::iter::once(id.clone()).chain(deps.iter().cloned());
                ObjectGroup::new(format!("embed:{id}"), members)
                    .expect("≥2 members: node plus a non-empty dependency set")
            })
            .collect()
    }

    /// One group per weakly connected component with at least two nodes.
    /// Group ids are `component:<smallest member>`.
    pub fn component_groups(&self) -> Vec<ObjectGroup> {
        let mut seen: BTreeSet<&ObjectId> = BTreeSet::new();
        let mut groups = Vec::new();
        for start in self.out_edges.keys() {
            if seen.contains(start) {
                continue;
            }
            // BFS over the undirected view.
            let mut component = BTreeSet::new();
            let mut queue = VecDeque::from([start]);
            while let Some(id) = queue.pop_front() {
                if !component.insert(id.clone()) {
                    continue;
                }
                seen.insert(id);
                queue.extend(self.dependencies(id));
                queue.extend(self.dependents(id));
            }
            if component.len() >= 2 {
                let leader = component.iter().next().expect("non-empty").clone();
                groups.push(
                    ObjectGroup::new(format!("component:{leader}"), component)
                        .expect("component has ≥2 members"),
                );
            }
        }
        groups
    }

    /// Builds a [`GroupRegistry`] from the chosen grouping strategy.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice (both strategies only emit valid
    /// groups); the `Result` is kept for future strategies that may
    /// validate user input.
    pub fn to_registry(&self, strategy: Grouping) -> Result<GroupRegistry, ConfigError> {
        let groups = match strategy {
            Grouping::Embedding => self.embedding_groups(),
            Grouping::Component => self.component_groups(),
        };
        Ok(groups.into_iter().collect())
    }
}

/// How to flatten a dependence graph into groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grouping {
    /// Each page with its direct embedded objects.
    Embedding,
    /// Each weakly connected component.
    Component,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(s: &str) -> ObjectId {
        ObjectId::new(s)
    }

    fn sample() -> DependencyGraph {
        let mut g = DependencyGraph::new();
        g.add_dependency(oid("story"), oid("img1"));
        g.add_dependency(oid("story"), oid("img2"));
        g.add_dependency(oid("index"), oid("story"));
        g.add_node(oid("isolated"));
        g
    }

    #[test]
    fn nodes_and_edges() {
        let g = sample();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 3);
        assert!(g.contains(&oid("img1")));
        assert!(!g.contains(&oid("nope")));
        assert_eq!(g.nodes().count(), 5);
    }

    #[test]
    fn self_edges_ignored() {
        let mut g = DependencyGraph::new();
        g.add_dependency(oid("a"), oid("a"));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut g = DependencyGraph::new();
        g.add_dependency(oid("a"), oid("b"));
        g.add_dependency(oid("a"), oid("b"));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn direct_relations() {
        let g = sample();
        let deps: Vec<_> = g.dependencies(&oid("story")).cloned().collect();
        assert_eq!(deps, vec![oid("img1"), oid("img2")]);
        let dependents: Vec<_> = g.dependents(&oid("story")).cloned().collect();
        assert_eq!(dependents, vec![oid("index")]);
        assert_eq!(g.dependencies(&oid("missing")).count(), 0);
    }

    #[test]
    fn transitive_dependencies_bfs() {
        let g = sample();
        let all = g.transitive_dependencies(&oid("index"));
        assert_eq!(all, vec![oid("story"), oid("img1"), oid("img2")]);
        assert!(g.transitive_dependencies(&oid("img1")).is_empty());
    }

    #[test]
    fn transitive_handles_diamonds_and_cycles() {
        let mut g = DependencyGraph::new();
        g.add_dependency(oid("a"), oid("b"));
        g.add_dependency(oid("a"), oid("c"));
        g.add_dependency(oid("b"), oid("d"));
        g.add_dependency(oid("c"), oid("d"));
        g.add_dependency(oid("d"), oid("a")); // cycle back
        let deps = g.transitive_dependencies(&oid("a"));
        assert_eq!(deps.len(), 3); // b, c, d — not a itself
        assert!(!deps.contains(&oid("a")));
    }

    #[test]
    fn cycle_detection() {
        let mut g = sample();
        assert!(!g.has_cycle());
        g.add_dependency(oid("img1"), oid("index"));
        assert!(g.has_cycle());
        assert!(!DependencyGraph::new().has_cycle());
    }

    #[test]
    fn embedding_groups_cover_pages() {
        let g = sample();
        let groups = g.embedding_groups();
        assert_eq!(groups.len(), 2); // story and index have outgoing edges
        let story_group = groups
            .iter()
            .find(|g| g.id().as_str() == "embed:story")
            .unwrap();
        assert_eq!(story_group.len(), 3);
        assert!(story_group.contains(&oid("img1")));
        assert!(story_group.contains(&oid("story")));
    }

    #[test]
    fn component_groups_merge_transitively() {
        let g = sample();
        let groups = g.component_groups();
        // One component of 4 (index, story, img1, img2); `isolated` is
        // alone and therefore dropped.
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 4);
        assert!(!groups[0].contains(&oid("isolated")));
    }

    #[test]
    fn registry_from_graph() {
        let g = sample();
        let reg = g.to_registry(Grouping::Embedding).unwrap();
        assert_eq!(reg.len(), 2);
        let story = oid("story");
        // story belongs to both its own embed group and index's.
        assert_eq!(reg.groups_of(&story).count(), 2);
        let reg = g.to_registry(Grouping::Component).unwrap();
        assert_eq!(reg.len(), 1);
    }

    /// Random graphs: every embedding group holds its page and something
    /// it embeds, and the component groups partition the nodes that have
    /// an edge.
    #[test]
    fn groupings_are_sound_on_random_graphs() {
        for seed in 0..1_000 {
            let mut rng = mutcon_sim::rng::SimRng::seed_from_u64(seed);
            let mut g = DependencyGraph::new();
            let mut linked = std::collections::BTreeSet::new();
            for _ in 0..rng.uniform_u64(1, 60) {
                let (a, b) = (
                    oid(&format!("n{}", rng.uniform_u64(0, 20))),
                    oid(&format!("n{}", rng.uniform_u64(0, 20))),
                );
                if a != b {
                    linked.extend([a.clone(), b.clone()]);
                }
                g.add_dependency(a, b);
            }
            for group in g.embedding_groups() {
                let page = group
                    .id()
                    .as_str()
                    .strip_prefix("embed:")
                    .expect("embedding group ids are prefixed");
                assert!(
                    group.contains(&oid(page)),
                    "seed {seed}: {page} missing from its group"
                );
                assert!(
                    group.len() >= 2,
                    "seed {seed}: {page}'s group embeds nothing"
                );
            }
            let mut covered = std::collections::BTreeSet::new();
            for group in g.component_groups() {
                for m in group.members() {
                    assert!(
                        covered.insert(m.clone()),
                        "seed {seed}: {m} in two components"
                    );
                }
            }
            assert_eq!(covered, linked, "seed {seed}");
        }
    }
}
