//! Connected components and a weighted-union union-find.
//!
//! The MaxSubGraph-Greedy heuristic (Algorithm 3 of the paper) needs to
//! track "size of the maximum connected subgraph of the dominated set" as
//! vertices are added one at a time — incremental connectivity is exactly
//! what [`UnionFind`] provides. The saturated E2E connectivity metric is a
//! straight function of component sizes.

use crate::view::{FullView, GraphView};
use crate::{Graph, NodeId};
use serde::{Deserialize, Serialize};

/// Union-find (disjoint set union) with path halving and union by size.
///
/// ```
/// use netgraph::UnionFind;
/// let mut uf = UnionFind::new(4);
/// uf.union(0, 1);
/// uf.union(2, 3);
/// assert!(uf.connected(0, 1));
/// assert!(!uf.connected(1, 2));
/// assert_eq!(uf.component_size(0), 2);
/// uf.union(1, 3);
/// assert_eq!(uf.largest_component(), 4);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
    largest: u32,
}

impl UnionFind {
    /// `n` singleton components.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
            largest: if n == 0 { 0 } else { 1 },
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s component. Path-halving, amortized ~O(α(n)).
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x as usize
    }

    /// Merge the components of `a` and `b`; returns `true` if they were
    /// previously separate.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        self.largest = self.largest.max(self.size[ra]);
        self.components -= 1;
        true
    }

    /// Whether `a` and `b` are in the same component.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the component containing `x`.
    pub fn component_size(&mut self, x: usize) -> usize {
        let r = self.find(x);
        self.size[r] as usize
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Size of the largest component (1 for a fresh non-empty structure).
    pub fn largest_component(&self) -> usize {
        self.largest as usize
    }

    /// The [`Components`] of the current partition. Components are
    /// labelled in order of their smallest vertex.
    pub fn into_components(mut self) -> Components {
        let n = self.len();
        let mut label = vec![u32::MAX; n];
        let mut sizes: Vec<usize> = Vec::new();
        for v in 0..n {
            let r = self.find(v);
            if label[r] == u32::MAX {
                label[r] = sizes.len() as u32;
                sizes.push(0);
            }
            label[v] = label[r];
            sizes[label[r] as usize] += 1;
        }
        Components { label, sizes }
    }
}

/// Result of a full connected-components decomposition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Components {
    /// `label[v]` = component index of vertex `v`, in `0..count`.
    pub label: Vec<u32>,
    /// `sizes[c]` = number of vertices in component `c`; descending order
    /// is *not* guaranteed — use [`Components::giant`] for the largest.
    pub sizes: Vec<usize>,
}

impl Components {
    /// Number of components.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Index and size of the largest component.
    ///
    /// Returns `None` for an empty graph.
    pub fn giant(&self) -> Option<(usize, usize)> {
        self.sizes
            .iter()
            .enumerate()
            .max_by_key(|&(_, s)| *s)
            .map(|(i, &s)| (i, s))
    }

    /// Number of ordered pairs `(u, v)`, `u != v`, that lie in the same
    /// component. This is the numerator of the paper's *saturated E2E
    /// connectivity*.
    pub fn connected_ordered_pairs(&self) -> u64 {
        self.sizes
            .iter()
            .map(|&s| (s as u64) * (s as u64 - 1))
            .sum()
    }

    /// Members of component `c`.
    pub fn members(&self, c: usize) -> Vec<NodeId> {
        self.label
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l as usize == c)
            .map(|(v, _)| NodeId::from(v))
            .collect()
    }
}

/// Decompose `g` into connected components: [`view_components`] over
/// the full graph.
pub fn connected_components(g: &Graph) -> Components {
    view_components(&FullView::new(g))
}

/// Connected components of an arbitrary [`GraphView`] via union-find
/// over its surviving adjacency.
///
/// Every vertex in `0..node_count()` gets a label; vertices the view
/// excludes (`contains_node` false) and vertices with no surviving edges
/// end up as singleton components, so they contribute zero connected
/// pairs — which makes this a drop-in replacement for edge-set-specific
/// component passes (the dominated edge set, failure-masked views, and
/// their compositions) when computing saturated connectivity.
pub fn view_components<V: GraphView>(view: &V) -> Components {
    let n = view.node_count();
    let mut uf = UnionFind::new(n);
    for u in 0..n {
        let u_id = NodeId::from(u);
        if !view.contains_node(u_id) {
            continue;
        }
        view.for_each_neighbor(u_id, |v| {
            uf.union(u, v.index());
        });
    }
    uf.into_components()
}

impl crate::Validate for UnionFind {
    /// Re-derive the union-find invariants from the raw arrays:
    ///
    /// 1. `parent` and `size` are index-aligned and every parent id is in
    ///    range;
    /// 2. every parent chain terminates at a root (no cycles);
    /// 3. the cached component count equals the number of roots;
    /// 4. each root's cached size equals the number of elements whose
    ///    chain reaches it, and the sizes sum to `n`;
    /// 5. the cached `largest` equals the true maximum component size.
    fn audit(&self) -> crate::AuditReport {
        let mut rep = crate::AuditReport::new("netgraph::UnionFind");
        let n = self.parent.len();
        rep.check("uf.arrays-aligned", self.size.len() == n, || {
            format!("parent len {n}, size len {}", self.size.len())
        });
        let in_range = self.parent.iter().all(|&p| (p as usize) < n.max(1));
        rep.check("uf.parents-in-range", n == 0 || in_range, || {
            format!("a parent id is >= {n}")
        });
        if n == 0 || !in_range || self.size.len() != n {
            return rep; // chasing chains below would be unsound
        }
        // Resolve every element's root without path compression; a chain
        // longer than n elements means a cycle.
        let mut root_of = vec![u32::MAX; n];
        let mut cyclic = false;
        for (i, slot) in root_of.iter_mut().enumerate() {
            let mut x = i;
            let mut steps = 0usize;
            while self.parent[x] as usize != x {
                x = self.parent[x] as usize;
                steps += 1;
                if steps > n {
                    cyclic = true;
                    break;
                }
            }
            *slot = x as u32;
        }
        rep.check("uf.acyclic", !cyclic, || {
            "a parent chain does not terminate".into()
        });
        if cyclic {
            return rep;
        }
        let mut derived_size = vec![0u32; n];
        for &r in &root_of {
            derived_size[r as usize] += 1;
        }
        let roots: Vec<usize> = (0..n).filter(|&i| self.parent[i] as usize == i).collect();
        rep.check("uf.component-count", self.components == roots.len(), || {
            format!(
                "cached {} components, found {} roots",
                self.components,
                roots.len()
            )
        });
        let sizes_ok = roots.iter().all(|&r| self.size[r] == derived_size[r]);
        rep.check("uf.root-sizes", sizes_ok, || {
            roots
                .iter()
                .find(|&&r| self.size[r] != derived_size[r])
                .map(|&r| {
                    format!(
                        "root {r}: cached size {}, derived {}",
                        self.size[r], derived_size[r]
                    )
                })
                .unwrap_or_default()
        });
        let true_largest = roots.iter().map(|&r| derived_size[r]).max().unwrap_or(0);
        rep.check("uf.largest", self.largest == true_largest, || {
            format!("cached largest {}, derived {true_largest}", self.largest)
        });
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::from_edges;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(1, 2));
        assert_eq!(uf.component_size(2), 3);
        assert_eq!(uf.largest_component(), 3);
        assert_eq!(uf.component_count(), 3);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 4));
    }

    #[test]
    fn union_find_empty() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.largest_component(), 0);
        assert_eq!(uf.component_count(), 0);
    }

    #[test]
    fn components_two_islands() {
        let g = from_edges(
            6,
            [(0, 1), (1, 2), (3, 4)].map(|(a, b)| (NodeId(a), NodeId(b))),
        );
        let c = connected_components(&g);
        assert_eq!(c.count(), 3); // {0,1,2}, {3,4}, {5}
        let mut sizes = c.sizes.clone();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 3]);
        assert_eq!(c.giant().unwrap().1, 3);
        // ordered pairs: 3*2 + 2*1 + 0 = 8
        assert_eq!(c.connected_ordered_pairs(), 8);
        assert_eq!(c.label[0], c.label[2]);
        assert_ne!(c.label[0], c.label[3]);
    }

    #[test]
    fn components_empty_graph() {
        let g = from_edges(0, std::iter::empty());
        let c = connected_components(&g);
        assert_eq!(c.count(), 0);
        assert!(c.giant().is_none());
        assert_eq!(c.connected_ordered_pairs(), 0);
    }

    #[test]
    fn members_listing() {
        let g = from_edges(4, [(0, 1)].map(|(a, b)| (NodeId(a), NodeId(b))));
        let c = connected_components(&g);
        let comp_of_0 = c.label[0] as usize;
        assert_eq!(c.members(comp_of_0), vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn union_find_audit_accepts_and_detects_corruption() {
        use crate::Validate;
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(1, 3);
        assert!(uf.audit().is_ok(), "{}", uf.audit());
        assert!(UnionFind::new(0).audit().is_ok());

        // Corrupt the cached component count.
        let mut bad = uf.clone();
        bad.components += 1;
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "uf.component-count"));

        // Corrupt a root's cached size.
        let mut bad = uf.clone();
        let root = bad.find(0);
        bad.size[root] += 1;
        let rep = bad.audit();
        assert!(rep
            .findings
            .iter()
            .any(|f| f.invariant == "uf.root-sizes" || f.invariant == "uf.largest"));

        // Introduce a parent cycle between two roots' children.
        let mut bad = uf.clone();
        let (a, b) = (bad.find(0), bad.find(4));
        bad.parent[a] = b as u32;
        bad.parent[b] = a as u32;
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "uf.acyclic"));
    }
}
