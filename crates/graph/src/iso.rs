//! Attributed graph isomorphism (Definition 4), the tracker's first test
//! for corresponding regions (Algorithm 1).
//!
//! The test is an exact backtracking search in the spirit of VF2,
//! specialized to the small graphs ([`SmallGraph`]) that the STRG pipeline
//! matches: neighborhood stars. Node and edge attributes are compared
//! through [`CompatParams`], so "equal label" means "within tolerance".

use crate::attr::CompatParams;
use crate::small::SmallGraph;

/// Whether `g1` and `g2` are isomorphic (Definition 4): a bijection between
/// their node sets preserving node labels and (attributed) adjacency.
///
/// Returns the witness mapping `f` (node `i` of `g1` maps to `f[i]` of `g2`)
/// if one exists.
pub fn isomorphism(g1: &SmallGraph, g2: &SmallGraph, p: &CompatParams) -> Option<Vec<u8>> {
    if g1.node_count() != g2.node_count() || g1.edge_count() != g2.edge_count() {
        return None;
    }
    // Degree multisets must match.
    let mut d1: Vec<u32> = (0..g1.node_count()).map(|v| g1.degree(v as u8)).collect();
    let mut d2: Vec<u32> = (0..g2.node_count()).map(|v| g2.degree(v as u8)).collect();
    d1.sort_unstable();
    d2.sort_unstable();
    if d1 != d2 {
        return None;
    }
    let mut state = Matcher::new(g1, g2, p);
    if state.search(0) {
        Some(state.mapping)
    } else {
        None
    }
}

/// Backtracking matcher mapping the nodes of `g1` into `g2` in index
/// order. Non-edges must map to non-edges (induced matching, as the
/// paper's Definition 3 subgraphs are).
struct Matcher<'a> {
    g1: &'a SmallGraph,
    g2: &'a SmallGraph,
    p: &'a CompatParams,
    mapping: Vec<u8>,
    used: u64,
}

impl<'a> Matcher<'a> {
    fn new(g1: &'a SmallGraph, g2: &'a SmallGraph, p: &'a CompatParams) -> Self {
        Self {
            g1,
            g2,
            p,
            mapping: vec![0; g1.node_count()],
            used: 0,
        }
    }

    fn feasible(&self, v1: u8, v2: u8) -> bool {
        if self.used & (1 << v2) != 0 {
            return false;
        }
        if !self
            .p
            .nodes_compatible(self.g1.label(v1), self.g2.label(v2))
        {
            return false;
        }
        if self.g1.degree(v1) > self.g2.degree(v2) {
            return false;
        }
        // Consistency with already-mapped pattern nodes.
        for prev in 0..v1 {
            let w2 = self.mapping[prev as usize];
            let e1 = self.g1.has_edge(v1, prev);
            let e2 = self.g2.has_edge(v2, w2);
            if e1 {
                if !e2 {
                    return false;
                }
                let a1 = self.g1.edge_attr(v1, prev).expect("edge present");
                let a2 = self.g2.edge_attr(v2, w2).expect("edge present");
                if !self.p.edges_compatible(a1, a2) {
                    return false;
                }
            } else if e2 {
                return false;
            }
        }
        true
    }

    fn search(&mut self, v1: u8) -> bool {
        if v1 as usize == self.g1.node_count() {
            return true;
        }
        for v2 in 0..self.g2.node_count() as u8 {
            if self.feasible(v1, v2) {
                self.mapping[v1 as usize] = v2;
                self.used |= 1 << v2;
                if self.search(v1 + 1) {
                    return true;
                }
                self.used &= !(1 << v2);
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{NodeAttr, SpatialEdgeAttr};
    use crate::geom::{Point2, Rgb};

    fn attr(color: f64) -> NodeAttr {
        NodeAttr::new(10, Rgb::new(color, 0.0, 0.0), Point2::ZERO)
    }

    fn e(d: f64) -> SpatialEdgeAttr {
        SpatialEdgeAttr {
            distance: d,
            orientation: 0.0,
        }
    }

    /// Path a(0) - b(50) - c(100).
    fn path3(colors: [f64; 3]) -> SmallGraph {
        let mut g = SmallGraph::new();
        let a = g.add_node(attr(colors[0]));
        let b = g.add_node(attr(colors[1]));
        let c = g.add_node(attr(colors[2]));
        g.add_edge(a, b, e(1.0));
        g.add_edge(b, c, e(1.0));
        g
    }

    fn loose() -> CompatParams {
        CompatParams {
            color_tol: 5.0,
            size_rel_tol: 1.0,
            edge_dist_tol: 100.0,
            edge_orient_tol: 10.0,
        }
    }

    #[test]
    fn identical_paths_are_isomorphic() {
        let g1 = path3([0.0, 50.0, 100.0]);
        let g2 = path3([0.0, 50.0, 100.0]);
        let f = isomorphism(&g1, &g2, &loose()).expect("isomorphic");
        assert_eq!(f, vec![0, 1, 2]);
    }

    #[test]
    fn relabeled_paths_are_isomorphic() {
        let g1 = path3([0.0, 50.0, 100.0]);
        // Same structure, nodes inserted in reversed color order.
        let g2 = path3([100.0, 50.0, 0.0]);
        let f = isomorphism(&g1, &g2, &loose()).expect("isomorphic");
        assert_eq!(f, vec![2, 1, 0]);
    }

    #[test]
    fn label_mismatch_blocks_isomorphism() {
        let g1 = path3([0.0, 50.0, 100.0]);
        let g2 = path3([0.0, 50.0, 200.0]);
        assert!(isomorphism(&g1, &g2, &loose()).is_none());
    }

    #[test]
    fn structure_mismatch_blocks_isomorphism() {
        let g1 = path3([0.0, 0.0, 0.0]);
        let mut g2 = path3([0.0, 0.0, 0.0]);
        g2.add_edge(0, 2, e(1.0)); // triangle now
        assert!(isomorphism(&g1, &g2, &loose()).is_none());
    }

    #[test]
    fn different_sizes_never_isomorphic() {
        let g1 = path3([0.0, 0.0, 0.0]);
        let mut g2 = path3([0.0, 0.0, 0.0]);
        g2.add_node(attr(0.0));
        assert!(isomorphism(&g1, &g2, &loose()).is_none());
    }

    #[test]
    fn edge_attr_tolerance_enforced() {
        let mut g1 = SmallGraph::new();
        let a = g1.add_node(attr(0.0));
        let b = g1.add_node(attr(0.0));
        g1.add_edge(a, b, e(10.0));

        let mut g2 = SmallGraph::new();
        let a = g2.add_node(attr(0.0));
        let b = g2.add_node(attr(0.0));
        g2.add_edge(a, b, e(200.0));

        let mut p = loose();
        p.edge_dist_tol = 5.0;
        assert!(isomorphism(&g1, &g2, &p).is_none());
        p.edge_dist_tol = 500.0;
        assert!(isomorphism(&g1, &g2, &p).is_some());
    }

    #[test]
    fn star_isomorphism_matches_permuted_leaves() {
        // Stars with the same multiset of leaf colors but different insertion
        // order must match.
        let mk = |leaves: &[f64]| {
            let mut g = SmallGraph::new();
            let c = g.add_node(attr(10.0));
            for &l in leaves {
                let n = g.add_node(attr(l));
                g.add_edge(c, n, e(1.0));
            }
            g
        };
        let g1 = mk(&[0.0, 50.0, 100.0, 150.0]);
        let g2 = mk(&[150.0, 0.0, 100.0, 50.0]);
        assert!(isomorphism(&g1, &g2, &loose()).is_some());

        let g3 = mk(&[150.0, 0.0, 100.0, 200.0]);
        assert!(isomorphism(&g1, &g3, &loose()).is_none());
    }
}
