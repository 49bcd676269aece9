//! The join graph `G_J` (Definition 1) and no-edge-repeating path
//! enumeration (Definition 2).
//!
//! `G_J` is a labeled multigraph: one vertex per relation, one edge per
//! join condition (a condition may carry several atomic predicates
//! between the same pair of relations — e.g. benchmark query Q1 joins
//! `t2` and `t3` on `bsc` *and* `d`; those are separate θ functions and
//! therefore separate edges, exactly as Fig. 1 of the paper draws
//! parallel edges).
//!
//! Every *no-edge-repeating path* is a candidate single-MRJ chain join;
//! [`JoinGraph::enumerate_paths`] produces them in increasing hop count,
//! which is the traversal order Algorithm 2 of the paper needs.

use crate::theta::Predicate;
use std::collections::BTreeSet;
use std::fmt;

/// One edge of `G_J`: a θ condition between two relations.
#[derive(Debug, Clone)]
pub struct JoinEdge {
    /// Edge id (`θ_i` in the paper), dense from 0.
    pub id: usize,
    /// Endpoint vertex (relation) indices. `u < v` is *not* required;
    /// the graph is undirected.
    pub u: usize,
    /// Second endpoint.
    pub v: usize,
    /// The atomic predicates conjoined on this edge. All reference only
    /// the two endpoint relations.
    pub predicates: Vec<Predicate>,
}

impl JoinEdge {
    /// The endpoint other than `w`.
    ///
    /// # Panics
    /// Panics if `w` is not an endpoint.
    pub fn other(&self, w: usize) -> usize {
        if w == self.u {
            self.v
        } else if w == self.v {
            self.u
        } else {
            panic!("vertex {w} is not an endpoint of edge {}", self.id)
        }
    }
}

/// A no-edge-repeating path: the ordered edges traversed and the vertex
/// sequence they induce. Paths are the MRJ candidates of the paper; the
/// vertex sequence (with repeats allowed — only *edges* must be unique)
/// is the chain the Hilbert partitioner works over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPath {
    /// Edge ids in traversal order.
    pub edges: Vec<usize>,
    /// Vertices in traversal order; `vertices.len() == edges.len() + 1`.
    pub vertices: Vec<usize>,
}

impl JoinPath {
    /// Endpoints `(first, last)`.
    pub fn endpoints(&self) -> (usize, usize) {
        (
            *self.vertices.first().expect("path has vertices"),
            *self.vertices.last().expect("path has vertices"),
        )
    }

    /// Number of hops (edges).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if the path has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The set of *distinct* relations on the path, sorted.
    pub fn distinct_vertices(&self) -> Vec<usize> {
        let s: BTreeSet<usize> = self.vertices.iter().copied().collect();
        s.into_iter().collect()
    }

    /// Edge-id set as a bitmask (panics if an edge id ≥ 64; the paper's
    /// graphs have single-digit edge counts).
    pub fn edge_mask(&self) -> u64 {
        let mut m = 0u64;
        for &e in &self.edges {
            assert!(e < 64, "edge id {e} too large for bitmask");
            m |= 1 << e;
        }
        m
    }
}

impl fmt::Display for JoinPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "θ{e}")?;
        }
        write!(f, "}}")
    }
}

/// The join graph `G_J` of an N-join query.
#[derive(Debug, Clone)]
pub struct JoinGraph {
    /// Relation names, indexed by vertex id.
    pub relations: Vec<String>,
    /// The condition edges.
    pub edges: Vec<JoinEdge>,
}

impl JoinGraph {
    /// Build a graph over `relations`; edges are added with
    /// [`JoinGraph::add_edge`].
    pub fn new(relations: Vec<String>) -> Self {
        JoinGraph {
            relations,
            edges: Vec::new(),
        }
    }

    /// Add a condition edge between vertices `u` and `v`; returns its id.
    pub fn add_edge(&mut self, u: usize, v: usize, predicates: Vec<Predicate>) -> usize {
        assert!(u < self.relations.len() && v < self.relations.len());
        assert_ne!(u, v, "self-joins must use two relation instances");
        let id = self.edges.len();
        self.edges.push(JoinEdge {
            id,
            u,
            v,
            predicates,
        });
        id
    }

    /// Adjacency: `(edge id, other endpoint)` pairs per vertex.
    pub fn adjacency(&self) -> Vec<Vec<(usize, usize)>> {
        let mut adj = vec![Vec::new(); self.relations.len()];
        for e in &self.edges {
            adj[e.u].push((e.id, e.v));
            adj[e.v].push((e.id, e.u));
        }
        adj
    }

    /// Is the graph connected (ignoring isolated vertices it is required
    /// to be, per Definition 1)?
    pub fn is_connected(&self) -> bool {
        if self.relations.is_empty() {
            return true;
        }
        let adj = self.adjacency();
        let mut seen = vec![false; self.relations.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for &(_, w) in &adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        seen.iter().all(|&s| s)
    }

    /// Enumerate all no-edge-repeating paths of length 1..=`max_hops`,
    /// in increasing length. Each undirected path is reported once
    /// (the traversal starting from the lexicographically smaller
    /// (endpoint, edge sequence) representative).
    ///
    /// This is the exhaustive enumeration whose full closure is
    /// #P-complete (Theorem 1); callers bound it with `max_hops` and a
    /// result cap, and Algorithm 2's pruning (in `mwtj-planner`) keeps
    /// only useful paths.
    pub fn enumerate_paths(&self, max_hops: usize, cap: usize) -> Vec<JoinPath> {
        let adj = self.adjacency();
        let mut out: Vec<JoinPath> = Vec::new();
        let mut seen_masks: BTreeSet<(u64, usize, usize)> = BTreeSet::new();

        // Iterative DFS from every start vertex; paths are identified by
        // (edge set, endpoint pair) — two traversals of the same edge set
        // between the same endpoints are one MRJ candidate (the paper
        // only cares which θs are covered, "any E(GJP) would be
        // sufficient").
        for start in 0..self.relations.len() {
            let mut stack: Vec<(usize, u64, Vec<usize>, Vec<usize>)> =
                vec![(start, 0u64, Vec::new(), vec![start])];
            while let Some((at, mask, epath, vpath)) = stack.pop() {
                if out.len() >= cap {
                    return out;
                }
                if epath.len() >= max_hops {
                    continue;
                }
                for &(eid, to) in &adj[at] {
                    if mask & (1 << eid) != 0 {
                        continue;
                    }
                    let nmask = mask | (1 << eid);
                    let mut nep = epath.clone();
                    nep.push(eid);
                    let mut nvp = vpath.clone();
                    nvp.push(to);
                    let (a, b) = (start.min(to), start.max(to));
                    if seen_masks.insert((nmask, a, b)) {
                        out.push(JoinPath {
                            edges: nep.clone(),
                            vertices: nvp.clone(),
                        });
                    }
                    stack.push((to, nmask, nep, nvp));
                }
            }
        }
        out.sort_by_key(|p| (p.len(), p.edges.clone()));
        out.truncate(cap);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 1 graph: R1..R5 with
    /// θ1,θ2 ∈ R1–R2 region… precisely: θ1(R1,R2), θ2(R2,R3), θ3(R1,R3),
    /// θ4(R3,R4), θ5(R3,R5), θ6(R4,R5).
    fn fig1() -> JoinGraph {
        let mut g = JoinGraph::new((1..=5).map(|i| format!("R{i}")).collect::<Vec<_>>());
        g.add_edge(0, 1, vec![]); // θ0 : R1-R2   (paper's θ1)
        g.add_edge(1, 2, vec![]); // θ1 : R2-R3   (paper's θ2)
        g.add_edge(0, 2, vec![]); // θ2 : R1-R3   (paper's θ3)
        g.add_edge(2, 3, vec![]); // θ3 : R3-R4   (paper's θ4)
        g.add_edge(2, 4, vec![]); // θ4 : R3-R5   (paper's θ5)
        g.add_edge(3, 4, vec![]); // θ5 : R4-R5   (paper's θ6)
        g
    }

    #[test]
    fn connectivity() {
        assert!(fig1().is_connected());
        let mut g = JoinGraph::new(vec!["a".into(), "b".into(), "c".into()]);
        g.add_edge(0, 1, vec![]);
        assert!(!g.is_connected());
    }

    #[test]
    fn single_hop_paths_are_edges() {
        let g = fig1();
        let paths = g.enumerate_paths(1, usize::MAX);
        assert_eq!(paths.len(), g.edges.len());
        for p in &paths {
            assert_eq!(p.len(), 1);
        }
    }

    #[test]
    fn paths_never_repeat_edges() {
        let g = fig1();
        for p in g.enumerate_paths(6, usize::MAX) {
            let set: BTreeSet<usize> = p.edges.iter().copied().collect();
            assert_eq!(set.len(), p.edges.len(), "path {:?} repeats an edge", p);
            // vertex sequence consistent with edges
            for (i, &e) in p.edges.iter().enumerate() {
                let edge = &g.edges[e];
                let (a, b) = (p.vertices[i], p.vertices[i + 1]);
                assert!(
                    (edge.u == a && edge.v == b) || (edge.u == b && edge.v == a),
                    "edge {e} does not connect {a},{b}"
                );
            }
        }
    }

    #[test]
    fn fig1_has_eulerian_paths() {
        // Fig. 1's graph has an Eulerian circuit (all vertices even
        // degree): R1(2) R2(2) R3(4) R4(2) R5(2). So some length-6
        // no-edge-repeating path covers all edges.
        let g = fig1();
        let paths = g.enumerate_paths(6, usize::MAX);
        assert!(
            paths.iter().any(|p| p.len() == 6),
            "Eulerian circuit missing"
        );
    }

    #[test]
    fn paper_example_path_r1_r2() {
        // The paper's Fig. 1 matrix lists {θ3,θ4,θ6,θ5,θ2} (our ids
        // {2,3,5,4,1}) as a 5-hop R1→R2 path.
        let g = fig1();
        let paths = g.enumerate_paths(5, usize::MAX);
        let want: BTreeSet<usize> = [2, 3, 5, 4, 1].into_iter().collect();
        assert!(
            paths.iter().any(|p| {
                let (a, b) = p.endpoints();
                let set: BTreeSet<usize> = p.edges.iter().copied().collect();
                ((a, b) == (0, 1) || (a, b) == (1, 0)) && set == want
            }),
            "missing the paper's 5-hop R1-R2 path"
        );
    }

    #[test]
    fn cap_is_respected() {
        let g = fig1();
        let paths = g.enumerate_paths(6, 5);
        assert_eq!(paths.len(), 5);
    }

    #[test]
    fn edge_mask_and_other() {
        let g = fig1();
        let e = &g.edges[3];
        assert_eq!(e.other(2), 3);
        assert_eq!(e.other(3), 2);
        let p = JoinPath {
            edges: vec![0, 2],
            vertices: vec![1, 0, 2],
        };
        assert_eq!(p.edge_mask(), 0b101);
        assert_eq!(p.distinct_vertices(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_panics_off_edge() {
        fig1().edges[0].other(4);
    }
}
