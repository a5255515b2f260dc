//! Placement enumeration with node-relabeling symmetry reduction.
//!
//! A placement assigns each component of each member to one node. Nodes
//! are interchangeable (the platform is homogeneous), so placements that
//! differ only by a node permutation are equivalent; enumeration yields
//! one canonical representative per equivalence class.

use ensemble_core::{ComponentSpec, EnsembleSpec, MemberSpec};

/// Structural description of the ensemble to place: per member, the
/// simulation core count and each analysis's core count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnsembleShape {
    /// Per member: (simulation cores, per-analysis cores).
    pub members: Vec<(u32, Vec<u32>)>,
}

impl EnsembleShape {
    /// `n` identical members with `sim_cores` and `k` analyses of
    /// `ana_cores` each — the paper's shapes.
    pub fn uniform(n: usize, sim_cores: u32, k: usize, ana_cores: u32) -> Self {
        EnsembleShape { members: vec![(sim_cores, vec![ana_cores; k]); n] }
    }

    /// Total components (simulations + analyses).
    pub fn num_components(&self) -> usize {
        self.members.iter().map(|(_, a)| 1 + a.len()).sum()
    }

    /// Core demand of component `idx` in flattened order (member-major,
    /// simulation first).
    pub(crate) fn component_cores(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.num_components());
        for (sim, anas) in &self.members {
            v.push(*sim);
            v.extend(anas.iter().copied());
        }
        v
    }

    /// Materializes an [`EnsembleSpec`] from a flattened node assignment.
    pub fn materialize(&self, assignment: &[usize]) -> EnsembleSpec {
        assert_eq!(assignment.len(), self.num_components());
        let mut members = Vec::with_capacity(self.members.len());
        let mut slots = assignment.iter().copied();
        for (sim_cores, anas) in &self.members {
            let sim = ComponentSpec::simulation(*sim_cores, slots.next().expect("length checked"));
            let analyses = anas
                .iter()
                .map(|&c| ComponentSpec::analysis(c, slots.next().expect("length checked")))
                .collect();
            members.push(MemberSpec::new(sim, analyses));
        }
        EnsembleSpec::new(members)
    }
}

/// Canonicalizes an assignment by relabeling nodes in order of first
/// appearance: `[2, 0, 2, 1]` → `[0, 1, 0, 2]`.
///
/// Linear: one pass to size a node→label table, one pass to fill and
/// apply it.
pub fn canonicalize(assignment: &[usize]) -> Vec<usize> {
    const UNLABELED: usize = usize::MAX;
    let table_len = assignment.iter().max().map_or(0, |&m| m + 1);
    let mut label = vec![UNLABELED; table_len];
    let mut next = 0usize;
    assignment
        .iter()
        .map(|&n| {
            if label[n] == UNLABELED {
                label[n] = next;
                next += 1;
            }
            label[n]
        })
        .collect()
}

/// Lazy, resumable enumerator of canonical feasible placements — the
/// streaming form of [`enumerate_placements`].
///
/// Depth-first with the canonical-prefix rule (component `i` may use
/// node `t` only if `t ≤ max-node-used-so-far + 1`), held as an explicit
/// backtracking stack so enumeration can pause after any assignment and
/// resume where it left off. Candidates are produced in exactly the
/// order the old recursive enumeration materialized them, one at a
/// time: no `O(candidates)` allocation up front, which is what lets the
/// parallel scan engine ([`crate::scan`]) stream chunks to workers at
/// paper scale (millions of candidates).
#[derive(Debug, Clone)]
pub struct PlacementIter {
    cores: Vec<u32>,
    max_nodes: usize,
    cores_per_node: u32,
    /// Current (partial) assignment; positions `< depth` are placed.
    assignment: Vec<usize>,
    /// Core load per node under the current partial assignment.
    used: Vec<u32>,
    /// Per depth: the next node index to try when (re)entering it.
    next: Vec<usize>,
    /// Per depth: number of distinct nodes used by the prefix before it
    /// (the recursive formulation's `max_used` argument).
    prefix_max: Vec<usize>,
    depth: usize,
    /// True while `assignment` holds the just-yielded complete leaf.
    at_leaf: bool,
    done: bool,
    yielded: usize,
    /// Lowest depth the DFS backtracked to since the last yield — every
    /// position below it is unchanged from the previous assignment.
    low_water: usize,
}

impl PlacementIter {
    /// Starts enumeration of `shape` onto at most `max_nodes` nodes of
    /// `cores_per_node` cores.
    ///
    /// `max_nodes` is clamped to the component count: the
    /// canonical-prefix rule never hands component `i` a node above
    /// `i`, so the enumeration is exactly the same, and a budget read
    /// off the wire cannot size the per-node state.
    pub fn new(shape: &EnsembleShape, max_nodes: usize, cores_per_node: u32) -> Self {
        let cores = shape.component_cores();
        let n = cores.len();
        let max_nodes = max_nodes.min(n);
        PlacementIter {
            assignment: vec![0; n],
            used: vec![0; max_nodes],
            next: vec![0; n + 1],
            prefix_max: vec![0; n + 1],
            depth: 0,
            at_leaf: false,
            done: max_nodes == 0,
            yielded: 0,
            low_water: 0,
            cores,
            max_nodes,
            cores_per_node,
        }
    }

    /// Assignments yielded so far — the enumeration index of the *next*
    /// assignment [`advance`](Self::advance) will return.
    pub fn yielded(&self) -> usize {
        self.yielded
    }

    /// Advances to the next canonical feasible assignment. The returned
    /// slice aliases internal state and is valid until the next call;
    /// callers that keep it must copy it out.
    pub fn advance(&mut self) -> Option<&[usize]> {
        self.advance_delta().map(|(assignment, _)| assignment)
    }

    /// [`advance`](Self::advance), also reporting the first position at
    /// which the returned assignment differs from the previously
    /// returned one: `assignment[..first_changed]` is unchanged. The
    /// report is conservative (it is the lowest depth the DFS
    /// backtracked to, which may precede the first *actual* difference)
    /// and meaningless on the first yield, where there is no
    /// predecessor.
    pub fn advance_delta(&mut self) -> Option<(&[usize], usize)> {
        if self.done {
            return None;
        }
        let n = self.cores.len();
        if self.at_leaf {
            // Backtrack off the leaf yielded by the previous call.
            self.at_leaf = false;
            self.depth -= 1;
            self.low_water = self.low_water.min(self.depth);
            self.used[self.assignment[self.depth]] -= self.cores[self.depth];
        }
        loop {
            if self.depth == n {
                self.at_leaf = true;
                self.yielded += 1;
                let first_changed = self.low_water;
                self.low_water = n;
                return Some((&self.assignment, first_changed));
            }
            let limit = self.prefix_max[self.depth].min(self.max_nodes - 1);
            let mut t = self.next[self.depth];
            while t <= limit && self.used[t] + self.cores[self.depth] > self.cores_per_node {
                t += 1;
            }
            if t <= limit {
                self.used[t] += self.cores[self.depth];
                self.assignment[self.depth] = t;
                self.next[self.depth] = t + 1;
                self.prefix_max[self.depth + 1] = self.prefix_max[self.depth].max(t + 1);
                self.depth += 1;
                self.next[self.depth] = 0;
            } else if self.depth == 0 {
                self.done = true;
                return None;
            } else {
                self.depth -= 1;
                self.low_water = self.low_water.min(self.depth);
                self.used[self.assignment[self.depth]] -= self.cores[self.depth];
            }
        }
    }

    /// Appends up to `n` consecutive assignments to `flat`, end to end
    /// (each `num_components` wide, the first at enumeration index
    /// [`yielded`](Self::yielded) as of the call), and to `hints` each
    /// one's first-changed position relative to the assignment
    /// enumerated immediately before it (meaningless for enumeration
    /// index 0, which has no predecessor). Returns how many were
    /// produced (short only at exhaustion). Both buffers are cleared
    /// first, so a scan worker ([`crate::scan::scan_placements`])
    /// refills the same two allocations chunk after chunk.
    pub fn fill_chunk(&mut self, flat: &mut Vec<usize>, hints: &mut Vec<usize>, n: usize) -> usize {
        flat.clear();
        hints.clear();
        while hints.len() < n {
            match self.advance_delta() {
                Some((assignment, first_changed)) => {
                    flat.extend_from_slice(assignment);
                    hints.push(first_changed);
                }
                None => break,
            }
        }
        hints.len()
    }
}

impl Iterator for PlacementIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        self.advance().map(<[usize]>::to_vec)
    }
}

/// Enumerates all canonical feasible placements of `shape` onto at most
/// `max_nodes` nodes of `cores_per_node` cores.
///
/// Returned assignments are flattened node indexes (member-major,
/// simulation first), each canonical under node relabeling, each
/// respecting per-node core capacity. Materializes the whole space —
/// prefer [`PlacementIter`] (or [`crate::scan`]) when the space is
/// large.
pub fn enumerate_placements(
    shape: &EnsembleShape,
    max_nodes: usize,
    cores_per_node: u32,
) -> Vec<Vec<usize>> {
    PlacementIter::new(shape, max_nodes, cores_per_node).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalization_examples() {
        assert_eq!(canonicalize(&[2, 0, 2, 1]), vec![0, 1, 0, 2]);
        assert_eq!(canonicalize(&[0, 0, 0]), vec![0, 0, 0]);
        assert_eq!(canonicalize(&[5]), vec![0]);
        assert!(canonicalize(&[]).is_empty());
    }

    #[test]
    fn enumeration_is_canonical_and_unique() {
        let shape = EnsembleShape::uniform(1, 16, 1, 8);
        let placements = enumerate_placements(&shape, 2, 32);
        // Two components, two nodes: {same node, different nodes}.
        assert_eq!(placements.len(), 2);
        for p in &placements {
            assert_eq!(p, &canonicalize(p), "must already be canonical");
        }
        let mut dedup = placements.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), placements.len());
    }

    #[test]
    fn capacity_prunes_infeasible() {
        // Two 16-core sims + two 8-core analyses can't all fit one
        // 32-core node.
        let shape = EnsembleShape::uniform(2, 16, 1, 8);
        let placements = enumerate_placements(&shape, 1, 32);
        assert!(placements.is_empty(), "48 cores cannot fit a single node");
        let on_two = enumerate_placements(&shape, 2, 32);
        assert!(!on_two.is_empty());
        for p in &on_two {
            let mut load = [0u32; 2];
            let cores = [16u32, 8, 16, 8];
            for (c, &n) in cores.iter().zip(p) {
                load[n] += c;
            }
            assert!(load.iter().all(|&l| l <= 32), "{p:?} overloads a node");
        }
    }

    #[test]
    fn paper_set_one_space_is_covered() {
        // 2 members × (sim + 1 analysis) on ≤ 3 nodes of 32 cores. All
        // of C1.1–C1.5 must appear among the canonical placements.
        let shape = EnsembleShape::uniform(2, 16, 1, 8);
        let placements = enumerate_placements(&shape, 3, 32);
        // Flattened order: [sim1, ana1, sim2, ana2].
        let expect = [
            canonicalize(&[0, 2, 1, 2]), // C1.1
            canonicalize(&[0, 1, 0, 2]), // C1.2
            canonicalize(&[0, 0, 1, 2]), // C1.3
            canonicalize(&[0, 1, 0, 1]), // C1.4
            canonicalize(&[0, 0, 1, 1]), // C1.5
        ];
        for (i, e) in expect.iter().enumerate() {
            assert!(placements.contains(e), "C1.{} missing from enumeration", i + 1);
        }
    }

    #[test]
    fn materialize_roundtrip() {
        let shape = EnsembleShape::uniform(2, 16, 2, 8);
        let spec = shape.materialize(&[0, 0, 0, 1, 1, 1]);
        assert_eq!(spec.n(), 2);
        assert_eq!(spec.members[0].simulation.nodes, std::collections::BTreeSet::from([0]));
        assert_eq!(spec.members[1].analyses[1].nodes, std::collections::BTreeSet::from([1]));
        spec.validate(Some(32)).unwrap();
    }

    #[test]
    fn component_count() {
        assert_eq!(EnsembleShape::uniform(2, 16, 2, 8).num_components(), 6);
    }

    #[test]
    fn placement_iter_streams_the_materialized_enumeration() {
        let shape = EnsembleShape::uniform(2, 16, 1, 8);
        let materialized = enumerate_placements(&shape, 3, 32);
        let streamed: Vec<Vec<usize>> = PlacementIter::new(&shape, 3, 32).collect();
        assert_eq!(streamed, materialized, "identical content in identical order");
    }

    #[test]
    fn flat_chunks_report_valid_first_changed_positions() {
        let shape = EnsembleShape::uniform(2, 16, 2, 8);
        let width = shape.num_components();
        let materialized = enumerate_placements(&shape, 4, 32);
        for chunk in [1usize, 2, 3, 7, 100] {
            let mut it = PlacementIter::new(&shape, 4, 32);
            let (mut flat, mut hints) = (Vec::new(), Vec::new());
            let mut seen = 0usize;
            loop {
                assert_eq!(it.yielded(), seen, "a chunk starts at the next enumeration index");
                let got = it.fill_chunk(&mut flat, &mut hints, chunk);
                assert_eq!((flat.len(), hints.len()), (got * width, got));
                for (assignment, &fc) in flat.chunks_exact(width).zip(&hints) {
                    assert_eq!(assignment, &materialized[seen][..], "chunk={chunk}");
                    if seen > 0 {
                        assert!(fc < width);
                        assert_eq!(
                            assignment[..fc],
                            materialized[seen - 1][..fc],
                            "hint must never skip a real change (chunk={chunk}, index={seen})"
                        );
                        // The hint is tight for this DFS: the position it
                        // names really did change.
                        assert_ne!(assignment[fc], materialized[seen - 1][fc], "index={seen}");
                    }
                    seen += 1;
                }
                if got < chunk {
                    break;
                }
            }
            assert_eq!(seen, materialized.len(), "chunk={chunk}");
            assert_eq!(it.fill_chunk(&mut flat, &mut hints, chunk), 0, "stays drained");
            assert!(flat.is_empty() && hints.is_empty());
        }
    }

    #[test]
    fn node_budgets_beyond_the_component_count_change_nothing() {
        // Component `i` can never sit above node `i`, so every budget
        // from `components` up enumerates the same space — and the
        // enumerator must not size anything by the raw number, which
        // arrives off the wire as an unchecked `u64`.
        let shape = EnsembleShape::uniform(2, 8, 1, 4);
        let at_components = enumerate_placements(&shape, shape.num_components(), 32);
        for max_nodes in [5usize, 64, 4_000_000_000_000_000, usize::MAX] {
            assert_eq!(enumerate_placements(&shape, max_nodes, 32), at_components, "{max_nodes}");
        }
    }

    #[test]
    fn placement_iter_degenerate_spaces_are_empty() {
        let shape = EnsembleShape::uniform(1, 16, 1, 8);
        assert_eq!(PlacementIter::new(&shape, 0, 32).count(), 0, "zero nodes");
        let empty = EnsembleShape { members: vec![] };
        assert_eq!(PlacementIter::new(&empty, 3, 32).count(), 0, "zero components");
    }

    #[test]
    fn canonicalize_matches_first_appearance_reference() {
        // Reference: the old quadratic position-scan implementation.
        fn reference(assignment: &[usize]) -> Vec<usize> {
            let mut mapping: Vec<usize> = Vec::new();
            assignment
                .iter()
                .map(|&n| {
                    if let Some(pos) = mapping.iter().position(|&m| m == n) {
                        pos
                    } else {
                        mapping.push(n);
                        mapping.len() - 1
                    }
                })
                .collect()
        }
        for case in
            [vec![], vec![0], vec![9], vec![3, 3, 3], vec![2, 0, 2, 1], vec![7, 0, 7, 3, 3, 1, 0]]
        {
            assert_eq!(canonicalize(&case), reference(&case), "{case:?}");
        }
    }
}
