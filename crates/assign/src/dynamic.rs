//! Churn-driven dynamic assignment: elastic membership over a
//! structured placement.
//!
//! [`reassign_quarantined`](crate::reassign_quarantined) patches a
//! placement once, for one quarantine set. Training under *churn* needs
//! more: workers leave mid-run (gracefully or by quarantine), brand-new
//! workers join, and the placement must keep every file at the
//! replication factor `r` the voting stage depends on while spreading
//! load onto the newcomers. [`DynamicAssignment`] is that layer.
//!
//! # Canonical realization
//!
//! The realized placement is a *pure function of the membership sets*:
//! given the base assignment, the set of departed workers, and the set
//! of joiners, [`DynamicAssignment`] deterministically derives the
//! current graph from scratch —
//!
//! 1. founding members keep their base files; departed workers lose all
//!    edges; joiners start empty;
//! 2. **repair**: every file below `r` replicas is re-replicated onto
//!    the least-loaded member not already holding it (ties toward the
//!    smallest worker id), files in ascending order;
//! 3. **rebalance**: each joiner (ascending id) takes over files from
//!    the most-loaded members (ties toward the smallest id, smallest
//!    movable file first) until it reaches the base per-worker load `l`
//!    or no donor is strictly heavier — moves preserve each file's
//!    replica count.
//!
//! Because the result depends only on the *sets*, any permutation of the
//! same join/leave events — and any grouping of them into batches —
//! lands on the identical graph. That is what makes churn chaos runs
//! bit-reproducible and is pinned by the property tests in
//! `crates/assign/tests/`.
//!
//! The repaired placement is generally not biregular, so the spectral
//! ε̂ bound of the original scheme no longer applies; the realized graph
//! is re-scored directly by `byz-distortion`'s graph-level counters
//! (`count_distorted_graph`).

use crate::{Assignment, RepairedAssignment};
use byz_graph::BipartiteGraph;
use std::collections::BTreeSet;

/// The edge-level diff produced by one membership change.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MembershipPatch {
    /// Edges `(worker, file)` present after the change but not before,
    /// ascending.
    pub added: Vec<(usize, usize)>,
    /// Edges `(worker, file)` present before the change but not after,
    /// ascending.
    pub removed: Vec<(usize, usize)>,
    /// Files left below the replication factor because too few members
    /// survive. Empty whenever `|members| ≥ r`.
    pub under_replicated: Vec<usize>,
}

impl MembershipPatch {
    /// Whether the change moved any replica at all.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// An elastic placement: a base [`Assignment`] plus the set of departed
/// workers and joiners, realized on demand into a repaired
/// [`BipartiteGraph`].
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicAssignment {
    base: Assignment,
    departed: BTreeSet<usize>,
    joiners: BTreeSet<usize>,
    graph: BipartiteGraph,
    under_replicated: Vec<usize>,
}

impl DynamicAssignment {
    /// Wraps a base assignment with all founding workers present.
    pub fn new(base: Assignment) -> Self {
        let graph = base.graph().clone();
        DynamicAssignment {
            base,
            departed: BTreeSet::new(),
            joiners: BTreeSet::new(),
            graph,
            under_replicated: Vec::new(),
        }
    }

    /// The base (pre-churn) assignment.
    pub fn base(&self) -> &Assignment {
        &self.base
    }

    /// The realized worker–file graph for the current membership.
    /// Departed workers have no edges; joiners hold their rebalanced
    /// share.
    pub fn graph(&self) -> &BipartiteGraph {
        &self.graph
    }

    /// The size of the worker-id universe: founding ids plus every
    /// joiner ever admitted (graph capacity).
    pub fn universe(&self) -> usize {
        self.graph.num_workers()
    }

    /// Whether `worker` is currently a member.
    pub fn is_member(&self, worker: usize) -> bool {
        !self.departed.contains(&worker)
            && (worker < self.base.num_workers() || self.joiners.contains(&worker))
    }

    /// Current members, ascending.
    pub fn members(&self) -> Vec<usize> {
        (0..self.universe())
            .filter(|&w| self.is_member(w))
            .collect()
    }

    /// The replication factor the repair targets.
    pub fn replication(&self) -> usize {
        self.base.replication()
    }

    /// Number of files (unchanged by churn).
    pub fn num_files(&self) -> usize {
        self.base.num_files()
    }

    /// Files currently below the replication factor, ascending. Empty
    /// whenever at least `r` members survive.
    pub fn under_replicated(&self) -> &[usize] {
        &self.under_replicated
    }

    /// Whether every file holds its full `r` replicas.
    pub fn is_fully_replicated(&self) -> bool {
        self.under_replicated.is_empty()
    }

    /// Files held by `worker` in the realized placement.
    pub fn files_of(&self, worker: usize) -> &[usize] {
        self.graph.files_of(worker)
    }

    /// Current load of `worker` (0 for non-members).
    pub fn load_of(&self, worker: usize) -> usize {
        self.graph.files_of(worker).len()
    }

    /// The heaviest member load.
    pub fn max_load(&self) -> usize {
        self.members()
            .into_iter()
            .map(|w| self.load_of(w))
            .max()
            .unwrap_or(0)
    }

    /// The lightest member load.
    pub fn min_member_load(&self) -> usize {
        self.members()
            .into_iter()
            .map(|w| self.load_of(w))
            .min()
            .unwrap_or(0)
    }

    /// `max_load − min_member_load`: how uneven the realized placement
    /// is. The greedy repair and rebalance keep this small (pinned by
    /// the property tests).
    pub fn load_skew(&self) -> usize {
        self.max_load() - self.min_member_load()
    }

    /// Admits `worker` as a member: a founding worker rejoins, or a new
    /// id (possibly beyond the founding universe) joins with an empty
    /// file set and receives its rebalanced share. Admitting a current
    /// member is a no-op.
    pub fn join(&mut self, worker: usize) -> MembershipPatch {
        self.departed.remove(&worker);
        if worker >= self.base.num_workers() {
            self.joiners.insert(worker);
        }
        self.realize()
    }

    /// Removes `worker` from membership — graceful leave and quarantine
    /// are the same placement event. Its files are re-replicated onto
    /// the surviving members. Removing a non-member is a no-op.
    pub fn depart(&mut self, worker: usize) -> MembershipPatch {
        self.departed.insert(worker);
        self.joiners.remove(&worker);
        self.realize()
    }

    /// Applies a batch of membership changes (leaves then joins, though
    /// the order is irrelevant — the realization depends only on the
    /// final sets) with a single repair pass.
    pub fn apply(&mut self, joins: &[usize], leaves: &[usize]) -> MembershipPatch {
        for &w in leaves {
            self.departed.insert(w);
            self.joiners.remove(&w);
        }
        for &w in joins {
            self.departed.remove(&w);
            if w >= self.base.num_workers() {
                self.joiners.insert(w);
            }
        }
        self.realize()
    }

    /// Recomputes the canonical realized graph for the current
    /// membership sets and returns the edge diff against the previous
    /// realization.
    fn realize(&mut self) -> MembershipPatch {
        let k = self.base.num_workers();
        let f = self.base.num_files();
        let r = self.base.replication();
        let l = self.base.load();
        let universe = self
            .joiners
            .iter()
            .next_back()
            .map(|&w| w + 1)
            .unwrap_or(0)
            .max(k)
            .max(self.graph.num_workers());
        let members: Vec<usize> = (0..universe)
            .filter(|&w| !self.departed.contains(&w) && (w < k || self.joiners.contains(&w)))
            .collect();

        // 1. Surviving base edges.
        let mut holders: Vec<Vec<usize>> = vec![Vec::new(); f];
        let mut loads = vec![0usize; universe];
        for &w in &members {
            if w >= k {
                continue;
            }
            for &file in self.base.graph().files_of(w) {
                holders[file].push(w);
                loads[w] += 1;
            }
        }

        // 2. Repair every deficient file on the least-loaded members.
        let mut under_replicated = Vec::new();
        for (file, held) in holders.iter_mut().enumerate() {
            while held.len() < r {
                let candidate = members
                    .iter()
                    .copied()
                    .filter(|w| !held.contains(w))
                    .min_by_key(|&w| (loads[w], w));
                match candidate {
                    Some(w) => {
                        held.push(w);
                        loads[w] += 1;
                    }
                    None => {
                        under_replicated.push(file);
                        break;
                    }
                }
            }
        }

        // 3. Rebalance onto joiners: move files off the heaviest members
        // until the joiner reaches the base load or no donor is heavier
        // than it. Moves keep per-file replica counts. Each move grows
        // the joiner, so the loop terminates in ≤ l steps, and taking
        // only from strictly-heavier donors self-limits at the ceiling
        // of the average load.
        for &j in &self.joiners {
            if self.departed.contains(&j) {
                continue;
            }
            while loads[j] < l {
                let donor = members
                    .iter()
                    .copied()
                    .filter(|&w| w != j && loads[w] > loads[j])
                    .filter(|&w| {
                        holders
                            .iter()
                            .any(|held| held.contains(&w) && !held.contains(&j))
                    })
                    .max_by_key(|&w| (loads[w], std::cmp::Reverse(w)));
                let Some(donor) = donor else { break };
                let file = holders
                    .iter()
                    .position(|held| held.contains(&donor) && !held.contains(&j))
                    .expect("donor filter guarantees a movable file");
                holders[file].retain(|&w| w != donor);
                holders[file].push(j);
                loads[donor] -= 1;
                loads[j] += 1;
            }
        }

        let mut graph = BipartiteGraph::new(universe, f);
        for (file, held) in holders.iter().enumerate() {
            for &w in held {
                graph
                    .add_edge(w, file)
                    .expect("member indices are in range by construction");
            }
        }

        let patch = diff_graphs(&self.graph, &graph, under_replicated.clone());
        self.graph = graph;
        self.under_replicated = under_replicated;
        patch
    }
}

/// Edge diff between two realizations (capacities may differ).
fn diff_graphs(
    before: &BipartiteGraph,
    after: &BipartiteGraph,
    under_replicated: Vec<usize>,
) -> MembershipPatch {
    let edges = |g: &BipartiteGraph| -> BTreeSet<(usize, usize)> {
        (0..g.num_workers())
            .flat_map(|w| g.files_of(w).iter().map(move |&file| (w, file)))
            .collect()
    };
    let old = edges(before);
    let new = edges(after);
    MembershipPatch {
        added: new.difference(&old).copied().collect(),
        removed: old.difference(&new).copied().collect(),
        under_replicated,
    }
}

impl From<&DynamicAssignment> for RepairedAssignment {
    /// Views the current realization in the legacy repaired-placement
    /// shape (the one `reassign_quarantined` produces).
    fn from(dynamic: &DynamicAssignment) -> RepairedAssignment {
        RepairedAssignment::from_parts(
            dynamic.graph.clone(),
            Vec::new(),
            dynamic.under_replicated.clone(),
            dynamic.replication(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MolsAssignment;

    fn mols() -> Assignment {
        // K = 15, f = 25, l = 5, r = 3.
        MolsAssignment::new(5, 3).unwrap().build()
    }

    #[test]
    fn fresh_dynamic_matches_base() {
        let base = mols();
        let dynamic = DynamicAssignment::new(base.clone());
        assert_eq!(dynamic.graph(), base.graph());
        assert_eq!(dynamic.members(), (0..15).collect::<Vec<_>>());
        assert!(dynamic.is_fully_replicated());
        assert_eq!(dynamic.load_skew(), 0);
    }

    #[test]
    fn depart_matches_reassign_quarantined() {
        let base = mols();
        let mut dynamic = DynamicAssignment::new(base.clone());
        let patch = dynamic.depart(3);
        let repaired = crate::reassign_quarantined(&base, &[3]);
        assert_eq!(dynamic.graph(), repaired.graph());
        assert_eq!(patch.removed.len(), base.load());
        assert_eq!(patch.added.len(), base.load());
        assert!(dynamic.is_fully_replicated());
    }

    #[test]
    fn join_extends_universe_and_takes_load() {
        let base = mols();
        let mut dynamic = DynamicAssignment::new(base.clone());
        let patch = dynamic.join(15);
        assert_eq!(dynamic.universe(), 16);
        assert!(dynamic.is_member(15));
        // The joiner reached the base load by taking over replicas, and
        // every file still has exactly r holders.
        assert_eq!(dynamic.load_of(15), base.load());
        assert!(patch.added.iter().all(|&(w, _)| w == 15));
        assert_eq!(patch.added.len(), patch.removed.len());
        for file in 0..base.num_files() {
            assert_eq!(dynamic.graph().workers_of(file).len(), 3, "file {file}");
        }
        assert!(dynamic.load_skew() <= 1);
    }

    #[test]
    fn batch_apply_equals_event_sequence_any_order() {
        let base = mols();
        let mut a = DynamicAssignment::new(base.clone());
        a.depart(2);
        a.join(15);
        a.depart(7);
        let mut b = DynamicAssignment::new(base.clone());
        b.depart(7);
        b.depart(2);
        b.join(15);
        let mut c = DynamicAssignment::new(base);
        c.apply(&[15], &[2, 7]);
        assert_eq!(a.graph(), b.graph(), "event order must not matter");
        assert_eq!(a.graph(), c.graph(), "batching must not matter");
    }

    #[test]
    fn rejoin_restores_membership() {
        let base = mols();
        let mut dynamic = DynamicAssignment::new(base.clone());
        dynamic.depart(4);
        assert!(!dynamic.is_member(4));
        dynamic.join(4);
        assert!(dynamic.is_member(4));
        // Canonical realization: rejoining every departed worker lands
        // back on the base placement exactly.
        assert_eq!(dynamic.graph().files_of(4), base.graph().files_of(4));
        assert_eq!(dynamic.graph(), base.graph());
    }

    #[test]
    fn mass_departure_reports_under_replication() {
        let base = mols();
        let mut dynamic = DynamicAssignment::new(base.clone());
        let leaves: Vec<usize> = (0..13).collect();
        dynamic.apply(&[], &leaves);
        assert!(!dynamic.is_fully_replicated());
        assert_eq!(dynamic.under_replicated().len(), base.num_files());
        for file in 0..base.num_files() {
            assert_eq!(dynamic.graph().workers_of(file), &[13, 14]);
        }
        // A joiner repairs it back to full replication.
        dynamic.join(15);
        assert!(dynamic.is_fully_replicated());
    }

    #[test]
    fn joiner_that_departs_leaves_no_trace() {
        let base = mols();
        let mut dynamic = DynamicAssignment::new(base.clone());
        dynamic.join(20);
        dynamic.depart(20);
        assert!(!dynamic.is_member(20));
        assert!(dynamic.graph().files_of(20).is_empty());
        // All base edges restored.
        for w in 0..15 {
            assert_eq!(dynamic.graph().files_of(w), base.graph().files_of(w));
        }
    }
}
