//! Forwarding-loop detection on the edge-labelled graph.
//!
//! Per atom, forwarding is deterministic: at any switch, at most one
//! outgoing link carries a given atom (the link of the rule that owns the
//! atom there), so the α-restricted graph is a functional graph and loop
//! detection is a simple successor walk. The per-update check (§4.3.1
//! "find in the delta-graph all forwarding loops") seeds the walk at the
//! `(link, atom)` pairs that the update added; the data-plane-wide check
//! used by the what-if experiments walks every switch for every candidate
//! atom.
//!
//! Every loop check in the crate — the seeded per-update check, the
//! candidate-atom scans behind the what-if query, the full audit and the
//! violation monitor, and the cross-field walks of [`crate::multifield`] —
//! runs the one walk of `CycleWalk`. Its visited and on-path marks live
//! in generation-stamped arrays sized once per call, so a walk allocates
//! nothing: starting a walk or a new atom is a counter bump, and only a
//! found cycle is copied out.
//!
//! Detected loops are reported as [`InvariantViolation::ForwardingLoop`]
//! with the cycle's nodes and the affected destination addresses as
//! normalized intervals, so users never see raw atom identifiers.

use crate::atoms::{AtomId, AtomMap};
use crate::atomset::AtomSet;
use crate::labels::Labels;
use netmodel::checker::InvariantViolation;
use netmodel::interval::normalize;
use netmodel::topology::{LinkId, NodeId, Topology};
use std::collections::HashMap;

/// The unique link carrying `atom` out of `node`, if any.
pub fn successor(
    topology: &Topology,
    labels: &Labels,
    node: NodeId,
    atom: AtomId,
) -> Option<LinkId> {
    topology
        .out_links(node)
        .iter()
        .copied()
        .find(|&l| labels.contains(l, atom))
}

/// Reusable scratch for cycle walks on a functional graph: the single walk
/// behind every loop check.
///
/// Walks are grouped into *passes* — one per atom, or per `(atom, class)`
/// slice on a multi-field engine. `mark[n]` holds the id of the last walk
/// that stepped on node `n`: equal to the current walk means `n` is on the
/// walk's own path (at `path_pos[n]`), and at least the pass's first walk
/// id means an earlier walk of the pass already explored `n`, so the walk
/// can stop — any cycle down that tail was recorded by the walk that got
/// there first. Walk ids only grow; when they would wrap, every mark is
/// reset to 0 and counting restarts.
pub(crate) struct CycleWalk {
    mark: Vec<u32>,
    path_pos: Vec<u32>,
    walk: u32,
    pass_start: u32,
    path: Vec<NodeId>,
}

impl CycleWalk {
    /// Scratch for a topology with `node_count` nodes.
    pub(crate) fn new(node_count: usize) -> Self {
        CycleWalk {
            mark: vec![0; node_count],
            path_pos: vec![0; node_count],
            walk: 0,
            pass_start: 1,
            path: Vec::new(),
        }
    }

    fn reset_marks(&mut self) {
        self.mark.iter_mut().for_each(|m| *m = 0);
        self.walk = 0;
        self.pass_start = 1;
    }

    /// Starts a new pass: later walks stop at nodes explored within it.
    pub(crate) fn begin_pass(&mut self) {
        if self.walk == u32::MAX {
            self.reset_marks();
        }
        self.pass_start = self.walk + 1;
    }

    /// Follows `succ` from `start` until the successor is missing, is the
    /// drop node, or revisits a node. Returns the canonical cycle when the
    /// walk closes on its own path; `None` when it ends or joins a node
    /// explored earlier in the pass.
    pub(crate) fn walk(
        &mut self,
        topology: &Topology,
        start: NodeId,
        mut succ: impl FnMut(NodeId) -> Option<LinkId>,
    ) -> Option<Vec<NodeId>> {
        if self.walk == u32::MAX {
            self.reset_marks();
        }
        self.walk += 1;
        self.path.clear();
        let mut cur = start;
        loop {
            let i = cur.index();
            if self.mark[i] == self.walk {
                return Some(canonicalize(&self.path[self.path_pos[i] as usize..]));
            }
            if self.mark[i] >= self.pass_start {
                return None;
            }
            self.mark[i] = self.walk;
            self.path_pos[i] = self.path.len() as u32;
            self.path.push(cur);
            let next = topology.link(succ(cur)?).dst;
            if topology.is_drop_node(next) {
                return None;
            }
            cur = next;
        }
    }
}

/// Canonical rotation of a cycle so that identical cycles discovered from
/// different starts compare equal.
fn canonicalize(cycle: &[NodeId]) -> Vec<NodeId> {
    let min_pos = (0..cycle.len()).min_by_key(|&i| cycle[i]).unwrap_or(0);
    let mut out = cycle.to_vec();
    out.rotate_left(min_pos);
    out
}

/// Finds forwarding loops reachable from the given `(link, atom)` seeds —
/// the per-update check run on a delta-graph.
///
/// Only label *additions* need to be seeded: removing an atom from a label
/// can break loops but never create one.
pub fn find_loops_from_seeds(
    topology: &Topology,
    labels: &Labels,
    atoms: &AtomMap,
    seeds: &[(LinkId, AtomId)],
) -> Vec<InvariantViolation> {
    if seeds.is_empty() {
        return Vec::new();
    }
    let mut cycles: HashMap<Vec<NodeId>, AtomSet> = HashMap::new();
    let mut walker = CycleWalk::new(topology.node_count());
    for &(link, atom) in seeds {
        if !labels.contains(link, atom) {
            // The seed may have been superseded by a later change in an
            // aggregated delta-graph.
            continue;
        }
        walker.begin_pass();
        let succ = |n| successor(topology, labels, n, atom);
        if let Some(cycle) = walker.walk(topology, topology.link(link).src, succ) {
            cycles.entry(cycle).or_default().insert(atom);
        }
    }
    into_violations(cycles, atoms)
}

/// Finds all forwarding loops that involve any of the given atoms anywhere
/// in the network — used by the what-if link-failure query (§4.3.2) and the
/// full-data-plane audits in the tests.
pub fn find_loops_for_atoms(
    topology: &Topology,
    labels: &Labels,
    atoms: &AtomMap,
    candidates: &AtomSet,
) -> Vec<InvariantViolation> {
    find_loops_for_atoms_via(topology, atoms, candidates, |node, atom| {
        successor(topology, labels, node, atom)
    })
}

/// Like [`find_loops_for_atoms`], but with a caller-supplied successor
/// function. The [`DeltaNet`](crate::DeltaNet) engine passes an owner-based
/// successor here, which resolves the next hop in `O(log M)` independent of
/// a switch's out-degree — important on dense ISP topologies where scanning
/// a node's out-links per hop dominates the what-if `+Loops` query.
pub fn find_loops_for_atoms_via<F>(
    topology: &Topology,
    atoms: &AtomMap,
    candidates: &AtomSet,
    succ: F,
) -> Vec<InvariantViolation>
where
    F: Fn(NodeId, AtomId) -> Option<LinkId>,
{
    into_violations(cycles_for_atoms_via(topology, candidates, succ), atoms)
}

/// The cycle-level core of [`find_loops_for_atoms_via`]: every forwarding
/// cycle any candidate atom traverses, as a map from the canonical cycle to
/// the set of candidate atoms looping through it. The
/// [`crate::monitor::ViolationMonitor`] maintains exactly this shape as live
/// state, so it recomputes entries through the same function the full scans
/// use — a differential test then reduces to map equality.
pub(crate) fn cycles_for_atoms_via<F>(
    topology: &Topology,
    candidates: &AtomSet,
    succ: F,
) -> HashMap<Vec<NodeId>, AtomSet>
where
    F: Fn(NodeId, AtomId) -> Option<LinkId>,
{
    // One pass per candidate atom, with a walk from every switch. A switch
    // that does not emit the atom ends its walk at the first successor
    // lookup, and every node of a cycle emits the atom, so no emitter list
    // is needed; walks that join a node explored earlier in the pass stop
    // there. Cost: O(|candidates| · (switches + Σ walk lengths)) successor
    // lookups, with O(nodes) scratch per call and no allocation per walk.
    let mut cycles: HashMap<Vec<NodeId>, AtomSet> = HashMap::new();
    let mut walker = CycleWalk::new(topology.node_count());
    for atom in candidates.iter() {
        walker.begin_pass();
        for start in topology.switch_nodes() {
            if let Some(cycle) = walker.walk(topology, start, |n| succ(n, atom)) {
                cycles.entry(cycle).or_default().insert(atom);
            }
        }
    }
    cycles
}

/// Checks the entire data plane for forwarding loops over all atoms.
pub fn find_all_loops(
    topology: &Topology,
    labels: &Labels,
    atoms: &AtomMap,
) -> Vec<InvariantViolation> {
    let all: AtomSet = atoms.iter().map(|(a, _)| a).collect();
    find_loops_for_atoms(topology, labels, atoms, &all)
}

/// Renders a cycle → atoms map as sorted [`InvariantViolation`]s — shared by
/// the full scans and the monitor so their reports are bit-identical.
pub(crate) fn into_violations(
    cycles: impl IntoIterator<Item = (Vec<NodeId>, AtomSet)>,
    atoms: &AtomMap,
) -> Vec<InvariantViolation> {
    let mut out: Vec<InvariantViolation> = cycles
        .into_iter()
        .map(|(nodes, atom_set)| {
            let intervals = normalize(
                atom_set
                    .iter()
                    .map(|a| atoms.atom_interval(a))
                    .collect::<Vec<_>>(),
            );
            InvariantViolation::ForwardingLoop {
                nodes,
                packets: intervals,
            }
        })
        .collect();
    // Deterministic order for reporting and tests.
    out.sort_by_cached_key(|v| format!("{v:?}"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DeltaNet;
    use netmodel::checker::Checker;
    use netmodel::interval::Interval;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use testutil::{random_interval, random_ops, random_topology};

    /// Builds a 3-node topology with a loop s0 -> s1 -> s2 -> s0 for atom 0
    /// and a loop-free path for atom 1.
    fn looped_setup() -> (Topology, Labels, AtomMap) {
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 3);
        let l01 = topo.add_link(n[0], n[1]);
        let l12 = topo.add_link(n[1], n[2]);
        let l20 = topo.add_link(n[2], n[0]);

        let mut atoms = AtomMap::new(8);
        // atom for [0:16) and the remainder atom.
        atoms.create_atoms(Interval::new(0, 16));
        let a0 = atoms.atom_of_value(0);
        let a1 = atoms.atom_of_value(200);

        let mut labels = Labels::new();
        labels.insert(l01, a0);
        labels.insert(l12, a0);
        labels.insert(l20, a0);
        // Atom a1 flows s0 -> s1 -> s2 and stops.
        labels.insert(l01, a1);
        labels.insert(l12, a1);
        (topo, labels, atoms)
    }

    #[test]
    fn successor_finds_unique_link() {
        let (topo, labels, atoms) = looped_setup();
        let a0 = atoms.atom_of_value(0);
        let n0 = topo.node_by_name("s0").unwrap();
        let s = successor(&topo, &labels, n0, a0).unwrap();
        assert_eq!(topo.link(s).dst, topo.node_by_name("s1").unwrap());
        // No successor for an unknown atom.
        assert!(successor(&topo, &labels, n0, AtomId(999)).is_none());
    }

    #[test]
    fn seed_walk_detects_loop() {
        let (topo, labels, atoms) = looped_setup();
        let a0 = atoms.atom_of_value(0);
        let l01 = topo
            .link_between(
                topo.node_by_name("s0").unwrap(),
                topo.node_by_name("s1").unwrap(),
            )
            .unwrap();
        let loops = find_loops_from_seeds(&topo, &labels, &atoms, &[(l01, a0)]);
        assert_eq!(loops.len(), 1);
        match &loops[0] {
            InvariantViolation::ForwardingLoop { nodes, packets } => {
                assert_eq!(nodes.len(), 3);
                assert_eq!(packets, &vec![Interval::new(0, 16)]);
            }
            other => panic!("unexpected violation {other:?}"),
        }
    }

    #[test]
    fn seed_walk_ignores_loop_free_atom() {
        let (topo, labels, atoms) = looped_setup();
        let a1 = atoms.atom_of_value(200);
        let l01 = topo
            .link_between(
                topo.node_by_name("s0").unwrap(),
                topo.node_by_name("s1").unwrap(),
            )
            .unwrap();
        let loops = find_loops_from_seeds(&topo, &labels, &atoms, &[(l01, a1)]);
        assert!(loops.is_empty());
    }

    #[test]
    fn stale_seed_is_skipped() {
        let (topo, mut labels, atoms) = looped_setup();
        let a0 = atoms.atom_of_value(0);
        let l01 = topo
            .link_between(
                topo.node_by_name("s0").unwrap(),
                topo.node_by_name("s1").unwrap(),
            )
            .unwrap();
        labels.remove(l01, a0); // the seed no longer holds
        let loops = find_loops_from_seeds(&topo, &labels, &atoms, &[(l01, a0)]);
        assert!(loops.is_empty());
    }

    #[test]
    fn whole_graph_scan_finds_same_loop_once() {
        let (topo, labels, atoms) = looped_setup();
        let loops = find_all_loops(&topo, &labels, &atoms);
        assert_eq!(loops.len(), 1);
    }

    #[test]
    fn loops_grouped_by_cycle_merge_atoms() {
        // Two atoms looping through the same cycle are reported as one loop
        // with both packet intervals merged.
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 2);
        let l01 = topo.add_link(n[0], n[1]);
        let l10 = topo.add_link(n[1], n[0]);
        let mut atoms = AtomMap::new(8);
        atoms.create_atoms(Interval::new(0, 8));
        atoms.create_atoms(Interval::new(8, 16));
        let a = atoms.atom_of_value(0);
        let b = atoms.atom_of_value(8);
        let mut labels = Labels::new();
        for atom in [a, b] {
            labels.insert(l01, atom);
            labels.insert(l10, atom);
        }
        let loops = find_loops_from_seeds(&topo, &labels, &atoms, &[(l01, a), (l01, b)]);
        assert_eq!(loops.len(), 1);
        match &loops[0] {
            InvariantViolation::ForwardingLoop { packets, .. } => {
                // [0:8) and [8:16) normalize to a single interval.
                assert_eq!(packets, &vec![Interval::new(0, 16)]);
            }
            other => panic!("unexpected violation {other:?}"),
        }
    }

    #[test]
    fn drop_links_terminate_walks() {
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 2);
        let l01 = topo.add_link(n[0], n[1]);
        let drop1 = topo.drop_link(n[1]);
        let mut atoms = AtomMap::new(8);
        atoms.create_atoms(Interval::new(0, 8));
        let a = atoms.atom_of_value(0);
        let mut labels = Labels::new();
        labels.insert(l01, a);
        labels.insert(drop1, a);
        let loops = find_loops_from_seeds(&topo, &labels, &atoms, &[(l01, a)]);
        assert!(loops.is_empty());
    }

    #[test]
    fn self_loop_single_node() {
        let mut topo = Topology::new();
        let n = topo.add_nodes("s", 2);
        let l00 = topo.add_link(n[0], n[0]);
        let mut atoms = AtomMap::new(8);
        atoms.create_atoms(Interval::new(4, 6));
        let a = atoms.atom_of_value(4);
        let mut labels = Labels::new();
        labels.insert(l00, a);
        let loops = find_loops_from_seeds(&topo, &labels, &atoms, &[(l00, a)]);
        assert_eq!(loops.len(), 1);
        match &loops[0] {
            InvariantViolation::ForwardingLoop { nodes, .. } => assert_eq!(nodes, &vec![n[0]]),
            other => panic!("unexpected violation {other:?}"),
        }
    }

    /// A random plane of per-atom functional graphs on a `testutil`
    /// topology plus self-loops: each atom is emitted by a random subset of
    /// switches (none for about one atom in five), each forwarding over one
    /// random out-link, drop links included. Also returns the forwarding
    /// table the labels were written from.
    #[allow(clippy::type_complexity)]
    fn random_plane(
        rng: &mut StdRng,
    ) -> (Topology, Labels, AtomMap, HashMap<(AtomId, NodeId), LinkId>) {
        let n = rng.gen_range(2..9);
        let mut topo = random_topology(rng, n, true);
        for _ in 0..rng.gen_range(0..3) {
            let s = NodeId(rng.gen_range(0..n as u32));
            topo.add_link(s, s);
        }
        let mut atoms = AtomMap::new(8);
        for _ in 0..rng.gen_range(1..8) {
            atoms.create_atoms(random_interval(rng, 8));
        }
        let (mut labels, mut table) = (Labels::new(), HashMap::new());
        for (atom, _) in atoms.iter() {
            let emit = if rng.gen_bool(0.2) { 0.0 } else { 0.75 };
            for node in topo.switch_nodes() {
                let out = topo.out_links(node);
                let link = out[rng.gen_range(0..out.len())];
                if rng.gen_bool(emit) {
                    labels.insert(link, atom);
                    table.insert((atom, node), link);
                }
            }
        }
        (topo, labels, atoms, table)
    }

    /// The brute-force reference: one unpruned walk per `(atom, start)`
    /// with an explicit seen-list, each closed cycle rotated to begin at
    /// its smallest node.
    fn reference_cycles(
        topo: &Topology,
        labels: &Labels,
        starts: impl IntoIterator<Item = (AtomId, NodeId)>,
    ) -> HashMap<Vec<NodeId>, AtomSet> {
        let mut cycles: HashMap<Vec<NodeId>, AtomSet> = HashMap::new();
        for (atom, mut cur) in starts {
            let mut seen: Vec<NodeId> = Vec::new();
            while !topo.is_drop_node(cur) {
                if let Some(pos) = seen.iter().position(|&n| n == cur) {
                    let mut cycle = seen.split_off(pos);
                    let min = (0..cycle.len()).min_by_key(|&i| cycle[i]).unwrap();
                    cycle.rotate_left(min);
                    cycles.entry(cycle).or_default().insert(atom);
                    break;
                }
                seen.push(cur);
                match successor(topo, labels, cur, atom) {
                    Some(link) => cur = topo.link(link).dst,
                    None => break,
                }
            }
        }
        cycles
    }

    fn every_start<'a>(
        topo: &'a Topology,
        atoms: &'a AtomSet,
    ) -> impl Iterator<Item = (AtomId, NodeId)> + 'a {
        atoms
            .iter()
            .flat_map(move |a| topo.switch_nodes().map(move |n| (a, n)))
    }

    #[test]
    fn kernel_matches_brute_force_on_random_planes() {
        let mut wraps = 0;
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(0xC7C1E ^ seed);
            let (topo, labels, atoms, table) = random_plane(&mut rng);
            let cands: AtomSet = atoms
                .iter()
                .map(|(a, _)| a)
                .filter(|_| rng.gen_bool(0.7))
                .collect();
            let expect = reference_cycles(&topo, &labels, every_start(&topo, &cands));
            let by_label = |n, a| successor(&topo, &labels, n, a);
            assert_eq!(
                cycles_for_atoms_via(&topo, &cands, by_label),
                expect,
                "seed {seed}"
            );
            let by_table = |n, a| table.get(&(a, n)).copied();
            assert_eq!(
                cycles_for_atoms_via(&topo, &cands, by_table),
                expect,
                "seed {seed}"
            );

            // The same scan on a walker a few walks short of the wrap, so
            // the reset lands at a pass start or inside a pass.
            let mut walker = CycleWalk::new(topo.node_count());
            walker.walk = u32::MAX - 1 - (seed % 3) as u32;
            let mut wrapped: HashMap<Vec<NodeId>, AtomSet> = HashMap::new();
            for atom in cands.iter() {
                walker.begin_pass();
                for start in topo.switch_nodes() {
                    if let Some(cycle) = walker.walk(&topo, start, |n| by_label(n, atom)) {
                        wrapped.entry(cycle).or_default().insert(atom);
                    }
                }
            }
            wraps += usize::from(walker.walk < 1000);
            assert_eq!(wrapped, expect, "seed {seed}: across the wrap");

            // Seeds in random order, about half of them stale.
            let labelled: Vec<(LinkId, AtomId)> =
                table.iter().map(|(&(a, _), &l)| (l, a)).collect();
            let seeds: Vec<(LinkId, AtomId)> = (0..rng.gen_range(0..12))
                .map(|_| match labelled.len() {
                    len if len > 0 && rng.gen_bool(0.5) => labelled[rng.gen_range(0..len)],
                    _ => (
                        LinkId(rng.gen_range(0..topo.link_count() as u32)),
                        AtomId(rng.gen_range(0..4)),
                    ),
                })
                .collect();
            let live = seeds.iter().filter(|&&(l, a)| labels.contains(l, a));
            let expect =
                reference_cycles(&topo, &labels, live.map(|&(l, a)| (a, topo.link(l).src)));
            let got = find_loops_from_seeds(&topo, &labels, &atoms, &seeds);
            assert_eq!(
                got,
                into_violations(expect, &atoms),
                "seed {seed}: seeded walks"
            );
        }
        assert!(wraps > 150, "only {wraps} scans crossed the wrap");
    }

    #[test]
    fn kernel_owner_successor_matches_brute_force_on_engine_planes() {
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(0x0E7E5 ^ seed);
            let topo = random_topology(&mut rng, 5, true);
            let mut net = DeltaNet::with_topology(topo.clone());
            for op in random_ops(&mut rng, &topo, 60, 8, 6, 0.3) {
                net.apply(&op);
            }
            let all: AtomSet = net.atoms().iter().map(|(a, _)| a).collect();
            let expect = reference_cycles(&topo, net.labels(), every_start(&topo, &all));
            let got = cycles_for_atoms_via(&topo, &all, |n, a| net.successor_via_owner(n, a));
            assert_eq!(got, expect, "seed {seed}");
        }
    }
}
