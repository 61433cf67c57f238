//! Cross-field checks for multi-field header spaces.
//!
//! A multi-field engine keeps one atom lattice per declared header field:
//! the primary (destination) lattice carries the full Delta-net machinery —
//! owner cells, edge labels, delta-graphs — exactly as in the single-field
//! engine, while each *secondary* field (source address, destination port,
//! …) keeps only its interval lattice. A packet class is then the cross
//! product of one atom per field, and the per-class forwarding function at a
//! node is "highest-priority covering rule whose secondary intervals all
//! contain the class" — resolved here, at check time, from the primary
//! owner cells plus the rules' secondary matches.
//!
//! This mirrors the layering argument in the Delta-net paper (§5): the
//! one-dimensional atom machinery is the workhorse, and additional header
//! fields multiply the classes that machinery is consulted for, rather than
//! multiplying the machinery itself. The single-field hot path never enters
//! this module.
//!
//! ## The incremental slice-repair contract
//!
//! The unit of cross-field work is a *slice*: one `(primary atom α,
//! secondary class c)` pair, whose forwarding function `F_{α,c}` maps each
//! node to [`mf_successor`]'s decision. The full scans ([`mf_cycles`],
//! [`mf_holes`]) evaluate every slice; the scoped repair
//! ([`mf_repair_slices`]) evaluates exactly the `atoms × classes`
//! rectangle it is given. Both compute the same predicates — pure
//! functions of `F_{α,c}` — through the crate's one cycle walk
//! (`loops::CycleWalk`), but resolve decisions independently: the full
//! scans re-resolve owner cells as they walk, while the repair memoizes
//! each emitter's decision once per slice. A slice's scoped result is
//! therefore bit-identical to its share of the full scan, and the
//! differential suite cross-checks the two resolutions.
//!
//! One rule update changes `F_{α,c}` only at the rule's source node, only
//! for atoms of its (clip-adjusted) interval, and only in classes its
//! [`netmodel::rule::SecondaryMatch`] covers — and among those, only
//! where the owner-cell winner at the source actually changed, which
//! [`decision_changed`] detects with one cell probe per slice; atoms and
//! classes created by lattice splits start with no tracked state and are
//! recomputed from scratch, never inherited (the PR 5 split rule, applied
//! cross-field).
//! The engine therefore repairs its per-class ledger ([`MfClassState`]) by
//! re-walking a few small rectangles per update instead of the whole
//! plane, and feeds the ledger's class-union to the
//! [`crate::monitor::ViolationMonitor`] — preserving exact identity-level
//! appeared/resolved events. `tests/multifield_differential.rs` pins the
//! bit-identity of the repaired state against these full scans after every
//! operation.
//!
//! Two things are deliberately *not* multi-field aware:
//!
//! * **Edge labels.** A label answers "which atoms does the
//!   highest-priority owner at this source forward over this link",
//!   ignoring secondary fields — a primary-field projection. Label-based
//!   scans over-approximate one class and under-approximate another when a
//!   secondary-constrained rule outranks a wildcard one, so the multi-field
//!   checks below never consult labels; they re-resolve winners from the
//!   owner cells per secondary class.
//! * **Secondary owner structures.** Secondary lattices are typically tiny
//!   (a handful of ACL source blocks); enumerating their cross product —
//!   memoized by the engine, invalidated only when an update actually adds
//!   or retires secondary bounds — is cheaper and simpler than maintaining
//!   N-dimensional owner state.

use crate::atoms::{AtomId, AtomMap, REMAP_DEAD};
use crate::atomset::AtomSet;
use crate::loops::CycleWalk;
use crate::owner::Owner;
use netmodel::header::MAX_SECONDARY_FIELDS;
use netmodel::interval::{Bound, Interval};
use netmodel::rule::{Rule, RuleId};
use netmodel::topology::{LinkId, NodeId, Topology};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// A borrowed view of exactly the engine state the cross-field checks
/// need. Bundling the borrows lets the engine hand out one immutable view
/// while keeping mutable access to the rest of itself (the monitor, the
/// per-class ledger).
pub(crate) struct MfView<'a> {
    pub topology: &'a Topology,
    pub owner: &'a Owner,
    pub atoms: &'a AtomMap,
    pub sec_atoms: &'a [AtomMap],
    pub rules: &'a HashMap<RuleId, Rule>,
}

/// One secondary equivalence class, given by a representative value per
/// declared secondary field (positions past the declared count stay 0).
///
/// Within one atom of each secondary lattice every value is covered by the
/// same set of rule intervals, so any witness — we use each atom's interval
/// low bound — decides `SecondaryMatch::matches` for the whole class.
pub(crate) type SecClass = [Bound; MAX_SECONDARY_FIELDS];

/// Enumerates the cross product of the secondary lattices' atoms as
/// representative classes. With no declared secondary fields this is the
/// single all-wildcard class. The engine memoizes the result
/// (`DeltaNet::sec_class_cache`) and re-enumerates only when an update
/// records secondary splits or a compaction merges secondary atoms.
pub(crate) fn sec_classes(sec_atoms: &[AtomMap]) -> Vec<SecClass> {
    let mut classes: Vec<SecClass> = vec![[0; MAX_SECONDARY_FIELDS]];
    for (field, map) in sec_atoms.iter().enumerate() {
        let mut next = Vec::with_capacity(classes.len() * map.atom_count());
        for (_, interval) in map.iter() {
            for base in &classes {
                let mut class = *base;
                class[field] = interval.lo();
                next.push(class);
            }
        }
        classes = next;
    }
    classes
}

/// Reusable scratch for slice walks: the per-atom emitter list, the slice
/// memo and the cycle walk, hoisted so neither the full scans nor the
/// scoped repair allocate per slice.
pub(crate) struct MfScratch {
    /// Nodes owning at least one rule for the current primary atom,
    /// collected once per atom and reused across every class.
    emitters: Vec<NodeId>,
    /// Memoized forwarding decisions of the current slice, set at the
    /// atom's emitters and `None` everywhere else: the fused repair
    /// resolves each emitter's owner cell exactly once per slice, and both
    /// the cycle walks and the blackhole predicate read from here.
    succ: Vec<Option<LinkId>>,
    /// The crate's one cycle walk; each slice is one pass.
    walk: CycleWalk,
    /// Nodes some winner forwards into (blackhole candidates); may hold
    /// duplicates, the sink is idempotent.
    arrived: Vec<NodeId>,
}

impl MfScratch {
    /// Scratch sized for a topology with `node_count` nodes.
    pub(crate) fn new(node_count: usize) -> Self {
        MfScratch {
            emitters: Vec::new(),
            succ: vec![None; node_count],
            walk: CycleWalk::new(node_count),
            arrived: Vec::new(),
        }
    }

    /// Collects the emitter nodes of `atom`, clearing the previous atom's
    /// memo; returns `false` when the atom has no owners anywhere (the
    /// whole atom row can be skipped).
    fn collect_emitters(&mut self, view: &MfView<'_>, atom: AtomId) -> bool {
        for &node in &self.emitters {
            self.succ[node.index()] = None;
        }
        self.emitters.clear();
        self.emitters
            .extend(view.owner.sources(atom).map(|(node, _)| node));
        !self.emitters.is_empty()
    }
}

/// The forwarding decision at `node` for primary atom `atom` and secondary
/// class `class`: the link of the highest-priority rule that covers the
/// atom *and* whose secondary intervals contain the class representative.
///
/// Owner cells keep their entries sorted in increasing `(priority, id)`
/// order, so the first match of a reverse scan is the winner. Rules that
/// constrain no secondary fields match every class.
pub(crate) fn mf_successor(
    view: &MfView<'_>,
    node: NodeId,
    atom: AtomId,
    class: &SecClass,
) -> Option<LinkId> {
    let cell = view.owner.get(atom, node)?;
    cell.as_slice()
        .iter()
        .rev()
        .find(|owned| {
            view.rules
                .get(&owned.id)
                .is_some_and(|rule| rule.sec.matches(class))
        })
        .map(|owned| owned.link)
}

/// Whether inserting or removing `rule` changed the forwarding decision of
/// slice `(atom, class)`. A rule participates only in the owner cells at
/// its own source, so this single cell decides the whole slice: the
/// decision changed iff the winning link there differs with the rule
/// present versus absent. Called on the *post-update* cell, the same test
/// covers both directions — `rule`'s own entry (present after an insert,
/// gone after a removal) is skipped, leaving the without-rule winner, and
/// the with-rule winner is `rule` itself unless a higher-ordered match
/// shadows it.
///
/// Slices this rejects kept their forwarding function bit-for-bit, so
/// their ledger entries are already exact and need no re-walk.
pub(crate) fn decision_changed(
    view: &MfView<'_>,
    rule: &Rule,
    atom: AtomId,
    class: &SecClass,
) -> bool {
    if !rule.sec.matches(class) {
        return false;
    }
    let key = (rule.priority, rule.id);
    let without = view.owner.get(atom, rule.source).and_then(|cell| {
        cell.as_slice()
            .iter()
            .rev()
            .filter(|owned| owned.id != rule.id)
            .find(|owned| {
                view.rules
                    .get(&owned.id)
                    .is_some_and(|r| r.sec.matches(class))
            })
            .map(|owned| ((owned.priority, owned.id), owned.link))
    });
    match without {
        // A higher-ordered match wins with or without the rule: shadowed
        // both before and after the update, decision untouched.
        Some((k, _)) if k > key => false,
        // The rule wins when present; changed iff the runner-up (or the
        // absence of one) forwards differently.
        Some((_, link)) => link != rule.link,
        None => true,
    }
}

/// Evaluates the blackhole predicate for one `(atom, class)` slice,
/// invoking `sink` for every switch where the class arrives unhandled. A
/// class blackholes at a switch when some in-link delivers it there (the
/// upstream node's winner for the class is that link) but the switch
/// itself has no winner — no covering rule whose secondary intervals
/// match. A drop-rule winner counts as handled; traffic forwarded into the
/// drop node was deliberately discarded and never "arrives" anywhere.
fn holes_for_slice(
    view: &MfView<'_>,
    emitters: &[NodeId],
    atom: AtomId,
    class: &SecClass,
    handled: &mut HashSet<NodeId>,
    arrived: &mut HashSet<NodeId>,
    mut sink: impl FnMut(NodeId),
) {
    handled.clear();
    arrived.clear();
    for &node in emitters {
        if let Some(link) = mf_successor(view, node, atom, class) {
            handled.insert(node);
            let dst = view.topology.link(link).dst;
            if !view.topology.is_drop_node(dst) {
                arrived.insert(dst);
            }
        }
    }
    for &node in arrived.difference(handled) {
        sink(node);
    }
}

/// Full-plane loop scan: every primary atom × every class of `classes`,
/// walking from every node that owns rules for the atom. Loops found in
/// different secondary classes but on the same node cycle union their
/// primary atoms, matching how violations aggregate packet intervals.
pub(crate) fn mf_cycles(view: &MfView<'_>, classes: &[SecClass]) -> BTreeMap<Vec<NodeId>, AtomSet> {
    let mut cycles: BTreeMap<Vec<NodeId>, AtomSet> = BTreeMap::new();
    let mut scratch = MfScratch::new(view.topology.node_count());
    for (atom, _) in view.atoms.iter() {
        if !scratch.collect_emitters(view, atom) {
            continue;
        }
        for class in classes {
            scratch.walk.begin_pass();
            for &start in &scratch.emitters {
                let succ = |n| mf_successor(view, n, atom, class);
                if let Some(cycle) = scratch.walk.walk(view.topology, start, succ) {
                    cycles.entry(cycle).or_default().insert(atom);
                }
            }
        }
    }
    cycles
}

/// Full-plane blackhole scan over every primary atom × every class of
/// `classes` (see [`holes_for_slice`] for the per-slice predicate).
pub(crate) fn mf_holes(view: &MfView<'_>, classes: &[SecClass]) -> BTreeMap<NodeId, AtomSet> {
    let mut holes: BTreeMap<NodeId, AtomSet> = BTreeMap::new();
    let mut scratch = MfScratch::new(view.topology.node_count());
    let mut handled: HashSet<NodeId> = HashSet::new();
    let mut arrived: HashSet<NodeId> = HashSet::new();
    for (atom, _) in view.atoms.iter() {
        if !scratch.collect_emitters(view, atom) {
            continue;
        }
        for class in classes {
            holes_for_slice(
                view,
                &scratch.emitters,
                atom,
                class,
                &mut handled,
                &mut arrived,
                |node| {
                    holes.entry(node).or_default().insert(atom);
                },
            );
        }
    }
    holes
}

/// Per-class cycle maps, indexed like the `classes` slice handed in.
pub(crate) type ClassLoops = Vec<BTreeMap<Vec<NodeId>, AtomSet>>;
/// Per-class blackhole maps, indexed like the `classes` slice handed in.
pub(crate) type ClassHoles = Vec<BTreeMap<NodeId, AtomSet>>;

/// Fused scoped repair: cycles *and* blackholes of the `atoms × classes`
/// rectangle in one pass. Each slice resolves every emitter's owner cell
/// exactly once into the scratch's memo ([`MfScratch::succ`]); the
/// cycle walks then chase plain arrays and the blackhole predicate reads
/// the same memo, so the rectangle costs one cell resolution per
/// `(emitter, slice)` and allocates nothing per walk. Both halves are
/// pure functions of the slice forwarding function — the exact predicates
/// of [`mf_cycles`] and [`mf_holes`] — so the result stays bit-identical
/// to a full scan's share for every slice.
pub(crate) fn mf_repair_slices(
    view: &MfView<'_>,
    classes: &[SecClass],
    atoms: &[AtomId],
    scratch: &mut MfScratch,
) -> (ClassLoops, ClassHoles) {
    let mut loops: ClassLoops = vec![BTreeMap::new(); classes.len()];
    let mut holes: ClassHoles = vec![BTreeMap::new(); classes.len()];
    for &atom in atoms {
        if !scratch.collect_emitters(view, atom) {
            continue;
        }
        for (idx, class) in classes.iter().enumerate() {
            scratch.walk.begin_pass();
            for &node in &scratch.emitters {
                scratch.succ[node.index()] = mf_successor(view, node, atom, class);
            }
            for &start in &scratch.emitters {
                let succ = |n: NodeId| scratch.succ[n.index()];
                if let Some(cycle) = scratch.walk.walk(view.topology, start, succ) {
                    loops[idx].entry(cycle).or_default().insert(atom);
                }
            }
            // Blackholes: a node some winner forwards into (`arrived`)
            // that itself has no winner — the memo answers both sides.
            scratch.arrived.clear();
            for &node in &scratch.emitters {
                if let Some(link) = scratch.succ[node.index()] {
                    let dst = view.topology.link(link).dst;
                    if !view.topology.is_drop_node(dst) {
                        scratch.arrived.push(dst);
                    }
                }
            }
            for &node in &scratch.arrived {
                if scratch.succ[node.index()].is_none() {
                    holes[idx].entry(node).or_default().insert(atom);
                }
            }
        }
    }
    (loops, holes)
}

/// The per-class violation ledger behind the engine's incremental
/// multi-field monitor: for every secondary class with any violation, the
/// cycles and blackholes of that class with the primary atoms exhibiting
/// them there.
///
/// Invariant: `loops[c][cycle]` contains atom α iff `cycle` is a cycle of
/// the slice forwarding function `F_{α,c}` (likewise for `holes`), so the
/// union over classes equals [`mf_cycles`] + [`mf_holes`] of the whole
/// plane — the form the [`crate::monitor::ViolationMonitor`] tracks.
/// Splitting the state by class is what makes scoped repair possible: an
/// update's rectangle of touched slices can be cleared and re-walked
/// without disturbing the contributions of untouched classes to the same
/// violation identity.
#[derive(Clone, Debug, Default)]
pub(crate) struct MfClassState {
    /// class → canonical cycle → primary atoms looping through it there.
    loops: BTreeMap<SecClass, BTreeMap<Vec<NodeId>, AtomSet>>,
    /// class → switch → primary atoms arriving unhandled there.
    holes: BTreeMap<SecClass, BTreeMap<NodeId, AtomSet>>,
}

impl MfClassState {
    /// An empty ledger (correct for an engine with no rules installed).
    pub(crate) fn new() -> Self {
        MfClassState::default()
    }

    /// Builds the full ledger from per-class scan results covering every
    /// primary atom (the output of [`mf_repair_slices`] over the whole
    /// plane).
    pub(crate) fn from_slices(
        classes: &[SecClass],
        loops: Vec<BTreeMap<Vec<NodeId>, AtomSet>>,
        holes: Vec<BTreeMap<NodeId, AtomSet>>,
    ) -> Self {
        let mut state = MfClassState::default();
        for ((class, class_loops), class_holes) in classes.iter().zip(loops).zip(holes) {
            if !class_loops.is_empty() {
                state.loops.insert(*class, class_loops);
            }
            if !class_holes.is_empty() {
                state.holes.insert(*class, class_holes);
            }
        }
        state
    }

    /// Replaces the `atoms × classes` rectangle of the ledger with freshly
    /// re-walked slice results: every tracked contribution of a rectangle
    /// slice is cleared, then the fresh results are set. Clear-then-set is
    /// idempotent, so overlapping rectangles of one update may be applied
    /// in any order.
    pub(crate) fn apply_slices(
        &mut self,
        classes: &[SecClass],
        atoms: &AtomSet,
        loops: Vec<BTreeMap<Vec<NodeId>, AtomSet>>,
        holes: Vec<BTreeMap<NodeId, AtomSet>>,
    ) {
        for ((class, fresh), fresh_holes) in classes.iter().zip(loops).zip(holes) {
            let class_loops = self.loops.entry(*class).or_default();
            for set in class_loops.values_mut() {
                set.difference_with(atoms);
            }
            for (cycle, set) in fresh {
                class_loops.entry(cycle).or_default().union_with(&set);
            }
            class_loops.retain(|_, set| !set.is_empty());
            if class_loops.is_empty() {
                self.loops.remove(class);
            }
            let class_holes = self.holes.entry(*class).or_default();
            for set in class_holes.values_mut() {
                set.difference_with(atoms);
            }
            for (node, set) in fresh_holes {
                class_holes.entry(node).or_default().union_with(&set);
            }
            class_holes.retain(|_, set| !set.is_empty());
            if class_holes.is_empty() {
                self.holes.remove(class);
            }
        }
    }

    /// The loop union over classes — the monitor-facing form, equal to
    /// [`mf_cycles`] of the whole plane.
    pub(crate) fn union_loops(&self) -> BTreeMap<Vec<NodeId>, AtomSet> {
        let mut out: BTreeMap<Vec<NodeId>, AtomSet> = BTreeMap::new();
        for per_class in self.loops.values() {
            for (cycle, set) in per_class {
                out.entry(cycle.clone()).or_default().union_with(set);
            }
        }
        out
    }

    /// The blackhole union over classes, equal to [`mf_holes`] of the
    /// whole plane.
    pub(crate) fn union_holes(&self) -> BTreeMap<NodeId, AtomSet> {
        let mut out: BTreeMap<NodeId, AtomSet> = BTreeMap::new();
        for per_class in self.holes.values() {
            for (&node, set) in per_class {
                out.entry(node).or_default().union_with(set);
            }
        }
        out
    }

    /// Drops every class absent from the post-compaction class list. A
    /// secondary merge reclaims a class whose rules were indistinguishable
    /// from its surviving lower neighbour's, so the dropped entries carry
    /// state identical to entries that remain — the class union is
    /// invariant, exactly like the primary-atom story in
    /// [`crate::monitor::ViolationMonitor::remap`]. Surviving classes keep
    /// their representative (their lattice atom's low bound, unchanged by
    /// merges), so their keys stay valid.
    pub(crate) fn retain_classes(&mut self, valid: &BTreeSet<SecClass>) {
        self.loops.retain(|class, _| valid.contains(class));
        self.holes.retain(|class, _| valid.contains(class));
    }

    /// Rewrites every tracked primary atom through the remap table of a
    /// compaction pass, dropping reclaimed ids (their label-identical
    /// survivors keep every violation alive).
    pub(crate) fn remap(&mut self, remap: &[u32]) {
        let remap_set = |set: &AtomSet| -> AtomSet {
            set.iter()
                .filter_map(|a| {
                    let new = remap[a.index()];
                    (new != REMAP_DEAD).then_some(AtomId(new))
                })
                .collect()
        };
        for per_class in self.loops.values_mut() {
            for set in per_class.values_mut() {
                *set = remap_set(set);
            }
            per_class.retain(|_, set| !set.is_empty());
        }
        self.loops.retain(|_, per_class| !per_class.is_empty());
        for per_class in self.holes.values_mut() {
            for set in per_class.values_mut() {
                *set = remap_set(set);
            }
            per_class.retain(|_, set| !set.is_empty());
        }
        self.holes.retain(|_, per_class| !per_class.is_empty());
    }

    /// Estimated heap bytes held by the ledger — counted by
    /// `DeltaNet::memory_estimate` (but *not* `live_bytes`: the ledger is
    /// derived state, absent from snapshots and rebuilt lazily after a
    /// restore).
    pub(crate) fn memory_bytes(&self) -> usize {
        let entry = std::mem::size_of::<SecClass>() + 24;
        let mut bytes = 0;
        for per_class in self.loops.values() {
            bytes += entry;
            for (cycle, set) in per_class {
                bytes += cycle.capacity() * std::mem::size_of::<NodeId>() + 24 + set.memory_bytes();
            }
        }
        for per_class in self.holes.values() {
            bytes += entry;
            for set in per_class.values() {
                bytes += std::mem::size_of::<NodeId>() + 24 + set.memory_bytes();
            }
        }
        bytes
    }
}

/// Per-update seeded loop check for one inserted or removed rule.
///
/// Any loop created (or whose dissolution must be noticed) by changing the
/// forwarding at `rule.source` necessarily routes through `rule.source`
/// itself, for primary atoms inside the rule's (clip-adjusted) `interval`
/// and secondary classes the rule matches — forwarding for every other
/// `(atom, class)` slice at every other node is untouched by the update.
/// So walking just those slices from the one changed node is a sound
/// per-update check, the multi-field analogue of seeding from the
/// delta-graph's added edges. `classes` is the full class list (the
/// engine's memoized enumeration); the rule's secondary filter is applied
/// here.
pub(crate) fn find_loops_for_rule(
    view: &MfView<'_>,
    classes: &[SecClass],
    rule: &Rule,
    interval: Interval,
) -> BTreeMap<Vec<NodeId>, AtomSet> {
    let matched: Vec<&SecClass> = classes
        .iter()
        .filter(|class| rule.sec.matches(&class[..]))
        .collect();
    let mut cycles: BTreeMap<Vec<NodeId>, AtomSet> = BTreeMap::new();
    let mut walk = CycleWalk::new(view.topology.node_count());
    for atom in view.atoms.iter_atoms_of(interval) {
        for class in &matched {
            walk.begin_pass();
            let succ = |n| mf_successor(view, n, atom, class);
            if let Some(cycle) = walk.walk(view.topology, rule.source, succ) {
                cycles.entry(cycle).or_default().insert(atom);
            }
        }
    }
    cycles
}
