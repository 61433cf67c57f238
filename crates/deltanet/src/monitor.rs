//! Incremental violation monitoring: forwarding loops and blackholes
//! maintained as *live state*, updated from each update's delta-graph.
//!
//! The per-update checks of §4.3.1 answer "did this update create a loop?"
//! but forget the answer immediately: a long-lived deployment that wants to
//! know "which violations exist right now?" has to rescan the whole data
//! plane (`check_all_loops` + `check_all_blackholes`), paying O(plane) per
//! query under churn. [`ViolationMonitor`] turns the per-update increment
//! into the unit of work instead: it holds the current violation set and
//! repairs it from each [`DeltaGraph`], so reading the active set is O(1)
//! in the size of the network and maintenance is proportional to the
//! update's footprint, not the plane.
//!
//! ## How the repair works
//!
//! Both invariants are *per-atom* properties of the edge labels:
//!
//! * atom α loops on cycle C iff every link of C carries α — so α's loop
//!   membership can only change when some `(link, α)` label changed, i.e.
//!   when α appears in the delta-graph;
//! * atom α is blackholed at switch n iff some in-link of n carries α and
//!   no out-link does — so `(n, α)` can only change when a changed
//!   `(link, α)` pair has n as an endpoint.
//!
//! The monitor therefore recomputes, from the current labels, the loop set
//! of exactly the atoms in the delta — changed pairs plus atoms created by
//! *splits* — through the same walk the full scan uses, retiring entries
//! the update broke and admitting the ones it created, and re-checks the
//! blackhole predicate at the `(endpoint, atom)` pairs the delta touched
//! (split atoms at every switch, since their labels are inherited rather
//! than enumerated). Violation
//! identity is the canonical cycle for loops and the switch for blackholes;
//! an identity whose atom set drains is *retired* (a
//! [`MonitorEvent::resolved`]), a fresh identity is *raised*
//! ([`MonitorEvent::appeared`]).
//!
//! Because the repair goes through [`crate::loops::cycles_for_atoms_via`]
//! and [`crate::blackholes::is_blackholed_at`] — the same primitives as the
//! full scans — [`ViolationMonitor::active_violations`] is bit-identical to
//! `check_all_loops() ++ check_all_blackholes()` after every operation; the
//! randomized differential suite (`tests/monitor_differential.rs`) pins
//! this, including across [`crate::DeltaNet::compact`] renumbering (via
//! [`ViolationMonitor::remap`]) and under sharding.

use crate::atoms::{AtomId, AtomMap, REMAP_DEAD};
use crate::atomset::AtomSet;
use crate::blackholes;
use crate::delta_graph::DeltaGraph;
use crate::labels::Labels;
use crate::loops;
use netmodel::checker::InvariantViolation;
use netmodel::topology::{NodeId, Topology};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The identity of a tracked violation: what stays stable while the set of
/// affected packets fluctuates under churn.
#[derive(Clone, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationKey {
    /// A forwarding loop, identified by its canonical node cycle.
    Loop(Vec<NodeId>),
    /// A blackhole, identified by the switch where traffic dies.
    Blackhole(NodeId),
}

impl fmt::Display for ViolationKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKey::Loop(nodes) => {
                write!(f, "forwarding loop through ")?;
                for (i, n) in nodes.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{n}")?;
                }
                Ok(())
            }
            ViolationKey::Blackhole(node) => write!(f, "blackhole at {node}"),
        }
    }
}

/// A violation-set transition produced by one update: a violation identity
/// that appeared (was raised) or resolved (was retired).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MonitorEvent {
    /// The violation that changed state.
    pub key: ViolationKey,
    /// `true` if the violation appeared with this update, `false` if it
    /// resolved.
    pub appeared: bool,
}

impl MonitorEvent {
    fn appeared(key: ViolationKey) -> Self {
        MonitorEvent {
            key,
            appeared: true,
        }
    }

    fn resolved(key: ViolationKey) -> Self {
        MonitorEvent {
            key,
            appeared: false,
        }
    }
}

impl fmt::Display for MonitorEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", if self.appeared { '+' } else { '-' }, self.key)
    }
}

/// The violation-identity transitions of one update or batch window:
/// everything that appeared and everything that resolved, each in ascending
/// [`ViolationKey`] order. This is the payload pushed to observers
/// registered with [`crate::ShardedDeltaNet::set_monitor_observer`] — the
/// same diff `deltanet replay --monitor` prints, so a subscriber stream and
/// an offline replay of the same ops are comparable event for event.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MonitorTransitions {
    /// Violations newly present after the update, sorted.
    pub appeared: Vec<ViolationKey>,
    /// Violations no longer present after the update, sorted.
    pub resolved: Vec<ViolationKey>,
}

impl MonitorTransitions {
    /// Whether the update changed no violation identity.
    pub fn is_empty(&self) -> bool {
        self.appeared.is_empty() && self.resolved.is_empty()
    }

    /// Total transitions (appeared + resolved).
    pub fn len(&self) -> usize {
        self.appeared.len() + self.resolved.len()
    }
}

/// Diffs successive active-violation identity sets into
/// [`MonitorTransitions`]. This is the push-side twin of polling
/// [`ViolationMonitor::last_events`]: feed it the merged key set after each
/// update (or batch window) and it yields exactly the identities that
/// appeared and resolved since the previous observation — deterministic
/// regardless of how many shards produced the keys or in which order the
/// shards applied their groups.
#[derive(Clone, Debug, Default)]
pub struct TransitionTracker {
    prev: BTreeSet<ViolationKey>,
}

impl TransitionTracker {
    /// A tracker whose baseline is the empty violation set.
    pub fn new() -> Self {
        TransitionTracker::default()
    }

    /// A tracker whose baseline is `current` — use when attaching to an
    /// engine that already has active violations, so the attach itself does
    /// not masquerade as a wave of `appeared` events.
    pub fn starting_from(current: BTreeSet<ViolationKey>) -> Self {
        TransitionTracker { prev: current }
    }

    /// Diffs `now` against the previous observation and advances to it.
    pub fn observe(&mut self, now: BTreeSet<ViolationKey>) -> MonitorTransitions {
        let transitions = MonitorTransitions {
            appeared: now.difference(&self.prev).cloned().collect(),
            resolved: self.prev.difference(&now).cloned().collect(),
        };
        self.prev = now;
        transitions
    }

    /// The violation identities as of the last observation.
    pub fn current(&self) -> &BTreeSet<ViolationKey> {
        &self.prev
    }
}

/// The live violation state: every forwarding loop and blackhole currently
/// present in the data plane, maintained incrementally (see the module
/// docs). Created empty alongside an empty engine
/// ([`crate::DeltaNetConfig::monitor_violations`]) or seeded from an
/// existing data plane ([`crate::DeltaNet::enable_monitor`]).
#[derive(Clone, Debug, Default)]
pub struct ViolationMonitor {
    /// Active loops: canonical cycle → atoms currently looping through it.
    loops: BTreeMap<Vec<NodeId>, AtomSet>,
    /// Active blackholes: switch → atoms currently dying there.
    holes: BTreeMap<NodeId, AtomSet>,
    /// The appeared/resolved transitions of the most recent update.
    events: Vec<MonitorEvent>,
}

impl ViolationMonitor {
    /// An empty monitor (correct for an engine with no rules installed).
    pub fn new() -> Self {
        ViolationMonitor::default()
    }

    /// Seeds a monitor from an existing data plane with one full scan —
    /// the only O(plane) step; everything afterwards is incremental.
    pub fn from_state(topology: &Topology, labels: &Labels, atoms: &AtomMap) -> Self {
        let all: AtomSet = atoms.iter().map(|(a, _)| a).collect();
        let cycles = loops::cycles_for_atoms_via(topology, &all, |node, atom| {
            loops::successor(topology, labels, node, atom)
        });
        let holes = topology
            .switch_nodes()
            .map(|node| {
                (
                    node,
                    blackholes::blackholed_atoms_at(topology, labels, node),
                )
            })
            .filter(|(_, set)| !set.is_empty())
            .collect();
        ViolationMonitor {
            loops: cycles.into_iter().collect(),
            holes,
            events: Vec::new(),
        }
    }

    /// Seeds a monitor directly from precomputed violation maps — the
    /// multi-field engine's entry point, whose cross-field scans
    /// ([`crate::multifield`]) produce these maps rather than label walks.
    pub(crate) fn from_maps(
        loops: BTreeMap<Vec<NodeId>, AtomSet>,
        holes: BTreeMap<NodeId, AtomSet>,
    ) -> Self {
        let mut monitor = ViolationMonitor {
            loops,
            holes,
            events: Vec::new(),
        };
        monitor.loops.retain(|_, set| !set.is_empty());
        monitor.holes.retain(|_, set| !set.is_empty());
        monitor
    }

    /// Replaces the tracked state with freshly computed violation maps,
    /// recording appeared/resolved transitions at the identity level —
    /// exactly like [`ViolationMonitor::apply_update`] does, but with the
    /// new state handed in whole instead of repaired from a delta. The
    /// multi-field engine uses this: its violation state depends on
    /// cross-field intersections that no single-field delta-graph
    /// describes. Since PR 9 the maps handed in are *not* full rescans:
    /// the engine keeps a per-secondary-class ledger
    /// ([`crate::multifield::MfClassState`]), repairs only the
    /// `(primary atom, secondary class)` slices an update touched, and
    /// swaps in the rebuilt class union here — identity-level events stay
    /// exact because this diff is computed against the previous union.
    pub(crate) fn replace_state(
        &mut self,
        loops: BTreeMap<Vec<NodeId>, AtomSet>,
        holes: BTreeMap<NodeId, AtomSet>,
    ) {
        self.events.clear();
        let loops_before = std::mem::replace(&mut self.loops, loops);
        let holes_before = std::mem::replace(&mut self.holes, holes);
        self.loops.retain(|_, set| !set.is_empty());
        self.holes.retain(|_, set| !set.is_empty());
        let loop_key = |cycle: &Vec<NodeId>| ViolationKey::Loop(cycle.clone());
        let resolved = loops_before.keys().filter(|c| !self.loops.contains_key(*c));
        self.events
            .extend(resolved.map(loop_key).map(MonitorEvent::resolved));
        let appeared = self.loops.keys().filter(|c| !loops_before.contains_key(*c));
        self.events
            .extend(appeared.map(loop_key).map(MonitorEvent::appeared));
        let resolved = holes_before.keys().filter(|n| !self.holes.contains_key(*n));
        self.events
            .extend(resolved.map(|&n| MonitorEvent::resolved(ViolationKey::Blackhole(n))));
        let appeared = self.holes.keys().filter(|n| !holes_before.contains_key(*n));
        self.events
            .extend(appeared.map(|&n| MonitorEvent::appeared(ViolationKey::Blackhole(n))));
    }

    /// Repairs the violation state from one update's delta-graph, recording
    /// the appeared/resolved transitions (readable via
    /// [`ViolationMonitor::last_events`] until the next update).
    ///
    /// `labels` must be the *post-update* edge labels of the engine that
    /// produced `delta` — exactly what [`crate::DeltaNet`] passes when
    /// feeding its monitor.
    pub fn apply_update(&mut self, topology: &Topology, labels: &Labels, delta: &DeltaGraph) {
        self.events.clear();
        if delta.splits.is_empty() && delta.added.is_empty() && delta.removed.is_empty() {
            return;
        }
        // The atoms whose violation membership may differ from the tracked
        // state: atoms with changed labels, plus every atom created by a
        // split. Split atoms are *recomputed* from the current labels, never
        // inferred from their old atom's tracked membership — on an
        // aggregated delta-graph (§3.3) the split may have happened after
        // label changes earlier in the same window, so the tracked (pre-
        // window) membership of the old atom says nothing about the new one.
        let mut affected = delta.affected_atoms();
        for pair in &delta.splits {
            affected.insert(pair.new);
        }

        // 1. Loops: retire every candidate atom from every tracked cycle,
        // then re-admit whatever a fresh walk (the full scan's own
        // primitive) finds for exactly those atoms. A cycle the walk
        // creates appeared; one it leaves empty resolved.
        for set in self.loops.values_mut() {
            set.difference_with(&affected);
        }
        let recomputed = loops::cycles_for_atoms_via(topology, &affected, |node, atom| {
            loops::successor(topology, labels, node, atom)
        });
        let mut appeared: Vec<Vec<NodeId>> = Vec::new();
        for (cycle, set) in recomputed {
            if !self.loops.contains_key(&cycle) {
                appeared.push(cycle.clone());
            }
            self.loops.entry(cycle).or_default().union_with(&set);
        }
        appeared.sort_unstable();
        let events = &mut self.events;
        self.loops.retain(|cycle, set| {
            if set.is_empty() {
                events.push(MonitorEvent::resolved(ViolationKey::Loop(cycle.clone())));
            }
            !set.is_empty()
        });
        let appeared = appeared.into_iter().map(ViolationKey::Loop);
        self.events.extend(appeared.map(MonitorEvent::appeared));

        // 2. Blackholes: the predicate at (n, α) reads only the labels of
        // n's in- and out-links for α, so for changed pairs the candidates
        // are exactly their endpoints; a split atom (which has labels
        // wherever its old atom did, possibly edited later in the window)
        // is re-checked at every switch. Drop-node sinks are never switches
        // (see `blackholes` module docs) and are skipped.
        let mut candidates: BTreeSet<(NodeId, AtomId)> = BTreeSet::new();
        for &(link, atom) in delta.added.iter().chain(delta.removed.iter()) {
            let l = topology.link(link);
            if !topology.is_drop_node(l.src) {
                candidates.insert((l.src, atom));
            }
            if !topology.is_drop_node(l.dst) {
                candidates.insert((l.dst, atom));
            }
        }
        for pair in &delta.splits {
            for node in topology.switch_nodes() {
                candidates.insert((node, pair.new));
            }
        }
        // Candidates come grouped by switch, so each switch's set is
        // settled before the next: its identity transitions iff it went
        // from empty to non-empty or back.
        let mut resolved: Vec<NodeId> = Vec::new();
        let mut appeared: Vec<NodeId> = Vec::new();
        let mut candidates = candidates.into_iter().peekable();
        while let Some(&(node, _)) = candidates.peek() {
            let set = self.holes.entry(node).or_default();
            let was_active = !set.is_empty();
            while let Some((_, atom)) = candidates.next_if(|&(n, _)| n == node) {
                if blackholes::is_blackholed_at(topology, labels, node, atom) {
                    set.insert(atom);
                } else {
                    set.remove(atom);
                }
            }
            match (was_active, set.is_empty()) {
                (true, true) => resolved.push(node),
                (false, false) => appeared.push(node),
                _ => {}
            }
            if set.is_empty() {
                self.holes.remove(&node);
            }
        }
        let resolved = resolved.into_iter().map(ViolationKey::Blackhole);
        self.events.extend(resolved.map(MonitorEvent::resolved));
        let appeared = appeared.into_iter().map(ViolationKey::Blackhole);
        self.events.extend(appeared.map(MonitorEvent::appeared));
    }

    /// Rewrites every tracked atom through the remap table of a compaction
    /// pass ([`crate::atoms::AtomMap::renumber`]), dropping reclaimed ids.
    /// A reclaimed atom always merged into a live, label-identical
    /// neighbour, so no violation identity can appear or resolve here — the
    /// active set is invariant across compaction (pinned by the
    /// differential suite).
    pub fn remap(&mut self, remap: &[u32]) {
        let remap_set = |set: &AtomSet| -> AtomSet {
            set.iter()
                .filter_map(|a| {
                    let new = remap[a.index()];
                    (new != REMAP_DEAD).then_some(AtomId(new))
                })
                .collect()
        };
        for set in self.loops.values_mut() {
            *set = remap_set(set);
        }
        self.loops.retain(|_, set| !set.is_empty());
        for set in self.holes.values_mut() {
            *set = remap_set(set);
        }
        self.holes.retain(|_, set| !set.is_empty());
        self.events.clear();
    }

    /// The violations currently active, rendered exactly like
    /// `check_all_loops()` followed by `check_all_blackholes()` (same
    /// grouping, normalization, and order), so differential comparison is
    /// plain `Vec` equality. The state itself is maintained — no scan runs
    /// here; cost is proportional to the active violations only.
    pub fn active_violations(&self, atoms: &AtomMap) -> Vec<InvariantViolation> {
        let mut out = loops::into_violations(
            self.loops.iter().map(|(c, s)| (c.clone(), s.clone())),
            atoms,
        );
        out.extend(blackholes::render_blackholes(
            self.holes.iter().map(|(n, s)| (*n, s)),
            atoms,
        ));
        out
    }

    /// The identities of the currently active violations, in sorted order
    /// (loops by cycle, then blackholes by node). Cheap: no packet-interval
    /// rendering.
    pub fn active_keys(&self) -> Vec<ViolationKey> {
        self.loops
            .keys()
            .map(|c| ViolationKey::Loop(c.clone()))
            .chain(self.holes.keys().map(|&n| ViolationKey::Blackhole(n)))
            .collect()
    }

    /// Number of active forwarding loops (distinct cycles). O(1).
    pub fn loop_count(&self) -> usize {
        self.loops.len()
    }

    /// Number of active blackholes (distinct switches). O(1).
    pub fn blackhole_count(&self) -> usize {
        self.holes.len()
    }

    /// Whether no violation is currently active.
    pub fn is_clean(&self) -> bool {
        self.loops.is_empty() && self.holes.is_empty()
    }

    /// The appeared/resolved transitions of the most recent update (empty
    /// after a remap, which never transitions an identity).
    pub fn last_events(&self) -> &[MonitorEvent] {
        &self.events
    }

    /// Exports the tracked violation state for a snapshot: the active loops
    /// as `(canonical cycle, raw atom-set words)` and the active blackholes
    /// as `(switch, raw atom-set words)`. Events are transient per-update
    /// state and are not exported.
    #[allow(clippy::type_complexity)]
    pub fn export_parts(&self) -> (Vec<(Vec<NodeId>, Vec<u64>)>, Vec<(NodeId, Vec<u64>)>) {
        let loops = self
            .loops
            .iter()
            .map(|(c, s)| (c.clone(), s.words().to_vec()))
            .collect();
        let holes = self
            .holes
            .iter()
            .map(|(&n, s)| (n, s.words().to_vec()))
            .collect();
        (loops, holes)
    }

    /// Rebuilds a monitor from the export of
    /// [`ViolationMonitor::export_parts`], with an empty event list.
    pub fn from_parts(
        loops: Vec<(Vec<NodeId>, Vec<u64>)>,
        holes: Vec<(NodeId, Vec<u64>)>,
    ) -> ViolationMonitor {
        ViolationMonitor {
            loops: loops
                .into_iter()
                .map(|(c, w)| (c, AtomSet::from_raw_words(w)))
                .collect(),
            holes: holes
                .into_iter()
                .map(|(n, w)| (n, AtomSet::from_raw_words(w)))
                .collect(),
            events: Vec::new(),
        }
    }

    /// Whether two monitors track the same violation state — same loop
    /// cycles, same blackhole switches, logically equal atom sets (events
    /// are ignored). The restore path uses this to verify a deserialized
    /// monitor bit-for-bit against a fresh full-scan seed of the restored
    /// data plane.
    pub fn state_eq(&self, other: &ViolationMonitor) -> bool {
        self.loops == other.loops && self.holes == other.holes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DeltaNet, DeltaNetConfig};
    use netmodel::ip::IpPrefix;
    use netmodel::rule::{Rule, RuleId};

    fn prefix(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    fn monitored() -> DeltaNetConfig {
        DeltaNetConfig {
            monitor_violations: true,
            ..DeltaNetConfig::default()
        }
    }

    fn two_node_net() -> (
        DeltaNet,
        netmodel::topology::NodeId,
        netmodel::topology::NodeId,
    ) {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        topo.add_link(a, b);
        topo.add_link(b, a);
        (DeltaNet::new(topo, monitored()), a, b)
    }

    #[test]
    fn loop_appears_and_resolves_with_events() {
        let (mut net, a, b) = two_node_net();
        let ab = net.topology().link_between(a, b).unwrap();
        let ba = net.topology().link_between(b, a).unwrap();
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, a, ab));
        assert!(net.monitor().unwrap().is_clean() || net.monitor().unwrap().loop_count() == 0);
        // Closing the cycle raises the loop and resolves the blackhole the
        // first (dangling) rule had created at b.
        net.insert_rule(Rule::forward(RuleId(2), prefix("10.0.0.0/8"), 1, b, ba));
        let monitor = net.monitor().unwrap();
        assert_eq!(monitor.loop_count(), 1);
        assert_eq!(monitor.blackhole_count(), 0);
        let events = monitor.last_events();
        assert!(events
            .iter()
            .any(|e| e.appeared && matches!(e.key, ViolationKey::Loop(_))));
        assert!(events
            .iter()
            .any(|e| !e.appeared && e.key == ViolationKey::Blackhole(b)));
        // The live state equals the full scans, in their concatenation order.
        let mut expect = net.check_all_loops();
        expect.extend(net.check_all_blackholes());
        assert_eq!(net.active_violations().unwrap(), expect);
        // Removing one side retires the loop (and strands rule 2's traffic
        // at a, which becomes the new blackhole).
        net.remove_rule(RuleId(1));
        let monitor = net.monitor().unwrap();
        assert_eq!(monitor.loop_count(), 0);
        assert!(monitor
            .last_events()
            .iter()
            .any(|e| !e.appeared && matches!(e.key, ViolationKey::Loop(_))));
        assert_eq!(monitor.active_keys(), vec![ViolationKey::Blackhole(a)]);
    }

    #[test]
    fn blackhole_appears_on_gap_and_resolves_on_drop_rule() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let ab = topo.add_link(a, b);
        let db = topo.drop_link(b);
        let mut net = DeltaNet::new(topo, monitored());
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, a, ab));
        let monitor = net.monitor().unwrap();
        assert_eq!(monitor.blackhole_count(), 1);
        assert_eq!(monitor.active_keys(), vec![ViolationKey::Blackhole(b)]);
        // An explicit drop rule is intended loss: the blackhole resolves.
        net.insert_rule(Rule::drop(RuleId(2), prefix("10.0.0.0/8"), 1, b, db));
        let monitor = net.monitor().unwrap();
        assert_eq!(monitor.blackhole_count(), 0);
        assert_eq!(
            monitor.last_events(),
            &[MonitorEvent::resolved(ViolationKey::Blackhole(b))]
        );
        // Withdrawing the drop rule re-raises it.
        net.remove_rule(RuleId(2));
        assert_eq!(net.monitor().unwrap().blackhole_count(), 1);
    }

    #[test]
    fn splits_inherit_membership_and_narrow_fix_splits_the_violation() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let ab = topo.add_link(a, b);
        let db = topo.drop_link(b);
        let mut net = DeltaNet::new(topo, monitored());
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, a, ab));
        assert_eq!(net.monitor().unwrap().blackhole_count(), 1);
        // Dropping only half the range splits the blackholed atom; the
        // remaining half must stay blackholed (the split clone at work).
        net.insert_rule(Rule::drop(RuleId(2), prefix("10.0.0.0/9"), 1, b, db));
        let mut expect = net.check_all_loops();
        expect.extend(net.check_all_blackholes());
        assert_eq!(net.active_violations().unwrap(), expect);
        assert_eq!(net.monitor().unwrap().blackhole_count(), 1);
    }

    #[test]
    fn remap_survives_compaction_without_transitions() {
        let (mut net, a, b) = two_node_net();
        let ab = net.topology().link_between(a, b).unwrap();
        let ba = net.topology().link_between(b, a).unwrap();
        net.insert_rule(Rule::forward(RuleId(1), prefix("0.0.0.0/0"), 1, a, ab));
        net.insert_rule(Rule::forward(RuleId(2), prefix("0.0.0.0/0"), 1, b, ba));
        // Churn a narrow rule to create reclaimable bounds.
        net.insert_rule(Rule::forward(RuleId(3), prefix("10.0.0.0/8"), 9, a, ab));
        net.remove_rule(RuleId(3));
        assert!(net.reclaimable_bounds() > 0);
        assert_eq!(net.monitor().unwrap().loop_count(), 1);
        net.compact();
        let monitor = net.monitor().unwrap();
        assert_eq!(monitor.loop_count(), 1);
        assert!(monitor.last_events().is_empty());
        let mut expect = net.check_all_loops();
        expect.extend(net.check_all_blackholes());
        assert_eq!(net.active_violations().unwrap(), expect);
    }

    #[test]
    fn enable_monitor_seeds_from_existing_state() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let ab = topo.add_link(a, b);
        let ba = topo.add_link(b, a);
        let mut net = DeltaNet::with_topology(topo);
        assert!(net.monitor().is_none());
        assert!(net.active_violations().is_none());
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, a, ab));
        net.insert_rule(Rule::forward(RuleId(2), prefix("10.0.0.0/8"), 1, b, ba));
        net.enable_monitor();
        let monitor = net.monitor().unwrap();
        assert_eq!(monitor.loop_count(), 1);
        // Incremental from here on.
        net.remove_rule(RuleId(2));
        assert_eq!(net.monitor().unwrap().loop_count(), 0);
    }

    #[test]
    fn aggregated_window_feeds_monitor_like_per_update() {
        // The §3.3 aggregation path: a monitor may consume one aggregated
        // delta-graph for a whole update window instead of per-update
        // deltas. This is only sound because `DeltaGraph::merge` cancels
        // same-window insert+remove pairs to their net effect — without
        // cancellation the flapped pair below would feed the monitor a
        // phantom addition and removal in unknown relative order.
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let ab = topo.add_link(a, b);
        let ba = topo.add_link(b, a);
        let mut net = DeltaNet::with_topology(topo);
        let mut external = ViolationMonitor::new();

        net.begin_aggregate();
        // A loop raised and fully retracted inside the window (nets out) …
        net.insert_rule(Rule::forward(RuleId(1), prefix("10.0.0.0/8"), 1, a, ab));
        net.insert_rule(Rule::forward(RuleId(2), prefix("10.0.0.0/8"), 1, b, ba));
        net.remove_rule(RuleId(2));
        net.remove_rule(RuleId(1));
        // … and a loop still live when the window closes.
        net.insert_rule(Rule::forward(RuleId(3), prefix("192.0.0.0/8"), 1, a, ab));
        net.insert_rule(Rule::forward(RuleId(4), prefix("192.0.0.0/8"), 1, b, ba));
        let agg = net.take_aggregate();

        external.apply_update(net.topology(), net.labels(), &agg);
        let mut expect = net.check_all_loops();
        expect.extend(net.check_all_blackholes());
        assert_eq!(external.active_violations(net.atoms()), expect);
        assert_eq!(external.loop_count(), 1);

        // Second window — the split-after-membership-change regression: a
        // loop forms on the 10/8 atom *inside* the window, then a later
        // same-link, higher-priority /9 insert splits that atom without
        // touching any label. The split atom's loop membership exists only
        // in the current labels, not in the monitor's pre-window state, so
        // the repair must recompute it (inheriting from the tracked state
        // would silently drop the upper half of the looping packets).
        net.begin_aggregate();
        net.insert_rule(Rule::forward(RuleId(5), prefix("10.0.0.0/8"), 1, a, ab));
        net.insert_rule(Rule::forward(RuleId(6), prefix("10.0.0.0/8"), 1, b, ba));
        net.insert_rule(Rule::forward(RuleId(7), prefix("10.0.0.0/9"), 5, a, ab));
        let agg = net.take_aggregate();
        assert!(!agg.splits.is_empty(), "the /9 insert must split the atom");
        external.apply_update(net.topology(), net.labels(), &agg);
        // Bit-exact equality is the regression check: with inheritance the
        // split atom would be missing and the loop's packets would cover
        // only 10.0.0.0/9 instead of all of 10.0.0.0/8.
        let mut expect = net.check_all_loops();
        expect.extend(net.check_all_blackholes());
        assert_eq!(external.active_violations(net.atoms()), expect);
        // One loop identity: every looping prefix rides the same a->b cycle.
        assert_eq!(external.loop_count(), 1);
    }

    #[test]
    fn key_and_event_display() {
        let key = ViolationKey::Loop(vec![NodeId(0), NodeId(1)]);
        assert_eq!(key.to_string(), "forwarding loop through n0 -> n1");
        let key = ViolationKey::Blackhole(NodeId(3));
        assert_eq!(key.to_string(), "blackhole at n3");
        assert_eq!(
            MonitorEvent::appeared(key.clone()).to_string(),
            "+ blackhole at n3"
        );
        assert_eq!(MonitorEvent::resolved(key).to_string(), "- blackhole at n3");
    }
}
