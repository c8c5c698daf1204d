//! Online checking of Definition 6 over a streaming trace.
//!
//! [`OnlineChecker`] is a [`TraceObserver`] that consumes the per-packet
//! processing steps of a run *while it executes* and produces the same
//! accept/reject verdict as the post-hoc [`check_correct`](crate::check_correct)
//! — without ever materializing the trace. Memory is bounded by the number of
//! packets *in flight* (plus small per-switch and per-event state), not by
//! the length of the run, so a `TraceMode::StatsOnly`-priced run of tens of
//! millions of events can still be verified.
//!
//! # How it works
//!
//! Every condition of Definitions 2 and 6 is restructured around two facts:
//!
//! 1. **Packet traces are totally ordered by `≺`** (each record is a trace
//!    child of its predecessor), so "every node of trace `t` precedes `k`"
//!    collapses to "the *leaf* of `t` precedes `k`", and "every node follows
//!    `k`" collapses to "the *root* of `t` follows `k`".
//! 2. **Happens-before ancestry is a union of predecessor masks** (trace
//!    parent, latest earlier record at the same switch, controller edges),
//!    so each live node carries small bitmasks instead of the full relation.
//!
//! Per live node the checker keeps: the NFA state of its (virtual-field
//! erased) packet path under every reachable configuration `g(X)`, the
//! automaton of [`Config::admits_trace`](crate::Config::admits_trace); the
//! set of event *firings* that happened-before it; and the set of *watched*
//! leaves that happened-before it. The NFA state is three `u64`
//! configuration masks — at a host, at a switch ingress, at a switch
//! egress — and every hop steps all configurations at once. The checker
//! reads the NES's own stored configurations: each switch's versioned
//! table, whose entries carry the mask of configurations holding the rule,
//! is shared, not copied, and attach builds only the link classes —
//! configurations with equal links and hosts share one hashed link set. A
//! link hop is one packet comparison and one hashed probe per link class;
//! a switch hop walks the versioned table's matches in priority order,
//! and each matched rule resolves every still-unresolved configuration in
//! its mask, its outputs computed once for all of them.
//!
//! Event firings replay the SWITCH rule greedily: an unfired event fires at
//! a record when the packet matches and some enabling set has fired
//! entirely happens-before that record. Each firing appends `g(X)` to the
//! *realized* configuration sequence — the online image of the update
//! `g(∅) →e₀ g({e₀}) →e₁ ⋯`.
//!
//! When a path ends, its admitted-configuration set `D` (which
//! configurations accept the finished path) is intersected against the
//! realized sequence: condition 1 (some configuration processes the trace)
//! becomes a pending obligation discharged by future firings; condition 2
//! (too early) is tested when a later firing sees the leaf in its
//! happens-before past; condition 3 (too late) intersects `D` with the
//! configurations realized *after* the last firing preceding the trace's
//! root. The triggering-packet side condition of first occurrences is a
//! reference-counted obligation carried from the firing node to each
//! descendant leaf. Prefixes retire as soon as the engine promises a node
//! can gain no more children.
//!
//! # Capacity
//!
//! The checker is exact while the run stays within its (generous) windows:
//! at most 64 reachable configurations, 64 event firings, and 64
//! simultaneously-watched leaves. Beyond that it returns the conservative
//! [`OnlineViolation::CapacityExceeded`] rather than guessing.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

use netkat::{FxBuildHasher, Loc, Packet};

use crate::event::{Event, EventId, EventSet};
use crate::family::{ConfigFamily, Masks};
use crate::nes::NetworkEventStructure;
use crate::observe::{LeafKind, TraceObserver};
use crate::trace::LocatedPacket;

/// Why an online run is not correct (or not checkable).
///
/// The kinds mirror the post-hoc violations but are not one-to-one: the
/// online checker commits to the event sequence that actually fired, while
/// [`check_correct`](crate::check_correct) searches all allowed sequences.
/// Equivalence holds at the accept/reject level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OnlineViolation {
    /// A finished packet trace is admitted by no realized configuration
    /// (condition 1 / the initial-configuration check).
    Inconsistent,
    /// A packet trace entirely before a firing was processed only by later
    /// configurations (condition 2).
    TooEarly,
    /// A packet trace entirely after a firing was processed only by earlier
    /// configurations (condition 3).
    TooLate,
    /// No packet trace through a firing node was processed by the
    /// configuration being replaced (the first-occurrence side condition).
    TriggerUnprocessed,
    /// The run exceeded a checker window (configurations, firings, or
    /// watched leaves); the verdict is conservatively negative.
    CapacityExceeded,
}

impl OnlineViolation {
    /// A short static name for reports and flight-recorder entries.
    pub fn name(self) -> &'static str {
        match self {
            OnlineViolation::Inconsistent => "inconsistent",
            OnlineViolation::TooEarly => "too_early",
            OnlineViolation::TooLate => "too_late",
            OnlineViolation::TriggerUnprocessed => "trigger_unprocessed",
            OnlineViolation::CapacityExceeded => "capacity_exceeded",
        }
    }
}

impl fmt::Display for OnlineViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineViolation::Inconsistent => {
                write!(f, "a packet trace is admitted by no realized configuration")
            }
            OnlineViolation::TooEarly => {
                write!(f, "a packet trace preceding an event firing used a later configuration")
            }
            OnlineViolation::TooLate => {
                write!(f, "a packet trace following an event firing used an earlier configuration")
            }
            OnlineViolation::TriggerUnprocessed => write!(
                f,
                "no trace through an event firing was processed by the replaced configuration"
            ),
            OnlineViolation::CapacityExceeded => {
                write!(f, "the run exceeded an online-checker capacity window")
            }
        }
    }
}

impl std::error::Error for OnlineViolation {}

/// A live trace node: the checker's bounded per-packet-in-flight state.
struct Node {
    /// The (virtual-field erased) located packet of this record.
    lp: LocatedPacket,
    /// NFA state under every reachable configuration (no bit = rejected).
    state: Masks,
    /// Firing positions at strict happens-before ancestors.
    fired_anc: u64,
    /// Watch bits of pending leaves that happened-before this node.
    watch_anc: u64,
    /// Firing positions that happened-before this path's *root*.
    root_pred: u64,
    /// Whether this node starts a path (no trace parent).
    is_root: bool,
    /// Trigger obligations carried by this path (indices into `obligations`).
    trig: Vec<u32>,
    /// This node's own firing position bit (set at seal; 0 if none).
    own_fired: u64,
    /// This node's own watch bit (set if its leaf went pending; 0 if none).
    own_watch: u64,
    /// Set by [`TraceObserver::cause`]: snapshot masks at seal.
    cause_requested: bool,
    /// Set by [`TraceObserver::leaf`]: processed (and dropped) at seal.
    leafed: Option<LeafKind>,
    /// Set by [`TraceObserver::retire`] on the unsealed node.
    retired: bool,
}

/// The most recent record at a switch (or host), with its masks. Late-updated
/// when that record seals (own firing) or leafs (own watch).
struct LastAt {
    idx: usize,
    fired: u64,
    watch: u64,
}

/// A condition-1 obligation: leaf admitted by `d`, none realized yet.
struct Pending1 {
    d: u64,
    discharged: bool,
}

/// A first-occurrence trigger obligation (refcounted down the firing path).
struct Obligation {
    /// Domain index of the configuration being replaced.
    cfg: u32,
    /// Some descendant leaf was admitted by it.
    satisfied: bool,
    /// Live nodes still carrying the obligation.
    live: u32,
}

struct Inner {
    // NES-derived, fixed at construction.
    events: Vec<Event>,
    /// Indices into `events` by event location, ascending.
    events_at: HashMap<Loc, Vec<usize>, FxBuildHasher>,
    family: Vec<EventSet>,
    /// The reachable configurations, bit `i` = domain index `i`.
    configs: ConfigFamily,
    domain_index: HashMap<EventSet, u32>,

    // Firing state.
    fired_set: EventSet,
    fired_events: Vec<EventId>,
    /// Firing position of each fired event, by event index.
    fired_pos: [u8; EventId::MAX_EVENTS],
    realized_order: Vec<u32>,
    realized_mask: u64,

    // Live-trace state.
    nodes: BTreeMap<usize, Node>,
    unsealed: Option<usize>,
    last_at: HashMap<u64, LastAt, FxBuildHasher>,
    cause_masks: HashMap<usize, (u64, u64), FxBuildHasher>,

    // Open obligations.
    pending1: Vec<Pending1>,
    pending3: Vec<u64>,
    obligations: Vec<Obligation>,

    verdict: Option<Result<(), OnlineViolation>>,

    // Telemetry high-waters and counters. These survive `fail`'s state
    // clear: the numbers leading *into* a violation are the interesting
    // ones.
    m_nodes_hw: u64,
    m_retired: u64,
    m_obligations_hw: u64,
    m_watch_hw: u64,
    /// The engine's flight recorder, when one was attached: event firings
    /// and the violation itself are logged as checker transitions.
    flight: Option<edn_obs::FlightRecorder>,
}

impl Inner {
    fn dead(&self) -> bool {
        self.verdict.is_some()
    }

    fn fail(&mut self, v: OnlineViolation) {
        if self.verdict.is_none() {
            self.verdict = Some(Err(v));
            if let Some(fr) = &self.flight {
                fr.record(edn_obs::FlightEvent {
                    t_us: 0,
                    seq: self.fired_events.len() as u64,
                    kind: v.name(),
                    node: 0,
                    depth: self.nodes.len() as u64,
                });
            }
        }
        self.nodes.clear();
        self.last_at.clear();
        self.cause_masks.clear();
        self.pending1.clear();
        self.pending3.clear();
        self.obligations.clear();
        self.unsealed = None;
    }

    /// Which configurations admit the node's finished path.
    fn admitted_mask(&self, node: &Node, allow_prefix: bool) -> u64 {
        if allow_prefix {
            node.state.live()
        } else {
            self.configs.accepting(node.state, &node.lp)
        }
    }

    /// The SWITCH-rule firing condition: packet matches `e`, and some family
    /// set enabling `e` has fired entirely happens-before this node.
    fn fireable(&self, e: &Event, node: &Node) -> bool {
        if self.fired_set.contains(e.id) || !e.matches(&node.lp.packet, node.lp.loc) {
            return false;
        }
        let next = self.fired_set.insert(e.id);
        if !self.family.iter().any(|&y| next.is_subset(y)) {
            return false;
        }
        self.family.iter().any(|&y| {
            y.contains(e.id)
                && y.remove(e.id).is_subset(self.fired_set)
                && y.remove(e.id)
                    .iter()
                    .all(|x| node.fired_anc & (1 << self.fired_pos[x.index()]) != 0)
        })
    }

    /// Releases one reference of each obligation carried by a dying node.
    fn release_trig(&mut self, trig: &[u32]) {
        for &id in trig {
            let ob = &mut self.obligations[id as usize];
            ob.live -= 1;
            if ob.live == 0 && !ob.satisfied {
                self.fail(OnlineViolation::TriggerUnprocessed);
                return;
            }
        }
    }

    /// Leaf-time checks against the realized configuration sequence.
    /// `fin` marks finish-time processing (no future firings or configs).
    fn process_leaf(&mut self, node: &mut Node, kind: LeafKind, fin: bool) {
        let allow_prefix = kind != LeafKind::Terminated;
        let d = self.admitted_mask(node, allow_prefix);
        // Condition 1: some realized configuration admits the trace. Future
        // firings can still discharge it — unless the run is over.
        if d & self.realized_mask == 0 {
            if fin || d == 0 {
                self.fail(OnlineViolation::Inconsistent);
                return;
            }
            if self.pending1.len() == 64 {
                self.fail(OnlineViolation::CapacityExceeded);
                return;
            }
            node.own_watch = 1 << self.pending1.len();
            self.pending1.push(Pending1 { d, discharged: false });
            self.m_watch_hw = self.m_watch_hw.max(self.pending1.len() as u64);
        }
        // Condition 3: the trace is entirely after firing i exactly when
        // i precedes its root; only the latest such firing binds.
        if node.root_pred != 0 {
            let i_max = 63 - node.root_pred.leading_zeros() as usize;
            let suffix: u64 =
                self.realized_order[i_max + 1..].iter().map(|&c| 1u64 << c).fold(0, |a, b| a | b);
            if d & suffix == 0 {
                if fin {
                    self.fail(OnlineViolation::TooLate);
                    return;
                }
                if !self.pending3.contains(&d) {
                    if self.pending3.len() == 64 {
                        self.fail(OnlineViolation::CapacityExceeded);
                        return;
                    }
                    self.pending3.push(d);
                }
            }
        }
        // Trigger obligations riding this path.
        for &id in &node.trig {
            let ob = &mut self.obligations[id as usize];
            if d & (1 << ob.cfg) != 0 {
                ob.satisfied = true;
            }
        }
    }

    /// Seals the newest node once its controller edges have all arrived:
    /// evaluates event firing, publishes its masks, and drops it if done.
    fn seal_pending(&mut self) {
        let Some(idx) = self.unsealed.take() else { return };
        if self.dead() {
            return;
        }
        let Some(mut node) = self.nodes.remove(&idx) else { return };

        // Greedy SWITCH-rule firing: at most one event per record, the
        // first fireable one in event order among those at this location.
        let fire = self.events_at.get(&node.lp.loc).and_then(|at| {
            at.iter().map(|&i| &self.events[i]).find(|e| self.fireable(e, &node)).map(|e| e.id)
        });
        if let Some(id) = fire {
            if self.fired_events.len() == 64 {
                self.fail(OnlineViolation::CapacityExceeded);
                return;
            }
            // Condition 2: any watched leaf preceding this firing must have
            // been admitted by an already-realized configuration.
            let mut w = node.watch_anc;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                if !self.pending1[bit].discharged {
                    self.fail(OnlineViolation::TooEarly);
                    return;
                }
            }
            let pos = self.fired_events.len();
            let pre_cfg = *self.realized_order.last().expect("realized_order starts at g(∅)");
            self.fired_set = self.fired_set.insert(id);
            self.fired_events.push(id);
            self.fired_pos[id.index()] = pos as u8;
            let new_cfg = *self
                .domain_index
                .get(&self.fired_set)
                .expect("allowed firing sequences stay within reachable event-sets");
            let bit = 1u64 << new_cfg;
            self.realized_order.push(new_cfg);
            self.realized_mask |= bit;
            for p in &mut self.pending1 {
                if !p.discharged && p.d & bit != 0 {
                    p.discharged = true;
                }
            }
            self.pending3.retain(|d| d & bit == 0);
            let ob = Obligation { cfg: pre_cfg, satisfied: false, live: 1 };
            node.trig.push(self.obligations.len() as u32);
            self.obligations.push(ob);
            self.m_obligations_hw = self.m_obligations_hw.max(self.obligations.len() as u64);
            if let Some(fr) = &self.flight {
                fr.record(edn_obs::FlightEvent {
                    t_us: 0,
                    seq: pos as u64,
                    kind: "checker_fire",
                    node: new_cfg as u64,
                    depth: self.nodes.len() as u64,
                });
            }
            node.own_fired = 1 << pos;
        }

        if node.is_root {
            node.root_pred = node.fired_anc;
        }
        if let Some(kind) = node.leafed {
            self.process_leaf(&mut node, kind, false);
        }
        if self.dead() {
            return;
        }
        // Publish the sealed masks to happens-before successors.
        let fired = node.fired_anc | node.own_fired;
        let watch = node.watch_anc | node.own_watch;
        if let Some(entry) = self.last_at.get_mut(&node.lp.loc.sw) {
            if entry.idx == idx {
                entry.fired = fired;
                entry.watch = watch;
            }
        }
        if node.cause_requested {
            self.cause_masks.insert(idx, (fired, watch));
        }
        if node.leafed.is_some() || node.retired {
            self.m_retired += 1;
            self.release_trig(&node.trig);
        } else {
            self.nodes.insert(idx, node);
        }
    }
}

/// A streaming implementation of the Definition 6 check; create with
/// [`OnlineChecker::observer`], hand the observer to the engine, and read
/// the verdict from the [`OnlineHandle`] after the run.
///
/// # Examples
///
/// ```
/// use edn_core::{Config, Event, EventId, EventSet, EventStructure,
///                NetworkEventStructure, OnlineChecker, TraceObserver, LeafKind};
/// use netkat::{Loc, Packet, Pred};
/// let e0 = EventId::new(0);
/// let es = EventStructure::new(
///     vec![Event::new(e0, Pred::True, Loc::new(1, 1))],
///     [EventSet::singleton(e0)],
/// );
/// let mut c = Config::new();
/// c.add_host(100, Loc::new(1, 2));
/// let nes = NetworkEventStructure::new(
///     es,
///     [(EventSet::empty(), c.clone()), (EventSet::singleton(e0), c)],
/// ).unwrap();
/// let (mut obs, handle) = OnlineChecker::observer(&nes).unwrap();
/// obs.record(0, &Packet::new(), Loc::new(100, 0), None);
/// obs.leaf(0, LeafKind::Stalled);
/// obs.finish();
/// assert!(handle.verdict().is_ok());
/// ```
pub struct OnlineChecker {
    inner: Inner,
    /// Written once by `finish`; read by the [`OnlineHandle`].
    verdict: Arc<OnceLock<Result<(), OnlineViolation>>>,
}

/// The reader side of an [`OnlineChecker`]: call
/// [`verdict`](OnlineHandle::verdict) once the run has finished.
pub struct OnlineHandle {
    verdict: Arc<OnceLock<Result<(), OnlineViolation>>>,
}

impl OnlineChecker {
    /// Builds an online checker for `nes`, returning the observer to attach
    /// to the engine and the handle that yields the verdict.
    ///
    /// # Errors
    ///
    /// Returns [`OnlineViolation::CapacityExceeded`] if the NES has more
    /// than 64 reachable configurations.
    pub fn observer(
        nes: &NetworkEventStructure,
    ) -> Result<(Box<dyn TraceObserver + Send>, OnlineHandle), OnlineViolation> {
        let domain = nes.event_sets();
        if domain.len() > 64 {
            return Err(OnlineViolation::CapacityExceeded);
        }
        // Domain index `i` is configuration `i` of the NES's stored tables:
        // both are the sorted order of the reachable event-sets.
        let mut domain_index = HashMap::new();
        let mut initial_idx = 0;
        for (i, &x) in domain.iter().enumerate() {
            if x.is_empty() {
                initial_idx = i as u32;
            }
            domain_index.insert(x, i as u32);
        }
        let events = nes.events().to_vec();
        let mut events_at: HashMap<Loc, Vec<usize>, FxBuildHasher> = HashMap::default();
        for (i, e) in events.iter().enumerate() {
            events_at.entry(e.loc).or_default().push(i);
        }
        let inner = Inner {
            events,
            events_at,
            family: nes.structure().family().collect(),
            configs: ConfigFamily::new(nes.versions().clone()),
            domain_index,
            fired_set: EventSet::empty(),
            fired_events: Vec::new(),
            fired_pos: [0; EventId::MAX_EVENTS],
            realized_order: vec![initial_idx],
            realized_mask: 1u64 << initial_idx,
            nodes: BTreeMap::new(),
            unsealed: None,
            last_at: HashMap::default(),
            cause_masks: HashMap::default(),
            pending1: Vec::new(),
            pending3: Vec::new(),
            obligations: Vec::new(),
            verdict: None,
            m_nodes_hw: 0,
            m_retired: 0,
            m_obligations_hw: 0,
            m_watch_hw: 0,
            flight: None,
        };
        let verdict = Arc::new(OnceLock::new());
        let handle = OnlineHandle { verdict: verdict.clone() };
        Ok((Box::new(OnlineChecker { inner, verdict }), handle))
    }
}

impl OnlineHandle {
    /// The verdict of the finished run.
    ///
    /// # Errors
    ///
    /// Returns the first [`OnlineViolation`] the checker found.
    ///
    /// # Panics
    ///
    /// Panics if the observer's `finish` has not run yet.
    pub fn verdict(&self) -> Result<(), OnlineViolation> {
        *self.verdict.get().expect("verdict() requires a finished run")
    }
}

impl TraceObserver for OnlineChecker {
    fn record(&mut self, idx: usize, packet: &Packet, loc: Loc, parent: Option<usize>) {
        let inner = &mut self.inner;
        inner.seal_pending();
        if inner.dead() {
            return;
        }
        let lp = LocatedPacket::new(packet.erase_virtual(), loc);
        let mut node = match parent {
            Some(p) => {
                let pn = inner.nodes.get(&p).expect("parents outlive child records");
                let node = Node {
                    state: inner.configs.step(pn.state, &pn.lp, &lp),
                    lp,
                    fired_anc: pn.fired_anc | pn.own_fired,
                    watch_anc: pn.watch_anc | pn.own_watch,
                    root_pred: pn.root_pred,
                    is_root: false,
                    trig: pn.trig.clone(),
                    own_fired: 0,
                    own_watch: 0,
                    cause_requested: false,
                    leafed: None,
                    retired: false,
                };
                for &id in &node.trig {
                    inner.obligations[id as usize].live += 1;
                }
                node
            }
            None => Node {
                state: inner.configs.start(lp.loc),
                lp,
                fired_anc: 0,
                watch_anc: 0,
                root_pred: 0,
                is_root: true,
                trig: Vec::new(),
                own_fired: 0,
                own_watch: 0,
                cause_requested: false,
                leafed: None,
                retired: false,
            },
        };
        if let Some(entry) = inner.last_at.get(&node.lp.loc.sw) {
            node.fired_anc |= entry.fired;
            node.watch_anc |= entry.watch;
        }
        inner
            .last_at
            .insert(node.lp.loc.sw, LastAt { idx, fired: node.fired_anc, watch: node.watch_anc });
        inner.nodes.insert(idx, node);
        inner.m_nodes_hw = inner.m_nodes_hw.max(inner.nodes.len() as u64);
        inner.unsealed = Some(idx);
    }

    fn edge(&mut self, from: usize, to: usize) {
        let inner = &mut self.inner;
        if inner.dead() {
            return;
        }
        debug_assert_eq!(inner.unsealed, Some(to), "edges target the unsealed node");
        if let Some(&(fired, watch)) = inner.cause_masks.get(&from) {
            if let Some(node) = inner.nodes.get_mut(&to) {
                node.fired_anc |= fired;
                node.watch_anc |= watch;
            }
        }
    }

    fn cause(&mut self, idx: usize) {
        let inner = &mut self.inner;
        if inner.dead() {
            return;
        }
        debug_assert_eq!(inner.unsealed, Some(idx), "cause marks the unsealed node");
        if let Some(node) = inner.nodes.get_mut(&idx) {
            node.cause_requested = true;
        }
    }

    fn leaf(&mut self, idx: usize, kind: LeafKind) {
        let inner = &mut self.inner;
        if inner.dead() {
            return;
        }
        debug_assert_eq!(inner.unsealed, Some(idx), "leaves are the unsealed node");
        if let Some(node) = inner.nodes.get_mut(&idx) {
            node.leafed = Some(kind);
        }
    }

    fn retire(&mut self, idx: usize) {
        let inner = &mut self.inner;
        if inner.dead() {
            return;
        }
        if inner.unsealed == Some(idx) {
            if let Some(node) = inner.nodes.get_mut(&idx) {
                node.retired = true;
            }
            return;
        }
        if let Some(node) = inner.nodes.remove(&idx) {
            inner.m_retired += 1;
            inner.release_trig(&node.trig);
        }
    }

    fn finish(&mut self) {
        let inner = &mut self.inner;
        inner.seal_pending();
        // Nodes alive at the end are stalled tips: their paths are prefixes.
        while let Some((_, mut node)) = inner.nodes.pop_first() {
            if inner.dead() {
                break;
            }
            inner.process_leaf(&mut node, LeafKind::Stalled, true);
            if inner.dead() {
                break;
            }
            inner.release_trig(&node.trig);
        }
        if !inner.dead() {
            if inner.pending1.iter().any(|p| !p.discharged) {
                inner.fail(OnlineViolation::Inconsistent);
            } else if !inner.pending3.is_empty() {
                inner.fail(OnlineViolation::TooLate);
            }
        }
        let _ = self.verdict.set(*inner.verdict.get_or_insert(Ok(())));
    }

    fn contribute_metrics(&self, reg: &mut edn_obs::Registry) {
        use edn_obs::Scope;
        let inner = &self.inner;
        reg.gauge_max(Scope::Sim, "checker.live_nodes_hw", inner.m_nodes_hw);
        reg.counter_add(Scope::Sim, "checker.retired_prefixes", inner.m_retired);
        reg.gauge_max(Scope::Sim, "checker.obligations_hw", inner.m_obligations_hw);
        reg.gauge_max(Scope::Sim, "checker.watched_leaves_hw", inner.m_watch_hw);
        reg.counter_add(Scope::Sim, "checker.fired_events", inner.fired_events.len() as u64);
    }

    fn attach_flight_recorder(&mut self, recorder: edn_obs::FlightRecorder) {
        self.inner.flight = Some(recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::correctness::check_correct;
    use crate::estructure::EventStructure;
    use crate::trace::TraceBuilder;
    use netkat::{Action, ActionSet, Field, FlowTable, Loc, Match, Packet, Pred, Rule};

    /// The firewall fixture shared with the post-hoc checker tests: one
    /// switch (1), hosts 100 (pt 2) and 101 (pt 3); g(∅) forwards 2->3 only,
    /// g({e0}) both ways, e0 = a packet for 101 arriving at 1:2.
    fn firewall_like_nes() -> NetworkEventStructure {
        let base = |rules: Vec<Rule>| {
            let mut c = Config::new();
            c.install(1, FlowTable::from_rules(rules));
            c.add_host(100, Loc::new(1, 2));
            c.add_host(101, Loc::new(1, 3));
            c
        };
        let fwd = |a: u64, b: u64| {
            Rule::new(
                Match::new().with(Field::Port, a),
                ActionSet::single(Action::assign(Field::Port, b)),
            )
        };
        let e0 = EventId::new(0);
        let es = EventStructure::new(
            vec![Event::new(e0, Pred::test(Field::IpDst, 101), Loc::new(1, 2))],
            [EventSet::singleton(e0)],
        );
        NetworkEventStructure::new(
            es,
            [
                (EventSet::empty(), base(vec![fwd(2, 3)])),
                (EventSet::singleton(e0), base(vec![fwd(2, 3), fwd(3, 2)])),
            ],
        )
        .unwrap()
    }

    fn fwd_pk() -> Packet {
        Packet::new().with(Field::IpDst, 101)
    }

    fn reply_pk() -> Packet {
        Packet::new().with(Field::IpDst, 100)
    }

    /// Replays one packet's linear transit through the observer exactly the
    /// way the engine does: record each hop with its parent, retire the
    /// parent once the child is recorded, leaf at the final hop.
    fn transit(
        obs: &mut Box<dyn TraceObserver + Send>,
        next: &mut usize,
        pk: &Packet,
        hops: &[(u64, u64)],
        kind: LeafKind,
    ) {
        let mut parent = None;
        for &(sw, pt) in hops {
            let idx = *next;
            *next += 1;
            obs.record(idx, pk, Loc::new(sw, pt), parent);
            if let Some(p) = parent {
                obs.retire(p);
            }
            parent = Some(idx);
        }
        obs.leaf(parent.expect("transits are nonempty"), kind);
    }

    /// Runs the same hops through the post-hoc checker for the agreement
    /// assertion.
    fn post_hoc(nes: &NetworkEventStructure, packets: &[(Packet, &[(u64, u64)])]) -> bool {
        let mut b = TraceBuilder::new();
        for (pk, hops) in packets {
            let mut parent = None;
            for &(sw, pt) in *hops {
                parent = Some(b.push(pk.clone(), Loc::new(sw, pt), parent));
            }
        }
        check_correct(&b.build().unwrap(), nes, None).is_ok()
    }

    const DROP: &[(u64, u64)] = &[(101, 0), (1, 3)];
    const FWD: &[(u64, u64)] = &[(100, 0), (1, 2), (1, 3), (101, 0)];
    const REPLY: &[(u64, u64)] = &[(101, 0), (1, 3), (1, 2), (100, 0)];

    #[test]
    fn quiet_drop_is_consistent() {
        let nes = firewall_like_nes();
        let (mut obs, handle) = OnlineChecker::observer(&nes).unwrap();
        let mut next = 0;
        // A complete g(∅) trace: the reply-direction packet dies at 1:3.
        transit(&mut obs, &mut next, &reply_pk(), DROP, LeafKind::Terminated);
        obs.finish();
        assert_eq!(handle.verdict(), Ok(()));
        assert!(post_hoc(&nes, &[(reply_pk(), DROP)]));
    }

    #[test]
    fn delivered_reply_without_event_is_inconsistent() {
        let nes = firewall_like_nes();
        let (mut obs, handle) = OnlineChecker::observer(&nes).unwrap();
        let mut next = 0;
        transit(&mut obs, &mut next, &reply_pk(), REPLY, LeafKind::Delivered);
        obs.finish();
        assert_eq!(handle.verdict(), Err(OnlineViolation::Inconsistent));
        assert!(!post_hoc(&nes, &[(reply_pk(), REPLY)]));
    }

    #[test]
    fn triggered_update_is_correct() {
        let nes = firewall_like_nes();
        let (mut obs, handle) = OnlineChecker::observer(&nes).unwrap();
        let mut next = 0;
        transit(&mut obs, &mut next, &fwd_pk(), FWD, LeafKind::Delivered);
        transit(&mut obs, &mut next, &reply_pk(), REPLY, LeafKind::Delivered);
        obs.finish();
        assert_eq!(handle.verdict(), Ok(()));
        assert!(post_hoc(&nes, &[(fwd_pk(), FWD), (reply_pk(), REPLY)]));
    }

    #[test]
    fn premature_reply_is_too_early() {
        let nes = firewall_like_nes();
        let (mut obs, handle) = OnlineChecker::observer(&nes).unwrap();
        let mut next = 0;
        // Reply delivered BEFORE the trigger: flagged at the trigger's
        // firing, while the run is still in flight.
        transit(&mut obs, &mut next, &reply_pk(), REPLY, LeafKind::Delivered);
        transit(&mut obs, &mut next, &fwd_pk(), FWD, LeafKind::Delivered);
        obs.finish();
        assert_eq!(handle.verdict(), Err(OnlineViolation::TooEarly));
        assert!(!post_hoc(&nes, &[(reply_pk(), REPLY), (fwd_pk(), FWD)]));
    }

    #[test]
    fn stalled_prefix_is_consistent() {
        let nes = firewall_like_nes();
        let (mut obs, handle) = OnlineChecker::observer(&nes).unwrap();
        // The trigger packet makes it to the ingress and no further: the
        // event still fires, and the stalled prefix is admitted.
        obs.record(0, &fwd_pk(), Loc::new(100, 0), None);
        obs.record(1, &fwd_pk(), Loc::new(1, 2), Some(0));
        obs.retire(0);
        obs.finish();
        assert_eq!(handle.verdict(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "finished run")]
    fn verdict_before_finish_panics() {
        let nes = firewall_like_nes();
        let (_obs, handle) = OnlineChecker::observer(&nes).unwrap();
        let _ = handle.verdict();
    }
}
