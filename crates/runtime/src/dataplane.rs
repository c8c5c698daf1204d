//! The NES data plane: the operational semantics of Fig. 7 as a
//! [`netsim::DataPlane`].
//!
//! * **IN** — packets entering from a host are stamped with the tag of the
//!   ingress switch's current (effective) event-set.
//! * **SWITCH** — the switch unions the packet's digest into its local
//!   event-set, fires any enabled events the arrival matches, notifies the
//!   controller, forwards the packet under *its stamped tag's*
//!   configuration, and adds its own knowledge to the outgoing digest.
//! * **CTRLRECV/CTRLSEND** — the controller accumulates fired events and
//!   (optionally, as the paper's optimization) broadcasts its view to all
//!   switches.

use std::collections::{BTreeMap, HashMap};

use edn_core::{EventId, EventSet};
use netkat::{
    Field, FxBuildHasher, Loc, LocatedView, LookupStats, Packet, PacketArena, PacketId, Rule,
};
use netsim::{table_outputs, CtrlMsg, DataPlane, SimTime, StepResult, StepResultId};

use crate::compile::CompiledNes;
use crate::deploy::DeployKnobs;

/// The deployed NES runtime (switch state + controller).
///
/// The installed tables are the NES's own versioned tables (Section 4.1
/// with each rule stored once, guarded by the set of tags that own it):
/// deploying copies no rule, and a packet with tag `t` forwards by the
/// first matching entry `t` owns.
#[derive(Clone, Debug)]
pub struct NesDataPlane {
    compiled: CompiledNes,
    /// Per-switch known events (`E` in Fig. 7), dense: `local[slot]` with
    /// slots assigned by `switch_slot`. The switch step reads and writes
    /// this two or three times per packet, so it must not walk a tree.
    local: Vec<EventSet>,
    /// `switch id → slot in local`, grown on demand for switches outside
    /// the deployment list (mirroring the old map's `entry` semantics).
    switch_slot: HashMap<u64, u32, FxBuildHasher>,
    /// Controller's accumulated events (`R` in Fig. 7).
    controller: EventSet,
    /// Whether the controller broadcasts its view to all switches
    /// (the CTRLSEND optimization of Section 4.1).
    broadcast: bool,
    /// Switch ids (for broadcasting).
    switches: Vec<u64>,
    /// First time each switch learned each event (for the Fig. 16(b)
    /// convergence experiment).
    discovery: BTreeMap<(u64, EventId), SimTime>,
    /// Global fire log, in order (a hint for the correctness checker).
    fired_log: Vec<(SimTime, EventId)>,
    /// Memoized `known → (effective set, tag)`: the enabling fixpoint is a
    /// pure function of the known-events set, and switch knowledge only
    /// grows at (rare) event learns, so the per-packet hot path reduces to
    /// one map probe.
    effective_cache: BTreeMap<EventSet, (EventSet, u64)>,
    /// Reused arena-path buffers: the lookup packet and the (single-cast)
    /// output packet are built here instead of being allocated per hop —
    /// only the finished output is interned, and in steady state (content
    /// already seen) that interning is a fingerprint probe, so a hop
    /// allocates nothing.
    lookup_buf: Packet,
    out_buf: Packet,
    /// This plane's fingerprint probe outcomes (the tables are shared, so
    /// the tally lives with the reader).
    lookups: LookupStats,
}

impl NesDataPlane {
    /// Deploys a compiled NES on the given switches.
    pub fn new(compiled: CompiledNes, switches: Vec<u64>, broadcast: bool) -> NesDataPlane {
        NesDataPlane::with_knobs(compiled, switches, broadcast, DeployKnobs::default())
    }

    /// [`new`](NesDataPlane::new) with explicit deployment knobs. Every
    /// knob has a single setting, so this deploys exactly as `new` does.
    pub fn with_knobs(
        compiled: CompiledNes,
        switches: Vec<u64>,
        broadcast: bool,
        _knobs: DeployKnobs,
    ) -> NesDataPlane {
        let switch_slot =
            switches.iter().enumerate().map(|(i, &s)| (s, i as u32)).collect::<HashMap<_, _, _>>();
        let local = vec![EventSet::empty(); switches.len()];
        NesDataPlane {
            compiled,
            local,
            switch_slot,
            controller: EventSet::empty(),
            broadcast,
            switches,
            discovery: BTreeMap::new(),
            fired_log: Vec::new(),
            effective_cache: BTreeMap::new(),
            lookup_buf: Packet::new(),
            out_buf: Packet::new(),
            lookups: LookupStats::default(),
        }
    }

    /// The rule `tag`'s configuration forwards `pk` by at switch `sw`: the
    /// first matching entry of the switch's versioned table that the tag
    /// owns, tallying the probes.
    fn forwarding_rule<'a, R: netkat::FieldReader>(
        compiled: &'a CompiledNes,
        lookups: &mut LookupStats,
        sw: u64,
        tag: u64,
        pk: &R,
    ) -> Option<&'a Rule> {
        let table = compiled.nes().table(sw)?;
        let config = usize::try_from(tag).ok()?;
        table.lookup_index_tallied(config, pk, lookups).map(|i| table.rule(i))
    }

    /// The effective event-set and tag for a known-events set, memoized.
    fn effective_of(&mut self, known: EventSet) -> (EventSet, u64) {
        if let Some(&hit) = self.effective_cache.get(&known) {
            return hit;
        }
        let effective = self.compiled.effective_set(known);
        let tag = self.compiled.tag_for_known(known);
        self.effective_cache.insert(known, (effective, tag));
        (effective, tag)
    }

    /// The compiled NES.
    pub fn compiled(&self) -> &CompiledNes {
        &self.compiled
    }

    /// A switch's current known event-set.
    pub fn local_events(&self, sw: u64) -> EventSet {
        self.switch_slot.get(&sw).map(|&i| self.local[i as usize]).unwrap_or_else(EventSet::empty)
    }

    /// When `sw` first learned `event`, if it has.
    pub fn discovery_time(&self, sw: u64, event: EventId) -> Option<SimTime> {
        self.discovery.get(&(sw, event)).copied()
    }

    /// The events fired so far, in order — usable as the checker's sequence
    /// hint.
    pub fn fired_sequence(&self) -> Vec<EventId> {
        self.fired_log.iter().map(|&(_, e)| e).collect()
    }

    /// The fire log with timestamps.
    pub fn fired_log(&self) -> &[(SimTime, EventId)] {
        &self.fired_log
    }

    /// The dense-state slot for `sw`, assigned on first contact.
    fn slot_of(&mut self, sw: u64) -> usize {
        match self.switch_slot.get(&sw) {
            Some(&i) => i as usize,
            None => {
                let i = self.local.len() as u32;
                self.switch_slot.insert(sw, i);
                self.local.push(EventSet::empty());
                i as usize
            }
        }
    }

    fn learn(&mut self, sw: u64, events: EventSet, now: SimTime) {
        let slot = self.slot_of(sw);
        self.learn_at(slot, sw, events, now);
    }

    /// [`learn`](NesDataPlane::learn) with the slot already resolved — the
    /// per-packet path, which learns something new only at (rare) event
    /// firings and digest fronts.
    fn learn_at(&mut self, slot: usize, sw: u64, events: EventSet, now: SimTime) {
        let known = &mut self.local[slot];
        let fresh = events.difference(*known);
        if fresh.is_empty() {
            return;
        }
        *known = known.union(events);
        for e in fresh.iter() {
            self.discovery.entry((sw, e)).or_insert(now);
        }
    }
}

impl DataPlane for NesDataPlane {
    fn process(
        &mut self,
        sw: u64,
        pt: u64,
        mut packet: Packet,
        from_host: bool,
        now: SimTime,
    ) -> StepResult {
        // SWITCH step 1: union the packet's digest into local state.
        let digest = EventSet::from_bits(packet.get(Field::Digest).unwrap_or(0));
        self.learn(sw, digest, now);
        let known = self.local_events(sw);

        // IN: stamp host-entering packets with the current tag.
        let effective = self.effective_of(known);
        if from_host {
            packet.set(Field::Tag, effective.1);
        }

        // SWITCH step 2: fire enabled events this arrival matches.
        let effective = effective.0;
        let fired = self.compiled.triggered(effective, &packet, Loc::new(sw, pt));
        let mut notifications = Vec::new();
        if !fired.is_empty() {
            self.learn(sw, fired, now);
            for e in fired.iter() {
                self.fired_log.push((now, e));
            }
            notifications.push(CtrlMsg::Events(fired.bits()));
        }
        let known = self.local_events(sw);

        // SWITCH step 3: forward under the packet's stamped configuration,
        // through the switch's versioned table: the first matching entry
        // the packet's tag owns is its configuration table's first match
        // (`program::tests` pin that equivalence).
        let tag = match packet.get(Field::Tag) {
            Some(tag) => tag,
            None => self.effective_of(known).1,
        };
        // The packet is not needed after the table application: locate and
        // tag it in place instead of cloning a lookup copy.
        let mut lookup = packet;
        lookup.set_loc(Loc::new(sw, pt));
        lookup.set(Field::Tag, tag);
        let mut out = Vec::new();
        if let Some(rule) =
            Self::forwarding_rule(&self.compiled, &mut self.lookups, sw, tag, &lookup)
        {
            rule.actions.apply_into(&lookup, &mut out);
        }
        let mut outputs = table_outputs(pt, out);
        for (_, out) in &mut outputs {
            // SWITCH step 4: the outgoing digest carries everything this
            // switch now knows.
            out.set(Field::Digest, digest.union(known).bits());
            out.set(Field::Tag, tag);
        }
        StepResult { outputs, notifications }
    }

    /// The native arena path: identical, observable step for observable
    /// step, to [`process`](DataPlane::process) — IN stamp, trigger,
    /// per-tag forwarding, digest stamp — but with the table consulted
    /// through a zero-copy [`LocatedView`] and an identity fast path for
    /// hops that leave the packet's content unchanged (the steady state:
    /// clone-free and allocation-free). The plumbing-equivalence
    /// differential tests replay full runs through both paths and diff
    /// Stats and traces byte for byte.
    fn process_arena(
        &mut self,
        sw: u64,
        pt: u64,
        packet: PacketId,
        from_host: bool,
        now: SimTime,
        arena: &mut PacketArena,
    ) -> StepResultId {
        let mut out = StepResultId::default();
        self.process_arena_into(sw, pt, packet, from_host, now, arena, &mut out);
        out
    }

    /// [`process_arena`](DataPlane::process_arena) writing into the
    /// engine's reused step buffer — the per-hop entry point, which keeps
    /// the steady state free of output-vector allocations.
    #[allow(clippy::too_many_arguments)]
    fn process_arena_into(
        &mut self,
        sw: u64,
        pt: u64,
        packet: PacketId,
        from_host: bool,
        now: SimTime,
        arena: &mut PacketArena,
        out: &mut StepResultId,
    ) {
        out.clear();
        // SWITCH step 1: union the packet's digest into local state.
        let slot = self.slot_of(sw);
        let digest = EventSet::from_bits(arena.get(packet).get(Field::Digest).unwrap_or(0));
        self.learn_at(slot, sw, digest, now);
        let known = self.local[slot];

        // IN: stamp host-entering packets with the current tag.
        let effective = self.effective_of(known);
        let stamped = if from_host { arena.with(packet, Field::Tag, effective.1) } else { packet };

        // SWITCH step 2: fire enabled events this arrival matches.
        let effective = effective.0;
        let fired = self.compiled.triggered(effective, arena.get(stamped), Loc::new(sw, pt));
        if !fired.is_empty() {
            self.learn_at(slot, sw, fired, now);
            for e in fired.iter() {
                self.fired_log.push((now, e));
            }
            out.notifications.push(CtrlMsg::Events(fired.bits()));
        }
        let known = self.local[slot];

        // SWITCH steps 3+4: forward under the stamped tag and stamp the
        // outgoing digest. The table is consulted through a zero-copy
        // [`LocatedView`] (packet + location + tag overlay), and when every
        // effect of the hop is idempotent on the packet's content — the
        // steady state: location fields are stripped from outputs anyway,
        // the digest already carries everything this switch knows, the tag
        // is unchanged — the output *is* the input id. Only
        // content-changing hops materialize packets (in reused buffers,
        // interned by reference).
        let tag = match arena.get(stamped).get(Field::Tag) {
            Some(tag) => tag,
            None => self.effective_of(known).1,
        };
        let loc = Loc::new(sw, pt);
        let out_digest = digest.union(known).bits();
        {
            let base = arena.get(stamped);
            let view = LocatedView { base, loc, tag: Some(tag) };
            let rule = Self::forwarding_rule(&self.compiled, &mut self.lookups, sw, tag, &view);
            if let Some(rule) = rule {
                if rule.actions.len() == 1 {
                    let action = rule.actions.iter().next().expect("len 1");
                    let mut out_pt = pt;
                    let mut identity =
                        base.get(Field::Switch).is_none() && base.get(Field::Port).is_none();
                    for (f, v) in action.writes() {
                        match f {
                            // Location writes are stripped from outputs;
                            // a port write only picks the egress port.
                            Field::Switch => {}
                            Field::Port => out_pt = v,
                            f if base.get(f) != Some(v) => identity = false,
                            _ => {}
                        }
                    }
                    if identity
                        && base.get(Field::Digest) == Some(out_digest)
                        && base.get(Field::Tag) == Some(tag)
                    {
                        out.outputs.push((out_pt, stamped));
                    } else {
                        let mut buf = std::mem::take(&mut self.out_buf);
                        buf.clone_from(base);
                        buf.take_loc();
                        for (f, v) in action.writes() {
                            if !f.is_location() {
                                buf.set(f, v);
                            }
                        }
                        buf.set(Field::Digest, out_digest);
                        buf.set(Field::Tag, tag);
                        out.outputs.push((out_pt, arena.intern_ref(&buf)));
                        self.out_buf = buf;
                    }
                } else if !rule.actions.is_empty() {
                    // Multicast (rare): materialize the lookup packet and
                    // the same sorted, deduplicated output set
                    // `ActionSet::apply` defines.
                    let mut lookup = std::mem::take(&mut self.lookup_buf);
                    lookup.clone_from(base);
                    lookup.set_loc(loc);
                    lookup.set(Field::Tag, tag);
                    for mut cast in rule.actions.apply(&lookup) {
                        let (_, out_pt) = cast.take_loc();
                        cast.set(Field::Digest, out_digest);
                        cast.set(Field::Tag, tag);
                        out.outputs.push((out_pt.unwrap_or(pt), arena.intern(cast)));
                    }
                    self.lookup_buf = lookup;
                }
            }
        }
    }

    fn on_notify(&mut self, msg: CtrlMsg, _now: SimTime) -> Vec<(SimTime, u64, CtrlMsg)> {
        let CtrlMsg::Events(bits) = msg else { return Vec::new() };
        // CTRLRECV: move events into the controller.
        self.controller = self.controller.union(EventSet::from_bits(bits));
        if !self.broadcast {
            return Vec::new();
        }
        // CTRLSEND: push the controller's whole view to every switch.
        let view = self.controller.bits();
        self.switches
            .iter()
            .enumerate()
            .map(|(i, &sw)| (SimTime::from_micros(10 * i as u64), sw, CtrlMsg::Events(view)))
            .collect()
    }

    fn deliver(&mut self, sw: u64, msg: CtrlMsg, now: SimTime) {
        if let CtrlMsg::Events(bits) = msg {
            self.learn(sw, EventSet::from_bits(bits), now);
        }
    }

    /// Folds a shard's state back in after a sharded run: per-switch
    /// event-sets and discovery times merge losslessly (each switch was
    /// driven by exactly one shard); the controller state lives on shard
    /// 0 already (other shards' copies are stale clones, unioned
    /// defensively); the global fire log merges stably by timestamp —
    /// deterministic, though not guaranteed to reproduce the solo
    /// interleaving for distinct same-microsecond fires (the log is a
    /// checker *hint*, not part of the byte-identity contract).
    fn absorb_shard(&mut self, other: Self, owned: &[u64]) {
        for &sw in owned {
            let events = other.local_events(sw);
            if !events.is_empty() {
                let slot = self.slot_of(sw);
                self.local[slot] = events;
            }
        }
        for (key, t) in other.discovery {
            self.discovery
                .entry(key)
                .and_modify(|existing| *existing = (*existing).min(t))
                .or_insert(t);
        }
        self.controller = self.controller.union(other.controller);
        let mine = std::mem::take(&mut self.fired_log);
        let mut merged = Vec::with_capacity(mine.len() + other.fired_log.len());
        let (mut a, mut b) = (mine.into_iter().peekable(), other.fired_log.into_iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&(ta, _)), Some(&(tb, _))) if tb < ta => merged.push(b.next().expect("b")),
                (Some(_), _) => merged.push(a.next().expect("a")),
                (None, Some(_)) => merged.push(b.next().expect("b")),
                (None, None) => break,
            }
        }
        self.fired_log = merged;
    }

    /// Reports the compiled lookup index's fingerprint probe outcomes,
    /// summed over every lookup this plane instance made.
    fn contribute_metrics(&self, reg: &mut edn_obs::Registry) {
        reg.counter_add(edn_obs::Scope::Shard, "flowindex.fp_hits", self.lookups.fp_hits);
        reg.counter_add(edn_obs::Scope::Shard, "flowindex.fp_fallbacks", self.lookups.fp_fallbacks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edn_core::{Config, Event, EventStructure, NetworkEventStructure};
    use netkat::{Action, ActionSet, FlowTable, Match, Pred, Rule};

    /// One switch (1): hosts at ports 2 (src) and 3 (dst).
    /// C∅ forwards 2→3; C{e0} also 3→2. Event e0: arrival of dst=300 at 1:2.
    fn firewall_nes() -> NetworkEventStructure {
        let mk = |rules: Vec<Rule>| {
            let mut c = Config::new();
            c.install(1, FlowTable::from_rules(rules));
            c.add_host(200, Loc::new(1, 2));
            c.add_host(300, Loc::new(1, 3));
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
            vec![Event::new(e0, Pred::test(Field::IpDst, 300), Loc::new(1, 2))],
            [EventSet::singleton(e0)],
        );
        NetworkEventStructure::new(
            es,
            [
                (EventSet::empty(), mk(vec![fwd(2, 3)])),
                (EventSet::singleton(e0), mk(vec![fwd(2, 3), fwd(3, 2)])),
            ],
        )
        .unwrap()
    }

    fn plane() -> NesDataPlane {
        NesDataPlane::new(CompiledNes::compile(firewall_nes()), vec![1], false)
    }

    #[test]
    fn ingress_stamps_tag_zero_initially() {
        let mut dp = plane();
        let pk = Packet::new().with(Field::IpDst, 999);
        let r = dp.process(1, 2, pk, true, SimTime::ZERO);
        assert_eq!(r.outputs.len(), 1);
        let (pt, out) = &r.outputs[0];
        assert_eq!(*pt, 3);
        assert_eq!(out.get(Field::Tag), Some(0));
        assert!(r.notifications.is_empty());
    }

    #[test]
    fn trigger_fires_event_but_packet_keeps_old_config() {
        let mut dp = plane();
        let pk = Packet::new().with(Field::IpDst, 300);
        let r = dp.process(1, 2, pk, true, SimTime::ZERO);
        // Event fired and was reported.
        assert_eq!(r.notifications, vec![CtrlMsg::Events(1)]);
        assert_eq!(dp.local_events(1), EventSet::singleton(EventId::new(0)));
        assert_eq!(dp.fired_sequence(), vec![EventId::new(0)]);
        // The triggering packet is still stamped with the *pre-event* tag
        // (IN stamps before the SWITCH trigger step).
        assert_eq!(r.outputs[0].1.get(Field::Tag), Some(0));
        // Its digest carries the fired event.
        assert_eq!(r.outputs[0].1.get(Field::Digest), Some(1));
    }

    #[test]
    fn packets_after_event_use_new_config() {
        let mut dp = plane();
        dp.process(1, 2, Packet::new().with(Field::IpDst, 300), true, SimTime::ZERO);
        // Reply direction now allowed.
        let r = dp.process(1, 3, Packet::new().with(Field::IpDst, 200), true, SimTime::ZERO);
        assert_eq!(r.outputs.len(), 1);
        assert_eq!(r.outputs[0].0, 2);
        assert_eq!(r.outputs[0].1.get(Field::Tag), Some(1));
        // Before the event, that same packet would have been dropped.
        let mut fresh = plane();
        let r = fresh.process(1, 3, Packet::new().with(Field::IpDst, 200), true, SimTime::ZERO);
        assert!(r.outputs.is_empty());
    }

    #[test]
    fn digest_teaches_other_switches() {
        let mut dp = NesDataPlane::new(CompiledNes::compile(firewall_nes()), vec![1, 2], false);
        // A packet carrying digest {e0} arrives at switch 2 (not from host).
        let pk = Packet::new().with(Field::Digest, 1).with(Field::Tag, 1);
        dp.process(2, 1, pk, false, SimTime::from_millis(3));
        assert_eq!(dp.local_events(2), EventSet::singleton(EventId::new(0)));
        assert_eq!(dp.discovery_time(2, EventId::new(0)), Some(SimTime::from_millis(3)));
    }

    #[test]
    fn controller_broadcast_spreads_events() {
        let mut dp = NesDataPlane::new(CompiledNes::compile(firewall_nes()), vec![1, 2], true);
        let pushes = dp.on_notify(CtrlMsg::Events(1), SimTime::ZERO);
        assert_eq!(pushes.len(), 2);
        for (_, sw, msg) in pushes {
            assert_eq!(msg, CtrlMsg::Events(1));
            dp.deliver(sw, msg, SimTime::from_millis(5));
        }
        assert_eq!(dp.local_events(2), EventSet::singleton(EventId::new(0)));
        // Without broadcast, no pushes.
        let mut quiet = NesDataPlane::new(CompiledNes::compile(firewall_nes()), vec![1, 2], false);
        assert!(quiet.on_notify(CtrlMsg::Events(1), SimTime::ZERO).is_empty());
    }

    #[test]
    fn event_fires_only_once() {
        let mut dp = plane();
        dp.process(1, 2, Packet::new().with(Field::IpDst, 300), true, SimTime::ZERO);
        let r = dp.process(1, 2, Packet::new().with(Field::IpDst, 300), true, SimTime::ZERO);
        assert!(r.notifications.is_empty(), "already-fired events do not re-fire");
        assert_eq!(dp.fired_sequence().len(), 1);
    }
}
