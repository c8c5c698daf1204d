//! The uncoordinated-update baseline (Section 5.1's comparison strategy).
//!
//! Events are punted to the controller, which — after a configurable delay,
//! modelling slow rule installation — pushes the new configuration to the
//! switches one by one in a (seeded) random order. Until a switch receives
//! the push it keeps forwarding under its stale configuration: no tags, no
//! digests, no consistency.

use std::collections::BTreeMap;

use edn_core::EventSet;
use netkat::{Loc, Packet};
use netsim::{table_outputs, CtrlMsg, DataPlane, SimTime, StepResult};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::compile::CompiledNes;

/// The uncoordinated baseline data plane.
#[derive(Clone, Debug)]
pub struct UncoordDataPlane {
    compiled: CompiledNes,
    /// Per-switch currently-installed tag.
    current: BTreeMap<u64, u64>,
    /// The controller's event view.
    controller: EventSet,
    /// Extra delay before pushing updated configurations.
    update_delay: SimTime,
    /// Per-switch installation jitter bound (uniform in `0..jitter`).
    jitter: SimTime,
    switches: Vec<u64>,
    rng: StdRng,
}

impl UncoordDataPlane {
    /// Deploys the baseline with the given controller `update_delay` and a
    /// deterministic `seed` for push-order randomness.
    pub fn new(
        compiled: CompiledNes,
        switches: Vec<u64>,
        update_delay: SimTime,
        seed: u64,
    ) -> UncoordDataPlane {
        let current = switches.iter().map(|&s| (s, 0)).collect();
        UncoordDataPlane {
            compiled,
            current,
            controller: EventSet::empty(),
            update_delay,
            jitter: SimTime::from_millis(20),
            switches,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The tag a switch currently runs.
    pub fn current_tag(&self, sw: u64) -> u64 {
        self.current.get(&sw).copied().unwrap_or(0)
    }
}

impl DataPlane for UncoordDataPlane {
    fn process(
        &mut self,
        sw: u64,
        pt: u64,
        packet: Packet,
        _from_host: bool,
        _now: SimTime,
    ) -> StepResult {
        // Event detection: matching arrivals are punted to the controller
        // (it decides whether they constitute state transitions).
        let loc = Loc::new(sw, pt);
        let mut notifications = Vec::new();
        let mut matched = EventSet::empty();
        for event in self.compiled.nes().events() {
            if event.matches(&packet, loc) {
                matched = matched.insert(event.id);
            }
        }
        if !matched.is_empty() {
            notifications.push(CtrlMsg::Events(matched.bits()));
        }
        // Forwarding under the stale per-switch configuration: the first
        // matching entry of the switch's versioned table that the
        // installed tag owns.
        let tag = self.current_tag(sw) as usize;
        let mut lookup = packet;
        lookup.set_loc(loc);
        let mut out = Vec::new();
        if let Some(rule) = self.compiled.nes().table(sw).and_then(|t| t.lookup_on(tag, &lookup)) {
            rule.actions.apply_into(&lookup, &mut out);
        }
        StepResult { outputs: table_outputs(pt, out), notifications }
    }

    fn on_notify(&mut self, msg: CtrlMsg, _now: SimTime) -> Vec<(SimTime, u64, CtrlMsg)> {
        let CtrlMsg::Events(bits) = msg else { return Vec::new() };
        // The controller applies the enabling discipline centrally: one
        // notification = one packet arrival = one firing step (a renamed
        // chain advances a single state per packet).
        let before = self.controller;
        let fired = self.compiled.fire_step(self.controller, EventSet::from_bits(bits));
        self.controller = self.controller.union(fired);
        let after = self.controller;
        if before == after {
            return Vec::new();
        }
        let tag = self.compiled.tag_of(after).expect("effective sets are reachable");
        // Push the new configuration to every switch after the update
        // delay, in random order with random jitter.
        let mut order = self.switches.clone();
        order.shuffle(&mut self.rng);
        order
            .into_iter()
            .map(|sw| {
                let jitter = SimTime::from_micros(self.rng.gen_range(0..=self.jitter.as_micros()));
                (self.update_delay + jitter, sw, CtrlMsg::SetConfig(tag))
            })
            .collect()
    }

    fn deliver(&mut self, sw: u64, msg: CtrlMsg, _now: SimTime) {
        if let CtrlMsg::SetConfig(tag) = msg {
            self.current.insert(sw, tag);
        }
    }

    fn absorb_shard(&mut self, other: Self, owned: &[u64]) {
        // Per-switch installed tags live on the owning shard; the
        // controller view and its push-order RNG advance only on shard 0
        // (`on_notify` runs there), so `self`'s copies are authoritative.
        for &sw in owned {
            if let Some(&tag) = other.current.get(&sw) {
                self.current.insert(sw, tag);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edn_core::{Config, Event, EventId, EventStructure, NetworkEventStructure};
    use netkat::{Action, ActionSet, Field, FlowTable, Match, Pred, Rule};

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

    #[test]
    fn stale_config_until_push_arrives() {
        let compiled = CompiledNes::compile(firewall_nes());
        let mut dp = UncoordDataPlane::new(compiled, vec![1], SimTime::from_millis(500), 42);
        // Trigger packet: forwarded AND notified.
        let r = dp.process(1, 2, Packet::new().with(Field::IpDst, 300), true, SimTime::ZERO);
        assert_eq!(r.outputs.len(), 1);
        assert_eq!(r.notifications.len(), 1);
        // Reply direction still dropped — the switch has not been updated.
        let r = dp.process(1, 3, Packet::new().with(Field::IpDst, 200), true, SimTime::ZERO);
        assert!(r.outputs.is_empty());
        // Controller schedules a delayed push.
        let pushes = dp.on_notify(CtrlMsg::Events(1), SimTime::ZERO);
        assert_eq!(pushes.len(), 1);
        let (delay, sw, msg) = pushes[0];
        assert!(delay >= SimTime::from_millis(500));
        dp.deliver(sw, msg, SimTime::from_millis(600));
        assert_eq!(dp.current_tag(1), 1);
        // Now replies flow.
        let r = dp.process(1, 3, Packet::new().with(Field::IpDst, 200), true, SimTime::ZERO);
        assert_eq!(r.outputs.len(), 1);
    }

    #[test]
    fn duplicate_notifications_push_once() {
        let compiled = CompiledNes::compile(firewall_nes());
        let mut dp = UncoordDataPlane::new(compiled, vec![1], SimTime::ZERO, 7);
        assert_eq!(dp.on_notify(CtrlMsg::Events(1), SimTime::ZERO).len(), 1);
        assert!(dp.on_notify(CtrlMsg::Events(1), SimTime::ZERO).is_empty());
    }

    #[test]
    fn push_order_is_seeded() {
        let nes = firewall_nes();
        let run = |seed| {
            let mut dp = UncoordDataPlane::new(
                CompiledNes::compile(nes.clone()),
                vec![1, 2, 3, 4, 5, 6],
                SimTime::ZERO,
                seed,
            );
            dp.on_notify(CtrlMsg::Events(1), SimTime::ZERO)
                .into_iter()
                .map(|(_, sw, _)| sw)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1), "same seed, same order");
        assert_ne!(run(1), run(2), "different seeds diverge (with high probability)");
    }
}
