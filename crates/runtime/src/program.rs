//! Concrete per-switch programs: the five building blocks of Section 4.1
//! rendered as installable rules.
//!
//! The paper's implementation recipe is: (1) encode event-sets as flat
//! tags, (2) compile every configuration, (3) guard each rule with its
//! configuration's tag, (4) stamp incoming packets with the current tag,
//! (5) learn events from digests. [`SwitchProgram`] materializes steps
//! (2)–(4) as one prioritized table per switch (the stamping and learning
//! steps additionally touch the switch register, which the table format
//! notes but cannot express — that part is the `NesDataPlane` logic).

use std::fmt;

use netkat::{CompiledTable, Field, Loc, Match, Packet, Rule};

use crate::compile::CompiledNes;

/// The rules installed on one switch, with their tag guards.
#[derive(Clone, Debug)]
pub struct SwitchProgram {
    /// The switch.
    pub switch: u64,
    /// The tag-guarded forwarding table (all configurations interleaved,
    /// grouped by tag, first match wins within the packet's tag), compiled
    /// once at construction — the tag guard makes every per-tag block a
    /// hashable same-signature run. This is the only stored copy of the
    /// rules; the index's differential tests pin it to
    /// [`FlowTable::apply`](netkat::FlowTable::apply).
    pub compiled: CompiledTable,
    /// Stamping entries: `(tag, ingress ports)` — on ingress from a host,
    /// a packet is stamped with the switch's current tag.
    pub stamp_tags: Vec<u64>,
    /// Detection entries: `(event-set tag, event id, match)` pairs telling
    /// the switch which arrivals fire which events in which local states.
    pub detections: Vec<(u64, usize, Match)>,
}

impl SwitchProgram {
    /// Looks up the forwarding behaviour for a tagged packet through the
    /// compiled index, which must agree with the packet's configuration
    /// table.
    pub fn apply(&self, packet: &Packet) -> std::collections::BTreeSet<Packet> {
        self.compiled.apply(packet)
    }
}

impl fmt::Display for SwitchProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "switch {} program:", self.switch)?;
        writeln!(f, "  stamping: one rule per tag {:?}", self.stamp_tags)?;
        for (tag, event, m) in &self.detections {
            writeln!(f, "  detect: in state {tag}, arrival matching {m} fires e{event}")?;
        }
        for (i, r) in self.compiled.iter().enumerate() {
            writeln!(f, "[{i:3}] {r}")?;
        }
        Ok(())
    }
}

impl CompiledNes {
    /// Materializes the guarded per-switch program (Section 4.1 steps 2–4).
    pub fn switch_program(&self, switch: u64) -> SwitchProgram {
        let mut rules = Vec::new();
        let mut stamp_tags = Vec::new();
        let mut detections = Vec::new();
        for tag in 0..self.tag_count() as u64 {
            let set = self.set_of(tag);
            let config = self.nes().config(set);
            if let Some(table) = config.table(switch) {
                for rule in table.iter() {
                    debug_assert!(
                        rule.pattern.get(Field::Tag).is_none(),
                        "configuration rules never match the tag field"
                    );
                    // Collected, not cloned then extended: growing the
                    // exact-size clone would reallocate every pattern.
                    let pattern: Match = rule.pattern.iter().chain([(Field::Tag, tag)]).collect();
                    rules.push(Rule::new(pattern, rule.actions.clone()));
                }
            }
            stamp_tags.push(tag);
            for event in self.nes().events() {
                if event.loc.sw == switch
                    && !set.contains(event.id)
                    && self.nes().structure().enabled(set, event.id)
                    && self.nes().structure().consistent(set.insert(event.id))
                {
                    // The detection match: the event guard's tests plus the
                    // arrival port.
                    let mut m = Match::new();
                    for (field, value) in event.pred.tests() {
                        let _ = m.add(field, value);
                    }
                    let _ = m.add(Field::Port, event.loc.pt);
                    detections.push((tag, event.id.index(), m));
                }
            }
        }
        let compiled = CompiledTable::from_rules(rules);
        SwitchProgram { switch, compiled, stamp_tags, detections }
    }

    /// Every switch's program.
    pub fn switch_programs(&self) -> Vec<SwitchProgram> {
        let mut switches: Vec<u64> = Vec::new();
        for tag in 0..self.tag_count() as u64 {
            switches.extend(self.nes().config(self.set_of(tag)).switches());
        }
        switches.sort_unstable();
        switches.dedup();
        switches.into_iter().map(|sw| self.switch_program(sw)).collect()
    }
}

/// Convenience: a located packet tagged for lookup in a guarded program.
pub fn tagged_lookup(packet: &Packet, loc: Loc, tag: u64) -> Packet {
    let mut pk = packet.clone();
    pk.set_loc(loc);
    pk.set(Field::Tag, tag);
    pk
}

#[cfg(test)]
mod tests {
    use super::*;
    use edn_core::{Config, Event, EventId, EventSet, EventStructure, NetworkEventStructure};
    use netkat::{Action, ActionSet, FlowTable, LocatedView, Pred};

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

    /// A three-switch NES with ten configurations: a nine-step campaign
    /// that re-routes a different destination at every step, prepends a
    /// source drop rule on odd steps, and leaves switch 3 without a table
    /// on every third step.
    fn campaign_line_nes() -> NetworkEventStructure {
        let config = |step: u64| {
            let mut c = Config::new();
            for sw in [1u64, 2, 3] {
                if sw == 3 && step % 3 == 2 {
                    continue;
                }
                let mut rules = Vec::new();
                if step % 2 == 1 {
                    rules.push(Rule::new(Match::new().with(Field::IpSrc, step), ActionSet::drop()));
                }
                for dst in 0..8u64 {
                    let out = if dst == (step + sw) % 8 { 3 } else { 1 + (dst + sw) % 2 };
                    for pt in [1u64, 2] {
                        rules.push(Rule::new(
                            Match::new().with(Field::Port, pt).with(Field::IpDst, dst),
                            ActionSet::single(Action::assign(Field::Port, out)),
                        ));
                    }
                }
                c.install(sw, FlowTable::from_rules(rules));
            }
            c
        };
        let steps = (1..=9u64)
            .map(|step| crate::CampaignStep {
                trigger: Pred::test(Field::Vlan, 100 + step),
                loc: Loc::new(1 + step % 3, 2),
                config: config(step),
            })
            .collect();
        crate::campaign_nes(config(0), steps).unwrap()
    }

    /// Every switch's guarded program behaves, for every tag, exactly like
    /// that tag's own configuration table (modulo the tag field the guard
    /// leaves on the packet), on the materialized tagged packet and on the
    /// data planes' zero-copy view alike. A switch without a table in some
    /// configuration drops that configuration's packets.
    #[test]
    fn guarded_lookup_agrees_with_per_tag_configs() {
        let inputs = [
            (firewall_nes(), 2, vec![1u64], vec![2u64, 3, 9], vec![200u64, 300]),
            (campaign_line_nes(), 10, vec![1, 2, 3], vec![1, 2, 3], (0..9).collect()),
        ];
        for (nes, tags, switches, ports, dsts) in inputs {
            let compiled = CompiledNes::compile(nes);
            assert_eq!(compiled.tag_count(), tags);
            for &sw in &switches {
                let program = compiled.switch_program(sw);
                for tag in 0..compiled.tag_count() as u64 {
                    let config = compiled.nes().config(compiled.set_of(tag));
                    let empty = FlowTable::new();
                    let table = config.table(sw).unwrap_or(&empty);
                    for &pt in &ports {
                        for &dst in &dsts {
                            for src in [0u64, 1, 3, 5] {
                                let base =
                                    Packet::new().with(Field::IpDst, dst).with(Field::IpSrc, src);
                                let tagged = tagged_lookup(&base, Loc::new(sw, pt), tag);
                                let mut untagged = base.clone();
                                untagged.set_loc(Loc::new(sw, pt));
                                let got: std::collections::BTreeSet<Packet> = program
                                    .apply(&tagged)
                                    .into_iter()
                                    .map(|p| p.erase_virtual())
                                    .collect();
                                let want = table.apply(&untagged);
                                assert_eq!(got, want, "sw {sw}, tag {tag}, pt {pt}, dst {dst}");
                                let want_rule = table.lookup(&untagged).map(|r| &r.actions);
                                let view = LocatedView {
                                    base: &base,
                                    loc: Loc::new(sw, pt),
                                    tag: Some(tag),
                                };
                                for got_rule in [
                                    program.compiled.lookup(&tagged),
                                    program.compiled.lookup_on(&view),
                                ] {
                                    assert_eq!(
                                        got_rule.map(|r| &r.actions),
                                        want_rule,
                                        "lookup: sw {sw}, tag {tag}, pt {pt}, dst {dst}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn compiled_index_mirrors_reference_table() {
        let compiled = CompiledNes::compile(firewall_nes());
        let program = compiled.switch_program(1);
        let table = FlowTable::from_rules(program.compiled.iter().cloned());
        assert!(program.to_string().ends_with(&table.to_string()));
        for tag in 0..compiled.tag_count() as u64 {
            for pt in [2u64, 3, 9] {
                for dst in [200u64, 300, 7] {
                    let pk =
                        tagged_lookup(&Packet::new().with(Field::IpDst, dst), Loc::new(1, pt), tag);
                    assert_eq!(
                        program.compiled.lookup_index(&pk),
                        table.lookup_index(&pk),
                        "index diverged on {pk}"
                    );
                    assert_eq!(program.apply(&pk), table.apply(&pk));
                }
            }
        }
    }

    #[test]
    fn guarded_rule_count_equals_breakdown_forwarding() {
        let compiled = CompiledNes::compile(firewall_nes());
        let total: usize = compiled.switch_programs().iter().map(|p| p.compiled.len()).sum();
        assert_eq!(total, compiled.rule_breakdown().forwarding);
    }

    #[test]
    fn detection_entries_cover_enabled_pairs() {
        let compiled = CompiledNes::compile(firewall_nes());
        let program = compiled.switch_program(1);
        // One detection: in tag 0 (∅), an arrival of dst=300 at port 2
        // fires e0; in tag 1 the event is consumed.
        assert_eq!(program.detections.len(), 1);
        let (tag, event, m) = &program.detections[0];
        assert_eq!((*tag, *event), (0, 0));
        assert!(m.matches(&Packet::new().with(Field::IpDst, 300).with(Field::Port, 2)));
        // Display mentions the firing.
        assert!(program.to_string().contains("fires e0"));
    }

    #[test]
    fn stamping_lists_every_tag() {
        let compiled = CompiledNes::compile(firewall_nes());
        assert_eq!(compiled.switch_program(1).stamp_tags, vec![0, 1]);
    }
}
