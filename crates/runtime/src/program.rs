//! Concrete per-switch programs: the five building blocks of Section 4.1
//! rendered as installable rules.
//!
//! The paper's implementation recipe is: (1) encode event-sets as flat
//! tags, (2) compile every configuration, (3) guard each rule with its
//! configuration's tag, (4) stamp incoming packets with the current tag,
//! (5) learn events from digests. [`SwitchProgram`] shows steps (2)–(4)
//! for one switch: its forwarding table is the NES's own
//! [`VersionedTable`], each rule stored once and guarded by the *set* of
//! tags whose configuration holds it (the stamping and learning steps
//! additionally touch the switch register, which the table format notes
//! but cannot express — that part is the `NesDataPlane` logic).

use std::collections::BTreeSet;
use std::fmt;

use edn_core::VersionedTable;
use netkat::{Field, Loc, Match, Packet};

use crate::compile::CompiledNes;

/// The rules installed on one switch, with their tag guards.
#[derive(Clone, Debug)]
pub struct SwitchProgram<'a> {
    /// The switch.
    pub switch: u64,
    /// The forwarding table: every configuration's rules, each stored once
    /// with the tags that own it; a packet with tag `t` takes the first
    /// matching entry `t` owns. `None` if no configuration installs a
    /// table here. This is the NES's stored table, not a copy.
    pub table: Option<&'a VersionedTable>,
    /// Stamping entries: `(tag, ingress ports)` — on ingress from a host,
    /// a packet is stamped with the switch's current tag.
    pub stamp_tags: Vec<u64>,
    /// Detection entries: `(event-set tag, event id, match)` pairs telling
    /// the switch which arrivals fire which events in which local states.
    pub detections: Vec<(u64, usize, Match)>,
}

impl SwitchProgram<'_> {
    /// The forwarding behaviour for a tagged packet: the outputs of the
    /// first matching entry its tag owns (none for an untagged packet).
    pub fn apply(&self, packet: &Packet) -> BTreeSet<Packet> {
        let rule = packet
            .get(Field::Tag)
            .and_then(|tag| self.table?.lookup_on(usize::try_from(tag).ok()?, packet));
        rule.map(|r| r.actions.apply(packet)).unwrap_or_default()
    }
}

impl fmt::Display for SwitchProgram<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "switch {} program:", self.switch)?;
        writeln!(f, "  stamping: one rule per tag {:?}", self.stamp_tags)?;
        for (tag, event, m) in &self.detections {
            writeln!(f, "  detect: in state {tag}, arrival matching {m} fires e{event}")?;
        }
        if let Some(table) = self.table {
            write!(f, "{table}")?;
        }
        Ok(())
    }
}

impl CompiledNes {
    /// The per-switch program (Section 4.1 steps 2–4): the NES's versioned
    /// table for the switch plus its stamping and detection entries.
    pub fn switch_program(&self, switch: u64) -> SwitchProgram<'_> {
        let mut stamp_tags = Vec::new();
        let mut detections = Vec::new();
        for tag in 0..self.tag_count() as u64 {
            let set = self.set_of(tag);
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
        SwitchProgram { switch, table: self.nes().table(switch), stamp_tags, detections }
    }

    /// Every switch's program.
    pub fn switch_programs(&self) -> Vec<SwitchProgram<'_>> {
        self.nes().tables().map(|(sw, _)| self.switch_program(sw)).collect()
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
    use netkat::{Action, ActionSet, FlowTable, LocatedView, Pred, Rule};

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
    /// on every third step — stored by merging the full configurations.
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
            })
            .collect();
        // The chain's event structure, from an empty campaign of nine steps.
        let es = crate::campaign_nes(&Config::new(), [], steps).structure().clone();
        let sets = es.event_sets();
        NetworkEventStructure::new(es, sets.into_iter().zip((0..=9).map(config))).unwrap()
    }

    /// Every switch's versioned table behaves, for every tag, exactly like
    /// that tag's own materialised configuration table (modulo the tag
    /// field the lookup leaves on the packet), on the tagged packet and on
    /// the data planes' zero-copy view alike. A switch without a table in
    /// some configuration drops that configuration's packets.
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
                let versioned = program.table.expect("some configuration installs a table");
                for tag in 0..compiled.tag_count() as u64 {
                    let config = compiled.nes().config(compiled.set_of(tag));
                    let table = config.table(sw).cloned().unwrap_or_default();
                    assert_eq!(versioned.installed(tag as usize), config.table(sw).is_some());
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
                                let want_rule = table.lookup(&untagged);
                                let view = LocatedView {
                                    base: &base,
                                    loc: Loc::new(sw, pt),
                                    tag: Some(tag),
                                };
                                for got_rule in [
                                    versioned.lookup_on(tag as usize, &tagged),
                                    versioned.lookup_on(tag as usize, &view),
                                ] {
                                    assert_eq!(
                                        got_rule, want_rule,
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

    /// The versioned table's compiled index is its entry list, and a tag's
    /// lookup is the first matching entry the tag owns, as a linear scan of
    /// that list finds it; the program's listing ends with the table's.
    #[test]
    fn compiled_index_mirrors_reference_table() {
        let compiled = CompiledNes::compile(firewall_nes());
        let program = compiled.switch_program(1);
        let versioned = program.table.expect("switch 1 has a table");
        let table = FlowTable::from_rules(versioned.compiled().iter().cloned());
        assert!(program.to_string().ends_with(&versioned.to_string()));
        assert!(program.to_string().contains("] {0..=1} "), "{program}");
        for tag in 0..compiled.tag_count() {
            for pt in [2u64, 3, 9] {
                for dst in [200u64, 300, 7] {
                    let pk = tagged_lookup(
                        &Packet::new().with(Field::IpDst, dst),
                        Loc::new(1, pt),
                        tag as u64,
                    );
                    assert_eq!(
                        versioned.compiled().lookup_index(&pk),
                        table.lookup_index(&pk),
                        "index diverged on {pk}"
                    );
                    let want = (0..table.len())
                        .find(|&i| versioned.owns(i, tag) && table.rule(i).pattern.matches(&pk));
                    assert_eq!(
                        versioned.lookup_on(tag, &pk),
                        want.map(|i| table.rule(i)),
                        "tag {tag} on {pk}"
                    );
                }
            }
        }
    }

    /// The breakdown's forwarding count is the paper's per-tag count — the
    /// sum of the entries' owner-set sizes, which is the materialised
    /// configurations' rule count — while each shared rule is stored once.
    #[test]
    fn guarded_rule_count_equals_breakdown_forwarding() {
        for nes in [firewall_nes(), campaign_line_nes()] {
            let compiled = CompiledNes::compile(nes);
            let owned: usize = compiled
                .switch_programs()
                .iter()
                .filter_map(|p| p.table)
                .map(|t| (0..t.len()).map(|i| t.owner_count(i)).sum::<usize>())
                .sum();
            let materialised: usize = (0..compiled.tag_count() as u64)
                .map(|tag| compiled.nes().config(compiled.set_of(tag)).rule_count())
                .sum();
            assert_eq!(owned, compiled.rule_breakdown().forwarding);
            assert_eq!(owned, materialised);
            assert_eq!(owned, compiled.nes().total_rules());
            let stored: usize = compiled.nes().tables().map(|(_, t)| t.len()).sum();
            assert!(stored < owned, "shared rules are stored once: {stored} vs {owned}");
        }
        // The firewall's two configurations share `2 → 3`.
        let compiled = CompiledNes::compile(firewall_nes());
        assert_eq!(compiled.switch_program(1).table.map(|t| t.len()), Some(2));
        assert_eq!(compiled.rule_breakdown().forwarding, 3);
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
