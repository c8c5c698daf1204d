//! Deployment knobs: how a compiled NES's rules reach the data plane.
//!
//! An NES deploys its stored versioned tables as they are (Section 4.1):
//! one table per switch holding every configuration's rules, each rule
//! stored once with the set of tags whose configuration holds it, looked
//! up through the compiled index — the packet's tag selects the first
//! matching entry it owns. Deploying copies no rule. No deployment choice
//! is left: each knob below has one variant, and [`DeployKnobs`] survives
//! only because the benchmark harness names it.

use netkat::LookupPath;

/// How configurations are turned into installed tables. One way remains
/// (its label, `scratch`, predates the versioned tables); the type stays
/// because [`DeployKnobs`] names it and benchmark output prints its label.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CompilePath {
    /// Install the NES's versioned tables, every configuration at once
    /// (the paper's Section 4.1 deployment).
    #[default]
    Scratch,
}

impl CompilePath {
    /// The label used in benchmark output.
    pub fn label(&self) -> &'static str {
        "scratch"
    }
}

/// Whether a rule-sharing optimizer sits on the lookup path. It never does:
/// the Section 5.3 optimizer is the standalone `rule-optimizer` analysis.
/// The type stays because [`DeployKnobs`] names it and benchmark output
/// prints its label.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OptimizeMode {
    /// No optimizer: the versioned tables' exact sharing only.
    #[default]
    Off,
}

impl OptimizeMode {
    /// The label used in benchmark output.
    pub fn label(&self) -> &'static str {
        "off"
    }
}

/// The deployment knobs, each with a single setting.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DeployKnobs {
    /// Flow-table lookup implementation (always the compiled index).
    pub path: LookupPath,
    /// Table construction (always the stored versioned tables).
    pub compile: CompilePath,
    /// Rule-sharing optimizer on the lookup path (always off).
    pub optimize: OptimizeMode,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompiledNes, NesDataPlane};
    use edn_core::{Config, Event, EventId, EventSet, EventStructure, NetworkEventStructure};
    use netkat::{Action, ActionSet, Field, FlowTable, Loc, Match, Packet, Pred, Rule};
    use netsim::{DataPlane, SimTime};

    /// One switch, two hosts, a reply rule unlocked by e0.
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

    /// Unknown switches and out-of-range tags drop.
    #[test]
    fn unknown_switch_or_tag_drops_everywhere() {
        let mut dp = NesDataPlane::with_knobs(
            CompiledNes::compile(firewall_nes()),
            vec![1],
            false,
            DeployKnobs::default(),
        );
        let pk = Packet::new().with(Field::IpDst, 300).with(Field::Tag, 0);
        let known = dp.process(1, 2, pk.clone(), false, SimTime::ZERO);
        assert_eq!(known.outputs.len(), 1, "the known switch forwards");
        let r = dp.process(77, 2, pk, false, SimTime::ZERO);
        assert!(r.outputs.is_empty(), "unknown switch");
        let bad_tag = Packet::new().with(Field::IpDst, 300).with(Field::Tag, 99);
        let r = dp.process(1, 2, bad_tag, false, SimTime::ZERO);
        assert!(r.outputs.is_empty(), "unknown tag");
    }

    #[test]
    fn knob_parsing_defaults_and_labels() {
        assert_eq!(CompilePath::default(), CompilePath::Scratch);
        assert_eq!(CompilePath::Scratch.label(), "scratch");
        assert_eq!(OptimizeMode::default(), OptimizeMode::Off);
        assert_eq!(OptimizeMode::Off.label(), "off");
        let knobs = DeployKnobs::default();
        assert_eq!(knobs.path, LookupPath::Indexed);
        assert_eq!(knobs.compile, CompilePath::Scratch);
        assert_eq!(knobs.optimize, OptimizeMode::Off);
    }

    /// Seven independent events: 128 reachable event-sets, so owner sets
    /// span two words. Configuration `X` routes `10 + e` to port `e + 1`
    /// for each `e ∈ X`, in an order that flips with `|X|`'s parity, and
    /// adds a catch-all to port 9 after them when `e0 ∈ X`.
    fn wide_nes() -> NetworkEventStructure {
        let events: Vec<Event> = (0..7)
            .map(|i| {
                Event::new(EventId::new(i), Pred::test(Field::Vlan, 100 + i as u64), Loc::new(1, 9))
            })
            .collect();
        let all: EventSet = (0..7).map(EventId::new).collect();
        let family = (0..7).map(|i| EventSet::singleton(EventId::new(i))).chain([all]);
        let es = EventStructure::new(events, family);
        let config = |x: EventSet| {
            let mut rules: Vec<Rule> = x
                .iter()
                .map(|e| {
                    let e = e.index() as u64;
                    Rule::new(
                        Match::new().with(Field::IpDst, 10 + e),
                        ActionSet::single(Action::assign(Field::Port, e + 1)),
                    )
                })
                .collect();
            if x.len() % 2 == 1 {
                rules.reverse();
            }
            if x.contains(EventId::new(0)) {
                rules.push(Rule::new(
                    Match::new(),
                    ActionSet::single(Action::assign(Field::Port, 9)),
                ));
            }
            let mut c = Config::new();
            c.install(1, FlowTable::from_rules(rules));
            c.add_host(200, Loc::new(1, 2));
            c
        };
        let sets = es.event_sets();
        NetworkEventStructure::new(es, sets.into_iter().map(|x| (x, config(x)))).unwrap()
    }

    /// An NES past 64 configurations deploys, and every tag forwards as
    /// its own materialised configuration, on the packet and arena paths;
    /// the online checker keeps its explicit window and refuses.
    #[test]
    fn more_than_64_configurations_forward_per_tag() {
        let nes = wide_nes();
        assert_eq!(nes.event_sets().len(), 128);
        assert!(matches!(
            edn_core::OnlineChecker::observer(&nes),
            Err(edn_core::OnlineViolation::CapacityExceeded)
        ));
        let compiled = CompiledNes::compile(nes);
        let configs: Vec<Config> =
            (0..128).map(|tag| compiled.nes().config(compiled.set_of(tag))).collect();
        let mut dp = NesDataPlane::new(compiled, vec![1], false);
        let mut arena = netkat::PacketArena::new();
        for (tag, config) in configs.iter().enumerate() {
            let table = config.table(1).expect("every configuration installs switch 1");
            for dst in 8..20u64 {
                let pk = Packet::new().with(Field::IpDst, dst).with(Field::Tag, tag as u64);
                let mut located = pk.clone();
                located.set_loc(Loc::new(1, 2));
                let want: Vec<u64> =
                    table.apply(&located).iter().filter_map(|p| p.get(Field::Port)).collect();
                let got = dp.process(1, 2, pk.clone(), false, SimTime::ZERO);
                let got: Vec<u64> = got.outputs.iter().map(|&(pt, _)| pt).collect();
                assert_eq!(got, want, "tag {tag}, dst {dst}");
                let id = arena.intern(pk);
                let got = dp.process_arena(1, 2, id, false, SimTime::ZERO, &mut arena);
                let got: Vec<u64> = got.outputs.iter().map(|&(pt, _)| pt).collect();
                assert_eq!(got, want, "arena path: tag {tag}, dst {dst}");
            }
        }
    }
}
