//! Deployment knobs: how a compiled NES's rules reach the data plane.
//!
//! An NES deploys as one tag-guarded [`SwitchProgram`](crate::SwitchProgram)
//! per switch (Section 4.1): every configuration compiled from scratch and
//! interleaved, the tag guard selecting the packet's own configuration,
//! looked up through the compiled index. No deployment choice is left:
//! each knob below has one variant, and [`DeployKnobs`] survives only
//! because the benchmark harness names it.

use netkat::LookupPath;

/// How configurations are turned into installed tables. Only from-scratch
/// compilation remains; the type stays because [`DeployKnobs`] names it and
/// benchmark output prints its label.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CompilePath {
    /// Recompile every configuration from scratch into one guarded table
    /// per switch (the paper's Section 4.1 deployment).
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
    /// Plain guarded per-tag rules (one full copy per configuration).
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
    /// Table construction (always from scratch).
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
}
