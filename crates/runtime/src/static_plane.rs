//! A static data plane: one fixed configuration, no tags, no events.
//!
//! This is the Fig. 16(a) reference point — "the initial (static)
//! configuration of the program running on un-modified OpenFlow 1.0
//! reference switches" — against which the NES runtime's overhead is
//! measured.

use std::collections::BTreeMap;

use edn_core::Config;
use netkat::{CompiledTable, Field, Loc, LocatedView, LookupStats, Packet, PacketArena, PacketId};
use netsim::{table_outputs, CtrlMsg, DataPlane, SimTime, StepResult, StepResultId};

/// A data plane that forwards under a single fixed [`Config`].
#[derive(Clone, Debug)]
pub struct StaticDataPlane {
    /// Per-switch compiled tables, built once at deployment.
    index: BTreeMap<u64, CompiledTable>,
    /// Reused arena-path buffers (see `NesDataPlane`): lookup and output
    /// packets are built here; a steady-state hop allocates nothing.
    lookup_buf: Packet,
    out_buf: Packet,
    /// This plane's fingerprint probe outcomes.
    lookups: LookupStats,
}

impl StaticDataPlane {
    /// Deploys the configuration: compiles each switch's table, keeping
    /// only the compiled index (links and hosts live in the simulator's
    /// topology).
    pub fn new(config: Config) -> StaticDataPlane {
        let index =
            config.into_tables().map(|(sw, t)| (sw, CompiledTable::from_rules(t))).collect();
        StaticDataPlane {
            index,
            lookup_buf: Packet::new(),
            out_buf: Packet::new(),
            lookups: LookupStats::default(),
        }
    }
}

impl DataPlane for StaticDataPlane {
    fn process(&mut self, sw: u64, pt: u64, packet: Packet, _: bool, _: SimTime) -> StepResult {
        let mut lookup = packet;
        lookup.set_loc(Loc::new(sw, pt));
        let lookups = &mut self.lookups;
        let rule = self
            .index
            .get(&sw)
            .and_then(|t| t.lookup_index_tallied(&lookup, lookups).map(|i| t.rule(i)));
        let mut out = Vec::new();
        if let Some(rule) = rule {
            rule.actions.apply_into(&lookup, &mut out);
        }
        StepResult { outputs: table_outputs(pt, out), notifications: Vec::new() }
    }

    /// The native arena path: a zero-copy [`LocatedView`] table lookup
    /// plus the identity-hop fast path — a hop whose writes change nothing forwards the input id
    /// without materializing or interning anything.
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
    /// engine's reused step buffer: zero-copy view lookup, identity fast
    /// path, reused buffers for content-changing hops — a steady-state
    /// hop allocates nothing at all.
    fn process_arena_into(
        &mut self,
        sw: u64,
        pt: u64,
        packet: PacketId,
        _from_host: bool,
        _now: SimTime,
        arena: &mut PacketArena,
        out: &mut StepResultId,
    ) {
        out.clear();
        // Same structure as `NesDataPlane::process_arena_into`, minus
        // events.
        let loc = Loc::new(sw, pt);
        let base = arena.get(packet);
        let view = LocatedView { base, loc, tag: None };
        let lookups = &mut self.lookups;
        let rule = self
            .index
            .get(&sw)
            .and_then(|t| t.lookup_index_tallied(&view, lookups).map(|i| t.rule(i)));
        if let Some(rule) = rule {
            if rule.actions.len() == 1 {
                let action = rule.actions.iter().next().expect("len 1");
                let mut out_pt = pt;
                let mut identity =
                    base.get(Field::Switch).is_none() && base.get(Field::Port).is_none();
                for (f, v) in action.writes() {
                    match f {
                        Field::Switch => {}
                        Field::Port => out_pt = v,
                        f if base.get(f) != Some(v) => identity = false,
                        _ => {}
                    }
                }
                if identity {
                    out.outputs.push((out_pt, packet));
                } else {
                    let mut buf = std::mem::take(&mut self.out_buf);
                    buf.clone_from(base);
                    buf.take_loc();
                    for (f, v) in action.writes() {
                        if !f.is_location() {
                            buf.set(f, v);
                        }
                    }
                    out.outputs.push((out_pt, arena.intern_ref(&buf)));
                    self.out_buf = buf;
                }
            } else if !rule.actions.is_empty() {
                // Multicast (rare): materialize the lookup packet and
                // `ActionSet::apply`'s sorted output set.
                let mut lookup = std::mem::take(&mut self.lookup_buf);
                lookup.clone_from(base);
                lookup.set_loc(loc);
                for mut cast in rule.actions.apply(&lookup) {
                    let (_, out_pt) = cast.take_loc();
                    out.outputs.push((out_pt.unwrap_or(pt), arena.intern(cast)));
                }
                self.lookup_buf = lookup;
            }
        }
    }

    fn on_notify(&mut self, _: CtrlMsg, _: SimTime) -> Vec<(SimTime, u64, CtrlMsg)> {
        Vec::new()
    }

    fn deliver(&mut self, _: u64, _: CtrlMsg, _: SimTime) {}

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
    use netkat::{Action, ActionSet, Field, FlowTable, Match, Rule};

    fn config() -> Config {
        let mut config = Config::new();
        config.install(
            1,
            FlowTable::from_rules([Rule::new(
                Match::new().with(Field::Port, 2),
                ActionSet::single(Action::assign(Field::Port, 3)),
            )]),
        );
        config
    }

    #[test]
    fn forwards_under_the_fixed_config() {
        let mut dp = StaticDataPlane::new(config());
        let r = dp.process(1, 2, Packet::new(), true, SimTime::ZERO);
        assert_eq!(r.outputs.len(), 1);
        assert_eq!(r.outputs[0].0, 3);
        assert!(r.notifications.is_empty());
        // Non-matching port drops.
        assert!(dp.process(1, 9, Packet::new(), true, SimTime::ZERO).outputs.is_empty());
        // Controller messages are inert.
        assert!(dp.on_notify(CtrlMsg::Events(1), SimTime::ZERO).is_empty());
        // Every hop forwards exactly as the spec, the configuration's own
        // table, does; a switch without a table drops.
        let spec = config();
        for (sw, pt) in [(1u64, 2u64), (1, 9), (7, 2)] {
            let pk = Packet::new().with(Field::Vlan, 5);
            let mut located = pk.clone();
            located.set_loc(Loc::new(sw, pt));
            let want =
                table_outputs(pt, spec.table(sw).map(|t| t.apply(&located)).unwrap_or_default());
            let got = dp.process(sw, pt, pk, true, SimTime::ZERO);
            assert_eq!(got.outputs, want, "spec diverged at {sw}:{pt}");
        }
    }
}
