//! The trace-membership automaton of many configurations, stepped at once.
//!
//! [`Config::admits_trace`] runs a three-state NFA per configuration. The
//! online checker needs that automaton under *every* reachable
//! configuration on every hop, and the configurations of one NES are
//! near-copies of each other: a campaign's 64 configurations share every
//! link, every host and almost every rule. A [`ConfigFamily`] compiles
//! them once into shared structures and steps all of them per hop with
//! `u64` masks (bit `i` = configuration `i`):
//!
//! * **Link classes.** Configurations with the same links and hosts form
//!   one class, which holds a hashed link set, the set of locations with
//!   an outgoing link, and the host set. A link hop costs one packet
//!   comparison plus one probe per class.
//! * **Masked union tables.** Per switch, the tables of all configurations
//!   are merged into one rule list whose entries carry the mask of the
//!   configurations holding that rule. The merge preserves each table's
//!   order exactly — every configuration's table is the subsequence of
//!   entries carrying its bit — so its first match is the first matching
//!   entry carrying its bit. A rule that two tables order differently
//!   simply gets a second entry. The list is compiled into a
//!   [`CompiledTable`] and walked with
//!   [`lookup_index_from`](CompiledTable::lookup_index_from): each matched
//!   entry resolves every still-unresolved configuration in its mask at
//!   once, and the walk stops as soon as none is left.
//!
//! The per-configuration `Config::start_state`, `Config::step_state` and
//! `Config::accepts_end` stay the specification; the property tests
//! below check this module against them bit for bit.

use std::collections::{BTreeSet, HashMap, HashSet};

use netkat::{
    Action, ActionSet, CompiledTable, Field, FlowTable, FxBuildHasher, Loc, LocatedView, Packet,
    Rule, Value,
};

use crate::config::Config;
use crate::trace::LocatedPacket;

/// The NFA state of one packet path under every configuration of a family:
/// bit `i` of a mask is set when configuration `i`'s automaton may be in
/// that state. A configuration with no bit set has rejected the path.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct Masks {
    /// The packet sits at a host (`ST_AT_HOST`).
    pub host: u64,
    /// The packet crossed a link into a switch (`ST_INGRESS`).
    pub ingress: u64,
    /// A switch processed the packet (`ST_EGRESS`).
    pub egress: u64,
}

impl Masks {
    /// The configurations that have not rejected the path.
    pub fn live(self) -> u64 {
        self.host | self.ingress | self.egress
    }

    /// Configuration `i`'s state as [`Config`]'s automaton spells it.
    #[cfg(test)]
    fn state(self, i: usize) -> u8 {
        use crate::config::{ST_AT_HOST, ST_EGRESS, ST_INGRESS};
        let bit = |m: u64, st: u8| if m >> i & 1 != 0 { st } else { 0 };
        bit(self.host, ST_AT_HOST) | bit(self.ingress, ST_INGRESS) | bit(self.egress, ST_EGRESS)
    }
}

/// Configurations sharing one link set and one host set.
struct LinkClass {
    /// The member configurations.
    mask: u64,
    links: HashSet<(Loc, Loc), FxBuildHasher>,
    /// Locations with at least one outgoing link.
    sources: HashSet<Loc, FxBuildHasher>,
    hosts: HashSet<u64, FxBuildHasher>,
}

/// One switch's masked union table.
struct UnionTable {
    /// The configurations that install a table at this switch.
    present: u64,
    table: CompiledTable,
    /// Per entry of `table`: the configurations whose table holds it.
    owners: Vec<u64>,
}

/// A family of up to 64 configurations compiled for bit-parallel stepping;
/// see the module docs.
pub(crate) struct ConfigFamily {
    classes: Vec<LinkClass>,
    tables: HashMap<u64, UnionTable, FxBuildHasher>,
}

impl ConfigFamily {
    /// Compiles `configs`; configuration `configs[i]` is bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if there are more than 64 configurations.
    pub fn new(configs: &[&Config]) -> ConfigFamily {
        assert!(configs.len() <= 64, "a family holds at most 64 configurations");
        // Link classes, keyed by a representative member.
        let mut reps: Vec<(usize, u64)> = Vec::new();
        for (i, c) in configs.iter().enumerate() {
            let same = reps.iter_mut().find(|(r, _)| {
                configs[*r].links().eq(c.links()) && configs[*r].hosts().eq(c.hosts())
            });
            match same {
                Some((_, mask)) => *mask |= 1 << i,
                None => reps.push((i, 1 << i)),
            }
        }
        let classes = reps
            .into_iter()
            .map(|(r, mask)| {
                let rep = configs[r];
                LinkClass {
                    mask,
                    links: rep.links().collect(),
                    sources: rep.links().map(|(src, _)| src).collect(),
                    hosts: rep.hosts().collect(),
                }
            })
            .collect();
        let switches: BTreeSet<u64> = configs.iter().flat_map(|c| c.switches()).collect();
        let tables = switches
            .into_iter()
            .map(|sw| {
                let installed =
                    configs.iter().enumerate().filter_map(|(i, c)| c.table(sw).map(|t| (i, t)));
                (sw, UnionTable::merge(installed))
            })
            .collect();
        ConfigFamily { classes, tables }
    }

    /// The configurations in which `node` is a host.
    fn host_at(&self, node: u64) -> u64 {
        self.classes.iter().filter(|c| c.hosts.contains(&node)).fold(0, |m, c| m | c.mask)
    }

    /// The state of a path's first located packet (`Config::start_state`
    /// for every configuration).
    pub fn start(&self, first: Loc) -> Masks {
        Masks { host: self.host_at(first.sw), ..Masks::default() }
    }

    /// One hop `a → b` from state `prev` (`Config::step_state` for every
    /// configuration).
    pub fn step(&self, prev: Masks, a: &LocatedPacket, b: &LocatedPacket) -> Masks {
        let mut next = Masks::default();
        let moving = prev.host | prev.egress;
        if moving != 0 && a.packet == b.packet {
            for class in &self.classes {
                let m = moving & class.mask;
                if m != 0 && class.links.contains(&(a.loc, b.loc)) {
                    if class.hosts.contains(&b.loc.sw) {
                        next.host |= m;
                    } else {
                        next.ingress |= m;
                    }
                }
            }
        }
        if prev.ingress != 0 && a.loc.sw == b.loc.sw {
            next.egress = self.first_match_where(prev.ingress, a, |actions| {
                actions.iter().any(|act| yields(act, a, b))
            });
        }
        next
    }

    /// The configurations in `state` that accept a path *ending* at `last`
    /// (`Config::accepts_end` for every configuration).
    pub fn accepting(&self, state: Masks, last: &LocatedPacket) -> u64 {
        let mut accept = state.host;
        if state.ingress != 0 {
            let forwards =
                self.first_match_where(state.ingress, last, |actions| !actions.is_empty());
            accept |= state.ingress & !forwards;
        }
        if state.egress != 0 {
            for class in &self.classes {
                if !class.sources.contains(&last.loc) {
                    accept |= state.egress & class.mask;
                }
            }
        }
        accept
    }

    /// The configurations in `configs` whose table at `at`'s switch has a
    /// first match for `at` whose actions satisfy `pred`. Hosts never apply
    /// tables, and a configuration without a table there matches nothing.
    /// `pred` runs at most once per matched entry.
    fn first_match_where(
        &self,
        configs: u64,
        at: &LocatedPacket,
        pred: impl Fn(&ActionSet) -> bool,
    ) -> u64 {
        let Some(union) = self.tables.get(&at.loc.sw) else { return 0 };
        let mut unresolved = configs & union.present & !self.host_at(at.loc.sw);
        let view = LocatedView { base: &at.packet, loc: at.loc, tag: None };
        let mut out = 0;
        let mut from = 0;
        while unresolved != 0 {
            let Some(i) = union.table.lookup_index_from(from, &view) else { break };
            let hit = union.owners[i] & unresolved;
            if hit != 0 {
                if pred(&union.table.rule(i).actions) {
                    out |= hit;
                }
                unresolved &= !hit;
            }
            from = i + 1;
        }
        out
    }
}

impl UnionTable {
    /// Merges `(configuration, table)` pairs into one masked rule list.
    ///
    /// Each table is embedded into the list built so far relative to the
    /// previous table: the common prefix and suffix reuse that table's
    /// entries, and each rule in between takes the first equal entry inside
    /// the gap they leave, or a new entry at the current position. Every
    /// table therefore stays an exact subsequence of the list.
    fn merge<'a>(installed: impl Iterator<Item = (usize, &'a FlowTable)>) -> UnionTable {
        let mut entries: Vec<(&'a Rule, u64)> = Vec::new();
        let mut prev: Option<(&'a FlowTable, Vec<usize>)> = None;
        let mut present = 0u64;
        for (i, t) in installed {
            let bit = 1u64 << i;
            present |= bit;
            let n = t.len();
            let mut pos = Vec::with_capacity(n);
            match &prev {
                None => {
                    entries.extend(t.iter().map(|r| (r, 0)));
                    pos.extend(0..n);
                }
                Some((pt, ppos)) => {
                    let m = pt.len();
                    let p = (0..n.min(m)).take_while(|&j| t.rule(j) == pt.rule(j)).count();
                    let s = (0..n.min(m) - p)
                        .take_while(|&j| t.rule(n - 1 - j) == pt.rule(m - 1 - j))
                        .count();
                    pos.extend_from_slice(&ppos[..p]);
                    let mut cur = if p > 0 { ppos[p - 1] + 1 } else { 0 };
                    let mut end = if s > 0 { ppos[m - s] } else { entries.len() };
                    let mut inserted = 0;
                    for j in p..n - s {
                        let r = t.rule(j);
                        match (cur..end).find(|&k| entries[k].0 == r) {
                            Some(k) => {
                                pos.push(k);
                                cur = k + 1;
                            }
                            None => {
                                entries.insert(cur, (r, 0));
                                pos.push(cur);
                                cur += 1;
                                end += 1;
                                inserted += 1;
                            }
                        }
                    }
                    pos.extend(ppos[m - s..].iter().map(|&k| k + inserted));
                }
            }
            for &k in &pos {
                entries[k].1 |= bit;
            }
            prev = Some((t, pos));
        }
        let owners = entries.iter().map(|&(_, mask)| mask).collect();
        let table = FlowTable::from_rules(entries.into_iter().map(|(r, _)| r.clone())).compile();
        UnionTable { present, table, owners }
    }
}

/// Whether applying `act` to `a` yields `b` — `Config`'s switch hop for one
/// action, compared in place: the output sits at `a`'s switch, on the port
/// the action writes (else `a`'s port), and its headers are `a`'s with the
/// action's writes applied, location fields dropped.
fn yields(act: &Action, a: &LocatedPacket, b: &LocatedPacket) -> bool {
    let port = act.get(Field::Port).unwrap_or(a.loc.pt);
    b.loc == Loc::new(a.loc.sw, port) && rewritten_eq(&a.packet, act, &b.packet)
}

/// `base` with `act`'s header writes applied and location fields dropped,
/// compared field by field against `target` without building it.
fn rewritten_eq(base: &Packet, act: &Action, target: &Packet) -> bool {
    let header = |&(f, _): &(Field, Value)| !matches!(f, Field::Switch | Field::Port);
    let mut fields = base.iter().filter(header).peekable();
    let mut writes = act.writes().filter(header).peekable();
    let mut want = target.iter();
    loop {
        let next = match (fields.peek().copied(), writes.peek().copied()) {
            (None, None) => return want.next().is_none(),
            (Some(f), None) => {
                fields.next();
                f
            }
            (None, Some(w)) => {
                writes.next();
                w
            }
            (Some(f), Some(w)) => {
                if f.0 < w.0 {
                    fields.next();
                    f
                } else {
                    if f.0 == w.0 {
                        fields.next();
                    }
                    writes.next();
                    w
                }
            }
        };
        if want.next() != Some(next) {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ST_AT_HOST, ST_EGRESS, ST_INGRESS};
    use netkat::Match;
    use proptest::prelude::*;

    /// A small universe so random hops hit real links, hosts and rules.
    const NODES: u64 = 4;
    const PORTS: u64 = 3;
    const FIELDS: [Field; 4] = [Field::Switch, Field::Port, Field::Vlan, Field::IpDst];

    fn arb_loc() -> impl Strategy<Value = Loc> {
        (0..NODES, 0..PORTS).prop_map(|(sw, pt)| Loc::new(sw, pt))
    }

    fn arb_packet() -> impl Strategy<Value = Packet> {
        proptest::collection::vec((2usize..FIELDS.len(), 0u64..3), 0..3)
            .prop_map(|fs| fs.into_iter().map(|(i, v)| (FIELDS[i], v)).collect())
    }

    fn arb_action() -> impl Strategy<Value = Action> {
        proptest::collection::vec((0usize..FIELDS.len(), 0u64..3), 0..3)
            .prop_map(|ws| ws.into_iter().fold(Action::id(), |a, (i, v)| a.set(FIELDS[i], v)))
    }

    /// A shared rule pool: tables draw from it, so rules recur across
    /// configurations (and within one table) in differing orders.
    fn arb_pool() -> impl Strategy<Value = Vec<Rule>> {
        let rule = (
            proptest::collection::vec((0usize..FIELDS.len(), 0u64..3), 0..3),
            proptest::collection::vec(arb_action(), 0..3),
        )
            .prop_map(|(tests, actions)| {
                let pattern: Match = tests.into_iter().map(|(i, v)| (FIELDS[i], v)).collect();
                Rule::new(pattern, actions.into_iter().collect())
            });
        proptest::collection::vec(rule, 1..8)
    }

    /// One configuration's recipe: per node an optional table (indices
    /// into the pool, repeats allowed), links, and hosts.
    type Recipe = (Vec<Option<Vec<usize>>>, Vec<(Loc, Loc)>, Vec<(u64, Loc)>);

    fn arb_recipe() -> impl Strategy<Value = Recipe> {
        (
            proptest::collection::vec(
                proptest::option::of(proptest::collection::vec(0usize..64, 0..6)),
                NODES as usize,
            ),
            proptest::collection::vec((arb_loc(), arb_loc()), 0..8),
            proptest::collection::vec((0..NODES, arb_loc()), 0..2),
        )
    }

    fn build(pool: &[Rule], recipe: &Recipe) -> Config {
        let (tables, links, hosts) = recipe;
        let mut c = Config::new();
        for (sw, table) in tables.iter().enumerate() {
            if let Some(ix) = table {
                c.install(
                    sw as u64,
                    FlowTable::from_rules(ix.iter().map(|&i| pool[i % pool.len()].clone())),
                );
            }
        }
        for &(a, b) in links {
            c.add_link(a, b);
        }
        for &(h, at) in hosts {
            c.add_host(h, at);
        }
        c
    }

    /// Families of up to 64 configurations. Most are mutations of a few
    /// bases (the realistic shape: near-copies sharing links and hosts);
    /// the rest are drawn independently, so link and host sets differ.
    fn arb_family() -> impl Strategy<Value = Vec<Config>> {
        (
            arb_pool(),
            proptest::collection::vec(arb_recipe(), 1..4),
            proptest::collection::vec(
                (
                    0usize..4,
                    0usize..NODES as usize,
                    proptest::option::of(proptest::collection::vec(0usize..64, 0..6)),
                ),
                0..64,
            ),
        )
            .prop_map(|(pool, bases, edits)| {
                let mut configs: Vec<Config> = bases.iter().map(|r| build(&pool, r)).collect();
                for (b, sw, table) in edits {
                    if configs.len() == 64 {
                        break;
                    }
                    let mut recipe = bases[b % bases.len()].clone();
                    recipe.0[sw] = table;
                    configs.push(build(&pool, &recipe));
                }
                configs
            })
    }

    fn lp(pk: &Packet, loc: Loc) -> LocatedPacket {
        LocatedPacket::new(pk.clone(), loc)
    }

    /// Asserts the family masks equal every configuration's own automaton
    /// on one hop, from a pseudo-random state per configuration.
    fn check_hop(
        configs: &[Config],
        fam: &ConfigFamily,
        a: &LocatedPacket,
        b: &LocatedPacket,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        // A per-configuration pseudo-random starting state.
        let mut prev = Masks::default();
        for i in 0..configs.len() {
            let st = (seed.rotate_left(3 * i as u32) & 7) as u8;
            prev.host |= u64::from(st & ST_AT_HOST != 0) << i;
            prev.ingress |= u64::from(st & ST_INGRESS != 0) << i;
            prev.egress |= u64::from(st & ST_EGRESS != 0) << i;
        }
        let next = fam.step(prev, a, b);
        let accept = fam.accepting(prev, a);
        for (i, c) in configs.iter().enumerate() {
            prop_assert_eq!(
                next.state(i),
                c.step_state(prev.state(i), a, b),
                "step, config {} {} -> {}",
                i,
                a,
                b
            );
            prop_assert_eq!(
                accept >> i & 1 != 0,
                c.accepts_end(prev.state(i), a),
                "accept, config {} at {}",
                i,
                a
            );
        }
        if configs.len() < 64 {
            prop_assert_eq!(next.live() >> configs.len(), 0, "no bits beyond the family");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // Random hops: link hops, switch hops (outputs of a real rule of
        // some configuration, so equalities hit), and junk.
        #[test]
        fn family_steps_equal_per_config_automata(
            configs in arb_family(),
            hops in proptest::collection::vec(
                (arb_packet(), arb_loc(), 0usize..4, arb_loc(), 0usize..64, any::<u64>()),
                1..16,
            ),
        ) {
            let refs: Vec<&Config> = configs.iter().collect();
            let fam = ConfigFamily::new(&refs);
            for (pk, at, kind, to, pick, seed) in hops {
                let a = lp(&pk, at);
                let start = fam.start(at);
                for (i, c) in configs.iter().enumerate() {
                    prop_assert_eq!(start.state(i), c.start_state(&a));
                }
                // Candidate successors: same packet elsewhere, and every
                // switch-hop output some configuration produces.
                let mut succs = vec![lp(&pk, to)];
                let c = &configs[pick % configs.len()];
                succs.extend(c.step(&a));
                let b = &succs[kind % succs.len()];
                check_hop(&configs, &fam, &a, b, seed)?;
            }
        }

        // Whole traces: random walks through one configuration's own
        // relation (so they are long and mostly admitted somewhere), then
        // `admits_trace` per configuration against the family's masks, with
        // and without prefixes.
        #[test]
        fn family_traces_equal_admits_trace(
            configs in arb_family(),
            pk in arb_packet(),
            first in arb_loc(),
            walk in proptest::collection::vec(0usize..64, 0..10),
            pick in 0usize..64,
        ) {
            let refs: Vec<&Config> = configs.iter().collect();
            let fam = ConfigFamily::new(&refs);
            let guide = &configs[pick % configs.len()];
            let mut trace = vec![lp(&pk, first)];
            for w in walk {
                let succ = guide.step(trace.last().expect("nonempty"));
                if succ.is_empty() {
                    break;
                }
                trace.push(succ[w % succ.len()].clone());
            }
            let mut state = fam.start(first);
            for w in trace.windows(2) {
                state = fam.step(state, &w[0], &w[1]);
            }
            let complete = fam.accepting(state, trace.last().expect("nonempty"));
            for (i, c) in configs.iter().enumerate() {
                let (prefix, whole) = (state.live() >> i & 1 != 0, complete >> i & 1 != 0);
                prop_assert_eq!(prefix, c.admits_trace(&trace, true), "prefix, config {}", i);
                prop_assert_eq!(whole, c.admits_trace(&trace, false), "complete, config {}", i);
            }
        }
    }

    #[test]
    fn conflicting_orders_get_a_second_entry() {
        let r = |v: u64, out: u64| {
            Rule::new(
                Match::new().with(Field::Vlan, v),
                ActionSet::single(Action::assign(Field::Port, out)),
            )
        };
        let with = |rules: Vec<Rule>| {
            let mut c = Config::new();
            c.install(1, FlowTable::from_rules(rules));
            c
        };
        // Both match vlan=1 packets first in opposite orders.
        let wide = Rule::new(Match::new(), ActionSet::single(Action::assign(Field::Port, 9)));
        let c0 = with(vec![r(1, 1), wide.clone()]);
        let c1 = with(vec![wide, r(1, 1)]);
        let fam = ConfigFamily::new(&[&c0, &c1]);
        assert_eq!(fam.tables[&1].table.len(), 3);
        let pk = Packet::new().with(Field::Vlan, 1);
        let a = lp(&pk, Loc::new(1, 0));
        let ingress = Masks { ingress: 0b11, ..Masks::default() };
        assert_eq!(fam.step(ingress, &a, &lp(&pk, Loc::new(1, 1))).egress, 0b01);
        assert_eq!(fam.step(ingress, &a, &lp(&pk, Loc::new(1, 9))).egress, 0b10);
    }

    #[test]
    fn campaign_shaped_tables_merge_without_growth() {
        // Each configuration adds one host rule in host order: the union
        // holds each rule once.
        let rule = |h: u64| {
            Rule::new(
                Match::new().with(Field::IpDst, h),
                ActionSet::single(Action::assign(Field::Port, h % 3)),
            )
        };
        let configs: Vec<Config> = (0..=16)
            .map(|k| {
                let mut c = Config::new();
                c.install(
                    1,
                    FlowTable::from_rules((0..32).filter(|h| h % 2 == 0 || h / 2 < k).map(rule)),
                );
                c
            })
            .collect();
        let refs: Vec<&Config> = configs.iter().collect();
        let fam = ConfigFamily::new(&refs);
        assert_eq!(fam.tables[&1].table.len(), 32);
    }
}
