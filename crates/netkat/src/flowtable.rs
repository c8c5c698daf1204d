//! Prioritized match/action flow tables.
//!
//! A flow table is the compilation target: an ordered list of rules, each
//! with an exact-match pattern over a subset of fields and a set of actions.
//! The first matching rule wins, exactly like an OpenFlow table with
//! priorities.

use std::collections::BTreeSet;
use std::fmt;

use crate::action::ActionSet;
use crate::fdd::{FddBuilder, NodeId};
use crate::field::{record_get, record_position, record_set, Field, Value};
use crate::packet::{FieldReader, Packet};

/// An exact-match pattern: a conjunction of `field = value` constraints.
///
/// Fields not mentioned are wildcards.
///
/// The constraints are stored as a flat field record — `(field, value)`
/// pairs sorted by field, one per field — like [`Packet`]'s: a rule tests
/// a few fields, and deployment clones every rule into each of up to 64
/// tagged configurations, so one small allocation beats a
/// node-per-field tree, and a lookup walks a slice. The derived
/// `Ord`/`Hash` see the same sorted pair sequence a `BTreeMap` would
/// iterate.
///
/// # Examples
///
/// ```
/// use netkat::{Field, Match, Packet};
/// let m = Match::new().with(Field::Port, 2);
/// assert!(m.matches(&Packet::new().with(Field::Port, 2)));
/// assert!(!m.matches(&Packet::new().with(Field::Port, 1)));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Match {
    tests: Vec<(Field, Value)>,
}

impl Match {
    /// The all-wildcard match.
    pub fn new() -> Match {
        Match::default()
    }

    /// Builder-style constraint addition.
    pub fn with(mut self, field: Field, value: Value) -> Match {
        record_set(&mut self.tests, field, value);
        self
    }

    /// Adds a constraint in place. Returns `false` (leaving the match
    /// unchanged) if it contradicts an existing constraint.
    pub fn add(&mut self, field: Field, value: Value) -> bool {
        match record_position(&self.tests, field) {
            Ok(i) => self.tests[i].1 == value,
            Err(i) => {
                self.tests.insert(i, (field, value));
                true
            }
        }
    }

    /// Returns the constraint on `field`, if any.
    pub fn get(&self, field: Field) -> Option<Value> {
        record_get(&self.tests, field)
    }

    /// Returns `true` if the packet satisfies every constraint.
    pub fn matches(&self, pk: &Packet) -> bool {
        self.matches_on(pk)
    }

    /// [`matches`](Match::matches) against any field source — e.g. the
    /// simulator's zero-copy [`LocatedView`](crate::LocatedView).
    pub fn matches_on<R: FieldReader>(&self, pk: &R) -> bool {
        self.tests.iter().all(|&(f, v)| pk.read(f) == Some(v))
    }

    /// Number of constrained fields.
    pub fn len(&self) -> usize {
        self.tests.len()
    }

    /// Returns `true` if this is the all-wildcard match.
    pub fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }

    /// Iterates over the constraints in field order.
    pub fn iter(&self) -> impl Iterator<Item = (Field, Value)> + '_ {
        self.tests.iter().copied()
    }
}

/// Later pairs override earlier ones on the same field.
impl FromIterator<(Field, Value)> for Match {
    fn from_iter<I: IntoIterator<Item = (Field, Value)>>(iter: I) -> Match {
        iter.into_iter().fold(Match::new(), |m, (f, v)| m.with(f, v))
    }
}

impl fmt::Display for Match {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "*");
        }
        for (i, (field, value)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{field}={value}")?;
        }
        Ok(())
    }
}

/// One prioritized rule: a match pattern and the actions applied on a hit.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Rule {
    /// The match pattern.
    pub pattern: Match,
    /// The actions (empty set = drop).
    pub actions: ActionSet,
}

impl Rule {
    /// Creates a rule.
    pub fn new(pattern: Match, actions: ActionSet) -> Rule {
        Rule { pattern, actions }
    }

    /// A catch-all drop rule.
    pub fn drop_all() -> Rule {
        Rule::new(Match::new(), ActionSet::drop())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.pattern, self.actions)
    }
}

/// An ordered flow table; the first matching rule wins.
///
/// # Examples
///
/// ```
/// use netkat::{ActionSet, Field, FlowTable, Match, Packet, Rule};
/// let table = FlowTable::from_rules([
///     Rule::new(Match::new().with(Field::Port, 2), ActionSet::pass()),
///     Rule::drop_all(),
/// ]);
/// assert_eq!(table.apply(&Packet::new().with(Field::Port, 2)).len(), 1);
/// assert!(table.apply(&Packet::new().with(Field::Port, 9)).is_empty());
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FlowTable {
    rules: Vec<Rule>,
}

impl FlowTable {
    /// The empty table (drops everything: no rule matches).
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// Builds a table from rules in priority order (highest first).
    pub fn from_rules<I: IntoIterator<Item = Rule>>(rules: I) -> FlowTable {
        FlowTable { rules: rules.into_iter().collect() }
    }

    /// Extracts a table from an FDD.
    ///
    /// Each root-to-leaf path yields one rule carrying the path's *positive*
    /// tests; priority order makes the negative tests implicit (a packet
    /// reaching rule `i` has already failed the higher-priority matches).
    /// This is correct because every FDD subdiagram is total, so the block of
    /// rules emitted for a true branch fully covers the matched subspace.
    pub fn from_fdd(builder: &FddBuilder, d: NodeId) -> FlowTable {
        let rules = builder
            .paths(d)
            .into_iter()
            .map(|p| Rule::new(p.positive.into_iter().collect(), p.actions))
            .collect();
        FlowTable { rules }
    }

    /// Returns the first matching rule for `pk`.
    pub fn lookup(&self, pk: &Packet) -> Option<&Rule> {
        self.lookup_on(pk)
    }

    /// [`lookup`](FlowTable::lookup) against any field source — e.g. the
    /// simulator's zero-copy [`LocatedView`](crate::LocatedView).
    pub fn lookup_on<R: FieldReader>(&self, pk: &R) -> Option<&Rule> {
        self.rules.iter().find(|r| r.pattern.matches_on(pk))
    }

    /// Returns the priority index of the first matching rule for `pk`.
    ///
    /// This linear scan is the *reference* lookup semantics; the indexed
    /// [`CompiledTable`](crate::CompiledTable) must agree with it on every
    /// packet (enforced by differential property tests).
    pub fn lookup_index(&self, pk: &Packet) -> Option<usize> {
        self.rules.iter().position(|r| r.pattern.matches(pk))
    }

    /// The rule at priority index `i` (as returned by
    /// [`lookup_index`](FlowTable::lookup_index)).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn rule(&self, i: usize) -> &Rule {
        &self.rules[i]
    }

    /// Applies the table: the output packets of the first matching rule, or
    /// the empty set if no rule matches.
    pub fn apply(&self, pk: &Packet) -> BTreeSet<Packet> {
        match self.lookup(pk) {
            Some(rule) => rule.actions.apply(pk),
            None => BTreeSet::new(),
        }
    }

    /// Applies the table, appending the outputs to `out` in the same order
    /// as [`apply`](FlowTable::apply)'s set iteration — the allocation-lean
    /// form simulator data planes use.
    pub fn apply_into(&self, pk: &Packet, out: &mut Vec<Packet>) {
        if let Some(rule) = self.lookup(pk) {
            rule.actions.apply_into(pk, out);
        }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` if the table has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterates over the rules in priority order.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> + '_ {
        self.rules.iter()
    }

    /// Appends a rule at the lowest priority.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Removes trailing drop rules and rules identical to their predecessor;
    /// returns the number removed. (An absent rule already drops, so
    /// trailing drops are pure overhead.)
    pub fn compact(&mut self) -> usize {
        let before = self.rules.len();
        while self.rules.last().is_some_and(|r| r.actions.is_drop() && r.pattern.is_empty()) {
            self.rules.pop();
        }
        self.rules.dedup();
        before - self.rules.len()
    }
}

impl fmt::Display for FlowTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rules.iter().enumerate() {
            writeln!(f, "[{i:3}] {r}")?;
        }
        Ok(())
    }
}

impl IntoIterator for FlowTable {
    type Item = Rule;
    type IntoIter = std::vec::IntoIter<Rule>;

    fn into_iter(self) -> Self::IntoIter {
        self.rules.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::pred::Pred;

    #[test]
    fn match_add_detects_conflicts() {
        let mut m = Match::new();
        assert!(m.add(Field::Port, 1));
        assert!(m.add(Field::Port, 1));
        assert!(!m.add(Field::Port, 2));
        assert_eq!(m.get(Field::Port), Some(1));
    }

    #[test]
    fn first_match_wins() {
        let t = FlowTable::from_rules([
            Rule::new(
                Match::new().with(Field::Port, 1),
                ActionSet::single(Action::assign(Field::Vlan, 10)),
            ),
            Rule::new(Match::new(), ActionSet::single(Action::assign(Field::Vlan, 20))),
        ]);
        let a = t.apply(&Packet::new().with(Field::Port, 1));
        assert_eq!(a.iter().next().unwrap().get(Field::Vlan), Some(10));
        let b = t.apply(&Packet::new().with(Field::Port, 9));
        assert_eq!(b.iter().next().unwrap().get(Field::Vlan), Some(20));
    }

    #[test]
    fn from_fdd_agrees_with_fdd_eval() {
        let mut b = FddBuilder::new();
        let p = Pred::port(1).or(Pred::test(Field::Vlan, 2).not());
        let d = b.from_pred(&p);
        let t = FlowTable::from_fdd(&b, d);
        for pk in [
            Packet::new().with(Field::Port, 1).with(Field::Vlan, 2),
            Packet::new().with(Field::Port, 0).with(Field::Vlan, 2),
            Packet::new().with(Field::Port, 0).with(Field::Vlan, 0),
            Packet::new(),
        ] {
            assert_eq!(t.apply(&pk), b.eval(d, &pk), "packet {pk}");
        }
    }

    #[test]
    fn compact_removes_trailing_wildcard_drops() {
        let mut t = FlowTable::from_rules([
            Rule::new(Match::new().with(Field::Port, 1), ActionSet::pass()),
            Rule::drop_all(),
        ]);
        assert_eq!(t.compact(), 1);
        assert_eq!(t.len(), 1);
        // Semantics unchanged: unmatched packets still drop.
        assert!(t.apply(&Packet::new().with(Field::Port, 2)).is_empty());
    }

    #[test]
    fn empty_table_drops() {
        assert!(FlowTable::new().apply(&Packet::new()).is_empty());
        assert_eq!(FlowTable::new().lookup_index(&Packet::new()), None);
    }

    #[test]
    fn all_wildcard_first_rule_shadows_later_rules() {
        let t = FlowTable::from_rules([
            Rule::new(Match::new(), ActionSet::single(Action::assign(Field::Vlan, 1))),
            Rule::new(
                Match::new().with(Field::Port, 2),
                ActionSet::single(Action::assign(Field::Vlan, 2)),
            ),
        ]);
        // Even a packet the second rule would match hits the wildcard.
        let pk = Packet::new().with(Field::Port, 2);
        assert_eq!(t.lookup_index(&pk), Some(0));
        assert_eq!(t.apply(&pk).iter().next().unwrap().get(Field::Vlan), Some(1));
    }

    #[test]
    fn duplicate_patterns_first_wins() {
        let t = FlowTable::from_rules([
            Rule::new(
                Match::new().with(Field::Port, 1),
                ActionSet::single(Action::assign(Field::Vlan, 10)),
            ),
            Rule::new(
                Match::new().with(Field::Port, 1),
                ActionSet::single(Action::assign(Field::Vlan, 20)),
            ),
        ]);
        let pk = Packet::new().with(Field::Port, 1);
        assert_eq!(t.lookup_index(&pk), Some(0));
        assert_eq!(t.apply(&pk).iter().next().unwrap().get(Field::Vlan), Some(10));
    }

    #[test]
    fn multicast_rule_emits_every_output_packet() {
        let t = FlowTable::from_rules([Rule::new(
            Match::new().with(Field::Port, 1),
            ActionSet::from_iter([
                Action::assign(Field::Port, 2),
                Action::assign(Field::Port, 3).set(Field::Vlan, 7),
            ]),
        )]);
        let out = t.apply(&Packet::new().with(Field::Port, 1));
        assert_eq!(out.len(), 2);
        let vlans: Vec<Option<Value>> = out.iter().map(|p| p.get(Field::Vlan)).collect();
        assert!(vlans.contains(&Some(7)) && vlans.contains(&None));
    }

    #[test]
    fn match_add_contradiction_leaves_match_unchanged() {
        let mut m = Match::new().with(Field::IpDst, 4).with(Field::Port, 2);
        assert!(!m.add(Field::IpDst, 9));
        assert_eq!(m.get(Field::IpDst), Some(4));
        assert_eq!(m.len(), 2);
        assert!(m.matches(&Packet::new().with(Field::IpDst, 4).with(Field::Port, 2)));
    }

    #[test]
    fn display_contains_rules() {
        let t = FlowTable::from_rules([Rule::drop_all()]);
        assert!(t.to_string().contains("* -> drop"));
    }
}
