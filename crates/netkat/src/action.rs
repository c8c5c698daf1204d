//! Actions: the leaves of forwarding decision diagrams.

use std::collections::BTreeSet;
use std::fmt;

use crate::field::{record_get, record_set, Field, Value};
use crate::packet::Packet;

/// A parallel field assignment (one output of a policy).
///
/// An action maps each field it mentions to the value written into it; the
/// identity action mentions no fields. Sequencing two actions composes them
/// with the later action overriding.
///
/// The writes are stored as a flat field record — `(field, value)` pairs
/// sorted by field, one per field — like [`Packet`]'s: an action writes
/// a few fields, and deployment clones every rule's actions into each
/// of up to 64 tagged configurations, so one small allocation beats a
/// node-per-field tree. The derived `Ord`/`Hash` see the same sorted pair
/// sequence a `BTreeMap` would iterate.
///
/// # Examples
///
/// ```
/// use netkat::{Action, Field, Packet};
/// let a = Action::id().set(Field::Port, 1).set(Field::Vlan, 7);
/// let pk = Packet::new().with(Field::Port, 2);
/// let out = a.apply(&pk);
/// assert_eq!(out.get(Field::Port), Some(1));
/// assert_eq!(out.get(Field::Vlan), Some(7));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Action {
    writes: Vec<(Field, Value)>,
}

impl Action {
    /// The identity action (no writes).
    pub fn id() -> Action {
        Action::default()
    }

    /// A single assignment `field ← value`.
    pub fn assign(field: Field, value: Value) -> Action {
        Action::id().set(field, value)
    }

    /// Builder-style addition of a write (later writes override).
    pub fn set(mut self, field: Field, value: Value) -> Action {
        record_set(&mut self.writes, field, value);
        self
    }

    /// Returns the value this action writes into `field`, if any.
    pub fn get(&self, field: Field) -> Option<Value> {
        record_get(&self.writes, field)
    }

    /// Returns `true` if this is the identity action.
    pub fn is_id(&self) -> bool {
        self.writes.is_empty()
    }

    /// Sequential composition: first `self`, then `later` (which overrides).
    pub fn then(&self, later: &Action) -> Action {
        let mut writes = self.writes.clone();
        for &(f, v) in &later.writes {
            record_set(&mut writes, f, v);
        }
        Action { writes }
    }

    /// Applies the action to a packet, returning the rewritten packet.
    pub fn apply(&self, pk: &Packet) -> Packet {
        let mut out = pk.clone();
        for &(f, v) in &self.writes {
            out.set(f, v);
        }
        out
    }

    /// Iterates over the writes in field order.
    pub fn writes(&self) -> impl Iterator<Item = (Field, Value)> + '_ {
        self.writes.iter().copied()
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_id() {
            return write!(f, "id");
        }
        for (i, (field, value)) in self.writes().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{field}<-{value}")?;
        }
        Ok(())
    }
}

/// A set of actions: the full result of a policy on a packet.
///
/// The empty set is *drop*; a set with more than one action is *multicast*.
///
/// The actions are stored sorted and duplicate-free in one `Vec` (almost
/// every set holds a single action), so iteration order, `Ord` and `Hash`
/// are those of the equivalent `BTreeSet`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ActionSet {
    actions: Vec<Action>,
}

impl ActionSet {
    /// The drop action set (no outputs).
    pub fn drop() -> ActionSet {
        ActionSet::default()
    }

    /// The pass action set (a single identity action).
    pub fn pass() -> ActionSet {
        ActionSet::from_iter([Action::id()])
    }

    /// A singleton action set.
    pub fn single(action: Action) -> ActionSet {
        ActionSet::from_iter([action])
    }

    /// Returns `true` if this set drops (is empty).
    pub fn is_drop(&self) -> bool {
        self.actions.is_empty()
    }

    /// Returns `true` if this set is exactly `pass`.
    pub fn is_pass(&self) -> bool {
        matches!(self.actions.as_slice(), [a] if a.is_id())
    }

    /// Union of two action sets (multicast).
    pub fn union(&self, other: &ActionSet) -> ActionSet {
        let mut union = self.clone();
        union.extend(other.actions.iter().cloned());
        union
    }

    /// Applies every action to `pk`, returning the set of output packets.
    pub fn apply(&self, pk: &Packet) -> BTreeSet<Packet> {
        self.actions.iter().map(|a| a.apply(pk)).collect()
    }

    /// Applies every action to `pk`, appending the outputs to `out` in
    /// exactly the order [`apply`](ActionSet::apply)'s set iterates them
    /// (sorted, deduplicated) — but without materializing the set for the
    /// hot single-action case.
    pub fn apply_into(&self, pk: &Packet, out: &mut Vec<Packet>) {
        match self.actions.as_slice() {
            [] => {}
            [a] => out.push(a.apply(pk)),
            _ => out.extend(self.apply(pk)),
        }
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Returns `true` if this set is empty (drops).
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Iterates over the actions.
    pub fn iter(&self) -> impl Iterator<Item = &Action> + '_ {
        self.actions.iter()
    }
}

impl FromIterator<Action> for ActionSet {
    fn from_iter<I: IntoIterator<Item = Action>>(iter: I) -> ActionSet {
        let mut set = ActionSet::drop();
        set.extend(iter);
        set
    }
}

impl Extend<Action> for ActionSet {
    fn extend<I: IntoIterator<Item = Action>>(&mut self, iter: I) {
        for a in iter {
            if let Err(i) = self.actions.binary_search(&a) {
                self.actions.insert(i, a);
            }
        }
    }
}

impl fmt::Display for ActionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_drop() {
            return write!(f, "drop");
        }
        write!(f, "{{")?;
        for (i, a) in self.actions.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn then_overrides() {
        let a = Action::assign(Field::Port, 1);
        let b = Action::assign(Field::Port, 2).set(Field::Vlan, 9);
        let ab = a.then(&b);
        assert_eq!(ab.get(Field::Port), Some(2));
        assert_eq!(ab.get(Field::Vlan), Some(9));
        let ba = b.then(&a);
        assert_eq!(ba.get(Field::Port), Some(1));
    }

    #[test]
    fn identity_laws() {
        let a = Action::assign(Field::Vlan, 3);
        assert_eq!(Action::id().then(&a), a);
        assert_eq!(a.then(&Action::id()), a);
        assert!(Action::id().is_id());
        assert!(!a.is_id());
    }

    #[test]
    fn apply_preserves_unwritten_fields() {
        let pk = Packet::new().with(Field::IpDst, 4).with(Field::Port, 2);
        let out = Action::assign(Field::Port, 1).apply(&pk);
        assert_eq!(out.get(Field::IpDst), Some(4));
        assert_eq!(out.get(Field::Port), Some(1));
    }

    #[test]
    fn action_set_drop_and_pass() {
        let pk = Packet::new().with(Field::Port, 5);
        assert!(ActionSet::drop().apply(&pk).is_empty());
        assert_eq!(ActionSet::pass().apply(&pk), BTreeSet::from([pk.clone()]));
        assert!(ActionSet::drop().is_drop());
        assert!(ActionSet::pass().is_pass());
        assert!(!ActionSet::single(Action::assign(Field::Port, 1)).is_pass());
    }

    #[test]
    fn action_set_union_multicasts() {
        let s = ActionSet::single(Action::assign(Field::Port, 1))
            .union(&ActionSet::single(Action::assign(Field::Port, 2)));
        assert_eq!(s.len(), 2);
        let pk = Packet::new();
        assert_eq!(s.apply(&pk).len(), 2);
    }

    #[test]
    fn display() {
        assert_eq!(ActionSet::drop().to_string(), "drop");
        assert_eq!(Action::id().to_string(), "id");
        let a = Action::assign(Field::Port, 1).set(Field::Vlan, 2);
        assert_eq!(a.to_string(), "pt<-1,vlan<-2");
    }
}
