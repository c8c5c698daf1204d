//! Model-based tests for the flat header types.
//!
//! `Match` and `Action` store their fields as a sorted `(field, value)`
//! list and `ActionSet` its actions as a sorted, deduplicated list. The
//! specification is the obvious tree form: a `BTreeMap<Field, Value>` per
//! match or action and a `BTreeSet` of those per action set. Each property
//! replays random operation sequences on both and checks that every
//! observation agrees — lookups, iteration order, comparisons, hashes,
//! rendering and packet semantics.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};

use netkat::{Action, ActionSet, Field, Match, Packet, Value};
use proptest::prelude::*;

/// The tree form of a `Match` or an `Action`.
type Fields = BTreeMap<Field, Value>;

/// A field pool that mixes named and custom fields, so orderings cross
/// the `Custom` variant boundary; few values, so overwrites and
/// contradictions are common.
const FIELDS: [Field; 7] = [
    Field::Switch,
    Field::Port,
    Field::Vlan,
    Field::IpDst,
    Field::Tag,
    Field::Custom(0),
    Field::Custom(3),
];

fn arb_pair() -> impl Strategy<Value = (Field, Value)> {
    (0usize..FIELDS.len(), 0u64..3).prop_map(|(i, v)| (FIELDS[i], v))
}

fn arb_pairs() -> impl Strategy<Value = Vec<(Field, Value)>> {
    proptest::collection::vec(arb_pair(), 0..6)
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    arb_pairs().prop_map(|pairs| pairs.into_iter().collect())
}

/// Fixed-key SipHash: equal inputs hash equally across calls.
fn hash_of<T: Hash>(value: &T) -> u64 {
    BuildHasherDefault::<DefaultHasher>::default().hash_one(value)
}

/// Sequential insertion: the later value for a field wins.
fn fields_of(pairs: &[(Field, Value)]) -> Fields {
    let mut model = Fields::new();
    for &(f, v) in pairs {
        model.insert(f, v);
    }
    model
}

fn action_of(pairs: &[(Field, Value)]) -> Action {
    pairs.iter().fold(Action::id(), |a, &(f, v)| a.set(f, v))
}

fn action_model(a: &Action) -> Fields {
    a.writes().collect()
}

fn render_match(model: &Fields) -> String {
    if model.is_empty() {
        return "*".to_string();
    }
    model.iter().map(|(f, v)| format!("{f}={v}")).collect::<Vec<_>>().join(",")
}

fn render_action(model: &Fields) -> String {
    if model.is_empty() {
        return "id".to_string();
    }
    model.iter().map(|(f, v)| format!("{f}<-{v}")).collect::<Vec<_>>().join(",")
}

fn render_set(model: &BTreeSet<Fields>) -> String {
    if model.is_empty() {
        return "drop".to_string();
    }
    let inner: Vec<String> = model.iter().map(render_action).collect();
    format!("{{{}}}", inner.join(" | "))
}

/// Every observation of `m` agrees with its model.
fn check_match(m: &Match, model: &Fields) -> Result<(), TestCaseError> {
    let pairs: Vec<(Field, Value)> = m.iter().collect();
    let want: Vec<(Field, Value)> = model.iter().map(|(&f, &v)| (f, v)).collect();
    prop_assert_eq!(pairs, want);
    prop_assert_eq!(m.len(), model.len());
    prop_assert_eq!(m.is_empty(), model.is_empty());
    for f in FIELDS {
        prop_assert_eq!(m.get(f), model.get(&f).copied(), "get({})", f);
    }
    prop_assert_eq!(m.to_string(), render_match(model));
    prop_assert_eq!(hash_of(m), hash_of(model));
    Ok(())
}

/// Every observation of `a` agrees with its model.
fn check_action(a: &Action, model: &Fields) -> Result<(), TestCaseError> {
    prop_assert_eq!(&action_model(a), model);
    let writes: Vec<Field> = a.writes().map(|(f, _)| f).collect();
    prop_assert_eq!(writes, model.keys().copied().collect::<Vec<_>>());
    prop_assert_eq!(a.is_id(), model.is_empty());
    for f in FIELDS {
        prop_assert_eq!(a.get(f), model.get(&f).copied(), "get({})", f);
    }
    prop_assert_eq!(a.to_string(), render_action(model));
    prop_assert_eq!(hash_of(a), hash_of(model));
    Ok(())
}

/// Every observation of `s` agrees with its model.
fn check_set(s: &ActionSet, model: &BTreeSet<Fields>) -> Result<(), TestCaseError> {
    let actions: Vec<Fields> = s.iter().map(action_model).collect();
    prop_assert_eq!(actions, model.iter().cloned().collect::<Vec<_>>());
    prop_assert_eq!(s.len(), model.len());
    prop_assert_eq!(s.is_drop(), model.is_empty());
    prop_assert_eq!(s.is_pass(), model.len() == 1 && model.contains(&Fields::new()));
    prop_assert_eq!(s.to_string(), render_set(model));
    prop_assert_eq!(hash_of(s), hash_of(model));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // `with` overwrites; `add` refuses a contradiction and leaves the match
    // unchanged; `FromIterator` lets the last value for a field win.
    #[test]
    fn match_operations_follow_the_map_model(
        ops in proptest::collection::vec((proptest::bool::ANY, arb_pair()), 0..10),
        pairs in arb_pairs(),
    ) {
        let mut m = Match::new();
        let mut model = Fields::new();
        for (builder, (f, v)) in ops {
            if builder {
                m = m.with(f, v);
                model.insert(f, v);
            } else {
                let before = m.clone();
                let ok = m.add(f, v);
                let contradicts = model.get(&f).is_some_and(|&old| old != v);
                prop_assert_eq!(ok, !contradicts, "add({}, {})", f, v);
                if contradicts {
                    prop_assert_eq!(&m, &before);
                } else {
                    model.insert(f, v);
                }
            }
            check_match(&m, &model)?;
        }
        let collected: Match = pairs.iter().copied().collect();
        check_match(&collected, &fields_of(&pairs))?;
    }

    // `Eq`/`Ord` agree with the models', equal values hash equally, and
    // `matches_on` is "every constraint holds" on random packets.
    #[test]
    fn match_order_hash_and_semantics_follow_the_map_model(
        a in arb_pairs(),
        b in arb_pairs(),
        pks in proptest::collection::vec(arb_packet(), 1..6),
    ) {
        let (ma, mb) = (fields_of(&a), fields_of(&b));
        let (x, y): (Match, Match) = (a.into_iter().collect(), b.into_iter().collect());
        prop_assert_eq!(x == y, ma == mb);
        prop_assert_eq!(x.cmp(&y), ma.cmp(&mb));
        if x == y {
            prop_assert_eq!(hash_of(&x), hash_of(&y));
        }
        for pk in &pks {
            let spec = ma.iter().all(|(&f, &v)| pk.get(f) == Some(v));
            prop_assert_eq!(x.matches(pk), spec, "matches on {}", pk);
            prop_assert_eq!(x.matches_on(pk), spec, "matches_on on {}", pk);
        }
    }

    // `set` overwrites; `then` lets the later action win field by field;
    // `apply` writes every field; order and hash follow the model.
    #[test]
    fn action_operations_follow_the_map_model(
        a in arb_pairs(),
        b in arb_pairs(),
        pk in arb_packet(),
    ) {
        let (ma, mb) = (fields_of(&a), fields_of(&b));
        let (x, y) = (action_of(&a), action_of(&b));
        check_action(&x, &ma)?;
        check_action(&y, &mb)?;
        let mut then = ma.clone();
        then.extend(mb.iter().map(|(&f, &v)| (f, v)));
        check_action(&x.then(&y), &then)?;
        prop_assert_eq!(x == y, ma == mb);
        prop_assert_eq!(x.cmp(&y), ma.cmp(&mb));
        let mut out = pk.clone();
        for (&f, &v) in &ma {
            out.set(f, v);
        }
        prop_assert_eq!(x.apply(&pk), out);
    }

    // `FromIterator`, `union` and `Extend` deduplicate and keep the set
    // sorted exactly as a `BTreeSet` of the models would; `apply_into`
    // emits `apply`'s outputs in order.
    #[test]
    fn action_set_operations_follow_the_set_model(
        a in proptest::collection::vec(arb_pairs(), 0..5),
        b in proptest::collection::vec(arb_pairs(), 0..5),
        pk in arb_packet(),
    ) {
        let model = |lists: &[Vec<(Field, Value)>]| -> BTreeSet<Fields> {
            lists.iter().map(|p| fields_of(p)).collect()
        };
        let (ma, mb) = (model(&a), model(&b));
        let x: ActionSet = a.iter().map(|p| action_of(p)).collect();
        let y: ActionSet = b.iter().map(|p| action_of(p)).collect();
        check_set(&x, &ma)?;
        check_set(&y, &mb)?;
        let both: BTreeSet<Fields> = ma.union(&mb).cloned().collect();
        check_set(&x.union(&y), &both)?;
        let mut extended = x.clone();
        extended.extend(b.iter().map(|p| action_of(p)));
        check_set(&extended, &both)?;
        prop_assert_eq!(&extended, &x.union(&y));
        prop_assert_eq!(x == y, ma == mb);
        prop_assert_eq!(x.cmp(&y), ma.cmp(&mb));
        let mut out = Vec::new();
        x.apply_into(&pk, &mut out);
        prop_assert_eq!(out, x.apply(&pk).into_iter().collect::<Vec<_>>());
    }
}
