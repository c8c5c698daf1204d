//! Versioned tables: every configuration of a network event structure,
//! stored once per switch.
//!
//! The configurations of one NES are near-copies of each other: a
//! campaign's 64 configurations share every link, every host and almost
//! every rule. A [`VersionedTable`] holds one switch's tables under all of
//! them as a single rule list in priority order whose entries carry an
//! *owner set*: the configurations whose table holds the entry. Each
//! configuration's table is exactly the subsequence of entries it owns, so
//! its first match for a packet is the first matching entry it owns. That
//! is the tag guard of the paper's Section 4.1 with a set of tags in place
//! of one, and the cross-configuration rule sharing of its Section 5.3,
//! exact by construction rather than found by heuristic.
//!
//! Configuration `i` is the `i`-th reachable event-set in sorted order —
//! which is also the runtime's tag `i` — and owner sets are bitsets with
//! one bit per configuration and no fixed ceiling.
//!
//! The list is compiled once into a [`CompiledTable`]; a lookup for
//! configuration `t` takes the table's first match and, while that entry's
//! owner set lacks `t`, resumes the walk after it with
//! [`CompiledTable::lookup_index_from`]. The online checker walks the same
//! matches to resolve every configuration at once.

use std::fmt;
use std::ops::Range;

use netkat::{CompiledTable, FieldReader, FlowTable, LookupStats, Rule};

/// The `u64` words of an owner set over `configs` configurations.
pub(crate) fn owner_words(configs: usize) -> usize {
    configs.div_ceil(64).max(1)
}

/// Whether bit `i` is set in the bitset `words`.
pub(crate) fn has_bit(words: &[u64], i: usize) -> bool {
    words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 != 0)
}

/// Sets bit `i` of the bitset `words`.
pub(crate) fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// One switch's rules under every configuration of an NES, each entry
/// stored once with the configurations that own it; see the module docs.
#[derive(Clone, Debug)]
pub struct VersionedTable {
    /// `u64` words per owner set.
    words: usize,
    /// The entries in priority order.
    table: CompiledTable,
    /// Entry `i`'s owner set is `owners[i * words..(i + 1) * words]`.
    owners: Vec<u64>,
    /// The configurations that install a table on this switch (an absent
    /// table and an empty one forward alike, but materialise differently).
    installed: Vec<u64>,
}

impl VersionedTable {
    /// Merges `(configuration, rules)` pairs, in ascending configuration
    /// order, into one versioned table over `configs` configurations,
    /// moving each distinct rule into it and dropping the repeats.
    ///
    /// Each table is embedded into the list built so far relative to the
    /// previous table: the common prefix and suffix reuse that table's
    /// entries, and each rule in between takes the first equal entry inside
    /// the gap they leave, or a new entry at the current position. Every
    /// table therefore stays an exact subsequence of the list; a rule that
    /// two tables order differently simply gets a second entry.
    pub(crate) fn merge(
        configs: usize,
        installed: impl IntoIterator<Item = (usize, Vec<Rule>)>,
    ) -> VersionedTable {
        let words = owner_words(configs);
        let mut entries: Vec<Rule> = Vec::new();
        let mut owners: Vec<u64> = Vec::new();
        let mut present = vec![0; words];
        // The entry each rule of the previous table was embedded at.
        let mut prev: Option<Vec<usize>> = None;
        for (c, t) in installed {
            set_bit(&mut present, c);
            let n = t.len();
            let mut pos = Vec::with_capacity(n);
            match &prev {
                None => {
                    entries.extend(t);
                    owners.resize(entries.len() * words, 0);
                    pos.extend(0..n);
                }
                Some(ppos) => {
                    let m = ppos.len();
                    let p = (0..n.min(m)).take_while(|&j| t[j] == entries[ppos[j]]).count();
                    let s = (0..n.min(m) - p)
                        .take_while(|&j| t[n - 1 - j] == entries[ppos[m - 1 - j]])
                        .count();
                    pos.extend_from_slice(&ppos[..p]);
                    let mut cur = if p > 0 { ppos[p - 1] + 1 } else { 0 };
                    let mut end = if s > 0 { ppos[m - s] } else { entries.len() };
                    let mut inserted = 0;
                    for r in t.into_iter().take(n - s).skip(p) {
                        match (cur..end).find(|&k| entries[k] == r) {
                            Some(k) => {
                                pos.push(k);
                                cur = k + 1;
                            }
                            None => {
                                entries.insert(cur, r);
                                owners.splice(cur * words..cur * words, (0..words).map(|_| 0));
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
                set_bit(&mut owners[k * words..(k + 1) * words], c);
            }
            prev = Some(pos);
        }
        VersionedTable {
            words,
            table: CompiledTable::from_rules(entries),
            owners,
            installed: present,
        }
    }

    /// Builds a versioned table over `configs` configurations, every one of
    /// which installs it, from entries in priority order, each owned by a
    /// contiguous range of configurations. Entries no configuration owns
    /// are left out.
    ///
    /// # Panics
    ///
    /// Panics if a range reaches past `configs`.
    pub(crate) fn from_ranges(
        configs: usize,
        entries: impl IntoIterator<Item = (Rule, Range<usize>)>,
    ) -> VersionedTable {
        let words = owner_words(configs);
        let mut owners = Vec::new();
        let rules: Vec<Rule> = entries
            .into_iter()
            .filter(|(_, live)| !live.is_empty())
            .map(|(rule, live)| {
                assert!(
                    live.end <= configs,
                    "owner range {live:?} beyond {configs} configurations"
                );
                let at = owners.len();
                owners.resize(at + words, 0);
                for c in live {
                    set_bit(&mut owners[at..], c);
                }
                rule
            })
            .collect();
        let mut installed = vec![0; words];
        for c in 0..configs {
            set_bit(&mut installed, c);
        }
        VersionedTable { words, table: CompiledTable::from_rules(rules), owners, installed }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Returns `true` if no configuration holds a rule here.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The entry at priority index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn rule(&self, i: usize) -> &Rule {
        self.table.rule(i)
    }

    /// The entries compiled for lookup.
    pub fn compiled(&self) -> &CompiledTable {
        &self.table
    }

    /// Whether configuration `config` holds entry `i`.
    pub fn owns(&self, i: usize, config: usize) -> bool {
        has_bit(&self.owners[i * self.words..(i + 1) * self.words], config)
    }

    /// The configurations holding entry `i`, ascending.
    pub fn owners(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        bits(&self.owners[i * self.words..(i + 1) * self.words])
    }

    /// Number of configurations holding entry `i`.
    pub fn owner_count(&self, i: usize) -> usize {
        self.owners[i * self.words..(i + 1) * self.words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Entry `i`'s owner set as one mask, for families of at most 64
    /// configurations (bit `c` = configuration `c`).
    pub(crate) fn owner_mask(&self, i: usize) -> u64 {
        debug_assert_eq!(self.words, 1, "masks serve at most 64 configurations");
        self.owners[i * self.words]
    }

    /// The configurations installing this table as one mask, for families
    /// of at most 64 configurations.
    pub(crate) fn installed_mask(&self) -> u64 {
        debug_assert_eq!(self.words, 1, "masks serve at most 64 configurations");
        self.installed[0]
    }

    /// Whether configuration `config` installs a table on this switch.
    pub fn installed(&self, config: usize) -> bool {
        has_bit(&self.installed, config)
    }

    /// Configuration `config`'s first matching entry for `pk` — the index
    /// its own table's first match has among the stored entries. Adds the
    /// probes' fingerprint outcomes to `stats`.
    pub fn lookup_index_tallied<R: FieldReader>(
        &self,
        config: usize,
        pk: &R,
        stats: &mut LookupStats,
    ) -> Option<usize> {
        let mut hit = self.table.lookup_index_tallied(pk, stats);
        while let Some(i) = hit {
            if self.owns(i, config) {
                return Some(i);
            }
            hit = self.table.lookup_index_from_tallied(i + 1, pk, stats);
        }
        None
    }

    /// Configuration `config`'s first matching rule for `pk`: what
    /// [`FlowTable::lookup`] finds in the materialised table.
    pub fn lookup_on<R: FieldReader>(&self, config: usize, pk: &R) -> Option<&Rule> {
        self.lookup_index_tallied(config, pk, &mut LookupStats::default()).map(|i| self.rule(i))
    }

    /// Materialises configuration `config`'s table: its entries in
    /// priority order, or `None` if it installs no table here.
    pub fn table(&self, config: usize) -> Option<FlowTable> {
        self.installed(config).then(|| {
            FlowTable::from_rules(
                (0..self.len()).filter(|&i| self.owns(i, config)).map(|i| self.rule(i).clone()),
            )
        })
    }

    /// Adds, per configuration, the number of entries it holds here.
    pub(crate) fn count_rules(&self, counts: &mut [usize]) {
        for i in 0..self.len() {
            for c in self.owners(i) {
                counts[c] += 1;
            }
        }
    }
}

/// The set bits of a bitset, ascending.
fn bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + b
            })
        })
    })
}

/// One line per entry: its priority index, its owner set as compact
/// ranges of configurations (e.g. `{0..=3,7}`), and the rule.
impl fmt::Display for VersionedTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len() {
            let mut runs: Vec<(usize, usize)> = Vec::new();
            for c in self.owners(i) {
                match runs.last_mut() {
                    Some((_, hi)) if *hi + 1 == c => *hi = c,
                    _ => runs.push((c, c)),
                }
            }
            write!(f, "[{i:3}] {{")?;
            for (k, (lo, hi)) in runs.into_iter().enumerate() {
                let sep = if k == 0 { "" } else { "," };
                if lo == hi {
                    write!(f, "{sep}{lo}")?;
                } else {
                    write!(f, "{sep}{lo}..={hi}")?;
                }
            }
            writeln!(f, "}} {}", self.rule(i))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::tests::{arb_family, arb_loc, arb_packet};
    use crate::nes::Versions;
    use netkat::{Action, ActionSet, Field, Loc, LocatedView, Match};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // The differential spec of the versioned lookup: for every
        // configuration `t` of a random family — conflicting rule orders,
        // repeated rules and missing tables — looking up tag `t` in a
        // switch's versioned table gives `FlowTable::apply` on `t`'s own
        // table, on the packet and on the data planes' zero-copy view, and
        // materialising `t` gives back exactly the configuration stored.
        #[test]
        fn versioned_lookup_equals_materialised_tables(
            configs in arb_family(),
            probes in proptest::collection::vec((arb_packet(), arb_loc()), 1..16),
        ) {
            let versions = Versions::merge(configs.clone());
            let mut counts = vec![0; configs.len()];
            for (t, c) in configs.iter().enumerate() {
                prop_assert_eq!(&versions.config(t), c, "configuration {}", t);
                for (&sw, vt) in &versions.tables {
                    let own = c.table(sw);
                    prop_assert_eq!(vt.installed(t), own.is_some());
                    let own = own.cloned().unwrap_or_default();
                    prop_assert_eq!(vt.table(t).unwrap_or_default(), own.clone());
                    for (pk, at) in &probes {
                        let loc = Loc::new(sw, at.pt);
                        let mut located = pk.clone();
                        located.set_loc(loc);
                        let got = vt
                            .lookup_on(t, &located)
                            .map(|r| r.actions.apply(&located))
                            .unwrap_or_default();
                        prop_assert_eq!(got, own.apply(&located), "tag {} at {}", t, loc);
                        let view = LocatedView { base: pk, loc, tag: Some(t as u64) };
                        prop_assert_eq!(vt.lookup_on(t, &view), own.lookup(&located));
                    }
                }
                counts[t] = c.rule_count();
            }
            let mut owned = vec![0; configs.len()];
            for vt in versions.tables.values() {
                vt.count_rules(&mut owned);
            }
            prop_assert_eq!(owned, counts, "owner sets count every configuration's rules");
        }
    }

    /// `tables` as `(configuration, rules)` pairs for the merge.
    fn rule_lists(tables: &[FlowTable]) -> Vec<(usize, Vec<Rule>)> {
        tables.iter().map(|t| t.iter().cloned().collect()).enumerate().collect()
    }

    fn fwd(dst: u64, out: u64) -> Rule {
        Rule::new(
            Match::new().with(Field::IpDst, dst),
            ActionSet::single(Action::assign(Field::Port, out)),
        )
    }

    /// Owner sets have no 64-configuration ceiling: over 130
    /// configurations, each adding one rule, every rule is stored once and
    /// owned by the suffix of configurations that hold it.
    #[test]
    fn owner_sets_span_more_than_one_word() {
        let tables: Vec<FlowTable> =
            (0..130u64).map(|k| FlowTable::from_rules((0..=k).map(|d| fwd(d, d % 4)))).collect();
        let vt = VersionedTable::merge(130, rule_lists(&tables));
        assert_eq!(vt.len(), 130);
        for i in [0usize, 63, 64, 100, 129] {
            assert_eq!(vt.owners(i).collect::<Vec<_>>(), (i..130).collect::<Vec<_>>());
            assert_eq!(vt.owner_count(i), 130 - i);
        }
        assert!(vt.owns(129, 129) && !vt.owns(129, 128) && !vt.owns(0, 130));
        let pk = netkat::Packet::new().with(Field::IpDst, 100);
        assert_eq!(vt.lookup_on(99, &pk), None);
        assert_eq!(vt.lookup_on(100, &pk), Some(&fwd(100, 0)));
        assert_eq!(vt.table(129), Some(tables[129].clone()));
        assert!(vt.to_string().starts_with("[  0] {0..=129} "), "{vt}");
    }

    /// Ranges build the same table the merge finds for a chain whose
    /// rules each live for a contiguous run of configurations; empty
    /// ranges store nothing.
    #[test]
    fn ranges_agree_with_the_merge() {
        let ranged = VersionedTable::from_ranges(
            4,
            [(fwd(1, 1), 0..4), (fwd(2, 2), 1..3), (fwd(9, 9), 2..2), (fwd(3, 3), 2..4)],
        );
        let tables: Vec<FlowTable> = (0..4)
            .map(|k| ranged.table(k).expect("every configuration installs the table"))
            .collect();
        assert_eq!(tables[0], FlowTable::from_rules([fwd(1, 1)]));
        assert_eq!(tables[2], FlowTable::from_rules([fwd(1, 1), fwd(2, 2), fwd(3, 3)]));
        let merged = VersionedTable::merge(4, rule_lists(&tables));
        assert_eq!(ranged.len(), 3);
        assert_eq!(merged.to_string(), ranged.to_string());
    }
}
