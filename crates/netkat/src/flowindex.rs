//! Compiled, indexed lookup for prioritized exact-match flow tables.
//!
//! [`FlowTable::apply`] is a linear first-match scan — fine for the paper's
//! hand-built examples, but it dominates per-switch forwarding cost once
//! generated topologies push tables past a hundred rules (the `fig18` scale
//! sweep). The tables this workspace compiles have heavy *structure*,
//! though: the global compiler and the routing synthesizer emit long
//! priority runs of rules constraining the *same* field set (e.g. hundreds
//! of `ip_dst=h → port` rules back to back). A [`CompiledTable`] exploits
//! that structure:
//!
//! * the rule list is split into maximal contiguous priority runs whose
//!   rules constrain the same fields (the run's *signature*);
//! * long runs become hash segments: a fingerprint of the run's
//!   `(value, …)` tuple maps straight to the first rule carrying it;
//! * short or all-wildcard runs stay linear scans.
//!
//! First-match semantics are preserved *exactly* — within a hash segment
//! the lowest-priority-index rule wins ties, fingerprint collisions fall
//! back to scanning the run, and a packet missing one of a segment's
//! signature fields skips the whole segment (an exact-match test on an
//! absent field always fails). [`FlowTable::apply`]/[`FlowTable::lookup`]
//! remain the executable reference semantics; the differential property
//! tests below assert `CompiledTable ≡ FlowTable` on randomized tables.
//!
//! # Examples
//!
//! ```
//! use netkat::{ActionSet, Field, FlowTable, Match, Packet, Rule};
//! let table = FlowTable::from_rules((0..64).map(|h| {
//!     Rule::new(Match::new().with(Field::IpDst, h), ActionSet::pass())
//! }));
//! let compiled = table.compile();
//! let pk = Packet::new().with(Field::IpDst, 17);
//! assert_eq!(compiled.apply(&pk), table.apply(&pk));
//! assert_eq!(compiled.lookup_index(&pk), Some(17));
//! ```

#[cfg(test)]
use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::field::{Field, Value};
use crate::flowtable::{FlowTable, Rule};
use crate::packet::{FieldReader, Packet};

/// Which lookup implementation a data plane dispatches through: always the
/// compiled index. [`FlowTable`]'s linear scan is the executable spec the
/// index is tested against, not a production path. The type stays because
/// the benchmark harness names it in its deployment knobs and prints its
/// label.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LookupPath {
    /// The compiled index: [`CompiledTable`].
    #[default]
    Indexed,
}

impl LookupPath {
    /// The label used in benchmark output.
    pub fn label(&self) -> &'static str {
        "indexed"
    }
}

/// Minimum run length worth a hash segment; shorter runs scan faster than
/// they hash.
const HASH_RUN_MIN: usize = 4;

/// A maximal contiguous priority run of rules, with its lookup strategy.
#[derive(Clone, Debug)]
enum Segment {
    /// Linear first-match scan over `rules[start..end]` (short or
    /// wildcard-heavy runs).
    Scan {
        /// First rule index of the run.
        start: u32,
        /// One past the last rule index of the run.
        end: u32,
    },
    /// Hashed exact-match over a run whose rules share one signature.
    Hash(HashSegment),
}

/// A hash segment: every rule in `rules[start..end]` constrains exactly
/// the fields in `fields`, so a value-tuple fingerprint resolves the
/// first match in O(1).
#[derive(Clone, Debug)]
struct HashSegment {
    /// The signature: the fields every rule in the run constrains, in
    /// field order.
    fields: Vec<Field>,
    /// For each signature field: its slot in the table's prefetch cache
    /// (see [`CompiledTable::prefetch`]), in the same order as `fields`.
    slots: Vec<u16>,
    /// First rule index of the run.
    start: u32,
    /// One past the last rule index of the run.
    end: u32,
    /// Fingerprint of a rule's value tuple → the first (highest-priority)
    /// rule index carrying that tuple. Collisions are resolved at lookup
    /// time by verifying the candidate and falling back to a run scan.
    map: FingerprintMap,
    /// `(rule, next rule with the same fingerprint)` pairs, sorted by the
    /// first index: the rest of each fingerprint's rules after the one in
    /// `map`, which [`CompiledTable::lookup_index_from`] follows to resume
    /// mid-run. Empty unless the run repeats a fingerprint.
    chain: Vec<(u32, u32)>,
}

/// Fingerprints are already uniformly mixed, so the map skips SipHash and
/// uses the key bits directly.
type FingerprintMap = HashMap<u64, u32, BuildHasherDefault<IdentityHasher>>;

/// A hasher that passes 8-byte keys through unchanged — sound here because
/// every key is a [`fp_mix`] output (avalanched), never attacker-chosen.
/// Shared with the packet arena's fingerprint map.
#[derive(Clone, Debug, Default)]
pub(crate) struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; fold bytes for completeness.
        for &b in bytes {
            self.0 = (self.0 << 8) | b as u64;
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

impl HashSegment {
    /// The fingerprint of the packet's values on this segment's signature,
    /// or `None` if the packet lacks one of the fields (in which case no
    /// rule in the run can match: each tests that field).
    fn fingerprint_of<R: FieldReader>(&self, pk: &R) -> Option<u64> {
        let mut h = FP_SEED;
        for &f in &self.fields {
            h = fp_mix(h, pk.read(f)?);
        }
        Some(h)
    }

    /// [`fingerprint_of`](HashSegment::fingerprint_of) against the
    /// table-wide prefetch cache instead of the packet: the values were
    /// read once up front, so a multi-segment walk never re-reads a
    /// field.
    fn fingerprint_cached(&self, cache: &[Option<Value>; PREFETCH_CAP]) -> Option<u64> {
        let mut h = FP_SEED;
        for &slot in &self.slots {
            h = fp_mix(h, cache[slot as usize]?);
        }
        Some(h)
    }

    /// The rule after `rule` carrying the same fingerprint, if any.
    fn chain_next(&self, rule: u32) -> Option<u32> {
        self.chain.binary_search_by_key(&rule, |&(k, _)| k).ok().map(|i| self.chain[i].1)
    }
}

/// Capacity of the stack-allocated prefetch cache. Tables whose hash
/// segments together constrain more distinct fields than this (only
/// possible with many `Custom` fields) fall back to per-segment reads.
const PREFETCH_CAP: usize = 16;

pub(crate) const FP_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// One round of a SplitMix64-style mixer, chaining `value` into `h`.
pub(crate) fn fp_mix(h: u64, value: Value) -> u64 {
    let mut z = h ^ value.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = z.wrapping_add(FP_SEED);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let h = z ^ (z >> 31);
    #[cfg(test)]
    let h = h & FP_TEST_MASK.with(Cell::get);
    h
}

#[cfg(test)]
thread_local! {
    /// Test-only narrowing of every fingerprint, so property tests can
    /// force collisions on demand (a 2-bit mask leaves four buckets).
    static FP_TEST_MASK: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// Fingerprint probe outcomes of hash-segment lookups, tallied by the
/// caller: a [`CompiledTable`] is immutable once built, so one table can
/// serve several readers (a data plane and a checker) across threads,
/// each keeping its own count.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LookupStats {
    /// Hash-segment probes resolved by a confirmed fingerprint hit.
    pub fp_hits: u64,
    /// Hash-segment probes whose fingerprint candidate did not match (a
    /// collision), so the run was decided by a scan.
    pub fp_fallbacks: u64,
}

/// A flow table compiled for fast lookup.
///
/// Built once from a rule list in priority order; owns the rules plus the
/// segment index. Lookup results are *identical* to the source table's
/// — see the module docs for the construction and the differential tests.
#[derive(Clone, Debug, Default)]
pub struct CompiledTable {
    rules: Vec<Rule>,
    segments: Vec<Segment>,
    /// The union of every hash segment's signature, deduplicated in field
    /// order. When two or more hash segments exist (e.g. routing runs
    /// split by a differently-shaped rule), a
    /// lookup reads each of these fields **once** into a stack cache and
    /// fingerprints every segment from it, instead of re-reading the
    /// packet per segment.
    prefetch: Vec<Field>,
    /// Use the prefetch cache? (≥ 2 hash segments and the union fits
    /// [`PREFETCH_CAP`]; otherwise per-segment reads are cheaper.)
    prefetched: bool,
}

/// Splits `rules` into signature runs: long same-signature runs become
/// hash segments, and adjacent scan runs are merged into one segment.
fn segment_runs(rules: &[Rule]) -> Vec<Segment> {
    let hi = rules.len();
    let mut segments: Vec<Segment> = Vec::new();
    let mut i = 0;
    while i < hi {
        let sig: Vec<Field> = rules[i].pattern.iter().map(|(f, _)| f).collect();
        let mut j = i + 1;
        while j < hi && rules[j].pattern.iter().map(|(f, _)| f).eq(sig.iter().copied()) {
            j += 1;
        }
        if !sig.is_empty() && j - i >= HASH_RUN_MIN {
            let mut map = FingerprintMap::with_capacity_and_hasher(j - i, Default::default());
            // Last rule seen per repeated fingerprint; allocated only once a
            // fingerprint repeats.
            let mut tails = FingerprintMap::default();
            let mut chain = Vec::new();
            for (k, rule) in rules.iter().enumerate().take(j).skip(i) {
                let mut h = FP_SEED;
                for (_, v) in rule.pattern.iter() {
                    h = fp_mix(h, v);
                }
                // First match wins: duplicate tuples keep the
                // highest-priority rule; later ones hang off the chain.
                let first = *map.entry(h).or_insert(k as u32);
                if first != k as u32 {
                    let tail = tails.insert(h, k as u32).unwrap_or(first);
                    chain.push((tail, k as u32));
                }
            }
            chain.sort_unstable();
            segments.push(Segment::Hash(HashSegment {
                fields: sig,
                slots: Vec::new(),
                start: i as u32,
                end: j as u32,
                map,
                chain,
            }));
        } else {
            // Merge adjacent scan runs into one segment.
            match segments.last_mut() {
                Some(Segment::Scan { end, .. }) if *end == i as u32 => *end = j as u32,
                _ => segments.push(Segment::Scan { start: i as u32, end: j as u32 }),
            }
        }
        i = j;
    }
    segments
}

impl CompiledTable {
    /// Compiles a table: [`from_rules`](CompiledTable::from_rules) on a
    /// copy of its rules.
    pub fn compile(table: &FlowTable) -> CompiledTable {
        CompiledTable::from_rules(table.iter().cloned())
    }

    /// Compiles rules in priority order (highest first), taking ownership
    /// of them: splits them into signature runs, hashes the long ones, and
    /// derives the cross-segment field prefetch.
    pub fn from_rules<I: IntoIterator<Item = Rule>>(rules: I) -> CompiledTable {
        let rules: Vec<Rule> = rules.into_iter().collect();
        let mut segments = segment_runs(&rules);
        let mut prefetch_set: BTreeSet<Field> = BTreeSet::new();
        let mut hash_segments = 0usize;
        for segment in &segments {
            if let Segment::Hash(seg) = segment {
                hash_segments += 1;
                prefetch_set.extend(seg.fields.iter().copied());
            }
        }
        let prefetch: Vec<Field> = prefetch_set.into_iter().collect();
        let prefetched = hash_segments >= 2 && prefetch.len() <= PREFETCH_CAP;
        if prefetched {
            for segment in &mut segments {
                if let Segment::Hash(seg) = segment {
                    seg.slots = seg
                        .fields
                        .iter()
                        .map(|f| {
                            prefetch.iter().position(|p| p == f).expect("field in union") as u16
                        })
                        .collect();
                }
            }
        }
        CompiledTable { rules, segments, prefetch, prefetched }
    }

    /// The index of the first matching rule for `pk`, exactly as
    /// [`FlowTable::lookup_index`] computes it.
    pub fn lookup_index(&self, pk: &Packet) -> Option<usize> {
        self.lookup_index_on(pk)
    }

    /// [`lookup_index`](CompiledTable::lookup_index) against any field
    /// source — e.g. the simulator's zero-copy
    /// [`LocatedView`](crate::LocatedView). With the prefetch active,
    /// every field any hash segment needs is read exactly once.
    pub fn lookup_index_on<R: FieldReader>(&self, pk: &R) -> Option<usize> {
        self.lookup_index_tallied(pk, &mut LookupStats::default())
    }

    /// [`lookup_index_on`](CompiledTable::lookup_index_on), adding the
    /// hash-segment probe outcomes to `stats`.
    pub fn lookup_index_tallied<R: FieldReader>(
        &self,
        pk: &R,
        stats: &mut LookupStats,
    ) -> Option<usize> {
        // The cache (and its initialization cost) exists only on the
        // prefetched path; single-segment tables go straight to
        // per-segment reads.
        if self.prefetched {
            let mut cache = [None::<Value>; PREFETCH_CAP];
            for (slot, &f) in self.prefetch.iter().enumerate() {
                cache[slot] = pk.read(f);
            }
            self.walk_segments(pk, stats, |seg| seg.fingerprint_cached(&cache))
        } else {
            self.walk_segments(pk, stats, |seg| seg.fingerprint_of(pk))
        }
    }

    /// The segment walk, generic over where hash fingerprints come from
    /// (the prefetch cache or direct packet reads).
    fn walk_segments<R: FieldReader>(
        &self,
        pk: &R,
        stats: &mut LookupStats,
        fingerprint: impl Fn(&HashSegment) -> Option<u64>,
    ) -> Option<usize> {
        for segment in &self.segments {
            match segment {
                Segment::Scan { start, end } => {
                    if let Some(i) = self.scan(*start, *end, pk) {
                        return Some(i);
                    }
                }
                Segment::Hash(seg) => {
                    let Some(fp) = fingerprint(seg) else { continue };
                    let Some(&candidate) = seg.map.get(&fp) else { continue };
                    if self.rules[candidate as usize].pattern.matches_on(pk) {
                        stats.fp_hits += 1;
                        return Some(candidate as usize);
                    }
                    // Fingerprint collision: the run still decides by scan.
                    stats.fp_fallbacks += 1;
                    if let Some(i) = self.scan(seg.start, seg.end, pk) {
                        return Some(i);
                    }
                }
            }
        }
        None
    }

    /// The index of the first rule at or after `start` that matches `pk`:
    /// [`lookup_index_on`](CompiledTable::lookup_index_on) with the rules
    /// before `start` removed. Calling it again from one past each hit
    /// walks every matching rule in priority order, which is how a table
    /// whose rules belong to different owners (a union of several tables)
    /// resolves each owner's first match.
    ///
    /// Segments ending at or before `start` are skipped outright. In a
    /// hash segment the fingerprint chain resumes at the first rule with
    /// the packet's fingerprint at or after `start`, so a run is never
    /// rescanned; collisions are told apart by matching each candidate.
    pub fn lookup_index_from<R: FieldReader>(&self, start: usize, pk: &R) -> Option<usize> {
        self.lookup_index_from_tallied(start, pk, &mut LookupStats::default())
    }

    /// [`lookup_index_from`](CompiledTable::lookup_index_from), adding the
    /// hash-segment probe outcomes to `stats` as
    /// [`lookup_index_tallied`](CompiledTable::lookup_index_tallied) does:
    /// a segment whose first candidate at or after `start` matches is a
    /// hit, one whose first such candidate does not (a collision) is a
    /// fallback. From `start = 0` both walks tally alike.
    pub fn lookup_index_from_tallied<R: FieldReader>(
        &self,
        start: usize,
        pk: &R,
        stats: &mut LookupStats,
    ) -> Option<usize> {
        let start = u32::try_from(start).ok()?;
        let seg_end = |s: &Segment| match s {
            Segment::Scan { end, .. } => *end,
            Segment::Hash(seg) => seg.end,
        };
        let first = self.segments.partition_point(|s| seg_end(s) <= start);
        for segment in &self.segments[first..] {
            match segment {
                Segment::Scan { start: lo, end } => {
                    if let Some(i) = self.scan((*lo).max(start), *end, pk) {
                        return Some(i);
                    }
                }
                Segment::Hash(seg) => {
                    let Some(fp) = seg.fingerprint_of(pk) else { continue };
                    let mut candidate = seg.map.get(&fp).copied();
                    let mut probes = 0;
                    while let Some(i) = candidate {
                        if i >= start {
                            probes += 1;
                            if self.rules[i as usize].pattern.matches_on(pk) {
                                if probes == 1 {
                                    stats.fp_hits += 1;
                                } else {
                                    stats.fp_fallbacks += 1;
                                }
                                return Some(i as usize);
                            }
                        }
                        candidate = seg.chain_next(i);
                    }
                    if probes > 0 {
                        stats.fp_fallbacks += 1;
                    }
                }
            }
        }
        None
    }

    /// The rule at priority index `i` (as returned by the lookups).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn rule(&self, i: usize) -> &Rule {
        &self.rules[i]
    }

    fn scan<R: FieldReader>(&self, start: u32, end: u32, pk: &R) -> Option<usize> {
        self.rules[start as usize..end as usize]
            .iter()
            .position(|r| r.pattern.matches_on(pk))
            .map(|i| start as usize + i)
    }

    /// The first matching rule for `pk` (the indexed [`FlowTable::lookup`]).
    pub fn lookup(&self, pk: &Packet) -> Option<&Rule> {
        self.lookup_index(pk).map(|i| &self.rules[i])
    }

    /// [`lookup`](CompiledTable::lookup) against any field source.
    pub fn lookup_on<R: FieldReader>(&self, pk: &R) -> Option<&Rule> {
        self.lookup_index_on(pk).map(|i| &self.rules[i])
    }

    /// Applies the table through the index: the output packets of the
    /// first matching rule, or the empty set (the indexed
    /// [`FlowTable::apply`]).
    pub fn apply(&self, pk: &Packet) -> BTreeSet<Packet> {
        match self.lookup(pk) {
            Some(rule) => rule.actions.apply(pk),
            None => BTreeSet::new(),
        }
    }

    /// Applies the table through the index, appending the outputs to `out`
    /// in the same order as [`apply`](CompiledTable::apply)'s set
    /// iteration (the indexed [`FlowTable::apply_into`]).
    pub fn apply_into(&self, pk: &Packet, out: &mut Vec<Packet>) {
        if let Some(rule) = self.lookup(pk) {
            rule.actions.apply_into(pk, out);
        }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Iterates over the rules in priority order.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> + '_ {
        self.rules.iter()
    }

    /// Returns `true` if the table has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Number of segments (hash + scan) the table splits into.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Number of rules reachable through hash segments (the rest are
    /// scanned).
    pub fn hashed_rule_count(&self) -> usize {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Hash(seg) => (seg.end - seg.start) as usize,
                Segment::Scan { .. } => 0,
            })
            .sum()
    }
}

impl From<&FlowTable> for CompiledTable {
    fn from(table: &FlowTable) -> CompiledTable {
        CompiledTable::compile(table)
    }
}

impl FlowTable {
    /// Compiles this table into an indexed [`CompiledTable`].
    pub fn compile(&self) -> CompiledTable {
        CompiledTable::compile(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, ActionSet};
    use crate::flowtable::Match;

    fn assert_equivalent(table: &FlowTable, pk: &Packet) {
        let compiled = table.compile();
        assert_eq!(compiled.lookup_index(pk), table.lookup_index(pk), "lookup index on {pk}");
        assert_eq!(compiled.apply(pk), table.apply(pk), "apply on {pk}");
    }

    fn exact(field: Field, v: Value, out: u64) -> Rule {
        Rule::new(Match::new().with(field, v), ActionSet::single(Action::assign(Field::Port, out)))
    }

    #[test]
    fn empty_table_drops_on_both_paths() {
        let table = FlowTable::new();
        let compiled = table.compile();
        assert!(compiled.is_empty());
        assert_eq!(compiled.segment_count(), 0);
        for pk in [Packet::new(), Packet::new().with(Field::IpDst, 3)] {
            assert_eq!(compiled.lookup_index(&pk), None);
            assert!(compiled.apply(&pk).is_empty());
            assert_equivalent(&table, &pk);
        }
    }

    #[test]
    fn all_wildcard_first_rule_shadows_everything() {
        // Rule 0 matches every packet; the hashable run after it is dead.
        let mut rules = vec![Rule::new(Match::new(), ActionSet::pass())];
        rules.extend((0..16).map(|h| exact(Field::IpDst, h, 1)));
        let table = FlowTable::from_rules(rules);
        let compiled = table.compile();
        assert_eq!(compiled.hashed_rule_count(), 16);
        for h in 0..20 {
            let pk = Packet::new().with(Field::IpDst, h);
            assert_eq!(compiled.lookup_index(&pk), Some(0));
            assert_equivalent(&table, &pk);
        }
        assert_equivalent(&table, &Packet::new());
    }

    #[test]
    fn duplicate_patterns_first_wins_in_hash_and_scan_runs() {
        // Hash run: 6 rules, two carrying the same pattern.
        let mut rules: Vec<Rule> = (0..3).map(|h| exact(Field::IpDst, h, h + 1)).collect();
        rules.push(exact(Field::IpDst, 1, 99)); // duplicate of rules[1], lower priority
        rules.extend((3..5).map(|h| exact(Field::IpDst, h, h + 1)));
        let hashed = FlowTable::from_rules(rules.clone());
        assert!(hashed.compile().hashed_rule_count() >= 6);
        let pk = Packet::new().with(Field::IpDst, 1);
        assert_eq!(hashed.compile().lookup_index(&pk), Some(1));
        assert_equivalent(&hashed, &pk);
        // Scan run: same duplicate below the hash threshold.
        let scanned = FlowTable::from_rules([exact(Field::Vlan, 7, 1), exact(Field::Vlan, 7, 2)]);
        assert_eq!(scanned.compile().hashed_rule_count(), 0);
        let pk = Packet::new().with(Field::Vlan, 7);
        assert_eq!(scanned.compile().lookup(&pk), scanned.lookup(&pk));
        assert_equivalent(&scanned, &pk);
    }

    #[test]
    fn multicast_rule_emits_multiple_packets_on_both_paths() {
        let fanout = ActionSet::from_iter([
            Action::assign(Field::Port, 1),
            Action::assign(Field::Port, 2).set(Field::Vlan, 9),
        ]);
        let mut rules: Vec<Rule> = (0..8).map(|h| exact(Field::IpDst, h, h)).collect();
        rules[5] = Rule::new(Match::new().with(Field::IpDst, 5), fanout);
        let table = FlowTable::from_rules(rules);
        let pk = Packet::new().with(Field::IpDst, 5);
        assert_eq!(table.compile().apply(&pk).len(), 2);
        assert_equivalent(&table, &pk);
    }

    #[test]
    fn match_add_contradiction_leaves_pattern_usable() {
        // The contradiction path: `add` refuses and leaves the match as-is,
        // so the resulting rule still hashes and matches identically.
        let mut m = Match::new().with(Field::IpDst, 4);
        assert!(!m.add(Field::IpDst, 5), "contradiction must be rejected");
        assert_eq!(m.get(Field::IpDst), Some(4));
        let mut rules: Vec<Rule> = (0..6).map(|h| exact(Field::IpDst, h, h)).collect();
        rules.insert(0, Rule::new(m, ActionSet::pass()));
        let table = FlowTable::from_rules(rules);
        for h in [4u64, 5] {
            assert_equivalent(&table, &Packet::new().with(Field::IpDst, h));
        }
    }

    #[test]
    fn packet_missing_a_signature_field_skips_the_segment() {
        let mut rules: Vec<Rule> = (0..8)
            .map(|h| {
                Rule::new(
                    Match::new().with(Field::IpDst, h).with(Field::Vlan, 1),
                    ActionSet::pass(),
                )
            })
            .collect();
        rules.push(Rule::new(Match::new(), ActionSet::single(Action::assign(Field::Port, 9))));
        let table = FlowTable::from_rules(rules);
        // No Vlan field: only the trailing wildcard can match.
        let pk = Packet::new().with(Field::IpDst, 3);
        assert_eq!(table.compile().lookup_index(&pk), Some(8));
        assert_equivalent(&table, &pk);
    }

    #[test]
    fn prefetch_activates_on_multi_segment_tables_and_agrees() {
        // Two hash runs over different signatures plus a trailing
        // wildcard: the prefetch union is {Vlan, IpDst}; packets hitting
        // either run, missing one union field, or missing both must all
        // resolve exactly as the linear reference does.
        let mut rules: Vec<Rule> = (0..8).map(|h| exact(Field::IpDst, h, h)).collect();
        rules.extend((0..8).map(|v| exact(Field::Vlan, v, v)));
        rules.push(Rule::new(Match::new(), ActionSet::single(Action::assign(Field::Port, 9))));
        let table = FlowTable::from_rules(rules);
        for pk in [
            Packet::new().with(Field::IpDst, 3),
            Packet::new().with(Field::Vlan, 5),
            Packet::new().with(Field::IpDst, 3).with(Field::Vlan, 5),
            Packet::new().with(Field::TcpSrc, 1),
            Packet::new(),
        ] {
            assert_equivalent(&table, &pk);
        }
        // Single-run tables skip the cache (nothing to share across
        // segments) and still agree.
        let single = FlowTable::from_rules((0..8).map(|h| exact(Field::IpDst, h, h)));
        assert_equivalent(&single, &Packet::new().with(Field::IpDst, 2));
    }

    /// Hits and collisions are tallied on both walks: with real
    /// fingerprints every probe of an exact-match run hits; with
    /// fingerprints narrowed to two bits, eight rules share four buckets,
    /// so at least four probes meet a collision first and fall back.
    #[test]
    fn tallies_count_hits_and_collision_fallbacks() {
        let table = FlowTable::from_rules((0..8).map(|h| exact(Field::IpDst, h, h)));
        for (mask, clean) in [(u64::MAX, true), (0b11, false)] {
            FP_TEST_MASK.with(|m| m.set(mask));
            let compiled = table.compile();
            let (mut on, mut from) = (LookupStats::default(), LookupStats::default());
            for h in 0..8 {
                let pk = Packet::new().with(Field::IpDst, h);
                assert_eq!(compiled.lookup_index_tallied(&pk, &mut on), Some(h as usize));
                assert_eq!(compiled.lookup_index_from_tallied(0, &pk, &mut from), Some(h as usize));
            }
            assert_eq!(on, from);
            assert_eq!(on.fp_hits + on.fp_fallbacks, 8, "one outcome per probe");
            if clean {
                assert_eq!(on.fp_fallbacks, 0);
            } else {
                assert!(on.fp_fallbacks >= 4, "{on:?}");
            }
        }
        FP_TEST_MASK.with(|m| m.set(u64::MAX));
        // A resumed walk past every candidate probes nothing.
        let mut stats = LookupStats::default();
        let pk = Packet::new().with(Field::IpDst, 3);
        assert_eq!(table.compile().lookup_index_from_tallied(4, &pk, &mut stats), None);
        assert_eq!(stats, LookupStats::default());
    }

    #[test]
    fn segments_split_on_signature_change() {
        let mut rules: Vec<Rule> = (0..8).map(|h| exact(Field::IpDst, h, h)).collect();
        rules.extend((0..8).map(|v| exact(Field::Vlan, v, v)));
        rules.push(Rule::drop_all());
        let compiled = FlowTable::from_rules(rules).compile();
        // Two hash runs plus the trailing wildcard scan.
        assert_eq!(compiled.segment_count(), 3);
        assert_eq!(compiled.hashed_rule_count(), 16);
        assert_eq!(compiled.len(), 17);
    }

    #[test]
    fn indexed_lookup_label_and_default() {
        assert_eq!(LookupPath::default(), LookupPath::Indexed);
        assert_eq!(LookupPath::Indexed.label(), "indexed");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::action::{Action, ActionSet};
    use crate::flowtable::Match;
    use crate::packet::{Loc, LocatedView};
    use proptest::prelude::*;

    /// A small field universe keeps random packets colliding with random
    /// rules often enough to exercise hits, shadows, and misses alike.
    const FIELDS: [Field; 5] = [Field::Port, Field::Vlan, Field::IpSrc, Field::IpDst, Field::Tag];

    fn arb_signature() -> impl Strategy<Value = Vec<Field>> {
        proptest::collection::vec(0usize..FIELDS.len(), 0..4).prop_map(|ix| {
            let mut fields: Vec<Field> = ix.into_iter().map(|i| FIELDS[i]).collect();
            fields.sort();
            fields.dedup();
            fields
        })
    }

    fn arb_actions() -> impl Strategy<Value = ActionSet> {
        prop_oneof![
            Just(ActionSet::drop()),
            Just(ActionSet::pass()),
            (0usize..FIELDS.len(), 0u64..4)
                .prop_map(|(i, v)| ActionSet::single(Action::assign(FIELDS[i], v))),
            (0usize..FIELDS.len(), 0u64..4, 0usize..FIELDS.len(), 0u64..4).prop_map(
                |(i, v, j, w)| {
                    // Multicast: two actions (which may coincide).
                    ActionSet::from_iter([
                        Action::assign(FIELDS[i], v),
                        Action::assign(FIELDS[j], w),
                    ])
                }
            ),
        ]
    }

    fn rule_from(sig: &[Field], values: &[Value], actions: ActionSet) -> Rule {
        let pattern: Match = sig.iter().copied().zip(values.iter().copied()).collect();
        Rule::new(pattern, actions)
    }

    /// Fully random rules: signatures change rule to rule, so compiled
    /// tables are scan-heavy with occasional short hash runs.
    fn arb_rules_random() -> impl Strategy<Value = Vec<Rule>> {
        let rule = (arb_signature(), proptest::collection::vec(0u64..4, 4), arb_actions())
            .prop_map(|(sig, vals, actions)| rule_from(&sig, &vals, actions));
        proptest::collection::vec(rule, 0..48)
    }

    /// Blocky rules: a few long same-signature runs (up to 8 × 64 = 512
    /// rules), the shape the compilers emit and the index hashes.
    fn arb_rules_blocky() -> impl Strategy<Value = Vec<Rule>> {
        let block = (
            arb_signature(),
            proptest::collection::vec(
                (proptest::collection::vec(0u64..6, 4), arb_actions()),
                1..65,
            ),
        )
            .prop_map(|(sig, rows)| {
                rows.into_iter()
                    .map(|(vals, actions)| rule_from(&sig, &vals, actions))
                    .collect::<Vec<Rule>>()
            });
        proptest::collection::vec(block, 1..9)
            .prop_map(|blocks| blocks.into_iter().flatten().collect())
    }

    fn arb_table() -> impl Strategy<Value = FlowTable> {
        prop_oneof![
            arb_rules_random().prop_map(FlowTable::from_rules),
            arb_rules_blocky().prop_map(FlowTable::from_rules),
        ]
    }

    fn arb_packet() -> impl Strategy<Value = Packet> {
        proptest::collection::vec((0usize..FIELDS.len(), 0u64..6), 0..5)
            .prop_map(|fs| fs.into_iter().map(|(i, v)| (FIELDS[i], v)).collect())
    }

    /// Recipes for packets *derived from the table*: take rule
    /// `pick % len`'s own pattern (a guaranteed candidate hit) and
    /// optionally overwrite one field — producing near-misses, shadowed
    /// hits, and wildcard fallthroughs.
    fn arb_derivations() -> impl Strategy<Value = Vec<(usize, Option<(usize, Value)>)>> {
        proptest::collection::vec(
            (0usize..4096, proptest::option::of((0usize..FIELDS.len(), 0u64..6))),
            0..6,
        )
    }

    fn derived_packets(
        table: &FlowTable,
        picks: &[(usize, Option<(usize, Value)>)],
    ) -> Vec<Packet> {
        let rules: Vec<&Rule> = table.iter().collect();
        if rules.is_empty() {
            return Vec::new();
        }
        picks
            .iter()
            .map(|&(pick, tweak)| {
                let mut pk: Packet = rules[pick % rules.len()].pattern.iter().collect();
                if let Some((i, v)) = tweak {
                    pk.set(FIELDS[i], v);
                }
                pk
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // The core correctness gate: `CompiledTable::apply` is
        // extensionally equal to the reference `FlowTable::apply`.
        #[test]
        fn compiled_apply_equals_reference(
            table in arb_table(),
            pks in proptest::collection::vec(arb_packet(), 1..8),
            picks in arb_derivations(),
        ) {
            let compiled = table.compile();
            prop_assert_eq!(compiled.len(), table.len());
            for pk in pks.iter().chain(derived_packets(&table, &picks).iter()) {
                prop_assert_eq!(compiled.apply(pk), table.apply(pk), "apply diverged on {}", pk);
            }
        }

        // The index resolves to the *same rule index* as the reference
        // linear scan — not just an extensionally equal rule. The data
        // planes' read path, a zero-copy `LocatedView` that overrides the
        // location and (optionally) the tag, must resolve exactly as the
        // spec does on the materialized located, tagged packet.
        #[test]
        fn compiled_lookup_index_equals_reference(
            table in arb_table(),
            pks in proptest::collection::vec(arb_packet(), 1..8),
            picks in arb_derivations(),
            sw in 0u64..6,
            pt in 0u64..6,
            tag in proptest::option::of(0u64..6),
        ) {
            let compiled = table.compile();
            for pk in pks.iter().chain(derived_packets(&table, &picks).iter()) {
                let want = table.lookup_index(pk);
                prop_assert_eq!(compiled.lookup_index(pk), want, "index diverged on {}", pk);
                prop_assert_eq!(
                    compiled.lookup(pk),
                    table.lookup(pk),
                    "rule diverged on {}", pk
                );
                let loc = Loc::new(sw, pt);
                let view = LocatedView { base: pk, loc, tag };
                let mut located = pk.clone();
                located.set_loc(loc);
                if let Some(t) = tag {
                    located.set(Field::Tag, t);
                }
                prop_assert_eq!(
                    compiled.lookup_index_on(&view),
                    table.lookup_index(&located),
                    "view index diverged on {}", located
                );
                prop_assert_eq!(
                    compiled.lookup_on(&view),
                    table.lookup(&located),
                    "view rule diverged on {}", located
                );
            }
        }

        // Resuming lookups: `lookup_index_from(start, ·)` is the linear
        // first-match scan over `rules[start..]`, from every start, on
        // random and blocky tables — first with real fingerprints, then
        // with fingerprints narrowed to two bits so nearly every lookup
        // meets a collision and follows a chain past it.
        #[test]
        fn lookup_index_from_equals_linear_scan(
            table in arb_table(),
            pks in proptest::collection::vec(arb_packet(), 1..6),
            picks in arb_derivations(),
        ) {
            let probes: Vec<Packet> =
                pks.iter().cloned().chain(derived_packets(&table, &picks)).collect();
            for mask in [u64::MAX, 0b11] {
                FP_TEST_MASK.with(|m| m.set(mask));
                let compiled = table.compile();
                for pk in &probes {
                    for start in 0..=table.len() + 1 {
                        let want =
                            (start..table.len()).find(|&i| table.rule(i).pattern.matches(pk));
                        let got = compiled.lookup_index_from(start, pk);
                        prop_assert_eq!(got, want, "from {} on {} (mask {:#x})", start, pk, mask);
                    }
                    prop_assert_eq!(compiled.lookup_index(pk), table.lookup_index(pk));
                    // Both walks tally a probe alike from the table's top.
                    let (mut on, mut from) = (LookupStats::default(), LookupStats::default());
                    let hit = compiled.lookup_index_tallied(pk, &mut on);
                    prop_assert_eq!(compiled.lookup_index_from_tallied(0, pk, &mut from), hit);
                    prop_assert_eq!(on, from, "tallies on {} (mask {:#x})", pk, mask);
                }
            }
            FP_TEST_MASK.with(|m| m.set(u64::MAX));
        }

        // Structural sanity: segments partition the rule list, and every
        // rule is reachable (hashed or scanned).
        #[test]
        fn segments_partition_rules(table in arb_rules_blocky().prop_map(FlowTable::from_rules)) {
            let compiled = table.compile();
            prop_assert!(compiled.hashed_rule_count() <= compiled.len());
            // Every rule's own pattern-packet resolves to a rule at least
            // as high priority as itself, on both paths equally.
            for (i, rule) in table.iter().enumerate() {
                let pk: Packet = rule.pattern.iter().collect();
                let got = compiled.lookup_index(&pk);
                prop_assert_eq!(got, table.lookup_index(&pk));
                prop_assert!(got.is_some_and(|g| g <= i), "rule {} unreachable", i);
            }
        }
    }
}
