//! Network event structures (Definition 5).

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use netkat::Rule;

use crate::config::Config;
use crate::estructure::EventStructure;
use crate::event::{Event, EventId, EventSet};
use crate::locality;
use crate::versioned::{has_bit, owner_words, set_bit, VersionedTable};

/// Errors in NES construction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NesError {
    /// A reachable event-set of the event structure has no configuration.
    MissingConfig(EventSet),
}

impl fmt::Display for NesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NesError::MissingConfig(s) => {
                write!(f, "event-set {s} has no configuration assigned")
            }
        }
    }
}

impl std::error::Error for NesError {}

/// A network event structure `(E, con, ⊢, g)`: an event structure plus a map
/// `g` from event-sets to network configurations.
///
/// The configurations are stored once, as one [`VersionedTable`] per switch
/// plus the distinct link-and-host sets, behind an [`Arc`]: cloning an NES
/// copies its event structure, not its rules, and the runtime's data plane
/// and the online checker read the same tables. Configuration `i` is the
/// `i`-th reachable event-set in sorted order, the runtime's tag `i`.
/// [`config`](NetworkEventStructure::config) materialises `g(X)` on demand.
///
/// # Examples
///
/// ```
/// use edn_core::{Config, Event, EventId, EventSet, EventStructure, NetworkEventStructure};
/// use netkat::{Loc, Pred};
/// let e0 = EventId::new(0);
/// let es = EventStructure::new(
///     vec![Event::new(e0, Pred::True, Loc::new(4, 1))],
///     [EventSet::singleton(e0)],
/// );
/// let g = [
///     (EventSet::empty(), Config::new()),
///     (EventSet::singleton(e0), Config::new()),
/// ];
/// let nes = NetworkEventStructure::new(es, g)?;
/// assert_eq!(nes.event_sets().len(), 2);
/// # Ok::<(), edn_core::NesError>(())
/// ```
#[derive(Clone, Debug)]
pub struct NetworkEventStructure {
    es: EventStructure,
    /// The reachable event-sets, sorted: configuration `i` is `g(sets[i])`.
    sets: Vec<EventSet>,
    versions: Arc<Versions>,
}

/// The configurations of an NES, each stored once.
#[derive(Debug)]
pub(crate) struct Versions {
    /// Number of configurations.
    pub configs: usize,
    /// The distinct link-and-host sets (tables-free configurations), each
    /// with the configurations that have it, as an owner bitset.
    pub networks: Vec<(Config, Vec<u64>)>,
    /// Per switch, its rules under every configuration.
    pub tables: BTreeMap<u64, VersionedTable>,
}

impl Versions {
    /// Stores `configs` (configuration `i` = `configs[i]`), merging each
    /// switch's tables and sharing equal link-and-host sets.
    pub(crate) fn merge(configs: Vec<Config>) -> Versions {
        let n = configs.len();
        let mut networks: Vec<(Config, Vec<u64>)> = Vec::new();
        for (i, c) in configs.iter().enumerate() {
            let at = match networks.iter().position(|(net, _)| net.same_network(c)) {
                Some(at) => at,
                None => {
                    networks.push((c.network(), vec![0; owner_words(n)]));
                    networks.len() - 1
                }
            };
            set_bit(&mut networks[at].1, i);
        }
        let mut per_switch: BTreeMap<u64, Vec<(usize, Vec<Rule>)>> = BTreeMap::new();
        for (i, c) in configs.into_iter().enumerate() {
            for (sw, table) in c.into_tables() {
                per_switch.entry(sw).or_default().push((i, table.into_iter().collect()));
            }
        }
        let tables = per_switch
            .into_iter()
            .map(|(sw, installed)| (sw, VersionedTable::merge(n, installed)))
            .collect();
        Versions { configs: n, networks, tables }
    }

    /// Materialises configuration `i`.
    pub(crate) fn config(&self, i: usize) -> Config {
        let (network, _) = self
            .networks
            .iter()
            .find(|(_, members)| has_bit(members, i))
            .expect("every configuration has a network");
        let mut c = network.clone();
        for (&sw, t) in &self.tables {
            if let Some(table) = t.table(i) {
                c.install(sw, table);
            }
        }
        c
    }

    /// Rules held per configuration.
    fn rule_counts(&self) -> Vec<usize> {
        let mut counts = vec![0; self.configs];
        for t in self.tables.values() {
            t.count_rules(&mut counts);
        }
        counts
    }
}

impl NetworkEventStructure {
    /// Creates an NES, validating that `g` covers every reachable event-set,
    /// and stores its configurations as versioned tables. Configurations of
    /// unreachable event-sets are not stored.
    ///
    /// # Errors
    ///
    /// Returns [`NesError::MissingConfig`] if a reachable event-set of the
    /// structure has no configuration.
    pub fn new<I: IntoIterator<Item = (EventSet, Config)>>(
        es: EventStructure,
        g: I,
    ) -> Result<NetworkEventStructure, NesError> {
        let mut g: BTreeMap<EventSet, Config> = g.into_iter().collect();
        let sets = es.event_sets();
        let mut configs = Vec::with_capacity(sets.len());
        for s in &sets {
            configs.push(g.remove(s).ok_or(NesError::MissingConfig(*s))?);
        }
        let versions = Arc::new(Versions::merge(configs));
        Ok(NetworkEventStructure { es, sets, versions })
    }

    /// Creates an NES whose configurations differ only in their rules,
    /// from the rules' owner ranges: configuration `i` (the `i`-th
    /// reachable event-set in sorted order) is `network` with, appended to
    /// each switch's table, every `(switch, rule, owners)` whose `owners`
    /// range holds `i`, in iteration order. Every switch `network` installs
    /// a table on, or a rule names, carries a table in every configuration.
    ///
    /// This is how an update campaign is stored without building each
    /// configuration: a rule installed by step `a` and removed by step `b`
    /// is owned by configurations `a..b`.
    ///
    /// # Panics
    ///
    /// Panics if an owner range reaches past the reachable event-sets.
    pub fn from_rules<I: IntoIterator<Item = (u64, Rule, Range<usize>)>>(
        es: EventStructure,
        network: &Config,
        rules: I,
    ) -> NetworkEventStructure {
        let sets = es.event_sets();
        let n = sets.len();
        let mut per_switch: BTreeMap<u64, Vec<(Rule, Range<usize>)>> = network
            .switches()
            .map(|sw| {
                let base = network.table(sw).expect("listed switches carry tables");
                (sw, base.iter().map(|r| (r.clone(), 0..n)).collect())
            })
            .collect();
        for (sw, rule, owners) in rules {
            per_switch.entry(sw).or_default().push((rule, owners));
        }
        let tables = per_switch
            .into_iter()
            .map(|(sw, entries)| (sw, VersionedTable::from_ranges(n, entries)))
            .collect();
        let mut all = vec![0; owner_words(n)];
        for i in 0..n {
            set_bit(&mut all, i);
        }
        let versions = Versions { configs: n, networks: vec![(network.network(), all)], tables };
        NetworkEventStructure { es, sets, versions: Arc::new(versions) }
    }

    /// The underlying event structure.
    pub fn structure(&self) -> &EventStructure {
        &self.es
    }

    /// The events, indexed by [`EventId`].
    pub fn events(&self) -> &[Event] {
        self.es.events()
    }

    /// The configuration `g(X)` for event-set `X`, materialised from the
    /// versioned tables.
    ///
    /// # Panics
    ///
    /// Panics if `X` is not a reachable event-set (construction guarantees
    /// coverage of reachable sets).
    pub fn config(&self, x: EventSet) -> Config {
        let i =
            self.config_index(x).unwrap_or_else(|| panic!("event-set {x} has no configuration"));
        self.versions.config(i)
    }

    /// The initial configuration `g(∅)`.
    pub fn initial_config(&self) -> Config {
        self.config(EventSet::empty())
    }

    /// The reachable event-sets (Definition 4), sorted: configuration `i`
    /// belongs to the `i`-th.
    pub fn event_sets(&self) -> Vec<EventSet> {
        self.sets.clone()
    }

    /// The index of `X`'s configuration (its position among the sorted
    /// reachable event-sets), if `X` is reachable.
    pub fn config_index(&self, x: EventSet) -> Option<usize> {
        self.sets.binary_search(&x).ok()
    }

    /// The versioned table of `switch`: its rules under every
    /// configuration, or `None` if no configuration installs one there.
    pub fn table(&self, switch: u64) -> Option<&VersionedTable> {
        self.versions.tables.get(&switch)
    }

    /// Every switch's versioned table, by switch id.
    pub fn tables(&self) -> impl Iterator<Item = (u64, &VersionedTable)> + '_ {
        self.versions.tables.iter().map(|(&sw, t)| (sw, t))
    }

    /// The shared storage the online checker steps.
    pub(crate) fn versions(&self) -> &Arc<Versions> {
        &self.versions
    }

    /// All allowed event sequences up to `max_len` (see
    /// [`EventStructure::allowed_sequences`]).
    pub fn allowed_sequences(&self, max_len: usize) -> Vec<Vec<EventId>> {
        self.es.allowed_sequences(max_len)
    }

    /// Whether the NES is locally-determined (Section 2), searching
    /// minimally-inconsistent sets up to size `max_size`.
    pub fn is_locally_determined(&self, max_size: usize) -> bool {
        locality::locally_determined(&self.es, max_size)
    }

    /// Total rule count over all configurations (for the optimizer and the
    /// evaluation tables): the sum of every stored entry's owner count.
    pub fn total_rules(&self) -> usize {
        self.tables().map(|(_, t)| (0..t.len()).map(|i| t.owner_count(i)).sum::<usize>()).sum()
    }
}

impl fmt::Display for NetworkEventStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.es)?;
        for (s, n) in self.sets.iter().zip(self.versions.rule_counts()) {
            writeln!(f, "g({s}) = configuration with {n} rules")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkat::{Loc, Pred};

    fn one_event_structure() -> EventStructure {
        let e0 = EventId::new(0);
        EventStructure::new(
            vec![Event::new(e0, Pred::True, Loc::new(4, 1))],
            [EventSet::singleton(e0)],
        )
    }

    #[test]
    fn construction_requires_total_g() {
        let es = one_event_structure();
        let err = NetworkEventStructure::new(es.clone(), [(EventSet::empty(), Config::new())])
            .unwrap_err();
        assert_eq!(err, NesError::MissingConfig(EventSet::singleton(EventId::new(0))));
        let ok = NetworkEventStructure::new(
            es,
            [
                (EventSet::empty(), Config::new()),
                (EventSet::singleton(EventId::new(0)), Config::new()),
            ],
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn config_lookup() {
        let es = one_event_structure();
        let mut c1 = Config::new();
        c1.add_host(7, Loc::new(1, 1));
        let nes = NetworkEventStructure::new(
            es,
            [
                (EventSet::empty(), Config::new()),
                (EventSet::singleton(EventId::new(0)), c1.clone()),
            ],
        )
        .unwrap();
        assert_eq!(nes.initial_config(), Config::new());
        assert_eq!(nes.config(EventSet::singleton(EventId::new(0))), c1);
    }

    #[test]
    fn locality_delegates() {
        let es = one_event_structure();
        let nes = NetworkEventStructure::new(
            es,
            [
                (EventSet::empty(), Config::new()),
                (EventSet::singleton(EventId::new(0)), Config::new()),
            ],
        )
        .unwrap();
        assert!(nes.is_locally_determined(4));
    }
}
