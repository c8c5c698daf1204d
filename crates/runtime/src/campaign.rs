//! Rolling update campaigns: many successive event-driven updates as one
//! chain-shaped network event structure.
//!
//! The paper's case studies fire a *single* update per run. An operator's
//! day looks different: dozens of policy pushes against live traffic. A
//! campaign models that as a chain NES — events `e₀, e₁, …` with the
//! prefix-set family `{e₀}, {e₀,e₁}, …` — so update `i` can only fire
//! after updates `0..i`, the reachable event-sets are exactly the `n+1`
//! prefixes, and the whole campaign deploys through the unmodified runtime
//! (tags, digests, Theorem 1) and fits the online checker's windows for
//! `n ≤ 63`.
//!
//! A campaign is stored as the NES stores every configuration: one
//! versioned table per switch. [`campaign_nes`] takes the rules with the
//! configurations that hold them — a base rule from configuration 0, a
//! rule step `i` installs from configuration `i + 1`, until the step that
//! removes it — and never builds a per-step [`Config`].
//!
//! Each step is triggered by a packet matching a step-specific predicate at
//! a fixed location; [`campaign_mark`]/[`campaign_trigger`] provide a
//! ready-made marker scheme (a reserved `Field::Vlan` value per step) that
//! ordinary workload traffic never carries, so steps advance exactly when
//! their trigger packet arrives.

use std::ops::Range;

use edn_core::{Config, Event, EventId, EventSet, EventStructure, NetworkEventStructure};
use netkat::{Field, Loc, Packet, Pred, Rule};
use netsim::traffic::udp_packet;

/// Base `Field::Vlan` value for campaign trigger markers.
pub const CAMPAIGN_MARK_BASE: u64 = 0xCA00;

/// One step of a campaign: the event that fires it. What the step changes
/// is in the owner ranges of the rules passed to [`campaign_nes`].
#[derive(Clone, Debug)]
pub struct CampaignStep {
    /// The predicate whose arrival at `loc` fires this step.
    pub trigger: Pred,
    /// Where the trigger is detected (switch ingress).
    pub loc: Loc,
}

/// Builds the chain NES of a campaign. Configuration `k` is the one the
/// network runs once steps `0..k` have fired (event `i` is enabled only
/// after steps `0..i`): `network`'s links, hosts and table rules, plus,
/// on each switch, every `(switch, rule, live)` whose range `live` holds
/// `k`, in iteration order. So a base rule is live from 0, a rule step `i`
/// installs from `i + 1`, and a rule step `j` removes until `j + 1`.
/// Every switch `network` installs a table on, or a rule names, carries a
/// table in every configuration.
///
/// # Panics
///
/// Panics if `steps` has more than 63 entries (the event-id universe), or
/// a range reaches past configuration `steps.len()`.
pub fn campaign_nes(
    network: &Config,
    rules: impl IntoIterator<Item = (u64, Rule, Range<usize>)>,
    steps: Vec<CampaignStep>,
) -> NetworkEventStructure {
    assert!(steps.len() <= 63, "campaigns are limited to 63 steps, got {}", steps.len());
    let events: Vec<Event> = steps
        .into_iter()
        .enumerate()
        .map(|(i, s)| Event::new(EventId::new(i), s.trigger, s.loc))
        .collect();
    // The prefix-set family: {e0}, {e0,e1}, … — sequential enabling. In
    // sorted order the reachable sets are ∅ and the prefixes by length, so
    // configuration `k` is the length-`k` prefix's.
    let mut family = Vec::with_capacity(events.len());
    let mut prefix = EventSet::empty();
    for i in 0..events.len() {
        prefix = prefix.insert(EventId::new(i));
        family.push(prefix);
    }
    let es = EventStructure::new(events, family);
    NetworkEventStructure::from_rules(es, network, rules)
}

/// The `Field::Vlan` marker value identifying campaign step `i`.
pub fn campaign_mark(i: usize) -> u64 {
    CAMPAIGN_MARK_BASE + i as u64
}

/// A marker predicate for campaign step `i` (pair with the trigger host's
/// attachment as the step location).
pub fn campaign_pred(i: usize) -> Pred {
    Pred::test(Field::Vlan, campaign_mark(i))
}

/// The trigger packet for campaign step `i`: a `src → dst` datagram
/// carrying the step's marker. `dst` should be a host whose routing every
/// campaign configuration preserves, so the trigger's own trace stays
/// consistent under both the replaced and the new configuration.
pub fn campaign_trigger(src: u64, dst: u64, i: usize) -> Packet {
    udp_packet(src, dst, u64::MAX - i as u64, 0).with(Field::Vlan, campaign_mark(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{attach_online_checker, nes_engine, verify_nes_run};
    use netkat::{Action, ActionSet, FlowTable, Match};
    use netsim::{SimParams, SimTime, SimTopology, SinkHosts};
    use proptest::prelude::*;

    /// One switch (1), hosts 100/101/102 at ports 1/2/3. The base config
    /// routes only to 100; step i unlocks routing to host 100+i+1.
    fn fixture(n: usize) -> (NetworkEventStructure, SimTopology) {
        let hosts: Vec<(u64, u64)> = (0..=n as u64).map(|i| (100 + i, 1 + i)).collect();
        let mut network = Config::new();
        for &(h, pt) in &hosts {
            network.add_host(h, Loc::new(1, pt));
        }
        // Host j's rule is live from configuration j on.
        let rules = hosts.iter().enumerate().map(|(j, &(h, pt))| {
            let rule = Rule::new(
                Match::new().with(Field::IpDst, h),
                ActionSet::single(Action::assign(Field::Port, pt)),
            );
            (1, rule, j..n + 1)
        });
        let steps = (0..n)
            .map(|i| CampaignStep { trigger: campaign_pred(i), loc: Loc::new(1, 1) })
            .collect();
        let nes = campaign_nes(&network, rules, steps);
        let mut topo = SimTopology::new([1]);
        for &(h, pt) in &hosts {
            topo = topo.host(h, Loc::new(1, pt));
        }
        (nes, topo)
    }

    #[test]
    fn chain_nes_has_prefix_event_sets() {
        let (nes, _) = fixture(3);
        let sets = nes.structure().event_sets();
        assert_eq!(sets.len(), 4, "∅ plus three prefixes");
        for (k, set) in sets.iter().enumerate() {
            assert_eq!(set.iter().count(), k, "set {k} is the length-{k} prefix");
        }
    }

    #[test]
    fn steps_fire_in_order_and_unlock_routing() {
        let (nes, topo) = fixture(2);
        let mut engine =
            nes_engine(nes.clone(), topo, SimParams::default(), false, Box::new(SinkHosts));
        let handle = attach_online_checker(&mut engine, &nes).expect("fits the window");
        // Probe to 102 before any step: dropped under g(∅).
        engine.inject_at(SimTime::from_millis(1), 100, udp_packet(100, 102, 1, 0));
        // Step 0 at 10 ms, its probe at 12 ms (unlocks 101, not 102).
        engine.inject_at(SimTime::from_millis(10), 100, campaign_trigger(100, 100, 0));
        engine.inject_at(SimTime::from_millis(12), 100, udp_packet(100, 101, 2, 0));
        // Step 1 at 20 ms; now 102 is routable.
        engine.inject_at(SimTime::from_millis(20), 100, campaign_trigger(100, 100, 1));
        engine.inject_at(SimTime::from_millis(22), 100, udp_packet(100, 102, 3, 0));
        let result = engine.run_until(SimTime::from_secs(1));
        assert_eq!(result.dataplane.fired_sequence().len(), 2, "both steps fired");
        assert_eq!(result.stats.delivered_to(101).count(), 1);
        assert_eq!(result.stats.delivered_to(102).count(), 1, "only the post-step probe lands");
        verify_nes_run(&result).expect("Theorem 1 covers campaigns");
        handle.verdict().expect("online checker agrees");
    }

    #[test]
    fn out_of_order_trigger_does_not_fire() {
        let (nes, topo) = fixture(2);
        let mut engine = nes_engine(nes, topo, SimParams::default(), false, Box::new(SinkHosts));
        // Step 1's trigger arrives first: the chain forbids it.
        engine.inject_at(SimTime::from_millis(10), 100, campaign_trigger(100, 100, 1));
        let result = engine.run_until(SimTime::from_secs(1));
        assert!(result.dataplane.fired_sequence().is_empty(), "e1 needs e0 first");
    }

    /// The owner ranges of a chain of tables (`tables[k]` is configuration
    /// `k`'s), stated as a campaign states them: the common prefix and
    /// suffix of consecutive tables carry over, the old table's middle
    /// ends, and the new table's middle is inserted just before the
    /// carried-over suffix.
    fn owner_ranges(tables: &[Vec<Rule>]) -> Vec<(Rule, Range<usize>)> {
        let end = tables.len();
        let mut universe: Vec<(Rule, Range<usize>)> =
            tables[0].iter().map(|r| (r.clone(), 0..end)).collect();
        let mut alive: Vec<usize> = (0..universe.len()).collect();
        for k in 1..end {
            let (old, new) = (&tables[k - 1], &tables[k]);
            let (m, n) = (old.len(), new.len());
            let p = (0..m.min(n)).take_while(|&j| old[j] == new[j]).count();
            let s = (0..m.min(n) - p).take_while(|&j| old[m - 1 - j] == new[n - 1 - j]).count();
            for &u in &alive[p..m - s] {
                universe[u].1.end = k;
            }
            let at = if s > 0 { alive[m - s] } else { universe.len() };
            let added = n - s - p;
            universe.splice(at..at, new[p..n - s].iter().map(|r| (r.clone(), k..end)));
            let mut next = alive[..p].to_vec();
            next.extend(at..at + added);
            next.extend(alive[m - s..].iter().map(|&u| u + added));
            alive = next;
        }
        universe
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // A campaign stated as owner ranges materialises, for every
        // event-set, exactly the configuration `NetworkEventStructure::new`
        // stores for it from the full configurations. Tables draw from a
        // small pool, so rules repeat within a table and recur in
        // conflicting orders across steps; a step may leave a switch's
        // table unchanged, replace it, or empty it.
        #[test]
        fn delta_built_campaign_equals_full_configurations(
            pool in proptest::collection::vec((0u64..4, 0u64..4, any::<bool>()), 1..6),
            base in proptest::collection::vec(proptest::collection::vec(0usize..8, 0..6), 3),
            edits in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::option::of(proptest::collection::vec(0usize..8, 0..6)),
                    3,
                ),
                0..10,
            ),
        ) {
            let rule = |i: usize| {
                let (dst, out, wide) = pool[i % pool.len()];
                let pattern = if wide { Match::new() } else { Match::new().with(Field::IpDst, dst) };
                Rule::new(pattern, ActionSet::single(Action::assign(Field::Port, out)))
            };
            // tables[k][sw]: configuration k's table on switch sw.
            let mut tables: Vec<Vec<Vec<Rule>>> =
                vec![base.iter().map(|t| t.iter().map(|&i| rule(i)).collect()).collect()];
            for step in &edits {
                let prev = tables.last().expect("base").clone();
                tables.push(
                    step.iter()
                        .zip(prev)
                        .map(|(edit, old)| match edit {
                            Some(t) => t.iter().map(|&i| rule(i)).collect(),
                            None => old,
                        })
                        .collect(),
                );
            }
            let mut network = Config::new();
            for sw in 0..3 {
                network.install(sw, FlowTable::new());
            }
            network.add_host(100, Loc::new(0, 1));
            network.add_link(Loc::new(0, 2), Loc::new(1, 2));
            let mut rules = Vec::new();
            for sw in 0..3 {
                let chain: Vec<Vec<Rule>> = tables.iter().map(|t| t[sw].clone()).collect();
                rules.extend(owner_ranges(&chain).into_iter().map(|(r, live)| (sw as u64, r, live)));
            }
            let steps = (0..edits.len())
                .map(|i| CampaignStep { trigger: campaign_pred(i), loc: Loc::new(0, 1) })
                .collect();
            let delta = campaign_nes(&network, rules, steps);
            let sets = delta.event_sets();
            let configs: Vec<Config> = tables
                .iter()
                .map(|t| {
                    let mut c = network.clone();
                    for (sw, rules) in t.iter().enumerate() {
                        c.install(sw as u64, FlowTable::from_rules(rules.iter().cloned()));
                    }
                    c
                })
                .collect();
            let full = NetworkEventStructure::new(
                delta.structure().clone(),
                sets.iter().copied().zip(configs.iter().cloned()),
            )
            .expect("every prefix has a configuration");
            prop_assert_eq!(sets.len(), configs.len());
            for (k, &x) in sets.iter().enumerate() {
                prop_assert_eq!(x.len(), k, "configuration {} is the length-{} prefix's", k, k);
                prop_assert_eq!(&delta.config(x), &configs[k], "delta, configuration {}", k);
                prop_assert_eq!(&full.config(x), &configs[k], "merged, configuration {}", k);
            }
            prop_assert_eq!(delta.total_rules(), full.total_rules());
        }
    }
}
