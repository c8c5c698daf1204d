//! The case-study applications generalized to *generated* topologies.
//!
//! The hand-written firewall and learning-switch programs (Figs. 9(a)/(b))
//! are tied to their 2- and 3-switch Fig. 8 topologies. The builders here
//! lift both applications to any connected [`GenTopology`] — fat-trees,
//! tori, rings, random graphs — by constructing the NES directly from
//! shortest-path flow tables, the same way the paper auto-generates its
//! Section 5.2 scalability programs. This is what lets the consistency
//! machinery be exercised at hundred-switch scale instead of on toys.

use edn_core::{Event, EventId, EventSet, EventStructure, NetworkEventStructure};
use edn_topo::{config_from_rules, shortest_path_rules, GenTopology};
use netkat::{Action, ActionSet, Field, Loc, Match, Pred, Rule};

/// The VLAN value stamped on pre-learning flood copies so downstream
/// switches can steer them to the shadow host without rewriting `ip_dst`.
pub const FLOOD_MARK: u64 = 1;

/// The port at `dst_sw` where traffic from the host attached at `src_at`
/// arrives, following the deterministic shortest path.
///
/// # Panics
///
/// Panics if `dst_sw` is unreachable from `src_at.sw`.
fn ingress_port(gen: &GenTopology, src_at: Loc, dst_sw: u64) -> u64 {
    if src_at.sw == dst_sw {
        return src_at.pt;
    }
    let path = gen
        .sim()
        .route(src_at.sw, dst_sw)
        .unwrap_or_else(|| panic!("no route from switch {} to {dst_sw}", src_at.sw));
    path.last().expect("distinct switches give a nonempty path").dst.pt
}

/// The output port at `sw` toward the host attached at `dst_at`.
fn port_toward(gen: &GenTopology, sw: u64, dst_at: Loc) -> u64 {
    if sw == dst_at.sw {
        return dst_at.pt;
    }
    *gen.sim()
        .next_hop_ports(dst_at.sw)
        .get(&sw)
        .unwrap_or_else(|| panic!("no route from switch {sw} to {}", dst_at.sw))
}

/// Builds a stateful firewall NES over an arbitrary generated topology.
///
/// Semantics as in Figs. 8(a)/9(a), lifted: `outside → inside` traffic is
/// blocked at `outside`'s attachment switch until `inside` has contacted
/// `outside`; the single event is `inside`'s traffic (`ip_src = inside &
/// ip_dst = outside`) arriving at `outside`'s attachment switch on the
/// shortest path's ingress port. The source conjunct matters on generated
/// topologies: shortest paths converge, so third-party traffic to `outside`
/// shares that ingress port and must not open the firewall. All other pairs
/// forward on shortest paths throughout.
///
/// # Panics
///
/// Panics if either id is not a host of `gen`, the hosts are equal, or
/// their attachment switches cannot reach each other.
pub fn firewall_nes(gen: &GenTopology, inside: u64, outside: u64) -> NetworkEventStructure {
    assert_ne!(inside, outside, "firewall endpoints must differ");
    let in_at = gen.attachment(inside).expect("inside must be a host");
    let out_at = gen.attachment(outside).expect("outside must be a host");
    let open = shortest_path_rules(gen);
    let e0 = EventId::new(0);
    let es = EventStructure::new(
        vec![Event::new(
            e0,
            Pred::test(Field::IpSrc, inside).and(Pred::test(Field::IpDst, outside)),
            Loc::new(out_at.sw, ingress_port(gen, in_at, out_at.sw)),
        )],
        [EventSet::singleton(e0)],
    );
    // Configuration 0 (∅, closed) and 1 ({e0}, open) share every routing
    // rule; only the closed one puts the drop in front of them at
    // `outside`'s switch. Stated as owner ranges, each rule is stored once.
    // Each is cloned into the table rather than moved: the synthesized
    // rules' allocations are interleaved with the route computation's, and
    // forwarding through moved rules measured 733 ns per data-plane call
    // against 583 ns through clones on the fat-tree(16) firewall
    // (`perfbench --trace 1`, 2 vCPUs).
    assert!(open.contains_key(&out_at.sw), "attachment switches carry rules");
    let network = config_from_rules(gen, open.keys().map(|&sw| (sw, Vec::new())).collect());
    let drop = Rule::new(
        Match::new().with(Field::IpSrc, outside).with(Field::IpDst, inside),
        ActionSet::drop(),
    );
    let rules = open.iter().flat_map(|(&sw, list)| {
        let closed = (sw == out_at.sw).then(|| (sw, drop.clone(), 0..1));
        closed.into_iter().chain(list.iter().map(move |r| (sw, r.clone(), 0..2)))
    });
    NetworkEventStructure::from_rules(es, &network, rules)
}

/// Builds a learning-switch NES over an arbitrary generated topology.
///
/// Semantics as in Figs. 8(b)/9(b), lifted: until `learner` has heard back
/// from `target`, traffic `learner → target` is "flooded" — a second copy,
/// stamped [`FLOOD_MARK`], is steered to the `shadow` host; once `target`'s
/// reply (`ip_src = target & ip_dst = learner`) reaches `learner`'s
/// attachment switch (the event), forwarding collapses to point-to-point
/// shortest paths. The source conjunct keeps third-party traffic to
/// `learner` on the shared ingress port from ending the flooding phase.
///
/// # Panics
///
/// Panics if the three ids are not distinct hosts of `gen`, or the relevant
/// attachment switches cannot reach each other.
pub fn learning_nes(
    gen: &GenTopology,
    learner: u64,
    target: u64,
    shadow: u64,
) -> NetworkEventStructure {
    assert!(
        learner != target && learner != shadow && target != shadow,
        "learner, target, and shadow must be distinct"
    );
    let learner_at = gen.attachment(learner).expect("learner must be a host");
    let target_at = gen.attachment(target).expect("target must be a host");
    let shadow_at = gen.attachment(shadow).expect("shadow must be a host");
    let learned = shortest_path_rules(gen);
    let mut flooding = learned.clone();
    // At the learner's switch, the target rule becomes a two-way multicast:
    // the original shortest-path copy plus a marked copy toward the shadow.
    let at_learner = flooding.get_mut(&learner_at.sw).expect("attachment switches carry rules");
    let rule = at_learner
        .iter_mut()
        .find(|r| r.pattern.get(Field::IpDst) == Some(target))
        .expect("the target is routable from the learner's switch");
    let shadow_copy = Action::assign(Field::Port, port_toward(gen, learner_at.sw, shadow_at))
        .set(Field::Vlan, FLOOD_MARK);
    rule.actions = rule.actions.union(&ActionSet::single(shadow_copy));
    // Downstream of the learner's switch, marked copies ride dedicated
    // rules toward the shadow (prepended: first match wins).
    if shadow_at.sw != learner_at.sw {
        let path = gen
            .sim()
            .route(learner_at.sw, shadow_at.sw)
            .expect("shadow is reachable from the learner's switch");
        let toward_shadow = gen.sim().next_hop_ports(shadow_at.sw);
        for link in &path {
            let sw = link.dst.sw;
            let out = if sw == shadow_at.sw { shadow_at.pt } else { toward_shadow[&sw] };
            flooding.get_mut(&sw).expect("switches on a route carry rules").insert(
                0,
                Rule::new(
                    Match::new().with(Field::Vlan, FLOOD_MARK),
                    ActionSet::single(Action::assign(Field::Port, out)),
                ),
            );
        }
    }
    let e0 = EventId::new(0);
    let es = EventStructure::new(
        vec![Event::new(
            e0,
            Pred::test(Field::IpSrc, target).and(Pred::test(Field::IpDst, learner)),
            Loc::new(learner_at.sw, ingress_port(gen, target_at, learner_at.sw)),
        )],
        [EventSet::singleton(e0)],
    );
    NetworkEventStructure::new(
        es,
        [
            (EventSet::empty(), config_from_rules(gen, flooding)),
            (EventSet::singleton(e0), config_from_rules(gen, learned)),
        ],
    )
    .expect("both event-sets have configurations")
}

#[cfg(test)]
mod tests {
    use super::*;
    use edn_topo::{fat_tree, linear, LinkProfile, TierProfile};
    use nes_runtime::{nes_engine, verify_nes_run};
    use netsim::traffic::{
        ping_outcomes, proto_packets_delivered, schedule_pings, Ping, ScenarioHosts,
        PROTO_PING_REQUEST,
    };
    use netsim::{SimParams, SimTime};

    #[test]
    fn generated_firewall_blocks_then_opens_on_a_chain() {
        let gen = linear(3, LinkProfile::default());
        let (inside, outside) = (gen.hosts()[0], gen.hosts()[2]);
        let mut engine = nes_engine(
            firewall_nes(&gen, inside, outside),
            gen.sim().clone(),
            SimParams::default(),
            false,
            Box::new(ScenarioHosts::new()),
        );
        let pings = vec![
            Ping { time: SimTime::from_millis(10), src: outside, dst: inside, id: 1 },
            Ping { time: SimTime::from_millis(100), src: inside, dst: outside, id: 2 },
            Ping { time: SimTime::from_millis(200), src: outside, dst: inside, id: 3 },
        ];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(2));
        let o = ping_outcomes(&pings, &result.stats);
        assert!(!o[0].request_delivered, "outside->inside blocked before the event");
        assert!(o[1].replied.is_some(), "inside->outside answered");
        assert!(o[2].replied.is_some(), "outside->inside allowed after the event");
        verify_nes_run(&result).expect("generated firewall run is consistent");
    }

    #[test]
    fn generated_firewall_works_across_fat_tree_pods() {
        let gen = fat_tree(4, TierProfile::default());
        // First and last host: different pods, so the path crosses the core.
        let (inside, outside) = (gen.hosts()[0], *gen.hosts().last().unwrap());
        let nes = firewall_nes(&gen, inside, outside);
        assert_eq!(nes.events().len(), 1);
        let mut engine = nes_engine(
            nes,
            gen.sim().clone(),
            SimParams::default(),
            false,
            Box::new(ScenarioHosts::new()),
        );
        let pings = vec![
            Ping { time: SimTime::from_millis(10), src: outside, dst: inside, id: 1 },
            Ping { time: SimTime::from_millis(100), src: inside, dst: outside, id: 2 },
            Ping { time: SimTime::from_millis(200), src: outside, dst: inside, id: 3 },
        ];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(2));
        let o = ping_outcomes(&pings, &result.stats);
        assert!(!o[0].request_delivered && o[1].replied.is_some() && o[2].replied.is_some());
        verify_nes_run(&result).expect("fat-tree firewall run is consistent");
    }

    #[test]
    fn generated_firewall_leaves_third_parties_alone() {
        // On a fat-tree, hosts not named by the firewall ping freely in
        // either state — and, crucially, a third party contacting `outside`
        // does NOT open the firewall (the event requires ip_src = inside,
        // not just any traffic on the shared ingress port).
        let gen = fat_tree(4, TierProfile::default());
        let (inside, outside) = (gen.hosts()[0], gen.hosts()[15]);
        let (a, b) = (gen.hosts()[5], gen.hosts()[10]);
        let mut engine = nes_engine(
            firewall_nes(&gen, inside, outside),
            gen.sim().clone(),
            SimParams::default(),
            false,
            Box::new(ScenarioHosts::new()),
        );
        let pings = vec![
            Ping { time: SimTime::from_millis(10), src: a, dst: b, id: 1 },
            Ping { time: SimTime::from_millis(20), src: b, dst: outside, id: 2 },
            // After b contacted outside, outside -> inside must STILL be
            // blocked: inside never contacted outside.
            Ping { time: SimTime::from_millis(100), src: outside, dst: inside, id: 3 },
        ];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(2));
        let o = ping_outcomes(&pings, &result.stats);
        assert!(o[0].replied.is_some() && o[1].replied.is_some());
        assert!(!o[2].request_delivered, "third-party traffic must not open the firewall");
        assert!(result.dataplane.fired_sequence().is_empty(), "event must not fire");
        verify_nes_run(&result).expect("closed-firewall run is consistent");
    }

    #[test]
    fn generated_learning_floods_then_learns() {
        let gen = linear(3, LinkProfile::default());
        // Learner at one end, target at the other, shadow in the middle —
        // the flood branch and the target path share the first hop.
        let (target, shadow, learner) = (gen.hosts()[0], gen.hosts()[1], gen.hosts()[2]);
        let mut engine = nes_engine(
            learning_nes(&gen, learner, target, shadow),
            gen.sim().clone(),
            SimParams::default(),
            false,
            Box::new(ScenarioHosts::new()),
        );
        let pings: Vec<Ping> = (0..10)
            .map(|i| Ping {
                time: SimTime::from_millis(100 * i + 10),
                src: learner,
                dst: target,
                id: i,
            })
            .collect();
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(5));
        let to_target = proto_packets_delivered(&result.stats, target, PROTO_PING_REQUEST);
        let to_shadow = proto_packets_delivered(&result.stats, shadow, PROTO_PING_REQUEST);
        assert_eq!(to_target, 10, "target receives every request");
        assert!((1..=2).contains(&to_shadow), "flooding stops after learning, got {to_shadow}");
        assert!(ping_outcomes(&pings, &result.stats).iter().all(|p| p.replied.is_some()));
        verify_nes_run(&result).expect("generated learning run is consistent");
    }

    #[test]
    fn generated_learning_on_a_fat_tree() {
        let gen = fat_tree(4, TierProfile::default());
        // Learner and target in different pods; shadow in a third pod.
        let (learner, target, shadow) = (gen.hosts()[0], gen.hosts()[15], gen.hosts()[8]);
        let mut engine = nes_engine(
            learning_nes(&gen, learner, target, shadow),
            gen.sim().clone(),
            SimParams::default(),
            false,
            Box::new(ScenarioHosts::new()),
        );
        let pings: Vec<Ping> = (0..6)
            .map(|i| Ping {
                time: SimTime::from_millis(100 * i + 10),
                src: learner,
                dst: target,
                id: i,
            })
            .collect();
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(5));
        let to_target = proto_packets_delivered(&result.stats, target, PROTO_PING_REQUEST);
        let to_shadow = proto_packets_delivered(&result.stats, shadow, PROTO_PING_REQUEST);
        assert_eq!(to_target, 6);
        assert!(to_shadow <= 2, "flooding stops after learning, got {to_shadow}");
        verify_nes_run(&result).expect("fat-tree learning run is consistent");
    }
}
