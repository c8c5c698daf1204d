//! End-to-end lookup spec replay: full simulations forward through the
//! compiled lookup index, and every recorded packet trace must be a trace
//! of the configuration that forwarded it, as decided by the executable
//! spec — [`Config::admits_trace`], which steps each switch through
//! [`FlowTable`](netkat::FlowTable)'s linear first-match scan.
//!
//! Each trace is checked against *the* configuration its packets' tag
//! names (the static plane has only one), not merely against some
//! configuration as Definition 6 allows, so a lookup that resolves to the
//! wrong rule anywhere in the run fails here. Virtual fields (tag, digest)
//! are erased first, and a trace may stop early only if it was not
//! recorded as dropped.
//!
//! Three scenarios from the paper's evaluation:
//! * the Section 5.2 scalability ring, with the mid-run reroute trigger;
//! * a fat-tree(k=4) hosting the generalized stateful firewall under a
//!   seeded permutation workload, with the firewall's opening event fired
//!   mid-run;
//! * the ring's static shortest-path reference plane.

use edn_apps::generated::firewall_nes;
use edn_apps::ring::{host, Ring};
use edn_core::{Config, LocatedPacket, NetworkTrace, TraceMode};
use edn_topo::{fat_tree, synthesize, TierProfile, TrafficPattern, Workload};
use nes_runtime::{nes_engine, verify_nes_run, CompiledNes, StaticDataPlane};
use netkat::Field;
use netsim::traffic::udp_packet;
use netsim::{DropReason, Engine, SimParams, SimTime, SinkHosts};

/// Checks every packet trace of `ntr` against the spec: `config_of(tag)`
/// must admit it, where `tag` is the tag its packets carry (`None` when
/// no packet of the trace was ever stamped). Returns how many traces were
/// checked.
fn assert_traces_follow_spec<'a>(
    scenario: &str,
    ntr: &NetworkTrace,
    config_of: impl Fn(Option<u64>) -> Vec<&'a Config>,
) -> usize {
    for t in 0..ntr.traces().len() {
        let packets = ntr.packet_trace(t);
        let tag = packets.iter().find_map(|lp| lp.packet.get(Field::Tag));
        let erased: Vec<LocatedPacket> = packets.iter().map(LocatedPacket::erase_virtual).collect();
        let allow_prefix = !ntr.trace_is_terminated(t);
        assert!(
            config_of(tag).iter().any(|c| c.admits_trace(&erased, allow_prefix)),
            "{scenario}: trace {t} (tag {tag:?}, prefix allowed: {allow_prefix}) leaves the spec: \
             {erased:?}"
        );
    }
    ntr.traces().len()
}

/// The spec for an NES run: a tagged trace must follow its tag's
/// configuration. An untagged trace was dropped (or was still queued) at
/// its ingress switch before any stamped packet was recorded; the tag it
/// was looked up under is not in the trace, so some configuration of the
/// NES must admit it.
fn assert_nes_traces_follow_spec(scenario: &str, ntr: &NetworkTrace, nes: &CompiledNes) {
    let configs: Vec<Config> =
        (0..nes.tag_count() as u64).map(|tag| nes.nes().config(nes.set_of(tag))).collect();
    let checked = assert_traces_follow_spec(scenario, ntr, |tag| match tag {
        Some(tag) => vec![&configs[tag as usize]],
        None => configs.iter().collect(),
    });
    assert!(checked > 0, "{scenario}: the run must record packet traces");
}

/// The Section 5.2 ring: every host sends to the diametrically opposite
/// host, the reroute trigger fires mid-stream, then a second wave runs
/// under the flipped configuration.
#[test]
fn ring_traces_follow_the_flow_table_spec() {
    let ring = Ring::new(4);
    let n = ring.switch_count();
    let topo = ring.sim_topology(SimTime::from_micros(50), None);
    let mut engine = nes_engine(ring.nes(), topo, SimParams::default(), false, Box::new(SinkHosts))
        .with_trace_mode(TraceMode::Full);
    for i in 1..=n {
        let opposite = (i + ring.diameter - 1) % n + 1;
        for wave in 0..2u64 {
            engine.inject_at(
                SimTime::from_millis(1 + 20 * wave + i),
                host(i),
                udp_packet(host(i), host(opposite), i, wave),
            );
        }
    }
    engine.inject_at(SimTime::from_millis(10), ring.h1(), ring.trigger_packet());
    let result = engine.run_until(SimTime::from_secs(5));
    assert_nes_traces_follow_spec("ring", &result.trace, result.dataplane.compiled());
    assert!(!result.stats.deliveries.is_empty(), "ring must deliver traffic");
    assert_eq!(result.dataplane.fired_sequence().len(), 1, "the reroute trigger fires");
    verify_nes_run(&result).expect("ring run is event-driven consistent");
}

/// Fat-tree(k=4) firewall under the fig18 permutation workload, with the
/// firewall-opening trigger mid-run. One probe from outside arrives while
/// the firewall is closed, where the closed configuration's drop rule
/// shadows the forwarding rule below it.
#[test]
fn fat_tree_firewall_traces_follow_the_flow_table_spec() {
    let gen = fat_tree(4, TierProfile::default());
    let workload = Workload {
        pattern: TrafficPattern::Permutation,
        seed: 7,
        packets_per_flow: 4,
        ..Workload::default()
    };
    let flows = synthesize(&gen, &workload);
    let horizon =
        flows.iter().map(|f| f.end).max().unwrap_or(SimTime::ZERO) + SimTime::from_secs(10);
    let (inside, outside) = (gen.hosts()[0], *gen.hosts().last().expect("hosts"));
    let nes = firewall_nes(&gen, inside, outside);
    let mut engine =
        nes_engine(nes, gen.sim().clone(), SimParams::default(), false, Box::new(SinkHosts))
            .with_trace_mode(TraceMode::Full);
    edn_topo::schedule(&mut engine, &flows);
    engine.inject_at(SimTime::from_millis(1), outside, udp_packet(outside, inside, u64::MAX, 0));
    engine.inject_at(SimTime::from_millis(5), inside, udp_packet(inside, outside, u64::MAX, 0));
    let result = engine.run_until(horizon);
    assert_nes_traces_follow_spec("fat-tree firewall", &result.trace, result.dataplane.compiled());
    assert!(!result.stats.deliveries.is_empty(), "fat-tree must deliver traffic");
    assert!(result.stats.dropped[DropReason::NoRule.index()] > 0, "the closed firewall drops");
    assert_eq!(result.dataplane.fired_sequence().len(), 1, "the firewall opens");
}

/// The ring's static shortest-path reference plane (no events, no tags):
/// every trace follows the one configuration.
#[test]
fn static_plane_traces_follow_the_flow_table_spec() {
    let ring = Ring::new(4);
    let n = ring.switch_count();
    let topo = ring.sim_topology(SimTime::from_micros(50), None);
    let config = ring.config(true);
    let dataplane = StaticDataPlane::new(config.clone());
    let mut engine = Engine::new(topo, SimParams::default(), dataplane, Box::new(SinkHosts))
        .with_trace_mode(TraceMode::Full);
    for i in 1..=n {
        let opposite = (i + ring.diameter - 1) % n + 1;
        engine.inject_at(
            SimTime::from_millis(i),
            host(i),
            udp_packet(host(i), host(opposite), i, 0),
        );
    }
    let result = engine.run_until(SimTime::from_secs(5));
    let checked = assert_traces_follow_spec("static ring", &result.trace, |_| vec![&config]);
    assert!(checked > 0, "static ring: the run must record packet traces");
    assert!(!result.stats.deliveries.is_empty());
}
