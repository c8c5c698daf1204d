//! End-to-end packet-plumbing regression over the engine knobs this
//! repo's arena/queue rework introduced — and over the sharded multi-core
//! event loop: full simulations replayed across every
//! `{shard count} × {event queue} × {trace mode} × {packet path}`
//! combination must agree — byte-identical `Stats` everywhere,
//! byte-identical traces wherever a trace is recorded.
//!
//! Two pinned scenarios from the paper's evaluation (the Section 5.2 ring
//! and a fat-tree(4) stateful firewall), two pinned *churn* scenarios from
//! the declarative scenario layer (a flapping ring and a fat-tree(4)
//! update campaign with a crash, a latency spike, and a host move), plus
//! differential proptests over seeded generated topologies and workloads
//! (256 cases across the queue/packet knobs, 128 more across shard
//! counts).

use edn_apps::generated::firewall_nes;
use edn_apps::ring::{host, Ring};
use edn_core::{NetworkTrace, TraceMode};
use edn_obs::Scope;
use edn_scenario::CompiledScenario;
use edn_topo::{fat_tree, ring, synthesize, LinkProfile, TierProfile, TrafficPattern, Workload};
use nes_runtime::{nes_engine_with, verify_nes_run, DeployKnobs, NesDataPlane};
use netsim::traffic::udp_packet;
use netsim::{
    ChannelModel, Engine, MetricsLevel, PacketPath, QueueKind, SimParams, SimTime, SinkHosts, Stats,
};
use proptest::prelude::*;

/// One engine-knob combination under test.
#[derive(Clone, Copy, Debug)]
struct Knobs {
    queue: QueueKind,
    mode: TraceMode,
    path: PacketPath,
    shards: u32,
    metrics: MetricsLevel,
}

/// The reference corner: one thread, binary heap, full trace, owned
/// packets, no telemetry — the pre-rework engine, kept runnable exactly
/// so everything new can be diffed against it.
const REFERENCE: Knobs = Knobs {
    queue: QueueKind::Heap,
    mode: TraceMode::Full,
    path: PacketPath::Owned,
    shards: 1,
    metrics: MetricsLevel::Off,
};

/// Widens a requested shard count by the `EDN_SHARDS` environment knob,
/// so CI can replay the whole matrix on the sharded engine (the solo
/// [`REFERENCE`] corner stays pinned at one shard).
fn effective_shards(requested: u32) -> u32 {
    requested.max(netsim::shard_count_from_env())
}

fn knobs_with_shards(shards: u32) -> impl Iterator<Item = Knobs> {
    let shards = effective_shards(shards);
    [QueueKind::Heap, QueueKind::Calendar].into_iter().flat_map(move |queue| {
        [TraceMode::Full, TraceMode::StatsOnly].into_iter().flat_map(move |mode| {
            [PacketPath::Owned, PacketPath::Arena].into_iter().map(move |path| Knobs {
                queue,
                mode,
                path,
                shards,
                metrics: MetricsLevel::Off,
            })
        })
    })
}

fn configure(engine: Engine<NesDataPlane>, knobs: Knobs) -> Engine<NesDataPlane> {
    engine
        .with_queue(knobs.queue)
        .with_trace_mode(knobs.mode)
        .with_packet_path(knobs.path)
        .with_metrics(knobs.metrics)
        .with_shards(knobs.shards)
}

/// Asserts that a scenario produces identical observable results on every
/// knob combination and every shard count in `shard_counts`: `Stats`
/// agree field for field everywhere (including `StatsOnly` runs), and
/// `Full`-mode traces are byte-identical. The scenario runners assert
/// that multi-shard runs actually engaged the threaded path (a silent
/// fallback would make these comparisons vacuous).
fn assert_plumbing_invariant(
    scenario: &str,
    shard_counts: &[u32],
    run: impl Fn(Knobs) -> (NetworkTrace, Stats),
) {
    let (reference_trace, reference_stats) = run(REFERENCE);
    assert!(!reference_stats.deliveries.is_empty(), "{scenario}: reference must deliver");
    for &shards in shard_counts {
        for knobs in knobs_with_shards(shards) {
            let (trace, stats) = run(knobs);
            assert_eq!(stats, reference_stats, "{scenario}: stats diverged on {knobs:?}");
            match knobs.mode {
                TraceMode::Full => {
                    assert_eq!(trace, reference_trace, "{scenario}: traces diverged on {knobs:?}");
                }
                TraceMode::StatsOnly => {
                    assert!(trace.is_empty(), "{scenario}: StatsOnly must not record");
                }
            }
        }
    }
}

/// The Section 5.2 ring: every host sends to the diametrically opposite
/// host in two waves, with the reroute trigger firing between them.
fn ring_run(knobs: Knobs) -> (NetworkTrace, Stats) {
    let ring = Ring::new(4);
    let n = ring.switch_count();
    let topo = ring.sim_topology(SimTime::from_micros(50), None);
    let engine = nes_engine_with(
        ring.nes(),
        topo,
        SimParams::default(),
        false,
        Box::new(SinkHosts),
        DeployKnobs::default(),
    );
    let mut engine = configure(engine, knobs);
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
    engine.run(SimTime::from_secs(5));
    assert_shards_engaged(&engine, knobs, n as u32);
    let result = engine.finish();
    if knobs.mode == TraceMode::Full {
        verify_nes_run(&result).expect("ring run is event-driven consistent");
    }
    (result.trace, result.stats)
}

/// Fat-tree(4) firewall under the fig18 permutation workload, with the
/// firewall-opening trigger mid-run.
fn fat_tree_firewall_run(knobs: Knobs) -> (NetworkTrace, Stats) {
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
    let engine = nes_engine_with(
        nes,
        gen.sim().clone(),
        SimParams::default(),
        false,
        Box::new(SinkHosts),
        DeployKnobs::default(),
    );
    let mut engine = configure(engine, knobs);
    edn_topo::schedule(&mut engine, &flows);
    engine.inject_at(SimTime::from_millis(5), inside, udp_packet(inside, outside, u64::MAX, 0));
    engine.run(horizon);
    assert_shards_engaged(&engine, knobs, gen.switch_count() as u32);
    let result = engine.finish();
    (result.trace, result.stats)
}

/// A ring(6) whose inter-switch links flap mid-campaign: two fail/restore
/// pairs around a two-update rollout under uniform traffic — the engine's
/// failure timelines crossing shard cuts and every knob combination.
fn flapping_ring_scenario() -> CompiledScenario {
    let spec = edn_scenario::parse(
        "[scenario]\n\
         name = \"flapping-ring\"\n\
         seed = 13\n\
         topology = \"ring\"\n\
         size = 6\n\
         [workload]\n\
         flows = 8\n\
         packets_per_flow = 3\n\
         spread_ms = 300\n\
         [campaign]\n\
         updates = 2\n\
         [[action]]\n\
         kind = \"fail_link\"\n\
         at_ms = 120\n\
         a = 2\n\
         b = 3\n\
         [[action]]\n\
         kind = \"restore_link\"\n\
         at_ms = 170\n\
         a = 2\n\
         b = 3\n\
         [[action]]\n\
         kind = \"fail_link\"\n\
         at_ms = 210\n\
         a = 5\n\
         b = 6\n\
         [[action]]\n\
         kind = \"restore_link\"\n\
         at_ms = 260\n\
         a = 5\n\
         b = 6\n",
    )
    .expect("pinned spec parses");
    CompiledScenario::compile(&spec).expect("pinned spec compiles")
}

/// A fat-tree(4) update campaign with the full churn menu: three updates
/// plus a host move, an edge-agg link flap, a core-switch crash/recover,
/// and a controller latency spike, under permutation traffic.
fn fat_tree_campaign_scenario() -> CompiledScenario {
    let spec = edn_scenario::parse(
        "[scenario]\n\
         name = \"fat-tree-campaign\"\n\
         seed = 2016\n\
         topology = \"fat_tree\"\n\
         size = 4\n\
         [workload]\n\
         pattern = \"permutation\"\n\
         packets_per_flow = 3\n\
         spread_ms = 400\n\
         [campaign]\n\
         updates = 3\n\
         [[action]]\n\
         kind = \"fail_link\"\n\
         at_ms = 150\n\
         a = 11\n\
         b = 9\n\
         [[action]]\n\
         kind = \"restore_link\"\n\
         at_ms = 220\n\
         a = 11\n\
         b = 9\n\
         [[action]]\n\
         kind = \"crash_switch\"\n\
         at_ms = 180\n\
         switch = 2\n\
         [[action]]\n\
         kind = \"recover_switch\"\n\
         at_ms = 240\n\
         switch = 2\n\
         [[action]]\n\
         kind = \"latency_spike\"\n\
         at_ms = 200\n\
         latency_ms = 15\n\
         until_ms = 280\n\
         [[action]]\n\
         kind = \"move_host\"\n\
         at_ms = 350\n\
         host = 5\n\
         to_switch = 19\n",
    )
    .expect("pinned spec parses");
    CompiledScenario::compile(&spec).expect("pinned spec compiles")
}

/// Replays a compiled churn scenario on explicit engine knobs.
fn churn_run(c: &CompiledScenario, knobs: Knobs) -> (NetworkTrace, Stats) {
    let engine = nes_engine_with(
        c.nes.clone(),
        c.run.sim().clone(),
        SimParams::default(),
        false,
        Box::new(SinkHosts),
        DeployKnobs::default(),
    );
    let mut engine = configure(engine, knobs);
    c.apply_actions(&mut engine);
    c.load_traffic(&mut engine, false);
    c.inject_campaign(&mut engine);
    engine.run(c.horizon);
    assert_shards_engaged(&engine, knobs, c.run.switch_count() as u32);
    let result = engine.finish();
    if knobs.mode == TraceMode::Full {
        assert_eq!(
            result.dataplane.fired_sequence().len(),
            c.steps.len(),
            "every campaign step fires"
        );
        verify_nes_run(&result).expect("churn runs stay event-driven consistent");
    }
    (result.trace, result.stats)
}

/// A "sharded" run that silently fell back to one thread would turn the
/// byte-identity matrix into solo-vs-solo; pin engagement (clamped to
/// the switch count, the partitioner's bound).
fn assert_shards_engaged(engine: &netsim::Engine<NesDataPlane>, knobs: Knobs, switches: u32) {
    let expected = knobs.shards.min(switches).max(1);
    assert_eq!(engine.shards(), expected, "sharding did not engage for {knobs:?}");
}

#[test]
fn ring_replays_identically_across_all_engine_knobs() {
    assert_plumbing_invariant("ring", &[1], ring_run);
}

#[test]
fn fat_tree_firewall_replays_identically_across_all_engine_knobs() {
    assert_plumbing_invariant("fat-tree firewall", &[1], fat_tree_firewall_run);
}

/// The sharded event loop is byte-identical to the single-threaded
/// engine on the §5.2 ring, across the full
/// `{2,4 shards} × {queue} × {trace} × {packet path}` matrix — including
/// the NES correctness verification of the merged trace.
#[test]
fn ring_replays_identically_across_shard_counts() {
    assert_plumbing_invariant("sharded ring", &[2, 4], ring_run);
}

/// Same matrix on the fat-tree(4) firewall: controller traffic, a mid-run
/// configuration update, and permutation flows all crossing shard cuts.
#[test]
fn fat_tree_firewall_replays_identically_across_shard_counts() {
    assert_plumbing_invariant("sharded fat-tree firewall", &[2, 4], fat_tree_firewall_run);
}

#[test]
fn churn_scenarios_replay_identically_across_all_engine_knobs() {
    let ring = flapping_ring_scenario();
    assert_plumbing_invariant("flapping ring", &[1], |k| churn_run(&ring, k));
    let campaign = fat_tree_campaign_scenario();
    assert_plumbing_invariant("fat-tree campaign", &[1], |k| churn_run(&campaign, k));
}

/// The churn matrix again, sharded: link-failure timelines, switch
/// crashes, latency spikes, and mobility steps must all replay
/// byte-identically on the multi-core event loop.
#[test]
fn churn_scenarios_replay_identically_across_shard_counts() {
    let ring = flapping_ring_scenario();
    assert_plumbing_invariant("sharded flapping ring", &[2, 4], |k| churn_run(&ring, k));
    let campaign = fat_tree_campaign_scenario();
    assert_plumbing_invariant("sharded fat-tree campaign", &[2, 4], |k| churn_run(&campaign, k));
}

/// The *uncoordinated* baseline plane replays byte-identically across the
/// engine knob matrix and shard counts too: its slow controller pushes are
/// scheduled control messages like any other, so sharding the event loop
/// under it must not change a byte of the stats or the trace. (The
/// baseline being deterministic is what makes its checker violations in
/// `scenario_corpus.rs` reproducible counterexamples rather than flakes.)
#[test]
fn uncoordinated_baseline_replays_identically_across_shard_counts() {
    let scenarios = [
        ("flapping ring", flapping_ring_scenario()),
        ("fat-tree campaign", fat_tree_campaign_scenario()),
    ];
    for (name, c) in &scenarios {
        let run = |queue: QueueKind, path: PacketPath, shards: u32| {
            let mut engine = c
                .uncoordinated()
                .with_queue(queue)
                .with_trace_mode(TraceMode::Full)
                .with_packet_path(path)
                .with_shards(shards);
            c.apply_actions(&mut engine);
            c.load_traffic(&mut engine, false);
            c.inject_campaign(&mut engine);
            engine.run(c.horizon);
            let expected = shards.min(c.run.switch_count() as u32).max(1);
            assert_eq!(engine.shards(), expected, "{name}: sharding did not engage");
            let result = engine.finish();
            (result.trace, result.stats)
        };
        let (reference_trace, reference_stats) = run(QueueKind::Heap, PacketPath::Owned, 1);
        assert!(!reference_stats.deliveries.is_empty(), "{name}: baseline must deliver");
        for queue in [QueueKind::Heap, QueueKind::Calendar] {
            for path in [PacketPath::Owned, PacketPath::Arena] {
                for shards in [1u32, 2, 4] {
                    let (trace, stats) = run(queue, path, effective_shards(shards));
                    assert_eq!(
                        stats, reference_stats,
                        "{name}: uncoordinated stats diverged on {queue:?}/{path:?}/{shards}"
                    );
                    assert_eq!(
                        trace, reference_trace,
                        "{name}: uncoordinated trace diverged on {queue:?}/{path:?}/{shards}"
                    );
                }
            }
        }
    }
}

/// The ack/retry reliability layer over a *lossy* control channel keeps
/// the sharded event loop byte-identical: channel fates advance on the
/// shard that owns the endpoint, never on the worker schedule, so drops,
/// duplicates, reordering, retransmissions — and therefore the full trace
/// — replay exactly across 1, 2, and 4 shards.
#[test]
fn reliable_lossy_runs_replay_identically_across_shard_counts() {
    let c = flapping_ring_scenario();
    let run = |shards: u32| {
        let mut engine = c
            .reliable_engine_with(DeployKnobs::default(), 8)
            .with_channel(ChannelModel::lossy(13))
            .with_trace_mode(TraceMode::Full)
            .with_shards(shards);
        c.apply_actions(&mut engine);
        c.load_traffic(&mut engine, false);
        c.inject_campaign(&mut engine);
        engine.run(c.horizon);
        let expected = shards.min(c.run.switch_count() as u32).max(1);
        assert_eq!(engine.shards(), expected, "sharding did not engage");
        let result = engine.finish();
        assert!(!result.dataplane.degraded(), "a generous budget never exhausts");
        assert_eq!(
            result.dataplane.inner().fired_sequence().len(),
            c.steps.len(),
            "every campaign step fires under loss"
        );
        (result.trace, result.stats)
    };
    let (reference_trace, reference_stats) = run(1);
    assert!(!reference_stats.deliveries.is_empty(), "lossy reference must deliver");
    for shards in [2u32, 4] {
        let (trace, stats) = run(effective_shards(shards));
        assert_eq!(stats, reference_stats, "{shards} shards: lossy stats diverged");
        assert_eq!(trace, reference_trace, "{shards} shards: lossy trace diverged");
    }
}

/// Telemetry must never perturb simulation results: the ring scenario
/// replayed at `counters` and `full` (solo and sharded) stays
/// byte-identical to the metrics-off reference — `Stats`, traces, and the
/// NES verification all unchanged.
#[test]
fn metrics_levels_do_not_perturb_results() {
    let (reference_trace, reference_stats) = ring_run(REFERENCE);
    for metrics in [MetricsLevel::Counters, MetricsLevel::Full] {
        for shards in [1, 2, 4] {
            let knobs = Knobs {
                queue: QueueKind::Calendar,
                mode: TraceMode::Full,
                path: PacketPath::Arena,
                shards: effective_shards(shards),
                metrics,
            };
            let (trace, stats) = ring_run(knobs);
            assert_eq!(stats, reference_stats, "stats diverged on {knobs:?}");
            assert_eq!(trace, reference_trace, "trace diverged on {knobs:?}");
        }
    }
}

/// The fat-tree firewall scenario's **sim-scoped** metric section is
/// byte-identical across shard counts — the registry analogue of the
/// trace/stats byte-identity contract (shard- and wall-scoped sections
/// are exempt by design).
#[test]
fn sim_scoped_metrics_are_byte_identical_across_shard_counts() {
    let sim_section = |shards: u32| {
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
        let mut engine = nes_engine_with(
            nes,
            gen.sim().clone(),
            SimParams::default(),
            false,
            Box::new(SinkHosts),
            DeployKnobs::default(),
        )
        .with_metrics(MetricsLevel::Counters)
        .with_shards(shards);
        edn_topo::schedule(&mut engine, &flows);
        engine.inject_at(SimTime::from_millis(5), inside, udp_packet(inside, outside, u64::MAX, 0));
        engine.run(horizon);
        assert_eq!(engine.shards(), shards, "sharding did not engage");
        engine.finish().metrics.render_scope_json(Scope::Sim)
    };
    let solo = sim_section(1);
    assert!(solo.contains("engine.event_latency_us"), "sim section must be populated");
    assert!(solo.contains("drops.no_rule"), "per-reason drops must be present");
    for shards in [2, 4] {
        assert_eq!(sim_section(shards), solo, "sim metrics diverged on {shards} shards");
    }
}

/// One seeded generated-ring firewall run on explicit knobs — the
/// proptest's unit of comparison.
fn seeded_run(n: u64, workload: &Workload, knobs: Knobs) -> (NetworkTrace, Stats) {
    let gen = ring(n, LinkProfile::default());
    let flows = synthesize(&gen, workload);
    let horizon =
        flows.iter().map(|f| f.end).max().unwrap_or(SimTime::ZERO) + SimTime::from_secs(10);
    let (inside, outside) = (gen.hosts()[0], *gen.hosts().last().expect("hosts"));
    let nes = firewall_nes(&gen, inside, outside);
    let engine = nes_engine_with(
        nes,
        gen.sim().clone(),
        SimParams::default(),
        false,
        Box::new(SinkHosts),
        DeployKnobs::default(),
    );
    let mut engine = configure(engine, knobs);
    edn_topo::schedule(&mut engine, &flows);
    // The trigger opens the firewall mid-run so the sweep crosses a real
    // configuration update.
    engine.inject_at(SimTime::from_millis(5), inside, udp_packet(inside, outside, u64::MAX, 0));
    engine.run(horizon);
    assert_shards_engaged(&engine, knobs, n as u32);
    let result = engine.finish();
    (result.trace, result.stats)
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    let pattern = prop_oneof![
        Just(TrafficPattern::Uniform),
        Just(TrafficPattern::Permutation),
        Just(TrafficPattern::Hotspot { hotspots: 1, bias_pct: 75 }),
    ];
    (pattern, 0u64..1_000, 1u64..4, 1usize..9).prop_map(|(pattern, seed, packets, flows)| {
        Workload {
            pattern,
            seed,
            flows,
            packets_per_flow: packets,
            interval: SimTime::from_millis(1),
            ..Workload::default()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Differential equivalence over seeded topologies and workloads:
    /// calendar ≡ heap (including timestamp-tied pops) and arena ≡ owned
    /// packets, observed through complete simulations — byte-identical
    /// `Stats` and traces, with `StatsOnly` agreeing on every `Stats`
    /// field.
    #[test]
    fn seeded_topologies_agree_across_queue_and_packet_paths(
        n in 3u64..7,
        workload in arb_workload(),
    ) {
        let (reference_trace, reference_stats) = seeded_run(n, &workload, REFERENCE);
        let calendar_arena = Knobs {
            queue: QueueKind::Calendar,
            mode: TraceMode::Full,
            path: PacketPath::Arena,
            shards: effective_shards(1),
            metrics: MetricsLevel::Off,
        };
        let (trace, stats) = seeded_run(n, &workload, calendar_arena);
        prop_assert_eq!(&stats, &reference_stats, "calendar+arena stats diverged");
        prop_assert_eq!(&trace, &reference_trace, "calendar+arena trace diverged");
        let stats_only = Knobs { mode: TraceMode::StatsOnly, ..calendar_arena };
        let (empty, stats) = seeded_run(n, &workload, stats_only);
        prop_assert_eq!(&stats, &reference_stats, "StatsOnly stats diverged");
        prop_assert!(empty.is_empty(), "StatsOnly must not record a trace");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Differential equivalence of the sharded event loop over seeded
    /// topologies and workloads: a K-shard run (K drawn from 2..=4, on
    /// the default calendar+arena engine) must produce byte-identical
    /// `Stats` and traces to the single-threaded reference, with
    /// `StatsOnly` agreeing on every `Stats` field. Requesting more
    /// shards than switches exercises the clamp.
    #[test]
    fn seeded_topologies_agree_across_shard_counts(
        n in 3u64..7,
        workload in arb_workload(),
        shards in 2u32..5,
    ) {
        let (reference_trace, reference_stats) = seeded_run(n, &workload, REFERENCE);
        let sharded = Knobs {
            queue: QueueKind::Calendar,
            mode: TraceMode::Full,
            path: PacketPath::Arena,
            shards,
            metrics: MetricsLevel::Off,
        };
        let (trace, stats) = seeded_run(n, &workload, sharded);
        prop_assert_eq!(&stats, &reference_stats, "{} shards: stats diverged", shards);
        prop_assert_eq!(&trace, &reference_trace, "{} shards: trace diverged", shards);
        let stats_only = Knobs { mode: TraceMode::StatsOnly, ..sharded };
        let (empty, stats) = seeded_run(n, &workload, stats_only);
        prop_assert_eq!(&stats, &reference_stats, "{} shards StatsOnly diverged", shards);
        prop_assert!(empty.is_empty(), "StatsOnly must not record a trace");
    }
}
