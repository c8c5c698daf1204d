//! The Fig. 18 scale harness: parametric topology sweeps.
//!
//! Each sweep point builds a generated topology, synthesizes a seeded
//! traffic matrix over it, runs the workload on a data plane — the static
//! shortest-path reference or the NES runtime hosting a generated firewall
//! — and reports sizes, rule counts, simulation work, and wall-clock time
//! as one CSV row. Everything except the wall-clock column is deterministic
//! given the seed.

use edn_obs::{MinWall, Registry, Stopwatch};
use edn_topo::{shortest_path_config, synthesize, GenTopology, Workload};
use nes_runtime::{nes_engine, StaticDataPlane};
use netsim::traffic::{udp_packet, UdpFlowSpec};
use netsim::{DataPlane, DropReason, Engine, SimParams, SimTime, SinkHosts, Stats, TraceMode};

/// Injects a sweep point's flows: streamed lazily on the single-threaded
/// engine, materialized up front when sharding is in play (the sharded
/// event loop owns its queue partitioning, and the sweep's multi-shard
/// rows exist precisely to exercise it). Both paths are byte-identical —
/// pinned by the `streaming_equivalence` differential suite.
fn inject_flows<D: DataPlane>(engine: &mut Engine<D>, flows: &[UdpFlowSpec], shards: u32) -> u64 {
    if shards <= 1 {
        edn_topo::attach_stream(engine, flows)
    } else {
        edn_topo::schedule(engine, flows)
    }
}

/// Which data plane a sweep point exercises.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Plane {
    /// The fixed shortest-path configuration (no events, no tags).
    Static,
    /// The paper's runtime hosting a generated stateful firewall between
    /// the first and last host, with a trigger flow firing its event
    /// mid-run.
    Nes,
}

impl Plane {
    /// The CSV label.
    pub fn label(&self) -> &'static str {
        match self {
            Plane::Static => "static",
            Plane::Nes => "nes",
        }
    }
}

/// One row of the scale sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepRow {
    /// Topology family (`ring`, `fat-tree`, …).
    pub topology: String,
    /// The swept parameter (ring size, fat-tree k).
    pub param: u64,
    /// Data plane exercised.
    pub plane: Plane,
    /// Switch count.
    pub switches: usize,
    /// Host count.
    pub hosts: usize,
    /// Directed link count.
    pub links: usize,
    /// Installed rules (config rules for `static`; the compiled NES
    /// breakdown total for `nes`).
    pub rules: usize,
    /// Synthesized flows.
    pub flows: usize,
    /// Scheduled datagrams.
    pub datagrams: u64,
    /// Discrete events the engine processed.
    pub events: u64,
    /// Packets delivered.
    pub deliveries: usize,
    /// Packets dropped, by [`DropReason`] (indexed by
    /// [`DropReason::index`]; the CSV names each column).
    pub drops: [u64; 4],
    /// Wall-clock time of the simulation event loop in microseconds (the
    /// `Engine::run` phase; trace materialization is not included — run
    /// measurement sweeps under `EDN_TRACE=stats` to also skip recording).
    /// When the point ran several repetitions, this is the minimum. The
    /// only non-deterministic column; zero it for byte-identical CSVs.
    pub wall_us: u64,
    /// Engine shards the point ran on. Deliberately *not* a CSV column:
    /// every other column is byte-identical across shard counts (that is
    /// the sharded engine's determinism contract, and CI `cmp`s the
    /// canonical CSVs across `EDN_SHARDS` to prove it); the JSON perf
    /// trajectory reports it.
    pub shards: u32,
    /// Median sim-time event latency (creation → fire) in µs, from the
    /// run's metric registry — `0` when `EDN_METRICS=off`. JSON-only:
    /// deterministic, but gated on the metrics level, and the CSV must be
    /// byte-identical across levels.
    pub latency_p50_us: u64,
    /// 99th-percentile sim-time event latency in µs (`0` when metrics are
    /// off). JSON-only, like [`latency_p50_us`](SweepRow::latency_p50_us).
    pub latency_p99_us: u64,
    /// Packet-arena slot high-water (per-shard max; `0` when metrics are
    /// off). JSON-only; shard-scoped, so it varies with the shard count.
    pub arena_hw: u64,
    /// Online-checker obligation high-water (`0` without a checker or
    /// with metrics off). JSON-only.
    pub obligations_hw: u64,
}

/// Pulls the [`SweepRow`] metric columns out of a finished run's
/// registry: `(latency p50 µs, latency p99 µs, arena slot high-water,
/// obligation high-water)`. All zero when metrics were off.
pub fn metric_columns(reg: &Registry) -> (u64, u64, u64, u64) {
    let (p50, p99) = match reg.histogram("engine.event_latency_us") {
        Some(h) => (h.quantile(1, 2), h.quantile(99, 100)),
        None => (0, 0),
    };
    (
        p50,
        p99,
        reg.gauge("arena.slots_hw").unwrap_or(0),
        reg.gauge("checker.obligations_hw").unwrap_or(0),
    )
}

/// The CSV header matching [`SweepRow::csv`].
pub const CSV_HEADER: &str = "topology,param,plane,switches,hosts,links,rules,flows,datagrams,\
                              events,deliveries,drops_no_rule,drops_dead_end,drops_queue_full,\
                              drops_link_down,wall_us";

impl SweepRow {
    /// Nanoseconds of wall-clock per engine event — the per-event cost the
    /// perf trajectory (`BENCH_fig18.json`) tracks.
    pub fn ns_per_event(&self) -> f64 {
        if self.events == 0 {
            return 0.0;
        }
        self.wall_us as f64 * 1_000.0 / self.events as f64
    }

    /// Renders the row as a CSV line (no trailing newline).
    pub fn csv(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.topology,
            self.param,
            self.plane.label(),
            self.switches,
            self.hosts,
            self.links,
            self.rules,
            self.flows,
            self.datagrams,
            self.events,
            self.deliveries,
            self.drops[DropReason::NoRule.index()],
            self.drops[DropReason::DeadEnd.index()],
            self.drops[DropReason::QueueFull.index()],
            self.drops[DropReason::LinkDown.index()],
            self.wall_us,
        )
    }
}

/// Runs one sweep point: `workload` over `gen` on the chosen plane,
/// recording (or not) the trace per `mode`, and running the event loop on
/// `shards` engine shards ([`Engine::with_shards`]).
///
/// Every column except `wall_us` is independent of `mode` and `shards` —
/// that is the equivalence the plumbing differential tests (and the CI
/// per-mode, per-shard-count CSV comparisons) pin down. The event queue implementation and packet path
/// come from the environment (`EDN_QUEUE`, `EDN_PACKETS`), which CI also
/// sweeps.
///
/// `reps` rebuilds and re-runs the whole point that many times and
/// reports the **minimum** wall-clock — a single run of a sub-second
/// point is scheduler-noise-limited, and the minimum is the standard
/// robust estimator for "how fast can this go". All deterministic
/// columns come from the first repetition (they are identical across
/// repetitions by construction).
///
/// The run horizon is the last synthesized flow's end plus ten simulated
/// seconds of drain time, so the event queue always empties — whatever
/// flow counts and rates the workload asks for.
#[allow(clippy::too_many_arguments)]
pub fn run_point(
    gen: &GenTopology,
    topology: &str,
    param: u64,
    plane: Plane,
    workload: &Workload,
    mode: TraceMode,
    shards: u32,
    reps: u32,
) -> SweepRow {
    let flows = synthesize(gen, workload);
    let last_end = flows.iter().map(|f| f.end).max().unwrap_or(SimTime::ZERO);
    let horizon = last_end + SimTime::from_secs(10);
    let mut first: Option<(usize, u64, Stats, Registry)> = None;
    let mut wall = MinWall::new();
    for _ in 0..reps.max(1) {
        let (rules, datagrams, stats, metrics): (usize, u64, Stats, Registry) = match plane {
            Plane::Static => {
                let config = shortest_path_config(gen);
                let rules = config.rule_count();
                let mut engine = Engine::new(
                    gen.sim().clone(),
                    SimParams::default(),
                    StaticDataPlane::new(config),
                    Box::new(SinkHosts),
                )
                .with_trace_mode(mode)
                .with_shards(shards);
                let datagrams = inject_flows(&mut engine, &flows, shards);
                let sw = Stopwatch::start();
                engine.run(horizon);
                wall.record(sw.elapsed_us());
                let result = engine.finish();
                (rules, datagrams, result.stats, result.metrics)
            }
            Plane::Nes => {
                let (inside, outside) = (gen.hosts()[0], *gen.hosts().last().expect("hosts"));
                let nes = edn_apps::generated::firewall_nes(gen, inside, outside);
                let mut engine = nes_engine(
                    nes,
                    gen.sim().clone(),
                    SimParams::default(),
                    false,
                    Box::new(SinkHosts),
                )
                .with_trace_mode(mode)
                .with_shards(shards);
                let datagrams = inject_flows(&mut engine, &flows, shards);
                // A trigger datagram from `inside` fires the firewall's
                // event mid-run, so the sweep exercises an actual
                // configuration update at every scale.
                engine.inject_at(
                    SimTime::from_millis(5),
                    inside,
                    udp_packet(inside, outside, u64::MAX, 0),
                );
                let sw = Stopwatch::start();
                engine.run(horizon);
                wall.record(sw.elapsed_us());
                let result = engine.finish();
                let rules = result.dataplane.compiled().rule_breakdown().total();
                (rules, datagrams + 1, result.stats, result.metrics)
            }
        };
        if first.is_none() {
            first = Some((rules, datagrams, stats, metrics));
        }
    }
    let (rules, datagrams, stats, metrics) = first.expect("at least one repetition");
    let (latency_p50_us, latency_p99_us, arena_hw, obligations_hw) = metric_columns(&metrics);
    SweepRow {
        topology: topology.to_string(),
        param,
        plane,
        switches: gen.switch_count(),
        hosts: gen.host_count(),
        links: gen.link_count(),
        rules,
        flows: flows.len(),
        datagrams,
        events: stats.events_processed,
        deliveries: stats.deliveries.len(),
        drops: stats.dropped,
        wall_us: wall.best(),
        shards,
        latency_p50_us,
        latency_p99_us,
        arena_hw,
        obligations_hw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edn_topo::{fat_tree, ring, LinkProfile, TierProfile, TrafficPattern};

    fn small_workload() -> Workload {
        Workload {
            pattern: TrafficPattern::Permutation,
            seed: 7,
            packets_per_flow: 3,
            ..Workload::default()
        }
    }

    #[test]
    fn sweep_point_is_deterministic_modulo_wall_clock() {
        let gen = ring(8, LinkProfile::default());
        for plane in [Plane::Static, Plane::Nes] {
            let run =
                || run_point(&gen, "ring", 8, plane, &small_workload(), TraceMode::Full, 1, 1);
            let (mut a, mut b) = (run(), run());
            a.wall_us = 0;
            b.wall_us = 0;
            assert_eq!(a, b, "{} rows differ", plane.label());
            assert!(a.events > 0 && a.deliveries > 0);
        }
    }

    #[test]
    fn trace_modes_produce_identical_rows() {
        let gen = ring(8, LinkProfile::default());
        for plane in [Plane::Static, Plane::Nes] {
            let run = |mode| {
                let mut row = run_point(&gen, "ring", 8, plane, &small_workload(), mode, 1, 1);
                row.wall_us = 0;
                row
            };
            let reference = run(TraceMode::Full);
            let row = run(TraceMode::StatsOnly);
            assert_eq!(row, reference, "{} rows differ on stats-only", plane.label());
        }
    }

    #[test]
    fn sharded_rows_match_single_threaded() {
        let gen = ring(8, LinkProfile::default());
        for plane in [Plane::Static, Plane::Nes] {
            let mut solo =
                run_point(&gen, "ring", 8, plane, &small_workload(), TraceMode::Full, 1, 1);
            // Two repetitions must not change any deterministic column
            // either (reps only tighten the wall-clock estimate).
            let mut sharded =
                run_point(&gen, "ring", 8, plane, &small_workload(), TraceMode::Full, 2, 2);
            assert_eq!(sharded.shards, 2);
            solo.wall_us = 0;
            solo.shards = 0;
            // Shard-scoped: legitimately varies with the shard count.
            solo.arena_hw = 0;
            sharded.wall_us = 0;
            sharded.shards = 0;
            sharded.arena_hw = 0;
            assert_eq!(sharded, solo, "{} rows differ across shard counts", plane.label());
        }
    }

    #[test]
    fn fat_tree_point_delivers_traffic_on_both_planes() {
        let gen = fat_tree(4, TierProfile::default());
        let run =
            |plane| run_point(&gen, "fat-tree", 4, plane, &small_workload(), TraceMode::Full, 1, 1);
        let stat = run(Plane::Static);
        assert_eq!(stat.switches, 20);
        assert_eq!(stat.rules, 20 * 16);
        assert_eq!(stat.flows, 16);
        assert!(stat.deliveries > 0 && stat.events > stat.datagrams);
        let nes = run(Plane::Nes);
        assert!(nes.deliveries > 0);
        assert!(nes.rules > stat.rules, "tagged configs outweigh one static config");
    }

    #[test]
    fn csv_row_shape_matches_header() {
        let gen = ring(4, LinkProfile::default());
        let row =
            run_point(&gen, "ring", 4, Plane::Static, &small_workload(), TraceMode::Full, 1, 1);
        assert_eq!(row.csv().split(',').count(), CSV_HEADER.split(',').count());
        assert!(row.ns_per_event() > 0.0);
    }
}
