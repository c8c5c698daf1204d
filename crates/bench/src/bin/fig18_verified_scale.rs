//! Verified-at-scale harness: a fat-tree(16) run of 10M+ events that is
//! *checked*, not just simulated — streaming injection
//! ([`edn_topo::attach_stream`]), aggregate-only accounting
//! (`TraceMode::StatsOnly` + `StatsMode::Counters`), and the online
//! Definition 6 checker ([`nes_runtime::attach_online_checker`]) running
//! inside the event loop, retiring trace prefixes as their happens-before
//! obligations discharge.
//!
//! Run with: `cargo run --release -p edn-bench --bin fig18_verified_scale`
//!
//! The harness runs the same scenario at two event counts (1× and 2×) in
//! one process and reports the process high-water RSS (`VmHWM` from
//! `/proc/self/status`) after each: because every stage is streaming, the
//! second, twice-as-long run should barely move the high-water mark — peak
//! memory tracks packets *in flight*, not events *processed*. The
//! `verdict` column is the online checker's verdict (`correct` is the
//! expected outcome: Theorem 1), and the trailing columns name each
//! [`netsim::DropReason`]'s count.
//!
//! The harness always runs with telemetry at least at `counters` (the
//! `EDN_METRICS=full` selection is honored) and writes a per-point JSON
//! metrics snapshot — p50/p99 sim-time event latency, queue/arena/
//! obligation high-water, per-reason drops — to `VSCALE_JSON`. At `full`,
//! a checker violation or a harness panic additionally dumps the engine's
//! flight recorder (the trailing ~1024 events) to `EDN_FLIGHT_OUT`.
//!
//! Environment overrides (CI smoke uses small values):
//! * `VSCALE_FATTREE_K` — fat-tree arity (default `16`: 320 switches,
//!   1024 hosts);
//! * `VSCALE_PACKETS_PER_FLOW` — base datagrams per flow at the 1× point
//!   (default `150`; the 2× point doubles it — with the default Pareto
//!   model inflating flow sizes ~4.3× on average, the two points together
//!   process well over 10M events on the default topology);
//! * `VSCALE_MODEL` — arrival model: `uniform` (the base workload),
//!   `pareto`, `onoff`, or `diurnal` (default `pareto`: heavy-tailed flow
//!   sizes are the interesting case at scale);
//! * `VSCALE_SEED` — workload seed (default `7`);
//! * `VSCALE_JSON` — where to write the metrics snapshot (default
//!   `BENCH_vscale_metrics.json`; empty string disables);
//! * `EDN_METRICS` / `EDN_METRICS_OUT` / `EDN_FLIGHT_OUT` — telemetry
//!   level, per-run registry export, and flight-dump path (see
//!   `ARCHITECTURE.md`).

use edn_bench::env_u64;
use edn_obs::{FlightRecorder, MetricsLevel, Registry, Stopwatch};
use edn_topo::{
    attach_stream, fat_tree, synthesize_arrivals, ArrivalModel, TierProfile, TrafficPattern,
    Workload,
};
use netsim::traffic::udp_packet;
use netsim::{DropReason, SimParams, SimTime, SinkHosts, StatsMode, TraceMode};
use std::fmt::Write as _;

/// `VmHWM` (peak resident set) of this process, in kilobytes.
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches(" kB").trim().parse().ok())
        .unwrap_or(0)
}

fn model_from_env() -> Option<ArrivalModel> {
    match std::env::var("VSCALE_MODEL").as_deref() {
        Ok("uniform") => None,
        Ok("onoff") => Some(ArrivalModel::OnOff { burst_packets: 8, off: SimTime::from_millis(5) }),
        Ok("diurnal") => Some(ArrivalModel::Diurnal { periods: 2, trough_pct: 10 }),
        Ok("pareto") | Err(_) => Some(ArrivalModel::Pareto { alpha: 1.3, max_packets: 64 * 1024 }),
        Ok(other) => panic!("VSCALE_MODEL must be uniform|pareto|onoff|diurnal, got `{other}`"),
    }
}

/// Dumps the flight recorder when the harness unwinds (a failed assert
/// anywhere in the run) — the crash dump that motivates the recorder.
struct FlightGuard(Option<FlightRecorder>);

impl Drop for FlightGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        if let Some(fr) = &self.0 {
            let path = FlightRecorder::dump_path_from_env("edn_flight.json");
            match fr.dump_to(&path) {
                Ok(()) => eprintln!("vscale: flight recorder dumped to {path}"),
                Err(e) => eprintln!("vscale: flight dump to {path} failed: {e}"),
            }
        }
    }
}

/// One verified streaming run; returns `(events, datagrams, wall_us,
/// arena_slots, verdict_ok, per-reason drops, metric registry)`.
#[allow(clippy::type_complexity)]
fn run_point(
    k: u64,
    packets_per_flow: u64,
    seed: u64,
) -> (u64, u64, u64, u64, bool, [u64; 4], Registry) {
    let gen = fat_tree(k, TierProfile::default());
    let workload = Workload {
        pattern: TrafficPattern::Permutation,
        seed,
        packets_per_flow,
        flows: gen.host_count(),
        interval: SimTime::from_micros(100),
        ..Workload::default()
    };
    let flows = match model_from_env() {
        None => edn_topo::synthesize(&gen, &workload),
        Some(m) => synthesize_arrivals(&gen, &workload, &m),
    };
    let horizon =
        flows.iter().map(|f| f.end).max().unwrap_or(SimTime::ZERO) + SimTime::from_secs(10);
    let (inside, outside) = (gen.hosts()[0], *gen.hosts().last().expect("hosts"));
    let nes = edn_apps::generated::firewall_nes(&gen, inside, outside);
    // This harness always measures with telemetry on: the snapshot is its
    // deliverable. `EDN_METRICS=full` upgrades to phase profiling and the
    // flight recorder; `off` is promoted to `counters`.
    let level = match MetricsLevel::from_env() {
        MetricsLevel::Off => MetricsLevel::Counters,
        lv => lv,
    };
    let mut engine = nes_runtime::nes_engine(
        nes.clone(),
        gen.sim().clone(),
        SimParams::default(),
        false,
        Box::new(SinkHosts),
    )
    .with_trace_mode(TraceMode::StatsOnly)
    .with_stats_mode(StatsMode::Counters)
    .with_metrics(level);
    let guard = FlightGuard(engine.flight_recorder());
    let handle = nes_runtime::attach_online_checker(&mut engine, &nes)
        .expect("the firewall NES fits the checker window");
    let datagrams = attach_stream(&mut engine, &flows);
    engine.inject_at(SimTime::from_millis(5), inside, udp_packet(inside, outside, u64::MAX, 0));
    let sw = Stopwatch::start();
    engine.run(horizon);
    let wall = sw.elapsed_us();
    let arena_slots = engine.arena_slots() as u64;
    let result = engine.finish();
    assert!(result.trace.is_empty(), "StatsOnly must not record");
    assert!(result.stats.deliveries.is_empty(), "Counters must not retain deliveries");
    let ok = handle.verdict().is_ok();
    if !ok {
        if let Some(fr) = &guard.0 {
            let path = FlightRecorder::dump_path_from_env("edn_flight.json");
            match fr.dump_to(&path) {
                Ok(()) => eprintln!("vscale: violation — flight recorder dumped to {path}"),
                Err(e) => eprintln!("vscale: flight dump to {path} failed: {e}"),
            }
        }
    }
    (
        result.stats.events_processed,
        datagrams + 1,
        wall,
        arena_slots,
        ok,
        result.stats.dropped,
        result.metrics,
    )
}

fn main() {
    let k = env_u64("VSCALE_FATTREE_K", 16);
    let packets = env_u64("VSCALE_PACKETS_PER_FLOW", 150);
    let seed = env_u64("VSCALE_SEED", 7);
    let json_path =
        std::env::var("VSCALE_JSON").unwrap_or_else(|_| "BENCH_vscale_metrics.json".to_string());
    let drop_cols = DropReason::ALL.map(|r| format!("drops_{}", r.name())).join(",");
    println!(
        "point,packets_per_flow,datagrams,events,wall_us,arena_slots,vm_hwm_kb,verdict,{drop_cols}"
    );
    let mut total_events = 0;
    let mut snapshots = String::new();
    for (point, p) in [("1x", packets), ("2x", 2 * packets)] {
        let (events, datagrams, wall_us, slots, ok, drops, metrics) = run_point(k, p, seed);
        total_events += events;
        let verdict = if ok { "correct" } else { "violation" };
        let named = drops.map(|d| d.to_string()).join(",");
        println!(
            "{point},{p},{datagrams},{events},{wall_us},{slots},{},{verdict},{named}",
            vm_hwm_kb()
        );
        if !snapshots.is_empty() {
            snapshots.push_str(",\n");
        }
        let _ = write!(snapshots, "  \"{point}\": {}", metrics.render_json().trim_end());
        assert!(ok, "the NES runtime must verify (Theorem 1)");
    }
    if !json_path.is_empty() {
        let body = format!("{{\n{snapshots}\n}}\n");
        if let Err(e) = std::fs::write(&json_path, body) {
            eprintln!("vscale: could not write {json_path}: {e}");
            std::process::exit(1);
        }
        eprintln!("vscale: metrics snapshot written to {json_path}");
    }
    eprintln!("total events processed: {total_events}");
}
