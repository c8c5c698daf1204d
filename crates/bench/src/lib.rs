//! # edn-bench
//!
//! Shared harness code for regenerating every table and figure of the
//! paper's Section 5. The `src/bin/fig*.rs` binaries print the data series;
//! the Criterion benches in `benches/` measure compiler, simulator,
//! optimizer, and checker performance.

#![warn(missing_docs)]

pub mod scale;

use edn_core::NetworkEventStructure;
use edn_scenario::{
    CampaignSpec, ChannelSpec, ModelSpec, ScenarioSpec, TopologySpec, WorkloadSpec,
};
use edn_topo::TrafficPattern;
use nes_runtime::{nes_engine, uncoordinated_engine, NesDataPlane, UncoordDataPlane};
use netsim::traffic::{ping_outcomes, schedule_pings, Ping, PingOutcome, ScenarioHosts};
use netsim::{RunResult, SimParams, SimTime};
use stateful_netkat::NetworkSpec;

/// One row of a Fig. 11–15 timeline: a ping and whether it was answered.
#[derive(Clone, Copy, Debug)]
pub struct TimelineRow {
    /// The probe.
    pub ping: Ping,
    /// Answered?
    pub ok: bool,
}

/// Runs a ping timeline on the event-driven consistent runtime.
pub fn run_correct(
    nes: NetworkEventStructure,
    spec: &NetworkSpec,
    pings: &[Ping],
    horizon: SimTime,
) -> (Vec<TimelineRow>, RunResult<NesDataPlane>) {
    let topo = edn_apps::sim_topology(spec, SimTime::from_micros(50), None);
    let mut engine =
        nes_engine(nes, topo, SimParams::default(), false, Box::new(ScenarioHosts::new()));
    schedule_pings(&mut engine, pings);
    let result = engine.run_until(horizon);
    (rows(pings, &ping_outcomes(pings, &result.stats)), result)
}

/// Runs a ping timeline on the uncoordinated baseline with the given
/// controller delay and seed.
pub fn run_uncoordinated(
    nes: NetworkEventStructure,
    spec: &NetworkSpec,
    pings: &[Ping],
    delay: SimTime,
    seed: u64,
    horizon: SimTime,
) -> (Vec<TimelineRow>, RunResult<UncoordDataPlane>) {
    let topo = edn_apps::sim_topology(spec, SimTime::from_micros(50), None);
    let mut engine = uncoordinated_engine(
        nes,
        topo,
        SimParams::default(),
        delay,
        seed,
        Box::new(ScenarioHosts::new()),
    );
    schedule_pings(&mut engine, pings);
    let result = engine.run_until(horizon);
    (rows(pings, &ping_outcomes(pings, &result.stats)), result)
}

fn rows(pings: &[Ping], outcomes: &[PingOutcome]) -> Vec<TimelineRow> {
    pings
        .iter()
        .zip(outcomes)
        .map(|(&ping, o)| TimelineRow { ping, ok: o.replied.is_some() })
        .collect()
}

/// Pretty-prints a timeline with host names resolved via `name`.
pub fn print_timeline(label: &str, rows: &[TimelineRow], name: impl Fn(u64) -> String) {
    println!("{label}");
    println!("  {:>10}  {:<8}  result", "time", "probe");
    for r in rows {
        println!(
            "  {:>10}  {:<8}  {}",
            r.ping.time.to_string(),
            format!("{}->{}", name(r.ping.src), name(r.ping.dst)),
            if r.ok { "reply" } else { "LOST" }
        );
    }
}

/// Reads an integer parameter from the environment, falling back to
/// `default` — the mechanism the `fig*` binaries use for reduced CI smoke
/// sweeps.
///
/// # Panics
///
/// Panics if the variable is set but not an integer.
pub fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => v.parse().unwrap_or_else(|_| panic!("{name} must be an integer, got {v:?}")),
        Err(_) => default,
    }
}

/// Logical CPUs available to this process, for stamping benchmark output
/// with the machine it ran on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model name from `/proc/cpuinfo` (`"unknown"` where that file is
/// absent), for stamping benchmark output with the machine it ran on.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A victim-unblock campaign of `updates` steps on fat-tree(`k`), as
/// scenario data: one step every 100 ms from 100 ms, each witnessed by a
/// causal probe, under permutation traffic with Pareto flow sizes spread
/// across the whole campaign. `updates + 1` configurations; 63 updates
/// fill the online checker's 64-configuration window.
pub fn campaign_spec(k: u64, updates: u64, seed: u64) -> ScenarioSpec {
    let spacing = SimTime::from_millis(100);
    let start = SimTime::from_millis(100);
    ScenarioSpec {
        name: format!("campaign-fattree{k}"),
        seed,
        topology: TopologySpec::FatTree(k),
        horizon: SimTime::ZERO, // auto: past the last flow, step, and probe
        workload: WorkloadSpec {
            pattern: TrafficPattern::Permutation,
            packets_per_flow: 3,
            spread: start + SimTime::from_micros(spacing.as_micros() * (updates + 2)),
            model: ModelSpec::Pareto,
            ..WorkloadSpec::default()
        },
        campaign: CampaignSpec {
            updates: updates as usize,
            start,
            spacing,
            probe: true,
            ..CampaignSpec::default()
        },
        channel: ChannelSpec::default(),
        actions: Vec::new(),
    }
}

/// Reads a comma-separated integer list from the environment, falling back
/// to `default`.
///
/// # Panics
///
/// Panics if the variable is set but not a comma-separated integer list.
pub fn env_list(name: &str, default: &[u64]) -> Vec<u64> {
    match std::env::var(name) {
        Ok(v) => v
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("{name} must be comma-separated integers"))
            })
            .collect(),
        Err(_) => default.to_vec(),
    }
}

/// Resolves the standard `H1..H4` host ids to names.
pub fn host_name(h: u64) -> String {
    match h {
        101 => "H1".to_string(),
        102 => "H2".to_string(),
        103 => "H3".to_string(),
        104 => "H4".to_string(),
        other => format!("h{other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edn_apps::{firewall, H1, H4};

    #[test]
    fn harness_runs_both_strategies() {
        let pings = vec![
            Ping { time: SimTime::from_millis(10), src: H1, dst: H4, id: 1 },
            Ping { time: SimTime::from_millis(50), src: H4, dst: H1, id: 2 },
        ];
        let (rows, _) =
            run_correct(firewall::nes(), &firewall::spec(), &pings, SimTime::from_secs(2));
        assert_eq!(rows.len(), 2);
        assert!(rows[0].ok && rows[1].ok, "correct runtime answers both");
        let (rows, _) = run_uncoordinated(
            firewall::nes(),
            &firewall::spec(),
            &pings,
            SimTime::from_millis(500),
            1,
            SimTime::from_secs(2),
        );
        assert!(!rows[0].ok, "even the trigger's own reply races the stale config");
        assert!(!rows[1].ok, "reverse probe races the stale config");
    }

    /// The fat-tree(8) campaign of 63 updates stores each distinct
    /// `(switch, rule)` once: 10,240 versioned entries stand for the
    /// 494,080 rules its 64 configurations hold, which the deployment's
    /// rule count still reports.
    #[test]
    fn campaign_rules_are_stored_once() {
        let c = edn_scenario::CompiledScenario::compile(&campaign_spec(8, 63, 2016))
            .expect("the campaign compiles");
        assert_eq!(c.nes.event_sets().len(), 64);
        let stored: usize = c.nes.tables().map(|(_, t)| t.len()).sum();
        assert_eq!(stored, 10_240);
        assert_eq!(c.nes.total_rules(), 494_080);
        let compiled = nes_runtime::CompiledNes::compile(c.nes.clone());
        assert_eq!(compiled.rule_breakdown().forwarding, 494_080);
    }

    #[test]
    fn names() {
        assert_eq!(host_name(101), "H1");
        assert_eq!(host_name(999), "h999");
    }
}
