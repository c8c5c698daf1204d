//! Campaign throughput harness: how fast can the coordinated runtime
//! retire *successive* event-driven updates under live heavy-tailed
//! traffic — and does every one of them verify?
//!
//! Run with: `cargo run --release -p edn-bench --bin fig_campaign`
//!
//! The harness compiles a declarative scenario (see `crates/scenario`): a
//! fat-tree(8) running a 20-update victim-unblock campaign with causal
//! probes, under streamed permutation traffic with Pareto flow sizes. Three
//! legs run in one process:
//!
//! * **throughput** — unchecked, shard count from `EDN_SHARDS`: the raw
//!   updates/sec the runtime sustains (trigger injection to final firing);
//! * **verified** — the online Definition 6 checker attached (the engine
//!   serializes under an observer): the same campaign, now with a verdict;
//! * **lossy** — verified again, over a seeded lossy control channel with
//!   the ack/retry reliability layer.
//!
//! Each leg reports its run rate (`fired / run time`) and, apart from it,
//! the up-front deployment cost per configuration (`deploy_us_per_config`:
//! engine build time over the NES's tag count), so the one-time table
//! build is not charged against the updates.
//!
//! The throughput and verified legs must report byte-identical `Stats` —
//! checking and sharding may cost wall time but never change a result. The
//! CSV goes to stdout; a JSON summary (every leg's rates plus the verdict,
//! stamped with the machine's `nproc` and CPU model) goes to
//! `CAMPAIGN_JSON`.
//!
//! Environment overrides (CI smoke uses small values):
//! * `CAMPAIGN_FATTREE_K` — fat-tree arity (default `8`: 80 switches, 128
//!   hosts);
//! * `CAMPAIGN_UPDATES` — campaign length (default `20`, max `63`: the
//!   online checker's window);
//! * `CAMPAIGN_SEED` — scenario seed (default `2016`);
//! * `CAMPAIGN_JSON` — where to write the summary (default
//!   `BENCH_campaign.json`; empty string disables).

use edn_bench::{campaign_spec, cpu_model, env_u64, nproc};
use edn_obs::Stopwatch;
use edn_scenario::CompiledScenario;
use netsim::{ChannelModel, DropReason, Stats};
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

/// One leg's measurements.
struct Leg {
    stats: Stats,
    datagrams: u64,
    fired: usize,
    /// Deployment (engine and table build) time, µs.
    deploy_us: u64,
    /// Configurations deployed (the NES's tag count).
    configs: usize,
    /// Run time, µs.
    wall_us: u64,
    verdict: &'static str,
}

/// One leg, with the deployment knobs from the environment.
fn leg(c: &CompiledScenario, check: bool) -> Leg {
    let sw = Stopwatch::start();
    let mut engine = c.engine();
    let deploy_us = sw.elapsed_us();
    let handle = check.then(|| {
        nes_runtime::attach_online_checker(&mut engine, &c.nes)
            .expect("a ≤63-step campaign fits the online checker's windows")
    });
    c.apply_actions(&mut engine);
    let datagrams = c.load_traffic(&mut engine, true);
    c.inject_campaign(&mut engine);
    let sw = Stopwatch::start();
    let result = engine.run_until(c.horizon);
    let wall_us = sw.elapsed_us();
    let fired = result.dataplane.fired_sequence().len();
    let configs = result.dataplane.compiled().tag_count();
    let verdict = match handle.map(|h| h.verdict()) {
        None => "unchecked",
        Some(Ok(())) => "correct",
        Some(Err(v)) => v.name(),
    };
    Leg { stats: result.stats, datagrams, fired, deploy_us, configs, wall_us, verdict }
}

fn updates_per_sec(fired: usize, us: u64) -> f64 {
    fired as f64 * 1_000_000.0 / us.max(1) as f64
}

fn main() {
    let k = env_u64("CAMPAIGN_FATTREE_K", 8);
    let updates = env_u64("CAMPAIGN_UPDATES", 20);
    let seed = env_u64("CAMPAIGN_SEED", 2016);
    let json_path =
        std::env::var("CAMPAIGN_JSON").unwrap_or_else(|_| "BENCH_campaign.json".to_string());

    let spec = campaign_spec(k, updates, seed);
    let c = CompiledScenario::compile(&spec).expect("the campaign spec compiles");
    // Warm-up: one untimed engine build absorbs allocator growth and cold
    // caches, so the timed legs measure deployment, not page faults.
    drop(c.engine());
    let drop_cols = DropReason::ALL.map(|r| format!("drops_{}", r.name())).join(",");
    println!(
        "leg,compile,updates,fired,datagrams,events,deploy_us,wall_us,updates_per_sec,\
         deploy_us_per_config,vm_hwm_kb,verdict,{drop_cols}"
    );

    let compile = nes_runtime::CompilePath::Scratch.label();
    let mut json = String::new();
    let mut baseline: Option<Stats> = None;
    for (name, check) in [("throughput", false), ("verified", true)] {
        let l = leg(&c, check);
        assert_eq!(l.fired, c.steps.len(), "every campaign step fires");
        if check {
            assert_eq!(l.verdict, "correct", "the NES runtime must verify (Theorem 1)");
        }
        if let Some(b) = &baseline {
            assert_eq!(&l.stats, b, "checking must not change a byte of the stats");
        }
        let rate = updates_per_sec(l.fired, l.wall_us);
        let per_config = l.deploy_us as f64 / l.configs.max(1) as f64;
        let named = l.stats.dropped.map(|d| d.to_string()).join(",");
        println!(
            "{name},{compile},{updates},{},{},{},{},{},{rate:.2},{per_config:.1},{},{},{named}",
            l.fired,
            l.datagrams,
            l.stats.events_processed,
            l.deploy_us,
            l.wall_us,
            vm_hwm_kb(),
            l.verdict,
        );
        let _ = writeln!(
            json,
            "  \"{name}\": {{ \"fired\": {}, \"events\": {}, \"configs\": {}, \
             \"deploy_us\": {}, \"deploy_us_per_config\": {per_config:.1}, \
             \"wall_us\": {}, \"updates_per_sec\": {rate:.2}, \"verdict\": \"{}\" }},",
            l.fired, l.stats.events_processed, l.configs, l.deploy_us, l.wall_us, l.verdict,
        );
        baseline = Some(l.stats);
    }

    // The chaos leg: the same campaign over a seeded lossy control channel,
    // with the ack/retry reliability layer wrapped around the runtime and
    // the online checker attached. Loss reshapes control timing, so this
    // leg is *not* byte-compared against the ideal baseline — the contract
    // here is the verdict: every step fires and Definition 6 still holds.
    {
        let sw = Stopwatch::start();
        let out = edn_scenario::run_coordinated(
            &c,
            &edn_scenario::RunOptions {
                check: true,
                channel: Some(ChannelModel::lossy(seed)),
                ..edn_scenario::RunOptions::default()
            },
        );
        let wall_us = sw.elapsed_us();
        let fired = out.fired.expect("coordinated legs count firings");
        assert_eq!(fired, c.steps.len(), "every campaign step fires under loss");
        assert!(!out.degraded, "the default retry budget must survive the stock lossy model");
        assert_eq!(out.verdict_name(), "correct", "Theorem 1 must survive the lossy channel");
        let rate = updates_per_sec(fired, wall_us);
        let named = out.stats.dropped.map(|d| d.to_string()).join(",");
        println!(
            "lossy,reliable,{updates},{fired},{},{},0,{wall_us},{rate:.2},0,{},{},{named}",
            out.datagrams,
            out.stats.events_processed,
            vm_hwm_kb(),
            out.verdict_name(),
        );
        let _ = write!(
            json,
            "  \"lossy_reliable\": {{ \"fired\": {fired}, \"events\": {}, \
             \"wall_us\": {wall_us}, \"updates_per_sec\": {rate:.2}, \"verdict\": \"{}\" }}",
            out.stats.events_processed,
            out.verdict_name(),
        );
    }

    if !json_path.is_empty() {
        let body = format!(
            "{{\n  \"nproc\": {},\n  \"cpu_model\": \"{}\",\n  \
             \"topology\": \"fat_tree({k})\",\n  \"updates\": {updates},\n  \
             \"seed\": {seed},\n  \"model\": \"pareto\",\n{json}\n}}\n",
            nproc(),
            cpu_model(),
        );
        if let Err(e) = std::fs::write(&json_path, body) {
            eprintln!("fig_campaign: could not write {json_path}: {e}");
            std::process::exit(1);
        }
        eprintln!("fig_campaign: summary written to {json_path}");
    }
}
