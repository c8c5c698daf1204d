//! Figure 18 (new): the scale trajectory — wall-clock, events processed,
//! and rule counts as switch count grows, on generated rings and fat-trees,
//! for both the static reference plane and the NES runtime.
//!
//! Run with: `cargo run --release -p edn-bench --bin fig18_scale_sweep`
//!
//! Every sweep point runs in **both** trace modes (full recording and
//! stats-only): the CSV on stdout reports the mode selected by `EDN_TRACE`
//! (default `full`), and a machine-readable perf-trajectory file
//! (`BENCH_fig18.json` by default, stamped with the machine's `nproc` and
//! CPU model) records `(switches, events, wall, ns/event)` for every
//! combination at every point. `wall_us` times the simulation event loop
//! (`Engine::run`). All CSV columns except `wall_us` are identical across
//! trace modes, queue implementations, and packet paths by construction —
//! CI replays the sweep across them and `cmp`s the canonical CSVs.
//!
//! Environment overrides (CI smoke uses small values):
//! * `FIG18_RING_SIZES` — comma-separated ring sizes (default
//!   `4,8,16,32,64,128`);
//! * `FIG18_FATTREE_KS` — comma-separated fat-tree arities (default
//!   `4,6,8`);
//! * `FIG18_PACKETS_PER_FLOW` — datagrams per flow (default `20`);
//! * `FIG18_SEED` — workload seed (default `7`);
//! * `FIG18_SHARDS` — comma-separated engine shard counts for the JSON
//!   trajectory (default `1,4`). The CSV always reports the
//!   `EDN_SHARDS` selection — and is byte-identical across shard counts,
//!   which CI `cmp`s;
//! * `FIG18_REPS` — repetitions per point, reporting the minimum
//!   wall-clock (default `1`; CI uses `1`);
//! * `FIG18_CANONICAL` — when `1`, report the wall-clock column as `0` so
//!   two runs with the same seed produce byte-identical CSV;
//! * `FIG18_JSON` — where to write the perf trajectory (default
//!   `BENCH_fig18.json`; empty string disables);
//! * `EDN_TRACE` — `full` or `stats`: the trace mode the CSV reports;
//! * `EDN_SHARDS` — engine shard count the CSV reports;
//! * `EDN_QUEUE` / `EDN_PACKETS` — event queue and packet representation
//!   for the whole process (heap|calendar, owned|arena).

use std::fmt::Write as _;

use edn_bench::scale::{run_point, Plane, SweepRow, CSV_HEADER};
use edn_bench::{cpu_model, env_list, env_u64, nproc};
use edn_topo::{fat_tree, ring, GenTopology, LinkProfile, TierProfile, TrafficPattern, Workload};
use netsim::TraceMode;

/// One `(sweep point, trace mode)` record of the perf trajectory.
struct JsonRow {
    mode: TraceMode,
    row: SweepRow,
}

impl JsonRow {
    fn render(&self) -> String {
        let r = &self.row;
        format!(
            "    {{\"topology\": \"{}\", \"param\": {}, \"plane\": \"{}\", \
             \"trace\": \"{}\", \"shards\": {}, \"switches\": {}, \"rules\": {}, \
             \"events\": {}, \"wall_us\": {}, \"ns_per_event\": {:.1}, \
             \"latency_p50_us\": {}, \"latency_p99_us\": {}, \"arena_hw\": {}, \
             \"obligations_hw\": {}}}",
            r.topology,
            r.param,
            r.plane.label(),
            self.mode.label(),
            r.shards,
            r.switches,
            r.rules,
            r.events,
            r.wall_us,
            r.ns_per_event(),
            r.latency_p50_us,
            r.latency_p99_us,
            r.arena_hw,
            r.obligations_hw,
        )
    }
}

fn render_json(seed: u64, packets_per_flow: u64, rows: &[JsonRow]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"fig18_scale_sweep\",");
    let _ = writeln!(out, "  \"nproc\": {},", nproc());
    let _ = writeln!(out, "  \"cpu_model\": \"{}\",", cpu_model());
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"packets_per_flow\": {packets_per_flow},");
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&row.render());
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let ring_sizes = env_list("FIG18_RING_SIZES", &[4, 8, 16, 32, 64, 128]);
    let fat_tree_ks = env_list("FIG18_FATTREE_KS", &[4, 6, 8]);
    let seed = env_u64("FIG18_SEED", 7);
    let packets_per_flow = env_u64("FIG18_PACKETS_PER_FLOW", 20);
    let reps = env_u64("FIG18_REPS", 1) as u32;
    let canonical = env_u64("FIG18_CANONICAL", 0) == 1;
    let json_path = std::env::var("FIG18_JSON").unwrap_or_else(|_| "BENCH_fig18.json".to_string());
    let csv_mode = TraceMode::from_env();
    let csv_shards = netsim::shard_count_from_env();
    let mut shard_counts = env_list("FIG18_SHARDS", &[1, 4]);
    if !shard_counts.contains(&(csv_shards as u64)) {
        shard_counts.push(csv_shards as u64);
    }
    let workload = Workload {
        pattern: TrafficPattern::Permutation,
        seed,
        packets_per_flow,
        ..Workload::default()
    };
    println!("# Fig. 18: scale sweep — permutation traffic, seed {seed}");
    println!(
        "# rings {ring_sizes:?}, fat-trees {fat_tree_ks:?}, {packets_per_flow} pkts/flow, \
         CSV trace mode: {}, CSV shards: {csv_shards}, reps: {reps}",
        csv_mode.label()
    );
    println!("{CSV_HEADER}");
    let mut json_rows: Vec<JsonRow> = Vec::new();
    let mut sweep = |gen: &GenTopology, topology: &str, param: u64| {
        for plane in [Plane::Static, Plane::Nes] {
            for &shards in &shard_counts {
                let shards = shards as u32;
                for mode in [TraceMode::Full, TraceMode::StatsOnly] {
                    let selected = mode == csv_mode && shards == csv_shards;
                    // Non-selected combinations only feed the JSON
                    // trajectory; skip them when it is disabled.
                    if !selected && json_path.is_empty() {
                        continue;
                    }
                    let row = run_point(gen, topology, param, plane, &workload, mode, shards, reps);
                    if selected {
                        let mut csv_row = row.clone();
                        if canonical {
                            csv_row.wall_us = 0;
                        }
                        println!("{}", csv_row.csv());
                    }
                    json_rows.push(JsonRow { mode, row });
                }
            }
        }
    };
    for &n in &ring_sizes {
        sweep(&ring(n, LinkProfile::default()), "ring", n);
    }
    for &k in &fat_tree_ks {
        sweep(&fat_tree(k, TierProfile::default()), "fat-tree", k);
    }
    if !json_path.is_empty() {
        let json = render_json(seed, packets_per_flow, &json_rows);
        if let Err(e) = std::fs::write(&json_path, json) {
            eprintln!("fig18: could not write {json_path}: {e}");
            std::process::exit(1);
        }
        eprintln!("fig18: perf trajectory written to {json_path}");
    }
}
