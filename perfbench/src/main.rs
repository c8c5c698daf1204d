//! `perfbench` — runs one benchmark workload for a fixed time and prints
//! one JSON object (its last stdout line) with the checks and metrics.
//!
//! ```text
//! perfbench --workload <campaign_verified|stream_unchecked|corpus_churn>
//!           --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//! ```
//!
//! `--trace 0` repeats untraced repetitions and reports the end-to-end
//! metrics. `--trace 1` alternates untraced and traced repetitions
//! (rotating which goes first) and reports the per-layer metrics plus the
//! tracing overhead. Every repetition's deterministic outputs must digest
//! identically; any mismatch or failed operation makes the run incorrect
//! and the exit code nonzero.
//!
//! The program refuses to run when any `EDN_*` variable is set: those
//! knobs (lookup path, compile path, optimizer, shards, channel, retry
//! budget, metrics, …) would otherwise change what is measured.

use std::fmt::Write as _;

use edn_perfbench::measure::{median, quantile, status_kb, Clock};
use edn_perfbench::workloads::{inputs, run_rep, Inputs, Layers, Rep, Size, Workload, KNOBS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    /// Print the generated scenario text and exit (the child side of
    /// [`campaign_text`]).
    emit_scenario: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <campaign_verified|stream_unchecked|corpus_churn> \
         --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: Workload::CampaignVerified,
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        emit_scenario: false,
    };
    let mut workload = None;
    for pair in argv.chunks(2) {
        let [flag, value] = pair else { usage("every flag takes a value") };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => usage("--size takes full or tiny"),
                }
            }
            "--emit-scenario" => args.emit_scenario = value == "1",
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let name = workload.unwrap_or_else(|| usage("--workload is required"));
    args.workload =
        Workload::from_name(&name).unwrap_or_else(|| usage(&format!("unknown workload {name}")));
    args
}

/// The knob values this process runs with, as a JSON object. `EDN_*` is
/// refused, so the environment-read ones are their defaults; the
/// deployment knobs are pinned by [`KNOBS`] regardless.
fn knobs_json() -> String {
    format!(
        "{{\"lookup\":\"{}\",\"compile\":\"{}\",\"optimize\":\"{}\",\"shards\":{},\
         \"channel\":\"{}\",\"retry_budget\":{},\"metrics\":\"{}\",\"queue\":\"{}\",\
         \"packets\":\"{}\"}}",
        KNOBS.path.label(),
        KNOBS.compile.label(),
        KNOBS.optimize.label(),
        netsim::shard_count_from_env(),
        if netsim::ChannelModel::from_env().is_ideal() { "ideal" } else { "lossy" },
        nes_runtime::retry_budget_from_env(),
        edn_obs::MetricsLevel::from_env().name(),
        netsim::QueueKind::from_env().label(),
        netsim::PacketPath::from_env().label(),
    )
}

/// A metric line: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The end-to-end metrics of the untraced repetitions.
fn end_to_end(reps: &[Rep]) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let latencies: Vec<f64> =
        reps.iter().flat_map(|r| r.latencies_ns.iter().map(|&ns| ns as f64 / 1e6)).collect();
    vec![
        ("setup_s", med(&|r| r.setup_ns as f64 / 1e9), "s"),
        ("wall_s", med(&|r| r.wall_ns as f64 / 1e9), "s"),
        ("ns_per_event", med(&|r| ratio(r.run_ns, r.events)), "ns"),
        ("scenario_p50_ms", quantile(&latencies, 0.5), "ms"),
        ("scenario_p90_ms", quantile(&latencies, 0.9), "ms"),
        ("peak_rss_mb", status_kb("VmHWM") as f64 / 1024.0, "MB"),
    ]
}

/// One traced repetition's per-layer metrics.
fn layer_metrics(l: &Layers) -> Vec<Metric> {
    let busy = l.data_ns + l.ctrl_ns + l.checker_ns;
    vec![
        ("scenario.parse_us", l.parse_ns as f64 / 1e3, "us"),
        ("scenario.compile_us", l.compile_ns as f64 / 1e3, "us"),
        ("topo.build_us", l.topo_ns as f64 / 1e3, "us"),
        ("runtime.compile_nes_us", l.compile_nes_ns as f64 / 1e3, "us"),
        ("runtime.deploy_us", l.deploy_ns as f64 / 1e3, "us"),
        ("runtime.deploy_us_per_config", ratio(l.deploy_ns, l.configs) / 1e3, "us"),
        ("runtime.deploy_rss_mb", l.deploy_rss_kb as f64 / 1024.0, "MB"),
        ("runtime.dataplane.calls", l.data_calls as f64, "count"),
        ("runtime.dataplane.busy_ms", l.data_ns as f64 / 1e6, "ms"),
        ("runtime.dataplane.ns_per_call", ratio(l.data_ns, l.data_calls), "ns"),
        ("runtime.control.calls", l.ctrl_calls as f64, "count"),
        ("runtime.control.busy_ms", l.ctrl_ns as f64 / 1e6, "ms"),
        ("runtime.reliable.retransmits", l.retransmits as f64, "count"),
        ("runtime.reliable.dup_suppressed", l.dup_suppressed as f64, "count"),
        ("runtime.reliable.degraded_runs", l.degraded_runs as f64, "count"),
        ("runtime.flowindex.fp_hit_ratio", ratio(l.fp_hits, l.fp_hits + l.fp_fallbacks), "ratio"),
        ("core.checker.attach_us", l.attach_ns as f64 / 1e3, "us"),
        ("core.checker.attach_rss_mb", l.attach_rss_kb as f64 / 1024.0, "MB"),
        ("core.checker.calls", l.checker_calls as f64, "count"),
        ("core.checker.busy_ms", l.checker_ns as f64 / 1e6, "ms"),
        ("core.checker.ns_per_record", ratio(l.checker_ns, l.checker_records), "ns"),
        ("core.checker.live_nodes_hw", l.live_nodes_hw as f64, "count"),
        ("core.checker.obligations_hw", l.obligations_hw as f64, "count"),
        ("core.checker.retired_prefixes", l.retired_prefixes as f64, "count"),
        ("netsim.run_ms", l.run_ns as f64 / 1e6, "ms"),
        ("netsim.events", l.events as f64, "count"),
        ("netsim.self_ns_per_event", ratio(l.run_ns.saturating_sub(busy), l.events), "ns"),
        ("netsim.queue_depth_hw", l.queue_depth_hw as f64, "count"),
        ("netsim.arena_slots_hw", l.arena_slots_hw as f64, "count"),
        (
            "netsim.arena.intern_hit_ratio",
            ratio(l.intern_hits, l.intern_hits + l.intern_misses),
            "ratio",
        ),
        ("netsim.channel.dropped", l.chan_dropped as f64, "count"),
        ("netsim.channel.duplicated", l.chan_duplicated as f64, "count"),
        ("netsim.channel.reordered", l.chan_reordered as f64, "count"),
    ]
}

/// The per-layer metrics: each the median over the timed traced
/// repetitions — except memory (`_rss_mb`), the maximum over every traced
/// repetition, warm-up included, since only a cold heap grows — plus the
/// tracing overhead (traced against untraced median wall time).
fn per_layer(untraced: &[Rep], traced: &[Rep], all_traced: &[Rep]) -> Vec<Metric> {
    let metrics = |reps: &[Rep]| -> Vec<Vec<Metric>> {
        reps.iter().map(|r| layer_metrics(r.layers.as_ref().expect("traced"))).collect()
    };
    let (per_rep, every) = (metrics(traced), metrics(all_traced));
    let mut out: Vec<Metric> = per_rep[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            let value = if name.ends_with("_rss_mb") {
                every.iter().map(|m| m[i].1).fold(0.0, f64::max)
            } else {
                median(&per_rep.iter().map(|m| m[i].1).collect::<Vec<_>>())
            };
            (name, value, unit)
        })
        .collect();
    let wall = |reps: &[Rep]| median(&reps.iter().map(|r| r.wall_ns as f64).collect::<Vec<_>>());
    out.push(("bench.trace_overhead_pct", (wall(traced) / wall(untraced) - 1.0) * 100.0, "%"));
    out
}

/// The full-size campaign scenario, generated by a child process: the
/// search for a seed in the event window runs the program, and its heap
/// must not carry into the measured process (its first repetition then
/// sees a cold heap, and `VmHWM` covers the measured repetitions only).
fn campaign_text(args: &Args) -> String {
    let exe = std::env::current_exe().expect("own executable");
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed", &args.seed.to_string()])
        .args(["--emit-scenario", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("the scenario generator runs");
    if !out.status.success() {
        eprintln!("perfbench: scenario generation failed ({})", out.status);
        std::process::exit(1);
    }
    String::from_utf8(out.stdout).expect("scenario text is UTF-8")
}

fn main() {
    let args = parse_args();
    let stray: Vec<String> =
        std::env::vars().map(|(k, _)| k).filter(|k| k.starts_with("EDN_")).collect();
    if !stray.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: EDN_* knobs change what is measured",
            stray.join(", ")
        );
        std::process::exit(2);
    }
    let inputs = match (args.workload, args.size) {
        (Workload::CampaignVerified, Size::Full) if args.emit_scenario => {
            let Inputs::Campaign(text) = inputs(args.workload, args.seed, args.size) else {
                unreachable!("campaign inputs are scenario text")
            };
            print!("{text}");
            return;
        }
        (Workload::CampaignVerified, Size::Full) => Inputs::Campaign(campaign_text(&args)),
        _ => inputs(args.workload, args.seed, args.size),
    };
    let mut clock = Clock::new();
    let budget_ns = args.seconds * 1e9;
    let start = clock.now_ns();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut rounds = 0usize;
    loop {
        let round_start = clock.now_ns();
        // Rotate which leg goes first, so neither owns the warm position;
        // the traced leg opens, so its RSS deltas see a cold heap.
        let traced_first = args.trace && rounds.is_multiple_of(2);
        if traced_first {
            traced.push(run_rep(&inputs, &mut clock, true, 2 * rounds));
        }
        untraced.push(run_rep(&inputs, &mut clock, false, 2 * rounds + 1));
        if args.trace && !traced_first {
            traced.push(run_rep(&inputs, &mut clock, true, 2 * rounds));
        }
        rounds += 1;
        // Stop unless another round, as long as the average or the last
        // one, still fits in the budget.
        let now = clock.now_ns();
        let (elapsed, last) = ((now - start) as f64, (now - round_start) as f64);
        if elapsed + last.max(elapsed / rounds as f64) > budget_ns {
            break;
        }
    }
    // The first round warms the heap and caches: its outputs are checked
    // but its timings are left out whenever a later round ran.
    let warm = usize::from(rounds > 1);

    let all: Vec<&Rep> = untraced.iter().chain(&traced).collect();
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    let digest = untraced[0].digest;
    let repeatable = all.iter().all(|r| r.digest == digest);
    if !repeatable {
        let seen: Vec<String> = all.iter().map(|r| format!("{:016x}", r.digest)).collect();
        eprintln!("perfbench: output digests differ between repetitions: {}", seen.join(" "));
    }
    let correct = repeatable && failed == 0;
    let metrics = if args.trace {
        per_layer(&untraced[warm..], &traced[warm..], &traced)
    } else {
        end_to_end(&untraced[warm..])
    };

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{}\",\"seed\":{},\"size\":\"{}\",\"trace\":{},\"correct\":{correct},\
         \"attempted\":{attempted},\"failed\":{failed},\"reps\":{{\"untraced\":{},\"traced\":{}}},\
         \"digest\":\"{digest:016x}\",\"events_per_rep\":{},\"knobs\":{},\"metrics\":{{",
        args.workload.name(),
        args.seed,
        if args.size == Size::Full { "full" } else { "tiny" },
        args.trace as u8,
        untraced.len(),
        traced.len(),
        untraced[0].events,
        knobs_json(),
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    let series = |f: &dyn Fn(&Rep) -> f64| {
        untraced.iter().map(|r| f(r).to_string()).collect::<Vec<_>>().join(",")
    };
    let _ = write!(
        out,
        "}},\"per_rep\":{{\"setup_s\":[{}],\"wall_s\":[{}],\"ns_per_event\":[{}],\"events\":[{}]}}",
        series(&|r| r.setup_ns as f64 / 1e9),
        series(&|r| r.wall_ns as f64 / 1e9),
        series(&|r| ratio(r.run_ns, r.events)),
        series(&|r| r.events as f64),
    );
    let _ = write!(out, ",\"warmup_rounds\":{warm}");
    if let Some(l) = traced.last().and_then(|r| r.layers.as_ref()) {
        let _ = write!(out, ",\"last_traced_layers\":\"{l:?}\"");
    }
    let _ = write!(out, ",\"spans\":{}}}", clock.spans_json());
    println!("{out}");
    if !correct {
        std::process::exit(1);
    }
}
