//! The three workloads: input generation from a seed, one repetition
//! (untraced or traced), and its output checks.
//!
//! * `campaign_verified` — a fat-tree(8) victim-unblock campaign of 63
//!   updates (64 configurations: the online checker's full window) under
//!   streamed Pareto permutation traffic, checker attached;
//! * `stream_unchecked` — the fat-tree(16) generated firewall under
//!   streamed Pareto permutation traffic, stats-only, no checker;
//! * `corpus_churn` — a closed loop over generated scenarios (alternately
//!   ideal and lossy control channel), each fed as TOML text through
//!   parse, compile and a checked coordinated run.
//!
//! An untraced repetition drives the program through the same public
//! constructors a user calls (`CompiledScenario::engine_with`,
//! `reliable_engine_with`, `nes_engine_with`, `attach_online_checker`).
//! A traced repetition makes the same calls one layer at a time and wraps
//! the data plane and the observer (see [`crate::timed`]); both must
//! produce byte-identical `Stats`, firings and verdicts.

use edn_core::{NetworkEventStructure, OnlineChecker};
use edn_obs::{MetricsLevel, Registry};
use edn_scenario::{
    effective_channel, parse, CampaignSpec, ChannelSpec, CompiledScenario, ModelSpec, RunOptions,
    ScenarioGen, ScenarioSpec, TopologySpec, WorkloadSpec,
};
use edn_topo::{fat_tree, synthesize_arrivals, ArrivalModel, TierProfile, TrafficPattern};
use nes_runtime::{CompilePath, CompiledNes, DeployKnobs, NesDataPlane, OptimizeMode, Reliable};
use netkat::LookupPath;
use netsim::traffic::udp_packet;
use netsim::{
    ChannelModel, DataPlane, Engine, SimParams, SimTime, SinkHosts, Stats, StatsMode, TraceMode,
};

use crate::measure::{fnv, rss_kb, stats_digest, Clock};
use crate::timed::{PlaneTally, Timed, TimedObserver};

/// The deployment knobs every workload runs with, pinned here rather than
/// read from `EDN_LOOKUP` / `EDN_COMPILE` / `EDN_OPTIMIZE`.
pub const KNOBS: DeployKnobs = DeployKnobs {
    path: LookupPath::Indexed,
    compile: CompilePath::Scratch,
    optimize: OptimizeMode::Off,
};

/// Campaign length of `campaign_verified`: 63 updates, 64 configurations.
pub const CAMPAIGN_UPDATES: usize = 63;

/// A benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Successive event-driven updates verified online (Definition 6).
    CampaignVerified,
    /// Bare forwarding at scale, no checker.
    StreamUnchecked,
    /// Many tiny churn scenarios in a closed loop.
    CorpusChurn,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] =
        [Workload::CampaignVerified, Workload::StreamUnchecked, Workload::CorpusChurn];

    /// The workload's benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignVerified => "campaign_verified",
            Workload::StreamUnchecked => "stream_unchecked",
            Workload::CorpusChurn => "corpus_churn",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's `full` size, or a `tiny` one for smoke tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    /// The measured size.
    Full,
    /// A seconds-long smoke size.
    Tiny,
}

/// The generated inputs of `stream_unchecked`.
#[derive(Clone, Debug)]
pub struct StreamInputs {
    /// Fat-tree arity.
    pub k: u64,
    /// Traffic seed.
    pub seed: u64,
    /// Pareto scale: base datagrams per flow.
    pub packets_per_flow: u64,
    /// Index (into the topology's host list) of the firewall's inside host.
    pub inside: usize,
    /// Index of the outside host.
    pub outside: usize,
}

/// A workload's generated inputs: everything a repetition needs, derived
/// from the seed before any timing starts.
#[derive(Clone, Debug)]
pub enum Inputs {
    /// `campaign_verified`: the scenario as TOML text.
    Campaign(String),
    /// `stream_unchecked`.
    Stream(StreamInputs),
    /// `corpus_churn`: one TOML text per scenario.
    Corpus(Vec<String>),
}

/// Scenarios per `corpus_churn` repetition at full size.
pub const CORPUS_SCENARIOS: u64 = 2000;

/// The `campaign_verified` scenario for `seed`.
pub fn campaign_spec(seed: u64, size: Size) -> ScenarioSpec {
    let (k, updates, packets) = match size {
        Size::Full => (8, CAMPAIGN_UPDATES, 30),
        Size::Tiny => (4, 3, 3),
    };
    let start = SimTime::from_millis(100);
    let spacing = SimTime::from_millis(100);
    ScenarioSpec {
        name: format!("campaign-verified-{seed}"),
        seed,
        topology: TopologySpec::FatTree(k),
        horizon: SimTime::ZERO,
        workload: WorkloadSpec {
            pattern: TrafficPattern::Permutation,
            packets_per_flow: packets,
            spread: start + SimTime::from_micros(spacing.as_micros() * (updates as u64 + 2)),
            model: ModelSpec::Pareto,
            ..WorkloadSpec::default()
        },
        campaign: CampaignSpec { updates, start, spacing, probe: true, ..CampaignSpec::default() },
        channel: ChannelSpec::default(),
        actions: Vec::new(),
    }
}

/// The `corpus_churn` scenario seeds for run seed `seed`: scenario `i`
/// samples `seed * 1_000_000 + i`, even `i` on the ideal channel, odd `i`
/// on its lossy twin.
pub fn corpus_specs(seed: u64, size: Size) -> Vec<ScenarioSpec> {
    let n = match size {
        Size::Full => CORPUS_SCENARIOS,
        Size::Tiny => 6,
    };
    (0..n)
        .map(|i| {
            let s = seed.wrapping_mul(1_000_000).wrapping_add(i);
            if i % 2 == 0 {
                ScenarioGen::sample(s)
            } else {
                ScenarioGen::sample_lossy(s)
            }
        })
        .collect()
}

/// The engine-event count a full-size `campaign_verified` scenario is
/// held to (±[`CAMPAIGN_EVENT_TOLERANCE`]). Pareto flow sizes over 128
/// flows spread the count by ±6% (interquartile) from seed to seed; the
/// window keeps every seed's run the same amount of work.
pub const CAMPAIGN_EVENTS: u64 = 50_000;

/// Relative half-width of the accepted event-count window.
pub const CAMPAIGN_EVENT_TOLERANCE: f64 = 0.02;

/// Engine events of a scenario's unchecked run: the checker never changes
/// a byte of the stats, so this is the checked run's count too.
fn unchecked_events(spec: &ScenarioSpec) -> u64 {
    let c = CompiledScenario::compile(spec).expect("campaign specs compile");
    let mut engine = c.engine_with(KNOBS);
    c.load_traffic(&mut engine, true);
    c.inject_campaign(&mut engine);
    engine.run_until(c.horizon).stats.events_processed
}

/// The `campaign_verified` scenario of run seed `seed`: the first of the
/// scenario seeds `seed * 1000 + j` (`j = 0, 1, …`) whose run processes
/// [`CAMPAIGN_EVENTS`] ± [`CAMPAIGN_EVENT_TOLERANCE`] events. A tiny
/// campaign takes `seed` as it is.
pub fn campaign_for_seed(seed: u64, size: Size) -> ScenarioSpec {
    if size == Size::Tiny {
        return campaign_spec(seed, size);
    }
    let window = CAMPAIGN_EVENTS as f64 * CAMPAIGN_EVENT_TOLERANCE;
    (0..)
        .map(|j| campaign_spec(seed.wrapping_mul(1000).wrapping_add(j), size))
        .find(|spec| (unchecked_events(spec) as f64 - CAMPAIGN_EVENTS as f64).abs() <= window)
        .expect("some seed lands in the window")
}

/// Generates a workload's inputs from its seed.
pub fn inputs(w: Workload, seed: u64, size: Size) -> Inputs {
    match w {
        Workload::CampaignVerified => Inputs::Campaign(campaign_for_seed(seed, size).to_toml()),
        Workload::StreamUnchecked => {
            let (k, packets_per_flow) = match size {
                Size::Full => (16, 95),
                Size::Tiny => (4, 3),
            };
            let hosts = (k * k * k / 4) as usize;
            let inside = (seed % hosts as u64) as usize;
            let outside = (inside + hosts / 2) % hosts;
            Inputs::Stream(StreamInputs { k, seed, packets_per_flow, inside, outside })
        }
        Workload::CorpusChurn => {
            Inputs::Corpus(corpus_specs(seed, size).iter().map(ScenarioSpec::to_toml).collect())
        }
    }
}

/// Per-layer tallies of one traced repetition. Times are nanoseconds,
/// summed over the repetition; `_hw` fields are maxima.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Layers {
    pub parse_ns: u64,
    pub compile_ns: u64,
    pub topo_ns: u64,
    pub compile_nes_ns: u64,
    pub deploy_ns: u64,
    /// Configurations deployed (`CompiledNes::tag_count`, summed).
    pub configs: u64,
    pub deploy_rss_kb: u64,
    pub data_calls: u64,
    pub data_ns: u64,
    pub ctrl_calls: u64,
    pub ctrl_ns: u64,
    pub retransmits: u64,
    pub dup_suppressed: u64,
    pub degraded_runs: u64,
    pub fp_hits: u64,
    pub fp_fallbacks: u64,
    pub attach_ns: u64,
    pub attach_rss_kb: u64,
    pub checker_calls: u64,
    pub checker_records: u64,
    pub checker_ns: u64,
    pub live_nodes_hw: u64,
    pub obligations_hw: u64,
    pub retired_prefixes: u64,
    pub run_ns: u64,
    pub events: u64,
    pub queue_depth_hw: u64,
    pub arena_slots_hw: u64,
    pub intern_hits: u64,
    pub intern_misses: u64,
    pub chan_dropped: u64,
    pub chan_duplicated: u64,
    pub chan_reordered: u64,
}

impl Layers {
    /// Folds a finished run's plane tally and metric registry in.
    fn absorb_run(&mut self, tally: PlaneTally, reg: &Registry) {
        let c = |name| reg.counter(name).unwrap_or(0);
        let g = |name| reg.gauge(name).unwrap_or(0);
        self.data_calls += tally.data_calls;
        self.data_ns += tally.data_ns;
        self.ctrl_calls += tally.ctrl_calls;
        self.ctrl_ns += tally.ctrl_ns;
        self.fp_hits += c("flowindex.fp_hits");
        self.fp_fallbacks += c("flowindex.fp_fallbacks");
        self.live_nodes_hw = self.live_nodes_hw.max(g("checker.live_nodes_hw"));
        self.obligations_hw = self.obligations_hw.max(g("checker.obligations_hw"));
        self.retired_prefixes += c("checker.retired_prefixes");
        self.queue_depth_hw = self.queue_depth_hw.max(g("engine.queue_depth_hw"));
        self.arena_slots_hw = self.arena_slots_hw.max(g("arena.slots_hw"));
        self.intern_hits += c("arena.intern_hits");
        self.intern_misses += c("arena.intern_misses");
        self.chan_dropped += c("channel.dropped");
        self.chan_duplicated += c("channel.duplicated");
        self.chan_reordered += c("channel.reordered");
    }
}

/// One repetition's measurements and checks.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Wall time before the first simulated event (`corpus_churn`: the
    /// sum of every scenario's parse and compile).
    pub setup_ns: u64,
    /// Wall time inside `Engine::run`, summed.
    pub run_ns: u64,
    /// The whole repetition: set-up, run, verdicts and checks.
    pub wall_ns: u64,
    /// Engine events processed.
    pub events: u64,
    /// Per-scenario latency (one entry for single-scenario workloads).
    pub latencies_ns: Vec<u64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Digest of every deterministic output (stats, firings, verdicts).
    pub digest: u64,
    /// Per-layer tallies (traced repetitions only).
    pub layers: Option<Layers>,
}

/// The timing context of one repetition: a clock for set-up and run
/// timings, plus — when traced — the layer tallies and span log.
struct Ctx<'a> {
    clock: &'a mut Clock,
    layers: Option<Layers>,
}

impl Ctx<'_> {
    fn traced(&self) -> bool {
        self.layers.is_some()
    }

    /// Runs `f` as phase `name` of run `id`: returns its result and wall
    /// nanoseconds, and records a span when traced.
    fn phase<R>(&mut self, name: &'static str, id: &str, f: impl FnOnce() -> R) -> (R, u64) {
        let t0 = self.clock.now_ns();
        let r = f();
        let t1 = self.clock.now_ns();
        if self.traced() {
            self.clock.span(name, id, t0, t1);
        }
        (r, t1 - t0)
    }

    fn layers(&mut self) -> &mut Layers {
        self.layers.as_mut().expect("traced repetition")
    }
}

/// What a finished run's data plane reveals, whichever wrappers it wears.
pub trait PlaneInfo {
    /// The NES runtime inside.
    fn nes(&self) -> &NesDataPlane;
    /// `(degraded, retransmits, duplicates suppressed)` of a reliability
    /// layer, if there is one.
    fn reliable(&self) -> Option<(bool, u64, u64)> {
        None
    }
    /// The timing wrapper's tally, if there is one.
    fn tally(&self) -> Option<PlaneTally> {
        None
    }
}

impl PlaneInfo for NesDataPlane {
    fn nes(&self) -> &NesDataPlane {
        self
    }
}

impl PlaneInfo for Reliable<NesDataPlane> {
    fn nes(&self) -> &NesDataPlane {
        self.inner()
    }
    fn reliable(&self) -> Option<(bool, u64, u64)> {
        Some((self.degraded(), self.retransmits(), self.dup_suppressed()))
    }
}

impl<P: PlaneInfo> PlaneInfo for Timed<P> {
    fn nes(&self) -> &NesDataPlane {
        self.inner().nes()
    }
    fn reliable(&self) -> Option<(bool, u64, u64)> {
        self.inner().reliable()
    }
    fn tally(&self) -> Option<PlaneTally> {
        Some(Timed::tally(self))
    }
}

/// The traced deployment: `CompiledNes::compile` and
/// `NesDataPlane::with_knobs` timed apart (what `nes_engine_with` does in
/// one call).
fn deploy_traced(
    nes: NetworkEventStructure,
    switches: Vec<u64>,
    ctx: &mut Ctx,
    id: &str,
) -> NesDataPlane {
    let (compiled, compile_ns) = ctx.phase("compile_nes", id, || CompiledNes::compile(nes));
    let configs = compiled.tag_count() as u64;
    let rss0 = rss_kb();
    let (plane, deploy_ns) =
        ctx.phase("deploy", id, || NesDataPlane::with_knobs(compiled, switches, false, KNOBS));
    let grown = rss_kb().saturating_sub(rss0);
    let l = ctx.layers();
    l.compile_nes_ns += compile_ns;
    l.deploy_ns += deploy_ns;
    l.configs += configs;
    l.deploy_rss_kb = l.deploy_rss_kb.max(grown);
    plane
}

/// A checked coordinated scenario run.
struct ScenarioRun {
    stats: Stats,
    fired: usize,
    verdict: &'static str,
    /// Deploy through traffic load, ns.
    setup_ns: u64,
    run_ns: u64,
}

/// Runs a compiled scenario on the coordinated runtime with the online
/// checker and streamed traffic — what `run_coordinated` does with
/// `check` and `stream` set, but with the run timed apart from its
/// set-up.
fn run_scenario(c: &CompiledScenario, ctx: &mut Ctx, id: &str) -> ScenarioRun {
    let model = effective_channel(&c.spec, &RunOptions::default());
    let switches = c.run.sim().switches().to_vec();
    if model.is_ideal() {
        if ctx.traced() {
            let t0 = ctx.clock.now_ns();
            let plane = deploy_traced(c.nes.clone(), switches, ctx, id);
            let (engine, _) = ctx.phase("engine", id, || {
                bare_engine(c, Timed::new(plane))
                    .with_channel(model)
                    .with_metrics(MetricsLevel::Counters)
            });
            let built = ctx.clock.now_ns() - t0;
            drive(engine, c, ctx, id, built)
        } else {
            let (engine, built) =
                ctx.phase("deploy", id, || c.engine_with(KNOBS).with_channel(model));
            drive(engine, c, ctx, id, built)
        }
    } else {
        let budget = c.spec.channel.retry_budget;
        if ctx.traced() {
            let t0 = ctx.clock.now_ns();
            let plane = deploy_traced(c.nes.clone(), switches, ctx, id);
            let (engine, _) = ctx.phase("engine", id, || {
                bare_engine(c, Timed::new(Reliable::with_budget(plane, budget)))
                    .with_channel(model)
                    .with_metrics(MetricsLevel::Full)
            });
            let built = ctx.clock.now_ns() - t0;
            drive(engine, c, ctx, id, built)
        } else {
            let (engine, built) = ctx.phase("deploy", id, || {
                c.reliable_engine_with(KNOBS, budget)
                    .with_channel(model)
                    .with_metrics(MetricsLevel::Full)
            });
            drive(engine, c, ctx, id, built)
        }
    }
}

/// `Engine::new` over the scenario's run topology with sink hosts — the
/// engine `CompiledScenario::engine_with` builds around its plane.
fn bare_engine<D: DataPlane>(c: &CompiledScenario, plane: D) -> Engine<D> {
    Engine::new(c.run.sim().clone(), SimParams::default(), plane, Box::new(SinkHosts))
}

/// Attaches the checker, loads traffic and runs a built engine.
fn drive<D: DataPlane + Send + PlaneInfo>(
    mut engine: Engine<D>,
    c: &CompiledScenario,
    ctx: &mut Ctx,
    id: &str,
    built_ns: u64,
) -> ScenarioRun {
    let traced = ctx.traced();
    let rss0 = rss_kb();
    let ((handle, obs_tally), attach_ns) = ctx.phase("attach", id, || {
        if traced {
            let (observer, handle) =
                OnlineChecker::observer(&c.nes).expect("campaigns fit the checker's window");
            let (wrapped, tally) = TimedObserver::new(observer);
            engine.set_observer(Box::new(wrapped));
            (handle, Some(tally))
        } else {
            let handle = nes_runtime::attach_online_checker(&mut engine, &c.nes)
                .expect("campaigns fit the checker's window");
            (handle, None)
        }
    });
    let attach_rss = rss_kb().saturating_sub(rss0);
    let (_, load_ns) = ctx.phase("load", id, || {
        c.apply_actions(&mut engine);
        c.load_traffic(&mut engine, true);
        c.inject_campaign(&mut engine);
    });
    let (_, run_ns) = ctx.phase("run", id, || engine.run(c.horizon));
    let (result, _) = ctx.phase("verdict", id, || engine.finish());
    let verdict = match (result.dataplane.reliable(), handle.verdict()) {
        (Some((true, _, _)), _) => "degraded",
        (_, Ok(())) => "correct",
        (_, Err(v)) => v.name(),
    };
    if let Some(l) = ctx.layers.as_mut() {
        let tally = result.dataplane.tally().expect("traced planes are wrapped");
        l.absorb_run(tally, &result.metrics);
        l.attach_ns += attach_ns;
        l.attach_rss_kb = l.attach_rss_kb.max(attach_rss);
        let obs = *obs_tally.expect("traced observers are wrapped").lock().expect("poisoned");
        l.checker_calls += obs.calls;
        l.checker_records += obs.records;
        l.checker_ns += obs.busy_ns;
        if let Some((degraded, retransmits, dups)) = result.dataplane.reliable() {
            l.retransmits += retransmits;
            l.dup_suppressed += dups;
            l.degraded_runs += degraded as u64;
        }
        l.run_ns += run_ns;
        l.events += result.stats.events_processed;
    }
    ScenarioRun {
        fired: result.dataplane.nes().fired_sequence().len(),
        stats: result.stats,
        verdict,
        setup_ns: built_ns + attach_ns + load_ns,
        run_ns,
    }
}

/// Folds a scenario's deterministic outputs into a digest.
pub fn fold_outcome(h: u64, stats: &Stats, fired: usize, verdict: &str) -> u64 {
    let h = fnv(h, &stats_digest(stats).to_le_bytes());
    let h = fnv(h, &(fired as u64).to_le_bytes());
    fnv(h, verdict.as_bytes())
}

/// Parses, compiles and runs one scenario text; returns the run and the
/// parse + compile time.
fn scenario(text: &str, ctx: &mut Ctx, id: &str) -> (ScenarioRun, usize, u64) {
    let (spec, parse_ns) = ctx.phase("parse", id, || parse(text).expect("generated specs parse"));
    let (c, compile_ns) = ctx.phase("compile", id, || {
        CompiledScenario::compile(&spec).expect("generated specs compile")
    });
    if let Some(l) = ctx.layers.as_mut() {
        l.parse_ns += parse_ns;
        l.compile_ns += compile_ns;
    }
    let run = run_scenario(&c, ctx, id);
    (run, c.steps.len(), parse_ns + compile_ns)
}

/// Runs one repetition of a workload. `traced` selects the layer-by-layer
/// path; `rep` names the repetition in the span log.
pub fn run_rep(inputs: &Inputs, clock: &mut Clock, traced: bool, rep: usize) -> Rep {
    let mut ctx = Ctx { clock, layers: traced.then(Layers::default) };
    let id = format!("r{rep}");
    let t0 = ctx.clock.now_ns();
    let mut out = match inputs {
        Inputs::Campaign(text) => {
            let (run, steps, front_ns) = scenario(text, &mut ctx, &id);
            // A step fails by not firing; a wrong verdict fails them all.
            let failed =
                if run.verdict == "correct" { steps - run.fired.min(steps) } else { steps };
            Rep {
                setup_ns: front_ns + run.setup_ns,
                run_ns: run.run_ns,
                events: run.stats.events_processed,
                attempted: steps as u64,
                failed: failed as u64,
                digest: fold_outcome(0, &run.stats, run.fired, run.verdict),
                ..Rep::default()
            }
        }
        Inputs::Stream(s) => stream_rep(s, &mut ctx, &id),
        Inputs::Corpus(texts) => {
            let mut rep = Rep::default();
            for (i, text) in texts.iter().enumerate() {
                let sid = format!("{id}/s{i}");
                let s0 = ctx.clock.now_ns();
                let (run, steps, front_ns) = scenario(text, &mut ctx, &sid);
                let ok = run.fired == steps && run.verdict == "correct";
                rep.latencies_ns.push(ctx.clock.now_ns() - s0);
                rep.setup_ns += front_ns;
                rep.run_ns += run.run_ns;
                rep.events += run.stats.events_processed;
                rep.attempted += 1;
                if !ok {
                    rep.failed += 1;
                    eprintln!(
                        "perfbench: scenario {i} failed: {}, fired {}/{steps}",
                        run.verdict, run.fired
                    );
                }
                rep.digest = fold_outcome(rep.digest, &run.stats, run.fired, run.verdict);
            }
            rep
        }
    };
    out.wall_ns = ctx.clock.now_ns() - t0;
    if out.latencies_ns.is_empty() {
        out.latencies_ns.push(out.wall_ns);
    }
    if traced {
        ctx.clock.span("rep", &id, t0, t0 + out.wall_ns);
    }
    out.layers = ctx.layers;
    out
}

/// One `stream_unchecked` repetition: build the fat-tree and its firewall
/// NES, deploy it, stream the traffic and check every datagram arrived.
fn stream_rep(s: &StreamInputs, ctx: &mut Ctx, id: &str) -> Rep {
    let t0 = ctx.clock.now_ns();
    let ((gen, flows, nes), topo_ns) = ctx.phase("topo", id, || {
        let gen = fat_tree(s.k, TierProfile::default());
        let workload = edn_topo::Workload {
            pattern: TrafficPattern::Permutation,
            seed: s.seed,
            packets_per_flow: s.packets_per_flow,
            flows: gen.host_count(),
            interval: SimTime::from_micros(100),
            ..edn_topo::Workload::default()
        };
        let model = ArrivalModel::Pareto { alpha: 1.3, max_packets: s.packets_per_flow * 8 };
        let flows = synthesize_arrivals(&gen, &workload, &model);
        let nes =
            edn_apps::generated::firewall_nes(&gen, gen.hosts()[s.inside], gen.hosts()[s.outside]);
        (gen, flows, nes)
    });
    let (inside, outside) = (gen.hosts()[s.inside], gen.hosts()[s.outside]);
    let horizon =
        flows.iter().map(|f| f.end).max().unwrap_or(SimTime::ZERO) + SimTime::from_secs(10);
    let trigger = udp_packet(inside, outside, u64::MAX, 0);
    let (stats, datagrams, run_ns, setup_ns) = if ctx.traced() {
        ctx.layers().topo_ns += topo_ns;
        let plane = deploy_traced(nes, gen.sim().switches().to_vec(), ctx, id);
        let (engine, _) = ctx.phase("engine", id, || {
            Engine::new(
                gen.sim().clone(),
                SimParams::default(),
                Timed::new(plane),
                Box::new(SinkHosts),
            )
            .with_trace_mode(TraceMode::StatsOnly)
            .with_stats_mode(StatsMode::Counters)
            .with_channel(ChannelModel::ideal())
            .with_metrics(MetricsLevel::Counters)
        });
        stream_drive(engine, &flows, inside, trigger, horizon, ctx, id, t0)
    } else {
        let (engine, _) = ctx.phase("deploy", id, || {
            nes_runtime::nes_engine_with(
                nes,
                gen.sim().clone(),
                SimParams::default(),
                false,
                Box::new(SinkHosts),
                KNOBS,
            )
            .with_trace_mode(TraceMode::StatsOnly)
            .with_stats_mode(StatsMode::Counters)
            .with_channel(ChannelModel::ideal())
        });
        stream_drive(engine, &flows, inside, trigger, horizon, ctx, id, t0)
    };
    // Every datagram, the trigger included, must be delivered.
    let attempted = datagrams + 1;
    Rep {
        setup_ns,
        run_ns,
        events: stats.events_processed,
        attempted,
        failed: attempted.saturating_sub(stats.delivered_packets),
        digest: fold_outcome(0, &stats, 0, "unchecked"),
        ..Rep::default()
    }
}

/// Streams `flows` plus the firewall trigger through a built engine and
/// runs it; returns `(stats, datagrams, run ns, set-up ns)`.
#[allow(clippy::too_many_arguments)]
fn stream_drive<D: DataPlane + Send + PlaneInfo>(
    mut engine: Engine<D>,
    flows: &[netsim::traffic::UdpFlowSpec],
    inside: u64,
    trigger: netkat::Packet,
    horizon: SimTime,
    ctx: &mut Ctx,
    id: &str,
    t0: u64,
) -> (Stats, u64, u64, u64) {
    let (datagrams, _) = ctx.phase("load", id, || {
        let n = edn_topo::attach_stream(&mut engine, flows);
        engine.inject_at(SimTime::from_millis(5), inside, trigger);
        n
    });
    let setup_ns = ctx.clock.now_ns() - t0;
    let (_, run_ns) = ctx.phase("run", id, || engine.run(horizon));
    let (result, _) = ctx.phase("verdict", id, || engine.finish());
    if let Some(l) = ctx.layers.as_mut() {
        l.absorb_run(result.dataplane.tally().expect("traced planes are wrapped"), &result.metrics);
        l.run_ns += run_ns;
        l.events += result.stats.events_processed;
    }
    (result.stats, datagrams, run_ns, setup_ns)
}
