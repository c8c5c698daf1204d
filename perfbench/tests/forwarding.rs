//! The timing wrappers must measure the same program: wrapped and bare
//! runs produce byte-identical stats, firings and verdicts, and the
//! wrapped layer sees exactly the trait calls it sees bare.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use edn_core::{LeafKind, OnlineChecker, TraceObserver};
use edn_perfbench::measure::Clock;
use edn_perfbench::timed::{Timed, TimedObserver};
use edn_perfbench::workloads::{
    campaign_spec, fold_outcome, inputs, run_rep, Inputs, Size, Workload, KNOBS,
};
use edn_scenario::{run_coordinated, CompiledScenario, RunOptions, ScenarioGen, ScenarioSpec};
use nes_runtime::{NesDataPlane, Reliable};
use netkat::{Loc, Packet};
use netsim::{
    CtrlMsg, DataPlane, Engine, MetricsLevel, PacketArena, PacketId, SimParams, SimTime, SinkHosts,
    StepResult, StepResultId, TimerStep,
};

fn specs() -> Vec<ScenarioSpec> {
    let mut specs = vec![campaign_spec(5, Size::Tiny)];
    for seed in [3, 11, 42] {
        specs.push(ScenarioGen::sample(seed));
        specs.push(ScenarioGen::sample_lossy(seed));
    }
    specs
}

/// The benchmark's untraced and traced repetitions both reproduce what
/// `run_coordinated` (checked, streamed) computes, byte for byte.
#[test]
fn untraced_and_traced_runs_match_run_coordinated() {
    for spec in specs() {
        let c = CompiledScenario::compile(&spec).unwrap();
        let opts = RunOptions { check: true, stream: true, ..RunOptions::default() };
        let out = run_coordinated(&c, &opts);
        assert_eq!(out.verdict_name(), "correct", "{}", spec.name);
        let fired = out.fired.unwrap();
        let expected = fold_outcome(0, &out.stats, fired, out.verdict_name());
        let inputs = Inputs::Corpus(vec![spec.to_toml()]);
        for traced in [false, true] {
            let rep = run_rep(&inputs, &mut Clock::new(), traced, 0);
            assert_eq!(rep.digest, expected, "{} traced={traced}", spec.name);
            assert_eq!((rep.attempted, rep.failed), (1, 0));
            assert_eq!(rep.layers.is_some(), traced);
        }
    }
}

/// Every workload digests identically untraced and traced.
#[test]
fn every_workload_matches_across_trace_modes() {
    for w in Workload::ALL {
        let inputs = inputs(w, 9, Size::Tiny);
        let bare = run_rep(&inputs, &mut Clock::new(), false, 0);
        let traced = run_rep(&inputs, &mut Clock::new(), true, 1);
        assert_eq!(bare.digest, traced.digest, "{}", w.name());
        assert_eq!(bare.failed, 0, "{}", w.name());
        assert!(bare.attempted > 0 && bare.events > 0, "{}", w.name());
    }
}

type Log = Arc<Mutex<BTreeMap<&'static str, u64>>>;

fn note(log: &Log, name: &'static str) {
    *log.lock().unwrap().entry(name).or_default() += 1;
}

/// A forwarding plane that logs which of its trait methods the engine
/// calls.
#[derive(Clone)]
struct Probe<D> {
    inner: D,
    log: Log,
}

impl<D: DataPlane> DataPlane for Probe<D> {
    fn process(&mut self, sw: u64, pt: u64, p: Packet, h: bool, now: SimTime) -> StepResult {
        note(&self.log, "process");
        self.inner.process(sw, pt, p, h, now)
    }
    fn process_arena(
        &mut self,
        sw: u64,
        pt: u64,
        p: PacketId,
        h: bool,
        now: SimTime,
        arena: &mut PacketArena,
    ) -> StepResultId {
        note(&self.log, "process_arena");
        self.inner.process_arena(sw, pt, p, h, now, arena)
    }
    fn process_arena_into(
        &mut self,
        sw: u64,
        pt: u64,
        p: PacketId,
        h: bool,
        now: SimTime,
        arena: &mut PacketArena,
        out: &mut StepResultId,
    ) {
        note(&self.log, "process_arena_into");
        self.inner.process_arena_into(sw, pt, p, h, now, arena, out)
    }
    fn on_notify(&mut self, msg: CtrlMsg, now: SimTime) -> Vec<(SimTime, u64, CtrlMsg)> {
        note(&self.log, "on_notify");
        self.inner.on_notify(msg, now)
    }
    fn deliver(&mut self, sw: u64, msg: CtrlMsg, now: SimTime) {
        note(&self.log, "deliver");
        self.inner.deliver(sw, msg, now)
    }
    fn deliver_and_reply(&mut self, sw: u64, msg: CtrlMsg, now: SimTime) -> Vec<CtrlMsg> {
        note(&self.log, "deliver_and_reply");
        self.inner.deliver_and_reply(sw, msg, now)
    }
    fn drain_timers(&mut self) -> Vec<(SimTime, u64)> {
        note(&self.log, "drain_timers");
        self.inner.drain_timers()
    }
    fn on_timer(&mut self, node: u64, now: SimTime) -> TimerStep {
        note(&self.log, "on_timer");
        self.inner.on_timer(node, now)
    }
    fn drain_channel_events(&mut self) -> Vec<(&'static str, u64)> {
        note(&self.log, "drain_channel_events");
        self.inner.drain_channel_events()
    }
    fn absorb_shard(&mut self, other: Self, owned: &[u64]) {
        note(&self.log, "absorb_shard");
        self.inner.absorb_shard(other.inner, owned)
    }
    fn contribute_metrics(&self, reg: &mut edn_obs::Registry) {
        note(&self.log, "contribute_metrics");
        self.inner.contribute_metrics(reg)
    }
}

/// A forwarding observer that logs its callbacks.
struct ProbeObserver {
    inner: Box<dyn TraceObserver + Send>,
    log: Log,
}

impl TraceObserver for ProbeObserver {
    fn record(&mut self, idx: usize, packet: &Packet, loc: Loc, parent: Option<usize>) {
        note(&self.log, "record");
        self.inner.record(idx, packet, loc, parent)
    }
    fn edge(&mut self, from: usize, to: usize) {
        note(&self.log, "edge");
        self.inner.edge(from, to)
    }
    fn cause(&mut self, idx: usize) {
        note(&self.log, "cause");
        self.inner.cause(idx)
    }
    fn leaf(&mut self, idx: usize, kind: LeafKind) {
        note(&self.log, "leaf");
        self.inner.leaf(idx, kind)
    }
    fn retire(&mut self, idx: usize) {
        note(&self.log, "retire");
        self.inner.retire(idx)
    }
    fn finish(&mut self) {
        note(&self.log, "finish");
        self.inner.finish()
    }
    fn contribute_metrics(&self, reg: &mut edn_obs::Registry) {
        note(&self.log, "contribute_metrics");
        self.inner.contribute_metrics(reg)
    }
    fn attach_flight_recorder(&mut self, recorder: edn_obs::FlightRecorder) {
        note(&self.log, "attach_flight_recorder");
        self.inner.attach_flight_recorder(recorder)
    }
}

type Probed = Probe<Reliable<NesDataPlane>>;

/// Calls per trait method, by name.
type CallLog = Vec<(&'static str, u64)>;

/// Runs a lossy scenario over the probed reliable runtime — checked, or
/// unchecked on two shards — optionally inside the timing wrappers, and
/// returns the plane's and the observer's call logs.
fn probed_run(c: &CompiledScenario, wrap: bool, checked: bool) -> (CallLog, CallLog) {
    let (plane_log, obs_log) = (Log::default(), Log::default());
    let model = edn_scenario::effective_channel(&c.spec, &RunOptions::default());
    assert!(!model.is_ideal(), "the probe needs a lossy channel");
    let nes = NesDataPlane::with_knobs(
        nes_runtime::CompiledNes::compile(c.nes.clone()),
        c.run.sim().switches().to_vec(),
        false,
        KNOBS,
    );
    let probe = Probe {
        inner: Reliable::with_budget(nes, c.spec.channel.retry_budget),
        log: plane_log.clone(),
    };
    let (observer, _handle) = OnlineChecker::observer(&c.nes).unwrap();
    let observer: Box<dyn TraceObserver + Send> =
        Box::new(ProbeObserver { inner: observer, log: obs_log.clone() });
    fn go<D: DataPlane + Clone + Send>(
        c: &CompiledScenario,
        plane: D,
        model: netsim::ChannelModel,
        observer: Option<Box<dyn TraceObserver + Send>>,
    ) {
        let mut engine =
            Engine::new(c.run.sim().clone(), SimParams::default(), plane, Box::new(SinkHosts))
                .with_channel(model)
                .with_metrics(MetricsLevel::Full);
        match observer {
            Some(o) => engine.set_observer(o),
            None => engine = engine.with_shards(2),
        }
        c.apply_actions(&mut engine);
        c.load_traffic(&mut engine, false);
        c.inject_campaign(&mut engine);
        engine.run_until(c.horizon);
    }
    let observer = checked.then_some(observer);
    if wrap {
        let observer =
            observer.map(|o| Box::new(TimedObserver::new(o).0) as Box<dyn TraceObserver + Send>);
        go::<Timed<Probed>>(c, Timed::new(probe), model, observer);
    } else {
        go::<Probed>(c, probe, model, observer);
    }
    let flat = |log: &Log| log.lock().unwrap().iter().map(|(&k, &v)| (k, v)).collect();
    (flat(&plane_log), flat(&obs_log))
}

/// The wrappers forward every override: the wrapped layer receives the
/// same calls, method for method, as it does bare — including the arena
/// fast path, timers, channel events, shard absorption and metrics.
#[test]
fn wrappers_forward_every_trait_method() {
    let c = CompiledScenario::compile(&ScenarioGen::sample_lossy(3)).unwrap();
    for checked in [true, false] {
        let bare = probed_run(&c, false, checked);
        let wrapped = probed_run(&c, true, checked);
        assert_eq!(bare, wrapped, "checked={checked}");
        let names: Vec<&str> = bare.0.iter().map(|(k, _)| *k).collect();
        assert!(names.contains(&"process_arena_into"), "{names:?}");
        assert!(!names.contains(&"process"), "the arena path stays native: {names:?}");
        for expected in [
            "on_notify",
            "deliver_and_reply",
            "drain_timers",
            "on_timer",
            "drain_channel_events",
            "contribute_metrics",
        ] {
            assert!(names.contains(&expected), "{expected} not exercised: {names:?}");
        }
        if checked {
            let callbacks: Vec<&str> = bare.1.iter().map(|(k, _)| *k).collect();
            for expected in
                ["record", "retire", "finish", "contribute_metrics", "attach_flight_recorder"]
            {
                assert!(callbacks.contains(&expected), "{expected} not exercised: {callbacks:?}");
            }
        } else {
            assert!(names.contains(&"absorb_shard"), "sharded run absorbs: {names:?}");
        }
    }
}
