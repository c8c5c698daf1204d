//! Compiling a [`ScenarioSpec`] into runnable form: a topology (with mobile
//! twins for moved hosts), a chain-NES update campaign, engine action and
//! injection timelines, and the background traffic.
//!
//! The campaign's steps are synthesized from the spec:
//!
//! * each of the `updates` **generic steps** unblocks one seeded-chosen
//!   *victim* host — the initial configuration carries no rules toward the
//!   victims, and step `i` restores victim `i`'s shortest-path rules
//!   (successive policy rollouts, in the paper's event-driven-update
//!   framing);
//! * each `move_host` action becomes a **mobility step** re-pointing the
//!   host's rules at its twin attachment ([`edn_topo::rehomed_rules`]).
//!
//! Steps are driven by marker packets ([`nes_runtime::campaign_trigger`])
//! sent from the topology's first host to its second — two endpoints every
//! configuration routes — so the chain fires in order. When `probe` is set,
//! each step is followed by a probe **from the trigger's destination** to
//! the step's target host: the probe's sender has just received the
//! trigger, so the probe is causally after the firing, and a plane that
//! drops it under a stale configuration (the uncoordinated baseline mid
//! push) violates Definition 6 — the generalization of the paper's Fig. 10
//! counterexample that makes scenarios a differential oracle.

use std::collections::{BTreeMap, BTreeSet};

use edn_core::NetworkEventStructure;
use edn_topo::{
    config_from_rules, fat_tree, grid, linear, rehomed_rules, ring, shortest_path_rules,
    synthesize, synthesize_arrivals, torus, with_mobile_twin, ArrivalModel, GenTopology,
    LinkProfile, TierProfile, Workload,
};
use nes_runtime::{campaign_nes, campaign_pred, campaign_trigger, CampaignStep};
use netkat::{Field, Loc, Packet, Rule};
use netsim::traffic::{udp_packet, UdpFlowSpec};
use netsim::{DataPlane, Engine, SimParams, SimTime};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::spec::{
    validate, ActionKind, ModelSpec, ScenarioError, ScenarioSpec, TopologySpec, WorkloadSpec,
};

/// Gap between a campaign step's trigger and its probe: long enough for the
/// trigger to traverse any of the generated topologies, far shorter than
/// any realistic `update_delay`.
pub fn probe_delay() -> SimTime {
    SimTime::from_millis(5)
}

/// Flow-id base for probe packets — far above workload flow ids (`0..`) and
/// below trigger flow ids (`u64::MAX - step`).
pub const PROBE_FLOW_BASE: u64 = 1 << 62;

/// What a campaign step does, for reports and assertions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepTarget {
    /// The step restores routing toward this previously-blocked host.
    Unblock(u64),
    /// The step re-homes `host` to switch `to` (rules move to its twin).
    Move {
        /// The moving host's id.
        host: u64,
        /// Its new attachment switch.
        to: u64,
    },
}

impl StepTarget {
    /// The host whose connectivity the step changes (probe destination).
    pub fn host(&self) -> u64 {
        match *self {
            StepTarget::Unblock(h) => h,
            StepTarget::Move { host, .. } => host,
        }
    }
}

/// One planned campaign step: its trigger time and effect.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PlannedStep {
    /// When the step's trigger packet is injected.
    pub time: SimTime,
    /// What the step changes.
    pub target: StepTarget,
}

/// A scripted engine manipulation, resolved against the run topology.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineAction {
    /// Fail both directions of a link.
    FailBilink(SimTime, Loc, Loc),
    /// Restore both directions of a link.
    RestoreBilink(SimTime, Loc, Loc),
    /// Crash a switch (all inter-switch links down).
    Crash(SimTime, u64),
    /// Recover a crashed switch.
    Recover(SimTime, u64),
    /// Set the controller latency from an instant onward.
    CtrlLatency(SimTime, SimTime),
}

/// A scenario compiled into runnable form.
#[derive(Clone, Debug)]
pub struct CompiledScenario {
    /// The spec this was compiled from.
    pub spec: ScenarioSpec,
    /// The bare generated topology (no twins) — workload endpoints and the
    /// host list index into this.
    pub base: GenTopology,
    /// The run topology: `base` plus a mobile twin per moved host.
    pub run: GenTopology,
    /// The campaign as a chain network event structure.
    pub nes: NetworkEventStructure,
    /// The campaign's steps in firing order.
    pub steps: Vec<PlannedStep>,
    /// Engine manipulations, in spec order.
    pub actions: Vec<EngineAction>,
    /// Step trigger injections: `(time, injecting host, packet)`.
    pub triggers: Vec<(SimTime, u64, Packet)>,
    /// Causal probe injections: `(time, injecting host, packet)`.
    pub probes: Vec<(SimTime, u64, Packet)>,
    /// The background traffic.
    pub flows: Vec<UdpFlowSpec>,
    /// The run deadline (spec horizon, or computed).
    pub horizon: SimTime,
}

pub(crate) fn build_topology(spec: TopologySpec) -> GenTopology {
    match spec {
        TopologySpec::Ring(n) => ring(n, LinkProfile::default()),
        TopologySpec::Linear(n) => linear(n, LinkProfile::default()),
        TopologySpec::Grid(r, c) => grid(r, c, LinkProfile::default()),
        TopologySpec::Torus(r, c) => torus(r, c, LinkProfile::default()),
        TopologySpec::FatTree(k) => fat_tree(k, TierProfile::default()),
    }
}

fn build_flows(base: &GenTopology, seed: u64, w: &WorkloadSpec) -> Vec<UdpFlowSpec> {
    let workload = Workload {
        pattern: w.pattern,
        seed,
        flows: w.flows,
        packets_per_flow: w.packets_per_flow,
        interval: w.interval,
        size: w.size,
        start: w.start,
        spread: w.spread,
    };
    match w.model {
        ModelSpec::None => synthesize(base, &workload),
        ModelSpec::Pareto => synthesize_arrivals(
            base,
            &workload,
            &ArrivalModel::Pareto { alpha: 1.3, max_packets: workload.packets_per_flow.max(1) * 8 },
        ),
        ModelSpec::OnOff => synthesize_arrivals(
            base,
            &workload,
            &ArrivalModel::OnOff { burst_packets: 3, off: SimTime::from_millis(2) },
        ),
        ModelSpec::Diurnal => synthesize_arrivals(
            base,
            &workload,
            &ArrivalModel::Diurnal { periods: 2, trough_pct: 20 },
        ),
    }
}

impl CompiledScenario {
    /// Compiles a spec. Deterministic: equal specs compile to equal
    /// scenarios, byte for byte.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Invalid`] when the spec names structure the
    /// topology doesn't have (unknown links or switches, out-of-range host
    /// indices), needs more victims than there are spare hosts, or
    /// schedules two campaign steps at the same instant.
    pub fn compile(spec: &ScenarioSpec) -> Result<CompiledScenario, ScenarioError> {
        validate(spec)?;
        let base = build_topology(spec.topology);
        let hosts: Vec<u64> = base.hosts().to_vec();
        if hosts.len() < 2 {
            return Err(ScenarioError::Invalid(format!(
                "{} has {} hosts; scenarios need at least 2",
                base.name(),
                hosts.len()
            )));
        }
        let switches: BTreeSet<u64> = base.sim().switches().iter().copied().collect();

        // Mobility: validate the movers and extend the topology with twins.
        let mut movers: Vec<(SimTime, u64, u64)> = Vec::new(); // (at, host, to)
        for a in &spec.actions {
            if let ActionKind::MoveHost { host, to } = a.kind {
                if host < 2 || host >= hosts.len() {
                    return Err(ScenarioError::Invalid(format!(
                        "move_host host index {host} out of range 2..{}",
                        hosts.len()
                    )));
                }
                if !switches.contains(&to) {
                    return Err(ScenarioError::Invalid(format!(
                        "move_host target {to} is not a switch of {}",
                        base.name()
                    )));
                }
                let id = hosts[host];
                if movers.iter().any(|&(_, h, _)| h == id) {
                    return Err(ScenarioError::Invalid(format!("host {id} moves twice")));
                }
                movers.push((a.at, id, to));
            }
        }
        let mut run = base.clone();
        for &(_, host, to) in &movers {
            run = with_mobile_twin(&run, host, to);
        }

        // Victims: seeded draw from the hosts that are neither campaign
        // endpoints nor movers.
        let mover_ids: BTreeSet<u64> = movers.iter().map(|&(_, h, _)| h).collect();
        let mut pool: Vec<u64> =
            hosts[2..].iter().copied().filter(|h| !mover_ids.contains(h)).collect();
        if pool.len() < spec.campaign.updates {
            return Err(ScenarioError::Invalid(format!(
                "{} spare hosts cannot host {} update victims",
                pool.len(),
                spec.campaign.updates
            )));
        }
        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5343_454e_4152_4f21); // "SCENARO!"
        pool.shuffle(&mut rng);
        let victims: Vec<u64> = pool[..spec.campaign.updates].to_vec();

        // The step plan: generic unblocks on the campaign grid, moves at
        // their action times, merged in time order.
        let mut steps: Vec<PlannedStep> = Vec::new();
        for (i, &v) in victims.iter().enumerate() {
            let at = spec.campaign.start.as_micros() + spec.campaign.spacing.as_micros() * i as u64;
            steps.push(PlannedStep {
                time: SimTime::from_micros(at),
                target: StepTarget::Unblock(v),
            });
        }
        for &(at, host, to) in &movers {
            steps.push(PlannedStep { time: at, target: StepTarget::Move { host, to } });
        }
        steps.sort_by_key(|s| s.time);
        for pair in steps.windows(2) {
            if pair[0].time == pair[1].time {
                return Err(ScenarioError::Invalid(format!(
                    "campaign steps {:?} and {:?} coincide at {:?}",
                    pair[0].target, pair[1].target, pair[0].time
                )));
            }
        }

        // The campaign's rules, each with the configurations that hold it
        // (configuration `k` runs once steps `0..k` have fired): the full
        // shortest paths, a victim's rules only from the configuration its
        // step unblocks, and a moved host's rules re-pointed at its twin
        // from its move on. Each configuration's table is the subsequence
        // of one switch's routing list, so none is built per step.
        let full = shortest_path_rules(&run);
        let configs = steps.len() + 1;
        let changed_at: BTreeMap<u64, usize> =
            steps.iter().enumerate().map(|(i, s)| (s.target.host(), i + 1)).collect();
        let rehomed: BTreeMap<u64, BTreeMap<u64, Rule>> =
            mover_ids.iter().map(|&h| (h, rehomed_rules(&run, h))).collect();
        let mut rules = Vec::new();
        for (&sw, list) in &full {
            for r in list {
                let dst = r.pattern.get(Field::IpDst).expect("routing rules match ip_dst");
                if dst >= edn_topo::MOBILE_TWIN_OFFSET {
                    continue; // twins are never addressed directly
                }
                match (changed_at.get(&dst), rehomed.get(&dst)) {
                    (Some(&at), Some(moves)) => {
                        rules.push((sw, r.clone(), 0..at));
                        if let Some(r2) = moves.get(&sw) {
                            rules.push((sw, r2.clone(), at..configs));
                        }
                    }
                    (Some(&at), None) => rules.push((sw, r.clone(), at..configs)),
                    (None, _) => rules.push((sw, r.clone(), 0..configs)),
                }
            }
        }
        let network = config_from_rules(&run, full.keys().map(|&sw| (sw, Vec::new())).collect());
        let trigger_host = hosts[0];
        let trigger_dst = hosts[1];
        let trigger_loc = run.attachment(trigger_host).expect("generated hosts are attached");
        let campaign_steps = (0..steps.len())
            .map(|i| CampaignStep { trigger: campaign_pred(i), loc: trigger_loc })
            .collect();
        let nes = campaign_nes(&network, rules, campaign_steps);

        // Trigger and probe injections.
        let mut triggers = Vec::with_capacity(steps.len());
        let mut probes = Vec::new();
        for (i, step) in steps.iter().enumerate() {
            triggers.push((
                step.time,
                trigger_host,
                campaign_trigger(trigger_host, trigger_dst, i),
            ));
            if spec.campaign.probe {
                probes.push((
                    step.time + probe_delay(),
                    trigger_dst,
                    udp_packet(trigger_dst, step.target.host(), PROBE_FLOW_BASE + i as u64, 0),
                ));
            }
        }

        // Engine actions, resolved against the run topology's links.
        let baseline = SimParams::default().controller_latency;
        let bilink = |a: u64, b: u64| {
            run.sim()
                .links()
                .iter()
                .find(|l| l.src.sw == a && l.dst.sw == b)
                .map(|l| (l.src, l.dst))
                .ok_or_else(|| {
                    ScenarioError::Invalid(format!("no link {a} ↔ {b} in {}", run.name()))
                })
        };
        let known_switch = |sw: u64| {
            switches.contains(&sw).then_some(sw).ok_or_else(|| {
                ScenarioError::Invalid(format!("{sw} is not a switch of {}", run.name()))
            })
        };
        let mut actions = Vec::new();
        for a in &spec.actions {
            match a.kind {
                ActionKind::FailLink { a: x, b: y } => {
                    let (src, dst) = bilink(x, y)?;
                    actions.push(EngineAction::FailBilink(a.at, src, dst));
                }
                ActionKind::RestoreLink { a: x, b: y } => {
                    let (src, dst) = bilink(x, y)?;
                    actions.push(EngineAction::RestoreBilink(a.at, src, dst));
                }
                ActionKind::CrashSwitch { sw } => {
                    actions.push(EngineAction::Crash(a.at, known_switch(sw)?));
                }
                ActionKind::RecoverSwitch { sw } => {
                    actions.push(EngineAction::Recover(a.at, known_switch(sw)?));
                }
                ActionKind::LatencySpike { latency, until } => {
                    // Clamped to the baseline: a below-baseline latency
                    // would force the engine single-threaded, and the spike
                    // is about slowness anyway.
                    actions.push(EngineAction::CtrlLatency(a.at, latency.max(baseline)));
                    actions.push(EngineAction::CtrlLatency(until, baseline));
                }
                ActionKind::MoveHost { .. } => {} // already a campaign step
            }
        }

        // Background traffic over the *base* hosts (twins are reached via
        // their base address, never directly).
        let flows = build_flows(&base, spec.seed, &spec.workload);

        let horizon = if spec.horizon > SimTime::ZERO {
            spec.horizon
        } else {
            let mut last = SimTime::ZERO;
            for f in &flows {
                last = last.max(f.end);
            }
            for s in &steps {
                last = last.max(s.time + probe_delay());
            }
            for a in &spec.actions {
                last = last.max(a.at);
                if let ActionKind::LatencySpike { until, .. } = a.kind {
                    last = last.max(until);
                }
            }
            last + SimTime::from_secs(1)
        };

        Ok(CompiledScenario {
            spec: spec.clone(),
            base,
            run,
            nes,
            steps,
            actions,
            triggers,
            probes,
            flows,
            horizon,
        })
    }

    /// Builds the coordinated (NES runtime) engine for this scenario:
    /// shard count from the environment (`EDN_SHARDS`), no controller
    /// broadcast, sink hosts.
    pub fn engine(&self) -> Engine<nes_runtime::NesDataPlane> {
        self.engine_with(nes_runtime::DeployKnobs::default())
    }

    /// [`engine`](CompiledScenario::engine) with explicit deployment knobs
    /// (each has one setting; shard count still from the environment).
    pub fn engine_with(
        &self,
        knobs: nes_runtime::DeployKnobs,
    ) -> Engine<nes_runtime::NesDataPlane> {
        nes_runtime::nes_engine_with(
            self.nes.clone(),
            self.run.sim().clone(),
            SimParams::default(),
            false,
            Box::new(netsim::SinkHosts),
            knobs,
        )
    }

    /// [`engine_with`](CompiledScenario::engine_with) wrapped in the
    /// [`Reliable`](nes_runtime::Reliable) ack/retry layer — the
    /// deployment for lossy-channel runs. `budget` bounds retransmissions
    /// per message before the run degrades.
    pub fn reliable_engine_with(
        &self,
        knobs: nes_runtime::DeployKnobs,
        budget: u32,
    ) -> Engine<nes_runtime::Reliable<nes_runtime::NesDataPlane>> {
        nes_runtime::nes_reliable_engine_with(
            self.nes.clone(),
            self.run.sim().clone(),
            SimParams::default(),
            false,
            Box::new(netsim::SinkHosts),
            knobs,
            budget,
        )
    }

    /// Builds the uncoordinated-baseline engine: the spec's `update_delay`
    /// and seed drive the controller's push timing and order.
    pub fn uncoordinated(&self) -> Engine<nes_runtime::UncoordDataPlane> {
        nes_runtime::uncoordinated_engine(
            self.nes.clone(),
            self.run.sim().clone(),
            SimParams::default(),
            self.spec.campaign.update_delay,
            self.spec.seed,
            Box::new(netsim::SinkHosts),
        )
    }

    /// Applies the scripted engine actions (failures, recoveries, latency
    /// spikes) to an engine's timelines.
    pub fn apply_actions<D: DataPlane>(&self, engine: &mut Engine<D>) {
        for a in &self.actions {
            match *a {
                EngineAction::FailBilink(t, x, y) => engine.fail_bilink_at(t, x, y),
                EngineAction::RestoreBilink(t, x, y) => engine.restore_bilink_at(t, x, y),
                EngineAction::Crash(t, sw) => engine.crash_switch_at(t, sw),
                EngineAction::Recover(t, sw) => engine.recover_switch_at(t, sw),
                EngineAction::CtrlLatency(t, l) => engine.set_controller_latency_at(t, l),
            }
        }
    }

    /// Injects the campaign's triggers and probes.
    pub fn inject_campaign<D: DataPlane>(&self, engine: &mut Engine<D>) {
        for &(t, host, ref p) in self.triggers.iter().chain(&self.probes) {
            engine.inject_at(t, host, p.clone());
        }
    }

    /// Loads the background traffic — as a live streamed source
    /// (`stream = true`, single-threaded) or as pre-scheduled batch
    /// injections (byte-identical either way) — returning the datagram
    /// count.
    pub fn load_traffic<D: DataPlane>(&self, engine: &mut Engine<D>, stream: bool) -> u64 {
        if stream {
            edn_topo::attach_stream(engine, &self.flows)
        } else {
            edn_topo::schedule(engine, &self.flows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ActionSpec, CampaignSpec};

    fn churn_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "ring-churn".to_string(),
            seed: 11,
            topology: TopologySpec::Ring(6),
            horizon: SimTime::ZERO,
            workload: WorkloadSpec::default(),
            campaign: CampaignSpec { updates: 2, ..CampaignSpec::default() },
            channel: crate::spec::ChannelSpec::default(),
            actions: vec![
                ActionSpec {
                    at: SimTime::from_millis(130),
                    kind: ActionKind::FailLink { a: 1, b: 2 },
                },
                ActionSpec {
                    at: SimTime::from_millis(170),
                    kind: ActionKind::RestoreLink { a: 1, b: 2 },
                },
                ActionSpec {
                    at: SimTime::from_millis(250),
                    kind: ActionKind::MoveHost { host: 2, to: 5 },
                },
            ],
        }
    }

    #[test]
    fn compiles_the_campaign_chain() {
        let c = CompiledScenario::compile(&churn_spec()).unwrap();
        assert_eq!(c.steps.len(), 3, "2 unblocks + 1 move");
        assert_eq!(c.nes.structure().event_sets().len(), 4, "∅ + 3 prefixes");
        assert_eq!(c.triggers.len(), 3);
        assert_eq!(c.probes.len(), 3, "probe per step");
        assert_eq!(c.actions.len(), 2, "the move became a step, not an action");
        assert_eq!(c.run.host_count(), c.base.host_count() + 1, "one twin");
        assert!(c.horizon >= SimTime::from_secs(1));
        // Victims and movers never touch the campaign endpoints.
        let hosts = c.base.hosts().to_vec();
        for s in &c.steps {
            assert_ne!(s.target.host(), hosts[0]);
            assert_ne!(s.target.host(), hosts[1]);
        }
    }

    #[test]
    fn compilation_is_deterministic() {
        let (a, b) = (
            CompiledScenario::compile(&churn_spec()).unwrap(),
            CompiledScenario::compile(&churn_spec()).unwrap(),
        );
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.triggers, b.triggers);
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.horizon, b.horizon);
    }

    #[test]
    fn rejects_impossible_structure() {
        let mut no_link = churn_spec();
        no_link.actions[0] = ActionSpec {
            at: SimTime::from_millis(130),
            kind: ActionKind::FailLink { a: 1, b: 4 }, // rings have no chords
        };
        assert!(matches!(CompiledScenario::compile(&no_link), Err(ScenarioError::Invalid(_))));

        let mut too_many = churn_spec();
        too_many.campaign.updates = 10; // ring(6) has only 6 hosts
        assert!(matches!(CompiledScenario::compile(&too_many), Err(ScenarioError::Invalid(_))));

        let mut bad_move = churn_spec();
        bad_move.actions[2] = ActionSpec {
            at: SimTime::from_millis(250),
            kind: ActionKind::MoveHost { host: 0, to: 5 }, // trigger host
        };
        assert!(matches!(CompiledScenario::compile(&bad_move), Err(ScenarioError::Invalid(_))));
    }

    #[test]
    fn latency_spikes_clamp_to_baseline() {
        let mut spec = churn_spec();
        spec.actions.push(ActionSpec {
            at: SimTime::from_millis(300),
            kind: ActionKind::LatencySpike {
                latency: SimTime::from_micros(1), // below baseline
                until: SimTime::from_millis(400),
            },
        });
        let c = CompiledScenario::compile(&spec).unwrap();
        let baseline = SimParams::default().controller_latency;
        assert!(c.actions.iter().all(|a| match *a {
            EngineAction::CtrlLatency(_, l) => l >= baseline,
            _ => true,
        }));
    }
}
