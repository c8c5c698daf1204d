//! Running compiled scenarios and reporting canonical results.
//!
//! Three legs, all fed identical traffic and campaign injections:
//!
//! * **coordinated, unchecked** — the NES runtime, shard count free (the
//!   byte-identity leg: `EDN_SHARDS` must not change a byte of the stats);
//! * **coordinated, checked** — the NES runtime with the online
//!   Definition 6 checker attached (single-threaded: the engine serializes
//!   under an observer) and optionally live streamed traffic;
//! * **uncoordinated, checked** — the Section 5.1 baseline under the same
//!   scenario, whose verdict the differential oracle compares against.
//!
//! [`differential`] packages the oracle: per Theorem 1 the coordinated
//! verdict must be `correct` on *every* scenario; the uncoordinated verdict
//! is allowed — and under probing usually observed — to be a violation.

use edn_core::OnlineViolation;
use netsim::{ChannelModel, Stats};

use crate::compile::CompiledScenario;
use crate::spec::{ScenarioError, ScenarioSpec};

/// Options for a coordinated run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RunOptions {
    /// Extra shard-count override (`None` leaves `EDN_SHARDS` in charge).
    pub shards: Option<u32>,
    /// Attach the online Definition 6 checker (forces single-threaded).
    pub check: bool,
    /// Feed traffic through a live [`WorkloadSource`](netsim::WorkloadSource)
    /// instead of batch pre-scheduling (byte-identical results).
    pub stream: bool,
    /// Control-channel override (`None` defers to the spec's `[channel]`
    /// section, falling back to the `EDN_CHANNEL` environment default).
    pub channel: Option<ChannelModel>,
}

/// The result of one scenario leg.
#[derive(Clone, PartialEq, Debug)]
pub struct ScenarioOutcome {
    /// Aggregate run statistics.
    pub stats: Stats,
    /// Background datagrams loaded.
    pub datagrams: u64,
    /// Campaign steps the runtime fired (coordinated legs only).
    pub fired: Option<usize>,
    /// The online checker's verdict, when one was attached.
    pub verdict: Option<Result<(), OnlineViolation>>,
    /// The reliability layer exhausted a retransmit budget: the run kept
    /// going but gave up on at least one control message (lossy legs only).
    pub degraded: bool,
    /// Flight-recorder dump captured when the run degraded — the
    /// message-level post-mortem (`drop`, `retry_exhausted`, …).
    pub flight_dump: Option<String>,
}

impl ScenarioOutcome {
    /// The verdict as a CSV-friendly word: `correct`, a violation name,
    /// `degraded` (budget exhaustion trumps the checker: a degraded run's
    /// violations are explained, not mysterious), or `unchecked`.
    pub fn verdict_name(&self) -> &'static str {
        if self.degraded {
            return "degraded";
        }
        match &self.verdict {
            None => "unchecked",
            Some(Ok(())) => "correct",
            Some(Err(v)) => v.name(),
        }
    }
}

/// The channel model a coordinated leg runs under: an explicit
/// [`RunOptions::channel`] override, else the spec's `[channel]` section,
/// else the `EDN_CHANNEL` environment default — in every spec-derived case
/// reseeded per scenario, so different seeds see different fault patterns.
pub fn effective_channel(spec: &ScenarioSpec, opts: &RunOptions) -> ChannelModel {
    if let Some(model) = opts.channel {
        return model;
    }
    let seed = spec.seed ^ 0x4348_414e_5f45_444e; // "CHAN_EDN"
    if spec.channel.is_ideal() {
        ChannelModel::from_env().with_seed(seed)
    } else {
        spec.channel.model(seed)
    }
}

/// Runs the coordinated (NES runtime) leg of a scenario.
///
/// The effective channel model (see [`effective_channel`]) picks the
/// deployment: an ideal channel runs the bare runtime — byte-identical to
/// a build without the fault model — while a lossy channel wraps it in the
/// [`Reliable`](nes_runtime::Reliable) ack/retry layer and forces full
/// telemetry so a degraded run carries its flight-recorder post-mortem.
///
/// # Panics
///
/// Panics if `opts.check` is set and the campaign exceeds the online
/// checker's windows (compilation already bounds steps at 63, so this
/// means a checker regression).
pub fn run_coordinated(c: &CompiledScenario, opts: &RunOptions) -> ScenarioOutcome {
    let knobs = nes_runtime::DeployKnobs::default();
    let model = effective_channel(&c.spec, opts);
    if model.is_ideal() {
        let mut engine = c.engine_with(knobs).with_channel(model);
        if let Some(k) = opts.shards {
            engine = engine.with_shards(k);
        }
        let handle = opts.check.then(|| {
            nes_runtime::attach_online_checker(&mut engine, &c.nes)
                .expect("a ≤63-step campaign fits the online checker's windows")
        });
        c.apply_actions(&mut engine);
        let datagrams = c.load_traffic(&mut engine, opts.stream);
        c.inject_campaign(&mut engine);
        let result = engine.run_until(c.horizon);
        ScenarioOutcome {
            stats: result.stats,
            datagrams,
            fired: Some(result.dataplane.fired_sequence().len()),
            verdict: handle.map(|h| h.verdict()),
            degraded: false,
            flight_dump: None,
        }
    } else {
        let budget = if c.spec.channel.is_ideal() {
            nes_runtime::retry_budget_from_env()
        } else {
            c.spec.channel.retry_budget
        };
        let mut engine = c
            .reliable_engine_with(knobs, budget)
            .with_channel(model)
            .with_metrics(netsim::MetricsLevel::Full);
        if let Some(k) = opts.shards {
            engine = engine.with_shards(k);
        }
        let flight = engine.flight_recorder();
        let handle = opts.check.then(|| {
            nes_runtime::attach_online_checker(&mut engine, &c.nes)
                .expect("a ≤63-step campaign fits the online checker's windows")
        });
        c.apply_actions(&mut engine);
        let datagrams = c.load_traffic(&mut engine, opts.stream);
        c.inject_campaign(&mut engine);
        let result = engine.run_until(c.horizon);
        let degraded = result.dataplane.degraded();
        ScenarioOutcome {
            stats: result.stats,
            datagrams,
            fired: Some(result.dataplane.inner().fired_sequence().len()),
            verdict: handle.map(|h| h.verdict()),
            degraded,
            flight_dump: degraded.then(|| flight.map(|f| f.dump_json()).unwrap_or_default()),
        }
    }
}

/// Runs the uncoordinated-baseline leg, always with the online checker
/// attached (its verdict is the differential oracle's other arm). The
/// baseline has no reliability layer: under a lossy `EDN_CHANNEL` its
/// dropped pushes surface as checker violations — caught, not masked.
pub fn run_uncoordinated(c: &CompiledScenario) -> ScenarioOutcome {
    let mut engine = c.uncoordinated();
    let handle = nes_runtime::attach_online_checker(&mut engine, &c.nes)
        .expect("a ≤63-step campaign fits the online checker's windows");
    c.apply_actions(&mut engine);
    let datagrams = c.load_traffic(&mut engine, false);
    c.inject_campaign(&mut engine);
    let result = engine.run_until(c.horizon);
    ScenarioOutcome {
        stats: result.stats,
        datagrams,
        fired: None,
        verdict: Some(handle.verdict()),
        degraded: false,
        flight_dump: None,
    }
}

/// Both arms of the differential oracle for one scenario.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DifferentialOutcome {
    /// The coordinated runtime's verdict (Theorem 1: always `Ok`).
    pub coordinated: Result<(), OnlineViolation>,
    /// The uncoordinated baseline's verdict under the same scenario.
    pub uncoordinated: Result<(), OnlineViolation>,
    /// Steps the coordinated runtime fired.
    pub fired: usize,
}

/// Compiles a spec and replays it through both planes with the online
/// checker attached to each: the generalized Fig. 10 experiment.
///
/// # Errors
///
/// Propagates compilation errors; running itself cannot fail.
pub fn differential(spec: &ScenarioSpec) -> Result<DifferentialOutcome, ScenarioError> {
    let c = CompiledScenario::compile(spec)?;
    let coordinated = run_coordinated(&c, &RunOptions { check: true, ..RunOptions::default() });
    let uncoordinated = run_uncoordinated(&c);
    Ok(DifferentialOutcome {
        coordinated: coordinated.verdict.expect("checker attached"),
        uncoordinated: uncoordinated.verdict.expect("checker attached"),
        fired: coordinated.fired.expect("coordinated legs count firings"),
    })
}

/// Header for the canonical scenario CSV (shard-count-free on purpose: the
/// row must be byte-identical at every `EDN_SHARDS`).
pub fn stats_csv_header() -> &'static str {
    "datagrams,injected,events,delivered_packets,delivered_bytes,fired,verdict,\
     drop_no_rule,drop_dead_end,drop_queue_full,drop_link_down"
}

/// One canonical CSV row for a leg's outcome.
pub fn stats_csv_row(o: &ScenarioOutcome) -> String {
    let s = &o.stats;
    format!(
        "{},{},{},{},{},{},{},{},{},{},{}",
        o.datagrams,
        s.injected,
        s.events_processed,
        s.delivered_packets,
        s.delivered_bytes,
        o.fired.map_or_else(|| "-".to_string(), |f| f.to_string()),
        o.verdict_name(),
        s.dropped[0],
        s.dropped[1],
        s.dropped[2],
        s.dropped[3],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{
        ActionKind, ActionSpec, CampaignSpec, ChannelSpec, ScenarioSpec, TopologySpec, WorkloadSpec,
    };
    use netsim::SimTime;

    fn flap_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "flap".to_string(),
            seed: 5,
            topology: TopologySpec::Ring(5),
            horizon: SimTime::ZERO,
            workload: WorkloadSpec { flows: 6, ..WorkloadSpec::default() },
            campaign: CampaignSpec { updates: 2, ..CampaignSpec::default() },
            channel: ChannelSpec::default(),
            actions: vec![
                ActionSpec {
                    at: SimTime::from_millis(120),
                    kind: ActionKind::FailLink { a: 2, b: 3 },
                },
                ActionSpec {
                    at: SimTime::from_millis(160),
                    kind: ActionKind::RestoreLink { a: 2, b: 3 },
                },
            ],
        }
    }

    #[test]
    fn coordinated_is_correct_and_fires_every_step() {
        let c = CompiledScenario::compile(&flap_spec()).unwrap();
        let out = run_coordinated(&c, &RunOptions { check: true, ..RunOptions::default() });
        assert_eq!(out.verdict, Some(Ok(())), "Theorem 1 under churn");
        assert_eq!(out.fired, Some(2), "both steps fired");
        assert!(out.stats.delivered_packets > 0, "traffic flowed");
    }

    #[test]
    fn legs_agree_byte_for_byte() {
        let c = CompiledScenario::compile(&flap_spec()).unwrap();
        let solo = run_coordinated(&c, &RunOptions::default());
        let sharded = run_coordinated(&c, &RunOptions { shards: Some(4), ..RunOptions::default() });
        let streamed =
            run_coordinated(&c, &RunOptions { check: true, stream: true, ..RunOptions::default() });
        assert_eq!(solo.stats, sharded.stats, "shards must not change a byte");
        assert_eq!(solo.stats, streamed.stats, "streaming + checking must not either");
        assert_eq!(stats_csv_row(&sharded), stats_csv_row(&solo), "canonical CSV agrees");
    }

    /// Guarded tables compiled from scratch are the only deployment left:
    /// its checked leg verifies and matches the unchecked leg byte for byte.
    #[test]
    fn compile_and_optimizer_legs_agree_byte_for_byte() {
        let c = CompiledScenario::compile(&flap_spec()).unwrap();
        let scratch = run_coordinated(&c, &RunOptions { check: true, ..RunOptions::default() });
        let unchecked = run_coordinated(&c, &RunOptions::default());
        assert_eq!(unchecked.stats, scratch.stats, "the checker is invisible");
        assert_eq!(unchecked.fired, scratch.fired);
        assert_eq!(scratch.verdict, Some(Ok(())));
    }

    #[test]
    fn differential_oracle_separates_the_planes() {
        let outcome = differential(&flap_spec()).unwrap();
        assert_eq!(outcome.coordinated, Ok(()), "coordinated plane is always correct");
        assert_eq!(outcome.fired, 2);
        // The probes race the baseline's 200 ms pushes from a causally-after
        // sender: the stale plane must get caught.
        assert!(outcome.uncoordinated.is_err(), "the baseline violates Definition 6");
    }

    /// A spec-level lossy channel routes the coordinated leg through the
    /// reliability wrapper: the verdict stays `correct` (Theorem 1 carries
    /// over the lossy channel), every step fires, and the canonical CSV is
    /// byte-identical across shard counts.
    #[test]
    fn lossy_channel_stays_correct_and_shard_invariant() {
        let mut spec = flap_spec();
        spec.channel =
            ChannelSpec { drop_pm: 60, dup_pm: 30, reorder_pm: 30, jitter_us: 40, retry_budget: 8 };
        let c = CompiledScenario::compile(&spec).unwrap();
        let checked = run_coordinated(&c, &RunOptions { check: true, ..RunOptions::default() });
        assert_eq!(checked.verdict, Some(Ok(())), "reliability preserves Definition 6 under loss");
        assert_eq!(checked.fired, Some(2), "both steps still fire");
        assert!(!checked.degraded, "a generous budget never exhausts");
        let solo = run_coordinated(&c, &RunOptions::default());
        assert_eq!(solo.stats, checked.stats, "the checker must not change a byte");
        for shards in [2u32, 4] {
            let sharded =
                run_coordinated(&c, &RunOptions { shards: Some(shards), ..RunOptions::default() });
            assert_eq!(sharded.stats, solo.stats, "{shards} shards: lossy stats diverged");
            assert_eq!(stats_csv_row(&sharded), stats_csv_row(&solo));
        }
    }

    /// An ideal `[channel]` spec (or none) must leave the bare runtime in
    /// place: explicitly overriding the channel to ideal reproduces the
    /// default leg byte for byte.
    #[test]
    fn ideal_override_is_byte_identical_to_default() {
        let c = CompiledScenario::compile(&flap_spec()).unwrap();
        let default = run_coordinated(&c, &RunOptions::default());
        let ideal = run_coordinated(
            &c,
            &RunOptions { channel: Some(ChannelModel::ideal()), ..RunOptions::default() },
        );
        assert_eq!(ideal.stats, default.stats);
        assert_eq!(stats_csv_row(&ideal), stats_csv_row(&default));
    }

    /// A starved retransmit budget under heavy loss degrades *explicitly*:
    /// the verdict word flips to `degraded` and the outcome carries the
    /// flight-recorder dump naming the exhausted messages.
    #[test]
    fn starved_budget_degrades_explicitly_with_a_flight_dump() {
        let mut spec = flap_spec();
        spec.channel =
            ChannelSpec { drop_pm: 900, dup_pm: 0, reorder_pm: 0, jitter_us: 0, retry_budget: 0 };
        let c = CompiledScenario::compile(&spec).unwrap();
        let out = run_coordinated(&c, &RunOptions::default());
        assert!(out.degraded, "a zero budget under 90% loss must exhaust");
        assert_eq!(out.verdict_name(), "degraded");
        let dump = out.flight_dump.as_deref().expect("degraded runs carry the post-mortem");
        assert!(dump.contains("\"retry_exhausted\""), "dump names the cause: {dump}");
        assert!(dump.contains("\"drop\""), "dump shows the drops: {dump}");
    }

    #[test]
    fn verdict_names_are_csv_words() {
        let c = CompiledScenario::compile(&flap_spec()).unwrap();
        let unchecked = run_coordinated(&c, &RunOptions::default());
        assert_eq!(unchecked.verdict_name(), "unchecked");
        let checked = run_coordinated(&c, &RunOptions { check: true, ..RunOptions::default() });
        assert_eq!(checked.verdict_name(), "correct");
        let row = stats_csv_row(&checked);
        assert_eq!(row.split(',').count(), stats_csv_header().split(',').count());
    }
}
