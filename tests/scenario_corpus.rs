//! The scenario seed corpus: the generalized Fig. 10 experiment, replayed.
//!
//! Thirty-two pinned `ScenarioGen` seeds — random topologies, update
//! campaigns, link flaps, crashes, latency spikes, and host moves — each
//! replayed through the coordinated NES runtime *and* the uncoordinated
//! baseline with the online Definition 6 checker attached to both:
//!
//! * the coordinated plane's verdict is `correct` on **every** seed
//!   (Theorem 1), and the runtime fires every campaign step;
//! * the uncoordinated baseline is caught on every seed, and the violation
//!   *kind* is pinned: the campaign's causal probes (sent by a host that
//!   just received a post-firing packet, racing the slow push) always
//!   surface as `too_late` — traffic causally after a firing served by a
//!   configuration from before it.
//!
//! A fresh-random proptest then drives unpinned scenarios through the
//! coordinated plane only: no seed anywhere may make the runtime violate.

use edn_scenario::{
    differential, parse, run_coordinated, stats_csv_row, CompiledScenario, RunOptions, ScenarioGen,
};
use netsim::ChannelModel;
use proptest::prelude::*;

/// `(seed, coordinated steps fired, uncoordinated violation name)` for the
/// pinned corpus. Regenerate by printing `differential(&ScenarioGen::
/// sample(seed))` for each seed — any drift here is a behavior change in
/// the generator, the compiler, a plane, or the checker.
const CORPUS: [(u64, usize, &str); 32] = [
    (0, 1, "too_late"),
    (1, 1, "too_late"),
    (2, 1, "too_late"),
    (3, 2, "too_late"),
    (4, 3, "too_late"),
    (5, 4, "too_late"),
    (6, 3, "too_late"),
    (7, 1, "too_late"),
    (8, 1, "too_late"),
    (9, 1, "too_late"),
    (10, 1, "too_late"),
    (11, 2, "too_late"),
    (12, 1, "too_late"),
    (13, 2, "too_late"),
    (14, 4, "too_late"),
    (15, 2, "too_late"),
    (16, 1, "too_late"),
    (17, 3, "too_late"),
    (18, 4, "too_late"),
    (19, 2, "too_late"),
    (20, 3, "too_late"),
    (21, 3, "too_late"),
    (22, 2, "too_late"),
    (23, 2, "too_late"),
    (24, 2, "too_late"),
    (25, 3, "too_late"),
    (26, 2, "too_late"),
    (27, 1, "too_late"),
    (28, 1, "too_late"),
    (29, 3, "too_late"),
    (30, 2, "too_late"),
    (31, 2, "too_late"),
];

#[test]
fn pinned_corpus_verdicts_hold() {
    for &(seed, fired, violation) in &CORPUS {
        let spec = ScenarioGen::sample(seed);
        let outcome = differential(&spec).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            outcome.coordinated,
            Ok(()),
            "seed {seed}: the coordinated plane must stay correct"
        );
        assert_eq!(outcome.fired, fired, "seed {seed}: campaign firing count drifted");
        let caught =
            outcome.uncoordinated.expect_err(&format!("seed {seed}: the baseline must get caught"));
        assert_eq!(caught.name(), violation, "seed {seed}: violation kind drifted");
    }
}

/// The corpus must include at least one uncoordinated counterexample by
/// construction; in fact the causal probes catch the baseline everywhere.
#[test]
fn corpus_has_uncoordinated_counterexamples() {
    assert!(CORPUS.iter().any(|&(_, _, v)| !v.is_empty()));
    assert!(CORPUS.len() >= 32);
}

/// Replays are byte-stable: recompiling and rerunning a corpus scenario
/// reproduces identical stats, and the text form round-trips the spec.
#[test]
fn corpus_scenarios_replay_byte_identically() {
    for seed in [0u64, 5, 17, 29] {
        let spec = ScenarioGen::sample(seed);
        assert_eq!(parse(&spec.to_toml()).unwrap(), spec, "seed {seed} round-trips");
        let c = CompiledScenario::compile(&spec).unwrap();
        let a = run_coordinated(&c, &RunOptions::default());
        let b = run_coordinated(&c, &RunOptions::default());
        assert_eq!(a.stats, b.stats, "seed {seed}: replay diverged");
    }
}

/// The corpus replayed over lossy control channels: every pinned seed's
/// lossy twin ([`ScenarioGen::sample_lossy`] — the same scenario plus a
/// seeded `[channel]` fault model) runs through the ack/retry reliability
/// layer and must land exactly where the ideal run did. The verdict stays
/// `correct` (Theorem 1 carries over drops, duplicates, and reordering),
/// every campaign step fires, the default retry budget never exhausts, and
/// the canonical CSV is byte-identical at 1, 2, and 4 shards — the fault
/// stream is pinned to the owning shard, not the worker schedule.
#[test]
fn lossy_corpus_stays_correct_and_shard_invariant() {
    for &(seed, fired, _) in &CORPUS {
        let spec = ScenarioGen::sample_lossy(seed);
        let c = CompiledScenario::compile(&spec).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let checked = run_coordinated(&c, &RunOptions { check: true, ..RunOptions::default() });
        assert_eq!(
            checked.verdict,
            Some(Ok(())),
            "seed {seed}: the reliability layer must preserve Definition 6 under loss"
        );
        assert_eq!(checked.fired, Some(fired), "seed {seed}: firing count drifted under loss");
        assert!(!checked.degraded, "seed {seed}: the default budget must not exhaust");
        let solo = run_coordinated(&c, &RunOptions { shards: Some(1), ..RunOptions::default() });
        assert_eq!(
            solo.stats, checked.stats,
            "seed {seed}: the checker must not change a byte under loss"
        );
        for shards in [2u32, 4] {
            let sharded =
                run_coordinated(&c, &RunOptions { shards: Some(shards), ..RunOptions::default() });
            assert_eq!(
                stats_csv_row(&sharded),
                stats_csv_row(&solo),
                "seed {seed}: {shards} shards diverged under loss"
            );
        }
    }
}

/// The lossy twins leave the ideal corpus untouched: stripping the
/// `[channel]` section recovers the pinned spec byte for byte, so the
/// pinned firing counts and canonical CSVs above keep meaning what they
/// always meant.
#[test]
fn lossy_twins_share_the_pinned_base_scenarios() {
    for &(seed, _, _) in &CORPUS {
        let base = ScenarioGen::sample(seed);
        let mut twin = ScenarioGen::sample_lossy(seed);
        assert_eq!(twin.name, format!("{}-lossy", base.name), "seed {seed}: twin naming");
        assert!(!twin.channel.is_ideal(), "seed {seed}: the twin must actually be lossy");
        twin.channel = Default::default();
        twin.name = base.name.clone();
        assert_eq!(twin, base, "seed {seed}: the twin drifted from its base scenario");
    }
}

/// Reliability *disabled* under loss is caught, not masked: the
/// uncoordinated baseline has no ack/retry layer, so a lossy channel's
/// dropped pushes and the stale-plane race both surface as online checker
/// violations. Loss must never launder the baseline into a `correct`
/// verdict.
#[test]
fn bare_baseline_under_loss_is_caught_not_masked() {
    for seed in [0u64, 5, 17, 29] {
        let spec = ScenarioGen::sample(seed);
        let c = CompiledScenario::compile(&spec).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let mut engine = c.uncoordinated().with_channel(ChannelModel::lossy(seed));
        let handle = nes_runtime::attach_online_checker(&mut engine, &c.nes)
            .expect("a ≤63-step campaign fits the online checker's windows");
        c.apply_actions(&mut engine);
        c.load_traffic(&mut engine, false);
        c.inject_campaign(&mut engine);
        engine.run_until(c.horizon);
        assert!(
            handle.verdict().is_err(),
            "seed {seed}: the unreliable baseline must be caught under loss"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fresh random scenarios never violate on the coordinated plane: the
    /// online checker returns `correct` and every campaign step fires, for
    /// any generator seed — Theorem 1 as a property test over churn.
    #[test]
    fn coordinated_plane_never_violates(seed in 0u64..u64::MAX) {
        let spec = ScenarioGen::sample(seed);
        let c = CompiledScenario::compile(&spec)
            .unwrap_or_else(|e| panic!("seed {seed}: generated specs compile: {e}"));
        let out = run_coordinated(&c, &RunOptions { check: true, ..RunOptions::default() });
        prop_assert_eq!(out.verdict, Some(Ok(())), "seed {}: verdict", seed);
        prop_assert_eq!(out.fired, Some(c.steps.len()), "seed {}: firings", seed);
    }
}
