//! The set-up layers of a verified campaign, timed apart, on the
//! fat-tree(8) campaign of 63 updates (64 configurations of about 7.7k
//! rules each, stored as 10,240 versioned entries — the checker's full
//! window):
//!
//! * `scenario_compile` — `CompiledScenario::compile`: topology, routes
//!   and the versioned tables, built from each rule's owner range;
//! * `nes_clone` — cloning the NES: its event structure and a reference
//!   count on the shared tables;
//! * `nes_merge` — `NetworkEventStructure::new` over the 64 materialised
//!   configurations: the order-preserving merge that stores an NES given
//!   as full configurations (the case studies, the firewall), including
//!   the clone of the configurations it consumes;
//! * `dataplane_new` — `CompiledNes::compile` plus `NesDataPlane::new` on
//!   a fresh NES clone: tags and switch state, no rule copied;
//! * `checker_observer` — `OnlineChecker::observer`: the link classes the
//!   online checker steps beside the shared tables.
//!
//! Each iteration also drops what it built.

use criterion::{criterion_group, criterion_main, Criterion};
use edn_bench::campaign_spec;
use edn_core::{Config, NetworkEventStructure, OnlineChecker};
use edn_scenario::CompiledScenario;
use nes_runtime::{CompiledNes, NesDataPlane};
use std::hint::black_box;

fn bench_deploy(c: &mut Criterion) {
    let spec = campaign_spec(8, 63, 2016);
    let compiled = CompiledScenario::compile(&spec).expect("the campaign spec compiles");
    let switches = compiled.run.sim().switches().to_vec();
    let sets = compiled.nes.event_sets();
    let configs: Vec<Config> = sets.iter().map(|&x| compiled.nes.config(x)).collect();

    let mut g = c.benchmark_group("deploy_fattree8_63");
    g.sample_size(10);
    g.bench_function("scenario_compile", |b| {
        b.iter(|| CompiledScenario::compile(black_box(&spec)).expect("compiles"))
    });
    g.bench_function("nes_clone", |b| b.iter(|| black_box(&compiled.nes).clone()));
    g.bench_function("nes_merge", |b| {
        b.iter(|| {
            let g = sets.iter().copied().zip(black_box(&configs).iter().cloned());
            NetworkEventStructure::new(compiled.nes.structure().clone(), g).expect("total")
        })
    });
    g.bench_function("dataplane_new", |b| {
        b.iter(|| {
            let nes = CompiledNes::compile(black_box(&compiled.nes).clone());
            NesDataPlane::new(nes, switches.clone(), false)
        })
    });
    g.bench_function("checker_observer", |b| {
        b.iter(|| OnlineChecker::observer(black_box(&compiled.nes)).expect("fits the window"))
    });
    g.finish();
}

criterion_group!(benches, bench_deploy);
criterion_main!(benches);
