//! The set-up layers of a verified campaign, timed apart, on the
//! fat-tree(8) campaign of 63 updates (64 configurations of about 10k
//! rules each — the checker's full window):
//!
//! * `scenario_compile` — `CompiledScenario::compile`: topology, routes
//!   and every configuration's tables;
//! * `dataplane_new` — `CompiledNes::compile` plus `NesDataPlane::new`:
//!   one tag-guarded program per switch. Its input is a fresh copy of the
//!   NES, so it includes one NES clone, timed alone as `nes_clone`;
//! * `checker_observer` — `OnlineChecker::observer`: the masked union
//!   tables the online checker steps.
//!
//! Each iteration also drops what it built.

use criterion::{criterion_group, criterion_main, Criterion};
use edn_bench::campaign_spec;
use edn_core::OnlineChecker;
use edn_scenario::CompiledScenario;
use nes_runtime::{CompiledNes, NesDataPlane};
use std::hint::black_box;

fn bench_deploy(c: &mut Criterion) {
    let spec = campaign_spec(8, 63, 2016);
    let compiled = CompiledScenario::compile(&spec).expect("the campaign spec compiles");
    let switches = compiled.run.sim().switches().to_vec();

    let mut g = c.benchmark_group("deploy_fattree8_63");
    g.sample_size(10);
    g.bench_function("scenario_compile", |b| {
        b.iter(|| CompiledScenario::compile(black_box(&spec)).expect("compiles"))
    });
    g.bench_function("nes_clone", |b| b.iter(|| black_box(&compiled.nes).clone()));
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
