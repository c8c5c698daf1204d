//! The repository benchmark: three seeded workloads over the event-driven
//! network runtime, each timed end to end and — in a separate traced run —
//! broken down by layer.
//!
//! Layers are measured from outside, by timing calls into their public
//! functions ([`edn_scenario::parse`], [`CompiledScenario::compile`],
//! [`CompiledNes::compile`], [`NesDataPlane::with_knobs`],
//! [`OnlineChecker::observer`], [`Engine::run`]) and by wrapping the data
//! plane and the trace observer in the forwarding wrappers of [`timed`].
//! The program itself carries no benchmark tracing.
//!
//! [`CompiledScenario::compile`]: edn_scenario::CompiledScenario::compile
//! [`CompiledNes::compile`]: nes_runtime::CompiledNes::compile
//! [`NesDataPlane::with_knobs`]: nes_runtime::NesDataPlane::with_knobs
//! [`OnlineChecker::observer`]: edn_core::OnlineChecker::observer
//! [`Engine::run`]: netsim::Engine::run

pub mod measure;
pub mod timed;
pub mod workloads;
