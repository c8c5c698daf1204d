//! # nes-runtime
//!
//! The implementation strategy of Section 4 of *Event-Driven Network
//! Programming* (PLDI 2016), deployed on the `netsim` simulator:
//!
//! * [`CompiledNes`] assigns an integer tag to every event-set of a network
//!   event structure; every configuration is installed proactively through
//!   the NES's versioned tables, each rule guarded by the set of tags that
//!   own it;
//! * [`NesDataPlane`] implements the operational semantics of Fig. 7 —
//!   ingress stamping, digest learning, event triggering, per-tag
//!   forwarding, and the optional controller broadcast;
//! * [`UncoordDataPlane`] is the uncoordinated baseline of Section 5.1 —
//!   events punted to a slow controller that pushes configurations in
//!   random order;
//! * [`verify_nes_run`] / [`verify_uncoordinated_run`] check a finished run
//!   against Definition 6 (the paper's Theorem 1 says the former never
//!   fails; the baseline demonstrably does);
//! * [`attach_online_checker`] attaches the incremental Definition 6 checker
//!   to an engine before the run, so stats-only executions too large to
//!   record still get a verdict in bounded memory;
//! * [`campaign_nes`] chains many successive updates into one NES — the
//!   rolling update campaigns the scenario layer scripts.

#![warn(missing_docs)]

mod campaign;
mod compile;
mod dataplane;
mod deploy;
mod program;
mod reliable;
mod static_plane;
mod uncoordinated;
mod verify;

pub use campaign::{
    campaign_mark, campaign_nes, campaign_pred, campaign_trigger, CampaignStep, CAMPAIGN_MARK_BASE,
};
pub use compile::{CompiledNes, RuleBreakdown};
pub use dataplane::NesDataPlane;
pub use deploy::{CompilePath, DeployKnobs, OptimizeMode};
pub use program::{tagged_lookup, SwitchProgram};
pub use reliable::{retry_budget_from_env, Reliable};
pub use static_plane::StaticDataPlane;
pub use uncoordinated::UncoordDataPlane;
pub use verify::{
    attach_online_checker, nes_engine, nes_engine_with, nes_reliable_engine_with,
    uncoordinated_engine, verify_nes_run, verify_reliable_nes_run, verify_uncoordinated_run,
};
