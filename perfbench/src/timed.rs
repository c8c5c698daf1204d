//! Forwarding wrappers that time calls into a layer from outside.
//!
//! [`Timed`] wraps any [`DataPlane`] and [`TimedObserver`] any
//! [`TraceObserver`]. Both forward *every* trait method — including the
//! overridable defaults (`process_arena`, `process_arena_into`,
//! `deliver_and_reply`, `drain_timers`, `on_timer`,
//! `drain_channel_events`, `absorb_shard`, `contribute_metrics`,
//! `attach_flight_recorder`) — so the engine drives the wrapped layer
//! exactly as it would drive it bare. A skipped override would silently
//! route the engine onto a default bridge path and measure a different
//! program; the `forwarding` test pins byte-identical results.
//!
//! Per-call layers are recorded as counts and busy time, never as one span
//! per call.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use edn_core::{LeafKind, TraceObserver};
use netkat::{Loc, Packet};
use netsim::{
    CtrlMsg, DataPlane, PacketArena, PacketId, SimTime, StepResult, StepResultId, TimerStep,
};

/// Call counts and busy time of one wrapped data plane.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PlaneTally {
    /// Packet-processing calls (`process*`).
    pub data_calls: u64,
    /// Nanoseconds inside packet-processing calls.
    pub data_ns: u64,
    /// Control-plane calls (`on_notify`, `deliver*`, `on_timer`).
    pub ctrl_calls: u64,
    /// Nanoseconds inside control-plane calls.
    pub ctrl_ns: u64,
}

impl PlaneTally {
    fn add(&mut self, other: PlaneTally) {
        self.data_calls += other.data_calls;
        self.data_ns += other.data_ns;
        self.ctrl_calls += other.ctrl_calls;
        self.ctrl_ns += other.ctrl_ns;
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// A [`DataPlane`] that forwards every call to `inner` and tallies the
/// packet-processing and control-plane calls.
#[derive(Clone, Debug)]
pub struct Timed<D> {
    inner: D,
    tally: PlaneTally,
}

impl<D> Timed<D> {
    /// Wraps a data plane.
    pub fn new(inner: D) -> Timed<D> {
        Timed { inner, tally: PlaneTally::default() }
    }

    /// The wrapped plane.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// What the wrapper counted so far.
    pub fn tally(&self) -> PlaneTally {
        self.tally
    }

    fn data<R>(&mut self, f: impl FnOnce(&mut D) -> R) -> R {
        let start = Instant::now();
        let r = f(&mut self.inner);
        self.tally.data_ns += elapsed_ns(start);
        self.tally.data_calls += 1;
        r
    }

    fn ctrl<R>(&mut self, f: impl FnOnce(&mut D) -> R) -> R {
        let start = Instant::now();
        let r = f(&mut self.inner);
        self.tally.ctrl_ns += elapsed_ns(start);
        self.tally.ctrl_calls += 1;
        r
    }
}

impl<D: DataPlane> DataPlane for Timed<D> {
    fn process(
        &mut self,
        sw: u64,
        pt: u64,
        packet: Packet,
        from_host: bool,
        now: SimTime,
    ) -> StepResult {
        self.data(|d| d.process(sw, pt, packet, from_host, now))
    }

    fn process_arena(
        &mut self,
        sw: u64,
        pt: u64,
        packet: PacketId,
        from_host: bool,
        now: SimTime,
        arena: &mut PacketArena,
    ) -> StepResultId {
        self.data(|d| d.process_arena(sw, pt, packet, from_host, now, arena))
    }

    fn process_arena_into(
        &mut self,
        sw: u64,
        pt: u64,
        packet: PacketId,
        from_host: bool,
        now: SimTime,
        arena: &mut PacketArena,
        out: &mut StepResultId,
    ) {
        self.data(|d| d.process_arena_into(sw, pt, packet, from_host, now, arena, out))
    }

    fn on_notify(&mut self, msg: CtrlMsg, now: SimTime) -> Vec<(SimTime, u64, CtrlMsg)> {
        self.ctrl(|d| d.on_notify(msg, now))
    }

    fn deliver(&mut self, sw: u64, msg: CtrlMsg, now: SimTime) {
        self.ctrl(|d| d.deliver(sw, msg, now))
    }

    fn deliver_and_reply(&mut self, sw: u64, msg: CtrlMsg, now: SimTime) -> Vec<CtrlMsg> {
        self.ctrl(|d| d.deliver_and_reply(sw, msg, now))
    }

    fn drain_timers(&mut self) -> Vec<(SimTime, u64)> {
        self.inner.drain_timers()
    }

    fn on_timer(&mut self, node: u64, now: SimTime) -> TimerStep {
        self.ctrl(|d| d.on_timer(node, now))
    }

    fn drain_channel_events(&mut self) -> Vec<(&'static str, u64)> {
        self.inner.drain_channel_events()
    }

    fn absorb_shard(&mut self, other: Self, owned: &[u64]) {
        self.tally.add(other.tally);
        self.inner.absorb_shard(other.inner, owned);
    }

    fn contribute_metrics(&self, reg: &mut edn_obs::Registry) {
        self.inner.contribute_metrics(reg);
    }
}

/// Call counts and busy time of one wrapped trace observer.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ObserverTally {
    /// Every callback (`record`, `edge`, `cause`, `leaf`, `retire`,
    /// `finish`).
    pub calls: u64,
    /// `record` callbacks alone.
    pub records: u64,
    /// Nanoseconds inside callbacks.
    pub busy_ns: u64,
}

/// A [`TraceObserver`] that forwards every callback to `inner` and tallies
/// them. The engine owns and drops the observer, so the tally is published
/// through a shared cell when the run finishes.
pub struct TimedObserver {
    inner: Box<dyn TraceObserver + Send>,
    tally: ObserverTally,
    sink: Arc<Mutex<ObserverTally>>,
}

impl TimedObserver {
    /// Wraps an observer; the returned cell holds the tally once the
    /// engine has called `finish`.
    pub fn new(inner: Box<dyn TraceObserver + Send>) -> (TimedObserver, Arc<Mutex<ObserverTally>>) {
        let sink = Arc::new(Mutex::new(ObserverTally::default()));
        (TimedObserver { inner, tally: ObserverTally::default(), sink: sink.clone() }, sink)
    }

    fn call(&mut self, f: impl FnOnce(&mut (dyn TraceObserver + Send))) {
        let start = Instant::now();
        f(self.inner.as_mut());
        self.tally.busy_ns += elapsed_ns(start);
        self.tally.calls += 1;
    }
}

impl TraceObserver for TimedObserver {
    fn record(&mut self, idx: usize, packet: &Packet, loc: Loc, parent: Option<usize>) {
        self.tally.records += 1;
        self.call(|o| o.record(idx, packet, loc, parent));
    }

    fn edge(&mut self, from: usize, to: usize) {
        self.call(|o| o.edge(from, to));
    }

    fn cause(&mut self, idx: usize) {
        self.call(|o| o.cause(idx));
    }

    fn leaf(&mut self, idx: usize, kind: LeafKind) {
        self.call(|o| o.leaf(idx, kind));
    }

    fn retire(&mut self, idx: usize) {
        self.call(|o| o.retire(idx));
    }

    fn finish(&mut self) {
        self.call(|o| o.finish());
        *self.sink.lock().expect("observer tally poisoned") = self.tally;
    }

    fn contribute_metrics(&self, reg: &mut edn_obs::Registry) {
        self.inner.contribute_metrics(reg);
    }

    fn attach_flight_recorder(&mut self, recorder: edn_obs::FlightRecorder) {
        self.inner.attach_flight_recorder(recorder);
    }
}
