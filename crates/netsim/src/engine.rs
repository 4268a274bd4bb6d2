//! The engine seam: one dispatch point every simulation engine
//! implements.
//!
//! [`Experiment::run_until_nanos`](crate::Experiment::run_until_nanos)
//! used to hardcode three engine modes inline; this module lifts that
//! into an [`Engine`] trait with one implementation per
//! [`EngineKind`], so capability checks (fault schedules, shared
//! buffer policies, `--sim-threads`) live next to the engine that
//! defines them instead of in a growing if-chain. Adding an engine
//! means adding an impl here — the experiment layer never changes.

use crate::config::{EcnResponse, EngineKind};
use crate::experiment::{Experiment, Topology};
use crate::world::RunResults;

/// One simulation engine: its capabilities and its run entry point.
pub(crate) trait Engine {
    /// The [`EngineKind`] this engine implements.
    fn kind(&self) -> EngineKind;
    /// Whether the engine honours an attached
    /// [`FaultSchedule`](pmsb_faults::FaultSchedule).
    fn supports_faults(&self) -> bool {
        false
    }
    /// Whether the engine models the shared buffer policies
    /// ([`crate::buffer::BufferPolicy`] other than `Static`).
    fn supports_shared_buffers(&self) -> bool {
        false
    }
    /// Whether the engine models [`EcnResponse::Classic`]. The
    /// flow-level engines answer a DCTCP flow's marks with DCTCP's
    /// closed-form response whatever the configured cut.
    fn supports_classic_ecn(&self) -> bool {
        false
    }
    /// Whether `sim_threads > 1` changes how the engine runs. Engines
    /// answering `false` are single-threaded by design; a requested
    /// thread count is ignored (with a stderr note, see [`run`]).
    fn uses_sim_threads(&self) -> bool {
        false
    }
    /// Runs the (validated) experiment until `end_nanos`.
    fn run(&self, e: Experiment, end_nanos: u64) -> RunResults;
}

struct PacketEngine;

impl Engine for PacketEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Packet
    }
    fn supports_faults(&self) -> bool {
        true
    }
    fn supports_shared_buffers(&self) -> bool {
        true
    }
    fn supports_classic_ecn(&self) -> bool {
        true
    }
    fn uses_sim_threads(&self) -> bool {
        true
    }
    fn run(&self, e: Experiment, end_nanos: u64) -> RunResults {
        let num_switches = match e.topology {
            Topology::Dumbbell { .. } => 1,
            Topology::LeafSpine { leaves, spines, .. } => leaves + spines,
            Topology::FatTree { k } => 5 * k * k / 4,
        };
        let threads = e.sim_threads.min(num_switches);
        if threads > 1 {
            return crate::parallel::run_sharded(&e, threads, end_nanos);
        }
        e.build_world().run_until_nanos(end_nanos)
    }
}

struct FluidEngine;

impl Engine for FluidEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Fluid
    }
    fn run(&self, e: Experiment, end_nanos: u64) -> RunResults {
        crate::fluid::run(&e, end_nanos)
    }
}

struct HybridEngine;

impl Engine for HybridEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Hybrid
    }
    fn run(&self, e: Experiment, end_nanos: u64) -> RunResults {
        crate::fluid::run(&e, end_nanos)
    }
}

struct RegionalEngine;

impl Engine for RegionalEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Regional
    }
    fn supports_shared_buffers(&self) -> bool {
        // The packet region runs the real `SharedPool` admission at its
        // hot ports; ports outside the region stay fluid (where a
        // standing queue at the marking onset never contends for pool
        // space anyway).
        true
    }
    fn run(&self, e: Experiment, end_nanos: u64) -> RunResults {
        crate::fluid::run(&e, end_nanos)
    }
}

/// The engine implementing `kind`.
fn engine_for(kind: EngineKind) -> &'static dyn Engine {
    match kind {
        EngineKind::Packet => &PacketEngine,
        EngineKind::Fluid => &FluidEngine,
        EngineKind::Hybrid => &HybridEngine,
        EngineKind::Regional => &RegionalEngine,
    }
}

/// Validates `e` against its engine's capabilities and runs it.
///
/// # Panics
///
/// Panics when the experiment asks for a capability its engine does not
/// implement (fault schedules, shared buffer policies or the classic ECN
/// response on a flow-level engine).
pub(crate) fn run(e: Experiment, end_nanos: u64) -> RunResults {
    let engine = engine_for(e.engine);
    if !engine.supports_faults() {
        assert!(
            e.faults.is_none(),
            "the {} engine does not support fault schedules (packet only)",
            engine.kind().name()
        );
    }
    if !engine.supports_shared_buffers() {
        assert!(
            !e.switch_cfg.buffer.is_shared(),
            "the {} engine supports only the 'static' buffer policy, \
             got '{}' (accepted: static|dt:ALPHA|delay[:MICROS] on the packet and \
             regional engines, static only on fluid/hybrid)",
            engine.kind().name(),
            e.switch_cfg.buffer.name()
        );
    }
    if !engine.supports_classic_ecn() {
        assert!(
            e.transport.ecn_response != EcnResponse::Classic,
            "the {} engine supports only the 'dctcp' ECN response, got 'classic' \
             (accepted: dctcp|classic on the packet engine, dctcp only on \
             fluid/hybrid/regional)",
            engine.kind().name()
        );
    }
    if !engine.uses_sim_threads() && e.sim_threads > 1 {
        eprintln!(
            "note: --sim-threads {} ignored: the {} engine is single-threaded by design \
             (results are byte-identical across thread counts)",
            e.sim_threads,
            engine.kind().name()
        );
    }
    engine.run(e, end_nanos)
}

#[cfg(test)]
mod tests {
    use crate::config::{EcnResponse, EngineKind, TransportConfig};
    use crate::experiment::{Experiment, FlowDesc};

    fn classic(engine: EngineKind) -> Experiment {
        let mut e = Experiment::dumbbell(2, 2)
            .engine(engine)
            .transport(TransportConfig {
                ecn_response: EcnResponse::Classic,
                ..TransportConfig::default()
            });
        e.add_flow(FlowDesc::bulk(0, 2, 0, 100_000));
        e
    }

    /// The flow-level engines model only DCTCP's proportional cut;
    /// asking them for the classic response must fail fast with the
    /// accepted variants named instead of silently running DCTCP.
    #[test]
    fn flow_level_engines_reject_classic_ecn() {
        for engine in [EngineKind::Fluid, EngineKind::Hybrid, EngineKind::Regional] {
            let err = std::panic::catch_unwind(|| classic(engine).run_for_millis(5))
                .expect_err("classic ECN must be rejected");
            let msg = err
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(
                msg.contains("accepted: dctcp|classic"),
                "{}: {msg}",
                engine.name()
            );
        }
        let res = classic(EngineKind::Packet).run_for_millis(5);
        assert_eq!(res.fct.len(), 1, "the packet engine runs classic ECN");
    }
}
