//! The benchmark's three workloads as simulator cells, built only from
//! the public `Experiment` API, and the simulated outcome of one run.

use pmsb_netsim::experiment::{Experiment, MarkingConfig, RunResults, TransportKind};
use pmsb_netsim::packet::MTU_WIRE_BYTES;
use pmsb_netsim::{BufferPolicy, EngineKind, RegionSpec};
use pmsb_workload::PatternSpec;

/// The benchmark workloads (names are part of `BENCHMARK.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Packet engine, `fat_tree(8)`, 100 KB shuffle, PMSB K=12, DCTCP,
    /// static buffers: every per-packet layer, no flow-engine layer.
    PacketFattree8Shuffle,
    /// Regional engine (`regional:auto`), `fat_tree(16)`, the 20 KB
    /// incast+shuffle capstone mix with PMSB: solver, scout and packet
    /// region.
    RegionalFattree16Mix,
    /// Packet engine, 48-host leaf–spine, synchronized 32-to-1 incast
    /// epochs through a shallow `dt:1` shared pool, NewReno, per-port
    /// marking with PMSB(e) at the senders: drops, RTOs,
    /// retransmissions, pool admission, the Algorithm-2 ACK filter.
    PacketIncastTinybufNewreno,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload::PacketFattree8Shuffle,
    Workload::RegionalFattree16Mix,
    Workload::PacketIncastTinybufNewreno,
];

/// PMSB(e) RTT threshold on the leaf–spine: the paper's §VI-B setting.
pub const PMSBE_LEAF_SPINE_NANOS: u64 = 85_200;

/// Shared pool of the tiny-buffer cell, as a per-port budget: 8 MTUs per
/// port, so one epoch's synchronized 32 × 20 KB burst overruns a leaf's
/// whole pool (16 ports × 8 MTUs ≈ 192 KB).
pub const TINY_PORT_BYTES: u64 = 8 * MTU_WIRE_BYTES;

impl Workload {
    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PacketFattree8Shuffle => "packet_fattree8_shuffle",
            Workload::RegionalFattree16Mix => "regional_fattree16_mix",
            Workload::PacketIncastTinybufNewreno => "packet_incast_tinybuf_newreno",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Result<Self, String> {
        WORKLOADS
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
                format!("unknown workload '{name}' (accepted: {})", names.join("|"))
            })
    }

    /// Flows per repeat in the gated benchmark: sized so that every flow
    /// completes and a repeat takes a few seconds at most, short enough
    /// for the calibration points on either side of it to follow the
    /// machine's phase (see `calib`).
    pub fn bench_flows(self) -> u64 {
        match self {
            Workload::PacketFattree8Shuffle => 4_000,
            Workload::RegionalFattree16Mix => 60_000,
            Workload::PacketIncastTinybufNewreno => 12_800,
        }
    }

    /// The engine the workload runs on.
    pub fn engine(self) -> EngineKind {
        match self {
            Workload::RegionalFattree16Mix => EngineKind::Regional,
            _ => EngineKind::Packet,
        }
    }

    /// The streamed traffic pattern.
    pub fn pattern(self) -> PatternSpec {
        match self {
            Workload::PacketFattree8Shuffle => PatternSpec::shuffle(),
            Workload::RegionalFattree16Mix => PatternSpec::Mix(vec![
                PatternSpec::Incast {
                    fan_in: 64,
                    epoch_nanos: 500_000,
                    request_bytes: 20_000,
                },
                PatternSpec::Shuffle {
                    flow_bytes: 20_000,
                    wave_gap_nanos: 1_000_000,
                },
            ]),
            Workload::PacketIncastTinybufNewreno => PatternSpec::Incast {
                fan_in: 32,
                epoch_nanos: 2_000_000,
                request_bytes: 20_000,
            },
        }
    }

    /// The marking scheme at every switch port.
    pub fn marking(self) -> MarkingConfig {
        match self {
            Workload::PacketIncastTinybufNewreno => MarkingConfig::PerPort { threshold_pkts: 12 },
            _ => MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            },
        }
    }

    /// The transport every sender runs.
    pub fn transport(self) -> TransportKind {
        match self {
            Workload::PacketIncastTinybufNewreno => TransportKind::NewReno,
            _ => TransportKind::Dctcp,
        }
    }

    /// The switch buffer policy.
    pub fn buffer(self) -> BufferPolicy {
        match self {
            Workload::PacketIncastTinybufNewreno => BufferPolicy::DynamicThreshold { alpha: 1.0 },
            _ => BufferPolicy::Static,
        }
    }

    /// Simulated drain window after the last arrival. The tiny-buffer
    /// cell sits through RTO backoff, so it gets a long one.
    fn drain_nanos(self) -> u64 {
        match self {
            Workload::PacketIncastTinybufNewreno => 2_000_000_000,
            _ => 50_000_000,
        }
    }

    fn fabric(self) -> Experiment {
        match self {
            Workload::PacketFattree8Shuffle => Experiment::fat_tree(8),
            Workload::RegionalFattree16Mix => Experiment::fat_tree(16),
            Workload::PacketIncastTinybufNewreno => {
                Experiment::paper_leaf_spine().buffer_bytes(TINY_PORT_BYTES)
            }
        }
    }
}

/// One workload at one size and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Which workload.
    pub workload: Workload,
    /// Flows streamed into the run.
    pub flows: u64,
    /// Workload seed (endpoints, services, arrival order).
    pub seed: u64,
}

impl Cell {
    /// The gated benchmark cell of `workload` at `seed`.
    pub fn bench(workload: Workload, seed: u64) -> Self {
        Cell {
            workload,
            flows: workload.bench_flows(),
            seed,
        }
    }

    /// Simulated horizon: the stream's last arrival plus the drain
    /// window. Scanning the stream for its last arrival is part of
    /// set-up, as in the hyperscale campaign.
    pub fn horizon_nanos(&self) -> u64 {
        let hosts = self.workload.fabric().num_hosts();
        let last = self
            .workload
            .pattern()
            .flows(hosts, self.seed, self.flows)
            .last()
            .map_or(0, |f| f.start_nanos);
        last + self.workload.drain_nanos()
    }

    /// The experiment for this cell on `engine` (the workload's own
    /// engine unless overridden) with `threads` simulation threads.
    pub fn experiment(&self, engine: EngineKind, region: RegionSpec, threads: usize) -> Experiment {
        let w = self.workload;
        let mut e = w
            .fabric()
            .marking(w.marking())
            .transport_kind(w.transport())
            .buffer(w.buffer())
            .stream(w.pattern(), self.seed, self.flows)
            .sim_threads(threads)
            .engine(engine);
        if engine == EngineKind::Regional {
            e = e.region(region);
        }
        if w == Workload::PacketIncastTinybufNewreno {
            e = e.pmsbe_rtt_threshold_nanos(PMSBE_LEAF_SPINE_NANOS);
        }
        e
    }
}

/// The simulated outputs of one run: everything the correctness gate
/// compares across repeats, plus the counters the traced run reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Outcome {
    /// Flows pulled from the stream.
    pub injected: u64,
    /// Flows fully acknowledged before the horizon.
    pub completed: u64,
    /// Payload bytes of completed flows.
    pub bytes_completed: u64,
    /// Sketch FCT percentiles, nanoseconds (0 when nothing completed).
    pub fct_p50_ns: u64,
    /// 90th-percentile FCT, nanoseconds.
    pub fct_p90_ns: u64,
    /// 99th-percentile FCT, nanoseconds.
    pub fct_p99_ns: u64,
    /// CE marks applied by switches.
    pub marks: u64,
    /// Packets dropped anywhere in the fabric.
    pub drops: u64,
    /// ECE marks senders saw.
    pub marks_seen: u64,
    /// ECE marks the PMSB(e) filter ignored.
    pub marks_ignored: u64,
    /// Retransmitted segments.
    pub retransmissions: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// FEL events scheduled (0 on the flow-level engines).
    pub events: u64,
    /// Packet deliveries to a node.
    pub deliveries: u64,
    /// Shared-pool admissions refused (0 under static buffers).
    pub admit_rejects: u64,
    /// Drops charged to the shared pool.
    pub shared_drops: u64,
    /// Shared-pool high-water mark, bytes.
    pub pool_high_water_bytes: u64,
    /// Peak live flow slots.
    pub slab_high_water: u64,
    /// Simulated time at the end of the run, nanoseconds.
    pub end_nanos: u64,
}

impl Outcome {
    /// Equality of everything but `slab_high_water`, which a sharded run
    /// reports as a sum of per-shard peaks (an upper bound).
    pub fn same_records(&self, other: &Outcome) -> bool {
        let strip = |o: &Outcome| Outcome {
            slab_high_water: 0,
            ..*o
        };
        strip(self) == strip(other)
    }

    /// Harvests a streaming run's results.
    pub fn from_results(res: &RunResults) -> Self {
        let s = res.stream.as_ref().expect("benchmark cells stream");
        let q = |p: f64| s.sketch.quantile(p).unwrap_or(0);
        let sb = res.shared_buffer.unwrap_or_default();
        Outcome {
            injected: s.injected,
            completed: s.completed,
            bytes_completed: s.bytes_completed,
            fct_p50_ns: q(0.5),
            fct_p90_ns: q(0.9),
            fct_p99_ns: q(0.99),
            marks: res.marks,
            drops: res.drops,
            marks_seen: s.agg_sender.marks_seen,
            marks_ignored: s.agg_sender.marks_ignored,
            retransmissions: s.agg_sender.retransmissions,
            timeouts: s.agg_sender.timeouts,
            events: res.events,
            deliveries: res.deliveries,
            admit_rejects: sb.admit_rejects,
            shared_drops: sb.shared_drops,
            pool_high_water_bytes: sb.pool_high_water_bytes,
            slab_high_water: s.slab_high_water,
            end_nanos: res.end_nanos,
        }
    }
}
