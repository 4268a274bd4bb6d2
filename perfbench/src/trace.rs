//! The traced run: per-layer numbers from outside the program.
//!
//! The simulator exposes no internal spans, so each layer is timed by
//! replaying its public functions at the shape the run saw, from this
//! crate, and scaled by the run's own counters (`RunResults::events`,
//! `deliveries`, the sender and pool counters). Spans wrap every call
//! into a layer; they are kept in memory and printed to stderr at the
//! end. Where a layer cannot be timed from outside, a `note:` line on
//! stderr says so and the share reads 0.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pmsb::PortSnapshot;
use pmsb_metrics::QuantileSketch;
use pmsb_netsim::buffer::{Admit, SharedPool};
use pmsb_netsim::experiment::TransportConfig;
use pmsb_netsim::packet::{PacketKind, DEFAULT_MSS, MTU_WIRE_BYTES};
use pmsb_netsim::transport::{Receiver as _, Sender as _, TransportReceiver, TransportSender};
use pmsb_netsim::{BufferPolicy, EngineKind, RegionSpec};
use pmsb_sched::{Dwrr, MultiQueue, SchedItem};
use pmsb_simcore::{EventQueue, SimTime};

use crate::calib::Calibrator;
use crate::cells::{Cell, Outcome, Workload, PMSBE_LEAF_SPINE_NANOS};
use crate::report::Report;
use crate::run;
use crate::stats::{median, share};

/// One recorded span: a named interval, and the span that caused it.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

/// In-memory span log.
#[derive(Debug, Default)]
struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// Runs `f` inside a span named `name` under `parent`, handing it
    /// the log and the new span's id; returns its result and the span's
    /// duration in seconds.
    fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Self, usize) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start: Instant::now(),
            end: None,
        });
        let out = f(self, id);
        let end = Instant::now();
        self.spans[id].end = Some(end);
        (out, (end - self.spans[id].start).as_secs_f64())
    }

    fn duration(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        s.end.map_or(0.0, |e| (e - s.start).as_secs_f64())
    }

    /// Prints every span with its total and self time (total minus the
    /// time its child spans cover).
    fn dump(&self) {
        eprintln!("spans (name, parent, total s, self s):");
        for (id, s) in self.spans.iter().enumerate() {
            let children: f64 = self
                .spans
                .iter()
                .enumerate()
                .filter(|(_, c)| c.parent == Some(id))
                .map(|(cid, _)| self.duration(cid))
                .sum();
            let total = self.duration(id);
            let parent = s
                .parent
                .map_or("-".to_string(), |p| self.spans[p].name.clone());
            eprintln!(
                "  {} {} {:.6} {:.6}",
                s.name,
                parent,
                total,
                total - children
            );
        }
    }
}

/// Nanoseconds per operation of `batch`, which performs `ops`
/// operations: the median of five timed batches after one warm-up.
fn ns_per_op(ops: u64, mut batch: impl FnMut() -> u64) -> f64 {
    black_box(batch());
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(batch());
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Deterministic pseudo-random stream for the replays.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

/// FEL hold model: `population` resident events, each pop followed by
/// one push a uniform `[0, 2·mean_gap]` ahead. Returns ns per push+pop
/// (the initial fill is outside the timing).
fn fel_ns_per_event(population: u64, mean_gap_nanos: u64) -> f64 {
    const OPS: u64 = 200_000;
    let span = (2 * mean_gap_nanos).max(1);
    let mut q = EventQueue::with_capacity(population as usize);
    let mut rng = Lcg(7);
    for i in 0..population {
        q.push(SimTime::from_nanos(rng.next() % span), i);
    }
    ns_per_op(OPS, || {
        let mut sum = 0u64;
        for _ in 0..OPS {
            let (at, e) = q.pop().expect("hold model keeps the population");
            sum = sum.wrapping_add(e);
            q.push(SimTime::from_nanos(at.as_nanos() + rng.next() % span), e);
        }
        sum
    })
}

#[derive(Debug, Clone, Copy)]
struct Pkt(u64);

impl SchedItem for Pkt {
    fn len_bytes(&self) -> u64 {
        self.0
    }
}

/// 8-queue DWRR `MultiQueue`, backlogged: ns per enqueue+dequeue.
fn sched_ns_per_op() -> f64 {
    const OPS: u64 = 200_000;
    ns_per_op(OPS, || {
        let mut mq = MultiQueue::new(Box::new(Dwrr::new(vec![1; 8], MTU_WIRE_BYTES)), u64::MAX);
        let mut now = 0u64;
        for _ in 0..4 {
            for q in 0..8 {
                mq.enqueue(q, Pkt(MTU_WIRE_BYTES), now)
                    .expect("uncapped queue");
            }
        }
        let mut served = 0u64;
        for _ in 0..OPS {
            let (q, p) = mq.dequeue(now).expect("backlogged");
            served += p.0;
            now += 1_200;
            mq.enqueue(q, Pkt(MTU_WIRE_BYTES), now)
                .expect("uncapped queue");
        }
        served
    })
}

/// `MarkingScheme::should_mark` of the workload's scheme over port
/// snapshots straddling the K=12 threshold: ns per decision.
fn marking_ns_per_decision(w: Workload) -> f64 {
    const OPS: u64 = 400_000;
    let views: Vec<PortSnapshot> = (0..16u64)
        .map(|i| {
            let mut b = PortSnapshot::builder(8)
                .round_time_nanos(9_600)
                .sojourn_nanos(2_000 * i);
            for q in 0..8u64 {
                b = b.queue_bytes(q as usize, ((i + q) % 6) * MTU_WIRE_BYTES);
            }
            b.build()
        })
        .collect();
    let mut scheme = w.marking().build(&[1; 8]).expect("the workloads mark");
    ns_per_op(OPS, || {
        let mut marks = 0u64;
        for i in 0..OPS {
            let v = &views[(i % 16) as usize];
            if scheme.should_mark(black_box(v), (i % 8) as usize).is_mark() {
                marks += 1;
            }
        }
        marks
    })
}

/// The workload's transport configuration.
fn transport_config(w: Workload) -> TransportConfig {
    TransportConfig {
        kind: w.transport(),
        pmsbe_rtt_threshold_nanos: (w == Workload::PacketIncastTinybufNewreno)
            .then_some(PMSBE_LEAF_SPINE_NANOS),
        ..TransportConfig::default()
    }
}

/// Sender/receiver loopback of the workload's transport, every eighth
/// data packet CE-marked: ns per data packet and its ACK.
fn transport_ns_per_ack(w: Workload) -> f64 {
    const BYTES: u64 = 2_000_000;
    let cfg = transport_config(w);
    let acks = BYTES.div_ceil(cfg.mss);
    ns_per_op(acks, || {
        let mut s = TransportSender::new(1, 0, 1, 0, BYTES, None, 0, &cfg);
        let mut r = TransportReceiver::new(1, &cfg);
        let mut now = 0u64;
        let mut in_flight = s.start(now).packets;
        let mut count = 0u64;
        while !s.is_completed() && !in_flight.is_empty() {
            now += 10_000;
            let acks: Vec<_> = in_flight
                .drain(..)
                .filter_map(|mut p| {
                    count += 1;
                    p.ce = count.is_multiple_of(8);
                    r.on_data(&p, now).ack
                })
                .collect();
            now += 10_000;
            for a in acks {
                if let PacketKind::Ack { cum_ack, ece } = a.kind {
                    in_flight.extend(s.on_ack(cum_ack, ece, a.sent_at_nanos, now).packets);
                }
            }
        }
        count
    })
}

/// `SharedPool` try_admit/commit/on_dequeue churn on one 16-port switch
/// pool of the workload's policy (`dt:1` where the workload is static):
/// ns per admission decision.
fn buffer_ns_per_admit(w: Workload) -> f64 {
    const OPS: u64 = 400_000;
    let policy = match w.buffer() {
        BufferPolicy::Static => BufferPolicy::DynamicThreshold { alpha: 1.0 },
        p => p,
    };
    ns_per_op(OPS, || {
        let mut pool = SharedPool::new(policy);
        for _ in 0..16 {
            pool.attach_port(policy, crate::cells::TINY_PORT_BYTES, 8, 10_000_000_000);
        }
        let mut queued = [[0u64; 8]; 16];
        let mut rng = Lcg(11);
        let mut admitted = 0u64;
        for i in 0..OPS {
            let (port, q) = ((rng.next() % 16) as usize, (rng.next() % 8) as usize);
            if pool.try_admit(port, q, queued[port][q], MTU_WIRE_BYTES) == Admit::Ok {
                pool.commit(MTU_WIRE_BYTES);
                queued[port][q] += MTU_WIRE_BYTES;
                admitted += 1;
            }
            let (dp, dq) = ((rng.next() % 16) as usize, (rng.next() % 8) as usize);
            if queued[dp][dq] > 0 {
                queued[dp][dq] -= MTU_WIRE_BYTES;
                pool.on_dequeue(dp, dq, MTU_WIRE_BYTES, i * 1_200);
            }
        }
        admitted
    })
}

/// `PatternSpec::flows` over the cell's whole stream: ns per flow.
fn workload_ns_per_flow(cell: &Cell, hosts: usize) -> f64 {
    let pattern = cell.workload.pattern();
    ns_per_op(cell.flows, || {
        pattern
            .flows(hosts, cell.seed, cell.flows)
            .map(|f| f.size_bytes)
            .sum()
    })
}

/// `QuantileSketch::insert` of FCT-like values: ns per record.
fn sketch_ns_per_record(o: &Outcome) -> f64 {
    const OPS: u64 = 400_000;
    let span = o.fct_p99_ns.max(1_000);
    ns_per_op(OPS, || {
        let mut s = QuantileSketch::new();
        let mut rng = Lcg(13);
        for _ in 0..OPS {
            s.insert(rng.next() % span + 1);
        }
        s.count()
    })
}

/// The traced run of `cell`: every per-layer metric of
/// `BENCHMARK.json`. `seconds` bounds the untraced reference loop.
pub fn traced(cell: &Cell, seconds: u64) -> Report {
    let mut sp = Spans::default();
    let w = cell.workload;
    let hosts = cell.experiment(w.engine(), RegionSpec::Auto, 1).num_hosts();
    let (untraced, _) = sp.time("untraced_runs", None, |_, _| {
        let budget = Duration::from_secs(seconds.div_ceil(2));
        run::timed_runs(cell, budget, &mut Calibrator::default())
    });
    let wall = median(&untraced.walls);
    let o = untraced.outcome;
    let reps = untraced.walls.len() as u64;
    let mut report = Report {
        correct: untraced.mismatches.is_empty(),
        attempted: o.injected * reps,
        failed: o.injected.saturating_sub(o.completed) * reps,
        metrics: Vec::new(),
    };

    // The same run once more, with spans at the layer boundaries the
    // public API exposes: set-up (horizon scan + experiment), run, harvest.
    let ((traced_outcome, traced_wall), _) = sp.time("traced_run", None, |sp, root| {
        let (horizon, _) = sp.time("workload.horizon_scan", Some(root), |_, _| {
            cell.horizon_nanos()
        });
        let (e, _) = sp.time("netsim.experiment", Some(root), |_, _| {
            cell.experiment(w.engine(), RegionSpec::Auto, 1)
        });
        let (res, run_wall) = sp.time("netsim.run", Some(root), |_, _| e.run_until_nanos(horizon));
        let (out, _) = sp.time("metrics.harvest", Some(root), |_, _| {
            Outcome::from_results(&res)
        });
        (out, run_wall)
    });
    if traced_outcome != o {
        eprintln!("MISMATCH: the traced run's outcome differs from the untraced runs'");
        report.correct = false;
    }
    let wall_ns = wall * 1e9;
    let packet = w.engine() == EngineKind::Packet;

    // simcore: FEL hold model at the run's event population. The
    // population is not visible from outside; it is estimated as one
    // resident event per live flow's initial window plus its timer.
    let population = (o.slab_high_water * (TransportConfig::default().init_cwnd_pkts + 1)).max(64);
    let mean_gap = population.saturating_mul(o.end_nanos) / o.events.max(1) + 1;
    let (fel_ns, _) = sp.time("layer.simcore.fel", None, |_, _| {
        fel_ns_per_event(population, mean_gap)
    });
    let (sched_ns, _) = sp.time("layer.sched", None, |_, _| sched_ns_per_op());
    let (mark_ns, _) = sp.time("layer.marking", None, |_, _| marking_ns_per_decision(w));
    let (tx_ns, _) = sp.time("layer.transport", None, |_, _| transport_ns_per_ack(w));
    let (buf_ns, _) = sp.time("layer.buffer", None, |_, _| buffer_ns_per_admit(w));
    let (flow_ns, _) = sp.time("layer.workload", None, |_, _| {
        workload_ns_per_flow(cell, hosts)
    });
    let (sketch_ns, _) = sp.time("layer.metrics.sketch", None, |_, _| {
        sketch_ns_per_record(&o)
    });

    // Per-packet layer counts: every delivery was one scheduler
    // enqueue+dequeue and one marking decision at the port that sent it;
    // every delivered data segment (plus each retransmission) is one ACK
    // through the sender; a shared pool sees every switch admission.
    let acks = o.bytes_completed.div_ceil(DEFAULT_MSS) + o.retransmissions;
    let pooled = if w.buffer().is_shared() {
        o.deliveries
    } else {
        0
    };
    let (fel_share, sched_share, mark_share, tx_share, buf_share) = if packet {
        (
            share(o.events, fel_ns, wall_ns),
            share(o.deliveries, sched_ns, wall_ns),
            share(o.deliveries, mark_ns, wall_ns),
            share(acks, tx_ns, wall_ns),
            share(pooled, buf_ns, wall_ns),
        )
    } else {
        eprintln!(
            "note: the regional engine's packet-region operations are not visible from \
             outside (RunResults::events mixes fluid steps and region events); their time \
             is inside fluid.region.share and the per-packet layer shares read 0"
        );
        (0.0, 0.0, 0.0, 0.0, 0.0)
    };
    if !w.buffer().is_shared() {
        eprintln!(
            "note: static buffers bypass the shared pool; buffer.ns_per_admit replays a dt:1 pool"
        );
    }

    // Flow-engine layers: whole-engine runs of this cell. The fluid
    // solver alone is the regional engine with an empty hot set
    // (byte-identical to the fluid engine, and it accepts every buffer
    // policy); the hybrid engine accepts static buffers only.
    let ((fluid_wall, _), _) = sp.time("layer.fluid.solver", None, |_, _| {
        run::run_cell(cell, EngineKind::Regional, RegionSpec::Ports(Vec::new()), 1)
    });
    let regional_wall = if packet {
        let ((regional, _), _) = sp.time("layer.fluid.region", None, |_, _| {
            run::run_cell(cell, EngineKind::Regional, RegionSpec::Auto, 1)
        });
        regional
    } else {
        wall
    };
    if w.buffer().is_shared() {
        eprintln!(
            "note: the hybrid engine accepts static buffers only; fluid.microsim.wall_s is \
             timed on this cell's static-buffer twin"
        );
    }
    let horizon = cell.horizon_nanos();
    let hybrid = cell
        .experiment(EngineKind::Hybrid, RegionSpec::Auto, 1)
        .buffer(BufferPolicy::Static);
    let (_, hybrid_wall) = sp.time("layer.fluid.microsim", None, |_, _| {
        black_box(hybrid.run_until_nanos(horizon).events)
    });
    let (solver_share, region_share) = if packet {
        eprintln!(
            "note: the packet engine never calls the flow-engine layers; their shares read 0"
        );
        (0.0, 0.0)
    } else {
        let s = (fluid_wall / wall).clamp(0.0, 1.0);
        (s, 1.0 - s)
    };

    // Sharded runtime at 2 threads (kept out of the gated workloads).
    let ((sharded_wall, sharded), _) = sp.time("layer.parallel.t2", None, |_, _| {
        run::run_cell(cell, w.engine(), RegionSpec::Auto, 2)
    });
    if !sharded.same_records(&o) {
        eprintln!("MISMATCH: the 2-thread run differs: {sharded:?} vs {o:?}");
        report.correct = false;
    }
    let lp = pmsb_simcore::lp::last_run_profile();
    let busy: u64 = lp.per_lp_busy_nanos.iter().sum();
    let blocked: u64 = lp.per_lp_blocked_nanos.iter().sum();
    let barrier_share = if busy + blocked == 0 {
        0.0
    } else {
        blocked as f64 / (busy + blocked) as f64
    };
    if lp.windows == 0 {
        eprintln!(
            "note: no sharded window ran (the engine is single-threaded or the run fell back)"
        );
    }

    let shares = [
        fel_share,
        sched_share,
        mark_share,
        tx_share,
        buf_share,
        solver_share,
        region_share,
    ];
    let share_sum: f64 = shares.iter().sum();
    if share_sum > 1.0 + 1e-9 {
        eprintln!("MISMATCH: layer shares sum to {share_sum:.4} > 1");
        report.correct = false;
    }
    // What no replayed layer accounts for: the world's own event
    // dispatch, links and packet handling (its self time).
    let world_self_share = (1.0 - share_sum).max(0.0);
    // Spans sit outside the simulator, so the traced run call should
    // take what an untraced one takes; the difference is the overhead.
    let overhead = traced_wall - wall;

    let m = &mut report;
    m.push("simcore.fel.events", o.events as f64, "count");
    m.push("simcore.fel.ns_per_op", fel_ns, "ns");
    m.push("simcore.fel.share", fel_share, "share");
    m.push(
        "netsim.world.ns_per_event",
        wall_ns / o.events.max(1) as f64,
        "ns",
    );
    m.push(
        "netsim.world.events_per_flow",
        o.events as f64 / o.completed.max(1) as f64,
        "count",
    );
    m.push("netsim.world.deliveries", o.deliveries as f64, "count");
    m.push("netsim.world.self_share", world_self_share, "share");
    m.push("sched.ns_per_op", sched_ns, "ns");
    m.push("sched.share", sched_share, "share");
    m.push("marking.ns_per_decision", mark_ns, "ns");
    m.push("marking.marks", o.marks as f64, "count");
    m.push("marking.share", mark_share, "share");
    m.push("transport.ns_per_ack", tx_ns, "ns");
    m.push("transport.share", tx_share, "share");
    m.push(
        "transport.retransmissions",
        o.retransmissions as f64,
        "count",
    );
    m.push("transport.timeouts", o.timeouts as f64, "count");
    m.push("transport.marks_seen", o.marks_seen as f64, "count");
    m.push("transport.marks_ignored", o.marks_ignored as f64, "count");
    m.push("buffer.ns_per_admit", buf_ns, "ns");
    m.push("buffer.share", buf_share, "share");
    m.push("buffer.admit_rejects", o.admit_rejects as f64, "count");
    m.push("buffer.shared_drops", o.shared_drops as f64, "count");
    m.push(
        "buffer.pool_high_water_bytes",
        o.pool_high_water_bytes as f64,
        "B",
    );
    m.push("workload.ns_per_flow", flow_ns, "ns");
    m.push("metrics.sketch.ns_per_record", sketch_ns, "ns");
    m.push("fluid.solver.wall_s", fluid_wall, "s");
    m.push("fluid.solver.share", solver_share, "share");
    m.push("fluid.region.wall_s", regional_wall - fluid_wall, "s");
    m.push("fluid.region.share", region_share, "share");
    m.push("fluid.microsim.wall_s", hybrid_wall - fluid_wall, "s");
    m.push("fluid.microsim.share", 0.0, "share");
    m.push("parallel.t2_speedup", wall / sharded_wall, "x");
    m.push("parallel.windows", lp.windows as f64, "count");
    m.push("parallel.messages", lp.messages as f64, "count");
    m.push("parallel.barrier_wait_share", barrier_share, "share");
    m.push("trace.overhead_s", overhead, "s");
    sp.dump();
    report
}
