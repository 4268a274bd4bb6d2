//! The packet region of the regional engine (DESIGN.md §13): real
//! packet-level ports embedded inside a fluid run.
//!
//! A small *hot set* of switch ports — flagged by a deterministic
//! first-pass fluid solve, or named explicitly — is simulated with the
//! real machinery: the configured scheduler inside a real
//! [`MultiQueue`], the real [`MarkingScheme`] objects at the configured
//! mark point, the real [`SharedPool`] admission, and the real PMSB(e)
//! [`SelectiveBlindness`] ACK rule. Everything else stays fluid.
//!
//! **Boundary adapters.** Fluid → packet: each flow crossing a hot port
//! runs one MTU-paced ghost-arrival chain per hot hop, paced at the
//! flow's region rate, so the port sees the per-queue arrival process
//! the rate implies. Packet → fluid: the marks those ghosts draw feed a
//! per-flow DCTCP/NewReno window loop whose rate is handed back to the
//! max-min solver as an app-rate cap. The ghosts are *signal* packets:
//! flow progress is accounted exclusively by the fluid byte ledger, so
//! byte conservation at the seam holds by construction — the region can
//! shift *when* a flow's bits drain (via its cap) but never create or
//! destroy bits.
//!
//! The region rate intentionally probes *above* the fair share
//! (additive increase per RTT, like the real transport): the overshoot
//! is what builds the standing queue to the marking scheme's operating
//! point, which is where per-queue blindness — invisible to the fluid
//! closed form — reappears in the dynamics.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use pmsb::endpoint::SelectiveBlindness;
use pmsb::marking::MarkingScheme;
use pmsb::MarkPoint;
use pmsb_sched::{MultiQueue, SchedItem};

use crate::buffer::{Admit, SharedPool};
use crate::config::TransportKind;
use crate::experiment::Experiment;
use crate::packet::MTU_WIRE_BYTES;
use crate::transport::cc::alpha_update_ppm;
use crate::world::port::PacketPortView;
use crate::world::World;

/// Floor of the per-flow region rate: a stalled flow keeps probing at
/// 1 Mb/s instead of parking at zero, like a transport's minimum window.
const MIN_RATE_BPS: u64 = 1_000_000;

/// Ceiling on the ghost pacing period. A very slow flow still lands a
/// probe every 250 µs, so its marking feedback never goes fully dark.
const MAX_PERIOD_NANOS: u64 = 250_000;

/// Ghost pacing period for `rate_bps`: one MTU per `MTU/rate`, clamped
/// between wire speed and the probe ceiling.
fn pacing_period(rate_bps: u64, ser_nanos: u64) -> u64 {
    if rate_bps == 0 {
        return MAX_PERIOD_NANOS;
    }
    (MTU_WIRE_BYTES * 8_000_000_000 / rate_bps).clamp(ser_nanos.max(1), MAX_PERIOD_NANOS)
}

/// A ghost packet: one MTU of signal riding a hot port's real queues.
#[derive(Debug)]
struct RegionPkt {
    enqueued_at_nanos: u64,
    flow_id: u64,
    /// Set when enqueue-point marking fired (dequeue marking then skips
    /// it, exactly like the CE bit on a real packet).
    ce: bool,
}

impl SchedItem for RegionPkt {
    fn len_bytes(&self) -> u64 {
        MTU_WIRE_BYTES
    }
}

/// One hot port: the real per-port machinery, minus the wire.
struct RegionPort {
    mq: MultiQueue<RegionPkt>,
    marker: Option<Box<dyn MarkingScheme>>,
    mark_point: MarkPoint,
    busy: bool,
    link_rate_bps: u64,
    /// Index into [`PacketRegion::pools`].
    pool: u32,
    /// This port's index within its pool's attach order.
    pool_port: u32,
}

/// One switch's shared memory pool, spanning its hot ports only (ports
/// outside the region hold fluid standing queues that never contend for
/// pool space — the documented approximation of DESIGN.md §13).
struct RegionPool {
    pool: SharedPool,
    /// Indices into [`PacketRegion::ports`] attached to this pool.
    ports: Vec<u32>,
}

/// One flow with at least one hot hop: its ghost pacers and its
/// measured-mark window loop.
struct RegionFlow {
    /// Hot hops as indices into [`PacketRegion::ports`], in path order.
    hops: Vec<u32>,
    queue: u16,
    /// Region rate the ghosts pace at and the solver cap reports;
    /// 0 = not yet seeded by the first solve.
    cur_rate_bps: u64,
    /// Latest solver RTT (base + standing queues), driving the PMSB(e)
    /// rule and the additive-increase step.
    rtt_nanos: u64,
    /// End of the current congestion window (the Win event time; a
    /// heap entry with a different time is stale).
    window_end: u64,
    window_pkts: u32,
    window_marks: u32,
    /// DCTCP mark-fraction EWMA, ppm (gain 1/16).
    alpha_ppm: u64,
    marks_seen: u64,
    marks_ignored: u64,
}

/// Counters the region hands back when the run ends.
pub(super) struct RegionSummary {
    /// Ghost packets tail-dropped or pool-rejected at hot ports.
    pub(super) drops: u64,
    /// Marks applied to ghosts of already-departed flows.
    pub(super) orphan_marks: u64,
    /// Region events processed (arrivals, transmits, window rolls).
    pub(super) events: u64,
    /// Shared-pool contention at hot ports, when the policy is shared.
    pub(super) shared: Option<pmsb_metrics::contention::ContentionSummary>,
}

/// Heap event kinds (packed into plain tuples so ordering is explicit).
const EV_ARRIVAL: u8 = 0;
const EV_TX_DONE: u8 = 1;

/// One packet event: `(time, seq, kind, a, b)` — `Arr(flow, hop)` or
/// `TxDone(port)`. Plain tuple so the ordering (min-time, then FIFO by
/// push sequence) is explicit and `Ord`-derived.
type PktEvent = (u64, u64, u8, u64, u32);

/// The embedded packet region. See the module docs for the model.
pub(super) struct PacketRegion {
    ports: Vec<RegionPort>,
    pools: Vec<RegionPool>,
    /// Link id → index into `ports` (`u32::MAX` = not hot).
    link_to_port: Vec<u32>,
    /// Flows with hot hops, keyed by flow id (B-tree for deterministic
    /// iteration-free determinism — lookups only, but no hash state).
    flows: BTreeMap<u64, RegionFlow>,
    /// Packet events; the push sequence number breaks time ties FIFO,
    /// mirroring the packet engine's event list.
    heap: BinaryHeap<Reverse<PktEvent>>,
    /// Window-roll events `(window_end, flow)`, lazily invalidated: an
    /// entry is live iff it matches the flow's current `window_end`.
    win_heap: BinaryHeap<Reverse<(u64, u64)>>,
    seq: u64,
    rates_changed: bool,
    orphan_marks: u64,
    events: u64,
    mss: u64,
    kind: TransportKind,
    pmsbe: Option<SelectiveBlindness>,
    link_rate_bps: u64,
    ser_nanos: u64,
}

impl PacketRegion {
    /// Builds the region over `hot` switch ports (validated against the
    /// world, deduplicated, pool-attached in port order).
    ///
    /// # Panics
    ///
    /// Panics when a hot port names a switch or port outside the
    /// topology.
    pub(super) fn new(
        e: &Experiment,
        world: &World,
        switch_base: &[u32],
        num_links: usize,
        hot: &[(usize, usize)],
    ) -> Self {
        let mut hot: Vec<(usize, usize)> = hot.to_vec();
        hot.sort_unstable();
        hot.dedup();
        let cfg = &e.switch_cfg;
        let weights = cfg.scheduler.weights();
        let mut ports = Vec::with_capacity(hot.len());
        let mut pools: Vec<RegionPool> = Vec::new();
        let mut link_to_port = vec![u32::MAX; num_links];
        let mut pool_of_switch: BTreeMap<usize, u32> = BTreeMap::new();
        for &(s, p) in &hot {
            assert!(
                s < world.num_switches(),
                "region port {s}:{p} names switch {s}, but the topology has {} switches",
                world.num_switches()
            );
            assert!(
                p < world.num_ports(s),
                "region port {s}:{p} names port {p}, but switch {s} has {} ports",
                world.num_ports(s)
            );
            let pool_idx = *pool_of_switch.entry(s).or_insert_with(|| {
                pools.push(RegionPool {
                    pool: SharedPool::new(cfg.buffer),
                    ports: Vec::new(),
                });
                (pools.len() - 1) as u32
            });
            let pool = &mut pools[pool_idx as usize];
            let pool_port = pool.ports.len() as u32;
            pool.pool.attach_port(
                cfg.buffer,
                cfg.buffer_bytes,
                cfg.scheduler.num_queues(),
                e.link_rate_bps,
            );
            pool.ports.push(ports.len() as u32);
            link_to_port[(switch_base[s] + p as u32) as usize] = ports.len() as u32;
            ports.push(RegionPort {
                mq: MultiQueue::with_policy(cfg.scheduler.build(), cfg.port_buffer_policy()),
                marker: cfg.marking.build(&weights),
                mark_point: cfg.mark_point,
                busy: false,
                link_rate_bps: e.link_rate_bps,
                pool: pool_idx,
                pool_port,
            });
        }
        let c = e.link_rate_bps.max(1);
        PacketRegion {
            ports,
            pools,
            link_to_port,
            flows: BTreeMap::new(),
            heap: BinaryHeap::new(),
            win_heap: BinaryHeap::new(),
            seq: 0,
            rates_changed: false,
            orphan_marks: 0,
            events: 0,
            mss: e.transport.mss,
            kind: e.transport.kind,
            pmsbe: e
                .transport
                .pmsbe_rtt_threshold_nanos
                .map(SelectiveBlindness::new),
            link_rate_bps: e.link_rate_bps,
            ser_nanos: MTU_WIRE_BYTES * 8_000_000_000 / c,
        }
    }

    /// Whether `link` is one of the region's hot ports.
    pub(super) fn is_hot(&self, link: u32) -> bool {
        self.link_to_port[link as usize] != u32::MAX
    }

    /// Measured standing-queue delay of hot `link` (0 when not hot):
    /// the real queue's occupancy drained at line rate.
    pub(super) fn delay_nanos(&self, link: u32) -> u64 {
        let pi = self.link_to_port[link as usize];
        if pi == u32::MAX {
            return 0;
        }
        self.ports[pi as usize]
            .mq
            .port_bytes()
            .saturating_mul(8_000_000_000)
            / self.link_rate_bps.max(1)
    }

    /// Registers an arriving flow whose `path` crosses hot ports.
    pub(super) fn on_inject(&mut self, id: u64, path: &[u32], queue: u16) {
        let mut hops = Vec::new();
        for &l in path {
            let pi = self.link_to_port[l as usize];
            if pi != u32::MAX {
                hops.push(pi);
            }
        }
        if hops.is_empty() {
            return;
        }
        self.flows.insert(
            id,
            RegionFlow {
                hops,
                queue,
                cur_rate_bps: 0,
                rtt_nanos: 0,
                window_end: 0,
                window_pkts: 0,
                window_marks: 0,
                alpha_ppm: 1_000_000,
                marks_seen: 0,
                marks_ignored: 0,
            },
        );
    }

    /// The cap this flow's region rate imposes on the solver
    /// (`u64::MAX` = unconstrained: not a region flow, or not seeded).
    pub(super) fn cap_bps(&self, id: u64) -> u64 {
        match self.flows.get(&id) {
            Some(f) if f.cur_rate_bps > 0 => f.cur_rate_bps,
            _ => u64::MAX,
        }
    }

    /// Feeds one solve's outcome back: refreshes the flow's RTT and, on
    /// the first solve after arrival, seeds the region rate at the fair
    /// share (DCTCP init: α = 1) and starts the ghost pacers.
    pub(super) fn set_alloc(&mut self, id: u64, alloc_bps: u64, rtt_nanos: u64, now: u64) {
        let link_rate = self.link_rate_bps;
        let Some(f) = self.flows.get_mut(&id) else {
            return;
        };
        f.rtt_nanos = rtt_nanos;
        if f.cur_rate_bps != 0 {
            return;
        }
        f.cur_rate_bps = alloc_bps.clamp(MIN_RATE_BPS, link_rate);
        f.window_end = now + rtt_nanos.max(1_000);
        let window_end = f.window_end;
        let num_hops = f.hops.len();
        self.win_heap.push(Reverse((window_end, id)));
        for h in 0..num_hops {
            self.seq += 1;
            self.heap.push(Reverse((
                now + 1 + h as u64,
                self.seq,
                EV_ARRIVAL,
                id,
                h as u32,
            )));
        }
    }

    /// Earliest pending window roll — the only region event that can
    /// change a solver cap, so the fluid loop bounds its targets by it.
    pub(super) fn next_rate_event(&mut self) -> u64 {
        while let Some(&Reverse((at, id))) = self.win_heap.peek() {
            match self.flows.get(&id) {
                Some(f) if f.window_end == at => return at,
                _ => {
                    self.win_heap.pop(); // stale: flow gone or window moved
                }
            }
        }
        u64::MAX
    }

    /// True once since the last call iff a window roll changed a rate.
    pub(super) fn take_rates_changed(&mut self) -> bool {
        std::mem::take(&mut self.rates_changed)
    }

    /// Removes a departing flow, returning its `(seen, ignored)` mark
    /// counters. Its pending events go stale and drain lazily.
    pub(super) fn remove_flow(&mut self, id: u64) -> (u64, u64) {
        match self.flows.remove(&id) {
            Some(f) => (f.marks_seen, f.marks_ignored),
            None => (0, 0),
        }
    }

    /// Processes every region event up to and including `t`, in
    /// deterministic `(time, seq)` order with window rolls merged in.
    pub(super) fn advance_to(&mut self, t: u64) {
        loop {
            let pkt_at = self.heap.peek().map_or(u64::MAX, |r| r.0 .0);
            let win_at = self.next_rate_event();
            if pkt_at.min(win_at) > t {
                return;
            }
            if win_at <= pkt_at {
                let Reverse((now, id)) = self.win_heap.pop().expect("validated peek");
                self.events += 1;
                self.roll_window(id, now);
            } else {
                let Reverse((now, _seq, kind, a, b)) = self.heap.pop().expect("peeked");
                self.events += 1;
                match kind {
                    EV_ARRIVAL => self.on_arrival(a, b as usize, now),
                    _ => {
                        self.ports[a as usize].busy = false;
                        self.try_transmit(a as usize, now);
                    }
                }
            }
        }
    }

    /// One DCTCP/NewReno window boundary: fold the measured mark
    /// fraction into α, cut or grow the region rate, open the next
    /// window.
    fn roll_window(&mut self, id: u64, now: u64) {
        let (mss, kind, link_rate) = (self.mss, self.kind, self.link_rate_bps);
        let Some(f) = self.flows.get_mut(&id) else {
            return;
        };
        let frac_ppm = if f.window_pkts > 0 {
            f.window_marks as u64 * 1_000_000 / f.window_pkts as u64
        } else {
            0
        };
        f.alpha_ppm = alpha_update_ppm(f.alpha_ppm, frac_ppm);
        let rtt = f.rtt_nanos.max(1_000);
        if f.window_marks > 0 {
            f.cur_rate_bps = kind.cut_rate_bps(f.cur_rate_bps, f.alpha_ppm);
        } else {
            // One MSS per RTT of additive probing, like the real sender;
            // the overshoot past the fair share is what sustains the
            // queue at the marking onset.
            f.cur_rate_bps = f.cur_rate_bps.saturating_add(mss * 8_000_000_000 / rtt);
        }
        f.cur_rate_bps = f.cur_rate_bps.clamp(MIN_RATE_BPS, link_rate);
        f.window_pkts = 0;
        f.window_marks = 0;
        f.window_end = now + rtt;
        let window_end = f.window_end;
        self.win_heap.push(Reverse((window_end, id)));
        self.rates_changed = true;
    }

    /// One ghost arrival of `flow` at hot hop `hop`: real enqueue-point
    /// marking, real pool admission, then the pacer reschedules itself.
    fn on_arrival(&mut self, flow_id: u64, hop: usize, now: u64) {
        let Some(f) = self.flows.get(&flow_id) else {
            return; // stale pacer of a departed flow
        };
        let pi = f.hops[hop] as usize;
        let (queue, rate, rtt) = (f.queue, f.cur_rate_bps, f.rtt_nanos);
        self.seq += 1;
        self.heap.push(Reverse((
            now + pacing_period(rate, self.ser_nanos),
            self.seq,
            EV_ARRIVAL,
            flow_id,
            hop as u32,
        )));
        // Pool occupancy mirrors `deliver_to_switch`: the shared pool's
        // O(1) book-keeping, or the hot ports' sum for a per-pool scheme
        // under static buffers.
        let pool_idx = self.ports[pi].pool as usize;
        let pool_occ: u64 = if self.pools[pool_idx].pool.is_shared() {
            self.pools[pool_idx].pool.used_bytes()
        } else {
            match self.ports[pi].marker.as_ref() {
                Some(m) if m.reads_pool() => self.pools[pool_idx]
                    .ports
                    .iter()
                    .map(|&i| self.ports[i as usize].mq.port_bytes())
                    .sum(),
                _ => 0,
            }
        };
        let mut marked = false;
        {
            let p = &mut self.ports[pi];
            let q = queue as usize % p.mq.num_queues();
            let mut pkt = RegionPkt {
                enqueued_at_nanos: now,
                flow_id,
                ce: false,
            };
            if p.mark_point == MarkPoint::Enqueue {
                if let Some(marker) = p.marker.as_mut() {
                    let view = PacketPortView {
                        mq: &p.mq,
                        link_rate_bps: p.link_rate_bps,
                        pool_bytes: Some(pool_occ),
                        sojourn_nanos: None,
                    };
                    if marker.should_mark(&view, q).is_mark() {
                        pkt.ce = true;
                        marked = true;
                    }
                }
            }
            let pool = &mut self.pools[pool_idx].pool;
            if pool.is_shared() {
                if pool.try_admit(p.pool_port as usize, q, p.mq.queue_bytes(q), MTU_WIRE_BYTES)
                    == Admit::Ok
                    && p.mq.enqueue(q, pkt, now).is_ok()
                {
                    pool.commit(MTU_WIRE_BYTES);
                }
            } else {
                let _ = p.mq.enqueue(q, pkt, now); // drop counted in the MultiQueue
            }
        }
        if marked {
            self.attribute_mark(flow_id, rtt);
        }
        if let Some(f) = self.flows.get_mut(&flow_id) {
            f.window_pkts += 1;
        }
        self.try_transmit(pi, now);
    }

    /// Real dequeue + dequeue-point marking, exactly the switch port's
    /// transmit path — minus the wire, since ghosts die at the egress.
    fn try_transmit(&mut self, pi: usize, now: u64) {
        if self.ports[pi].busy {
            return;
        }
        let Some((q, pkt)) = self.ports[pi].mq.dequeue(now) else {
            return;
        };
        let pool_idx = self.ports[pi].pool as usize;
        let pool_port = self.ports[pi].pool_port as usize;
        if self.pools[pool_idx].pool.is_shared() {
            self.pools[pool_idx]
                .pool
                .on_dequeue(pool_port, q, MTU_WIRE_BYTES, now);
        }
        let mut marked_flow = None;
        {
            let pool_used = {
                let pool = &self.pools[pool_idx].pool;
                pool.is_shared().then(|| pool.used_bytes())
            };
            let p = &mut self.ports[pi];
            if p.mark_point == MarkPoint::Dequeue && !pkt.ce {
                if let Some(marker) = p.marker.as_mut() {
                    let view = PacketPortView {
                        mq: &p.mq,
                        link_rate_bps: p.link_rate_bps,
                        pool_bytes: pool_used,
                        sojourn_nanos: Some(now.saturating_sub(pkt.enqueued_at_nanos)),
                    };
                    if marker.should_mark(&view, q).is_mark() {
                        marked_flow = Some(pkt.flow_id);
                    }
                }
            }
            p.busy = true;
        }
        self.seq += 1;
        self.heap.push(Reverse((
            now + self.ser_nanos,
            self.seq,
            EV_TX_DONE,
            pi as u64,
            0,
        )));
        if let Some(fid) = marked_flow {
            match self.flows.get(&fid) {
                Some(f) => {
                    let rtt = f.rtt_nanos;
                    self.attribute_mark(fid, rtt);
                }
                None => self.orphan_marks += 1,
            }
        }
    }

    /// Books one applied mark on a live flow, running the real PMSB(e)
    /// ACK rule: an ignored echo still counts as seen (the switch did
    /// mark) but never reaches the window loop — blindness in action.
    fn attribute_mark(&mut self, flow_id: u64, rtt_nanos: u64) {
        let ignore = self
            .pmsbe
            .is_some_and(|rule| rule.ignore_mark(true, rtt_nanos));
        let Some(f) = self.flows.get_mut(&flow_id) else {
            self.orphan_marks += 1;
            return;
        };
        f.marks_seen += 1;
        if ignore {
            f.marks_ignored += 1;
        } else {
            f.window_marks += 1;
        }
    }

    /// Final counters once the run ends.
    pub(super) fn finish(self) -> RegionSummary {
        let mut drops = 0u64;
        for p in &self.ports {
            drops += p.mq.dropped_items();
        }
        let mut shared = None;
        for rp in &self.pools {
            if rp.pool.is_shared() {
                drops += rp.pool.shared_drops();
                shared
                    .get_or_insert_with(pmsb_metrics::contention::ContentionSummary::default)
                    .absorb(&rp.pool.summary());
            }
        }
        RegionSummary {
            drops,
            orphan_marks: self.orphan_marks,
            events: self.events,
            shared,
        }
    }
}
