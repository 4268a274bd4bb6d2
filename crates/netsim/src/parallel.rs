//! Conservative parallel execution of a sharded [`World`] (DESIGN.md §8).
//!
//! The network is partitioned by switch into logical processes — every LP
//! owns a set of switches plus the hosts attached to them, chosen by the
//! experiment's [`PartitionStrategy`](crate::partition::PartitionStrategy)
//! — and driven by [`pmsb_simcore::run_conservative_matrix`]:
//! barrier-synchronized windows with *per-LP horizons*. Each LP's horizon
//! is bounded by its peers' pending times plus the pairwise minimum
//! propagation delay (closed over multi-hop paths), so distant and idle
//! LPs stop throttling busy ones. Cross-LP packets travel through
//! preallocated per-(src,dst) lanes swapped at each barrier, and the
//! deterministic `(time, src_lp, emission order)` merge at each
//! destination makes the event schedule — and therefore every record —
//! byte-identical to the sequential run for any thread count and any
//! partition.

use pmsb_metrics::fct::{FctRecorder, FlowRecord};
use pmsb_simcore::{
    last_run_profile, publish_run_profile, run_conservative_matrix, EventHandler, LogicalProcess,
    LookaheadMatrix, LpMessage, LpRunProfile, SimTime, Simulation, TieKey,
};

use crate::experiment::Experiment;
use crate::partition::{contiguous_partition, traffic_partition, PartitionStrategy};
use crate::world::{Event, RunResults, World};

/// One logical process: a full [`World`] copy that simulates only its
/// own partition, with its private FEL.
struct ShardLp {
    sim: Simulation<World>,
}

impl LogicalProcess for ShardLp {
    /// A packet delivery tagged with the sender-side tie key; replaying
    /// the key on insertion sorts the message among same-time local
    /// events exactly where the sequential run's push (made mid-handling
    /// at the send instant) would have placed it.
    type Message = (TieKey, Event);

    fn next_time(&self) -> Option<SimTime> {
        self.sim.queue.peek_time()
    }

    fn run_window(&mut self, horizon: SimTime, outbox: &mut Vec<LpMessage<(TieKey, Event)>>) {
        // Peek-then-pop (not `pop_at_or_before`): a declined pop must not
        // advance the FEL clock past the horizon, or the messages pushed
        // at the next barrier would land in this LP's past.
        while self.sim.queue.peek_time().is_some_and(|t| t < horizon) {
            let (now, event) = self.sim.queue.pop().expect("peeked a pending event");
            self.sim.handler.handle(now, event, &mut self.sim.queue);
        }
        self.sim.handler.drain_outbox(outbox);
    }

    fn receive(&mut self, at: SimTime, src: u32, (key, event): (TieKey, Event)) {
        self.sim.queue.push_ordered(at, key, src, event);
    }
}

/// [`LpRunProfile::fallback`] when the partition cuts a zero-delay link.
const FALLBACK_ZERO_DELAY: &str = "zero-delay cut link";
/// [`LpRunProfile::fallback`] when the sharded run hit ambiguous ties.
const FALLBACK_AMBIGUOUS_TIES: &str = "ambiguous same-instant ties";

/// Runs `exp` to `end_nanos` on `k` logical processes. Falls back to the
/// sequential path when the partition cuts a zero-delay link (no safe
/// lookahead window exists across it) or when the sharded schedule hit
/// an ambiguous tie. Every exit publishes [`last_run_profile`] with the
/// tie count and the fallback reason, if any.
///
/// [`last_run_profile`]: pmsb_simcore::last_run_profile
pub(crate) fn run_sharded(exp: &Experiment, k: usize, end_nanos: u64) -> RunResults {
    let mut worlds: Vec<World> = (0..k).map(|_| exp.build_world()).collect();
    let owner = match exp.partition {
        PartitionStrategy::Contiguous => contiguous_partition(worlds[0].num_switches(), k),
        PartitionStrategy::Traffic => traffic_partition(&worlds[0], exp, k),
    };
    let direct = worlds[0].lp_delay_matrix(&owner, k);
    if direct.contains(&0) {
        publish_run_profile(LpRunProfile {
            fallback: Some(FALLBACK_ZERO_DELAY),
            ..LpRunProfile::default()
        });
        return worlds.swap_remove(0).run_until_nanos(end_nanos);
    }
    let lookahead = LookaheadMatrix::from_direct(k, direct);
    let mut lps: Vec<ShardLp> = worlds
        .into_iter()
        .enumerate()
        .map(|(lp, mut w)| {
            w.set_shard(lp, owner.clone());
            let mut sim = w.prepare(end_nanos);
            // Cross-LP messages carry tie keys (DESIGN.md §6, §8); only
            // the LPs' queues pay for tracking them.
            sim.queue.enable_tie_keys();
            ShardLp { sim }
        })
        .collect();
    run_conservative_matrix(&mut lps, &lookahead, SimTime::from_nanos(end_nanos));
    // The tie-key window resolves cross-LP message order wherever the
    // causal chains differ within it, but two chains in lockstep (e.g.
    // ports serializing identical packets at the same instants) can
    // collide through any bounded window. Every such collision is
    // counted at pop time; zero collisions proves the schedule matched
    // the sequential run, so a non-zero count discards the sharded
    // results and reruns sequentially — correctness over speed.
    let mut profile = last_run_profile();
    profile.ambiguous_ties = lps.iter().map(|lp| lp.sim.queue.ambiguous_ties()).sum();
    if profile.ambiguous_ties > 0 {
        profile.fallback = Some(FALLBACK_AMBIGUOUS_TIES);
        publish_run_profile(profile);
        return exp.build_world().run_until_nanos(end_nanos);
    }
    publish_run_profile(profile);
    let parts = lps
        .into_iter()
        .map(|lp| {
            // Subtract the pushes a sequential run would not have made
            // (replicated fault events, duplicate trace chains) so the
            // merged total matches the sequential `events` exactly.
            let events = lp.sim.queue.scheduled_count() - lp.sim.handler.shard_extra_pushes();
            lp.sim.handler.harvest(end_nanos, events)
        })
        .collect();
    merge(parts)
}

/// Folds per-LP results into the sequential run's shape. Ownership is
/// disjoint — each flow, sender, and watched port is harvested by
/// exactly one LP — so maps union, counters sum, and the completion
/// records re-sort into the sequential `(end, flow)` order. Fault
/// schedule bookkeeping (timeline log, link up/down counts) is identical
/// on every LP; per-packet fault drops happen on one LP each and sum.
fn merge(parts: Vec<RunResults>) -> RunResults {
    let mut it = parts.into_iter();
    let mut acc = it.next().expect("at least one LP");
    let mut records: Vec<FlowRecord> = acc.fct.records().to_vec();
    for p in it {
        records.extend_from_slice(p.fct.records());
        acc.rtt_nanos_by_flow.extend(p.rtt_nanos_by_flow);
        acc.port_traces.extend(p.port_traces);
        acc.sender_stats.extend(p.sender_stats);
        acc.drops += p.drops;
        acc.marks += p.marks;
        acc.events += p.events;
        acc.deliveries += p.deliveries;
        if let (Some(a), Some(b)) = (acc.shared_buffer.as_mut(), p.shared_buffer.as_ref()) {
            // Each switch's pool sees traffic on exactly one LP (the
            // owner); other LPs fold zeros. Drops sum, peaks max.
            a.absorb(b);
        }
        if let (Some(a), Some(b)) = (acc.faults.as_mut(), p.faults.as_ref()) {
            a.injected_drops += b.injected_drops;
            a.corrupt_drops += b.corrupt_drops;
            a.unroutable_drops += b.unroutable_drops;
        }
        if let (Some(a), Some(b)) = (acc.stream.as_mut(), p.stream.as_ref()) {
            // Each flow's sender lives on exactly one LP, so counts sum
            // and the sketches merge losslessly (order-independent). The
            // high-water marks peak at different instants per LP; their
            // sum is an upper bound on the global concurrent population.
            a.sketch.merge(&b.sketch);
            a.injected += b.injected;
            a.completed += b.completed;
            a.bytes_completed += b.bytes_completed;
            crate::world::add_sender_stats(&mut a.agg_sender, &b.agg_sender);
            a.slab_high_water += b.slab_high_water;
        }
    }
    records.sort_unstable_by_key(|r| (r.end_nanos, r.flow_id));
    let mut fct = FctRecorder::new();
    for r in records {
        fct.record(r);
    }
    acc.fct = fct;
    acc
}
