//! Differential test: the timing-wheel [`EventQueue`] — unkeyed, and
//! keyed as the sharded runtime uses it — must pop the exact same
//! (time, payload) sequence as the reference binary-heap [`HeapQueue`]
//! on randomized seeded workloads.
//!
//! The generators below deliberately exercise every structural path of the
//! wheel: same-instant bursts (FIFO tie-break), pushes at the just-popped
//! timestamp, jumps across level windows (cascades), far-future times
//! (overflow heap + migration back into the wheel), and interleaved
//! push/pop schedules where placement happens against a moving clock.

use pmsb_simcore::rng::SimRng;
use pmsb_simcore::{EventQueue, HeapQueue, SimTime};

/// Drives an unkeyed wheel, a keyed wheel and the heap through the same
/// schedule and asserts every popped (time, payload) pair matches.
/// `next_at` gets the current clock and the RNG and returns the next
/// absolute timestamp (must be >= the clock).
fn run_differential(
    label: &str,
    seed: u64,
    ops: usize,
    pop_every: usize,
    mut next_at: impl FnMut(u64, &mut SimRng) -> u64,
) {
    let mut rng = SimRng::seed_from(seed);
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut keyed: EventQueue<u64> = EventQueue::new();
    keyed.enable_tie_keys();
    let mut heap: HeapQueue<u64> = HeapQueue::new();
    for op in 0..ops {
        let at = SimTime::from_nanos(next_at(wheel.now().as_nanos(), &mut rng));
        wheel.push(at, op as u64);
        keyed.push(at, op as u64);
        heap.push(at, op as u64);
        if pop_every > 0 && op % pop_every == pop_every - 1 {
            let w = wheel.pop();
            let h = heap.pop();
            assert_eq!(w, h, "[{label} seed={seed}] interleaved pop diverged");
            assert_eq!(keyed.pop(), h, "[{label} seed={seed}] keyed pop diverged");
            assert_eq!(
                wheel.peek_time(),
                heap.peek_time(),
                "[{label} seed={seed}] peek diverged"
            );
            assert_eq!(keyed.peek_time(), heap.peek_time());
        }
    }
    let mut drained = 0usize;
    loop {
        let w = wheel.pop();
        let h = heap.pop();
        assert_eq!(
            w, h,
            "[{label} seed={seed}] drain diverged at pop #{drained}"
        );
        assert_eq!(
            keyed.pop(),
            h,
            "[{label} seed={seed}] keyed drain diverged at pop #{drained}"
        );
        if w.is_none() {
            break;
        }
        drained += 1;
        assert_eq!(
            wheel.now(),
            heap.now(),
            "[{label} seed={seed}] clock diverged"
        );
        assert_eq!(keyed.now(), heap.now());
    }
    assert_eq!(wheel.len(), 0);
    assert_eq!(keyed.len(), 0);
    assert_eq!(wheel.scheduled_count(), heap.scheduled_count());
    assert_eq!(keyed.scheduled_count(), heap.scheduled_count());
    // Plain pushes never tag a seq, so no tie can be ambiguous.
    assert_eq!(keyed.ambiguous_ties(), 0);
}

#[test]
fn near_future_workload_matches_heap() {
    // Dense near-future times: the common netsim case, all level 0/1.
    for seed in [1, 2, 3] {
        run_differential("near", seed, 10_000, 3, |now, rng| {
            now + rng.below(200) as u64
        });
    }
}

#[test]
fn tie_heavy_workload_matches_heap() {
    // Many events at identical instants: FIFO tie-break is load-bearing.
    for seed in [10, 11] {
        run_differential("ties", seed, 10_000, 4, |now, rng| {
            now + (rng.below(4) as u64) * 50
        });
    }
}

#[test]
fn cascade_workload_matches_heap() {
    // Spans that force placements on every wheel level and frequent
    // cascades as the clock crosses 64^k boundaries.
    for seed in [20, 21, 22] {
        run_differential("cascade", seed, 10_000, 2, |now, rng| {
            let level = rng.below(4) as u32;
            now + ((rng.below(64) as u64) << (6 * level))
        });
    }
}

#[test]
fn overflow_workload_matches_heap() {
    // Mix of near times and far-future deadlines (RTO-style, beyond the
    // ~16.7 ms wheel horizon) so events migrate overflow -> wheel.
    for seed in [30, 31] {
        run_differential("overflow", seed, 10_000, 5, |now, rng| {
            if rng.below(8) == 0 {
                now + (1 << 24) + rng.next_u64() % (1 << 28)
            } else {
                now + rng.below(5_000) as u64
            }
        });
    }
}

#[test]
fn batch_then_drain_matches_heap() {
    // Pure batch load (no interleaved pops): everything is placed against
    // a clock stuck at zero, then drained in one go.
    for seed in [40, 41] {
        run_differential("batch", seed, 10_000, 0, |_, rng| {
            rng.next_u64() % (1 << 30)
        });
    }
}

#[test]
fn push_at_now_matches_heap() {
    // Every fourth push lands exactly on the just-popped instant, the
    // "schedule follow-up work at the current time" pattern handlers use.
    for seed in [50, 51] {
        run_differential("at-now", seed, 10_000, 2, |now, rng| {
            if rng.below(4) == 0 {
                now
            } else {
                now + rng.below(300) as u64
            }
        });
    }
}

#[test]
fn keyed_unkeyed_and_heap_agree_on_a_mixed_workload() {
    // Every structural path at once, with deadline-bounded pops that
    // decline work and leave the clock on a pending instant: same-instant
    // bursts, pushes at the just-popped instant, level-crossing spans that
    // cascade, and overflow-horizon events that migrate back in. A keyed
    // queue driven only by plain pushes must order exactly like an
    // unkeyed one, and both like the heap.
    for seed in [60, 61, 62] {
        let mut rng = SimRng::seed_from(seed);
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut keyed: EventQueue<u64> = EventQueue::new();
        keyed.enable_tie_keys();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut payload = 0u64;
        for round in 0..4_000u64 {
            let now = wheel.now().as_nanos();
            let burst = 1 + rng.below(6) as u64;
            let at = match rng.below(5) {
                0 => now,
                1 => now + rng.below(3) as u64,
                2 => now + ((rng.below(64) as u64) << (6 * rng.below(4) as u32)),
                3 => now + (1 << 44) + rng.next_u64() % (1 << 40),
                _ => now + rng.below(400) as u64,
            };
            for _ in 0..burst {
                wheel.push(SimTime::from_nanos(at), payload);
                keyed.push(SimTime::from_nanos(at), payload);
                heap.push(SimTime::from_nanos(at), payload);
                payload += 1;
            }
            for _ in 0..rng.below(8) {
                let deadline = SimTime::from_nanos(now + rng.below(1_000) as u64);
                let expect = heap
                    .peek_time()
                    .filter(|&t| t <= deadline)
                    .and_then(|_| heap.pop());
                let w = wheel.pop_at_or_before(deadline);
                assert_eq!(w, expect, "[mixed seed={seed} round={round}] wheel");
                let k = keyed.pop_at_or_before(deadline);
                assert_eq!(k, expect, "[mixed seed={seed} round={round}] keyed");
                assert_eq!(wheel.now(), keyed.now());
                if expect.is_none() && !heap.is_empty() {
                    // A declined pop leaves the clock on the pending
                    // instant; resume the way a driver does, serving it
                    // before anything new is pushed (see
                    // `EventQueue::enable_tie_keys`).
                    let h = heap.pop();
                    assert_eq!(wheel.pop(), h, "[mixed seed={seed} round={round}] resume");
                    assert_eq!(keyed.pop(), h, "[mixed seed={seed} round={round}] resume");
                    break;
                }
            }
        }
        loop {
            let h = heap.pop();
            assert_eq!(wheel.pop(), h, "[mixed seed={seed}] wheel drain");
            assert_eq!(keyed.pop(), h, "[mixed seed={seed}] keyed drain");
            if h.is_none() {
                break;
            }
        }
        assert_eq!(keyed.ambiguous_ties(), 0);
    }
}
