//! Machine-speed calibration for host-time metrics.
//!
//! On a shared machine the same run can take twice as long from one
//! minute to the next: neighbours contend for the core and its caches,
//! and the simulator's branchy, cache-missing integer code feels it more
//! than a plain arithmetic loop does. The benchmark therefore times a
//! fixed calibration workload of the same character, written here and
//! independent of the simulator crates, before the first timed step of a
//! run and after every step, and scales each step's host time by
//! [`CAL_REFERENCE_S`] / (mean of the calibrations on either side of it).
//! A regression in the simulator still shows in full (the calibration
//! code does not change with it), while a slow phase of the machine slows
//! both sides of the ratio and cancels. Pairing each step with its own
//! calibrations follows the machine's phase from step to step; each
//! calibration is the median of a few loops, to keep the calibrator's own
//! jitter out, and the run reports the median over its scaled steps.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Calibration wall time, in seconds, that the normalised metrics are
/// scaled to: the calibrator's typical time on the machine the bounds
/// were set on (Intel Xeon at 2.0 GHz, 2 vCPUs). Host seconds of a step
/// are reported as `wall × CAL_REFERENCE_S / calibration wall`.
pub const CAL_REFERENCE_S: f64 = 0.037;

/// Calibration loops per calibration point; the point is their median.
const LOOPS_PER_POINT: usize = 3;

/// Events the calibration loop processes.
const CAL_EVENTS: u64 = 300_000;

/// Words of per-entity state the loop updates at random: 256 KiB. Over a
/// 14-minute trace of the tiny-buffer and regional cells on a shared
/// 2-vCPU machine, this size tracked the simulator's slowdowns best of
/// 32 KiB, 256 KiB, 2 MiB and 16 MiB tables: the interquartile spread of
/// run wall / calibration over 8-run windows was 0.05 of its median,
/// against 0.07–0.09 at 16 MiB and 0.17–0.25 uncalibrated.
const TABLE_WORDS: usize = 32 << 10;

/// The calibration workload, its state table (allocated once, so that
/// page faults stay out of the timing) and the latest calibration point.
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u64>,
    last_point: Option<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            table: vec![1; TABLE_WORDS],
            last_point: None,
        }
    }
}

impl Calibrator {
    /// Takes a calibration point: the median wall of
    /// [`LOOPS_PER_POINT`] calibration loops. Call it right before the
    /// first step that [`Self::scale`] will scale.
    pub fn point(&mut self) -> f64 {
        let walls: Vec<f64> = (0..LOOPS_PER_POINT).map(|_| self.measure()).collect();
        let point = median(&walls);
        self.last_point = Some(point);
        point
    }

    /// Scales `wall`, the host seconds of a step timed since the last
    /// calibration point, to the reference machine: takes a new point and
    /// returns `wall × CAL_REFERENCE_S / mean(previous point, new point)`.
    /// With no previous point the new one stands for both.
    pub fn scale(&mut self, wall: f64) -> f64 {
        let before = self.last_point;
        let after = self.point();
        let phase = (before.unwrap_or(after) + after) / 2.0;
        wall * CAL_REFERENCE_S / phase
    }

    /// Runs the calibration workload once and returns its wall seconds:
    /// a discrete-event loop with a binary-heap future-event list of
    /// 4096 timers, 64 FIFO queues, a random update of the state table
    /// per event and data-dependent branches, from a fixed seed.
    fn measure(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut rng = 5u64;
        let mut next = || {
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            rng >> 33
        };
        let mut fel = BinaryHeap::with_capacity(4096);
        let mut queues: Vec<VecDeque<u64>> = (0..64).map(|_| VecDeque::new()).collect();
        for id in 0..4096u64 {
            fel.push(Reverse((next() % 100_000, id)));
        }
        let words = self.table.len() as u64;
        let mut acc = 0u64;
        for _ in 0..CAL_EVENTS {
            let Reverse((at, id)) = fel.pop().expect("the population is constant");
            let q = &mut queues[(id % 64) as usize];
            if next() % 3 == 0 {
                q.push_back(at);
            } else if let Some(x) = q.pop_front() {
                acc = acc.wrapping_add(x);
            }
            let slot = &mut self.table[((id.wrapping_mul(2_654_435_761) ^ at) % words) as usize];
            *slot = slot.wrapping_add(acc);
            acc = if *slot & 1 == 0 {
                acc ^ at
            } else {
                acc.rotate_left(3)
            };
            fel.push(Reverse((at + next() % 100_000, id)));
        }
        black_box(acc);
        t0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_step_is_scaled_by_the_mean_of_the_points_around_it() {
        let mut c = Calibrator::default();
        let before = c.point();
        assert!(before > 0.0 && before.is_finite());
        assert_eq!(c.last_point, Some(before));
        let scaled = c.scale(1.0);
        let after = c.last_point.expect("scale takes a point");
        let want = CAL_REFERENCE_S / ((before + after) / 2.0);
        assert!((scaled - want).abs() < 1e-12 * want);
    }
}
