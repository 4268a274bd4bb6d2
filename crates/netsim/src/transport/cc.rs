//! Congestion control: how each transport answers a mark.
//!
//! This module is the one definition every engine reads:
//!
//! * [`CongestionControl`] is the per-flow state the packet engine's
//!   [`TransportSender`](super::TransportSender) carries beside its
//!   shared TCP machinery (slow start, loss recovery, RTO, pacing). Each
//!   method is a hook at one point where DCTCP and NewReno differ, and
//!   each is a `match` on the variant, so the ACK path stays
//!   monomorphic.
//! * The `impl TransportKind` block gives the flow-level engines the
//!   same answers in closed form: the steady-state marking curve and
//!   marked-path utilization the fluid engine solves against, and the
//!   per-window `alpha` gain and rate cut the regional engine's packet
//!   region applies.

use crate::config::{EcnResponse, TransportKind};

/// DCTCP's EWMA gain `g` for `alpha` (1/16, as in the DCTCP paper).
pub const DCTCP_G: f64 = 1.0 / 16.0;

/// `1/g`: the denominator of the regional engine's fixed-point `alpha`
/// update, derived from [`DCTCP_G`] so the packet and regional gains
/// cannot drift apart.
const DCTCP_G_INV: u64 = (1.0 / DCTCP_G) as u64;
const _: () = assert!(DCTCP_G * DCTCP_G_INV as f64 == 1.0, "g must be 1/integer");

/// The congestion-control state of one flow.
#[derive(Debug)]
pub(crate) enum CongestionControl {
    /// DCTCP: the marked fraction of each window folds into `alpha`, and
    /// a window with any mark ends in one cut of `cwnd·(1 − α/2)` (or a
    /// classic halving under [`EcnResponse::Classic`]).
    Dctcp {
        response: EcnResponse,
        alpha: f64,
        /// The observation window closes once the cumulative ACK reaches
        /// this sequence number (`snd_nxt` when the window opened).
        win_end: u64,
        acked_in_win: u64,
        marked_in_win: u64,
        /// A mark was honoured this window, so growth is suspended until
        /// the window closes (TCP CWR).
        cwr_this_win: bool,
    },
    /// NewReno with the RFC 3168 response: halve the window on
    /// ECN-Echo, at most once per round trip, and signal CWR.
    NewReno {
        /// The window was already reduced this round trip: while
        /// `snd_una < cwr_end` further ECN-Echo is ignored and growth
        /// stays suspended.
        cwr_end: u64,
        /// The next outgoing data segment carries CWR so the receiver
        /// stops echoing.
        signal_cwr: bool,
    },
}

impl CongestionControl {
    pub(crate) fn new(kind: TransportKind, response: EcnResponse) -> Self {
        match kind {
            TransportKind::Dctcp => CongestionControl::Dctcp {
                response,
                alpha: 0.0,
                win_end: 0,
                acked_in_win: 0,
                marked_in_win: 0,
                cwr_this_win: false,
            },
            TransportKind::NewReno => CongestionControl::NewReno {
                cwr_end: 0,
                signal_cwr: false,
            },
        }
    }

    /// Transmission began and `snd_nxt` bytes went out: DCTCP's first
    /// observation window covers the initial burst.
    pub(crate) fn on_start(&mut self, snd_nxt: u64) {
        if let CongestionControl::Dctcp { win_end, .. } = self {
            *win_end = snd_nxt;
        }
    }

    /// The RFC 3168 response, checked on every ACK (duplicates
    /// included) before the cumulative ACK is processed: `true` when
    /// NewReno must halve the window now. Loss recovery already reduced
    /// the window, so an echo during recovery adds nothing.
    pub(crate) fn halves_on_echo(
        &mut self,
        ece: bool,
        in_recovery: bool,
        snd_una: u64,
        snd_nxt: u64,
    ) -> bool {
        match self {
            CongestionControl::NewReno {
                cwr_end,
                signal_cwr,
            } if ece && !in_recovery && snd_una >= *cwr_end => {
                *cwr_end = snd_nxt;
                *signal_cwr = true;
                true
            }
            _ => false,
        }
    }

    /// Counts `newly` acknowledged bytes, marked if `ece`, into DCTCP's
    /// observation window.
    pub(crate) fn on_advance(&mut self, newly: u64, ece: bool) {
        if let CongestionControl::Dctcp {
            acked_in_win,
            marked_in_win,
            cwr_this_win,
            ..
        } = self
        {
            *acked_in_win += newly;
            if ece {
                *marked_in_win += newly;
                *cwr_this_win = true;
            }
        }
    }

    /// Whether window growth is suspended on an advancing ACK because
    /// the window was reduced this round trip. `reduced_now` is
    /// [`halves_on_echo`](Self::halves_on_echo)'s answer for the ACK.
    pub(crate) fn holds_growth(&self, reduced_now: bool, snd_una: u64) -> bool {
        match *self {
            CongestionControl::Dctcp { cwr_this_win, .. } => cwr_this_win,
            CongestionControl::NewReno { cwr_end, .. } => reduced_now || snd_una < cwr_end,
        }
    }

    /// Closes DCTCP's observation window once `cum_ack` reaches its end:
    /// folds the marked fraction into `alpha` and opens the next window
    /// at `snd_nxt`. Returns the multiplicative window cut when any byte
    /// of the closed window was marked.
    pub(crate) fn end_window(&mut self, cum_ack: u64, snd_nxt: u64) -> Option<f64> {
        let CongestionControl::Dctcp {
            response,
            alpha,
            win_end,
            acked_in_win,
            marked_in_win,
            cwr_this_win,
        } = self
        else {
            return None;
        };
        if cum_ack < *win_end {
            return None;
        }
        let mut cut = None;
        if *acked_in_win > 0 {
            let f = *marked_in_win as f64 / *acked_in_win as f64;
            *alpha = (1.0 - DCTCP_G) * *alpha + DCTCP_G * f;
            if *marked_in_win > 0 {
                cut = Some(match response {
                    EcnResponse::Dctcp => 1.0 - *alpha / 2.0,
                    EcnResponse::Classic => 0.5,
                });
            }
        }
        *win_end = snd_nxt;
        *acked_in_win = 0;
        *marked_in_win = 0;
        *cwr_this_win = false;
        cut
    }

    /// A loss response reduced the window for the data below `end`:
    /// NewReno ignores ECN-Echo for that data.
    pub(crate) fn on_loss_reduction(&mut self, end: u64) {
        if let CongestionControl::NewReno { cwr_end, .. } = self {
            *cwr_end = end;
        }
    }

    /// Takes the pending CWR signal for the next outgoing data segment,
    /// new or retransmitted.
    pub(crate) fn take_cwr(&mut self) -> bool {
        match self {
            CongestionControl::NewReno { signal_cwr, .. } => std::mem::take(signal_cwr),
            CongestionControl::Dctcp { .. } => false,
        }
    }
}

/// The flow-level engines' view of each transport's mark response.
impl TransportKind {
    /// The steady-state marking fraction (ppm) a congestion-controlled
    /// flow with window `w_pkts` settles at: DCTCP's fluid model gives
    /// `α ≈ √(2/W)`, NewReno's classic-ECN throughput relation gives
    /// `p ≈ 3/(2W²)`.
    pub(crate) fn steady_mark_ppm(self, w_pkts: u64) -> u64 {
        let w = w_pkts.max(1);
        match self {
            TransportKind::Dctcp => isqrt(2_000_000_000_000 / w).min(1_000_000),
            TransportKind::NewReno => (1_500_000 / (w.saturating_mul(w))).min(1_000_000),
        }
    }

    /// The rate a flow allocated `rate_bps` on a marking path actually
    /// sustains. DCTCP's proportional cut keeps the link full;
    /// NewReno's halve-on-mark sawtooth averages 3/4 of the allocated
    /// share (the window oscillates between W/2 and W).
    pub(crate) fn marked_rate_bps(self, rate_bps: u64) -> u64 {
        const NEWRENO_UTIL_PPM: u64 = 750_000;
        match self {
            TransportKind::Dctcp => rate_bps,
            TransportKind::NewReno => (rate_bps / 1_000_000 * NEWRENO_UTIL_PPM
                + rate_bps % 1_000_000 * NEWRENO_UTIL_PPM / 1_000_000)
                .max(1),
        }
    }

    /// The rate after one window that saw marks, with `alpha_ppm` the
    /// flow's DCTCP estimate after that window.
    pub(crate) fn cut_rate_bps(self, rate_bps: u64, alpha_ppm: u64) -> u64 {
        match self {
            TransportKind::Dctcp => {
                rate_bps.saturating_sub((rate_bps as u128 * alpha_ppm as u128 / 2_000_000) as u64)
            }
            TransportKind::NewReno => rate_bps / 2,
        }
    }
}

/// DCTCP's `alpha ← (1 − g)·alpha + g·F` in fixed point (ppm), for the
/// regional engine.
pub(crate) fn alpha_update_ppm(alpha_ppm: u64, frac_ppm: u64) -> u64 {
    (alpha_ppm * (DCTCP_G_INV - 1) + frac_ppm) / DCTCP_G_INV
}

/// Integer square root (floor).
fn isqrt(n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let mut x = (n as f64).sqrt() as u64;
    // Float seeding then exact fix-up keeps this deterministic.
    while x > 0 && x * x > n {
        x -= 1;
    }
    while (x + 1).saturating_mul(x + 1) <= n {
        x += 1;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isqrt_is_exact() {
        for n in [0u64, 1, 2, 3, 4, 15, 16, 17, 1_000_000, u32::MAX as u64] {
            let r = isqrt(n);
            assert!(r * r <= n);
            assert!((r + 1).saturating_mul(r + 1) > n);
        }
    }

    #[test]
    fn response_curves_are_monotone() {
        let mut prev = u64::MAX;
        for w in [1u64, 2, 4, 16, 64, 256, 1024] {
            let p = TransportKind::Dctcp.steady_mark_ppm(w);
            assert!(p <= prev, "DCTCP p must fall with W");
            prev = p;
        }
        assert!(
            TransportKind::NewReno.steady_mark_ppm(10) < TransportKind::Dctcp.steady_mark_ppm(10),
            "at equal W, NewReno needs far fewer marks than DCTCP"
        );
    }

    /// The regional engine's fixed-point update applies the packet
    /// sender's gain: `alpha_ppm ← (15·alpha_ppm + F_ppm) / 16`.
    #[test]
    fn regional_alpha_update_uses_the_packet_gain() {
        assert_eq!(DCTCP_G_INV, 16);
        for (alpha, frac) in [(0, 0), (0, 1_000_000), (500_000, 250_000), (999_999, 1)] {
            assert_eq!(alpha_update_ppm(alpha, frac), (alpha * 15 + frac) / 16);
        }
    }
}
