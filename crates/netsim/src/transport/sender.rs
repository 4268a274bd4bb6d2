//! The TCP sender state machine shared by every transport.
//!
//! One machine runs slow start, congestion avoidance, fast
//! retransmit/recovery on triple duplicate ACKs with NewReno partial
//! ACKs, RTO with exponential backoff, application pacing and
//! loss-episode accounting. Where DCTCP and NewReno differ — the
//! response to an honoured ECN-Echo and the CWR signal — it calls the
//! [`CongestionControl`] hooks. PMSB(e) filters the ECN-Echo flag before
//! either sees it.

use pmsb::endpoint::SelectiveBlindness;

use crate::config::TransportConfig;
use crate::packet::Packet;

use super::cc::CongestionControl;
use super::{Sender, SenderOutput, SenderStats, TimerArm};

/// The sender the simulator stores per flow.
///
/// [`Sender::on_ack`] applies the PMSB(e) rule (Algorithm 2) first: a
/// mark whose measured RTT is below the threshold is a victim of
/// per-port marking, not congestion, so its ECN-Echo flag is cleared
/// (and counted in [`SenderStats::marks_ignored`]) before congestion
/// control sees the ACK.
#[derive(Debug)]
pub struct TransportSender {
    // Identity.
    flow_id: u64,
    src_host: usize,
    dst_host: usize,
    service: usize,
    size_bytes: u64,
    app_rate_bps: Option<u64>,
    start_nanos: u64,
    // Configuration.
    mss: u64,
    rto_min_nanos: u64,
    max_cwnd: f64,
    pmsbe: Option<SelectiveBlindness>,
    // Congestion state (bytes).
    cwnd: f64,
    ssthresh: f64,
    snd_nxt: u64,
    snd_una: u64,
    dup_acks: u32,
    in_recovery: bool,
    recover: u64,
    /// Open loss episode, if any: `(start_nanos, target)` — closed (and
    /// counted into [`SenderStats`]) once `snd_una` reaches `target`.
    episode: Option<(u64, u64)>,
    cc: CongestionControl,
    // RTT estimation / RTO.
    srtt_nanos: Option<f64>,
    rttvar_nanos: f64,
    rto_nanos: u64,
    backoff: u32,
    rto_gen: u64,
    rto_armed: bool,
    rto_deadline_nanos: u64,
    app_gen: u64,
    completed: bool,
    // Optional RTT trace.
    rtt_samples: Option<Vec<u64>>,
    stats: SenderStats,
    /// Recycled packet buffer handed out through [`SenderOutput::packets`]
    /// and returned via [`Sender::recycle`], so the steady-state event
    /// path does not allocate per ACK.
    spare_buf: Vec<Packet>,
}

impl TransportSender {
    /// Creates the sender for a flow of `size_bytes` (use [`u64::MAX`]
    /// for a long-lived flow) starting at `start_nanos`, running the
    /// congestion control selected by [`TransportConfig::kind`].
    /// `app_rate_bps` caps the application's offered rate (the paper's
    /// "start a 5 Gbps TCP flow").
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        flow_id: u64,
        src_host: usize,
        dst_host: usize,
        service: usize,
        size_bytes: u64,
        app_rate_bps: Option<u64>,
        start_nanos: u64,
        config: &TransportConfig,
    ) -> Self {
        TransportSender {
            flow_id,
            src_host,
            dst_host,
            service,
            size_bytes,
            app_rate_bps,
            start_nanos,
            mss: config.mss,
            rto_min_nanos: config.rto_min_nanos,
            max_cwnd: config.max_cwnd_bytes.max(config.mss) as f64,
            pmsbe: config
                .pmsbe_rtt_threshold_nanos
                .map(SelectiveBlindness::new),
            cwnd: (config.init_cwnd_pkts * config.mss) as f64,
            ssthresh: f64::INFINITY,
            snd_nxt: 0,
            snd_una: 0,
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            episode: None,
            cc: CongestionControl::new(config.kind, config.ecn_response),
            srtt_nanos: None,
            rttvar_nanos: 0.0,
            rto_nanos: config.rto_init_nanos,
            backoff: 0,
            rto_gen: 0,
            rto_armed: false,
            rto_deadline_nanos: 0,
            app_gen: 0,
            completed: false,
            rtt_samples: None,
            stats: SenderStats::default(),
            spare_buf: Vec::new(),
        }
    }

    /// A fresh [`SenderOutput`] backed by the recycled packet buffer.
    fn new_output(&mut self) -> SenderOutput {
        SenderOutput {
            packets: std::mem::take(&mut self.spare_buf),
            ..SenderOutput::default()
        }
    }

    /// Bytes the application has made available by `now` (rate-limited
    /// sources accrue credit linearly; unbounded otherwise).
    fn app_allowed_bytes(&self, now_nanos: u64) -> u64 {
        match self.app_rate_bps {
            None => self.size_bytes,
            Some(rate) => {
                let elapsed = now_nanos.saturating_sub(self.start_nanos) as u128;
                let bytes = rate as u128 * elapsed / 8 / 1_000_000_000;
                (bytes.min(self.size_bytes as u128)) as u64
            }
        }
    }

    /// A data segment `[seq, seq + len)`, carrying CWR if a reduction is
    /// waiting to be signalled.
    fn segment(&mut self, seq: u64, len: u64, now_nanos: u64) -> Packet {
        let mut pkt = Packet::data(
            self.flow_id,
            self.src_host,
            self.dst_host,
            self.service,
            seq,
            len,
            now_nanos,
        );
        pkt.cwr = self.cc.take_cwr();
        pkt
    }

    /// Emits as many new full segments as the window and application
    /// allow; schedules an app-resume tick if the application is the
    /// binding constraint.
    fn emit_new(&mut self, now_nanos: u64, out: &mut SenderOutput) {
        let win_limit = self.snd_una + self.cwnd.min(self.max_cwnd) as u64;
        let app_limit = self.app_allowed_bytes(now_nanos);
        loop {
            let len = self.mss.min(self.size_bytes - self.snd_nxt);
            if len == 0 || self.snd_nxt + len > win_limit {
                return; // done, or window-limited (ACK clock will resume)
            }
            if self.snd_nxt + len > app_limit {
                break; // application-limited: need a timer
            }
            let pkt = self.segment(self.snd_nxt, len, now_nanos);
            out.packets.push(pkt);
            self.snd_nxt += len;
        }
        // Application-limited: wake when credit for one segment accrues.
        if let Some(rate) = self.app_rate_bps {
            let target = self.snd_nxt + self.mss.min(self.size_bytes - self.snd_nxt);
            let at =
                self.start_nanos + (target as u128 * 8 * 1_000_000_000 / rate as u128) as u64 + 1;
            self.app_gen += 1;
            out.app_resume = Some(TimerArm {
                gen: self.app_gen,
                at_nanos: at.max(now_nanos + 1),
            });
        }
    }

    /// Opens a loss episode at the first loss signal; a signal during an
    /// open episode extends nothing (the episode already covers it).
    fn begin_episode(&mut self, now_nanos: u64) {
        if self.episode.is_none() {
            self.episode = Some((now_nanos, self.snd_nxt));
        }
    }

    /// Halves the slow-start threshold (floor two segments): the
    /// multiplicative decrease of a loss or RFC 3168 response.
    fn halve_ssthresh(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0 * self.mss as f64);
    }

    /// Retransmits the segment at `snd_una`.
    fn retransmit_head(&mut self, now_nanos: u64, out: &mut SenderOutput) {
        let len = self.mss.min(self.size_bytes - self.snd_una);
        debug_assert!(len > 0, "retransmit with nothing outstanding");
        let pkt = self.segment(self.snd_una, len, now_nanos);
        out.packets.push(pkt);
        self.stats.retransmissions += 1;
    }

    fn update_rtt(&mut self, rtt_nanos: u64) {
        let r = rtt_nanos as f64;
        match self.srtt_nanos {
            None => {
                self.srtt_nanos = Some(r);
                self.rttvar_nanos = r / 2.0;
            }
            Some(srtt) => {
                self.rttvar_nanos = 0.75 * self.rttvar_nanos + 0.25 * (srtt - r).abs();
                self.srtt_nanos = Some(0.875 * srtt + 0.125 * r);
            }
        }
        let base = self.srtt_nanos.unwrap() + 4.0 * self.rttvar_nanos;
        self.rto_nanos = (base as u64).max(self.rto_min_nanos).min(1_000_000_000);
    }

    fn arm_rto(&mut self, now_nanos: u64, out: &mut SenderOutput) {
        self.rto_gen += 1;
        if self.snd_nxt == self.snd_una {
            // Nothing outstanding: no timer.
            self.rto_armed = false;
            return;
        }
        self.rto_armed = true;
        let deadline = now_nanos + (self.rto_nanos << self.backoff).min(4_000_000_000);
        self.rto_deadline_nanos = deadline;
        out.rto = Some(TimerArm {
            gen: self.rto_gen,
            at_nanos: deadline,
        });
    }

    fn cancel_timers(&mut self) {
        self.rto_gen += 1;
        self.rto_armed = false;
        self.app_gen += 1;
    }
}

impl Sender for TransportSender {
    fn start(&mut self, now_nanos: u64) -> SenderOutput {
        let mut out = self.new_output();
        self.emit_new(now_nanos, &mut out);
        self.cc.on_start(self.snd_nxt);
        self.arm_rto(now_nanos, &mut out);
        out
    }

    fn on_ack(
        &mut self,
        cum_ack: u64,
        mut ece: bool,
        echo_sent_at_nanos: u64,
        now_nanos: u64,
    ) -> SenderOutput {
        let mut out = self.new_output();
        if self.completed {
            return out;
        }
        // Exact per-ACK RTT from the timestamp echo.
        let rtt = now_nanos.saturating_sub(echo_sent_at_nanos);
        // PMSB(e), Algorithm 2: the RTT decides whether the mark is
        // honoured, independent of the congestion response.
        if ece {
            self.stats.marks_seen += 1;
            if self.pmsbe.is_some_and(|rule| rule.ignore_mark(true, rtt)) {
                ece = false;
                self.stats.marks_ignored += 1;
            }
        }
        self.update_rtt(rtt);
        if let Some(samples) = self.rtt_samples.as_mut() {
            samples.push(rtt);
        }
        let reduced_now = self
            .cc
            .halves_on_echo(ece, self.in_recovery, self.snd_una, self.snd_nxt);
        if reduced_now {
            self.halve_ssthresh();
            self.cwnd = self.ssthresh;
        }

        if cum_ack > self.snd_una {
            let newly = cum_ack - self.snd_una;
            self.snd_una = cum_ack;
            self.dup_acks = 0;
            self.backoff = 0;
            // Close the loss episode once the window outstanding at its
            // start is fully acknowledged: recovery is complete.
            if let Some((start, target)) = self.episode {
                if self.snd_una >= target {
                    self.stats.loss_episodes += 1;
                    self.stats.recovery_nanos += now_nanos.saturating_sub(start);
                    self.episode = None;
                }
            }
            self.cc.on_advance(newly, ece);
            if self.in_recovery {
                if self.snd_una >= self.recover {
                    self.in_recovery = false;
                    // Deflate to ssthresh after recovery.
                    self.cwnd = self.ssthresh.max(self.mss as f64);
                } else {
                    // NewReno partial ACK: the next segment is also lost.
                    self.retransmit_head(now_nanos, &mut out);
                }
            } else if self.cc.holds_growth(reduced_now, self.snd_una) {
                // CWR: the window was reduced this round trip; no growth
                // until it closes (one congestion response per RTT).
            } else if self.cwnd < self.ssthresh {
                self.cwnd += newly as f64; // slow start
            } else {
                self.cwnd += self.mss as f64 * newly as f64 / self.cwnd; // CA
            }
            self.cwnd = self.cwnd.min(self.max_cwnd);
            if let Some(cut) = self.cc.end_window(cum_ack, self.snd_nxt) {
                self.cwnd = (self.cwnd * cut).max(self.mss as f64);
                self.ssthresh = self.cwnd;
            }
            if self.snd_una >= self.size_bytes {
                self.completed = true;
                self.cancel_timers();
                out.completed = true;
                return out;
            }
            self.emit_new(now_nanos, &mut out);
            self.arm_rto(now_nanos, &mut out);
        } else {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == 3 && !self.in_recovery && self.snd_nxt > self.snd_una {
                self.in_recovery = true;
                self.recover = self.snd_nxt;
                self.begin_episode(now_nanos);
                self.halve_ssthresh();
                self.cwnd = self.ssthresh;
                // The loss reduction covers this window of data.
                self.cc.on_loss_reduction(self.recover);
                self.retransmit_head(now_nanos, &mut out);
                self.arm_rto(now_nanos, &mut out);
            }
        }
        out
    }

    fn on_rto(&mut self, gen: u64, now_nanos: u64) -> SenderOutput {
        let mut out = self.new_output();
        if self.completed || gen != self.rto_gen || !self.rto_armed {
            return out; // stale timer
        }
        self.stats.timeouts += 1;
        self.begin_episode(now_nanos);
        self.halve_ssthresh();
        self.cwnd = self.mss as f64;
        self.in_recovery = false;
        self.dup_acks = 0;
        // The collapse to one MSS is a reduction for this window too.
        self.cc.on_loss_reduction(self.snd_nxt);
        self.backoff = (self.backoff + 1).min(10);
        self.retransmit_head(now_nanos, &mut out);
        self.arm_rto(now_nanos, &mut out);
        out
    }

    fn on_app_resume(&mut self, gen: u64, now_nanos: u64) -> SenderOutput {
        let mut out = self.new_output();
        if self.completed || gen != self.app_gen {
            return out;
        }
        self.emit_new(now_nanos, &mut out);
        if self.snd_nxt > self.snd_una {
            self.arm_rto(now_nanos, &mut out);
        }
        out
    }

    fn rto_deadline(&self) -> Option<TimerArm> {
        (self.rto_armed && !self.completed).then_some(TimerArm {
            gen: self.rto_gen,
            at_nanos: self.rto_deadline_nanos,
        })
    }

    fn recycle(&mut self, mut buf: Vec<Packet>) {
        buf.clear();
        if buf.capacity() > self.spare_buf.capacity() {
            self.spare_buf = buf;
        }
    }

    fn enable_rtt_trace(&mut self) {
        self.rtt_samples = Some(Vec::new());
    }

    fn rtt_samples(&self) -> Option<&[u64]> {
        self.rtt_samples.as_deref()
    }

    fn stats(&self) -> SenderStats {
        self.stats
    }

    fn flow_id(&self) -> u64 {
        self.flow_id
    }

    fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    fn start_nanos(&self) -> u64 {
        self.start_nanos
    }

    fn is_completed(&self) -> bool {
        self.completed
    }

    fn cwnd_bytes(&self) -> f64 {
        self.cwnd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EcnResponse, TransportKind};
    use crate::packet::PacketKind;
    use crate::transport::tests::{ack_window, grow, sender};

    fn alpha(s: &TransportSender) -> f64 {
        match s.cc {
            CongestionControl::Dctcp { alpha, .. } => alpha,
            CongestionControl::NewReno { .. } => panic!("NewReno keeps no alpha"),
        }
    }

    mod dctcp {
        use super::*;

        fn dctcp(size: u64) -> TransportSender {
            sender(TransportKind::Dctcp, size)
        }

        #[test]
        fn alpha_rises_under_full_marking_and_decays_clean() {
            let mut s = dctcp(u64::MAX / 2);
            let mut packets = s.start(0).packets;
            let mut now = 100_000;
            let mut cum = 0u64;
            // Several fully-marked windows: alpha -> 1.
            for _ in 0..60 {
                packets = ack_window(&mut s, &mut cum, &packets, now, || true);
                now += 100_000;
                assert!(!packets.is_empty(), "window must never stall");
            }
            assert!(alpha(&s) > 0.5, "alpha {} should approach 1", alpha(&s));
            let alpha_hi = alpha(&s);
            // Unmarked windows: alpha decays geometrically.
            for _ in 0..40 {
                packets = ack_window(&mut s, &mut cum, &packets, now, || false);
                now += 100_000;
            }
            assert!(alpha(&s) < alpha_hi / 4.0, "alpha must decay");
        }

        #[test]
        fn marked_windows_shrink_cwnd_gently() {
            // With alpha small, DCTCP's cut is much gentler than halving.
            let mut s = dctcp(u64::MAX / 2);
            let (packets, mut cum, now) = grow(&mut s, 6);
            let before = s.cwnd_bytes();
            // One window with a single marked ACK.
            let mut marked_one = false;
            ack_window(&mut s, &mut cum, &packets, now, || {
                !std::mem::replace(&mut marked_one, true)
            });
            let after = s.cwnd_bytes();
            assert!(
                after < before * 1.01,
                "cwnd should not grow through a marked window"
            );
            assert!(
                after > before * 0.5,
                "DCTCP cut must be gentler than halving"
            );
        }

        #[test]
        fn classic_ecn_halves_where_dctcp_cuts_gently() {
            let respond = |resp: EcnResponse| -> f64 {
                let cfg = TransportConfig {
                    init_cwnd_pkts: 2,
                    ecn_response: resp,
                    ..TransportConfig::default()
                };
                let mut s = TransportSender::new(1, 0, 9, 0, u64::MAX / 2, None, 0, &cfg);
                // Grow unmarked for several windows.
                let (packets, mut cum, now) = grow(&mut s, 6);
                let before = s.cwnd_bytes();
                // One fully marked window.
                ack_window(&mut s, &mut cum, &packets, now, || true);
                s.cwnd_bytes() / before
            };
            let classic = respond(EcnResponse::Classic);
            let dctcp = respond(EcnResponse::Dctcp);
            assert!((classic - 0.5).abs() < 0.01, "classic ratio {classic}");
            assert!(dctcp > 0.9, "dctcp's first-window cut is gentle: {dctcp}");
        }

        /// Alpha stays a valid EWMA in [0, 1].
        #[test]
        fn alpha_stays_in_unit_interval() {
            let mut rng = pmsb_simcore::rng::SimRng::seed_from(0x7d);
            for _ in 0..8 {
                let marks: Vec<bool> = (0..(1 + rng.below(99)))
                    .map(|_| rng.below(2) == 1)
                    .collect();
                let mut s = dctcp(u64::MAX / 2);
                let out = s.start(0);
                let mut now = 100_000u64;
                let mut cum = 0u64;
                let mut packets = out.packets;
                let mut it = marks.iter().cycle();
                for _ in 0..20 {
                    let mut next = Vec::new();
                    for p in &packets {
                        let PacketKind::Data { seq, len } = p.kind else {
                            unreachable!()
                        };
                        cum = cum.max(seq + len);
                        next.extend(
                            s.on_ack(cum, *it.next().unwrap(), p.sent_at_nanos, now)
                                .packets,
                        );
                        assert!((0.0..=1.0).contains(&alpha(&s)));
                    }
                    now += 100_000;
                    packets = next;
                }
            }
        }
    }

    mod newreno {
        use super::*;

        fn newreno(size: u64) -> TransportSender {
            sender(TransportKind::NewReno, size)
        }

        #[test]
        fn ece_halves_cwnd_at_most_once_per_rtt() {
            let mut s = newreno(u64::MAX / 2);
            // Grow unmarked for several windows.
            let (packets, mut cum, now) = grow(&mut s, 6);
            let before = s.cwnd_bytes();
            assert!(packets.len() >= 4, "window should have opened up");
            // EVERY ACK of this window carries ECE: exactly one halving.
            ack_window(&mut s, &mut cum, &packets, now, || true);
            let ratio = s.cwnd_bytes() / before;
            assert!(
                (ratio - 0.5).abs() < 0.01,
                "one halving per RTT, got ratio {ratio}"
            );
        }

        #[test]
        fn second_rtt_with_ece_halves_again() {
            let mut s = newreno(u64::MAX / 2);
            let (mut packets, mut cum, mut now) = grow(&mut s, 6);
            let before = s.cwnd_bytes();
            // Two full marked round trips: two halvings compound.
            for _ in 0..2 {
                packets = ack_window(&mut s, &mut cum, &packets, now, || true);
                now += 100_000;
                assert!(!packets.is_empty(), "window must never stall");
            }
            let ratio = s.cwnd_bytes() / before;
            assert!(
                (0.2..=0.3).contains(&ratio),
                "two RTTs of marks halve twice, got ratio {ratio}"
            );
        }

        #[test]
        fn cwr_is_signalled_once_after_a_reduction() {
            let mut s = newreno(u64::MAX / 2);
            let out = s.start(0);
            let p = &out.packets[0];
            assert!(!p.cwr, "no reduction yet");
            let PacketKind::Data { seq, len } = p.kind else {
                unreachable!()
            };
            // A marked ACK triggers the halving; the next data segment must
            // carry CWR, and only that one.
            let out = s.on_ack(seq + len, true, p.sent_at_nanos, 100_000);
            let sent: Vec<bool> = out.packets.iter().map(|p| p.cwr).collect();
            assert!(!sent.is_empty(), "reduced window still sends");
            assert!(sent[0], "first segment after reduction carries CWR");
            assert!(
                sent[1..].iter().all(|c| !c),
                "CWR is a one-shot signal: {sent:?}"
            );
        }

        #[test]
        fn loss_reduction_suppresses_ece_for_the_same_window() {
            let mut s = newreno(u64::MAX / 2);
            let out = s.start(0);
            let ts = out.packets[0].sent_at_nanos;
            // Triple dup-ACK: fast retransmit halves the window.
            s.on_ack(0, false, ts, 1_000);
            s.on_ack(0, false, ts, 1_100);
            s.on_ack(0, false, ts, 1_200);
            let halved = s.cwnd_bytes();
            assert_eq!(s.stats().retransmissions, 1);
            // A marked partial/duplicate ACK inside the same window must not
            // halve again on top of the loss response.
            s.on_ack(0, true, ts, 1_300);
            assert_eq!(s.cwnd_bytes(), halved, "no double reduction");
        }

        #[test]
        fn ece_on_the_recovery_exit_ack_does_not_double_cut() {
            let mut s = newreno(u64::MAX / 2);
            let out = s.start(0);
            let ts = out.packets[0].sent_at_nanos;
            s.on_ack(0, false, ts, 1_000);
            s.on_ack(0, false, ts, 1_100);
            s.on_ack(0, false, ts, 1_200);
            let halved = s.cwnd_bytes();
            // The cumulative ACK that exits recovery carries ECE; the loss
            // reduction already covered this window of data.
            let out = s.on_ack(2 * 1460, true, ts, 50_000);
            assert!(!out.packets.is_empty(), "sending resumes after recovery");
            assert!(
                s.cwnd_bytes() >= halved * 0.99,
                "recovery exit must not halve again"
            );
        }
    }
}
