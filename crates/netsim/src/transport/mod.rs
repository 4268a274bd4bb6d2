//! Transport endpoints: the [`Sender`]/[`Receiver`] contract and the one
//! TCP core the simulator drives.
//!
//! The endpoints are pure state machines: methods consume events and
//! return [`SenderOutput`] describing packets to emit and timers to arm,
//! so every transport is unit-testable without the simulator.
//!
//! There is one sender, [`TransportSender`], and one receiver,
//! [`TransportReceiver`]. They share everything TCP-shaped: slow start,
//! congestion avoidance, fast retransmit with NewReno partial ACKs, RTO
//! with exponential backoff, RTT estimation, application pacing,
//! loss-episode accounting, reassembly and delayed ACKs. What differs
//! per [`TransportKind`](crate::config::TransportKind) lives in `cc.rs`:
//!
//! * **DCTCP** (Alizadeh et al.): per-window ECN fraction `alpha` with
//!   gentle multiplicative decrease; the receiver echoes per-packet CE
//!   and ACKs at once on a CE transition;
//! * **NewReno** with the classic RFC 3168 response: halve the window at
//!   most once per RTT on ECN-Echo and signal CWR; the receiver latches
//!   ECN-Echo until CWR arrives.
//!
//! The congestion control is an enum field, not a trait object, so the
//! per-event hot path stays monomorphic. The same module holds the
//! closed-form mark response the fluid and regional engines use, so the
//! packet and flow engines read one definition of each transport.
//!
//! **PMSB(e)** (Algorithm 2 of the paper) is an end-host rule about
//! *which marks to honour*, not a congestion-control algorithm. The
//! sender applies [`SelectiveBlindness`](pmsb::endpoint::SelectiveBlindness)
//! to the ECN-Echo flag (counting [`SenderStats::marks_seen`] and
//! [`SenderStats::marks_ignored`]) before congestion control sees the
//! ACK, so every transport gets selective blindness alike.

pub(crate) mod cc;
mod receiver;
mod sender;

pub use receiver::TransportReceiver;
pub use sender::TransportSender;

use crate::packet::Packet;

/// A timer (re)arm request: fire `RtoTimer`/`AppResume` with this
/// generation at the given absolute time. Stale generations are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerArm {
    /// Generation to match when the timer fires.
    pub gen: u64,
    /// Absolute deadline in nanoseconds.
    pub at_nanos: u64,
}

/// What a sender wants done after processing an event.
#[derive(Debug, Default)]
pub struct SenderOutput {
    /// Packets to hand to the host NIC.
    pub packets: Vec<Packet>,
    /// Rearm the retransmission timer (if `Some`).
    pub rto: Option<TimerArm>,
    /// Schedule an application-rate resume tick (if `Some`).
    pub app_resume: Option<TimerArm>,
    /// The flow just completed (all bytes acknowledged).
    pub completed: bool,
}

/// Counters the experiments report per flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// ECN-Echo marks seen on ACKs.
    pub marks_seen: u64,
    /// Marks ignored by the PMSB(e) rule.
    pub marks_ignored: u64,
    /// Segments retransmitted (fast retransmit + partial ACKs).
    pub retransmissions: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Loss episodes: contiguous stretches from a first loss signal
    /// (fast retransmit or RTO) until the window outstanding at that
    /// moment was fully acknowledged.
    pub loss_episodes: u64,
    /// Total nanoseconds spent inside loss episodes — the flow's
    /// recovery time under faults.
    pub recovery_nanos: u64,
}

/// What a receiver wants done after an event.
#[derive(Debug, Default)]
pub struct ReceiverOutput {
    /// ACK to send back, if any.
    pub ack: Option<Packet>,
    /// Arm the delayed-ACK flush timer (if `Some`).
    pub delack: Option<TimerArm>,
}

/// The sender half of a transport: a pure state machine consuming
/// ACK/timer events and emitting [`SenderOutput`].
///
/// Implementations must keep at most one live retransmission timer
/// generation (see [`Sender::rto_deadline`]) and treat stale generations
/// as no-ops, so a driver can coalesce timer events.
pub trait Sender {
    /// Begins transmission: the initial-window burst plus timers.
    fn start(&mut self, now_nanos: u64) -> SenderOutput;
    /// Processes a cumulative ACK (`cum_ack`, ECN-Echo `ece`, echoed
    /// send timestamp `echo_sent_at_nanos`) arriving at `now_nanos`.
    fn on_ack(
        &mut self,
        cum_ack: u64,
        ece: bool,
        echo_sent_at_nanos: u64,
        now_nanos: u64,
    ) -> SenderOutput;
    /// Handles a retransmission timeout with generation `gen`.
    fn on_rto(&mut self, gen: u64, now_nanos: u64) -> SenderOutput;
    /// Handles an application-rate resume tick with generation `gen`.
    fn on_app_resume(&mut self, gen: u64, now_nanos: u64) -> SenderOutput;
    /// The currently armed retransmission deadline, if any. Lets a
    /// driver keep a single outstanding timer event per flow: a stale
    /// fire consults this to re-arm at the live deadline instead of
    /// scheduling one event per ACK.
    fn rto_deadline(&self) -> Option<TimerArm>;
    /// Hands a drained [`SenderOutput::packets`] buffer back for reuse.
    fn recycle(&mut self, buf: Vec<Packet>);
    /// Turns on per-ACK RTT sampling (for the RTT-distribution figures).
    fn enable_rtt_trace(&mut self);
    /// Collected RTT samples in nanoseconds, if tracing was enabled.
    fn rtt_samples(&self) -> Option<&[u64]>;
    /// Per-flow counters.
    fn stats(&self) -> SenderStats;
    /// The flow identifier.
    fn flow_id(&self) -> u64;
    /// Total bytes this flow transfers (`u64::MAX` = unbounded).
    fn size_bytes(&self) -> u64;
    /// The flow's start time in nanoseconds.
    fn start_nanos(&self) -> u64;
    /// `true` once every byte has been acknowledged.
    fn is_completed(&self) -> bool;
    /// Current congestion window in bytes (for tests/diagnostics).
    fn cwnd_bytes(&self) -> f64;
}

/// The receiver half of a transport: reassembles segments and generates
/// cumulative ACKs with the transport's ECN-Echo semantics.
pub trait Receiver {
    /// Processes a data packet arriving at `now_nanos`; returns the ACK
    /// to send (if any) and a delayed-ACK timer to arm.
    fn on_data(&mut self, pkt: &Packet, now_nanos: u64) -> ReceiverOutput;
    /// Handles the delayed-ACK flush timer; emits the pending ACK if the
    /// generation is current and packets are still unacknowledged.
    fn on_delack_timer(&mut self, gen: u64) -> Option<Packet>;
    /// Highest in-order byte received so far.
    fn rcv_nxt(&self) -> u64;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{TransportConfig, TransportKind};
    use crate::packet::PacketKind;

    pub(crate) const KINDS: [TransportKind; 2] = [TransportKind::Dctcp, TransportKind::NewReno];

    /// A sender of `kind` with a 2-segment initial window.
    pub(crate) fn sender(kind: TransportKind, size_bytes: u64) -> TransportSender {
        let cfg = TransportConfig {
            kind,
            init_cwnd_pkts: 2,
            ..TransportConfig::default()
        };
        TransportSender::new(1, 0, 9, 0, size_bytes, None, 0, &cfg)
    }

    /// A receiver of `kind` for flow 7 that ACKs every `ack_every`
    /// packets.
    pub(crate) fn receiver(kind: TransportKind, ack_every: u64) -> TransportReceiver {
        let cfg = TransportConfig {
            kind,
            ack_every_packets: ack_every,
            ..TransportConfig::default()
        };
        TransportReceiver::new(7, &cfg)
    }

    /// The cumulative ACK edge and ECN-Echo flag of an ACK packet.
    pub(crate) fn ack_of(ack: &Packet) -> (u64, bool) {
        match ack.kind {
            PacketKind::Ack { cum_ack, ece } => (cum_ack, ece),
            _ => panic!("expected an ACK"),
        }
    }

    /// ACKs each segment of `packets` cumulatively at `now`, with
    /// ECN-Echo drawn from `ece`; returns the segments sent in reply.
    pub(crate) fn ack_window(
        s: &mut TransportSender,
        cum: &mut u64,
        packets: &[Packet],
        now: u64,
        mut ece: impl FnMut() -> bool,
    ) -> Vec<Packet> {
        let mut next = Vec::new();
        for p in packets {
            let PacketKind::Data { seq, len } = p.kind else {
                unreachable!()
            };
            *cum = (*cum).max(seq + len);
            next.extend(s.on_ack(*cum, ece(), p.sent_at_nanos, now).packets);
        }
        next
    }

    /// Starts `s` and runs `windows` unmarked round trips 100 µs apart;
    /// returns the next window, the ACK edge and the clock.
    pub(crate) fn grow(s: &mut TransportSender, windows: usize) -> (Vec<Packet>, u64, u64) {
        let mut packets = s.start(0).packets;
        let (mut cum, mut now) = (0, 100_000);
        for _ in 0..windows {
            packets = ack_window(s, &mut cum, &packets, now, || false);
            now += 100_000;
        }
        (packets, cum, now)
    }

    /// Drives sender + receiver back-to-back with a fixed one-way delay,
    /// CE-marking data packets per `marks`; returns the number of ACK
    /// round trips until completion.
    pub(crate) fn run_loopback(
        kind: TransportKind,
        mut s: TransportSender,
        mut marks: impl FnMut(u64) -> bool,
    ) -> u64 {
        let mut r = TransportReceiver::new(
            1,
            &TransportConfig {
                kind,
                ..TransportConfig::default()
            },
        );
        let mut now = 0u64;
        let mut in_flight: Vec<Packet> = s.start(now).packets;
        let mut rounds = 0;
        while !s.is_completed() {
            rounds += 1;
            assert!(rounds < 100_000, "transfer did not complete");
            now += 10_000; // 10 us one-way
            let mut acks = Vec::new();
            for mut p in in_flight.drain(..) {
                if p.ect && marks(now) {
                    p.ce = true;
                }
                acks.push(r.on_data(&p, now).ack.expect("per-packet ACKs"));
            }
            now += 10_000;
            let mut next = Vec::new();
            for a in acks {
                let (cum_ack, ece) = ack_of(&a);
                next.extend(s.on_ack(cum_ack, ece, a.sent_at_nanos, now).packets);
            }
            in_flight = next;
        }
        rounds
    }

    fn wrapped(kind: TransportKind, pmsbe: Option<u64>) -> TransportSender {
        let cfg = TransportConfig {
            kind,
            init_cwnd_pkts: 4,
            pmsbe_rtt_threshold_nanos: pmsbe,
            ..TransportConfig::default()
        };
        TransportSender::new(1, 0, 9, 0, u64::MAX / 2, None, 0, &cfg)
    }

    #[test]
    fn pmsbe_ignores_low_rtt_marks_for_any_transport() {
        for kind in KINDS {
            let mut s = wrapped(kind, Some(50_000));
            let out = s.start(0);
            let before = s.cwnd_bytes();
            let mut cum = 0;
            // All ACKs marked but RTT is only 20 us (< 50 us threshold):
            // PMSB(e) ignores every mark, so cwnd grows as if unmarked.
            for p in &out.packets {
                let PacketKind::Data { seq, len } = p.kind else {
                    unreachable!()
                };
                cum = cum.max(seq + len);
                s.on_ack(cum, true, p.sent_at_nanos, p.sent_at_nanos + 20_000);
            }
            assert!(s.cwnd_bytes() > before, "{kind:?}: marks must be ignored");
            assert_eq!(s.stats().marks_seen, 4, "{kind:?}");
            assert_eq!(s.stats().marks_ignored, 4, "{kind:?}");
        }
    }

    #[test]
    fn pmsbe_honours_high_rtt_marks_for_any_transport() {
        for kind in KINDS {
            let mut s = wrapped(kind, Some(50_000));
            let out = s.start(0);
            let before = s.cwnd_bytes();
            let mut cum = 0;
            for p in &out.packets {
                let PacketKind::Data { seq, len } = p.kind else {
                    unreachable!()
                };
                cum = cum.max(seq + len);
                // RTT 200 us >= threshold: honour.
                s.on_ack(cum, true, p.sent_at_nanos, p.sent_at_nanos + 200_000);
            }
            assert_eq!(s.stats().marks_ignored, 0, "{kind:?}");
            assert!(
                s.cwnd_bytes() <= before,
                "{kind:?}: an honoured mark must not grow the window"
            );
        }
    }

    #[test]
    fn pmsbe_disabled_counts_marks_but_ignores_none() {
        let mut s = wrapped(TransportKind::Dctcp, None);
        let out = s.start(0);
        let p = &out.packets[0];
        let PacketKind::Data { seq, len } = p.kind else {
            unreachable!()
        };
        s.on_ack(seq + len, true, p.sent_at_nanos, p.sent_at_nanos + 1_000);
        assert_eq!(s.stats().marks_seen, 1);
        assert_eq!(s.stats().marks_ignored, 0);
    }

    /// Senders and receivers live in a slab, one pair per live flow, so
    /// their size is the per-flow memory floor of the packet engine.
    #[test]
    fn endpoints_fit_their_slab_budget() {
        assert!(
            std::mem::size_of::<TransportSender>() <= 376,
            "TransportSender is {} bytes",
            std::mem::size_of::<TransportSender>()
        );
        assert!(
            std::mem::size_of::<TransportReceiver>() <= 152,
            "TransportReceiver is {} bytes",
            std::mem::size_of::<TransportReceiver>()
        );
    }

    /// Edge-case suite written against the [`Sender`] / [`Receiver`]
    /// traits, so every transport runs the same cases.
    mod shared_suite {
        use super::*;
        use crate::transport::TimerArm;

        #[test]
        fn initial_window_burst() {
            for kind in KINDS {
                let mut s = sender(kind, 100 * 1460);
                let out = s.start(0);
                assert_eq!(out.packets.len(), 2, "{kind:?}: init cwnd of 2 segments");
                assert!(out.rto.is_some(), "{kind:?}");
                assert!(!out.completed, "{kind:?}");
            }
        }

        #[test]
        fn completes_short_flow_in_loopback() {
            for kind in KINDS {
                let rounds = run_loopback(kind, sender(kind, 10 * 1460), |_| false);
                assert!(
                    rounds < 20,
                    "{kind:?}: 10 segments with doubling cwnd: few rounds"
                );
            }
        }

        #[test]
        fn completes_sub_mss_flow() {
            for kind in KINDS {
                run_loopback(kind, sender(kind, 500), |_| false);
            }
        }

        /// Every packet CE-marked: neither alpha-based backoff nor
        /// halving once per RTT ever deadlocks.
        #[test]
        fn completes_under_continuous_marking() {
            for kind in KINDS {
                run_loopback(kind, sender(kind, 50 * 1460), |_| true);
            }
        }

        #[test]
        fn slow_start_doubles_per_rtt() {
            for kind in KINDS {
                let mut s = sender(kind, u64::MAX / 2);
                let cfg_cwnd = s.cwnd_bytes();
                let out = s.start(0);
                // ACK the whole initial window: cwnd should double.
                ack_window(&mut s, &mut 0, &out.packets, 100_000, || false);
                assert!((s.cwnd_bytes() - 2.0 * cfg_cwnd).abs() < 1.0, "{kind:?}");
            }
        }

        #[test]
        fn triple_dupack_triggers_fast_retransmit() {
            for kind in KINDS {
                let mut s = sender(kind, u64::MAX / 2);
                let out = s.start(0);
                assert!(out.packets.len() >= 2, "{kind:?}");
                // First segment lost: receiver dup-ACKs at 0.
                let ts = out.packets[0].sent_at_nanos;
                assert!(s.on_ack(0, false, ts, 1000).packets.is_empty(), "{kind:?}");
                assert!(s.on_ack(0, false, ts, 1100).packets.is_empty(), "{kind:?}");
                let third = s.on_ack(0, false, ts, 1200);
                assert_eq!(
                    third.packets.len(),
                    1,
                    "{kind:?}: fast retransmit on 3rd dupack"
                );
                match third.packets[0].kind {
                    PacketKind::Data { seq, .. } => assert_eq!(seq, 0, "{kind:?}"),
                    _ => panic!("{kind:?}: expected data"),
                }
                assert_eq!(s.stats().retransmissions, 1, "{kind:?}");
            }
        }

        #[test]
        fn rto_fires_and_stale_timers_ignored() {
            for kind in KINDS {
                let mut s = sender(kind, u64::MAX / 2);
                let out = s.start(0);
                let arm = out.rto.unwrap();
                // A stale generation does nothing.
                assert!(
                    s.on_rto(arm.gen + 5, arm.at_nanos).packets.is_empty(),
                    "{kind:?}"
                );
                // The armed generation retransmits the head and re-arms.
                let fired = s.on_rto(arm.gen, arm.at_nanos);
                assert_eq!(fired.packets.len(), 1, "{kind:?}");
                assert!(fired.rto.is_some(), "{kind:?}");
                assert_eq!(s.stats().timeouts, 1, "{kind:?}");
                assert_eq!(
                    s.cwnd_bytes(),
                    1460.0,
                    "{kind:?}: RTO collapses cwnd to 1 MSS"
                );
            }
        }

        #[test]
        fn loss_episode_measures_recovery_time() {
            for kind in KINDS {
                let mut s = sender(kind, u64::MAX / 2);
                let out = s.start(0);
                assert_eq!(out.packets.len(), 2, "{kind:?}");
                let ts = out.packets[0].sent_at_nanos;
                // Head lost: the third dup ACK opens an episode at t=1200
                // with target snd_nxt = 2 segments.
                s.on_ack(0, false, ts, 1000);
                s.on_ack(0, false, ts, 1100);
                s.on_ack(0, false, ts, 1200);
                assert_eq!(s.stats().loss_episodes, 0, "{kind:?}: episode still open");
                // An RTO during the open episode must not restart the clock.
                let arm = s.rto_deadline().unwrap();
                s.on_rto(arm.gen, 10_000);
                // The cumulative ACK covering the outstanding window closes it.
                s.on_ack(2 * 1460, false, ts, 51_200);
                let st = s.stats();
                assert_eq!(st.loss_episodes, 1, "{kind:?}");
                assert_eq!(
                    st.recovery_nanos, 50_000,
                    "{kind:?}: measured from the first signal"
                );
                // Clean traffic afterwards opens no new episode.
                s.on_ack(3 * 1460, false, ts, 60_000);
                assert_eq!(s.stats().loss_episodes, 1, "{kind:?}");
            }
        }

        /// Drops every 50th data packet in a loopback; the transfer still
        /// completes through fast retransmit and timeouts.
        #[test]
        fn recovery_via_loss_in_loopback() {
            for kind in KINDS {
                let cfg = TransportConfig {
                    kind,
                    init_cwnd_pkts: 4,
                    ..TransportConfig::default()
                };
                let mut s = TransportSender::new(1, 0, 9, 0, 200 * 1460, None, 0, &cfg);
                let mut r = TransportReceiver::new(1, &cfg);
                let mut now = 0u64;
                let mut in_flight = s.start(now).packets;
                let mut counter = 0u64;
                let mut rto_arm: Option<TimerArm> = None;
                let mut iterations = 0;
                while !s.is_completed() {
                    iterations += 1;
                    assert!(iterations < 10_000, "{kind:?}: did not complete under loss");
                    now += 10_000;
                    let mut acks = Vec::new();
                    for p in in_flight.drain(..) {
                        counter += 1;
                        if counter.is_multiple_of(50) {
                            continue; // dropped
                        }
                        acks.push(r.on_data(&p, now).ack.expect("per-packet ACKs"));
                    }
                    now += 10_000;
                    let mut next = Vec::new();
                    if acks.is_empty() {
                        // Deliver an RTO if armed (simulating timer machinery).
                        if let Some(arm) = rto_arm.take() {
                            now = now.max(arm.at_nanos);
                            let out = s.on_rto(arm.gen, now);
                            next.extend(out.packets);
                            rto_arm = out.rto;
                        }
                    }
                    for a in acks {
                        let (cum_ack, ece) = ack_of(&a);
                        let out = s.on_ack(cum_ack, ece, a.sent_at_nanos, now);
                        next.extend(out.packets);
                        if out.rto.is_some() {
                            rto_arm = out.rto;
                        }
                    }
                    in_flight = next;
                }
                assert!(s.stats().retransmissions > 0, "{kind:?}");
                assert_eq!(r.rcv_nxt(), 200 * 1460, "{kind:?}");
            }
        }

        #[test]
        fn app_rate_limited_flow_paces() {
            for kind in KINDS {
                let cfg = TransportConfig {
                    kind,
                    ..TransportConfig::default()
                };
                // 1 Gbps app rate: one 1460-B segment every ~11.68 us.
                let mut s =
                    TransportSender::new(1, 0, 9, 0, u64::MAX / 2, Some(1_000_000_000), 0, &cfg);
                let out = s.start(0);
                // At t=0 no credit has accrued yet: nothing to send, but
                // an app-resume timer must be armed.
                assert!(out.packets.is_empty(), "{kind:?}");
                let arm = out.app_resume.expect("app resume timer");
                assert!(arm.at_nanos > 0, "{kind:?}");
                // At the resume tick one segment goes out.
                let out = s.on_app_resume(arm.gen, arm.at_nanos);
                assert_eq!(out.packets.len(), 1, "{kind:?}");
            }
        }

        /// Repeated timeouts back the RTO off exponentially, but the
        /// inter-fire gap is capped (backoff shift ≤ 10, deadline step
        /// ≤ 4 s), so a dead path never silences a flow for minutes.
        #[test]
        fn rto_backoff_reaches_a_ceiling() {
            for kind in KINDS {
                let mut s = sender(kind, u64::MAX / 2);
                let mut arm = s.start(0).rto.expect("initial window arms the timer");
                let mut gaps = Vec::new();
                for _ in 0..16 {
                    let now = arm.at_nanos;
                    let out = s.on_rto(arm.gen, now);
                    assert_eq!(out.packets.len(), 1, "{kind:?}: RTO retransmits the head");
                    let next = out.rto.expect("timer re-arms");
                    gaps.push(next.at_nanos - now);
                    arm = next;
                }
                for w in gaps.windows(2) {
                    assert!(w[1] >= w[0], "{kind:?}: backoff must not shrink: {gaps:?}");
                }
                assert!(
                    gaps.iter().all(|g| *g <= 4_000_000_000),
                    "{kind:?}: backoff ceiling 4s: {gaps:?}"
                );
                let last = *gaps.last().unwrap();
                assert_eq!(
                    last,
                    gaps[gaps.len() - 2],
                    "{kind:?}: the ceiling must hold steady: {gaps:?}"
                );
                assert_eq!(s.stats().timeouts, 16, "{kind:?}");
            }
        }

        /// Duplicate-ACK counting across a retransmitted segment: the
        /// third dup-ACK fast-retransmits once; further dup-ACKs during
        /// recovery never retransmit the head again, and the cumulative
        /// ACK covering the hole exits recovery cleanly.
        #[test]
        fn dup_acks_across_a_retransmitted_segment() {
            for kind in KINDS {
                let mut s = sender(kind, u64::MAX / 2);
                let out = s.start(0);
                assert_eq!(out.packets.len(), 2);
                let ts = out.packets[0].sent_at_nanos;
                assert!(s.on_ack(0, false, ts, 1_000).packets.is_empty(), "{kind:?}");
                assert!(s.on_ack(0, false, ts, 1_100).packets.is_empty(), "{kind:?}");
                let third = s.on_ack(0, false, ts, 1_200);
                assert_eq!(third.packets.len(), 1, "{kind:?}: fast retransmit");
                match third.packets[0].kind {
                    PacketKind::Data { seq, .. } => assert_eq!(seq, 0, "{kind:?}"),
                    _ => panic!("{kind:?}: expected data"),
                }
                assert_eq!(s.stats().retransmissions, 1, "{kind:?}");
                // Dup-ACKs keep arriving while the retransmit is in
                // flight: no second retransmission of the same head.
                for t in [1_300, 1_400, 1_500] {
                    assert!(
                        s.on_ack(0, false, ts, t).packets.is_empty(),
                        "{kind:?}: recovery absorbs further dup-ACKs"
                    );
                }
                assert_eq!(s.stats().retransmissions, 1, "{kind:?}");
                // The cumulative ACK for the whole outstanding window
                // (2 segments) exits recovery and resumes sending.
                let out = s.on_ack(2 * 1460, false, ts, 50_000);
                assert!(!out.packets.is_empty(), "{kind:?}: sending resumes");
                assert_eq!(s.stats().loss_episodes, 1, "{kind:?}: episode closed");
            }
        }

        #[test]
        fn receiver_reassembles_out_of_order() {
            for kind in KINDS {
                let mut r = receiver(kind, 1);
                let p2 = Packet::data(7, 0, 1, 0, 1460, 1460, 10);
                let ack = r.on_data(&p2, 10).ack.unwrap();
                assert_eq!(ack_of(&ack).0, 0, "{kind:?}: gap: dup ack at 0");
                let p1 = Packet::data(7, 0, 1, 0, 0, 1460, 20);
                let ack = r.on_data(&p1, 20).ack.unwrap();
                assert_eq!(ack_of(&ack).0, 2920, "{kind:?}: hole filled");
            }
        }

        #[test]
        fn receiver_echoes_ce_and_timestamp() {
            for kind in KINDS {
                let mut r = receiver(kind, 1);
                let mut p = Packet::data(7, 0, 1, 0, 0, 1460, 1234);
                p.ce = true;
                let ack = r.on_data(&p, 2000).ack.unwrap();
                assert_eq!(ack.sent_at_nanos, 1234, "{kind:?}");
                assert!(ack_of(&ack).1, "{kind:?}");
                assert_eq!(r.ce_received(), 1, "{kind:?}");
                // Reverse direction addressing.
                assert_eq!(ack.src_host, 1, "{kind:?}");
                assert_eq!(ack.dst_host, 0, "{kind:?}");
            }
        }

        #[test]
        fn delayed_acks_coalesce_and_flush_on_timer() {
            for kind in KINDS {
                let mut r = receiver(kind, 4);
                let mut last_arm = None;
                // Three in-order unmarked packets: no ACK yet, timer armed.
                for i in 0..3u64 {
                    let p = Packet::data(7, 0, 1, 0, i * 1460, 1460, i * 1000);
                    let out = r.on_data(&p, i * 1000);
                    assert!(out.ack.is_none(), "{kind:?}: packet {i} must be coalesced");
                    last_arm = out.delack;
                }
                // Fourth packet reaches the quota: immediate cumulative ACK.
                let p = Packet::data(7, 0, 1, 0, 3 * 1460, 1460, 3000);
                let ack = r.on_data(&p, 3000).ack.expect("quota reached");
                assert_eq!(ack_of(&ack).0, 4 * 1460, "{kind:?}");
                // The earlier timer is now stale.
                assert!(
                    r.on_delack_timer(last_arm.unwrap().gen).is_none(),
                    "{kind:?}"
                );
                // Two more packets, then the timer flushes them.
                r.on_data(&Packet::data(7, 0, 1, 0, 4 * 1460, 1460, 4000), 4000);
                let out = r.on_data(&Packet::data(7, 0, 1, 0, 5 * 1460, 1460, 5000), 5000);
                let arm = out.delack.expect("timer armed");
                let ack = r.on_delack_timer(arm.gen).expect("flush");
                assert_eq!(ack_of(&ack).0, 6 * 1460, "{kind:?}");
                // Nothing pending: a re-fired timer does nothing.
                assert!(r.on_delack_timer(arm.gen + 1).is_none(), "{kind:?}");
            }
        }

        #[test]
        fn delayed_acks_never_delay_dupacks() {
            for kind in KINDS {
                let mut r = receiver(kind, 16);
                // A gap: segment 1 missing; segment 2 arrives out of order.
                r.on_data(&Packet::data(7, 0, 1, 0, 0, 1460, 0), 0);
                let out = r.on_data(&Packet::data(7, 0, 1, 0, 2 * 1460, 1460, 1), 1);
                let ack = out.ack.expect("out-of-order arrival must ACK at once");
                assert_eq!(ack_of(&ack).0, 1460, "{kind:?}: dup ack");
            }
        }

        /// Delayed-ACK reassembly of out-of-order arrivals: a gap forces
        /// an immediate dup-ACK (never delayed), the fill ACKs the whole
        /// contiguous prefix immediately, and coalescing resumes after.
        #[test]
        fn delayed_acks_reassemble_out_of_order_arrivals() {
            for kind in KINDS {
                let mut r = receiver(kind, 4);
                // Segment 0 in order: coalesced, timer armed.
                let p0 = Packet::data(7, 0, 1, 0, 0, 1460, 0);
                let out = r.on_data(&p0, 0);
                assert!(out.ack.is_none(), "{kind:?}: in-order arrival coalesces");
                assert!(out.delack.is_some(), "{kind:?}");
                // Segment 2 arrives before segment 1: immediate dup-ACK.
                let p2 = Packet::data(7, 0, 1, 0, 2 * 1460, 1460, 10);
                let ack = r.on_data(&p2, 10).ack.expect("gap must ACK at once");
                assert_eq!(ack_of(&ack).0, 1460, "{kind:?}: dup-ACK at the hole");
                // The fill: cumulative ACK over the reassembled prefix.
                let p1 = Packet::data(7, 0, 1, 0, 1460, 1460, 20);
                let ack = r.on_data(&p1, 20).ack.expect("gap fill must ACK at once");
                assert_eq!(ack_of(&ack).0, 3 * 1460, "{kind:?}: hole filled");
                assert_eq!(r.rcv_nxt(), 3 * 1460, "{kind:?}");
                // Back in order: coalescing resumes, flush timer drains.
                let p3 = Packet::data(7, 0, 1, 0, 3 * 1460, 1460, 30);
                let out = r.on_data(&p3, 30);
                assert!(out.ack.is_none(), "{kind:?}: coalescing resumes");
                let arm = out.delack.expect("timer armed");
                let ack = r.on_delack_timer(arm.gen).expect("flush");
                assert_eq!(ack_of(&ack).0, 4 * 1460, "{kind:?}");
            }
        }

        /// A duplicate of an already-delivered segment still produces an
        /// immediate ACK at the current edge for both transports.
        #[test]
        fn duplicate_delivery_acks_at_the_edge() {
            for kind in KINDS {
                let mut r = receiver(kind, 1);
                let p = Packet::data(7, 0, 1, 0, 0, 1460, 0);
                r.on_data(&p, 0);
                let ack = r.on_data(&p, 1).ack.expect("per-packet ACKs");
                assert_eq!(ack_of(&ack).0, 1460, "{kind:?}");
                assert_eq!(r.rcv_nxt(), 1460, "{kind:?}");
            }
        }

        mod properties {
            use super::*;
            use pmsb_simcore::rng::SimRng;

            /// The receiver reassembles any arrival order of the segments
            /// of a transfer, including duplicates, to the exact length.
            #[test]
            fn receiver_reassembles_any_permutation() {
                for kind in KINDS {
                    let mut rng = SimRng::seed_from(0x7a);
                    for _ in 0..32 {
                        let mss = 1460u64;
                        let total = 20 * mss;
                        let mut r = receiver(kind, 1);
                        let mut delivered = [false; 20];
                        for _ in 0..(30 + rng.below(30)) {
                            let idx = rng.below(20);
                            delivered[idx] = true;
                            let p = Packet::data(7, 0, 1, 0, idx as u64 * mss, mss, 0);
                            r.on_data(&p, 0);
                        }
                        // Deliver whatever the random order missed, in order.
                        for (idx, seen) in delivered.iter().enumerate() {
                            if !seen {
                                let p = Packet::data(7, 0, 1, 0, idx as u64 * mss, mss, 0);
                                r.on_data(&p, 0);
                            }
                        }
                        assert_eq!(r.rcv_nxt(), total, "{kind:?}");
                    }
                }
            }

            /// Transfers complete in loopback under any deterministic
            /// periodic marking pattern.
            #[test]
            fn completes_under_any_periodic_marking() {
                for kind in KINDS {
                    let mut rng = SimRng::seed_from(0x7b);
                    for _ in 0..12 {
                        let period = 1 + rng.below(19) as u64;
                        let segs = 1 + rng.below(79) as u64;
                        let mut n = 0u64;
                        run_loopback(kind, sender(kind, segs * 1460), move |_| {
                            n += 1;
                            n.is_multiple_of(period)
                        });
                    }
                }
            }

            /// cwnd never decays below one MSS no matter the marking.
            #[test]
            fn cwnd_floor_is_one_mss() {
                for kind in KINDS {
                    let mut rng = SimRng::seed_from(0x7c);
                    for _ in 0..8 {
                        let marks: Vec<bool> = (0..(1 + rng.below(199)))
                            .map(|_| rng.below(2) == 1)
                            .collect();
                        let mut s = sender(kind, u64::MAX / 2);
                        let out = s.start(0);
                        let mut now = 100_000u64;
                        let mut cum = 0u64;
                        let mut packets = out.packets;
                        let mut it = marks.iter().cycle();
                        for _ in 0..30 {
                            let mut next = Vec::new();
                            for p in &packets {
                                let PacketKind::Data { seq, len } = p.kind else {
                                    unreachable!()
                                };
                                cum = cum.max(seq + len);
                                let ece = *it.next().unwrap();
                                next.extend(s.on_ack(cum, ece, p.sent_at_nanos, now).packets);
                                assert!(s.cwnd_bytes() >= 1460.0, "{kind:?}");
                            }
                            now += 100_000;
                            if next.is_empty() {
                                break;
                            }
                            packets = next;
                        }
                    }
                }
            }
        }
    }
}
