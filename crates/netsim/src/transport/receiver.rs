//! The TCP receiver shared by every transport: reassembly, delayed
//! ACKs, and the transport's ECN-Echo rule.

use std::collections::BTreeMap;

use crate::config::{TransportConfig, TransportKind};
use crate::packet::{Packet, PacketKind};

use super::{Receiver, ReceiverOutput, TimerArm};

/// The receiver the simulator stores per flow: reassembles segments and
/// generates cumulative ACKs that echo the sender's timestamp (exact
/// per-ACK RTT) and carry ECN-Echo by the transport's rule.
///
/// * **DCTCP** echoes the CE codepoint of the latest data packet. Under
///   ACK coalescing (`ack_every > 1`) a change of CE state forces an
///   immediate ACK, so the sender's `alpha` estimate stays faithful.
/// * **NewReno** runs the RFC 3168 latch: once a CE-marked segment
///   arrives, every ACK carries ECN-Echo until a data segment with CWR
///   set is received. The latch survives coalescing, so a CE
///   transition does not force an ACK.
///
/// With `ack_every = 1` (the default) every data packet is ACKed
/// immediately. Otherwise an out-of-order arrival, a gap fill, the
/// coalescing quota or the flush timer force the ACK.
#[derive(Debug)]
pub struct TransportReceiver {
    flow_id: u64,
    kind: TransportKind,
    rcv_nxt: u64,
    /// Out-of-order intervals `start → end` beyond `rcv_nxt`.
    ooo: BTreeMap<u64, u64>,
    ce_received: u64,
    // Delayed-ACK state.
    ack_every: u64,
    delack_timeout_nanos: u64,
    pending: u64,
    /// ECN-Echo for the next ACK: the latest CE state under DCTCP, the
    /// RFC 3168 latch under NewReno.
    ece: bool,
    delack_gen: u64,
    /// Addressing/timestamp template from the latest data packet, for
    /// timer-generated ACKs: `(src, dst, service, sent_at)`.
    last_data: Option<(usize, usize, usize, u64)>,
}

impl TransportReceiver {
    /// Creates the receiver for `flow_id` with the ECN-Echo rule of
    /// [`TransportConfig::kind`], coalescing ACKs to one per
    /// [`TransportConfig::ack_every_packets`] data packets.
    ///
    /// # Panics
    ///
    /// Panics if `ack_every_packets` is zero.
    pub fn new(flow_id: u64, config: &TransportConfig) -> Self {
        assert!(config.ack_every_packets > 0, "ack_every must be at least 1");
        TransportReceiver {
            flow_id,
            kind: config.kind,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            ce_received: 0,
            ack_every: config.ack_every_packets,
            delack_timeout_nanos: config.delack_timeout_nanos,
            pending: 0,
            ece: false,
            delack_gen: 0,
            last_data: None,
        }
    }

    /// Data packets that arrived CE-marked.
    pub fn ce_received(&self) -> u64 {
        self.ce_received
    }

    /// Builds a cumulative ACK carrying the current ECN-Echo, consuming
    /// the pending count and invalidating any armed timer.
    fn make_ack(&mut self) -> Packet {
        self.pending = 0;
        self.delack_gen += 1;
        let (src, dst, service, sent_at) = self
            .last_data
            .expect("ACK generated before any data packet");
        // ACK travels dst -> src, echoing ECN and the timestamp.
        Packet::ack(
            self.flow_id,
            dst,
            src,
            service,
            self.rcv_nxt,
            self.ece,
            sent_at,
        )
    }
}

impl Receiver for TransportReceiver {
    /// # Panics
    ///
    /// Panics if the packet is not a data segment of this flow.
    fn on_data(&mut self, pkt: &Packet, now_nanos: u64) -> ReceiverOutput {
        assert_eq!(pkt.flow_id, self.flow_id, "packet for wrong flow");
        let PacketKind::Data { seq, len } = pkt.kind else {
            panic!("receiver got a non-data packet");
        };
        if pkt.ce {
            self.ce_received += 1;
        }
        let ce_changed = match self.kind {
            TransportKind::Dctcp => {
                let changed = pkt.ce != self.ece;
                self.ece = pkt.ce;
                changed
            }
            TransportKind::NewReno => {
                // CWR acknowledges the echo (clear first, so a segment
                // carrying both CWR and a fresh CE mark re-latches).
                self.ece = (self.ece && !pkt.cwr) || pkt.ce;
                false
            }
        };
        let in_order = seq == self.rcv_nxt;
        let had_gap = !self.ooo.is_empty();
        let end = seq + len;
        if end > self.rcv_nxt {
            // Record the new interval (may overlap existing ones).
            let entry = self.ooo.entry(seq.max(self.rcv_nxt)).or_insert(0);
            *entry = (*entry).max(end);
            // Advance rcv_nxt over any now-contiguous intervals.
            while let Some((&s, &e)) = self.ooo.first_key_value() {
                if s > self.rcv_nxt {
                    break;
                }
                self.rcv_nxt = self.rcv_nxt.max(e);
                self.ooo.pop_first();
            }
        }
        self.last_data = Some((pkt.src_host, pkt.dst_host, pkt.service, pkt.sent_at_nanos));
        self.pending += 1;
        // Immediate-ACK triggers: per-packet mode, coalescing quota
        // reached, a DCTCP CE transition, or anything that looks like
        // loss/reordering (dup, gap, or gap-fill) — those ACKs drive
        // fast retransmit and must not be delayed.
        let immediate = self.pending >= self.ack_every
            || ce_changed
            || !in_order
            || had_gap
            || !self.ooo.is_empty();
        if immediate {
            ReceiverOutput {
                ack: Some(self.make_ack()),
                delack: None,
            }
        } else {
            self.delack_gen += 1;
            ReceiverOutput {
                ack: None,
                delack: Some(TimerArm {
                    gen: self.delack_gen,
                    at_nanos: now_nanos + self.delack_timeout_nanos,
                }),
            }
        }
    }

    fn on_delack_timer(&mut self, gen: u64) -> Option<Packet> {
        if gen != self.delack_gen || self.pending == 0 {
            return None;
        }
        Some(self.make_ack())
    }

    fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::{ack_of, receiver};

    #[test]
    fn dctcp_delayed_acks_break_on_ce_state_change() {
        // The DCTCP ECE machine: a CE transition forces an immediate ACK
        // even mid-coalescing, in both directions.
        let mut r = receiver(TransportKind::Dctcp, 16);
        let unmarked = Packet::data(7, 0, 1, 0, 0, 1460, 0);
        assert!(r.on_data(&unmarked, 0).ack.is_none(), "coalesced");
        let mut marked = Packet::data(7, 0, 1, 0, 1460, 1460, 1);
        marked.ce = true;
        let ack = r.on_data(&marked, 1).ack.expect("CE 0->1 forces ACK");
        assert!(ack_of(&ack).1);
        let mut marked2 = Packet::data(7, 0, 1, 0, 2 * 1460, 1460, 2);
        marked2.ce = true;
        assert!(r.on_data(&marked2, 2).ack.is_none(), "steady CE: coalesced");
        let unmarked2 = Packet::data(7, 0, 1, 0, 3 * 1460, 1460, 3);
        let ack = r.on_data(&unmarked2, 3).ack.expect("CE 1->0 forces ACK");
        assert!(!ack_of(&ack).1);
    }

    #[test]
    fn newreno_latches_ece_until_cwr() {
        let mut r = receiver(TransportKind::NewReno, 1);
        let mut p0 = Packet::data(7, 0, 1, 0, 0, 1460, 0);
        p0.ce = true;
        let ack = r.on_data(&p0, 0).ack.unwrap();
        assert!(ack_of(&ack).1, "CE latches ECE");
        // An unmarked segment without CWR: the latch holds.
        let p1 = Packet::data(7, 0, 1, 0, 1460, 1460, 1);
        let ack = r.on_data(&p1, 1).ack.unwrap();
        assert!(ack_of(&ack).1, "latch holds until CWR");
        // CWR clears the latch.
        let mut p2 = Packet::data(7, 0, 1, 0, 2 * 1460, 1460, 2);
        p2.cwr = true;
        let ack = r.on_data(&p2, 2).ack.unwrap();
        assert!(!ack_of(&ack).1, "CWR clears the latch");
    }

    #[test]
    fn newreno_cwr_with_fresh_ce_relatches() {
        // A segment carrying both CWR and a new CE mark must leave the
        // latch set: the new mark happened after the sender reduced.
        let mut r = receiver(TransportKind::NewReno, 1);
        let mut p = Packet::data(7, 0, 1, 0, 0, 1460, 0);
        p.cwr = true;
        p.ce = true;
        let ack = r.on_data(&p, 0).ack.unwrap();
        assert!(ack_of(&ack).1, "fresh CE wins over CWR");
    }

    #[test]
    fn newreno_delayed_acks_preserve_the_latch() {
        // Coalescing must not lose the congestion signal: a CE mark on a
        // coalesced packet surfaces on the eventual cumulative ACK.
        let mut r = receiver(TransportKind::NewReno, 4);
        let mut p0 = Packet::data(7, 0, 1, 0, 0, 1460, 0);
        p0.ce = true;
        assert!(r.on_data(&p0, 0).ack.is_none(), "coalesced despite CE");
        for i in 1..3u64 {
            let p = Packet::data(7, 0, 1, 0, i * 1460, 1460, i);
            assert!(r.on_data(&p, i).ack.is_none());
        }
        let p3 = Packet::data(7, 0, 1, 0, 3 * 1460, 1460, 3);
        let ack = r.on_data(&p3, 3).ack.expect("quota reached");
        let (cum_ack, ece) = ack_of(&ack);
        assert_eq!(cum_ack, 4 * 1460);
        assert!(ece, "the latch must survive coalescing");
    }
}
