//! Transcript golden for the transport endpoints.
//!
//! Drives one [`TransportSender`]/[`TransportReceiver`] pair through a
//! small deterministic loopback and records everything the endpoints
//! say: every emitted data segment (seq, len, CWR), every ACK
//! (cumulative edge, ECN-Echo), every timer arm (retransmission,
//! application resume, delayed-ACK flush), and the final
//! [`SenderStats`](pmsb_netsim::transport::SenderStats) and congestion
//! window. The grid is {DCTCP, DCTCP with the classic ECN response,
//! NewReno} × ACK coalescing {1, 4} × PMSB(e) {off, 50 µs} × path
//! {clean, every 8th data packet CE-marked, one dropped segment}.
//!
//! The loopback is a single FIFO bottleneck (2.5 Gbps, so the standing
//! queue pushes the RTT across the PMSB(e) threshold as the window
//! grows) followed by 5 µs of propagation each way; ACKs return
//! without queueing. The committed transcript pins the endpoints'
//! per-event behaviour byte for byte, so a refactor of the transport
//! state machines must reproduce it exactly. Regenerate deliberately
//! with
//! `UPDATE_GOLDEN=1 cargo test -p pmsb-netsim --test transport_transcript`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use pmsb_netsim::config::{EcnResponse, TransportConfig, TransportKind};
use pmsb_netsim::packet::{Packet, PacketKind};
use pmsb_netsim::transport::{
    Receiver as _, Sender as _, SenderOutput, TimerArm, TransportReceiver, TransportSender,
};

/// Segments per transfer.
const SEGMENTS: u64 = 96;
/// Bottleneck rate, bits per second.
const BOTTLENECK_BPS: u64 = 2_500_000_000;
/// One-way propagation delay, nanoseconds.
const PROP_NANOS: u64 = 5_000;
/// Simulated-time cap: every transfer must complete well before it.
const HORIZON_NANOS: u64 = 1_000_000_000;

#[derive(Clone, Copy, Debug)]
enum Path {
    Clean,
    /// Every 8th data packet through the bottleneck is CE-marked.
    MarkEvery8th,
    /// The 40th data packet through the bottleneck is lost.
    DropOne,
}

enum Ev {
    /// A data packet reaches the receiver.
    Data(Packet),
    /// An ACK reaches the sender.
    Ack(Packet),
    Rto(u64),
    AppResume(u64),
    Delack(u64),
}

struct Loopback {
    path: Path,
    now: u64,
    seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    events: Vec<Option<Ev>>,
    link_free_at: u64,
    through_bottleneck: u64,
    log: String,
}

impl Loopback {
    fn push(&mut self, at: u64, ev: Ev) {
        self.seq += 1;
        self.events.push(Some(ev));
        self.heap
            .push(Reverse((at, self.seq, self.events.len() - 1)));
    }

    fn arm(&mut self, tag: char, arm: Option<TimerArm>, ev: fn(u64) -> Ev) {
        if let Some(a) = arm {
            writeln!(self.log, "{} {tag} {} {}", self.now, a.gen, a.at_nanos).unwrap();
            self.push(a.at_nanos, ev(a.gen));
        }
    }

    /// Logs a sender output and puts its packets on the wire.
    fn sent(&mut self, s: &mut TransportSender, mut out: SenderOutput) {
        for mut p in out.packets.drain(..) {
            let PacketKind::Data { seq, len } = p.kind else {
                panic!("sender emitted a non-data packet");
            };
            writeln!(self.log, "{} S {seq} {len} {}", self.now, p.cwr as u8).unwrap();
            self.through_bottleneck += 1;
            let n = self.through_bottleneck;
            let start = self.now.max(self.link_free_at);
            self.link_free_at = start + p.wire_bytes * 8 * 1_000_000_000 / BOTTLENECK_BPS;
            match self.path {
                Path::DropOne if n == 40 => continue,
                Path::MarkEvery8th if n.is_multiple_of(8) && p.ect => p.ce = true,
                _ => {}
            }
            let at = self.link_free_at + PROP_NANOS;
            self.push(at, Ev::Data(p));
        }
        self.arm('R', out.rto, Ev::Rto);
        self.arm('P', out.app_resume, Ev::AppResume);
        if out.completed {
            writeln!(self.log, "{} C", self.now).unwrap();
        }
        s.recycle(out.packets);
    }

    fn acked(&mut self, ack: Option<Packet>) {
        if let Some(a) = ack {
            let PacketKind::Ack { cum_ack, ece } = a.kind else {
                panic!("receiver emitted a non-ACK packet");
            };
            writeln!(self.log, "{} A {cum_ack} {}", self.now, ece as u8).unwrap();
            self.push(self.now + PROP_NANOS, Ev::Ack(a));
        }
    }
}

fn transcript(
    kind: TransportKind,
    response: EcnResponse,
    ack_every: u64,
    pmsbe: Option<u64>,
    path: Path,
) -> String {
    let cfg = TransportConfig {
        kind,
        ecn_response: response,
        init_cwnd_pkts: 4,
        ack_every_packets: ack_every,
        pmsbe_rtt_threshold_nanos: pmsbe,
        ..TransportConfig::default()
    };
    let mut s = TransportSender::new(1, 0, 1, 0, SEGMENTS * cfg.mss, None, 0, &cfg);
    let mut r = TransportReceiver::new(1, &cfg);
    let mut lb = Loopback {
        path,
        now: 0,
        seq: 0,
        heap: BinaryHeap::new(),
        events: Vec::new(),
        link_free_at: 0,
        through_bottleneck: 0,
        log: String::new(),
    };
    let out = s.start(0);
    lb.sent(&mut s, out);
    while let Some(Reverse((at, _, idx))) = lb.heap.pop() {
        if s.is_completed() {
            break;
        }
        assert!(at < HORIZON_NANOS, "transfer did not complete");
        lb.now = at;
        match lb.events[idx].take().expect("each event fires once") {
            Ev::Data(p) => {
                let out = r.on_data(&p, at);
                lb.acked(out.ack);
                lb.arm('D', out.delack, Ev::Delack);
            }
            Ev::Delack(gen) => {
                let ack = r.on_delack_timer(gen);
                lb.acked(ack);
            }
            Ev::Ack(a) => {
                let PacketKind::Ack { cum_ack, ece } = a.kind else {
                    unreachable!()
                };
                let out = s.on_ack(cum_ack, ece, a.sent_at_nanos, at);
                lb.sent(&mut s, out);
            }
            Ev::Rto(gen) => {
                let out = s.on_rto(gen, at);
                lb.sent(&mut s, out);
            }
            Ev::AppResume(gen) => {
                let out = s.on_app_resume(gen, at);
                lb.sent(&mut s, out);
            }
        }
    }
    assert!(s.is_completed(), "transfer did not complete");
    assert_eq!(r.rcv_nxt(), SEGMENTS * cfg.mss);
    let st = s.stats();
    writeln!(
        lb.log,
        "end cwnd={} marks_seen={} marks_ignored={} retransmissions={} timeouts={} \
         loss_episodes={} recovery_nanos={}",
        s.cwnd_bytes(),
        st.marks_seen,
        st.marks_ignored,
        st.retransmissions,
        st.timeouts,
        st.loss_episodes,
        st.recovery_nanos
    )
    .unwrap();
    lb.log
}

fn all_transcripts() -> String {
    let transports = [
        ("dctcp", TransportKind::Dctcp, EcnResponse::Dctcp),
        ("dctcp-classic", TransportKind::Dctcp, EcnResponse::Classic),
        ("newreno", TransportKind::NewReno, EcnResponse::Dctcp),
    ];
    let mut all = String::new();
    for (name, kind, response) in transports {
        for ack_every in [1, 4] {
            for pmsbe in [None, Some(50_000)] {
                for path in [Path::Clean, Path::MarkEvery8th, Path::DropOne] {
                    let pmsbe_name = pmsbe.map_or("off".to_string(), |t| format!("{t}ns"));
                    writeln!(
                        all,
                        "== {name} ack_every={ack_every} pmsbe={pmsbe_name} path={path:?}"
                    )
                    .unwrap();
                    all.push_str(&transcript(kind, response, ack_every, pmsbe, path));
                }
            }
        }
    }
    all
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("transport_transcripts.txt")
}

#[test]
fn endpoints_reproduce_the_committed_transcripts() {
    let produced = all_transcripts();
    let golden = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(golden.parent().unwrap()).unwrap();
        fs::write(&golden, &produced).unwrap();
        eprintln!("golden file updated: {}", golden.display());
        return;
    }
    let expected = fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", golden.display()));
    if produced != expected {
        let line = produced
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| produced.lines().count().min(expected.lines().count()));
        panic!(
            "transport transcripts diverged from the committed golden at line {}: \
             produced {:?}, expected {:?}",
            line + 1,
            produced.lines().nth(line),
            expected.lines().nth(line)
        );
    }
}

/// The grid must exercise what it names: PMSB(e) both honours and
/// ignores marks, the drop triggers recovery, and coalescing arms the
/// delayed-ACK timer.
#[test]
fn transcript_grid_covers_its_paths() {
    let marked = transcript(
        TransportKind::Dctcp,
        EcnResponse::Dctcp,
        1,
        Some(50_000),
        Path::MarkEvery8th,
    );
    let end = marked.lines().last().unwrap();
    assert!(!end.contains("marks_ignored=0 "), "{end}");
    assert!(!end.contains("marks_seen=0 "), "{end}");
    let seen: u64 = field(end, "marks_seen");
    let ignored: u64 = field(end, "marks_ignored");
    assert!(ignored < seen, "some marks must be honoured: {end}");
    for kind in [TransportKind::Dctcp, TransportKind::NewReno] {
        let dropped = transcript(kind, EcnResponse::Dctcp, 4, None, Path::DropOne);
        let end = dropped.lines().last().unwrap();
        assert!(field(end, "retransmissions") > 0, "{kind:?}: {end}");
        assert!(
            dropped.lines().any(|l| l.contains(" D ")),
            "{kind:?}: delack armed"
        );
    }
    let newreno = transcript(
        TransportKind::NewReno,
        EcnResponse::Dctcp,
        1,
        None,
        Path::MarkEvery8th,
    );
    assert!(
        newreno
            .lines()
            .any(|l| l.contains(" S ") && l.ends_with(" 1")),
        "CWR stamped"
    );
}

fn field(line: &str, name: &str) -> u64 {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
        .unwrap_or_else(|| panic!("no {name} in {line}"))
        .parse()
        .unwrap()
}
