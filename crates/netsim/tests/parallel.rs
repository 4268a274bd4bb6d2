//! Differential tests for the sharded conservative runner (DESIGN.md §8):
//! `sim_threads(n)` must reproduce the sequential run byte-for-byte —
//! every record, counter, trace, and fault interaction — for any `n`,
//! under either partition strategy, across all marking schemes and with
//! fault schedules attached.
//!
//! Byte equality alone would pass if every sharded run were thrown away
//! and rerun sequentially, so each case also reads the run's
//! [`LpRunProfile`]: the exact count of ambiguous same-instant ties it
//! hit (which decides whether the sharded result is kept) and the
//! fallback reason. The expected counts pin the FEL's keyed tie order —
//! a change that reorders ties moves them.

use pmsb_netsim::experiment::{
    Experiment, FaultSchedule, FlowDesc, MarkingConfig, PartitionStrategy, RunResults, TraceConfig,
};
use pmsb_simcore::{last_run_profile, publish_run_profile, LpRunProfile};
use pmsb_workload::{PatternSpec, SizeDistSpec};

/// The sharded cases of one experiment, in the order
/// [`run_sharded_cases`] runs them.
const CASES: [(PartitionStrategy, usize); 4] = [
    (PartitionStrategy::Contiguous, 2),
    (PartitionStrategy::Contiguous, 4),
    (PartitionStrategy::Traffic, 2),
    (PartitionStrategy::Traffic, 4),
];

/// Runs `mk()` at `sim_threads(t)` under partition `p`, after planting a
/// sentinel profile that the run must overwrite, and returns the result
/// with the profile the run published.
fn run_sharded(
    mk: impl Fn() -> Experiment,
    partition: PartitionStrategy,
    threads: usize,
    millis: u64,
) -> (RunResults, LpRunProfile) {
    publish_run_profile(LpRunProfile {
        fallback: Some("stale sentinel"),
        ..LpRunProfile::default()
    });
    let res = mk()
        .sim_threads(threads)
        .partition(partition)
        .run_for_millis(millis);
    let profile = last_run_profile();
    assert_ne!(
        profile.fallback,
        Some("stale sentinel"),
        "sim_threads({threads}) with {partition:?} left the previous profile in place"
    );
    (res, profile)
}

/// Checks a sharded run's profile against its expected ambiguous-tie
/// count; returns whether the sharded result was kept.
fn check_profile(
    label: &str,
    partition: PartitionStrategy,
    threads: usize,
    p: &LpRunProfile,
    expected_ties: u64,
) -> bool {
    assert_eq!(
        p.ambiguous_ties, expected_ties,
        "[{label}] sim_threads({threads}) with {partition:?}: ambiguous ties"
    );
    let kept = expected_ties == 0;
    let expected_fallback = (!kept).then_some("ambiguous same-instant ties");
    assert_eq!(
        p.fallback, expected_fallback,
        "[{label}] sim_threads({threads}) with {partition:?}: fallback"
    );
    assert!(p.windows > 0, "[{label}] the sharded attempt ran no window");
    kept
}

/// Canonical text form of everything a run observes; byte equality here
/// is the parallel-vs-sequential gate.
fn fingerprint(res: &RunResults) -> String {
    let mut out = String::new();
    for r in res.fct.records() {
        out.push_str(&format!(
            "fct {} {} {} {}\n",
            r.flow_id, r.bytes, r.start_nanos, r.end_nanos
        ));
    }
    out.push_str(&format!(
        "marks {} drops {} deliveries {} events {} end {}\n",
        res.marks, res.drops, res.deliveries, res.events, res.end_nanos
    ));
    let mut stats: Vec<_> = res.sender_stats.iter().collect();
    stats.sort_by_key(|(id, _)| **id);
    for (id, s) in stats {
        out.push_str(&format!("sender {id} {s:?}\n"));
    }
    let mut rtt: Vec<_> = res.rtt_nanos_by_flow.iter().collect();
    rtt.sort_by_key(|(id, _)| **id);
    for (id, samples) in rtt {
        out.push_str(&format!("rtt {id} {samples:?}\n"));
    }
    let mut traces: Vec<_> = res.port_traces.iter().collect();
    traces.sort_by_key(|(k, _)| **k);
    for (k, t) in traces {
        out.push_str(&format!("trace {k:?} {t:?}\n"));
    }
    if let Some(f) = &res.faults {
        out.push_str(&format!("faults {f:?}\n"));
    }
    if let Some(s) = &res.stream {
        // Everything except `slab_high_water`, which is documented as a
        // sum of per-LP peaks (an upper bound, not a shared observable).
        out.push_str(&format!(
            "stream {} {} {} {:?} {:?}\n",
            s.injected, s.completed, s.bytes_completed, s.agg_sender, s.sketch
        ));
    }
    out
}

/// A 2×2 leaf–spine (4 hosts per leaf) with deterministic cross- and
/// intra-leaf flows exercising ECMP, congestion, and queue diversity.
fn small_fabric(marking: MarkingConfig) -> Experiment {
    let mut e = Experiment::leaf_spine(2, 2, 4).marking(marking);
    // Cross-leaf incast onto host 7 plus reverse and intra-leaf traffic.
    e.add_flow(FlowDesc::bulk(0, 7, 0, 400_000));
    e.add_flow(FlowDesc::bulk(1, 7, 1, 300_000).starting_at(50_000));
    e.add_flow(FlowDesc::bulk(2, 7, 2, 200_000).starting_at(100_000));
    e.add_flow(FlowDesc::bulk(3, 6, 3, 250_000).starting_at(150_000));
    e.add_flow(FlowDesc::bulk(4, 1, 4, 350_000).starting_at(200_000));
    e.add_flow(FlowDesc::bulk(5, 0, 5, 150_000).starting_at(250_000));
    e.add_flow(FlowDesc::bulk(6, 2, 6, 100_000).starting_at(300_000));
    e.add_flow(FlowDesc::bulk(0, 4, 7, 50_000).starting_at(400_000));
    e.add_flow(FlowDesc::bulk(1, 2, 0, 80_000).starting_at(500_000)); // intra-leaf
    e.add_flow(FlowDesc::bulk(7, 3, 1, 120_000).starting_at(600_000));
    e
}

/// Runs every sharded case of `mk` against the sequential run, asserting
/// byte-identical results and the per-case ambiguous-tie counts
/// `expected_ties` (in [`CASES`] order). Returns how many cases kept
/// their sharded result.
fn assert_threads_match(
    label: &str,
    mk: impl Fn() -> Experiment,
    millis: u64,
    expected_ties: [u64; 4],
) -> usize {
    let sequential = fingerprint(&mk().run_for_millis(millis));
    let mut kept = 0;
    for ((partition, threads), ties) in CASES.into_iter().zip(expected_ties) {
        let (res, profile) = run_sharded(&mk, partition, threads, millis);
        let parallel = fingerprint(&res);
        if sequential != parallel {
            for (a, b) in sequential.lines().zip(parallel.lines()) {
                if a != b {
                    panic!(
                        "[{label}] sim_threads({threads}) with {partition:?} diverged:\nseq: {a}\npar: {b}"
                    );
                }
            }
            panic!(
                "[{label}] sim_threads({threads}) with {partition:?} diverged: line counts {} vs {}",
                sequential.lines().count(),
                parallel.lines().count()
            );
        }
        kept += usize::from(check_profile(label, partition, threads, &profile, ties));
    }
    kept
}

#[test]
fn all_marking_schemes_match_sequential() {
    // Expected ambiguous ties per scheme, in `CASES` order.
    let schemes = [
        (MarkingConfig::None, [20, 13, 297, 13]),
        (
            MarkingConfig::PerQueueStandard { threshold_pkts: 16 },
            [20, 13, 297, 13],
        ),
        (
            MarkingConfig::PerQueueFractional { total_pkts: 16 },
            [17, 17, 214, 17],
        ),
        (
            MarkingConfig::PerPort { threshold_pkts: 16 },
            [20, 13, 301, 13],
        ),
        (
            MarkingConfig::PerPool { threshold_pkts: 24 },
            [7, 0, 268, 0],
        ),
        (
            MarkingConfig::MqEcn { standard_pkts: 16 },
            [20, 13, 297, 13],
        ),
        (
            MarkingConfig::Tcn {
                threshold_nanos: 39_000,
            },
            [20, 13, 297, 13],
        ),
        (
            MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            },
            [17, 13, 266, 13],
        ),
        (
            MarkingConfig::Red {
                min_pkts: 5,
                max_pkts: 20,
                max_p: 0.8,
            },
            [17, 11, 261, 11],
        ),
    ];
    let mut kept = 0;
    for (marking, ties) in schemes {
        let label = format!("{marking:?}");
        kept += assert_threads_match(&label, || small_fabric(marking.clone()), 15, ties);
    }
    // Floor on sharded results actually kept: per-pool marking at four
    // LPs shards without a single ambiguous tie under both partitions.
    assert!(
        kept >= 2,
        "only {kept} of 36 sharded runs kept their result"
    );
}

#[test]
fn traces_and_rtt_match_sequential() {
    assert_threads_match(
        "traces",
        || {
            let mut t = TraceConfig::watch_port(0, 4, 50_000); // a leaf uplink
            t.watch_ports.push((2, 0)); // and a spine downlink
            small_fabric(MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            })
            .trace(t)
            .record_rtt()
        },
        15,
        [17, 13, 266, 13],
    );
}

/// The committed example schedule (an uplink flap plus steady random
/// loss on a second uplink) on the paper fabric: fault state, ECMP
/// rerouting, loss randomness, and recovery must all shard cleanly.
#[test]
fn uplink_flap_schedule_matches_sequential() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/uplink_flap.faults"
    ))
    .expect("committed example schedule");
    let schedule = FaultSchedule::parse(&text).expect("parses");
    let mk = move || {
        let mut e = Experiment::paper_leaf_spine()
            .marking(MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            })
            .faults(schedule.clone());
        // Long flows through leaf 0's uplinks spanning the 5–15 ms flap,
        // plus background cross-leaf traffic.
        for i in 0..12u64 {
            let src = (i % 12) as usize; // leaf 0 hosts
            let dst = 12 + ((i * 7) % 36) as usize; // other leaves
            e.add_flow(
                FlowDesc::bulk(src, dst, (i % 8) as usize, 600_000 + i * 40_000)
                    .starting_at(i * 300_000),
            );
        }
        for i in 0..6u64 {
            let src = 12 + (i * 5 % 36) as usize;
            let dst = (i % 12) as usize;
            e.add_flow(
                FlowDesc::bulk(src, dst, (i % 8) as usize, 300_000)
                    .starting_at(2_000_000 + i * 500_000),
            );
        }
        e
    };
    let sequential = mk().run_for_millis(30);
    assert!(
        sequential
            .faults
            .as_ref()
            .is_some_and(|f| f.link_down_events == 1 && f.link_up_events == 1),
        "flap must fire inside the horizon"
    );
    let sequential = fingerprint(&sequential);
    for ((partition, threads), ties) in CASES.into_iter().zip([67, 113, 74, 117]) {
        let (res, profile) = run_sharded(&mk, partition, threads, 30);
        assert_eq!(
            sequential,
            fingerprint(&res),
            "sim_threads({threads}) with {partition:?} diverged under the fault schedule"
        );
        check_profile("uplink flap", partition, threads, &profile, ties);
    }
}

/// The paper's §VI-B fabric (4 leaves × 4 spines, 48 hosts) under a
/// dense all-to-all-ish load — the shape of the large-scale benchmark
/// cell, shrunk to test scale. Eight switches give every partition
/// strategy real choices at 2 and 4 LPs.
#[test]
fn large_scale_fabric_matches_sequential() {
    let mk = || {
        let mut e = Experiment::paper_leaf_spine().marking(MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        });
        for i in 0..32u64 {
            let src = ((i * 5) % 48) as usize;
            let dst = ((i * 11 + 17) % 48) as usize;
            if src == dst {
                continue;
            }
            e.add_flow(
                FlowDesc::bulk(src, dst, (i % 8) as usize, 100_000 + i * 20_000)
                    .starting_at(i * 150_000),
            );
        }
        e
    };
    assert_threads_match("large scale", mk, 20, [35, 41, 30, 59]);
}

/// A k=8 fat-tree (80 switches, 128 hosts) driven by a streaming
/// shuffle with web-search sizes: the bounded-memory streaming path —
/// sender slab, completion sketch, aggregate counters — must shard as
/// cleanly as the static flow list, on a fabric deep enough that the
/// lookahead matrix has real multi-hop structure.
#[test]
fn fat_tree_streaming_matches_sequential() {
    let mk = || {
        Experiment::fat_tree(8)
            .marking(MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            })
            .stream(
                PatternSpec::sized(PatternSpec::shuffle(), SizeDistSpec::WebSearch),
                7,
                256,
            )
            .stream_record_exact()
    };
    assert_threads_match("fat-tree streaming", mk, 15, [1320, 1729, 1138, 982]);
}

/// A dumbbell has one switch: any thread count collapses to the
/// sequential path and still produces identical results.
#[test]
fn dumbbell_collapses_to_sequential() {
    let mk = || {
        let mut e = Experiment::dumbbell(3, 4).marking(MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        });
        e.add_flow(FlowDesc::bulk(0, 3, 0, 500_000));
        e.add_flow(FlowDesc::bulk(1, 3, 1, 500_000));
        e.add_flow(FlowDesc::bulk(2, 3, 2, 500_000));
        e
    };
    let sequential = fingerprint(&mk().run_for_millis(10));
    for (partition, threads) in CASES {
        let parallel = mk()
            .sim_threads(threads)
            .partition(partition)
            .run_for_millis(10);
        assert_eq!(sequential, fingerprint(&parallel));
    }
}

/// Zero-delay links leave no lookahead across a cut: the sharded runner
/// must fall back before running a window, and say so in the profile
/// instead of leaving the previous run's there.
#[test]
fn zero_delay_cut_falls_back_and_says_so() {
    let mk = || {
        small_fabric(MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        })
        .link_delay_nanos(0)
    };
    let sequential = fingerprint(&mk().run_for_millis(5));
    for (partition, threads) in CASES {
        let (res, profile) = run_sharded(mk, partition, threads, 5);
        assert_eq!(sequential, fingerprint(&res));
        assert_eq!(profile.fallback, Some("zero-delay cut link"));
        assert_eq!(profile.windows, 0);
        assert_eq!(profile.ambiguous_ties, 0);
    }
}
