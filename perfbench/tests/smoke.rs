//! Quick-size runs of every workload through the same code paths the
//! benchmark uses, and a check that the metric names the benchmark prints
//! are exactly the ones `BENCHMARK.json` declares.

use std::time::Duration;

use pmsb_netsim::{EngineKind, RegionSpec};
use pmsb_perfbench::calib::Calibrator;
use pmsb_perfbench::cells::{Cell, Workload, WORKLOADS};
use pmsb_perfbench::refs::Reference;
use pmsb_perfbench::run::{self, Fidelity};
use pmsb_perfbench::trace;

/// A cell small enough for a debug-build test.
fn quick(workload: Workload) -> Cell {
    let flows = match workload {
        Workload::PacketFattree8Shuffle => 128,
        Workload::RegionalFattree16Mix => 1_000,
        Workload::PacketIncastTinybufNewreno => 320,
    };
    Cell {
        workload,
        flows,
        seed: 3,
    }
}

/// The metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn every_workload_completes_and_repeats_exactly() {
    for w in WORKLOADS {
        let cell = quick(w);
        let timed = run::timed_runs(&cell, Duration::ZERO, &mut Calibrator::default());
        assert_eq!(timed.walls.len(), run::MIN_REPS, "{}", w.name());
        assert!(timed.mismatches.is_empty(), "{}: repeats differ", w.name());
        let o = timed.outcome;
        assert_eq!(o.injected, cell.flows, "{}", w.name());
        assert_eq!(
            o.completed,
            cell.flows,
            "{}: flows left incomplete",
            w.name()
        );
        assert!(timed.flows_per_s() > 0.0 && timed.flows_per_s().is_finite());
    }
}

#[test]
fn the_loss_path_is_exercised_only_by_the_tiny_buffer_cell() {
    let mut calibrator = Calibrator::default();
    let tiny = run::timed_runs(
        &quick(Workload::PacketIncastTinybufNewreno),
        Duration::ZERO,
        &mut calibrator,
    )
    .outcome;
    assert!(tiny.drops > 0 && tiny.timeouts > 0 && tiny.admit_rejects > 0);
    assert!(tiny.marks_ignored > 0, "the PMSB(e) filter must act");
    let shuffle = run::timed_runs(
        &quick(Workload::PacketFattree8Shuffle),
        Duration::ZERO,
        &mut calibrator,
    )
    .outcome;
    assert_eq!(
        (
            shuffle.drops,
            shuffle.admit_rejects,
            shuffle.pool_high_water_bytes
        ),
        (0, 0, 0)
    );
}

#[test]
fn fidelity_compares_the_regional_engine_with_packet() {
    for w in WORKLOADS {
        let cell = quick(w);
        let (_, packet) = run::run_cell(&cell, EngineKind::Packet, RegionSpec::Auto, 1);
        let (_, regional) = run::run_cell(&cell, EngineKind::Regional, RegionSpec::Auto, 1);
        let f =
            Fidelity::of(&regional, &Reference::from_outcome(&packet)).expect("nonzero reference");
        for e in [f.fct_p50_err_pct, f.fct_p99_err_pct, f.marks_err_pct] {
            assert!(e.is_finite() && e >= 0.0, "{}: {f:?}", w.name());
        }
        if w != Workload::RegionalFattree16Mix {
            // The benchmark's own path for the packet workloads is the
            // mean over this cell and the other panel cells.
            let mut cells = vec![f];
            for seed in run::FIDELITY_PANEL.into_iter().filter(|&s| s != cell.seed) {
                let panel = Cell { seed, ..cell };
                let (_, p) = run::run_cell(&panel, EngineKind::Packet, RegionSpec::Auto, 1);
                let (_, r) = run::run_cell(&panel, EngineKind::Regional, RegionSpec::Auto, 1);
                cells.push(Fidelity::of(&r, &Reference::from_outcome(&p)).expect("nonzero"));
            }
            let (g, _) = run::fidelity(&cell, &packet).expect("fidelity");
            let want = Fidelity::mean(&cells);
            for (got, want) in [
                (g.fct_p50_err_pct, want.fct_p50_err_pct),
                (g.fct_p99_err_pct, want.fct_p99_err_pct),
                (g.marks_err_pct, want.marks_err_pct),
            ] {
                assert!((got - want).abs() < 1e-9, "{}: {g:?} vs {want:?}", w.name());
            }
        }
    }
}

#[test]
fn the_gated_run_prints_exactly_the_declared_end_to_end_metrics() {
    let report = run::gated(&quick(Workload::PacketIncastTinybufNewreno), 0);
    assert!(report.correct);
    assert_eq!(report.failed, 0);
    let names: Vec<String> = report.metrics.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(names, declared("end_to_end"));
    assert!(report
        .metrics
        .iter()
        .all(|m| m.value > 0.0 && m.value.is_finite()));
}

#[test]
fn the_traced_run_prints_every_layer_and_shares_sum_to_at_most_one() {
    let report = trace::traced(&quick(Workload::PacketIncastTinybufNewreno), 0);
    assert!(report.correct);
    let names: Vec<String> = report.metrics.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(names, declared("per_layer"));
    let shares: f64 = report
        .metrics
        .iter()
        .filter(|m| m.name.ends_with(".share"))
        .map(|m| m.value)
        .sum();
    assert!(shares <= 1.0 + 1e-9, "shares sum to {shares}");
    let value = |name: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap()
            .value
    };
    // A packet workload leaves the flow-engine layers idle.
    assert_eq!(
        value("fluid.solver.share") + value("fluid.region.share"),
        0.0
    );
    assert!(value("buffer.share") > 0.0, "the dt:1 pool is on the path");
}
