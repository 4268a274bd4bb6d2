//! The gated (untraced) run: set-up timing, repeated timed runs of one
//! cell, the correctness gate and the fidelity comparison.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pmsb_netsim::{EngineKind, RegionSpec};

use crate::calib::Calibrator;
use crate::cells::{Cell, Outcome, Workload};
use crate::refs::{self, Reference};
use crate::report::Report;
use crate::stats::{err_pct, incomplete_pct, median, peak_rss_mb};

/// Host time spent timing set-ups in one run.
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Minimum set-up blocks per run.
const SETUP_MIN_BLOCKS: usize = 5;

/// Set-ups are timed in blocks of at least this long, with a calibration
/// after each block (one set-up of the small cells takes well under 1 ms).
const SETUP_BLOCK: Duration = Duration::from_millis(50);

/// Minimum timed runs of the cell, so the repeat gate always has a pair
/// to compare.
pub const MIN_REPS: usize = 3;

/// Host seconds to scan the stream for its horizon, build the
/// experiment and run it to simulated t=0 (fabric, ECMP tables, FEL and
/// slab sizing, engine init).
pub fn time_setup(cell: &Cell) -> f64 {
    let t0 = Instant::now();
    let horizon = cell.horizon_nanos();
    let res = cell
        .experiment(cell.workload.engine(), RegionSpec::Auto, 1)
        .run_until_nanos(0);
    black_box((horizon, res.events));
    t0.elapsed().as_secs_f64()
}

/// `setup_s`: blocks of [`time_setup`] for [`SETUP_BUDGET`], each
/// block's median scaled by the calibration points around it; the median
/// over blocks, raw and calibrated.
pub fn setup_seconds(cell: &Cell, calibrator: &mut Calibrator) -> (f64, f64) {
    calibrator.point();
    let start = Instant::now();
    let mut raw = Vec::new();
    let mut scaled = Vec::new();
    while raw.len() < SETUP_MIN_BLOCKS || start.elapsed() < SETUP_BUDGET {
        let block_start = Instant::now();
        let mut block = Vec::new();
        while block.is_empty() || block_start.elapsed() < SETUP_BLOCK {
            block.push(time_setup(cell));
        }
        raw.push(median(&block));
        scaled.push(calibrator.scale(median(&block)));
    }
    (median(&raw), median(&scaled))
}

/// Runs `cell` on `engine` to its horizon once, returning the host
/// seconds of the run call and the simulated outcome.
pub fn run_cell(
    cell: &Cell,
    engine: EngineKind,
    region: RegionSpec,
    threads: usize,
) -> (f64, Outcome) {
    let horizon = cell.horizon_nanos();
    let e = cell.experiment(engine, region, threads);
    let t0 = Instant::now();
    let res = e.run_until_nanos(horizon);
    let wall = t0.elapsed().as_secs_f64();
    (wall, Outcome::from_results(&res))
}

/// What the timed loop measured.
#[derive(Debug, Clone)]
pub struct Timed {
    /// Host seconds of each run call.
    pub walls: Vec<f64>,
    /// The same, each scaled by the calibration points around it.
    pub scaled_walls: Vec<f64>,
    /// The outcome every repeat produced (the first one).
    pub outcome: Outcome,
    /// Repeats whose outcome differed from the first.
    pub mismatches: Vec<(usize, Outcome)>,
}

impl Timed {
    /// Completed flows per host second, median over the repeats.
    pub fn flows_per_s(&self) -> f64 {
        self.outcome.completed as f64 / median(&self.walls)
    }

    /// The same in calibrated seconds.
    pub fn scaled_flows_per_s(&self) -> f64 {
        self.outcome.completed as f64 / median(&self.scaled_walls)
    }
}

/// Runs `cell` on its own engine repeatedly until `budget` has passed
/// (and at least [`MIN_REPS`] times), with a calibration point before
/// the first run and after each run, checking that every repeat gives the
/// same simulated outcome.
pub fn timed_runs(cell: &Cell, budget: Duration, calibrator: &mut Calibrator) -> Timed {
    calibrator.point();
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut scaled_walls = Vec::new();
    let mut first: Option<Outcome> = None;
    let mut mismatches = Vec::new();
    while walls.len() < MIN_REPS || start.elapsed() < budget {
        let (wall, o) = run_cell(cell, cell.workload.engine(), RegionSpec::Auto, 1);
        scaled_walls.push(calibrator.scale(wall));
        walls.push(wall);
        match first {
            None => first = Some(o),
            Some(f) if f != o => mismatches.push((walls.len() - 1, o)),
            Some(_) => {}
        }
    }
    Timed {
        walls,
        scaled_walls,
        outcome: first.expect("at least one run"),
        mismatches,
    }
}

/// The gated run: every end-to-end metric of `BENCHMARK.json`, with
/// `seconds` of timed runs.
pub fn gated(cell: &Cell, seconds: u64) -> Report {
    // One untimed run first: it warms the caches and the allocator, and
    // the process high-water mark after it is the simulator's alone (the
    // calibrator's table and the side runs come later).
    let (_, warm) = run_cell(cell, cell.workload.engine(), RegionSpec::Auto, 1);
    let rss = peak_rss_mb();
    let mut calibrator = Calibrator::default();
    let (raw_setup_s, setup_s) = setup_seconds(cell, &mut calibrator);
    let timed = timed_runs(cell, Duration::from_secs(seconds), &mut calibrator);
    let o = timed.outcome;
    eprintln!(
        "raw host time: flows_per_s {:.1}, setup_s {raw_setup_s:.6}; calibrated: flows_per_s {:.1}, setup_s {setup_s:.6}",
        timed.flows_per_s(),
        timed.scaled_flows_per_s()
    );
    eprintln!(
        "{} seed {}: {} runs, walls {:?} s; completed {}/{} ({:.3}% incomplete), \
         p50 {} ns, p99 {} ns, marks {}, drops {}",
        cell.workload.name(),
        cell.seed,
        timed.walls.len(),
        timed.walls,
        o.completed,
        o.injected,
        incomplete_pct(o.injected, o.completed),
        o.fct_p50_ns,
        o.fct_p99_ns,
        o.marks,
        o.drops
    );
    let reps = timed.walls.len() as u64;
    let mut report = Report {
        correct: true,
        attempted: o.injected * reps,
        failed: o.injected.saturating_sub(o.completed) * reps,
        metrics: Vec::new(),
    };
    if warm != o {
        eprintln!("MISMATCH: the warm-up run differs: {warm:?} vs {o:?}");
        report.correct = false;
    }
    for (i, other) in &timed.mismatches {
        eprintln!("MISMATCH: repeat {i} of the same seed differs: {other:?} vs {o:?}");
        report.correct = false;
    }
    if o.injected != cell.flows {
        eprintln!(
            "MISMATCH: injected {} flows, expected {}",
            o.injected, cell.flows
        );
        report.correct = false;
    }
    report.push("flows_per_s", timed.scaled_flows_per_s(), "1/s");
    report.push("setup_s", setup_s, "s");
    match rss {
        Some(mb) => report.push("peak_rss_mb", mb, "MiB"),
        None => {
            eprintln!("peak_rss_mb: /proc/self/status has no VmHWM line");
            report.correct = false;
        }
    }
    match fidelity(cell, &o) {
        Ok((f, source)) => {
            eprintln!("fidelity reference: {source:?}");
            report.push("fct_p50_err_pct", f.fct_p50_err_pct, "%");
            report.push("fct_p99_err_pct", f.fct_p99_err_pct, "%");
            report.push("marks_err_pct", f.marks_err_pct, "%");
        }
        Err(e) => {
            eprintln!("no fidelity metrics: {e}");
            report.correct = false;
        }
    }
    report
}

/// The committed `experiments/hyperscale/records.jsonl` pmsb/shuffle row
/// (fat_tree(8), 20k flows, seed 42): the packet shuffle workload at that
/// size must reproduce it exactly.
pub const GOLDEN_SHUFFLE: Cell = Cell {
    workload: Workload::PacketFattree8Shuffle,
    flows: 20_000,
    seed: 42,
};

/// The figures of that row (FCTs in ns; the record prints them in µs
/// with three decimals).
const GOLDEN_SHUFFLE_ROW: [(&str, u64); 10] = [
    ("injected", 20_000),
    ("completed", 20_000),
    ("bytes_completed", 2_000_000_000),
    ("fct_p50_ns", 359_423),
    ("fct_p90_ns", 567_295),
    ("fct_p99_ns", 759_807),
    ("drops", 0),
    ("marks", 1_071_279),
    ("marks_seen", 1_071_279),
    ("marks_ignored", 0),
];

/// Runs [`GOLDEN_SHUFFLE`] and compares it with the committed row;
/// returns the differing fields.
pub fn check_golden() -> Vec<String> {
    let (_, o) = run_cell(&GOLDEN_SHUFFLE, EngineKind::Packet, RegionSpec::Auto, 1);
    let got = [
        o.injected,
        o.completed,
        o.bytes_completed,
        o.fct_p50_ns,
        o.fct_p90_ns,
        o.fct_p99_ns,
        o.drops,
        o.marks,
        o.marks_seen,
        o.marks_ignored,
    ];
    GOLDEN_SHUFFLE_ROW
        .iter()
        .zip(got)
        .filter(|((_, want), got)| want != got)
        .map(|((name, want), got)| format!("{name}: record {want}, run {got}"))
        .collect()
}

/// The three fidelity errors (`fct_p50`, `fct_p99`, `marks`), percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    /// Median-FCT error.
    pub fct_p50_err_pct: f64,
    /// Tail-FCT error.
    pub fct_p99_err_pct: f64,
    /// CE-mark count error.
    pub marks_err_pct: f64,
}

impl Fidelity {
    /// Errors of the regional engine's `engine` outcome against the
    /// packet engine's `reference`; `None` if a reference figure is 0.
    pub fn of(engine: &Outcome, reference: &Reference) -> Option<Self> {
        Some(Fidelity {
            fct_p50_err_pct: err_pct(engine.fct_p50_ns, reference.fct_p50_ns)?,
            fct_p99_err_pct: err_pct(engine.fct_p99_ns, reference.fct_p99_ns)?,
            marks_err_pct: err_pct(engine.marks, reference.marks)?,
        })
    }
}

/// Where a packet reference came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefSource {
    /// The packet run of this very process (packet workloads).
    ThisRun,
    /// A committed reference file.
    Committed,
    /// A reference an earlier run computed and stored.
    Stored,
    /// Computed now, because none was stored (and stored for next time).
    Computed,
}

/// The packet-engine reference of `cell`: committed, stored, or
/// computed now and stored.
pub fn packet_reference(cell: &Cell) -> Result<(Reference, RefSource), String> {
    if let Some(r) = refs::load(&refs::committed_dir(), cell)? {
        return Ok((r, RefSource::Committed));
    }
    if let Some(r) = refs::load(&refs::live_dir(), cell)? {
        return Ok((r, RefSource::Stored));
    }
    let (_, o) = run_cell(cell, EngineKind::Packet, RegionSpec::Auto, 1);
    let r = Reference::from_outcome(&o);
    refs::store(&refs::live_dir(), cell, &r)?;
    Ok((r, RefSource::Computed))
}

/// Seeds of the fidelity panel, whose packet references are committed
/// for every workload. The `*_err_pct` metrics are the mean over the
/// run's own cell and the cells of these seeds. The error of one cell
/// changes from seed to seed by more than a run-to-run bound allows (the
/// regional engine's whole FCT distribution on the regional workload
/// sits about 8 µs higher on some seeds than on others, so its median
/// error jumps between two values), while over the panel the run's own
/// seed weighs a ninth.
pub const FIDELITY_PANEL: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 42];

impl Fidelity {
    /// The mean of each error over `cells`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn mean(cells: &[Fidelity]) -> Self {
        assert!(!cells.is_empty(), "mean of no fidelity cells");
        let n = cells.len() as f64;
        let avg = |f: fn(&Fidelity) -> f64| cells.iter().map(f).sum::<f64>() / n;
        Fidelity {
            fct_p50_err_pct: avg(|f| f.fct_p50_err_pct),
            fct_p99_err_pct: avg(|f| f.fct_p99_err_pct),
            marks_err_pct: avg(|f| f.marks_err_pct),
        }
    }
}

/// The fidelity of one regional outcome against its packet reference,
/// refusing a pair whose completed-flow counts differ.
fn cell_fidelity(regional: &Outcome, reference: &Reference) -> Result<Fidelity, String> {
    if reference.completed != regional.completed {
        return Err(format!(
            "fidelity: packet completed {} flows, regional {}",
            reference.completed, regional.completed
        ));
    }
    Fidelity::of(regional, reference)
        .ok_or_else(|| "fidelity: a packet reference figure is 0; the error is undefined".into())
}

/// The fidelity of the regional engine on `cell`, against packet: the
/// mean over the run's own cell and the [`FIDELITY_PANEL`] cells.
///
/// On the run's own cell, for the regional workload `outcome` is the
/// regional side and the packet side is the stored reference; for the
/// packet workloads `outcome` is the packet side and the regional side is
/// run here. On a panel cell the packet side is its committed reference
/// and the regional side is an untimed run. The source returned is that
/// of the run's own cell.
pub fn fidelity(cell: &Cell, outcome: &Outcome) -> Result<(Fidelity, RefSource), String> {
    let (own, source) = match cell.workload {
        Workload::RegionalFattree16Mix => {
            let (reference, source) = packet_reference(cell)?;
            (cell_fidelity(outcome, &reference)?, source)
        }
        _ => {
            let (_, regional) = run_cell(cell, EngineKind::Regional, RegionSpec::Auto, 1);
            let reference = Reference::from_outcome(outcome);
            (cell_fidelity(&regional, &reference)?, RefSource::ThisRun)
        }
    };
    let mut cells = vec![own];
    for seed in FIDELITY_PANEL.into_iter().filter(|&s| s != cell.seed) {
        let panel = Cell { seed, ..*cell };
        let (reference, _) = packet_reference(&panel)?;
        let (_, regional) = run_cell(&panel, EngineKind::Regional, RegionSpec::Auto, 1);
        cells.push(cell_fidelity(&regional, &reference)?);
    }
    Ok((Fidelity::mean(&cells), source))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_is_relative_to_the_packet_reference() {
        let engine = Outcome {
            fct_p50_ns: 150,
            fct_p99_ns: 900,
            marks: 1_100,
            ..Outcome::default()
        };
        let reference = Reference {
            completed: 0,
            fct_p50_ns: 100,
            fct_p99_ns: 1_000,
            marks: 1_000,
        };
        let f = Fidelity::of(&engine, &reference).unwrap();
        assert_eq!(f.fct_p50_err_pct, 50.0);
        assert_eq!(f.fct_p99_err_pct, 10.0);
        assert!((f.marks_err_pct - 10.0).abs() < 1e-9);
        let zero = Reference {
            marks: 0,
            ..reference
        };
        assert_eq!(Fidelity::of(&engine, &zero), None);
    }

    #[test]
    fn the_panel_mean_averages_each_error() {
        let a = Fidelity {
            fct_p50_err_pct: 20.0,
            fct_p99_err_pct: 10.0,
            marks_err_pct: 30.0,
        };
        let b = Fidelity {
            fct_p50_err_pct: 40.0,
            fct_p99_err_pct: 14.0,
            marks_err_pct: 36.0,
        };
        let m = Fidelity::mean(&[a, b, b, a]);
        assert_eq!(
            (m.fct_p50_err_pct, m.fct_p99_err_pct, m.marks_err_pct),
            (30.0, 12.0, 33.0)
        );
        assert_eq!(Fidelity::mean(&[a]), a);
    }
}
