//! `pmsb-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --make-ref --workload NAME --seed N
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --check-golden
//! ```
//!
//! The last stdout line is the JSON result. Exit codes: 0 success,
//! 1 a correctness check failed (the result line says `"correct": false`),
//! 2 bad arguments or an I/O error.

use std::process::ExitCode;

use pmsb_perfbench::cells::{Cell, Workload};
use pmsb_perfbench::{refs, run, trace};

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    make_ref: bool,
    check_golden: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: 10,
        trace: false,
        make_ref: false,
        check_golden: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--make-ref" => {
                a.make_ref = true;
                continue;
            }
            "--check-golden" => {
                a.check_golden = true;
                continue;
            }
            _ => {}
        }
        let value = it
            .next()
            .filter(|v| !v.starts_with("--"))
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(Workload::parse(value)?),
            "--seed" => a.seed = num(value)?,
            "--seconds" => a.seconds = num(value)?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn make_ref(cell: &Cell) -> Result<(), String> {
    let (_, o) = run::run_cell(cell, pmsb_netsim::EngineKind::Packet, Default::default(), 1);
    let path = refs::store(
        &refs::committed_dir(),
        cell,
        &refs::Reference::from_outcome(&o),
    )?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pmsb-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.check_golden {
        let diffs = run::check_golden();
        for d in &diffs {
            eprintln!("MISMATCH: {d}");
        }
        if diffs.is_empty() {
            eprintln!("the 20k-flow seed-42 shuffle cell reproduces the committed record");
            return ExitCode::SUCCESS;
        }
        return ExitCode::from(1);
    }
    let Some(workload) = args.workload else {
        eprintln!("pmsb-perfbench: --workload is required");
        return ExitCode::from(2);
    };
    if args.make_ref {
        return match make_ref(&Cell::bench(workload, args.seed)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("pmsb-perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let cell = Cell::bench(workload, args.seed);
    let report = if args.trace {
        trace::traced(&cell, args.seconds)
    } else {
        run::gated(&cell, args.seconds)
    };
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
