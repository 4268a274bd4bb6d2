//! Packet-engine references for the fidelity metrics.
//!
//! The packet run of a cell costs up to ten times the regional run it
//! checks (the `fat_tree(16)` cell), so it is made once per
//! `(workload, flows, seed)` and stored: committed references (the
//! fidelity panel of every workload) live in `refs/`, references the
//! benchmark had to compute for a seed without one go to `refs/live/`
//! (ignored by git). A reference is a few `key value` lines.

use std::path::{Path, PathBuf};

use crate::cells::{Cell, Outcome};

/// The simulated figures a reference pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// Flows the packet run completed.
    pub completed: u64,
    /// Packet-engine median FCT, nanoseconds.
    pub fct_p50_ns: u64,
    /// Packet-engine 99th-percentile FCT, nanoseconds.
    pub fct_p99_ns: u64,
    /// Packet-engine CE marks.
    pub marks: u64,
}

impl Reference {
    /// The reference figures of a packet-engine outcome.
    pub fn from_outcome(o: &Outcome) -> Self {
        Reference {
            completed: o.completed,
            fct_p50_ns: o.fct_p50_ns,
            fct_p99_ns: o.fct_p99_ns,
            marks: o.marks,
        }
    }

    fn render(&self, cell: &Cell) -> String {
        format!(
            "# packet-engine reference: {} {} flows seed {}\n\
             completed {}\nfct_p50_ns {}\nfct_p99_ns {}\nmarks {}\n",
            cell.workload.name(),
            cell.flows,
            cell.seed,
            self.completed,
            self.fct_p50_ns,
            self.fct_p99_ns,
            self.marks
        )
    }

    fn parse(text: &str) -> Result<Self, String> {
        let field = |key: &str| -> Result<u64, String> {
            text.lines()
                .filter_map(|l| l.split_once(' '))
                .find(|(k, _)| *k == key)
                .ok_or_else(|| format!("reference lacks '{key}'"))?
                .1
                .trim()
                .parse()
                .map_err(|e| format!("reference '{key}': {e}"))
        };
        Ok(Reference {
            completed: field("completed")?,
            fct_p50_ns: field("fct_p50_ns")?,
            fct_p99_ns: field("fct_p99_ns")?,
            marks: field("marks")?,
        })
    }
}

/// Directory of the committed references.
pub fn committed_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("refs")
}

/// Directory of references computed on demand.
pub fn live_dir() -> PathBuf {
    committed_dir().join("live")
}

fn file_name(cell: &Cell) -> String {
    format!("{}-{}-{}.ref", cell.workload.name(), cell.flows, cell.seed)
}

/// Loads the reference of `cell` from `dir`, if one is stored there.
pub fn load(dir: &Path, cell: &Cell) -> Result<Option<Reference>, String> {
    let path = dir.join(file_name(cell));
    match std::fs::read_to_string(&path) {
        Ok(text) => Reference::parse(&text)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Stores the reference of `cell` in `dir`, creating the directory.
pub fn store(dir: &Path, cell: &Cell, r: &Reference) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file_name(cell));
    std::fs::write(&path, r.render(cell)).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::Workload;

    #[test]
    fn references_round_trip_through_a_directory() {
        let dir = std::env::temp_dir().join(format!("pmsb-perfbench-refs-{}", std::process::id()));
        let cell = Cell {
            workload: Workload::RegionalFattree16Mix,
            flows: 123,
            seed: 9,
        };
        assert_eq!(load(&dir, &cell).unwrap(), None);
        let r = Reference {
            completed: 123,
            fct_p50_ns: 45_183,
            fct_p99_ns: 1_069_055,
            marks: 158_481,
        };
        store(&dir, &cell, &r).unwrap();
        assert_eq!(load(&dir, &cell).unwrap(), Some(r));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_reference_missing_a_field_is_refused() {
        assert!(Reference::parse("completed 1\nfct_p50_ns 2\nmarks 3\n").is_err());
    }
}
