//! Same-machine benchmark of the PMSB simulator: three workloads, the
//! end-to-end metrics a user sees (host throughput, set-up time, memory,
//! fidelity against the packet engine) and a traced run that breaks the
//! host time down into the simulator's layers. See `README.md`.

pub mod calib;
pub mod cells;
pub mod refs;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
