//! `btwc-e2e`: the closed-loop end-to-end benchmark of the BTWC decode
//! pipeline. `../README.md` describes the workloads, the metrics and
//! how they interact; `../../BENCHMARK.json` lists their names, units,
//! directions and bounds.

pub mod calibrate;
pub mod compare;
pub mod fleet;
pub mod json;
pub mod report;
pub mod run;
pub mod trace;
pub mod workload;
