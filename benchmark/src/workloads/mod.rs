//! The four workloads, in the order `BENCHMARK.json` lists them.

pub mod compile_cold;
pub mod reuse_disk;
pub mod serve_closed;
pub mod traffic_sim;

use std::path::Path;

use crate::harness::Workload;

/// Index of `compile-cold` in [`all`]: the workload whose plain/obs rounds
/// and verification a traced run always includes.
pub const COMPILE_COLD: usize = 0;

/// One instance of every workload, scripts shuffled by `seed`, temporary
/// files under `tmp`.
pub fn all(seed: u64, tmp: &Path) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(compile_cold::CompileCold::new(seed)),
        Box::new(reuse_disk::ReuseDisk::new(seed, tmp)),
        Box::new(serve_closed::ServeClosed::new(seed)),
        Box::new(traffic_sim::TrafficSim::new(seed)),
    ]
}
