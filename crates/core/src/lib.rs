//! # d16-core — the paper's experiment harness
//!
//! Ties the whole reproduction together: compiles each Table 2 workload
//! with `d16-cc` for each target configuration, runs it on the `d16-sim`
//! pipeline, attaches the `d16-mem` memory models, and regenerates every
//! table and figure of *"16-Bit vs. 32-Bit Instructions for Pipelined
//! Microprocessors"* (see DESIGN.md §5 for the experiment index).
//!
//! ```no_run
//! use d16_core::{experiments, standard_specs, RunConfig, Suite};
//!
//! let workloads: Vec<_> = d16_workloads::SUITE.iter().collect();
//! let suite = Suite::collect(&workloads, &standard_specs(), &RunConfig::default())
//!     .expect("measure the grid");
//! let density = experiments::fig4_relative_density(&suite);
//! let avg = experiments::average(&density);
//! assert!(avg > 1.2, "DLXe binaries are bigger: {avg}");
//! ```

pub mod experiments;
pub mod measure;
pub mod pool;
pub mod report;
pub mod stored;
pub mod suite;

pub use d16_sim::{Engine, PipelineSpec, Predictor};
pub use measure::{build, measure, Grid, MeasureError, Measurement, RunConfig};
pub use suite::{base_specs, default_jobs, standard_specs, Skip, Suite, SuiteError};

#[cfg(test)]
mod tests {
    use super::*;
    use d16_isa::Isa;

    /// One compact integration pass over a fast subset of the suite:
    /// checks the headline shape of the paper's results.
    #[test]
    fn headline_shape_on_subset() {
        let names = ["ackermann", "towers", "queens"];
        let ws: Vec<_> = names.iter().map(|n| d16_workloads::by_name(n).unwrap()).collect();
        let suite = Suite::collect(&ws, &standard_specs(), &RunConfig::default()).unwrap();

        let density = experiments::fig4_relative_density(&suite);
        let d_avg = experiments::average(&density);
        assert!(d_avg > 1.2 && d_avg < 2.0, "density ratio {d_avg}");

        let path = experiments::fig5_path_length(&suite);
        let p_avg = experiments::average(&path);
        assert!(p_avg > 0.6 && p_avg <= 1.02, "path ratio {p_avg}");

        // Cacheless machine: with zero wait states DLXe (shorter path)
        // wins; with wait states the D16 traffic advantage pushes the
        // ratio up.
        let ratios = experiments::table11_12_cycle_ratios(&suite, 4);
        for r in &ratios {
            assert!(
                r.ratios[3] > r.ratios[0],
                "{}: wait states must favor D16: {:?}",
                r.workload,
                r.ratios
            );
        }
    }

    #[test]
    fn cache_replay_smoke() {
        let ws = [d16_workloads::by_name("assem").unwrap()];
        let suite = Suite::collect(&ws, &base_specs(), &RunConfig::default()).unwrap();
        let miss = experiments::fig16_icache_miss(&suite, "assem").unwrap();
        // Bigger caches never miss more; D16 misses at most as often as
        // DLXe at equal size (its working set is half the bytes).
        for pair in miss.windows(2) {
            assert!(pair[1].d16 <= pair[0].d16 + 1e-9);
            assert!(pair[1].dlxe <= pair[0].dlxe + 1e-9);
        }
        // D16's halved footprint wins on average and at the smallest size;
        // individual direct-mapped sizes can flip on conflict luck.
        let d16_mean: f64 = miss.iter().map(|p| p.d16).sum::<f64>() / miss.len() as f64;
        let dlxe_mean: f64 = miss.iter().map(|p| p.dlxe).sum::<f64>() / miss.len() as f64;
        assert!(d16_mean <= dlxe_mean + 1e-9, "{d16_mean} vs {dlxe_mean}");
        assert!(miss[0].d16 <= miss[0].dlxe + 1e-9, "1K: {} vs {}", miss[0].d16, miss[0].dlxe);
        let t = experiments::fig19_cache_traffic(&suite, "assem").unwrap();
        let t_d16: f64 = t.iter().map(|p| p.d16).sum();
        let t_dlxe: f64 = t.iter().map(|p| p.dlxe).sum();
        assert!(t_d16 <= t_dlxe + 1e-9, "D16 I-traffic should be lower overall");
        assert!(t[0].d16 <= t[0].dlxe + 1e-9, "1K traffic");
        assert_eq!(suite.grids.len(), 2, "assem sweeps one grid per unrestricted ISA");
        let _ = suite.cache_grid("assem", Isa::D16).unwrap();
    }
}
