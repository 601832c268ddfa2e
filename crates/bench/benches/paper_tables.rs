//! Table/figure regeneration benchmarks: one target per family of paper
//! results, each timing the full regeneration pipeline (compile → run →
//! derive rows) on a representative subset so `cargo bench` doubles as a
//! continuous check that every experiment still produces sane values.
//!
//! The full-suite regeneration lives in the `repro` binary
//! (`cargo run --release -p d16-bench --bin repro -- --all`), which also
//! emits the machine-readable `BENCH_repro.json` timing report.

use d16_bench::harness::bench;
use d16_core::{base_specs, experiments as ex, standard_specs, RunConfig, Suite};
use std::hint::black_box;

fn subset(names: &[&str], full_grid: bool) -> Suite {
    let ws: Vec<_> = names.iter().map(|n| d16_workloads::by_name(n).unwrap()).collect();
    let specs = if full_grid { standard_specs() } else { base_specs().to_vec() };
    Suite::collect(&ws, &specs, &RunConfig::default()).expect("collect")
}

/// Figures 4/5 and Tables 6/7: density and path length.
fn bench_density_and_path() {
    bench("fig4_fig5_density_path_subset", 10, || {
        let suite = subset(&["towers", "queens", "grep"], true);
        let density = ex::fig4_relative_density(&suite);
        let path = ex::fig5_path_length(&suite);
        assert!(ex::average(&density) > 1.0, "DLXe must be bigger");
        assert!(ex::average(&path) < 1.0, "DLXe path must be shorter");
        black_box((density, path))
    });
}

/// Figures 6-12, Tables 3/5: the feature-ablation grid.
fn bench_feature_grid() {
    bench("feature_grid_subset", 10, || {
        let suite = subset(&["bubblesort", "dhrystone"], true);
        let size = ex::code_size_grid(&suite);
        let path = ex::path_length_grid(&suite);
        let traffic = ex::table3_data_traffic(&suite);
        black_box((size, path, traffic))
    });
}

/// Figures 14/15, Tables 11/12: the cacheless memory sweep.
fn bench_cacheless() {
    bench("cacheless_cpi_subset", 10, || {
        let suite = subset(&["pi", "towers"], false);
        let f14 = ex::fig14_cacheless_cpi(&suite, 4);
        let f15 = ex::fig15_fetch_saturation(&suite, 4);
        let t11 = ex::table11_12_cycle_ratios(&suite, 4);
        // Nonzero latency must erode the DLXe advantage.
        assert!(t11.iter().all(|r| r.ratios[3] > r.ratios[0]));
        black_box((f14, f15, t11))
    });
}

/// Figures 16-19, Tables 13-16: the cache experiments. All four families
/// extract from the suite's memoized single-pass grid replay, so this
/// also times the `CacheBank` path.
fn bench_cache_experiments() {
    bench("cache_experiments_assem", 10, || {
        let suite = subset(&["assem"], true);
        let f16 = ex::fig16_icache_miss(&suite, "assem").expect("fig16");
        let f17 = ex::fig17_18_cache_cpi(&suite, "assem", 4096).expect("fig17/18");
        let f19 = ex::fig19_cache_traffic(&suite, "assem").expect("fig19");
        let grid = ex::miss_rate_grid(&suite, "assem").expect("grid");
        black_box((f16, f17, f19, grid))
    });
}

fn main() {
    bench_density_and_path();
    bench_feature_grid();
    bench_cacheless();
    bench_cache_experiments();
}
