//! Gates on the parallel experiment engine:
//!
//! * collection is byte-identical no matter how many worker threads run;
//! * the cache experiments sweep each recorded trace exactly once;
//! * the single-pass grid agrees bit-for-bit with dedicated per-config
//!   replays (the legacy path);
//! * the post-collection grid warm-up on the pool gives the same grids
//!   and telemetry for every `jobs`, and a grid raced by two threads is
//!   counted once.

use d16_core::{base_specs, experiments as ex, pool, standard_specs, RunConfig, Suite};
use d16_isa::Isa;
use d16_telemetry::Registry;
use d16_workloads::{by_name, Workload};
use std::sync::Barrier;

fn workloads(names: &[&str]) -> Vec<&'static Workload> {
    names.iter().map(|n| by_name(n).expect("workload")).collect()
}

fn on_jobs(jobs: usize) -> RunConfig {
    RunConfig { jobs, ..RunConfig::default() }
}

#[test]
fn parallel_collection_is_deterministic() {
    let ws = workloads(&["towers", "assem"]);
    let serial = Suite::collect(&ws, &standard_specs(), &on_jobs(1)).unwrap();
    let threaded = Suite::collect(&ws, &standard_specs(), &on_jobs(4)).unwrap();
    // Measurements carry no Eq impl; their Debug form is total, so a
    // byte-identical rendering means byte-identical cells.
    assert_eq!(format!("{:#?}", serial.cells), format!("{:#?}", threaded.cells));
    assert_eq!(serial.traces, threaded.traces, "recorded traces must not depend on jobs");
    assert_eq!(serial.cells.len(), ws.len() * standard_specs().len());
}

#[test]
fn oversubscribed_pool_is_harmless() {
    // More workers than work items: the pool clamps, and nothing is lost.
    let ws = workloads(&["towers"]);
    let suite = Suite::collect(&ws, &base_specs(), &on_jobs(64)).unwrap();
    assert_eq!(suite.cells.len(), 2);
}

#[test]
fn cache_experiments_replay_each_trace_once() {
    let ws = workloads(&["assem"]);
    let suite = Suite::collect(&ws, &base_specs(), &RunConfig::default()).unwrap();
    ex::fig16_icache_miss(&suite, "assem").unwrap();
    ex::fig17_18_cache_cpi(&suite, "assem", 4096).unwrap();
    ex::fig17_18_cache_cpi(&suite, "assem", 16384).unwrap();
    ex::fig19_cache_traffic(&suite, "assem").unwrap();
    ex::miss_rate_grid(&suite, "assem").unwrap();
    for isa in [Isa::D16, Isa::Dlxe] {
        assert_eq!(
            suite.try_trace("assem", isa).unwrap().replay_count(),
            1,
            "every figure and table must come out of one {isa:?} sweep"
        );
    }
}

#[test]
fn single_pass_grid_matches_legacy_replays() {
    let ws = workloads(&["assem"]);
    let suite = Suite::collect(&ws, &base_specs(), &RunConfig::default()).unwrap();
    for isa in [Isa::D16, Isa::Dlxe] {
        let grid = suite.cache_grid("assem", isa).unwrap();
        for (i, cfg) in ex::cache_grid_configs().iter().enumerate() {
            let solo = ex::replay_cache(&suite, "assem", isa, *cfg, *cfg).unwrap();
            assert_eq!(grid[i].icache(), solo.icache(), "{isa:?} config {cfg:?}");
            assert_eq!(grid[i].dcache(), solo.dcache(), "{isa:?} config {cfg:?}");
        }
    }
}

/// The deterministic projection of a registry: every counter, then
/// every span's count (durations are wall-clock).
fn deterministic(reg: &Registry) -> Vec<(String, u64)> {
    reg.counters()
        .map(|(k, v)| (k.to_string(), v))
        .chain(reg.spans().map(|(k, s)| (format!("span {k}"), s.count)))
        .collect()
}

#[test]
fn pooled_grid_warm_up_is_deterministic() {
    let ws = workloads(&["assem"]);
    let mut reference = None;
    for jobs in [1, 2, 4] {
        let suite = Suite::collect(&ws, &standard_specs(), &on_jobs(jobs)).unwrap();
        let keys = suite.grid_keys();
        assert_eq!(keys.len(), 2, "assem records D16 and DLXe traces");
        let grids = pool::map(&keys, jobs, |(w, isa)| suite.cache_grid(w, *isa).unwrap());
        let stats: Vec<_> =
            grids.iter().flat_map(|g| g.iter().map(|s| (*s.icache(), *s.dcache()))).collect();
        let tele = deterministic(&suite.telemetry());
        match &reference {
            None => reference = Some((stats, tele)),
            Some((s1, t1)) => {
                assert_eq!(&stats, s1, "grid stats at jobs {jobs} differ from jobs 1");
                assert_eq!(&tele, t1, "telemetry at jobs {jobs} differs from jobs 1");
            }
        }
    }
}

#[test]
fn racing_grid_sweeps_are_counted_once() {
    let ws = workloads(&["assem"]);
    let collected = Suite::collect(&ws, &base_specs(), &on_jobs(1)).unwrap();
    // Suites over the same cells and traces, each with an empty grid
    // memo and telemetry.
    let fresh = || {
        let mut s = Suite::default();
        s.cells = collected.cells.clone();
        s.traces = collected.traces.clone();
        s
    };
    let (serial, raced) = (fresh(), fresh());
    serial.cache_grid("assem", Isa::D16).unwrap();

    let start = Barrier::new(2);
    let grids: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    raced.cache_grid("assem", Isa::D16).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(std::sync::Arc::ptr_eq(&grids[0], &grids[1]), "both callers get the memoized grid");
    let tele = raced.telemetry();
    assert_eq!(tele.span("suite.cache_grid.sweep").map(|s| s.count), Some(1));
    assert_eq!(deterministic(&tele), deterministic(&serial.telemetry()));
}
