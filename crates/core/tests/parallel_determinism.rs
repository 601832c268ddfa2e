//! Gates on the parallel experiment engine:
//!
//! * collection — cells, swept grids and deterministic telemetry — is
//!   identical no matter how many worker threads run;
//! * the grid a cell's run sweeps agrees bit-for-bit with the grid a
//!   recorded trace of a separate run replays into, and with a dedicated
//!   per-config replay of each member (the legacy path).

use d16_core::{base_specs, experiments as ex, standard_specs, RunConfig, Suite};
use d16_mem::{CacheBank, CacheStats, CacheSystem};
use d16_sim::{Machine, TraceRecorder};
use d16_telemetry::Registry;
use d16_workloads::{by_name, Workload};

fn workloads(names: &[&str]) -> Vec<&'static Workload> {
    names.iter().map(|n| by_name(n).expect("workload")).collect()
}

fn on_jobs(jobs: usize) -> RunConfig {
    RunConfig { jobs, ..RunConfig::default() }
}

/// The deterministic projection of a registry: every counter, then
/// every span's count (durations are wall-clock).
fn deterministic(reg: &Registry) -> Vec<(String, u64)> {
    reg.counters()
        .map(|(k, v)| (k.to_string(), v))
        .chain(reg.spans().map(|(k, s)| (format!("span {k}"), s.count)))
        .collect()
}

/// Every swept grid: its key, sweep counters and members' I/D statistics.
type GridStats = Vec<((String, String), Vec<u64>, Vec<(CacheStats, CacheStats)>)>;

fn grid_stats(suite: &Suite) -> GridStats {
    suite
        .grids
        .iter()
        .map(|(k, g)| {
            let members = g.systems.iter().map(|s| (*s.icache(), *s.dcache())).collect();
            (k.clone(), g.sweep.values().to_vec(), members)
        })
        .collect()
}

#[test]
fn parallel_collection_is_deterministic() {
    let ws = workloads(&["towers", "assem"]);
    let serial = Suite::collect(&ws, &standard_specs(), &on_jobs(1)).unwrap();
    assert_eq!(serial.cells.len(), ws.len() * standard_specs().len());
    assert_eq!(serial.grids.len(), 2, "assem sweeps D16 and DLXe grids");
    for jobs in [2, 4] {
        let threaded = Suite::collect(&ws, &standard_specs(), &on_jobs(jobs)).unwrap();
        // Measurements carry no Eq impl; their Debug form is total, so a
        // byte-identical rendering means byte-identical cells.
        assert_eq!(
            format!("{:#?}", serial.cells),
            format!("{:#?}", threaded.cells),
            "cells at jobs {jobs} differ from jobs 1"
        );
        assert_eq!(
            grid_stats(&serial),
            grid_stats(&threaded),
            "grids at jobs {jobs} differ from jobs 1"
        );
        assert_eq!(
            deterministic(serial.telemetry()),
            deterministic(threaded.telemetry()),
            "telemetry at jobs {jobs} differs from jobs 1"
        );
    }
}

#[test]
fn oversubscribed_pool_is_harmless() {
    // More workers than work items: the pool clamps, and nothing is lost.
    let ws = workloads(&["towers"]);
    let suite = Suite::collect(&ws, &base_specs(), &on_jobs(64)).unwrap();
    assert_eq!(suite.cells.len(), 2);
}

/// The stream-vs-trace oracle: the grid collection sweeps from a cell's
/// own run must equal (1) a fresh bank fed by replaying a trace recorded
/// in a separate run of the same image, sweep counters included, and
/// (2) a dedicated single-system replay of that trace per member.
#[test]
fn single_pass_grid_matches_legacy_replays() {
    let ws = workloads(&["assem", "ipl"]);
    let suite = Suite::collect(&ws, &base_specs(), &RunConfig::default()).unwrap();
    let configs = ex::cache_grid_configs();
    for w in &ws {
        for spec in base_specs() {
            let isa = spec.isa;
            let what = format!("({}, {})", w.name, spec.label());
            let streamed = &suite.grids[&(w.name.to_string(), isa.name().to_string())];
            assert_eq!(suite.cache_grid(w.name, isa).unwrap().len(), configs.len());

            let image = d16_core::build(w, &spec, None).unwrap();
            let mut trace = TraceRecorder::new();
            let fuel = d16_core::measure::FUEL;
            Machine::load(&image).run_with(d16_core::Engine::Interp, fuel, &mut trace).unwrap();
            let mut bank = CacheBank::symmetric(&configs).unwrap();
            trace.replay(&mut bank);
            assert_eq!(streamed.sweep.values(), bank.telemetry().values(), "{what}: sweep");
            if d16_telemetry::ENABLED {
                assert_eq!(streamed.records(), trace.len() as u64, "{what}: records");
            }
            for ((s, b), cfg) in streamed.systems.iter().zip(bank.systems()).zip(&configs) {
                assert_eq!(s.iconfig(), cfg, "{what}: grid order");
                assert_eq!((s.icache(), s.dcache()), (b.icache(), b.dcache()), "{what} {cfg:?}");
                let mut solo = CacheSystem::new(*cfg, *cfg).unwrap();
                trace.replay(&mut solo);
                assert_eq!(
                    (s.icache(), s.dcache()),
                    (solo.icache(), solo.dcache()),
                    "{what} {cfg:?} vs a solo replay"
                );
            }
        }
    }
}
