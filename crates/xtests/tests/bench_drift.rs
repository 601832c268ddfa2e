//! Bench drift gate: a fresh in-process regeneration must agree with the
//! checked-in `BENCH_repro.json` on everything deterministic — grid
//! shape, swept records per grid, and the full telemetry counter dump.
//! Timings are machine-local and only reported, never asserted.
//!
//! `#[ignore]` because it collects the full 15x6 grid (~10 s in release,
//! far slower in debug). CI runs it explicitly:
//!
//! ```text
//! cargo test --release -p d16-xtests --test bench_drift -- --ignored
//! ```

use d16_bench::json::Json;
use d16_core::{experiments as ex, standard_specs, RunConfig, Suite};

fn checked_in_report() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repro.json");
    let text = std::fs::read_to_string(path).expect("read checked-in BENCH_repro.json");
    Json::parse(&text).expect("parse BENCH_repro.json")
}

fn u(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("numeric field `{key}`"))
}

#[test]
#[ignore = "full-grid regeneration; run with --release -- --ignored (CI does)"]
fn fresh_run_matches_checked_in_bench_report() {
    let pinned = checked_in_report();
    assert_eq!(pinned.get("schema").and_then(Json::as_str), Some("bench_repro/5"));
    assert!(
        matches!(pinned.get("smoke"), Some(Json::Bool(false))),
        "the pinned report must come from a full --all run"
    );
    assert_eq!(
        pinned.get("engine").and_then(Json::as_str),
        Some("blocks"),
        "the pinned report must come from a default-engine (blocks) run"
    );

    let t0 = std::time::Instant::now();
    let all: Vec<_> = d16_workloads::SUITE.iter().collect();
    let suite =
        Suite::collect(&all, &standard_specs(), &RunConfig::default()).expect("collect full grid");
    let collect_ns = t0.elapsed().as_nanos() as u64;

    // --- counts: exact -------------------------------------------------
    assert_eq!(u(&pinned, "cells"), suite.cells.len() as u64, "cell count drifted");
    assert_eq!(u(&pinned, "traces"), suite.grids.len() as u64, "grid count drifted");

    let grid = pinned.get("cache_grid").expect("cache_grid object");
    assert_eq!(u(grid, "configs"), ex::cache_grid_configs().len() as u64, "config count drifted");
    let sweeps = grid.get("sweeps").and_then(Json::as_arr).expect("sweeps array");
    assert_eq!(sweeps.len(), suite.grids.len(), "sweep count drifted");
    for s in sweeps {
        let w = s.get("workload").and_then(Json::as_str).expect("workload");
        let isa = s.get("isa").and_then(Json::as_str).expect("isa");
        let grid = suite.grids.get(&(w.to_string(), isa.to_string())).expect("grid swept");
        // Records come from the sweep counters, which are zeros with
        // telemetry compiled out.
        if d16_telemetry::ENABLED {
            assert_eq!(u(s, "records"), grid.records(), "({w}, {isa}) records drifted");
        }
    }

    // --- telemetry counters: exact (they count events, not time) -------
    if d16_telemetry::ENABLED {
        let reg = suite.telemetry();
        let pinned_counters = pinned
            .get("counters")
            .and_then(Json::as_obj)
            .expect("counters object in the checked-in report");
        let fresh: Vec<(String, u64)> = reg.counters().map(|(k, v)| (k.to_string(), v)).collect();
        assert_eq!(
            pinned_counters.len(),
            fresh.len(),
            "counter set drifted: {} pinned vs {} fresh",
            pinned_counters.len(),
            fresh.len()
        );
        for ((pk, pv), (fk, fv)) in pinned_counters.iter().zip(&fresh) {
            assert_eq!(pk, fk, "counter name drifted");
            assert_eq!(pv.as_u64(), Some(*fv), "counter `{pk}` drifted");
        }
    }

    // --- timings: advisory only ----------------------------------------
    let pinned_collect = u(&pinned, "collect_ns");
    let ratio = collect_ns as f64 / pinned_collect as f64;
    eprintln!(
        "collect: fresh {:.2}s vs pinned {:.2}s ({ratio:.2}x) — advisory, machines differ",
        collect_ns as f64 / 1e9,
        pinned_collect as f64 / 1e9,
    );
    // A pin may carry a hand-merged `engines_cold_ns`: the cold
    // `collect_ns` of an `--engine interp` and an `--engine blocks` run
    // on the same machine (EXPERIMENTS.md), keeping the engines' relative
    // collection cost on record.
    if let Some(engines) = pinned.get("engines_cold_ns") {
        let (interp_ns, blocks_ns) = (u(engines, "interp"), u(engines, "blocks"));
        eprintln!(
            "pinned cold collect: interp {:.2}s vs blocks {:.2}s ({:.1}x) — same machine at pin time",
            interp_ns as f64 / 1e9,
            blocks_ns as f64 / 1e9,
            interp_ns as f64 / blocks_ns as f64,
        );
    }
}

/// The block engine's reason to exist: executing cached micro-ops must be
/// much faster than decode-and-dispatch per instruction. This times the
/// two engines head-to-head on the same images, same machine, same
/// process, best-of-3 per cell (runner noise is additive contention, so
/// the minimum is the stable estimator).
///
/// The floor is a regression tripwire, not a benchmark claim: raw
/// full-fuel runs measure 4.7-5.0x on the dev box (the issue's nominal
/// "5x on the smoke collect" is not directly measurable — a smoke
/// collect finishes in ~0 ms, all of it grid setup). 4x is the highest
/// value that stays out of the shared-runner noise band while still
/// catching the engine's advantage being lost.
#[test]
#[ignore = "timing-sensitive; run with --release -- --ignored (CI does)"]
fn block_engine_speedup_floor() {
    use d16_core::Engine;
    use d16_sim::{Machine, NullSink};

    let mut interp_ns: u128 = 0;
    let mut blocks_ns: u128 = 0;
    for name in ["queens", "towers", "latex"] {
        let w = d16_workloads::by_name(name).expect("suite workload");
        for spec in d16_core::base_specs() {
            let image = d16_core::build(w, &spec, None).expect("build workload");
            for (engine, acc) in
                [(Engine::Interp, &mut interp_ns), (Engine::Blocks, &mut blocks_ns)]
            {
                let best = (0..3)
                    .map(|_| {
                        let mut m = Machine::load(&image);
                        let t0 = std::time::Instant::now();
                        m.run_with(engine, d16_core::measure::FUEL, &mut NullSink)
                            .expect("clean run");
                        t0.elapsed().as_nanos()
                    })
                    .min()
                    .expect("three timed runs");
                *acc += best;
            }
        }
    }
    let ratio = interp_ns as f64 / blocks_ns as f64;
    eprintln!(
        "engine speedup: {ratio:.1}x (interp {:.2}s vs blocks {:.2}s, best-of-3)",
        interp_ns as f64 / 1e9,
        blocks_ns as f64 / 1e9,
    );
    assert!(ratio >= 4.0, "block engine fell under the 4x speedup floor: {ratio:.2}x");
}
