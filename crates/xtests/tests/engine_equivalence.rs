//! Engine-equivalence gate: the block-caching engine must be
//! *observationally identical* to the per-instruction interpreter on the
//! real suite — same exit checksum, same pipeline statistics, same
//! telemetry counter values, and the same access stream byte for byte
//! (a recorded trace encodes every fetch/read/write in order, so a
//! byte-equal encoding pins the engines to the same memory behavior at
//! the same instruction boundaries).
//!
//! The fast default covers a representative subset on every target
//! configuration; the `#[ignore]`d test sweeps every (workload, target)
//! cell of the paper's grid and runs in CI release builds.

use d16_cc::TargetSpec;
use d16_core::{measure, standard_specs, Engine, PipelineSpec, Predictor, RunConfig};
use d16_sim::{Machine, TraceRecorder};
use d16_workloads::Workload;

/// The cell's full access stream under `cfg`'s engine and pipeline.
fn stream(w: &Workload, spec: &TargetSpec, cfg: &RunConfig) -> TraceRecorder {
    let image = d16_core::build(w, spec, None).expect("build workload");
    let mut m = Machine::load(&image);
    m.set_pipeline(cfg.pipeline);
    let mut rec = TraceRecorder::new();
    m.run_with(cfg.engine, d16_core::measure::FUEL, &mut rec).expect("clean run");
    assert!(rec.error().is_none(), "every access is encodable");
    rec
}

/// Measures one cell under both engines and asserts every observable
/// output is identical.
fn assert_cell_identical(w: &Workload, spec: &TargetSpec) {
    let label = format!("({}, {})", w.name, spec.label());
    let on = |engine| RunConfig { engine, ..RunConfig::default() };
    let (a, _) = measure(w, spec, false, &on(Engine::Interp))
        .unwrap_or_else(|e| panic!("{label} interp: {e}"));
    let (b, _) = measure(w, spec, false, &on(Engine::Blocks))
        .unwrap_or_else(|e| panic!("{label} blocks: {e}"));
    assert_eq!(a.exit, b.exit, "{label}: exit checksum");
    assert_eq!(a.stats, b.stats, "{label}: pipeline statistics");
    assert_eq!(a.size_bytes, b.size_bytes, "{label}: static size");
    assert_eq!(a.ireq_bus32, b.ireq_bus32, "{label}: 32-bit bus requests");
    assert_eq!(a.ireq_bus64, b.ireq_bus64, "{label}: 64-bit bus requests");
    assert_eq!(a.tele.values(), b.tele.values(), "{label}: telemetry counters");
    let (ta, tb) = (stream(w, spec, &on(Engine::Interp)), stream(w, spec, &on(Engine::Blocks)));
    assert_eq!(ta.len(), tb.len(), "{label}: trace record count");
    assert_eq!(ta.encoded_bytes(), tb.encoded_bytes(), "{label}: trace bytes");
}

#[test]
fn engines_agree_on_subset_across_all_targets() {
    // One recursive integer workload, one string/memory-heavy cache
    // benchmark, one floating-point workload: together they exercise the
    // hot micro-op set, the cold-op fallback (FPU), and both ISAs'
    // delay-slot shapes on all five target configurations.
    for name in ["queens", "assem", "whetstone"] {
        let w = d16_workloads::by_name(name).expect("suite workload");
        for spec in standard_specs() {
            assert_cell_identical(w, &spec);
        }
    }
}

/// The same equivalence at the most aggressive non-default pipeline
/// configuration — depth 8 (longest load-use distance, largest misfetch
/// penalty) with the two-bit predictor (history-dependent per-branch
/// state). The BlockEngine lowers non-default specs through its dynamic
/// flavor (fusion off, runtime stall scoreboard), so this pins a code
/// path the default-spec tests above never execute.
#[test]
fn engines_agree_at_depth_eight_with_twobit_predictor() {
    let deep = PipelineSpec { depth: 8, predictor: Predictor::TwoBit, ..PipelineSpec::default() };
    let on = |engine| RunConfig { engine, pipeline: deep, ..RunConfig::default() };
    for name in ["queens", "assem", "whetstone"] {
        let w = d16_workloads::by_name(name).expect("suite workload");
        for spec in standard_specs() {
            let label = format!("({}, {}, depth 8 twobit)", w.name, spec.label());
            let (a, _) = measure(w, &spec, false, &on(Engine::Interp))
                .unwrap_or_else(|e| panic!("{label} interp: {e}"));
            let (b, _) = measure(w, &spec, false, &on(Engine::Blocks))
                .unwrap_or_else(|e| panic!("{label} blocks: {e}"));
            assert_eq!(a.exit, b.exit, "{label}: exit checksum");
            assert_eq!(a.stats, b.stats, "{label}: pipeline statistics");
            assert!(a.stats.mispredicts > 0, "{label}: twobit at depth 8 must mispredict");
            assert!(a.stats.misfetch_cycles > 0, "{label}: depth 8 must charge misfetch bubbles");
            let (ta, tb) =
                (stream(w, &spec, &on(Engine::Interp)), stream(w, &spec, &on(Engine::Blocks)));
            assert_eq!(ta.encoded_bytes(), tb.encoded_bytes(), "{label}: trace bytes");
        }
    }
}

#[test]
#[ignore = "full 15x5 grid under both engines; run with --release -- --ignored (CI does)"]
fn engines_agree_on_every_cell() {
    for w in d16_workloads::SUITE.iter() {
        for spec in standard_specs() {
            assert_cell_identical(w, &spec);
        }
    }
}
