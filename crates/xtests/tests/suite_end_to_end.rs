//! End-to-end: every Table 2 workload compiles, links, runs and produces
//! the same checksum on every target configuration — the joint correctness
//! gate for the compiler, assembler, linker and pipeline.

use d16_cc::TargetSpec;
use d16_core::{measure, standard_specs, RunConfig};
use d16_workloads::SUITE;

/// Runs one workload across all five grid configurations and checks
/// checksum agreement (and the pinned value when there is one).
fn check_workload(name: &str) {
    let w = d16_workloads::by_name(name).unwrap();
    let mut exits: Vec<(String, i32)> = Vec::new();
    for spec in standard_specs() {
        let (m, _) = measure(w, &spec, false, &RunConfig::default())
            .unwrap_or_else(|e| panic!("{name} on {}: {e}", spec.label()));
        exits.push((spec.label(), m.exit));
    }
    let first = exits[0].1;
    for (label, exit) in &exits {
        assert_eq!(*exit, first, "{name}: {label} disagrees: {exits:?}");
    }
    if let Some(expected) = w.expected {
        assert_eq!(first, expected, "{name}: pinned checksum");
    }
}

// One test per workload so failures are attributable and the suite runs in
// parallel.
macro_rules! workload_tests {
    ($($name:ident),*) => {
        $(
            #[test]
            fn $name() {
                check_workload(stringify!($name));
            }
        )*
    };
}

workload_tests!(
    ackermann, assem, bubblesort, queens, quicksort, towers, grep, linpack, matrix, dhrystone, pi,
    solver, latex, ipl, whetstone
);

#[test]
fn suite_is_complete() {
    assert_eq!(SUITE.len(), 15);
}

#[test]
fn d16_is_denser_on_every_workload() {
    for w in SUITE {
        let (d16, _) = measure(w, &TargetSpec::d16(), false, &RunConfig::default()).unwrap();
        let (dlxe, _) = measure(w, &TargetSpec::dlxe(), false, &RunConfig::default()).unwrap();
        assert!(
            d16.text_bytes < dlxe.text_bytes,
            "{}: D16 text {} !< DLXe text {}",
            w.name,
            d16.text_bytes,
            dlxe.text_bytes
        );
        assert!(
            dlxe.stats.insns <= d16.stats.insns,
            "{}: DLXe path {} > D16 path {}",
            w.name,
            dlxe.stats.insns,
            d16.stats.insns
        );
        // The key fetch-traffic claim: D16 fetches fewer instruction words.
        assert!(
            d16.stats.ifetch_words < dlxe.stats.ifetch_words,
            "{}: D16 words {} !< DLXe words {}",
            w.name,
            d16.stats.ifetch_words,
            dlxe.stats.ifetch_words
        );
    }
}
