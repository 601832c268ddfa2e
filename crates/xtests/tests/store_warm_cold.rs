//! The store's headline invariant, at the API level: a suite collected
//! through a warm store is *bit-identical* to one collected cold — every
//! measurement field, every cache-grid statistic and sweep counter, and
//! the full deterministic telemetry projection. Caching can therefore never
//! change a paper-facing number (DESIGN.md §6).

use d16_core::{base_specs, RunConfig, Suite};
use d16_store::Store;
use d16_testkit::TempDir;
use d16_workloads::Workload;
use std::sync::Arc;

fn workloads() -> Vec<&'static Workload> {
    ["towers", "assem"].iter().map(|n| d16_workloads::by_name(n).expect(n)).collect()
}

fn collect(store: Option<Arc<Store>>) -> Suite {
    let cfg = RunConfig { jobs: 2, store, ..RunConfig::default() };
    Suite::collect(&workloads(), &base_specs(), &cfg).expect("suite collects")
}

/// Renders the deterministic telemetry projection (the dump CI
/// byte-diffs) plus the cell and grid inventories.
fn snapshot(suite: &Suite) -> String {
    let metrics = d16_bench::report::metrics_json(
        suite.telemetry(),
        false,
        suite.cells.len(),
        suite.grids.len(),
    );
    metrics.to_string()
}

fn assert_suites_identical(a: &Suite, b: &Suite, tag: &str) {
    assert_eq!(a.cells.len(), b.cells.len(), "{tag}: cell count");
    for (k, ma) in &a.cells {
        let mb = &b.cells[k];
        assert_eq!(ma.exit, mb.exit, "{tag}: {k:?} exit");
        assert_eq!(ma.target, mb.target, "{tag}: {k:?} target");
        assert_eq!(ma.size_bytes, mb.size_bytes, "{tag}: {k:?} size");
        assert_eq!(ma.text_bytes, mb.text_bytes, "{tag}: {k:?} text");
        assert_eq!(ma.stats, mb.stats, "{tag}: {k:?} stats");
        assert_eq!(ma.ireq_bus32, mb.ireq_bus32, "{tag}: {k:?} ireq32");
        assert_eq!(ma.ireq_bus64, mb.ireq_bus64, "{tag}: {k:?} ireq64");
        assert_eq!(ma.tele.values(), mb.tele.values(), "{tag}: {k:?} telemetry");
    }
    assert_eq!(a.grids.keys().collect::<Vec<_>>(), b.grids.keys().collect::<Vec<_>>());
    for (k, ga) in &a.grids {
        let gb = &b.grids[k];
        let w = &k.0;
        assert_eq!(ga.sweep.values(), gb.sweep.values(), "{tag}: {k:?} sweep counters");
        assert_eq!(ga.systems.len(), gb.systems.len(), "{tag}: grid size");
        for (sa, sb) in ga.systems.iter().zip(&gb.systems) {
            assert_eq!(sa.iconfig(), sb.iconfig(), "{tag}: {w} grid config");
            assert_eq!(sa.icache(), sb.icache(), "{tag}: {w} icache stats");
            assert_eq!(sa.dcache(), sb.dcache(), "{tag}: {w} dcache stats");
        }
    }
}

#[test]
fn warm_suite_matches_cold_suite_bit_for_bit() {
    let dir = TempDir::new("warm-cold");
    let root = dir.path().join("store");

    let plain = collect(None);
    let cold_store = Arc::new(Store::open(&root).expect("open store"));
    let cold = collect(Some(Arc::clone(&cold_store)));
    assert!(cold_store.stats().write > 0, "cold run commits artifacts");
    assert_eq!(cold_store.stats().hit, 0, "nothing to hit on a cold store");

    // Fresh handle so the warm run's accounting starts at zero.
    let warm_store = Arc::new(Store::open(&root).expect("reopen store"));
    let warm = collect(Some(Arc::clone(&warm_store)));

    assert_suites_identical(&plain, &cold, "plain vs cold");
    assert_suites_identical(&cold, &warm, "cold vs warm");
    assert_eq!(snapshot(&plain), snapshot(&cold), "metrics: plain vs cold");
    assert_eq!(snapshot(&cold), snapshot(&warm), "metrics: cold vs warm");

    let ws = warm_store.stats();
    assert_eq!(ws.miss, 0, "warm collection misses nothing");
    assert_eq!(ws.write, 0, "warm collection recomputes nothing");
    assert!(ws.hit >= 4, "cells (grids inside) served from the store: {ws:?}");
}

#[test]
fn corrupted_store_recomputes_and_still_matches() {
    let dir = TempDir::new("store-corrupt");
    let root = dir.path().join("store");
    let cold = collect(Some(Arc::new(Store::open(&root).expect("open store"))));
    let cold_snap = snapshot(&cold);

    // Damage every committed cell entry; the next collection must evict
    // them all, recompute, and land on identical numbers.
    let mut stack = vec![root.join("cell")];
    let mut damaged = 0;
    while let Some(d) = stack.pop() {
        for e in std::fs::read_dir(&d).expect("read store dir") {
            let p = e.expect("dir entry").path();
            if p.is_dir() {
                stack.push(p);
            } else {
                let mut raw = std::fs::read(&p).unwrap();
                let mid = raw.len() / 2;
                raw[mid] ^= 0xFF;
                std::fs::write(&p, raw).unwrap();
                damaged += 1;
            }
        }
    }
    assert!(damaged >= 4, "cold run committed the cells: {damaged}");

    let store = Arc::new(Store::open(&root).expect("reopen store"));
    let redo = collect(Some(Arc::clone(&store)));
    assert_suites_identical(&cold, &redo, "cold vs corrupt-recompute");
    assert_eq!(cold_snap, snapshot(&redo), "metrics survive store corruption");
    let st = store.stats();
    assert_eq!(st.corrupt_evicted, damaged, "every damaged entry evicted: {st:?}");
    assert!(st.write >= damaged, "recomputed cells re-committed: {st:?}");
}
