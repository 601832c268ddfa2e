//! The traced batch run: redoes a workload's work through the public
//! entry points of each layer, with a span around every call.
//!
//! Per cell, the program runs three times on fresh machines — with a
//! null sink, with the two fetch-buffer bus models, and (cache cells
//! only) with the trace recorder added — so the differences between the
//! runs price each access sink. The phase order and the serial cache
//! grid follow `repro --all`.

use crate::spans::{Clock, Tracer};
use d16_cc::TargetSpec;
use d16_core::experiments;
use d16_mem::{CacheBank, FetchBuffer};
use d16_sim::{AccessSink, Engine, Machine, NullSink, StopReason, TraceRecorder};
use d16_workloads::Workload;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Instruction budget per run; a correct workload halts far earlier.
const FUEL: u64 = 2_000_000_000;

/// The six targets every grid cell is measured on, in grid order.
fn targets() -> [TargetSpec; 6] {
    [
        TargetSpec::d16(),
        TargetSpec::dlxe_restricted(true, true, false),
        TargetSpec::dlxe_restricted(true, false, false),
        TargetSpec::dlxe_restricted(false, true, false),
        TargetSpec::dlxe(),
        TargetSpec::d16x(),
    ]
}

/// Whether `repro` records a cache trace for this cell: cache
/// benchmarks on the three unrestricted targets.
fn records_trace(w: &Workload, spec: &TargetSpec) -> bool {
    w.cache_benchmark
        && (*spec == TargetSpec::d16()
            || *spec == TargetSpec::dlxe()
            || *spec == TargetSpec::d16x())
}

struct FetchBuffers {
    fb32: FetchBuffer,
    fb64: FetchBuffer,
}

impl FetchBuffers {
    fn new() -> FetchBuffers {
        FetchBuffers { fb32: FetchBuffer::new(4), fb64: FetchBuffer::new(8) }
    }
}

impl AccessSink for FetchBuffers {
    #[inline]
    fn fetch(&mut self, addr: u32, bytes: u8) {
        self.fb32.fetch(addr, bytes);
        self.fb64.fetch(addr, bytes);
    }
    #[inline]
    fn read(&mut self, addr: u32, bytes: u8) {
        self.fb32.read(addr, bytes);
        self.fb64.read(addr, bytes);
    }
    #[inline]
    fn write(&mut self, addr: u32, bytes: u8) {
        self.fb32.write(addr, bytes);
        self.fb64.write(addr, bytes);
    }
}

struct Recording<'a> {
    fbs: &'a mut FetchBuffers,
    rec: &'a mut TraceRecorder,
}

impl AccessSink for Recording<'_> {
    #[inline]
    fn fetch(&mut self, addr: u32, bytes: u8) {
        self.fbs.fetch(addr, bytes);
        self.rec.fetch(addr, bytes);
    }
    #[inline]
    fn read(&mut self, addr: u32, bytes: u8) {
        self.fbs.read(addr, bytes);
        self.rec.read(addr, bytes);
    }
    #[inline]
    fn write(&mut self, addr: u32, bytes: u8) {
        self.fbs.write(addr, bytes);
        self.rec.write(addr, bytes);
    }
}

/// What one run of a cell observed: exit code and instruction count.
#[derive(PartialEq, Eq, Debug)]
struct Outcome {
    exit: i32,
    insns: u64,
}

fn run_on(image: &d16_asm::Image, sink: &mut impl AccessSink) -> Result<(Outcome, u64), String> {
    let mut m = Machine::load(image);
    match m.run_with(Engine::default(), FUEL, sink).map_err(|e| e.to_string())? {
        StopReason::Halted(exit) => {
            let s = m.stats();
            Ok((Outcome { exit, insns: s.insns }, s.insns + s.loads + s.stores))
        }
        StopReason::OutOfFuel => Err("did not halt within the instruction budget".to_string()),
    }
}

/// A validated cache trace and the instruction count of its run.
struct Trace {
    rec: TraceRecorder,
    insns: u64,
}

/// One grid cell through every layer. Returns the validated trace when
/// the cell records one.
fn cell(t: &mut Tracer<'_>, w: &Workload, spec: &TargetSpec) -> Result<Option<Trace>, String> {
    t.span("cell", |t| {
        let asm = t
            .span("cc.compile", |_| d16_cc::compile_to_asm(&[w.source], spec))
            .map_err(|e| e.to_string())?;
        t.count("cc.compiles", 1);
        let image = t
            .span("asm.build", |_| d16_asm::build(spec.isa, &[&asm]))
            .map_err(|e| e.to_string())?;
        let (null, _) = t.span("sim.null", |_| run_on(&image, &mut NullSink))?;
        if w.expected.is_some_and(|e| e != null.exit) {
            return Err(format!("checksum {} (expected {:?})", null.exit, w.expected));
        }
        t.count("sim.insns", null.insns);
        let mut fbs = FetchBuffers::new();
        let (fb, accesses) = t.span("sim.fetchbuf", |_| run_on(&image, &mut fbs))?;
        if fb != null {
            return Err(format!("fetch-buffer run {fb:?} differs from null run {null:?}"));
        }
        t.count("sink.accesses", accesses);
        if !records_trace(w, spec) {
            return Ok(None);
        }
        let mut fbs = FetchBuffers::new();
        let mut rec = TraceRecorder::new();
        let (traced, _) = t.span("sim.trace", |_| {
            run_on(&image, &mut Recording { fbs: &mut fbs, rec: &mut rec })
        })?;
        if traced != null {
            return Err(format!("recording run {traced:?} differs from null run {null:?}"));
        }
        if rec.len() as u64 != accesses {
            return Err(format!("recorded {} accesses, counted {accesses}", rec.len()));
        }
        if let Some(e) = rec.error() {
            return Err(format!("trace: {e}"));
        }
        let trace = t.span("trace.validate", |_| {
            TraceRecorder::from_encoded(rec.encoded_bytes().to_vec(), rec.len())
        })?;
        t.count("trace.records", trace.len() as u64);
        t.count("trace.resident_bytes", trace.memory_bytes() as u64);
        Ok(Some(Trace { rec: trace, insns: null.insns }))
    })
}

/// A verdict per operation: `Err` names what failed.
type Verdict = Result<(), String>;

/// Measures every (workload, target) cell on `jobs` worker threads that
/// pull cells in grid order, like the collection pool. Returns a verdict
/// per cell and the recorded traces, ordered by cell label.
fn pool(
    t: &mut Tracer<'_>,
    clock: &Clock,
    phase: &'static str,
    workloads: &[&'static Workload],
    jobs: usize,
) -> (Vec<Verdict>, Vec<(String, Trace)>) {
    let items: Vec<(&Workload, TargetSpec)> =
        workloads.iter().flat_map(|w| targets().map(|s| (*w, s))).collect();
    let jobs = jobs.clamp(1, items.len().max(1));
    let jobs_u32 = u32::try_from(jobs).expect("job count fits u32");
    let next = AtomicUsize::new(0);
    let mut results = t.span_jobs(phase, jobs_u32, |t| {
        let parent = t.current();
        let finished: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs_u32)
                .map(|i| {
                    let (items, next) = (&items, &next);
                    scope.spawn(move || {
                        let mut wt = Tracer::new(clock, i + 1, parent);
                        let mut done = Vec::new();
                        while let Some((w, spec)) = items.get(next.fetch_add(1, Ordering::Relaxed))
                        {
                            let label = format!("({}, {})", w.name, spec.label());
                            done.push((label, cell(&mut wt, w, spec)));
                        }
                        (wt, done)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("pool worker panicked")).collect()
        });
        let mut all = Vec::new();
        for (wt, done) in finished {
            t.absorb(wt);
            all.extend(done);
        }
        all
    });
    // Workers finish in any order; sorting by label fixes the order of
    // the grid replay that follows.
    results.sort_by(|a, b| a.0.cmp(&b.0));
    let mut verdicts = Vec::with_capacity(results.len());
    let mut traces = Vec::new();
    for (label, r) in results {
        verdicts.push(match r {
            Ok(trace) => {
                traces.extend(trace.map(|tr| (label, tr)));
                Ok(())
            }
            Err(e) => Err(format!("{label}: {e}")),
        });
    }
    (verdicts, traces)
}

/// Replays one trace through the 20-configuration cache grid.
fn replay(t: &mut Tracer<'_>, label: &str, trace: &Trace) -> Verdict {
    t.span("grid.replay", |t| {
        let mut bank = CacheBank::symmetric(&experiments::cache_grid_configs())
            .map_err(|e| format!("grid {label}: {e}"))?;
        trace.rec.replay(&mut bank);
        t.count("grid.sweeps", 1);
        t.count("grid.records", trace.rec.len() as u64);
        // Every instruction fetch reaches every I-cache.
        match bank.systems().iter().find(|s| s.icache().reads != trace.insns) {
            Some(s) => Err(format!(
                "grid {label}: {} saw {} of {} fetches",
                s.label(),
                s.icache().reads,
                trace.insns
            )),
            None => Ok(()),
        }
    })
}

/// Runs one workload's traced pass and returns the report document.
pub fn run(workload: &str, jobs: usize) -> Result<String, String> {
    let clock = Clock::new();
    let mut t = Tracer::new(&clock, 0, 0);
    let mut ops: Vec<Verdict> = Vec::new();
    match workload {
        "repro-cold" => {
            let suite: Vec<&'static Workload> = d16_workloads::SUITE.iter().collect();
            let extras: Vec<&'static Workload> = d16_workloads::EXTRAS.iter().collect();
            t.span("total", |t| {
                let (verdicts, traces) = pool(t, &clock, "pool.collect", &suite, jobs);
                ops.extend(verdicts);
                ops.extend(pool(t, &clock, "pool.extended", &extras, jobs).0);
                t.span("phase.grid", |t| {
                    for (label, trace) in &traces {
                        ops.push(replay(t, label, trace));
                    }
                });
                ops.push(t.span("table4", |_| {
                    let t4 = experiments::table4_immediate_profile()
                        .map_err(|(w, e)| format!("table 4 on {w}: {e}"))?;
                    if t4.total_pct() > 0.0 {
                        Ok(())
                    } else {
                        Err("table 4 profiled no immediates".to_string())
                    }
                }));
                for w in ["whetstone", "linpack"] {
                    ops.push(t.span("fpusweep", |_| match experiments::fpu_latency_sweep(w) {
                        Ok(p) if p.len() == 5 => Ok(()),
                        Ok(p) => Err(format!("fpu sweep {w}: {} points", p.len())),
                        Err(e) => Err(format!("fpu sweep {w}: {e}")),
                    }));
                }
                for w in ["towers", "assem"] {
                    ops.push(t.span("psweep", |_| match experiments::pipeline_sweep(w) {
                        Ok(rows) if rows.len() == 6 && rows.iter().all(|r| r.sweep.insns > 0) => {
                            Ok(())
                        }
                        Ok(rows) => Err(format!("pipeline sweep {w}: {} rows", rows.len())),
                        Err(e) => Err(format!("pipeline sweep {w}: {e}")),
                    }));
                }
            });
        }
        other => return Err(format!("no traced run for workload `{other}`")),
    }
    t.count("jobs", jobs as u64);
    let failures: Vec<String> = ops.iter().filter_map(|r| r.clone().err()).collect();
    Ok(crate::spans::to_json(&t, ops.len() as u64, &failures))
}
