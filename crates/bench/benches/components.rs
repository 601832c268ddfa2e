//! Component throughput benchmarks: the substrates the reproduction is
//! built on — encoders, both execution engines, the cache simulator and
//! the cache-grid bank, and the compiler itself. Plain `fn main()` on the
//! in-repo harness (`d16_bench::harness`); run with
//! `cargo bench -p d16-bench`.

use d16_bench::harness::{bench, bench_throughput, quiet_bench};
use d16_cc::TargetSpec;
use d16_core::experiments::cache_grid_configs;
use d16_isa::{AluOp, Gpr, Insn, Isa};
use d16_mem::{CacheBank, CacheSystem};
use d16_sim::{AccessSink, Engine, Machine, NullSink};
use std::hint::black_box;

fn bench_encoders() {
    let insns: Vec<Insn> = (0..1024)
        .map(|i| Insn::AluI {
            op: AluOp::Add,
            rd: Gpr::new((i % 12 + 2) as u8),
            rs1: Gpr::new((i % 12 + 2) as u8),
            imm: (i % 31),
        })
        .collect();
    let n = insns.len() as u64;
    bench_throughput("encoders/d16_encode", 200, n, || {
        for i in &insns {
            black_box(d16_isa::d16::encode(black_box(i)).unwrap());
        }
    });
    bench_throughput("encoders/dlxe_encode", 200, n, || {
        for i in &insns {
            black_box(d16_isa::dlxe::encode(black_box(i)).unwrap());
        }
    });
    let words: Vec<u16> = insns.iter().map(|i| d16_isa::d16::encode(i).unwrap()).collect();
    bench_throughput("encoders/d16_decode", 200, n, || {
        for w in &words {
            black_box(d16_isa::d16::decode(black_box(*w)).unwrap());
        }
    });
}

fn bench_pipeline() {
    let w = d16_workloads::by_name("towers").unwrap();
    for spec in [TargetSpec::d16(), TargetSpec::dlxe()] {
        let image = d16_cc::compile_to_image(&[w.source], &spec).unwrap();
        // Instruction count is fixed; report simulated instructions/sec.
        let mut probe = Machine::load(&image);
        probe.run(u64::MAX / 2, &mut NullSink).unwrap();
        let insns = probe.stats().insns;
        for engine in [Engine::Interp, Engine::Blocks] {
            let name = format!("pipeline/towers_{}_{}", spec.isa.name(), engine.name());
            bench_throughput(&name, 20, insns, || {
                let mut m = Machine::load(&image);
                m.run_with(engine, u64::MAX / 2, &mut NullSink).unwrap();
                black_box(m.stats().insns)
            });
        }
    }
}

fn bench_cache_replay() {
    let w = d16_workloads::by_name("assem").unwrap();
    let image = d16_cc::compile_to_image(&[w.source], &TargetSpec::d16()).unwrap();
    let mut m = Machine::load(&image);
    let mut rec = d16_sim::TraceRecorder::new();
    m.run(u64::MAX / 2, &mut rec).unwrap();
    bench_throughput("cache/replay_4k_paper_config", 20, rec.len() as u64, || {
        let mut cs = CacheSystem::paper(4096).unwrap();
        rec.replay(&mut cs);
        black_box(cs.total_misses())
    });
    // The repro cache-grid kernel: one pass of the trace through all 20
    // grid configurations. Reported as ns per record.
    let configs = cache_grid_configs();
    let grid = quiet_bench("cache/bank_grid_20", 10, || {
        let mut bank = CacheBank::symmetric(&configs).unwrap();
        rec.replay(&mut bank);
        black_box(bank.systems()[0].total_misses())
    });
    println!(
        "{:<44} {:>9.1} ns/record  ({} records x {} configs)",
        "cache/bank_grid_20",
        grid.mean_ns as f64 / rec.len() as f64,
        rec.len(),
        configs.len()
    );
}

fn bench_compiler() {
    let w = d16_workloads::by_name("latex").unwrap();
    for spec in [TargetSpec::d16(), TargetSpec::dlxe()] {
        bench(&format!("compiler/compile_latex_{}", spec.isa.name()), 20, || {
            black_box(d16_cc::compile_to_asm(&[w.source], &spec).unwrap())
        });
    }
    let asm = d16_cc::compile_to_asm(&[w.source], &TargetSpec::d16()).unwrap();
    bench("compiler/assemble_link_latex_d16", 20, || {
        black_box(d16_asm::build(Isa::D16, &[&asm]).unwrap())
    });
}

fn bench_fetch_buffer() {
    let addrs: Vec<u32> = (0..65536u32).map(|i| 0x1000 + (i * 2) % 8192).collect();
    bench_throughput("fetch_buffer/sequential_stream", 50, addrs.len() as u64, || {
        let mut fb = d16_mem::FetchBuffer::new(8);
        for &a in &addrs {
            fb.fetch(a, 2);
        }
        black_box(fb.irequests)
    });
}

fn main() {
    bench_encoders();
    bench_pipeline();
    bench_cache_replay();
    bench_compiler();
    bench_fetch_buffer();
}
