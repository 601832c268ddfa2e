//! The pipelined machine model (five-stage by default).
//!
//! Functionally this is an instruction-level interpreter; architecturally
//! it models the paper's pipeline (Figure 3): single issue, one branch
//! delay slot, a load delay derived from the pipeline depth (one slot at
//! the default depth of five), and a non-pipelined FPU whose latency
//! produces "math unit" interlocks. Interlock *cycles* are accounted with a
//! small scoreboard (register-ready times) rather than by simulating stage
//! registers — the counts are exactly those of an in-order pipeline of the
//! configured [`PipelineSpec`] with full forwarding. The default spec
//! reproduces the paper's fixed five-stage machine bit for bit; deeper
//! specs add load-delay slots and misfetch bubbles whose cost the
//! configured branch [`Predictor`] mitigates (DESIGN.md §14).

use crate::access::AccessSink;
use crate::stats::{ExecStats, SimCounter, StopReason, SIM_SCHEMA};
use d16_asm::Image;
use d16_isa::{abi, AluOp, CvtOp, Gpr, Insn, Isa, MemWidth, Prec, TrapCode};
use d16_telemetry::Counters;
use std::fmt;

/// FPU operation latencies in cycles, configurable per experiment.
///
/// Defaults approximate an R2000-class FPU of the paper's era.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct FpuLatency {
    /// Add, subtract, negate, compare.
    pub add: u64,
    /// Multiply.
    pub mul: u64,
    /// Divide (single precision).
    pub div_s: u64,
    /// Divide (double precision).
    pub div_d: u64,
    /// Mode conversions.
    pub cvt: u64,
}

impl Default for FpuLatency {
    fn default() -> Self {
        FpuLatency { add: 2, mul: 4, div_s: 12, div_d: 19, cvt: 2 }
    }
}

/// Branch predictor of the modeled front end. The predictor guesses
/// whether each control transfer redirects; a wrong guess costs
/// [`PipelineSpec::misfetch_penalty`] bubbles (zero at the default depth,
/// where redirect resolves within the delay slot). Targets are assumed
/// perfectly known on a correct taken-guess (an ideal BTB), so the model
/// isolates the *direction* cost the paper's fixed pipeline hides.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Predictor {
    /// No prediction: fetch falls through, so every taken transfer
    /// misfetches. The paper's machine (penalty-free at depth 5).
    None,
    /// Predict every control transfer taken: untaken branches misfetch.
    StaticTaken,
    /// Per-branch two-bit saturating counters ([`BP_ENTRIES`] entries,
    /// indexed by the branch PC), initialized strongly-not-taken.
    TwoBit,
}

impl Predictor {
    /// Stable lowercase name (CLI and serve knob value).
    pub fn name(self) -> &'static str {
        match self {
            Predictor::None => "none",
            Predictor::StaticTaken => "taken",
            Predictor::TwoBit => "twobit",
        }
    }

    /// Parses [`Predictor::name`]; `None` for anything else.
    pub fn parse(s: &str) -> Option<Predictor> {
        match s {
            "none" => Some(Predictor::None),
            "taken" => Some(Predictor::StaticTaken),
            "twobit" => Some(Predictor::TwoBit),
            _ => None,
        }
    }

    /// Every predictor, in sweep-grid order.
    pub const ALL: [Predictor; 3] = [Predictor::None, Predictor::StaticTaken, Predictor::TwoBit];
}

/// Two-bit-counter table size (entries); a power of two so the branch PC
/// indexes it with a mask.
pub const BP_ENTRIES: usize = 512;

/// The timing shape of the modeled pipeline. The default — depth 5, no
/// predictor, two-halfword (one word) fetch — is exactly the paper's
/// machine, and every derived penalty collapses to the historical
/// constants there. Deeper pipelines stretch the load-use distance and
/// charge misfetch bubbles for wrong front-end guesses; the fetch width
/// sets the granularity of instruction-fetch traffic accounting.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct PipelineSpec {
    /// Pipeline depth in stages, `3..=8`. Depths 3 and 4 time identically
    /// (both have a zero-cycle load-use distance and no misfetch cost).
    pub depth: u8,
    /// Front-end branch predictor.
    pub predictor: Predictor,
    /// Fetch-unit width in halfwords (`1`, `2` or `4`); the granularity
    /// [`ExecStats::ifetch_words`] counts in.
    pub fetch_width_halfwords: u8,
}

impl Default for PipelineSpec {
    fn default() -> Self {
        PipelineSpec { depth: 5, predictor: Predictor::None, fetch_width_halfwords: 2 }
    }
}

/// Valid pipeline depths (the sweep grid's depth axis).
pub const PIPELINE_DEPTHS: [u8; 6] = [3, 4, 5, 6, 7, 8];

/// Valid fetch widths in halfwords (the sweep grid's fetch axis).
pub const FETCH_WIDTHS: [u8; 3] = [1, 2, 4];

impl PipelineSpec {
    /// Load-use delay in cycles: how many issue slots after a load its
    /// result stays unforwardable (`depth - 4`, floored at zero). One at
    /// the default depth — the paper's single load delay slot.
    pub fn load_delay(&self) -> u64 {
        u64::from(self.depth.saturating_sub(4))
    }

    /// Bubbles charged when the front end guessed a control transfer's
    /// direction wrong (`depth - 5`, floored at zero). Zero at the
    /// default depth: the delay slot absorbs the redirect, which is why
    /// the paper's machine needs no predictor.
    pub fn misfetch_penalty(&self) -> u64 {
        u64::from(self.depth.saturating_sub(5))
    }

    /// Address mask selecting the fetch unit an instruction byte lives in.
    pub fn fetch_mask(&self) -> u32 {
        !(2 * u32::from(self.fetch_width_halfwords) - 1)
    }

    /// Checks the spec against the supported grid.
    ///
    /// # Errors
    ///
    /// A message naming the bad knob and the valid values, suitable for
    /// CLI/API diagnostics.
    pub fn validate(&self) -> Result<(), String> {
        if !PIPELINE_DEPTHS.contains(&self.depth) {
            return Err(format!(
                "pipeline depth {} is off-grid; valid depths: 3 4 5 6 7 8",
                self.depth
            ));
        }
        if !FETCH_WIDTHS.contains(&self.fetch_width_halfwords) {
            return Err(format!(
                "fetch width {} halfwords is off-grid; valid widths: 1 2 4",
                self.fetch_width_halfwords
            ));
        }
        Ok(())
    }
}

/// Simulator errors: things a correct program (and compiler) never does.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimError {
    /// PC left the text segment.
    PcOutOfText {
        /// Faulting PC.
        pc: u32,
    },
    /// The word at PC does not decode.
    IllegalInsn {
        /// Faulting PC.
        pc: u32,
    },
    /// Misaligned data access.
    Unaligned {
        /// Effective address.
        addr: u32,
        /// Access width.
        bytes: u8,
        /// Faulting PC.
        pc: u32,
    },
    /// Data access outside simulated memory.
    OutOfBounds {
        /// Effective address.
        addr: u32,
        /// Faulting PC.
        pc: u32,
    },
    /// Store into the text segment.
    WriteToText {
        /// Effective address.
        addr: u32,
        /// Faulting PC.
        pc: u32,
    },
    /// A control-transfer instruction in a delay slot.
    ControlInDelaySlot {
        /// Faulting PC.
        pc: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::PcOutOfText { pc } => write!(f, "pc {pc:#010x} outside text"),
            SimError::IllegalInsn { pc } => write!(f, "illegal instruction at {pc:#010x}"),
            SimError::Unaligned { addr, bytes, pc } => {
                write!(f, "misaligned {bytes}-byte access to {addr:#010x} at pc {pc:#010x}")
            }
            SimError::OutOfBounds { addr, pc } => {
                write!(f, "out-of-bounds access to {addr:#010x} at pc {pc:#010x}")
            }
            SimError::WriteToText { addr, pc } => {
                write!(f, "store into text at {addr:#010x} from pc {pc:#010x}")
            }
            SimError::ControlInDelaySlot { pc } => {
                write!(f, "control transfer in delay slot at {pc:#010x}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The integer register file is widened beyond the 32 architectural
/// slots, for two block-engine reasons. Slots the architecture cannot
/// name let lowering pre-resolve DLXe's hardwired `r0` instead of
/// branching on the ISA per access: writes to slot
/// [`crate::block::SCRATCH_REG`] are discarded and slot
/// [`crate::block::ZERO_REG`] reads as a permanent zero. And rounding
/// the file up to a power of two lets the engine's dispatch loop index
/// it with a `& 63` mask, which the optimizer can prove in-bounds —
/// the register file is the hottest array in the simulator and a
/// per-access bounds check there is measurable. The interpreter only
/// ever touches slots below 32; lowered micro-ops only 0..=33.
pub(crate) const GPR_SLOTS: usize = 64;

/// The A-shape of the previously retired instruction, for D16x macro-op
/// fusion accounting: a dynamic pair is fused when the *next* retired
/// instruction is the matching B-shape and sits at the A-shape's end
/// address (so taken branches and delay-slot returns never pair). The
/// payload is the written register slot the B-shape must read.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum FuseA {
    /// `cmp`/`cmpi` wrote this slot; fuses with `bz`/`bnz` testing it.
    Cmp(u8),
    /// `mvhi` wrote this slot; fuses with `ori`/`addi` of the form
    /// `rd <- rd op imm` on the same slot.
    Lui(u8),
}

/// The A-shape an instruction offers to its successor, if any (D16x
/// macro-op fusion; see [`FuseA`]).
pub(crate) fn fuse_a_shape(insn: &Insn) -> Option<FuseA> {
    match *insn {
        Insn::Cmp { rd, .. } | Insn::CmpI { rd, .. } => Some(FuseA::Cmp(rd.index() as u8)),
        Insn::Lui { rd, .. } => Some(FuseA::Lui(rd.index() as u8)),
        _ => None,
    }
}

/// Whether `insn` is the B-shape completing the pair `a` describes.
pub(crate) fn fuse_b_matches(a: FuseA, insn: &Insn) -> bool {
    match (a, *insn) {
        (FuseA::Cmp(r), Insn::Bc { rs, .. }) => rs.index() as u8 == r,
        (FuseA::Lui(r), Insn::AluI { op: AluOp::Or | AluOp::Add, rd, rs1, .. }) => {
            rd == rs1 && rd.index() as u8 == r
        }
        _ => false,
    }
}

/// The simulated processor plus its memory.
#[derive(Clone)]
pub struct Machine {
    pub(crate) isa: Isa,
    pub(crate) mem: Vec<u8>,
    pub(crate) text_base: u32,
    pub(crate) text_end: u32,
    pub(crate) data_base: u32,
    /// Pre-decoded text, one slot per *fetch unit* (halfword on D16/D16x,
    /// word on DLXe), each carrying the instruction and its byte length.
    /// On D16x a wide instruction occupies the slot of its first halfword;
    /// the following slot holds whatever its second halfword decodes to on
    /// its own, which is exactly what a jump into the middle of a wide
    /// instruction executes (the ISA keeps no boundary state).
    pub(crate) decoded: Vec<Option<(Insn, u8)>>,
    pub(crate) gpr: [u32; GPR_SLOTS],
    fpr: [u32; 32],
    fpsr: bool,
    pub(crate) pc: u32,
    pub(crate) pending_target: Option<u32>,
    pub(crate) halted: Option<i32>,
    console: Vec<u8>,
    pub(crate) stats: ExecStats,
    pub(crate) tele: Counters,
    lat: FpuLatency,
    pub(crate) pspec: PipelineSpec,
    /// Two-bit predictor counters, live only when
    /// `pspec.predictor == Predictor::TwoBit`. Boxed: the table is dead
    /// weight at the default spec and `Machine` is cloned in tests.
    pub(crate) bp: Box<[u8; BP_ENTRIES]>,
    // Scoreboard for interlock accounting.
    pub(crate) t: u64,
    pub(crate) gpr_ready: [u64; GPR_SLOTS],
    fpr_ready: [u64; 32],
    fpsr_ready: u64,
    fpu_free: u64,
    pub(crate) last_fetch_word: Option<u32>,
    /// Pipeline-sweep collector, scoring every sweep configuration from
    /// this machine's single interpreter pass when attached
    /// ([`Machine::attach_pipeline_sweep`]). `None` costs nothing.
    sweep: Option<Box<crate::psweep::PipelineSweep>>,
    /// D16x macro-op fusion: the A-shape the last retired instruction
    /// offered, with the PC a fusable successor must retire at. Always
    /// `None` on D16 and DLXe.
    pub(crate) fuse_prev: Option<(u32, FuseA)>,
    /// The basic-block micro-op cache, built lazily on the first
    /// [`Machine::run_blocks`] call and kept across runs (text is
    /// immutable once loaded: stores into it fault).
    pub(crate) engine: Option<Box<crate::engine::BlockEngine>>,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("isa", &self.isa)
            .field("pc", &format_args!("{:#010x}", self.pc))
            .field("halted", &self.halted)
            .field("insns", &self.stats.insns)
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Loads a linked image into a fresh machine.
    ///
    /// Registers start at zero; the program's startup code is expected to
    /// establish the stack and global pointers (the compiler's `_start`
    /// does). Memory spans `0..__mem_top` (16 MiB).
    pub fn load(image: &Image) -> Self {
        let mut mem = vec![0u8; d16_asm::MEM_TOP as usize];
        let tb = image.text_base as usize;
        mem[tb..tb + image.text.len()].copy_from_slice(&image.text);
        let db = image.data_base as usize;
        mem[db..db + image.data.len()].copy_from_slice(&image.data);

        let decoded: Vec<Option<(Insn, u8)>> = match image.isa {
            Isa::D16 => image
                .text
                .chunks_exact(2)
                .map(|c| {
                    d16_isa::d16::decode(u16::from_le_bytes([c[0], c[1]])).ok().map(|i| (i, 2))
                })
                .collect(),
            Isa::Dlxe => image
                .text
                .chunks_exact(4)
                .map(|c| {
                    d16_isa::dlxe::decode(u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                        .ok()
                        .map(|i| (i, 4))
                })
                .collect(),
            Isa::D16x => {
                // Every halfword offset is a potential entry point, so each
                // slot decodes independently with its successor halfword as
                // the escape continuation (an escape in the final halfword
                // is Truncated, hence None).
                let hws: Vec<u16> =
                    image.text.chunks_exact(2).map(|c| u16::from_le_bytes([c[0], c[1]])).collect();
                (0..hws.len())
                    .map(|i| {
                        d16_isa::d16x::decode(hws[i], hws.get(i + 1).copied())
                            .ok()
                            .map(|(insn, len)| (insn, len as u8))
                    })
                    .collect()
            }
        };

        Machine {
            isa: image.isa,
            mem,
            text_base: image.text_base,
            text_end: image.text_base + image.text.len() as u32,
            data_base: image.data_base,
            decoded,
            gpr: [0; GPR_SLOTS],
            fpr: [0; 32],
            fpsr: false,
            pc: image.entry,
            pending_target: None,
            halted: None,
            console: Vec::new(),
            stats: ExecStats::default(),
            tele: Counters::new(&SIM_SCHEMA),
            lat: FpuLatency::default(),
            pspec: PipelineSpec::default(),
            bp: Box::new([0; BP_ENTRIES]),
            t: 0,
            gpr_ready: [0; GPR_SLOTS],
            fpr_ready: [0; 32],
            fpsr_ready: 0,
            fpu_free: 0,
            last_fetch_word: None,
            sweep: None,
            fuse_prev: None,
            engine: None,
        }
    }

    /// Overrides the FPU latency model.
    pub fn set_fpu_latency(&mut self, lat: FpuLatency) {
        self.lat = lat;
    }

    /// Overrides the pipeline timing model and resets the predictor
    /// state. Call before running; the block engine detects the change
    /// and relowers its cache ([`crate::engine::BlockEngine::matches`]).
    pub fn set_pipeline(&mut self, spec: PipelineSpec) {
        self.pspec = spec;
        *self.bp = [0; BP_ENTRIES];
    }

    /// The active pipeline timing model.
    pub fn pipeline(&self) -> PipelineSpec {
        self.pspec
    }

    /// Attaches a pipeline-sweep collector: every instruction retired by
    /// the *interpreter* ([`Machine::run`]) from now on is also scored
    /// against every configuration of the sweep grid. Detach with
    /// [`Machine::take_pipeline_sweep`].
    pub fn attach_pipeline_sweep(&mut self, sweep: crate::psweep::PipelineSweep) {
        self.sweep = Some(Box::new(sweep));
    }

    /// Detaches and returns the sweep collector, if one is attached.
    pub fn take_pipeline_sweep(&mut self) -> Option<crate::psweep::PipelineSweep> {
        self.sweep.take().map(|b| *b)
    }

    /// The ISA of the loaded program.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Reads a general register (honoring DLXe's hardwired `r0 == 0`).
    pub fn gpr(&self, r: Gpr) -> u32 {
        if self.isa == Isa::Dlxe && r == abi::R0 {
            0
        } else {
            self.gpr[r.index()]
        }
    }

    /// Writes a general register (writes to DLXe `r0` are discarded).
    pub fn set_gpr(&mut self, r: Gpr, v: u32) {
        if !(self.isa == Isa::Dlxe && r == abi::R0) {
            self.gpr[r.index()] = v;
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Per-stage and per-interlock-class telemetry counters
    /// ([`crate::stats::SIM_SCHEMA`]). Empty when the `telemetry`
    /// feature is compiled out; when present the counters reconcile
    /// exactly with [`Machine::stats`] (see
    /// [`ExecStats::reconciles_with`]).
    pub fn telemetry(&self) -> &Counters {
        &self.tele
    }

    /// Console output so far (bytes written via `trap 1`/`trap 2`).
    pub fn console(&self) -> &[u8] {
        &self.console
    }

    /// Console output as (lossy) UTF-8.
    pub fn console_string(&self) -> String {
        String::from_utf8_lossy(&self.console).into_owned()
    }

    /// Whether the program has executed `trap 0`.
    pub fn halted(&self) -> Option<i32> {
        self.halted
    }

    /// Runs until halt or until `fuel` instructions have executed, one
    /// [`Machine::step`] at a time — the interpreter, which defines the
    /// normative semantics (the block engine is checked against it).
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] the program raises.
    pub fn run(&mut self, fuel: u64, sink: &mut impl AccessSink) -> Result<StopReason, SimError> {
        let end = self.stats.insns + fuel;
        loop {
            if let Some(v) = self.halted {
                return Ok(StopReason::Halted(v));
            }
            if self.stats.insns >= end {
                return Ok(StopReason::OutOfFuel);
            }
            self.step(sink)?;
        }
    }

    /// Runs under the selected execution engine. [`crate::Engine::Interp`]
    /// is [`Machine::run`]; [`crate::Engine::Blocks`] is
    /// [`Machine::run_blocks`]. Both are observationally identical.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] the program raises.
    pub fn run_with(
        &mut self,
        engine: crate::Engine,
        fuel: u64,
        sink: &mut impl AccessSink,
    ) -> Result<StopReason, SimError> {
        match engine {
            crate::Engine::Interp => self.run(fuel, sink),
            crate::Engine::Blocks => self.run_blocks(fuel, sink),
        }
    }

    /// Runs under the basic-block micro-op engine (see [`crate::engine`]):
    /// straight-line runs of instructions are decoded and lowered once,
    /// then dispatched from a block cache with no per-instruction decode.
    /// Rare instructions, faults, and fuel edges fall back to
    /// [`Machine::step`], so the observable behavior — access stream,
    /// statistics, telemetry, stop reason, faults — is identical to
    /// [`Machine::run`].
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] the program raises.
    pub fn run_blocks(
        &mut self,
        fuel: u64,
        sink: &mut impl AccessSink,
    ) -> Result<StopReason, SimError> {
        // Take the engine out of `self` so it and the machine can be
        // borrowed disjointly; the cache persists across calls.
        let mut eng = match self.engine.take() {
            Some(e) if e.matches(self) => e,
            _ => Box::new(crate::engine::BlockEngine::new(self)),
        };
        let r = eng.run(self, fuel, sink);
        self.engine = Some(eng);
        r
    }

    /// The block engine's counter block ([`crate::ENGINE_SCHEMA`]), if
    /// [`Machine::run_blocks`] has run. These count engine mechanics
    /// (compiles, cache hits, fallbacks), not architectural events, and
    /// deliberately stay out of the experiment registry so measurement
    /// output is engine-invariant.
    pub fn engine_telemetry(&self) -> Option<&Counters> {
        self.engine.as_deref().map(crate::engine::BlockEngine::telemetry)
    }

    /// Executes a single instruction (a delay-slot instruction counts as
    /// its own step).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] for illegal instructions, bad memory
    /// accesses, or a control transfer inside a delay slot.
    pub fn step(&mut self, sink: &mut impl AccessSink) -> Result<(), SimError> {
        let pc = self.pc;
        let unit = self.isa.insn_bytes();
        if pc < self.text_base || pc >= self.text_end || !(pc - self.text_base).is_multiple_of(unit)
        {
            return Err(SimError::PcOutOfText { pc });
        }
        let (insn, len) = self.decoded[((pc - self.text_base) / unit) as usize]
            .ok_or(SimError::IllegalInsn { pc })?;
        let ilen = u32::from(len);

        // Fetch accounting, at the spec's fetch-unit granularity (one
        // word by default). A D16x escape straddling a unit boundary
        // pulls both units through the one-unit fetch buffer.
        sink.fetch(pc, len);
        let fmask = self.pspec.fetch_mask();
        let word = pc & fmask;
        if self.last_fetch_word != Some(word) {
            self.stats.ifetch_words += 1;
            self.tele.bump(SimCounter::IfWords);
        }
        let tail_word = (pc + ilen - 1) & fmask;
        if tail_word != word {
            self.stats.ifetch_words += 1;
            self.tele.bump(SimCounter::IfWords);
        }
        self.last_fetch_word = Some(tail_word);
        self.stats.insns += 1;
        self.tele.bump(SimCounter::IfInsns);
        self.tele.bump(SimCounter::IdInsns);
        // Stage-occupancy class: the stage that does this instruction's
        // real work (the classes partition the instruction stream).
        self.tele.bump(match insn {
            Insn::Alu { .. }
            | Insn::AluI { .. }
            | Insn::Un { .. }
            | Insn::Mvi { .. }
            | Insn::Lui { .. }
            | Insn::Cmp { .. }
            | Insn::CmpI { .. } => SimCounter::ExAlu,
            Insn::Ld { .. } | Insn::Ldc { .. } => SimCounter::MemLoads,
            Insn::St { .. } => SimCounter::MemStores,
            Insn::Br { .. }
            | Insn::Bc { .. }
            | Insn::J { .. }
            | Insn::Jc { .. }
            | Insn::Jl { .. }
            | Insn::Jdisp { .. } => SimCounter::ExControl,
            Insn::FAlu { .. }
            | Insn::FNeg { .. }
            | Insn::FCmp { .. }
            | Insn::Cvt { .. }
            | Insn::Mtf { .. }
            | Insn::Mff { .. }
            | Insn::Rdsr { .. } => SimCounter::ExFpu,
            Insn::Trap { .. } => SimCounter::ExSys,
            Insn::Nop => SimCounter::ExNop,
        });

        self.account_interlocks(&insn);

        let mut target: Option<Option<u32>> = None; // Some(Some(t)) taken, Some(None) fall-through branch
        match insn {
            Insn::Alu { op, rd, rs1, rs2 } => {
                let v = op.eval(self.gpr(rs1), self.gpr(rs2));
                self.write_int(rd, v);
            }
            Insn::AluI { op, rd, rs1, imm } => {
                let v = op.eval(self.gpr(rs1), imm as u32);
                self.write_int(rd, v);
            }
            Insn::Un { op, rd, rs } => {
                let v = op.eval(self.gpr(rs));
                self.write_int(rd, v);
            }
            Insn::Mvi { rd, imm } => self.write_int(rd, imm as u32),
            Insn::Lui { rd, imm } => self.write_int(rd, imm << 16),
            Insn::Cmp { cond, rd, rs1, rs2 } => {
                let v = if cond.eval(self.gpr(rs1), self.gpr(rs2)) { u32::MAX } else { 0 };
                self.write_int(rd, v);
            }
            Insn::CmpI { cond, rd, rs1, imm } => {
                let v = if cond.eval(self.gpr(rs1), imm as u32) { u32::MAX } else { 0 };
                self.write_int(rd, v);
            }
            Insn::Ld { w, rd, base, disp } => {
                let addr = self.gpr(base).wrapping_add(disp as u32);
                let v = self.load_data(addr, w, pc, sink)?;
                self.stats.loads += 1;
                self.set_gpr(rd, v);
                self.tele.bump(SimCounter::WbGpr);
                // `depth - 4` load delay slots (one at the default depth).
                self.gpr_ready[rd.index()] = self.t + self.pspec.load_delay();
            }
            Insn::Ldc { rd, disp } => {
                let addr = ((pc + 2 + 3) & !3).wrapping_add(disp as u32);
                let v = self.load_data(addr, MemWidth::W, pc, sink)?;
                self.stats.loads += 1;
                self.set_gpr(rd, v);
                self.tele.bump(SimCounter::WbGpr);
                self.gpr_ready[rd.index()] = self.t + self.pspec.load_delay();
            }
            Insn::St { w, rs, base, disp } => {
                let addr = self.gpr(base).wrapping_add(disp as u32);
                self.store(addr, w, self.gpr(rs), pc, sink)?;
                self.stats.stores += 1;
            }
            Insn::Br { disp } => target = Some(Some(add_disp(pc + ilen, disp))),
            Insn::Bc { neg, rs, disp } => {
                let nz = self.gpr(rs) != 0;
                target = if nz == neg { Some(Some(add_disp(pc + ilen, disp))) } else { Some(None) };
            }
            Insn::J { target: t } => target = Some(Some(self.gpr(t))),
            Insn::Jc { neg, rs, target: t } => {
                let nz = self.gpr(rs) != 0;
                target = if nz == neg { Some(Some(self.gpr(t))) } else { Some(None) };
            }
            Insn::Jl { target: t } => {
                let dest = self.gpr(t);
                let link = self.isa.link_reg();
                self.set_gpr(link, pc + ilen + self.next_len(pc + ilen));
                self.tele.bump(SimCounter::WbGpr);
                self.gpr_ready[link.index()] = self.t;
                target = Some(Some(dest));
            }
            Insn::Jdisp { link, disp } => {
                if link {
                    let lr = self.isa.link_reg();
                    self.set_gpr(lr, pc + ilen + self.next_len(pc + ilen));
                    self.tele.bump(SimCounter::WbGpr);
                    self.gpr_ready[lr.index()] = self.t;
                }
                target = Some(Some(add_disp(pc + ilen, disp)));
            }
            Insn::FAlu { op, prec, fd, fs1, fs2 } => {
                let lat = match op {
                    d16_isa::FpOp::Add | d16_isa::FpOp::Sub => self.lat.add,
                    d16_isa::FpOp::Mul => self.lat.mul,
                    d16_isa::FpOp::Div => match prec {
                        Prec::S => self.lat.div_s,
                        Prec::D => self.lat.div_d,
                    },
                };
                match prec {
                    Prec::S => {
                        let a = f32::from_bits(self.fpr[fs1.index()]);
                        let b = f32::from_bits(self.fpr[fs2.index()]);
                        let v = match op {
                            d16_isa::FpOp::Add => a + b,
                            d16_isa::FpOp::Sub => a - b,
                            d16_isa::FpOp::Mul => a * b,
                            d16_isa::FpOp::Div => a / b,
                        };
                        self.fpr[fd.index()] = v.to_bits();
                    }
                    Prec::D => {
                        let a = self.read_f64(fs1);
                        let b = self.read_f64(fs2);
                        let v = match op {
                            d16_isa::FpOp::Add => a + b,
                            d16_isa::FpOp::Sub => a - b,
                            d16_isa::FpOp::Mul => a * b,
                            d16_isa::FpOp::Div => a / b,
                        };
                        self.write_f64(fd, v);
                    }
                }
                self.finish_fpu(fd, prec, lat);
            }
            Insn::FNeg { prec, fd, fs } => {
                match prec {
                    Prec::S => {
                        let a = f32::from_bits(self.fpr[fs.index()]);
                        self.fpr[fd.index()] = (-a).to_bits();
                    }
                    Prec::D => {
                        let a = self.read_f64(fs);
                        self.write_f64(fd, -a);
                    }
                }
                self.finish_fpu(fd, prec, self.lat.add);
            }
            Insn::FCmp { cond, prec, fs1, fs2 } => {
                let (a, b) = match prec {
                    Prec::S => (
                        f32::from_bits(self.fpr[fs1.index()]) as f64,
                        f32::from_bits(self.fpr[fs2.index()]) as f64,
                    ),
                    Prec::D => (self.read_f64(fs1), self.read_f64(fs2)),
                };
                self.fpsr = cond.eval(a, b);
                self.fpsr_ready = self.t + self.lat.add - 1;
                self.fpu_free = self.t + self.lat.add - 1;
            }
            Insn::Cvt { op, fd, fs } => {
                match op {
                    CvtOp::Si2Sf => {
                        let v = self.fpr[fs.index()] as i32;
                        self.fpr[fd.index()] = (v as f32).to_bits();
                    }
                    CvtOp::Si2Df => {
                        let v = self.fpr[fs.index()] as i32;
                        self.write_f64(fd, v as f64);
                    }
                    CvtOp::Sf2Df => {
                        let v = f32::from_bits(self.fpr[fs.index()]);
                        self.write_f64(fd, v as f64);
                    }
                    CvtOp::Df2Sf => {
                        let v = self.read_f64(fs);
                        self.fpr[fd.index()] = (v as f32).to_bits();
                    }
                    CvtOp::Sf2Si => {
                        let v = f32::from_bits(self.fpr[fs.index()]);
                        self.fpr[fd.index()] = cvt_to_i32(v as f64) as u32;
                    }
                    CvtOp::Df2Si => {
                        let v = self.read_f64(fs);
                        self.fpr[fd.index()] = cvt_to_i32(v) as u32;
                    }
                }
                let prec = if op.dst_is_double() { Prec::D } else { Prec::S };
                self.finish_fpu(fd, prec, self.lat.cvt);
            }
            Insn::Mtf { fd, rs } => {
                self.fpr[fd.index()] = self.gpr(rs);
                self.tele.bump(SimCounter::WbFpr);
                self.fpr_ready[fd.index()] = self.t + 1;
            }
            Insn::Mff { rd, fs } => {
                let v = self.fpr[fs.index()];
                self.write_int(rd, v);
            }
            Insn::Rdsr { rd } => {
                let v = if self.fpsr { 1 } else { 0 };
                self.write_int(rd, v);
            }
            Insn::Trap { code } => match code {
                TrapCode::Halt => self.halted = Some(self.gpr(abi::RET) as i32),
                TrapCode::PutChar => self.console.push(self.gpr(abi::RET) as u8),
                TrapCode::PutInt => {
                    let v = self.gpr(abi::RET) as i32;
                    self.console.extend_from_slice(v.to_string().as_bytes());
                }
                TrapCode::ReadInsnCount => {
                    let n = self.stats.insns as u32;
                    self.write_int(abi::RET, n);
                }
            },
            Insn::Nop => self.stats.nops += 1,
        }

        // Advance control flow, honoring the single delay slot.
        if let Some(t) = target {
            if self.pending_target.is_some() {
                return Err(SimError::ControlInDelaySlot { pc });
            }
            self.stats.branches += 1;
            if t.is_some() {
                self.stats.taken_branches += 1;
                self.tele.bump(SimCounter::CtlTaken);
            } else {
                self.tele.bump(SimCounter::CtlUntaken);
            }
            // Front-end direction guess: a wrong one costs the spec's
            // misfetch bubbles. Zero-penalty depths keep the counters at
            // zero so the default spec's stats are bit-identical to the
            // historical fixed-depth model.
            let mispredicted = self.predict_and_update(pc, t.is_some());
            let penalty = self.pspec.misfetch_penalty();
            if mispredicted && penalty > 0 {
                self.stats.mispredicts += 1;
                self.stats.misfetch_cycles += penalty;
                self.t += penalty;
            }
            self.pending_target = Some(t.unwrap_or_else(|| pc + ilen + self.next_len(pc + ilen)));
            self.pc = pc + ilen;
        } else if let Some(t) = self.pending_target.take() {
            self.pc = t;
        } else {
            self.pc = pc + ilen;
        }

        // D16x macro-op fusion accounting, at retirement: pair the
        // completed instruction with its predecessor's A-shape when it is
        // the matching B-shape *and* directly follows it in the byte
        // stream, then record the A-shape it offers in turn. Fusion never
        // changes architectural state — it only counts the pairs a fusing
        // decoder would issue as one macro-op.
        if self.isa == Isa::D16x {
            if let Some((epc, a)) = self.fuse_prev.take() {
                if epc == pc && fuse_b_matches(a, &insn) {
                    match a {
                        FuseA::Cmp(_) => {
                            self.stats.fused_cmp_br += 1;
                            self.tele.bump(SimCounter::FuseCmpBr);
                        }
                        FuseA::Lui(_) => {
                            self.stats.fused_lui_addi += 1;
                            self.tele.bump(SimCounter::FuseLuiAddi);
                        }
                    }
                }
            }
            self.fuse_prev = fuse_a_shape(&insn).map(|a| (pc + ilen, a));
        }

        // Score the retired instruction against every sweep configuration
        // (a no-op unless a collector is attached). Taken out and put back
        // so the collector can borrow the machine-independent facts.
        if let Some(mut sw) = self.sweep.take() {
            sw.retire(&insn, self.isa, &self.lat, pc, ilen, target.map(|t| t.is_some()));
            self.sweep = Some(sw);
        }
        Ok(())
    }

    /// Updates the predictor with a resolved control transfer and reports
    /// whether the front end guessed its direction wrong. Shared verbatim
    /// by the block engine so both engines see identical predictor state.
    pub(crate) fn predict_and_update(&mut self, pc: u32, taken: bool) -> bool {
        match self.pspec.predictor {
            Predictor::None => taken,
            Predictor::StaticTaken => !taken,
            Predictor::TwoBit => {
                let i = ((pc >> 1) as usize) & (BP_ENTRIES - 1);
                let c = self.bp[i];
                self.bp[i] = if taken { (c + 1).min(3) } else { c.saturating_sub(1) };
                (c >= 2) != taken
            }
        }
    }

    /// Byte length of the instruction at `pc`, from the length-decode rule
    /// alone (top four bits of the first halfword) — defined even when the
    /// instruction there does not decode, and 2 when `pc` is outside the
    /// text segment or misaligned. Used for return addresses and branch
    /// fall-throughs, which must skip the *delay slot's* actual length on
    /// D16x; fixed-width ISAs return their instruction size.
    pub(crate) fn next_len(&self, pc: u32) -> u32 {
        if self.isa != Isa::D16x {
            return self.isa.insn_bytes();
        }
        if pc < self.text_base || pc + 2 > self.text_end || !(pc - self.text_base).is_multiple_of(2)
        {
            return 2;
        }
        let a = pc as usize;
        d16_isa::d16x::insn_len(u16::from_le_bytes([self.mem[a], self.mem[a + 1]]))
    }

    /// ALU-class result: ready immediately via forwarding.
    fn write_int(&mut self, rd: Gpr, v: u32) {
        self.set_gpr(rd, v);
        self.tele.bump(SimCounter::WbGpr);
        self.gpr_ready[rd.index()] = self.t;
    }

    fn finish_fpu(&mut self, fd: d16_isa::Fpr, prec: Prec, lat: u64) {
        self.tele.bump(SimCounter::WbFpr);
        // `self.t` is already the next issue time, so an immediately
        // dependent instruction stalls `lat - 1` cycles (full forwarding).
        let done = self.t + lat - 1;
        self.fpr_ready[fd.index()] = done;
        if prec == Prec::D {
            self.fpr_ready[fd.index() ^ 1] = done;
        }
        self.fpu_free = done;
    }

    fn read_f64(&self, r: d16_isa::Fpr) -> f64 {
        let lo = self.fpr[r.index()] as u64;
        let hi = self.fpr[r.index() | 1] as u64;
        f64::from_bits(hi << 32 | lo)
    }

    fn write_f64(&mut self, r: d16_isa::Fpr, v: f64) {
        let bits = v.to_bits();
        self.fpr[r.index()] = bits as u32;
        self.fpr[r.index() | 1] = (bits >> 32) as u32;
    }

    /// Computes and accounts interlock stalls for `insn`, then issues it.
    /// The stall is attributed to a telemetry class: delayed load, FPU
    /// result register, FPU unit busy, or FP status register (on equal
    /// readiness the earlier-checked class wins — result, busy, status —
    /// which is deterministic).
    fn account_interlocks(&mut self, insn: &Insn) {
        let (load_need, fpu_need, fpu_src) = issue_needs(
            insn,
            self.isa,
            &self.gpr_ready,
            &self.fpr_ready,
            self.fpsr_ready,
            self.fpu_free,
        );
        let need = load_need.max(fpu_need);
        let stall = need.saturating_sub(self.t);
        if stall > 0 {
            self.stats.interlocks += stall;
            if fpu_need >= load_need {
                self.stats.fpu_interlocks += stall;
                let (events, cycles) = match fpu_src {
                    FpuStall::Result => (SimCounter::FpuResultEvents, SimCounter::FpuResultCycles),
                    FpuStall::Busy => (SimCounter::FpuBusyEvents, SimCounter::FpuBusyCycles),
                    FpuStall::Status => (SimCounter::FpuStatusEvents, SimCounter::FpuStatusCycles),
                };
                self.tele.bump(events);
                self.tele.add(cycles, stall);
            } else {
                self.stats.load_interlocks += stall;
                self.tele.bump(SimCounter::LoadEvents);
                self.tele.add(SimCounter::LoadCycles, stall);
            }
            self.t += stall;
        }
        self.t += 1;
    }

    fn check_data(&self, addr: u32, bytes: u8, pc: u32) -> Result<usize, SimError> {
        if addr as u64 + bytes as u64 > self.mem.len() as u64 {
            return Err(SimError::OutOfBounds { addr, pc });
        }
        if !addr.is_multiple_of(bytes as u32) {
            return Err(SimError::Unaligned { addr, bytes, pc });
        }
        Ok(addr as usize)
    }

    fn load_data(
        &mut self,
        addr: u32,
        w: MemWidth,
        pc: u32,
        sink: &mut impl AccessSink,
    ) -> Result<u32, SimError> {
        let b = w.bytes() as u8;
        let a = self.check_data(addr, b, pc)?;
        sink.read(addr, b);
        Ok(match w {
            MemWidth::B => self.mem[a] as i8 as i32 as u32,
            MemWidth::Bu => self.mem[a] as u32,
            MemWidth::H => i16::from_le_bytes([self.mem[a], self.mem[a + 1]]) as i32 as u32,
            MemWidth::Hu => u16::from_le_bytes([self.mem[a], self.mem[a + 1]]) as u32,
            MemWidth::W => u32::from_le_bytes(self.mem[a..a + 4].try_into().expect("4-byte slice")),
        })
    }

    fn store(
        &mut self,
        addr: u32,
        w: MemWidth,
        v: u32,
        pc: u32,
        sink: &mut impl AccessSink,
    ) -> Result<(), SimError> {
        let b = w.bytes() as u8;
        let a = self.check_data(addr, b, pc)?;
        if addr < self.data_base {
            return Err(SimError::WriteToText { addr, pc });
        }
        sink.write(addr, b);
        match w {
            MemWidth::B | MemWidth::Bu => self.mem[a] = v as u8,
            MemWidth::H | MemWidth::Hu => {
                self.mem[a..a + 2].copy_from_slice(&(v as u16).to_le_bytes())
            }
            MemWidth::W => self.mem[a..a + 4].copy_from_slice(&v.to_le_bytes()),
        }
        Ok(())
    }
}

/// Which FPU resource an interlock stall is waiting on; used to pick the
/// telemetry counter class in [`Machine::account_interlocks`].
#[derive(Copy, Clone, PartialEq, Eq)]
pub(crate) enum FpuStall {
    /// An FPU result register is not yet written back.
    Result,
    /// The non-pipelined FPU is still executing an earlier operation.
    Busy,
    /// The FP status register is not yet valid (`rdsr`).
    Status,
}

/// The scoreboard times `insn` must wait for before issuing:
/// `(integer-register need, FPU need, FPU stall class)`. This is *the*
/// issue rule — the interpreter's interlock accounting and the
/// pipeline-sweep replayer both call it, so a swept configuration whose
/// knobs equal the live machine's scores identically by construction.
pub(crate) fn issue_needs(
    insn: &Insn,
    isa: Isa,
    gpr_ready: &[u64; GPR_SLOTS],
    fpr_ready: &[u64; 32],
    fpsr_ready: u64,
    fpu_free: u64,
) -> (u64, u64, FpuStall) {
    let mut load_need = 0u64;
    for r in insn.use_gprs().into_iter().flatten() {
        if !(isa == Isa::Dlxe && r == abi::R0) {
            load_need = load_need.max(gpr_ready[r.index()]);
        }
    }
    let mut fpu_need = 0u64;
    let mut fpu_src = FpuStall::Result;
    let mut raise = |v: u64, src: FpuStall| {
        if v > fpu_need {
            fpu_need = v;
            fpu_src = src;
        }
    };
    let pair_ready = |ready: &[u64; 32], r: d16_isa::Fpr, d: bool| -> u64 {
        let v = ready[r.index()];
        if d {
            v.max(ready[r.index() | 1])
        } else {
            v
        }
    };
    match *insn {
        Insn::FAlu { prec, fs1, fs2, .. } => {
            let d = prec == Prec::D;
            raise(pair_ready(fpr_ready, fs1, d), FpuStall::Result);
            raise(pair_ready(fpr_ready, fs2, d), FpuStall::Result);
            raise(fpu_free, FpuStall::Busy);
        }
        Insn::FNeg { prec, fs, .. } => {
            raise(pair_ready(fpr_ready, fs, prec == Prec::D), FpuStall::Result);
            raise(fpu_free, FpuStall::Busy);
        }
        Insn::FCmp { prec, fs1, fs2, .. } => {
            let d = prec == Prec::D;
            raise(pair_ready(fpr_ready, fs1, d), FpuStall::Result);
            raise(pair_ready(fpr_ready, fs2, d), FpuStall::Result);
            raise(fpu_free, FpuStall::Busy);
        }
        Insn::Cvt { op, fs, .. } => {
            raise(pair_ready(fpr_ready, fs, op.src_is_double()), FpuStall::Result);
            raise(fpu_free, FpuStall::Busy);
        }
        Insn::Mtf { fd, .. } => {
            // The FPU must be free to accept the transfer.
            raise(pair_ready(fpr_ready, fd, false), FpuStall::Result);
        }
        Insn::Mff { fs, .. } => {
            raise(pair_ready(fpr_ready, fs, false), FpuStall::Result);
        }
        Insn::Rdsr { .. } => raise(fpsr_ready, FpuStall::Status),
        _ => {}
    }
    (load_need, fpu_need, fpu_src)
}

/// The timing-relevant write-back effect of one retired instruction —
/// everything the scoreboard must learn beyond [`issue_needs`]. Extracted
/// once per retirement so the pipeline-sweep replayer applies the same
/// effect to every swept configuration that the interpreter's `execute`
/// applies to the live one (a suite-wide equality test pins the two).
#[derive(Copy, Clone, Debug)]
pub(crate) enum RetireFx {
    /// No register result (stores, branches, most traps, `nop`).
    None,
    /// An integer result forwarded at issue time (`ready = t`).
    Gpr(u8),
    /// A load result: `ready = t + load_delay(depth)`.
    GprLoad(u8),
    /// An FPU result register write (`finish_fpu`): `done = t + lat - 1`
    /// for the register (and its pair when double), FPU busy until then.
    Fpu {
        /// Destination FPR slot.
        fd: u8,
        /// Whether the D-pair partner is written too.
        double: bool,
        /// Operation latency in cycles.
        lat: u64,
    },
    /// Integer-to-FPU transfer: `fpr_ready[fd] = t + 1`.
    Mtf(u8),
    /// FP compare: status register and FPU busy until `t + lat - 1`.
    Fcmp {
        /// Compare latency (the add latency).
        lat: u64,
    },
}

/// Classifies the write-back effect of `insn` (see [`RetireFx`]).
pub(crate) fn retire_fx(insn: &Insn, isa: Isa, lat: &FpuLatency) -> RetireFx {
    match *insn {
        Insn::Alu { rd, .. }
        | Insn::AluI { rd, .. }
        | Insn::Un { rd, .. }
        | Insn::Mvi { rd, .. }
        | Insn::Lui { rd, .. }
        | Insn::Cmp { rd, .. }
        | Insn::CmpI { rd, .. }
        | Insn::Mff { rd, .. }
        | Insn::Rdsr { rd } => RetireFx::Gpr(rd.index() as u8),
        Insn::Ld { rd, .. } | Insn::Ldc { rd, .. } => RetireFx::GprLoad(rd.index() as u8),
        Insn::FAlu { op, prec, fd, .. } => {
            let lat = match op {
                d16_isa::FpOp::Add | d16_isa::FpOp::Sub => lat.add,
                d16_isa::FpOp::Mul => lat.mul,
                d16_isa::FpOp::Div => match prec {
                    Prec::S => lat.div_s,
                    Prec::D => lat.div_d,
                },
            };
            RetireFx::Fpu { fd: fd.index() as u8, double: prec == Prec::D, lat }
        }
        Insn::FNeg { prec, fd, .. } => {
            RetireFx::Fpu { fd: fd.index() as u8, double: prec == Prec::D, lat: lat.add }
        }
        Insn::Cvt { op, fd, .. } => {
            RetireFx::Fpu { fd: fd.index() as u8, double: op.dst_is_double(), lat: lat.cvt }
        }
        Insn::FCmp { .. } => RetireFx::Fcmp { lat: lat.add },
        Insn::Mtf { fd, .. } => RetireFx::Mtf(fd.index() as u8),
        Insn::Trap { code: TrapCode::ReadInsnCount } => RetireFx::Gpr(abi::RET.index() as u8),
        Insn::Jl { .. } => RetireFx::Gpr(isa.link_reg().index() as u8),
        Insn::Jdisp { link, .. } => {
            if link {
                RetireFx::Gpr(isa.link_reg().index() as u8)
            } else {
                RetireFx::None
            }
        }
        Insn::St { .. }
        | Insn::Br { .. }
        | Insn::Bc { .. }
        | Insn::J { .. }
        | Insn::Jc { .. }
        | Insn::Trap { .. }
        | Insn::Nop => RetireFx::None,
    }
}

fn add_disp(base: u32, disp: i32) -> u32 {
    base.wrapping_add(disp as u32)
}

/// Converts with C truncation semantics, saturating like MIPS on overflow.
fn cvt_to_i32(v: f64) -> i32 {
    if v.is_nan() {
        0
    } else if v >= i32::MAX as f64 {
        i32::MAX
    } else if v <= i32::MIN as f64 {
        i32::MIN
    } else {
        v as i32
    }
}
