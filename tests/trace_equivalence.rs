//! Trace-execution equivalence: the compiled-trace backend must be an
//! *invisible* optimization. `Vm::run_linked` executes whole superblocks
//! with pre-resolved targets, inline guards, and patched trace-to-trace
//! links — and none of that may change a single observable bit relative
//! to plain block-by-block interpretation.
//!
//! Four layers of guards:
//!
//! 1. **Workload sweep.** All nine benchmarks at Small scale, under both
//!    prediction schemes: `RunStats`, final data memory, and every global
//!    register bit-identical between `Vm::run` and `Vm::run_linked`
//!    driven by the full `LinkedEngine`.
//! 2. **Scripted corners.** A `ScriptedController` pins the mechanisms:
//!    guard failure mid-trace, link severing on flush, divergence
//!    chaining into a tail fragment.
//! 3. **Error equivalence.** Fuel exhaustion aborts at the exact same
//!    block with the exact same error, trace cache or not.
//! 4. **Decision goldens.** The engine's own outcome — installs, flushes,
//!    bail-outs, paths, and the bits of every cycle charge — is pinned
//!    per workload, so a faster engine cannot quietly decide differently.

use hotpath::dynamo::{DynamoConfig, LinkedEngine, Scheme};
use hotpath::ir::builder::{FunctionBuilder, ProgramBuilder};
use hotpath::ir::{CmpOp, GlobalReg, Program};
use hotpath::vm::{
    BlockEvent, ExecutionObserver, NullObserver, RunConfig, ScriptedController, TraceCommand,
    TraceController, TraceExcursion, Vm, VmError,
};
use hotpath::workloads::{suite, Scale};

/// Runs `program` plain and linked (under `engine`), asserting stats,
/// memory, and globals are bit-identical; returns the shared stats.
fn assert_bit_identical<C: TraceController>(
    program: &Program,
    engine: &mut C,
    tag: &str,
) -> hotpath::vm::RunStats {
    let mut plain_vm = Vm::new(program);
    let plain = plain_vm.run(&mut NullObserver).unwrap();

    let mut linked_vm = Vm::new(program);
    let linked = linked_vm.run_linked(engine).unwrap();

    assert_eq!(plain, linked, "{tag}: RunStats");
    assert_eq!(plain_vm.memory(), linked_vm.memory(), "{tag}: final memory");
    for g in 0..GlobalReg::COUNT {
        let g = GlobalReg::new(g as u8);
        assert_eq!(
            plain_vm.global(g),
            linked_vm.global(g),
            "{tag}: global {g:?}"
        );
    }
    linked
}

#[test]
fn all_nine_workloads_bit_identical_under_net() {
    for w in suite(Scale::Small) {
        let mut engine = LinkedEngine::new(DynamoConfig::new(Scheme::Net, 50));
        assert_bit_identical(&w.program, &mut engine, &format!("{:?}/net", w.name));
    }
}

#[test]
fn all_nine_workloads_bit_identical_under_path_profile() {
    for w in suite(Scale::Small) {
        let mut engine = LinkedEngine::new(DynamoConfig::new(Scheme::PathProfile, 50));
        assert_bit_identical(&w.program, &mut engine, &format!("{:?}/pp", w.name));
    }
}

/// Block ids, in build order: 0 = implicit entry, then `new_block` order.
/// For [`two_path_loop`]: header=1, body=2, odd=3, even=4, latch=5,
/// exit=6.
fn two_path_loop(trip: i64) -> Program {
    let mut fb = FunctionBuilder::new("main");
    let i = fb.reg();
    let header = fb.new_block();
    let body = fb.new_block();
    let odd = fb.new_block();
    let even = fb.new_block();
    let latch = fb.new_block();
    let exit = fb.new_block();
    fb.const_(i, 0);
    fb.jump(header);
    fb.switch_to(header);
    let c = fb.cmp_imm(CmpOp::Lt, i, trip);
    fb.branch(c, body, exit);
    fb.switch_to(body);
    let par = fb.reg();
    fb.and_imm(par, i, 1);
    fb.branch(par, odd, even);
    fb.switch_to(odd);
    fb.jump(latch);
    fb.switch_to(even);
    fb.jump(latch);
    fb.switch_to(latch);
    fb.add_imm(i, i, 1);
    fb.jump(header);
    fb.switch_to(exit);
    fb.halt();
    let mut pb = ProgramBuilder::new();
    pb.add_function(fb).unwrap();
    pb.finish().unwrap()
}

/// A guard failing mid-trace (the uncovered parity at the body branch)
/// hands control back to the interpreter at the exact off-trace block;
/// every counter and every state bit stays identical.
#[test]
fn guard_failure_mid_trace_is_bit_identical() {
    let p = two_path_loop(1_000);
    // Primary trace through the even parity only.
    let mut ctl = ScriptedController::new(vec![TraceCommand::Install(vec![1, 2, 4, 5])]);
    assert_bit_identical(&p, &mut ctl, "guard-fail");
    let fails: u64 = ctl.excursions.iter().map(|e| e.guard_fails).sum();
    assert!(
        fails >= 400,
        "odd iterations must fail the parity guard: {fails}"
    );
    // Odd iterations interpret odd→latch and re-enter at header.
    assert!(ctl.excursions.len() >= 400);
    assert!(ctl.interpreted >= 800);
}

/// A controller that installs one trace up front and flushes the cache
/// after a fixed number of excursions: afterwards every block must come
/// from the interpreter again.
struct FlushAfter {
    after: usize,
    pending: Vec<TraceCommand>,
    excursions: Vec<TraceExcursion>,
    interpreted: u64,
}

impl ExecutionObserver for FlushAfter {
    fn on_block(&mut self, _event: &BlockEvent) {
        self.interpreted += 1;
    }
}

impl TraceController for FlushAfter {
    fn on_trace_exit(&mut self, excursion: &TraceExcursion) {
        self.excursions.push(*excursion);
        if self.excursions.len() == self.after {
            self.pending.push(TraceCommand::Flush);
        }
    }

    fn poll_command(&mut self) -> Option<TraceCommand> {
        self.pending.pop()
    }
}

/// Flushing severs links and drops traces mid-run without perturbing
/// execution: the run completes bit-identically, no excursion happens
/// after the flush, and the block ledger still balances.
#[test]
fn link_invalidation_on_flush_is_bit_identical() {
    let p = two_path_loop(1_000);
    let mut ctl = FlushAfter {
        after: 5,
        pending: vec![TraceCommand::Install(vec![1, 2, 4, 5])],
        excursions: Vec::new(),
        interpreted: 0,
    };
    let stats = assert_bit_identical(&p, &mut ctl, "flush");
    assert_eq!(ctl.excursions.len(), 5, "no excursions after the flush");
    let trace_blocks: u64 = ctl.excursions.iter().map(|e| e.blocks).sum();
    assert_eq!(
        trace_blocks + ctl.interpreted,
        stats.blocks_executed,
        "every block is either in an excursion or interpreted"
    );
}

/// With a tail fragment installed for the uncovered parity, the primary's
/// failing guard chains straight into it (a patched exit stub) and the
/// tail links back to the primary: the whole loop runs in trace-land as
/// one excursion, still bit-identical.
#[test]
fn divergence_chains_into_a_tail_fragment() {
    let p = two_path_loop(1_000);
    let mut ctl = ScriptedController::new(vec![
        TraceCommand::Install(vec![1, 2, 4, 5]),
        TraceCommand::Install(vec![3, 5]),
    ]);
    assert_bit_identical(&p, &mut ctl, "tail-fragment");
    let links: u64 = ctl.excursions.iter().map(|e| e.links).sum();
    let fails: u64 = ctl.excursions.iter().map(|e| e.guard_fails).sum();
    assert!(links >= 900, "loop closing + stub links: {links}");
    assert!(
        fails >= 400,
        "parity guard still fails, but chains: {fails}"
    );
    // The two fragments cover both parities: after the two installs the
    // interpreter only ever sees the entry block and the blocks before
    // the installs took effect.
    assert!(
        ctl.interpreted < 20,
        "steady state runs entirely in trace-land: {}",
        ctl.interpreted
    );
}

/// Fuel exhaustion is position-exact: the linked VM pre-checks the budget
/// before entering a traversal and falls back to interpretation, so
/// `OutOfFuel` fires at the very same block as plain interpretation.
#[test]
fn fuel_exhaustion_matches_plain_interpretation() {
    let p = two_path_loop(1_000);
    let config = RunConfig {
        max_blocks: 777,
        ..RunConfig::default()
    };

    let plain = Vm::new(&p)
        .with_config(config)
        .run(&mut NullObserver)
        .unwrap_err();
    let mut ctl = ScriptedController::new(vec![TraceCommand::Install(vec![1, 2, 4, 5])]);
    let linked = Vm::new(&p)
        .with_config(config)
        .run_linked(&mut ctl)
        .unwrap_err();

    assert_eq!(plain, linked);
    assert_eq!(plain, VmError::OutOfFuel { budget: 777 });
}

/// One pinned `LinkedEngine` outcome: the engine's decisions (installs,
/// flushes, bail-out, paths) and the cycle model charged for them, with
/// every `f64` as its bit pattern.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Golden {
    workload: &'static str,
    config: &'static str,
    opt: &'static str,
    scheme: &'static str,
    installed: u64,
    live: usize,
    flushes: u64,
    bailed: bool,
    paths: u64,
    insts: u64,
    guard_execs: u64,
    cached_bits: u64,
    /// `interp, trace, native, profiling, build, transitions`.
    cycle_bits: [u64; 6],
}

/// Outcomes of every workload at Smoke scale, under each `OptLevel` and
/// both schemes, for three configurations: the default at τ=50, and two
/// at τ=5 that make the rarer decisions happen at this scale — `flush`
/// (a two-fragment cache and a hair-trigger spike detector) and `bail`
/// (a bail-out after four installs). Any change to which paths the
/// engine profiles, predicts, installs, flushes or bails on shows up
/// here; the engine may get faster, never different. On a mismatch the
/// test prints the full table as it now reads.
#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    Golden { workload: "compress", config: "default", opt: "none", scheme: "net", installed: 3, live: 3, flushes: 0, bailed: false, paths: 164, insts: 60274, guard_execs: 4582, cached_bits: 0x3fe7bfa04b32a15d, cycle_bits: [0x40fef84000000000, 0x40e36a4cccccccd8, 0x0000000000000000, 0x4090400000000000, 0x40ae780000000000, 0x40d4cc4000000000] },
    Golden { workload: "compress", config: "default", opt: "none", scheme: "pp", installed: 3, live: 3, flushes: 0, bailed: false, paths: 392, insts: 60274, guard_execs: 3538, cached_bits: 0x3fe556da3c2612d9, cycle_bits: [0x4108c1e000000000, 0x40e0f14cccccccc6, 0x0000000000000000, 0x4104086000000000, 0x40aa400000000000, 0x40d1ae6000000000] },
    Golden { workload: "compress", config: "default", opt: "guards", scheme: "net", installed: 3, live: 3, flushes: 0, bailed: false, paths: 164, insts: 60274, guard_execs: 4582, cached_bits: 0x3fe7bfa04b32a15d, cycle_bits: [0x40fef84000000000, 0x40e36a4cccccccd8, 0x0000000000000000, 0x4090400000000000, 0x40ae780000000000, 0x40d4cc4000000000] },
    Golden { workload: "compress", config: "default", opt: "guards", scheme: "pp", installed: 3, live: 3, flushes: 0, bailed: false, paths: 392, insts: 60274, guard_execs: 3538, cached_bits: 0x3fe556da3c2612d9, cycle_bits: [0x4108c1e000000000, 0x40e0f14cccccccc6, 0x0000000000000000, 0x4104086000000000, 0x40aa400000000000, 0x40d1ae6000000000] },
    Golden { workload: "compress", config: "default", opt: "full", scheme: "net", installed: 3, live: 3, flushes: 0, bailed: false, paths: 164, insts: 60274, guard_execs: 4582, cached_bits: 0x3fe7bfa04b32a15d, cycle_bits: [0x40fef84000000000, 0x40e36a4cccccccd8, 0x0000000000000000, 0x4090400000000000, 0x40ae780000000000, 0x40d4cc4000000000] },
    Golden { workload: "compress", config: "default", opt: "full", scheme: "pp", installed: 3, live: 3, flushes: 0, bailed: false, paths: 392, insts: 60274, guard_execs: 3538, cached_bits: 0x3fe556da3c2612d9, cycle_bits: [0x4108c1e000000000, 0x40e0f14cccccccc6, 0x0000000000000000, 0x4104086000000000, 0x40aa400000000000, 0x40d1ae6000000000] },
    Golden { workload: "compress", config: "flush", opt: "none", scheme: "net", installed: 86, live: 2, flushes: 28, bailed: false, paths: 581, insts: 60274, guard_execs: 3675, cached_bits: 0x3fe30f800309cda1, cycle_bits: [0x410bf96000000000, 0x40e015b333333341, 0x0000000000000000, 0x409d900000000000, 0x40fc958000000000, 0x40d4286000000000] },
    Golden { workload: "compress", config: "flush", opt: "none", scheme: "pp", installed: 56, live: 2, flushes: 18, bailed: false, paths: 518, insts: 60274, guard_execs: 3302, cached_bits: 0x3fe3e42e3d317188, cycle_bits: [0x410bcea000000000, 0x40e0211999999997, 0x0000000000000000, 0x410a93a000000000, 0x40f00f4000000000, 0x40cd7cc000000000] },
    Golden { workload: "compress", config: "flush", opt: "guards", scheme: "net", installed: 86, live: 2, flushes: 28, bailed: false, paths: 581, insts: 60274, guard_execs: 3675, cached_bits: 0x3fe30f800309cda1, cycle_bits: [0x410bf96000000000, 0x40e015b333333341, 0x0000000000000000, 0x409d900000000000, 0x40fc958000000000, 0x40d4286000000000] },
    Golden { workload: "compress", config: "flush", opt: "guards", scheme: "pp", installed: 56, live: 2, flushes: 18, bailed: false, paths: 518, insts: 60274, guard_execs: 3302, cached_bits: 0x3fe3e42e3d317188, cycle_bits: [0x410bcea000000000, 0x40e0211999999997, 0x0000000000000000, 0x410a93a000000000, 0x40f00f4000000000, 0x40cd7cc000000000] },
    Golden { workload: "compress", config: "flush", opt: "full", scheme: "net", installed: 86, live: 2, flushes: 28, bailed: false, paths: 581, insts: 60274, guard_execs: 3675, cached_bits: 0x3fe30f800309cda1, cycle_bits: [0x410bf96000000000, 0x40e015b333333341, 0x0000000000000000, 0x409d900000000000, 0x40fc958000000000, 0x40d4286000000000] },
    Golden { workload: "compress", config: "flush", opt: "full", scheme: "pp", installed: 56, live: 2, flushes: 18, bailed: false, paths: 518, insts: 60274, guard_execs: 3302, cached_bits: 0x3fe3e42e3d317188, cycle_bits: [0x410bcea000000000, 0x40e0211999999997, 0x0000000000000000, 0x410a93a000000000, 0x40f00f4000000000, 0x40cd7cc000000000] },
    Golden { workload: "compress", config: "bail", opt: "none", scheme: "net", installed: 10, live: 10, flushes: 0, bailed: false, paths: 16, insts: 60274, guard_execs: 4985, cached_bits: 0x3feb5fd32f66f229, cycle_bits: [0x40f09e0000000000, 0x40e5543333333338, 0x0000000000000000, 0x406b000000000000, 0x40c4780000000000, 0x40d05d4000000000] },
    Golden { workload: "compress", config: "bail", opt: "none", scheme: "pp", installed: 13, live: 13, flushes: 0, bailed: false, paths: 39, insts: 60274, guard_execs: 5479, cached_bits: 0x3feec8932ad83db7, cycle_bits: [0x40d38f0000000000, 0x40e6e48000000000, 0x0000000000000000, 0x40cfe50000000000, 0x40ca900000000000, 0x40b46f0000000000] },
    Golden { workload: "compress", config: "bail", opt: "guards", scheme: "net", installed: 10, live: 10, flushes: 0, bailed: false, paths: 16, insts: 60274, guard_execs: 4985, cached_bits: 0x3feb5fd32f66f229, cycle_bits: [0x40f09e0000000000, 0x40e5543333333338, 0x0000000000000000, 0x406b000000000000, 0x40c4780000000000, 0x40d05d4000000000] },
    Golden { workload: "compress", config: "bail", opt: "guards", scheme: "pp", installed: 13, live: 13, flushes: 0, bailed: false, paths: 39, insts: 60274, guard_execs: 5479, cached_bits: 0x3feec8932ad83db7, cycle_bits: [0x40d38f0000000000, 0x40e6e48000000000, 0x0000000000000000, 0x40cfe50000000000, 0x40ca900000000000, 0x40b46f0000000000] },
    Golden { workload: "compress", config: "bail", opt: "full", scheme: "net", installed: 10, live: 10, flushes: 0, bailed: false, paths: 16, insts: 60274, guard_execs: 4985, cached_bits: 0x3feb5fd32f66f229, cycle_bits: [0x40f09e0000000000, 0x40e5543333333338, 0x0000000000000000, 0x406b000000000000, 0x40c4780000000000, 0x40d05d4000000000] },
    Golden { workload: "compress", config: "bail", opt: "full", scheme: "pp", installed: 13, live: 13, flushes: 0, bailed: false, paths: 39, insts: 60274, guard_execs: 5479, cached_bits: 0x3feec8932ad83db7, cycle_bits: [0x40d38f0000000000, 0x40e6e48000000000, 0x0000000000000000, 0x40cfe50000000000, 0x40ca900000000000, 0x40b46f0000000000] },
    Golden { workload: "gcc", config: "default", opt: "none", scheme: "net", installed: 2, live: 2, flushes: 0, bailed: false, paths: 78, insts: 142530, guard_execs: 5975, cached_bits: 0x3fccc567558f19e9, cycle_bits: [0x41321f3800000000, 0x40e103ffffffffdb, 0x0000000000000000, 0x407f800000000000, 0x4096d00000000000, 0x40ecf76000000000] },
    Golden { workload: "gcc", config: "default", opt: "none", scheme: "pp", installed: 2, live: 2, flushes: 0, bailed: false, paths: 189, insts: 142530, guard_execs: 5914, cached_bits: 0x3fcc79e48dc6ba84, cycle_bits: [0x4132290400000000, 0x40e0ef1999999973, 0x0000000000000000, 0x40f3f60000000000, 0x4096d00000000000, 0x40eb926000000000] },
    Golden { workload: "gcc", config: "default", opt: "guards", scheme: "net", installed: 2, live: 2, flushes: 0, bailed: false, paths: 78, insts: 142530, guard_execs: 5975, cached_bits: 0x3fccc567558f19e9, cycle_bits: [0x41321f3800000000, 0x40e103ffffffffdb, 0x0000000000000000, 0x407f800000000000, 0x4096d00000000000, 0x40ecf76000000000] },
    Golden { workload: "gcc", config: "default", opt: "guards", scheme: "pp", installed: 2, live: 2, flushes: 0, bailed: false, paths: 189, insts: 142530, guard_execs: 5914, cached_bits: 0x3fcc79e48dc6ba84, cycle_bits: [0x4132290400000000, 0x40e0ef1999999973, 0x0000000000000000, 0x40f3f60000000000, 0x4096d00000000000, 0x40eb926000000000] },
    Golden { workload: "gcc", config: "default", opt: "full", scheme: "net", installed: 2, live: 2, flushes: 0, bailed: false, paths: 78, insts: 142530, guard_execs: 5975, cached_bits: 0x3fccc567558f19e9, cycle_bits: [0x41321f3800000000, 0x40e103ffffffffdb, 0x0000000000000000, 0x407f800000000000, 0x4096d00000000000, 0x40ecf76000000000] },
    Golden { workload: "gcc", config: "default", opt: "full", scheme: "pp", installed: 2, live: 2, flushes: 0, bailed: false, paths: 189, insts: 142530, guard_execs: 5914, cached_bits: 0x3fcc79e48dc6ba84, cycle_bits: [0x4132290400000000, 0x40e0ef1999999973, 0x0000000000000000, 0x40f3f60000000000, 0x4096d00000000000, 0x40eb926000000000] },
    Golden { workload: "gcc", config: "flush", opt: "none", scheme: "net", installed: 2, live: 2, flushes: 0, bailed: false, paths: 9, insts: 142530, guard_execs: 6044, cached_bits: 0x3fcd36ab813ba900, cycle_bits: [0x4131f8f800000000, 0x40e1559999999975, 0x0000000000000000, 0x404a000000000000, 0x4096d00000000000, 0x40ec6c9000000000] },
    Golden { workload: "gcc", config: "flush", opt: "none", scheme: "pp", installed: 2, live: 2, flushes: 0, bailed: false, paths: 20, insts: 142530, guard_execs: 6037, cached_bits: 0x3fcd2e0137f24e51, cycle_bits: [0x4131fa8400000000, 0x40e1524ccccccca7, 0x0000000000000000, 0x40c0440000000000, 0x4096d00000000000, 0x40ebd2e000000000] },
    Golden { workload: "gcc", config: "flush", opt: "guards", scheme: "net", installed: 2, live: 2, flushes: 0, bailed: false, paths: 9, insts: 142530, guard_execs: 6044, cached_bits: 0x3fcd36ab813ba900, cycle_bits: [0x4131f8f800000000, 0x40e1559999999975, 0x0000000000000000, 0x404a000000000000, 0x4096d00000000000, 0x40ec6c9000000000] },
    Golden { workload: "gcc", config: "flush", opt: "guards", scheme: "pp", installed: 2, live: 2, flushes: 0, bailed: false, paths: 20, insts: 142530, guard_execs: 6037, cached_bits: 0x3fcd2e0137f24e51, cycle_bits: [0x4131fa8400000000, 0x40e1524ccccccca7, 0x0000000000000000, 0x40c0440000000000, 0x4096d00000000000, 0x40ebd2e000000000] },
    Golden { workload: "gcc", config: "flush", opt: "full", scheme: "net", installed: 2, live: 2, flushes: 0, bailed: false, paths: 9, insts: 142530, guard_execs: 6044, cached_bits: 0x3fcd36ab813ba900, cycle_bits: [0x4131f8f800000000, 0x40e1559999999975, 0x0000000000000000, 0x404a000000000000, 0x4096d00000000000, 0x40ec6c9000000000] },
    Golden { workload: "gcc", config: "flush", opt: "full", scheme: "pp", installed: 2, live: 2, flushes: 0, bailed: false, paths: 20, insts: 142530, guard_execs: 6037, cached_bits: 0x3fcd2e0137f24e51, cycle_bits: [0x4131fa8400000000, 0x40e1524ccccccca7, 0x0000000000000000, 0x40c0440000000000, 0x4096d00000000000, 0x40ebd2e000000000] },
    Golden { workload: "gcc", config: "bail", opt: "none", scheme: "net", installed: 2, live: 2, flushes: 0, bailed: false, paths: 9, insts: 142530, guard_execs: 6044, cached_bits: 0x3fcd36ab813ba900, cycle_bits: [0x4131f8f800000000, 0x40e1559999999975, 0x0000000000000000, 0x404a000000000000, 0x4096d00000000000, 0x40ec6c9000000000] },
    Golden { workload: "gcc", config: "bail", opt: "none", scheme: "pp", installed: 2, live: 2, flushes: 0, bailed: false, paths: 20, insts: 142530, guard_execs: 6037, cached_bits: 0x3fcd2e0137f24e51, cycle_bits: [0x4131fa8400000000, 0x40e1524ccccccca7, 0x0000000000000000, 0x40c0440000000000, 0x4096d00000000000, 0x40ebd2e000000000] },
    Golden { workload: "gcc", config: "bail", opt: "guards", scheme: "net", installed: 2, live: 2, flushes: 0, bailed: false, paths: 9, insts: 142530, guard_execs: 6044, cached_bits: 0x3fcd36ab813ba900, cycle_bits: [0x4131f8f800000000, 0x40e1559999999975, 0x0000000000000000, 0x404a000000000000, 0x4096d00000000000, 0x40ec6c9000000000] },
    Golden { workload: "gcc", config: "bail", opt: "guards", scheme: "pp", installed: 2, live: 2, flushes: 0, bailed: false, paths: 20, insts: 142530, guard_execs: 6037, cached_bits: 0x3fcd2e0137f24e51, cycle_bits: [0x4131fa8400000000, 0x40e1524ccccccca7, 0x0000000000000000, 0x40c0440000000000, 0x4096d00000000000, 0x40ebd2e000000000] },
    Golden { workload: "gcc", config: "bail", opt: "full", scheme: "net", installed: 2, live: 2, flushes: 0, bailed: false, paths: 9, insts: 142530, guard_execs: 6044, cached_bits: 0x3fcd36ab813ba900, cycle_bits: [0x4131f8f800000000, 0x40e1559999999975, 0x0000000000000000, 0x404a000000000000, 0x4096d00000000000, 0x40ec6c9000000000] },
    Golden { workload: "gcc", config: "bail", opt: "full", scheme: "pp", installed: 2, live: 2, flushes: 0, bailed: false, paths: 20, insts: 142530, guard_execs: 6037, cached_bits: 0x3fcd2e0137f24e51, cycle_bits: [0x4131fa8400000000, 0x40e1524ccccccca7, 0x0000000000000000, 0x40c0440000000000, 0x4096d00000000000, 0x40ebd2e000000000] },
    Golden { workload: "go", config: "default", opt: "none", scheme: "net", installed: 3, live: 3, flushes: 0, bailed: false, paths: 173, insts: 293539, guard_execs: 7482, cached_bits: 0x3fc491c16aa4c699, cycle_bits: [0x41464ca600000000, 0x40e3850000000003, 0x0000000000000000, 0x4085600000000000, 0x40a5180000000000, 0x40f151f000000000] },
    Golden { workload: "go", config: "default", opt: "none", scheme: "pp", installed: 3, live: 3, flushes: 0, bailed: false, paths: 221, insts: 293539, guard_execs: 7420, cached_bits: 0x3fc4648370ce9802, cycle_bits: [0x4146578000000000, 0x40e356b333333333, 0x0000000000000000, 0x40f7d44000000000, 0x40a5180000000000, 0x40f1371800000000] },
    Golden { workload: "go", config: "default", opt: "guards", scheme: "net", installed: 3, live: 3, flushes: 0, bailed: false, paths: 173, insts: 293539, guard_execs: 7482, cached_bits: 0x3fc491c16aa4c699, cycle_bits: [0x41464ca600000000, 0x40e3850000000003, 0x0000000000000000, 0x4085600000000000, 0x40a5180000000000, 0x40f151f000000000] },
    Golden { workload: "go", config: "default", opt: "guards", scheme: "pp", installed: 3, live: 3, flushes: 0, bailed: false, paths: 221, insts: 293539, guard_execs: 7420, cached_bits: 0x3fc4648370ce9802, cycle_bits: [0x4146578000000000, 0x40e356b333333333, 0x0000000000000000, 0x40f7d44000000000, 0x40a5180000000000, 0x40f1371800000000] },
    Golden { workload: "go", config: "default", opt: "full", scheme: "net", installed: 3, live: 3, flushes: 0, bailed: false, paths: 173, insts: 293539, guard_execs: 7482, cached_bits: 0x3fc491c16aa4c699, cycle_bits: [0x41464ca600000000, 0x40e3850000000003, 0x0000000000000000, 0x4085600000000000, 0x40a5180000000000, 0x40f151f000000000] },
    Golden { workload: "go", config: "default", opt: "full", scheme: "pp", installed: 3, live: 3, flushes: 0, bailed: false, paths: 221, insts: 293539, guard_execs: 7420, cached_bits: 0x3fc4648370ce9802, cycle_bits: [0x4146578000000000, 0x40e356b333333333, 0x0000000000000000, 0x40f7d44000000000, 0x40a5180000000000, 0x40f1371800000000] },
    Golden { workload: "go", config: "flush", opt: "none", scheme: "net", installed: 80, live: 2, flushes: 26, bailed: false, paths: 396, insts: 293539, guard_execs: 7514, cached_bits: 0x3fc3fc9916f6a4ff, cycle_bits: [0x41466e9c00000000, 0x40e2f41999999996, 0x0000000000000000, 0x40a0880000000000, 0x40ffa18000000000, 0x40f22b3800000000] },
    Golden { workload: "go", config: "flush", opt: "none", scheme: "pp", installed: 53, live: 2, flushes: 17, bailed: false, paths: 375, insts: 293539, guard_execs: 7238, cached_bits: 0x3fc3c0dd4319db7c, cycle_bits: [0x41467e3200000000, 0x40e2b19999999994, 0x0000000000000000, 0x4104fa7000000000, 0x40e7728000000000, 0x40f15b1000000000] },
    Golden { workload: "go", config: "flush", opt: "guards", scheme: "net", installed: 80, live: 2, flushes: 26, bailed: false, paths: 396, insts: 293539, guard_execs: 7514, cached_bits: 0x3fc3fc9916f6a4ff, cycle_bits: [0x41466e9c00000000, 0x40e2f41999999996, 0x0000000000000000, 0x40a0880000000000, 0x40ffa18000000000, 0x40f22b3800000000] },
    Golden { workload: "go", config: "flush", opt: "guards", scheme: "pp", installed: 53, live: 2, flushes: 17, bailed: false, paths: 375, insts: 293539, guard_execs: 7238, cached_bits: 0x3fc3c0dd4319db7c, cycle_bits: [0x41467e3200000000, 0x40e2b19999999994, 0x0000000000000000, 0x4104fa7000000000, 0x40e7728000000000, 0x40f15b1000000000] },
    Golden { workload: "go", config: "flush", opt: "full", scheme: "net", installed: 80, live: 2, flushes: 26, bailed: false, paths: 396, insts: 293539, guard_execs: 7514, cached_bits: 0x3fc3fc9916f6a4ff, cycle_bits: [0x41466e9c00000000, 0x40e2f41999999996, 0x0000000000000000, 0x40a0880000000000, 0x40ffa18000000000, 0x40f22b3800000000] },
    Golden { workload: "go", config: "flush", opt: "full", scheme: "pp", installed: 53, live: 2, flushes: 17, bailed: false, paths: 375, insts: 293539, guard_execs: 7238, cached_bits: 0x3fc3c0dd4319db7c, cycle_bits: [0x41467e3200000000, 0x40e2b19999999994, 0x0000000000000000, 0x4104fa7000000000, 0x40e7728000000000, 0x40f15b1000000000] },
    Golden { workload: "go", config: "bail", opt: "none", scheme: "net", installed: 3, live: 3, flushes: 0, bailed: false, paths: 12, insts: 293539, guard_execs: 7619, cached_bits: 0x3fc543307a78c551, cycle_bits: [0x414629a800000000, 0x40e41a4cccccccd8, 0x0000000000000000, 0x4050000000000000, 0x40a5180000000000, 0x40f133a800000000] },
    Golden { workload: "go", config: "bail", opt: "none", scheme: "pp", installed: 3, live: 3, flushes: 0, bailed: false, paths: 20, insts: 293539, guard_execs: 7610, cached_bits: 0x3fc53ab4dba09c94, cycle_bits: [0x41462aec00000000, 0x40e414e666666671, 0x0000000000000000, 0x40c01b0000000000, 0x40a5180000000000, 0x40f1231800000000] },
    Golden { workload: "go", config: "bail", opt: "guards", scheme: "net", installed: 3, live: 3, flushes: 0, bailed: false, paths: 12, insts: 293539, guard_execs: 7619, cached_bits: 0x3fc543307a78c551, cycle_bits: [0x414629a800000000, 0x40e41a4cccccccd8, 0x0000000000000000, 0x4050000000000000, 0x40a5180000000000, 0x40f133a800000000] },
    Golden { workload: "go", config: "bail", opt: "guards", scheme: "pp", installed: 3, live: 3, flushes: 0, bailed: false, paths: 20, insts: 293539, guard_execs: 7610, cached_bits: 0x3fc53ab4dba09c94, cycle_bits: [0x41462aec00000000, 0x40e414e666666671, 0x0000000000000000, 0x40c01b0000000000, 0x40a5180000000000, 0x40f1231800000000] },
    Golden { workload: "go", config: "bail", opt: "full", scheme: "net", installed: 3, live: 3, flushes: 0, bailed: false, paths: 12, insts: 293539, guard_execs: 7619, cached_bits: 0x3fc543307a78c551, cycle_bits: [0x414629a800000000, 0x40e41a4cccccccd8, 0x0000000000000000, 0x4050000000000000, 0x40a5180000000000, 0x40f133a800000000] },
    Golden { workload: "go", config: "bail", opt: "full", scheme: "pp", installed: 3, live: 3, flushes: 0, bailed: false, paths: 20, insts: 293539, guard_execs: 7610, cached_bits: 0x3fc53ab4dba09c94, cycle_bits: [0x41462aec00000000, 0x40e414e666666671, 0x0000000000000000, 0x40c01b0000000000, 0x40a5180000000000, 0x40f1231800000000] },
    Golden { workload: "ijpeg", config: "default", opt: "none", scheme: "net", installed: 17, live: 17, flushes: 0, bailed: false, paths: 215, insts: 347989, guard_execs: 40526, cached_bits: 0x3fe329f3a8120bb6, cycle_bits: [0x4134c4fc00000000, 0x4106e8000000001b, 0x0000000000000000, 0x40b1f00000000000, 0x40fd114000000000, 0x40e7aff000000000] },
    Golden { workload: "ijpeg", config: "default", opt: "none", scheme: "pp", installed: 13, live: 13, flushes: 0, bailed: false, paths: 560, insts: 347989, guard_execs: 18834, cached_bits: 0x3fd36f91e4b9ab70, cycle_bits: [0x414229e800000000, 0x40fd37a666666669, 0x0000000000000000, 0x411bf46800000000, 0x40f237c000000000, 0x40e0ca0000000000] },
    Golden { workload: "ijpeg", config: "default", opt: "guards", scheme: "net", installed: 17, live: 17, flushes: 0, bailed: false, paths: 215, insts: 347989, guard_execs: 40086, cached_bits: 0x3fe329f3a8120bb6, cycle_bits: [0x4134c4fc00000000, 0x4106e8000000001b, 0x0000000000000000, 0x40b1f00000000000, 0x40fd114000000000, 0x40e7aff000000000] },
    Golden { workload: "ijpeg", config: "default", opt: "guards", scheme: "pp", installed: 13, live: 13, flushes: 0, bailed: false, paths: 560, insts: 347989, guard_execs: 18705, cached_bits: 0x3fd36f91e4b9ab70, cycle_bits: [0x414229e800000000, 0x40fd37a666666669, 0x0000000000000000, 0x411bf46800000000, 0x40f237c000000000, 0x40e0ca0000000000] },
    Golden { workload: "ijpeg", config: "default", opt: "full", scheme: "net", installed: 17, live: 17, flushes: 0, bailed: false, paths: 215, insts: 347989, guard_execs: 40086, cached_bits: 0x3fe329f3a8120bb6, cycle_bits: [0x4134c4fc00000000, 0x4106e8000000001b, 0x0000000000000000, 0x40b1f00000000000, 0x40fd114000000000, 0x40e7aff000000000] },
    Golden { workload: "ijpeg", config: "default", opt: "full", scheme: "pp", installed: 13, live: 13, flushes: 0, bailed: false, paths: 560, insts: 347989, guard_execs: 18705, cached_bits: 0x3fd36f91e4b9ab70, cycle_bits: [0x414229e800000000, 0x40fd37a666666669, 0x0000000000000000, 0x411bf46800000000, 0x40f237c000000000, 0x40e0ca0000000000] },
    Golden { workload: "ijpeg", config: "flush", opt: "none", scheme: "net", installed: 449, live: 2, flushes: 149, bailed: false, paths: 2669, insts: 347989, guard_execs: 7350, cached_bits: 0x3fc0599667a73345, cycle_bits: [0x4148cd3800000000, 0x40ee1ce666666644, 0x0000000000000000, 0x40c54e0000000000, 0x414465ae00000000, 0x40cf48c000000000] },
    Golden { workload: "ijpeg", config: "flush", opt: "none", scheme: "pp", installed: 85, live: 2, flushes: 28, bailed: false, paths: 1429, insts: 347989, guard_execs: 8474, cached_bits: 0x3fc32198fcf3b0dd, cycle_bits: [0x41468d8600000000, 0x40f3da99999999a3, 0x0000000000000000, 0x413144c800000000, 0x410f388000000000, 0x40cbba8000000000] },
    Golden { workload: "ijpeg", config: "flush", opt: "guards", scheme: "net", installed: 449, live: 2, flushes: 149, bailed: false, paths: 2669, insts: 347989, guard_execs: 7350, cached_bits: 0x3fc0599667a73345, cycle_bits: [0x4148cd3800000000, 0x40ee1ce666666644, 0x0000000000000000, 0x40c54e0000000000, 0x414465ae00000000, 0x40cf48c000000000] },
    Golden { workload: "ijpeg", config: "flush", opt: "guards", scheme: "pp", installed: 85, live: 2, flushes: 28, bailed: false, paths: 1429, insts: 347989, guard_execs: 8474, cached_bits: 0x3fc32198fcf3b0dd, cycle_bits: [0x41468d8600000000, 0x40f3da99999999a3, 0x0000000000000000, 0x413144c800000000, 0x410f388000000000, 0x40cbba8000000000] },
    Golden { workload: "ijpeg", config: "flush", opt: "full", scheme: "net", installed: 449, live: 2, flushes: 149, bailed: false, paths: 2669, insts: 347989, guard_execs: 7350, cached_bits: 0x3fc0599667a73345, cycle_bits: [0x4148cd3800000000, 0x40ee1ce666666644, 0x0000000000000000, 0x40c54e0000000000, 0x414465ae00000000, 0x40cf48c000000000] },
    Golden { workload: "ijpeg", config: "flush", opt: "full", scheme: "pp", installed: 85, live: 2, flushes: 28, bailed: false, paths: 1429, insts: 347989, guard_execs: 8474, cached_bits: 0x3fc32198fcf3b0dd, cycle_bits: [0x41468d8600000000, 0x40f3da99999999a3, 0x0000000000000000, 0x413144c800000000, 0x410f388000000000, 0x40cbba8000000000] },
    Golden { workload: "ijpeg", config: "bail", opt: "none", scheme: "net", installed: 40, live: 40, flushes: 0, bailed: false, paths: 24, insts: 347989, guard_execs: 63656, cached_bits: 0x3fee2258b1c3accc, cycle_bits: [0x4109620000000000, 0x4110254333333337, 0x0000000000000000, 0x408dc00000000000, 0x4100946000000000, 0x40d9172000000000] },
    Golden { workload: "ijpeg", config: "bail", opt: "none", scheme: "pp", installed: 41, live: 41, flushes: 0, bailed: false, paths: 58, insts: 347989, guard_execs: 62210, cached_bits: 0x3fed508a19b0a3d3, cycle_bits: [0x41117c3000000000, 0x410fa6e666666659, 0x0000000000000000, 0x40e6b5c000000000, 0x410235e000000000, 0x40d68fc000000000] },
    Golden { workload: "ijpeg", config: "bail", opt: "guards", scheme: "net", installed: 40, live: 40, flushes: 0, bailed: false, paths: 24, insts: 347989, guard_execs: 63076, cached_bits: 0x3fee2258b1c3accc, cycle_bits: [0x4109620000000000, 0x4110254333333337, 0x0000000000000000, 0x408dc00000000000, 0x4100946000000000, 0x40d9172000000000] },
    Golden { workload: "ijpeg", config: "bail", opt: "guards", scheme: "pp", installed: 41, live: 41, flushes: 0, bailed: false, paths: 58, insts: 347989, guard_execs: 61520, cached_bits: 0x3fed508a19b0a3d3, cycle_bits: [0x41117c3000000000, 0x410fa6e666666659, 0x0000000000000000, 0x40e6b5c000000000, 0x410235e000000000, 0x40d68fc000000000] },
    Golden { workload: "ijpeg", config: "bail", opt: "full", scheme: "net", installed: 40, live: 40, flushes: 0, bailed: false, paths: 24, insts: 347989, guard_execs: 63076, cached_bits: 0x3fee2258b1c3accc, cycle_bits: [0x4109620000000000, 0x4110254333333337, 0x0000000000000000, 0x408dc00000000000, 0x4100946000000000, 0x40d9172000000000] },
    Golden { workload: "ijpeg", config: "bail", opt: "full", scheme: "pp", installed: 41, live: 41, flushes: 0, bailed: false, paths: 58, insts: 347989, guard_execs: 61520, cached_bits: 0x3fed508a19b0a3d3, cycle_bits: [0x41117c3000000000, 0x410fa6e666666659, 0x0000000000000000, 0x40e6b5c000000000, 0x410235e000000000, 0x40d68fc000000000] },
    Golden { workload: "li", config: "default", opt: "none", scheme: "net", installed: 20, live: 20, flushes: 0, bailed: false, paths: 834, insts: 556809, guard_execs: 77763, cached_bits: 0x3fee0ba1568ccf07, cycle_bits: [0x4112606000000000, 0x4119f67ccccccce4, 0x0000000000000000, 0x40b2400000000000, 0x40c91e0000000000, 0x410f286000000000] },
    Golden { workload: "li", config: "default", opt: "none", scheme: "pp", installed: 22, live: 22, flushes: 0, bailed: false, paths: 1078, insts: 556809, guard_execs: 77064, cached_bits: 0x3fed7d7a5ad88cc9, cycle_bits: [0x411707c000000000, 0x4119a7100000000e, 0x0000000000000000, 0x411adf2800000000, 0x40cb260000000000, 0x4113258600000000] },
    Golden { workload: "li", config: "default", opt: "guards", scheme: "net", installed: 20, live: 20, flushes: 0, bailed: false, paths: 834, insts: 556809, guard_execs: 77763, cached_bits: 0x3fee0ba1568ccf07, cycle_bits: [0x4112606000000000, 0x4119f67ccccccce4, 0x0000000000000000, 0x40b2400000000000, 0x40c91e0000000000, 0x410f286000000000] },
    Golden { workload: "li", config: "default", opt: "guards", scheme: "pp", installed: 22, live: 22, flushes: 0, bailed: false, paths: 1078, insts: 556809, guard_execs: 77064, cached_bits: 0x3fed7d7a5ad88cc9, cycle_bits: [0x411707c000000000, 0x4119a7100000000e, 0x0000000000000000, 0x411adf2800000000, 0x40cb260000000000, 0x4113258600000000] },
    Golden { workload: "li", config: "default", opt: "full", scheme: "net", installed: 20, live: 20, flushes: 0, bailed: false, paths: 834, insts: 556809, guard_execs: 77763, cached_bits: 0x3fee0ba1568ccf07, cycle_bits: [0x4112606000000000, 0x4119f67ccccccce4, 0x0000000000000000, 0x40b2400000000000, 0x40c91e0000000000, 0x410f286000000000] },
    Golden { workload: "li", config: "default", opt: "full", scheme: "pp", installed: 22, live: 22, flushes: 0, bailed: false, paths: 1078, insts: 556809, guard_execs: 77064, cached_bits: 0x3fed7d7a5ad88cc9, cycle_bits: [0x411707c000000000, 0x4119a7100000000e, 0x0000000000000000, 0x411adf2800000000, 0x40cb260000000000, 0x4113258600000000] },
    Golden { workload: "li", config: "flush", opt: "none", scheme: "net", installed: 4836, live: 2, flushes: 1612, bailed: false, paths: 31215, insts: 556809, guard_execs: 46000, cached_bits: 0x3fd45433184cc344, cycle_bits: [0x414dec2000000000, 0x4106756cccccceef, 0x0000000000000000, 0x410a85c000000000, 0x414ede6c00000000, 0x4136c48a80000000] },
    Golden { workload: "li", config: "flush", opt: "none", scheme: "pp", installed: 3104, live: 1, flushes: 1221, bailed: false, paths: 50544, insts: 556809, guard_execs: 20885, cached_bits: 0x3fc3c5e422e1840b, cycle_bits: [0x4154411a00000000, 0x40f6555999999a00, 0x0000000000000000, 0x4173ae32a0000000, 0x4142d37e00000000, 0x4125aad100000000] },
    Golden { workload: "li", config: "flush", opt: "guards", scheme: "net", installed: 4836, live: 2, flushes: 1612, bailed: false, paths: 31215, insts: 556809, guard_execs: 46000, cached_bits: 0x3fd45433184cc344, cycle_bits: [0x414dec2000000000, 0x4106756cccccceef, 0x0000000000000000, 0x410a85c000000000, 0x414ede6c00000000, 0x4136c48a80000000] },
    Golden { workload: "li", config: "flush", opt: "guards", scheme: "pp", installed: 3104, live: 1, flushes: 1221, bailed: false, paths: 50544, insts: 556809, guard_execs: 20885, cached_bits: 0x3fc3c5e422e1840b, cycle_bits: [0x4154411a00000000, 0x40f6555999999a00, 0x0000000000000000, 0x4173ae32a0000000, 0x4142d37e00000000, 0x4125aad100000000] },
    Golden { workload: "li", config: "flush", opt: "full", scheme: "net", installed: 4836, live: 2, flushes: 1612, bailed: false, paths: 31215, insts: 556809, guard_execs: 46000, cached_bits: 0x3fd45433184cc344, cycle_bits: [0x414dec2000000000, 0x4106756cccccceef, 0x0000000000000000, 0x410a85c000000000, 0x414ede6c00000000, 0x4136c48a80000000] },
    Golden { workload: "li", config: "flush", opt: "full", scheme: "pp", installed: 3104, live: 1, flushes: 1221, bailed: false, paths: 50544, insts: 556809, guard_execs: 20885, cached_bits: 0x3fc3c5e422e1840b, cycle_bits: [0x4154411a00000000, 0x40f6555999999a00, 0x0000000000000000, 0x4173ae32a0000000, 0x4142d37e00000000, 0x4125aad100000000] },
    Golden { workload: "li", config: "bail", opt: "none", scheme: "net", installed: 6, live: 6, flushes: 0, bailed: true, paths: 32, insts: 556809, guard_execs: 74, cached_bits: 0x3fdfd86cd4b708a8, cycle_bits: [0x40af080000000000, 0x4078333333333336, 0x4120f7b400000000, 0x406a000000000000, 0x40b0e00000000000, 0x40970c0000000000] },
    Golden { workload: "li", config: "bail", opt: "none", scheme: "pp", installed: 5, live: 5, flushes: 0, bailed: true, paths: 64, insts: 556809, guard_execs: 81, cached_bits: 0x3fd8d6d33ea8479c, cycle_bits: [0x40bb540000000000, 0x4079666666666669, 0x4120f58c00000000, 0x40d9840000000000, 0x40b0400000000000, 0x4099ee0000000000] },
    Golden { workload: "li", config: "bail", opt: "guards", scheme: "net", installed: 6, live: 6, flushes: 0, bailed: true, paths: 32, insts: 556809, guard_execs: 74, cached_bits: 0x3fdfd86cd4b708a8, cycle_bits: [0x40af080000000000, 0x4078333333333336, 0x4120f7b400000000, 0x406a000000000000, 0x40b0e00000000000, 0x40970c0000000000] },
    Golden { workload: "li", config: "bail", opt: "guards", scheme: "pp", installed: 5, live: 5, flushes: 0, bailed: true, paths: 64, insts: 556809, guard_execs: 81, cached_bits: 0x3fd8d6d33ea8479c, cycle_bits: [0x40bb540000000000, 0x4079666666666669, 0x4120f58c00000000, 0x40d9840000000000, 0x40b0400000000000, 0x4099ee0000000000] },
    Golden { workload: "li", config: "bail", opt: "full", scheme: "net", installed: 6, live: 6, flushes: 0, bailed: true, paths: 32, insts: 556809, guard_execs: 74, cached_bits: 0x3fdfd86cd4b708a8, cycle_bits: [0x40af080000000000, 0x4078333333333336, 0x4120f7b400000000, 0x406a000000000000, 0x40b0e00000000000, 0x40970c0000000000] },
    Golden { workload: "li", config: "bail", opt: "full", scheme: "pp", installed: 5, live: 5, flushes: 0, bailed: true, paths: 64, insts: 556809, guard_execs: 81, cached_bits: 0x3fd8d6d33ea8479c, cycle_bits: [0x40bb540000000000, 0x4079666666666669, 0x4120f58c00000000, 0x40d9840000000000, 0x40b0400000000000, 0x4099ee0000000000] },
    Golden { workload: "m88ksim", config: "default", opt: "none", scheme: "net", installed: 20, live: 20, flushes: 0, bailed: false, paths: 52, insts: 100343, guard_execs: 13841, cached_bits: 0x3fe8c4b68e7221e9, cycle_bits: [0x4109956000000000, 0x40f02fe666666676, 0x0000000000000000, 0x40b4dc0000000000, 0x40d9eb0000000000, 0x40eb8bc000000000] },
    Golden { workload: "m88ksim", config: "default", opt: "none", scheme: "pp", installed: 19, live: 19, flushes: 0, bailed: false, paths: 638, insts: 100343, guard_execs: 10477, cached_bits: 0x3fe2415edd18148b, cycle_bits: [0x411c0bc000000000, 0x40e83d19999999ad, 0x0000000000000000, 0x41117d4800000000, 0x40d8e20000000000, 0x40e99c2000000000] },
    Golden { workload: "m88ksim", config: "default", opt: "guards", scheme: "net", installed: 20, live: 20, flushes: 0, bailed: false, paths: 52, insts: 100343, guard_execs: 13841, cached_bits: 0x3fe8c4b68e7221e9, cycle_bits: [0x4109956000000000, 0x40f02fe666666676, 0x0000000000000000, 0x40b4dc0000000000, 0x40d9eb0000000000, 0x40eb8bc000000000] },
    Golden { workload: "m88ksim", config: "default", opt: "guards", scheme: "pp", installed: 19, live: 19, flushes: 0, bailed: false, paths: 638, insts: 100343, guard_execs: 10477, cached_bits: 0x3fe2415edd18148b, cycle_bits: [0x411c0bc000000000, 0x40e83d19999999ad, 0x0000000000000000, 0x41117d4800000000, 0x40d8e20000000000, 0x40e99c2000000000] },
    Golden { workload: "m88ksim", config: "default", opt: "full", scheme: "net", installed: 20, live: 20, flushes: 0, bailed: false, paths: 52, insts: 100343, guard_execs: 13841, cached_bits: 0x3fe8c4b68e7221e9, cycle_bits: [0x4109956000000000, 0x40f02fe666666676, 0x0000000000000000, 0x40b4dc0000000000, 0x40d9eb0000000000, 0x40eb8bc000000000] },
    Golden { workload: "m88ksim", config: "default", opt: "full", scheme: "pp", installed: 19, live: 19, flushes: 0, bailed: false, paths: 638, insts: 100343, guard_execs: 10477, cached_bits: 0x3fe2415edd18148b, cycle_bits: [0x411c0bc000000000, 0x40e83d19999999ad, 0x0000000000000000, 0x41117d4800000000, 0x40d8e20000000000, 0x40e99c2000000000] },
    Golden { workload: "m88ksim", config: "flush", opt: "none", scheme: "net", installed: 340, live: 1, flushes: 113, bailed: false, paths: 685, insts: 100343, guard_execs: 6714, cached_bits: 0x3fd481a17bbb6fef, cycle_bits: [0x4127ac9000000000, 0x40dbe366666666de, 0x0000000000000000, 0x40c51a0000000000, 0x41257d9000000000, 0x40f5e5f000000000] },
    Golden { workload: "m88ksim", config: "flush", opt: "none", scheme: "pp", installed: 97, live: 1, flushes: 32, bailed: false, paths: 1810, insts: 100343, guard_execs: 3246, cached_bits: 0x3fc41cf607b9dd42, cycle_bits: [0x412e4e9000000000, 0x40cb79fffffffff5, 0x0000000000000000, 0x412880c000000000, 0x41096f4000000000, 0x40e15da000000000] },
    Golden { workload: "m88ksim", config: "flush", opt: "guards", scheme: "net", installed: 340, live: 1, flushes: 113, bailed: false, paths: 685, insts: 100343, guard_execs: 6714, cached_bits: 0x3fd481a17bbb6fef, cycle_bits: [0x4127ac9000000000, 0x40dbe366666666de, 0x0000000000000000, 0x40c51a0000000000, 0x41257d9000000000, 0x40f5e5f000000000] },
    Golden { workload: "m88ksim", config: "flush", opt: "guards", scheme: "pp", installed: 97, live: 1, flushes: 32, bailed: false, paths: 1810, insts: 100343, guard_execs: 3246, cached_bits: 0x3fc41cf607b9dd42, cycle_bits: [0x412e4e9000000000, 0x40cb79fffffffff5, 0x0000000000000000, 0x412880c000000000, 0x41096f4000000000, 0x40e15da000000000] },
    Golden { workload: "m88ksim", config: "flush", opt: "full", scheme: "net", installed: 340, live: 1, flushes: 113, bailed: false, paths: 685, insts: 100343, guard_execs: 6714, cached_bits: 0x3fd481a17bbb6fef, cycle_bits: [0x4127ac9000000000, 0x40dbe366666666de, 0x0000000000000000, 0x40c51a0000000000, 0x41257d9000000000, 0x40f5e5f000000000] },
    Golden { workload: "m88ksim", config: "flush", opt: "full", scheme: "pp", installed: 97, live: 1, flushes: 32, bailed: false, paths: 1810, insts: 100343, guard_execs: 3246, cached_bits: 0x3fc41cf607b9dd42, cycle_bits: [0x412e4e9000000000, 0x40cb79fffffffff5, 0x0000000000000000, 0x412880c000000000, 0x41096f4000000000, 0x40e15da000000000] },
    Golden { workload: "m88ksim", config: "bail", opt: "none", scheme: "net", installed: 40, live: 40, flushes: 0, bailed: false, paths: 7, insts: 100343, guard_execs: 15731, cached_bits: 0x3fef03371f875828, cycle_bits: [0x40da8e0000000000, 0x40f327d99999999b, 0x0000000000000000, 0x408a400000000000, 0x40e3d30000000000, 0x40c9e70000000000] },
    Golden { workload: "m88ksim", config: "bail", opt: "none", scheme: "pp", installed: 41, live: 41, flushes: 0, bailed: false, paths: 69, insts: 100343, guard_execs: 15398, cached_bits: 0x3fee4e9a1ab1b2e1, cycle_bits: [0x40ea3e8000000000, 0x40f2b93333333334, 0x0000000000000000, 0x40de310000000000, 0x40e4500000000000, 0x40c9234000000000] },
    Golden { workload: "m88ksim", config: "bail", opt: "guards", scheme: "net", installed: 40, live: 40, flushes: 0, bailed: false, paths: 7, insts: 100343, guard_execs: 15731, cached_bits: 0x3fef03371f875828, cycle_bits: [0x40da8e0000000000, 0x40f327d99999999b, 0x0000000000000000, 0x408a400000000000, 0x40e3d30000000000, 0x40c9e70000000000] },
    Golden { workload: "m88ksim", config: "bail", opt: "guards", scheme: "pp", installed: 41, live: 41, flushes: 0, bailed: false, paths: 69, insts: 100343, guard_execs: 15398, cached_bits: 0x3fee4e9a1ab1b2e1, cycle_bits: [0x40ea3e8000000000, 0x40f2b93333333334, 0x0000000000000000, 0x40de310000000000, 0x40e4500000000000, 0x40c9234000000000] },
    Golden { workload: "m88ksim", config: "bail", opt: "full", scheme: "net", installed: 40, live: 40, flushes: 0, bailed: false, paths: 7, insts: 100343, guard_execs: 15731, cached_bits: 0x3fef03371f875828, cycle_bits: [0x40da8e0000000000, 0x40f327d99999999b, 0x0000000000000000, 0x408a400000000000, 0x40e3d30000000000, 0x40c9e70000000000] },
    Golden { workload: "m88ksim", config: "bail", opt: "full", scheme: "pp", installed: 41, live: 41, flushes: 0, bailed: false, paths: 69, insts: 100343, guard_execs: 15398, cached_bits: 0x3fee4e9a1ab1b2e1, cycle_bits: [0x40ea3e8000000000, 0x40f2b93333333334, 0x0000000000000000, 0x40de310000000000, 0x40e4500000000000, 0x40c9234000000000] },
    Golden { workload: "perl", config: "default", opt: "none", scheme: "net", installed: 11, live: 11, flushes: 0, bailed: false, paths: 231, insts: 29203, guard_execs: 3200, cached_bits: 0x3fe03317f33a0331, cycle_bits: [0x4106218000000000, 0x40c605ffffffffff, 0x0000000000000000, 0x40a6a80000000000, 0x40d0c70000000000, 0x40d7d98000000000] },
    Golden { workload: "perl", config: "default", opt: "none", scheme: "pp", installed: 8, live: 8, flushes: 0, bailed: false, paths: 726, insts: 29203, guard_execs: 1033, cached_bits: 0x3fc15f081a0515f1, cycle_bits: [0x41128d6000000000, 0x40a834ccccccccab, 0x0000000000000000, 0x4113625800000000, 0x40d0400000000000, 0x40cfbf8000000000] },
    Golden { workload: "perl", config: "default", opt: "guards", scheme: "net", installed: 11, live: 11, flushes: 0, bailed: false, paths: 231, insts: 29203, guard_execs: 3200, cached_bits: 0x3fe03317f33a0331, cycle_bits: [0x4106218000000000, 0x40c605ffffffffff, 0x0000000000000000, 0x40a6a80000000000, 0x40d0c70000000000, 0x40d7d98000000000] },
    Golden { workload: "perl", config: "default", opt: "guards", scheme: "pp", installed: 8, live: 8, flushes: 0, bailed: false, paths: 726, insts: 29203, guard_execs: 1033, cached_bits: 0x3fc15f081a0515f1, cycle_bits: [0x41128d6000000000, 0x40a834ccccccccab, 0x0000000000000000, 0x4113625800000000, 0x40d0400000000000, 0x40cfbf8000000000] },
    Golden { workload: "perl", config: "default", opt: "full", scheme: "net", installed: 11, live: 11, flushes: 0, bailed: false, paths: 231, insts: 29203, guard_execs: 3200, cached_bits: 0x3fe03317f33a0331, cycle_bits: [0x4106218000000000, 0x40c605ffffffffff, 0x0000000000000000, 0x40a6a80000000000, 0x40d0c70000000000, 0x40d7d98000000000] },
    Golden { workload: "perl", config: "default", opt: "full", scheme: "pp", installed: 8, live: 8, flushes: 0, bailed: false, paths: 726, insts: 29203, guard_execs: 1033, cached_bits: 0x3fc15f081a0515f1, cycle_bits: [0x41128d6000000000, 0x40a834ccccccccab, 0x0000000000000000, 0x4113625800000000, 0x40d0400000000000, 0x40cfbf8000000000] },
    Golden { workload: "perl", config: "flush", opt: "none", scheme: "net", installed: 74, live: 2, flushes: 24, bailed: false, paths: 384, insts: 29203, guard_execs: 1805, cached_bits: 0x3fcd8da18025d8da, cycle_bits: [0x411068c000000000, 0x40b53f3333333351, 0x0000000000000000, 0x40aee80000000000, 0x40fe398000000000, 0x40dd87c000000000] },
    Golden { workload: "perl", config: "flush", opt: "none", scheme: "pp", installed: 37, live: 2, flushes: 14, bailed: false, paths: 735, insts: 29203, guard_execs: 934, cached_bits: 0x3fbe8b34cef9e8b3, cycle_bits: [0x4112d83000000000, 0x40a5b66666666640, 0x0000000000000000, 0x4113aa4000000000, 0x40eb1e8000000000, 0x40ced58000000000] },
    Golden { workload: "perl", config: "flush", opt: "guards", scheme: "net", installed: 74, live: 2, flushes: 24, bailed: false, paths: 384, insts: 29203, guard_execs: 1805, cached_bits: 0x3fcd8da18025d8da, cycle_bits: [0x411068c000000000, 0x40b53f3333333351, 0x0000000000000000, 0x40aee80000000000, 0x40fe398000000000, 0x40dd87c000000000] },
    Golden { workload: "perl", config: "flush", opt: "guards", scheme: "pp", installed: 37, live: 2, flushes: 14, bailed: false, paths: 735, insts: 29203, guard_execs: 934, cached_bits: 0x3fbe8b34cef9e8b3, cycle_bits: [0x4112d83000000000, 0x40a5b66666666640, 0x0000000000000000, 0x4113aa4000000000, 0x40eb1e8000000000, 0x40ced58000000000] },
    Golden { workload: "perl", config: "flush", opt: "full", scheme: "net", installed: 74, live: 2, flushes: 24, bailed: false, paths: 384, insts: 29203, guard_execs: 1805, cached_bits: 0x3fcd8da18025d8da, cycle_bits: [0x411068c000000000, 0x40b53f3333333351, 0x0000000000000000, 0x40aee80000000000, 0x40fe398000000000, 0x40dd87c000000000] },
    Golden { workload: "perl", config: "flush", opt: "full", scheme: "pp", installed: 37, live: 2, flushes: 14, bailed: false, paths: 735, insts: 29203, guard_execs: 934, cached_bits: 0x3fbe8b34cef9e8b3, cycle_bits: [0x4112d83000000000, 0x40a5b66666666640, 0x0000000000000000, 0x4113aa4000000000, 0x40eb1e8000000000, 0x40ced58000000000] },
    Golden { workload: "perl", config: "bail", opt: "none", scheme: "net", installed: 7, live: 7, flushes: 0, bailed: true, paths: 16, insts: 29203, guard_execs: 84, cached_bits: 0x3fcdb6db6db6db6e, cycle_bits: [0x40c78e0000000000, 0x406e666666666663, 0x40db3d8000000000, 0x4066800000000000, 0x40c7840000000000, 0x4096fe0000000000] },
    Golden { workload: "perl", config: "bail", opt: "none", scheme: "pp", installed: 9, live: 9, flushes: 0, bailed: true, paths: 64, insts: 29203, guard_execs: 237, cached_bits: 0x3fd4c6a0083bb0c1, cycle_bits: [0x40dacd0000000000, 0x4089cccccccccccc, 0x40d9470000000000, 0x40db1d0000000000, 0x40c6da0000000000, 0x40a0920000000000] },
    Golden { workload: "perl", config: "bail", opt: "guards", scheme: "net", installed: 7, live: 7, flushes: 0, bailed: true, paths: 16, insts: 29203, guard_execs: 84, cached_bits: 0x3fcdb6db6db6db6e, cycle_bits: [0x40c78e0000000000, 0x406e666666666663, 0x40db3d8000000000, 0x4066800000000000, 0x40c7840000000000, 0x4096fe0000000000] },
    Golden { workload: "perl", config: "bail", opt: "guards", scheme: "pp", installed: 9, live: 9, flushes: 0, bailed: true, paths: 64, insts: 29203, guard_execs: 237, cached_bits: 0x3fd4c6a0083bb0c1, cycle_bits: [0x40dacd0000000000, 0x4089cccccccccccc, 0x40d9470000000000, 0x40db1d0000000000, 0x40c6da0000000000, 0x40a0920000000000] },
    Golden { workload: "perl", config: "bail", opt: "full", scheme: "net", installed: 7, live: 7, flushes: 0, bailed: true, paths: 16, insts: 29203, guard_execs: 84, cached_bits: 0x3fcdb6db6db6db6e, cycle_bits: [0x40c78e0000000000, 0x406e666666666663, 0x40db3d8000000000, 0x4066800000000000, 0x40c7840000000000, 0x4096fe0000000000] },
    Golden { workload: "perl", config: "bail", opt: "full", scheme: "pp", installed: 9, live: 9, flushes: 0, bailed: true, paths: 64, insts: 29203, guard_execs: 237, cached_bits: 0x3fd4c6a0083bb0c1, cycle_bits: [0x40dacd0000000000, 0x4089cccccccccccc, 0x40d9470000000000, 0x40db1d0000000000, 0x40c6da0000000000, 0x40a0920000000000] },
    Golden { workload: "vortex", config: "default", opt: "none", scheme: "net", installed: 12, live: 12, flushes: 0, bailed: false, paths: 72, insts: 83412, guard_execs: 13501, cached_bits: 0x3fe8e62dbd9a30b1, cycle_bits: [0x410ad06000000000, 0x40e96eb333333329, 0x0000000000000000, 0x40a4800000000000, 0x40ceb40000000000, 0x40e3f80000000000] },
    Golden { workload: "vortex", config: "default", opt: "none", scheme: "pp", installed: 16, live: 16, flushes: 0, bailed: false, paths: 307, insts: 83412, guard_execs: 13011, cached_bits: 0x3fe6e7db36a4e9b2, cycle_bits: [0x41109e0000000000, 0x40e7b8666666666d, 0x0000000000000000, 0x4101a98000000000, 0x40d28e0000000000, 0x40e5c67000000000] },
    Golden { workload: "vortex", config: "default", opt: "guards", scheme: "net", installed: 12, live: 12, flushes: 0, bailed: false, paths: 72, insts: 83412, guard_execs: 13501, cached_bits: 0x3fe8e62dbd9a30b1, cycle_bits: [0x410ad06000000000, 0x40e96eb333333329, 0x0000000000000000, 0x40a4800000000000, 0x40ceb40000000000, 0x40e3f80000000000] },
    Golden { workload: "vortex", config: "default", opt: "guards", scheme: "pp", installed: 16, live: 16, flushes: 0, bailed: false, paths: 307, insts: 83412, guard_execs: 13011, cached_bits: 0x3fe6e7db36a4e9b2, cycle_bits: [0x41109e0000000000, 0x40e7b8666666666d, 0x0000000000000000, 0x4101a98000000000, 0x40d28e0000000000, 0x40e5c67000000000] },
    Golden { workload: "vortex", config: "default", opt: "full", scheme: "net", installed: 12, live: 12, flushes: 0, bailed: false, paths: 72, insts: 83412, guard_execs: 13501, cached_bits: 0x3fe8e62dbd9a30b1, cycle_bits: [0x410ad06000000000, 0x40e96eb333333329, 0x0000000000000000, 0x40a4800000000000, 0x40ceb40000000000, 0x40e3f80000000000] },
    Golden { workload: "vortex", config: "default", opt: "full", scheme: "pp", installed: 16, live: 16, flushes: 0, bailed: false, paths: 307, insts: 83412, guard_execs: 13011, cached_bits: 0x3fe6e7db36a4e9b2, cycle_bits: [0x41109e0000000000, 0x40e7b8666666666d, 0x0000000000000000, 0x4101a98000000000, 0x40d28e0000000000, 0x40e5c67000000000] },
    Golden { workload: "vortex", config: "flush", opt: "none", scheme: "net", installed: 241, live: 1, flushes: 80, bailed: false, paths: 505, insts: 83412, guard_execs: 6982, cached_bits: 0x3fd5bf9fa098f7a4, cycle_bits: [0x41239e1800000000, 0x40d75099999999c8, 0x0000000000000000, 0x40bd500000000000, 0x4120b08000000000, 0x40ee31a000000000] },
    Golden { workload: "vortex", config: "flush", opt: "none", scheme: "pp", installed: 108, live: 0, flushes: 36, bailed: false, paths: 1316, insts: 83412, guard_execs: 3262, cached_bits: 0x3fc468d24a28c4b5, cycle_bits: [0x41297cb800000000, 0x40c5960000000009, 0x0000000000000000, 0x4122df2800000000, 0x410c872000000000, 0x40db512000000000] },
    Golden { workload: "vortex", config: "flush", opt: "guards", scheme: "net", installed: 241, live: 1, flushes: 80, bailed: false, paths: 505, insts: 83412, guard_execs: 6978, cached_bits: 0x3fd5bf9fa098f7a4, cycle_bits: [0x41239e1800000000, 0x40d75099999999c8, 0x0000000000000000, 0x40bd500000000000, 0x4120b08000000000, 0x40ee31a000000000] },
    Golden { workload: "vortex", config: "flush", opt: "guards", scheme: "pp", installed: 108, live: 0, flushes: 36, bailed: false, paths: 1316, insts: 83412, guard_execs: 3262, cached_bits: 0x3fc468d24a28c4b5, cycle_bits: [0x41297cb800000000, 0x40c5960000000009, 0x0000000000000000, 0x4122df2800000000, 0x410c872000000000, 0x40db512000000000] },
    Golden { workload: "vortex", config: "flush", opt: "full", scheme: "net", installed: 241, live: 1, flushes: 80, bailed: false, paths: 505, insts: 83412, guard_execs: 6978, cached_bits: 0x3fd5bf9fa098f7a4, cycle_bits: [0x41239e1800000000, 0x40d75099999999c8, 0x0000000000000000, 0x40bd500000000000, 0x4120b08000000000, 0x40ee31a000000000] },
    Golden { workload: "vortex", config: "flush", opt: "full", scheme: "pp", installed: 108, live: 0, flushes: 36, bailed: false, paths: 1316, insts: 83412, guard_execs: 3262, cached_bits: 0x3fc468d24a28c4b5, cycle_bits: [0x41297cb800000000, 0x40c5960000000009, 0x0000000000000000, 0x4122df2800000000, 0x410c872000000000, 0x40db512000000000] },
    Golden { workload: "vortex", config: "bail", opt: "none", scheme: "net", installed: 23, live: 23, flushes: 0, bailed: false, paths: 12, insts: 83412, guard_execs: 15690, cached_bits: 0x3fef622e823a7975, cycle_bits: [0x40d04d0000000000, 0x40f0050ccccccccc, 0x0000000000000000, 0x407f800000000000, 0x40d72a0000000000, 0x40c2624000000000] },
    Golden { workload: "vortex", config: "bail", opt: "none", scheme: "pp", installed: 21, live: 21, flushes: 0, bailed: true, paths: 16, insts: 83412, guard_execs: 9925, cached_bits: 0x3feef9b895295d52, cycle_bits: [0x40d19d0000000000, 0x40e3e4e666666666, 0x40de410000000000, 0x40bdbc0000000000, 0x40d68f0000000000, 0x40bc3c8000000000] },
    Golden { workload: "vortex", config: "bail", opt: "guards", scheme: "net", installed: 23, live: 23, flushes: 0, bailed: false, paths: 12, insts: 83412, guard_execs: 15690, cached_bits: 0x3fef622e823a7975, cycle_bits: [0x40d04d0000000000, 0x40f0050ccccccccc, 0x0000000000000000, 0x407f800000000000, 0x40d72a0000000000, 0x40c2624000000000] },
    Golden { workload: "vortex", config: "bail", opt: "guards", scheme: "pp", installed: 21, live: 21, flushes: 0, bailed: true, paths: 16, insts: 83412, guard_execs: 9925, cached_bits: 0x3feef9b895295d52, cycle_bits: [0x40d19d0000000000, 0x40e3e4e666666666, 0x40de410000000000, 0x40bdbc0000000000, 0x40d68f0000000000, 0x40bc3c8000000000] },
    Golden { workload: "vortex", config: "bail", opt: "full", scheme: "net", installed: 23, live: 23, flushes: 0, bailed: false, paths: 12, insts: 83412, guard_execs: 15690, cached_bits: 0x3fef622e823a7975, cycle_bits: [0x40d04d0000000000, 0x40f0050ccccccccc, 0x0000000000000000, 0x407f800000000000, 0x40d72a0000000000, 0x40c2624000000000] },
    Golden { workload: "vortex", config: "bail", opt: "full", scheme: "pp", installed: 21, live: 21, flushes: 0, bailed: true, paths: 16, insts: 83412, guard_execs: 9925, cached_bits: 0x3feef9b895295d52, cycle_bits: [0x40d19d0000000000, 0x40e3e4e666666666, 0x40de410000000000, 0x40bdbc0000000000, 0x40d68f0000000000, 0x40bc3c8000000000] },
    Golden { workload: "deltablue", config: "default", opt: "none", scheme: "net", installed: 13, live: 13, flushes: 0, bailed: false, paths: 153, insts: 371526, guard_execs: 52303, cached_bits: 0x3fef02ab2605b179, cycle_bits: [0x4100644000000000, 0x4111983333333334, 0x0000000000000000, 0x40a4680000000000, 0x40d0900000000000, 0x40e1df0000000000] },
    Golden { workload: "deltablue", config: "default", opt: "none", scheme: "pp", installed: 12, live: 12, flushes: 0, bailed: false, paths: 324, insts: 371526, guard_execs: 50508, cached_bits: 0x3feda7d096e26253, cycle_bits: [0x41126ab000000000, 0x4110e9c333333336, 0x0000000000000000, 0x4101774000000000, 0x40cd880000000000, 0x40e9564000000000] },
    Golden { workload: "deltablue", config: "default", opt: "guards", scheme: "net", installed: 13, live: 13, flushes: 0, bailed: false, paths: 153, insts: 371526, guard_execs: 52303, cached_bits: 0x3fef02ab2605b179, cycle_bits: [0x4100644000000000, 0x4111983333333334, 0x0000000000000000, 0x40a4680000000000, 0x40d0900000000000, 0x40e1df0000000000] },
    Golden { workload: "deltablue", config: "default", opt: "guards", scheme: "pp", installed: 12, live: 12, flushes: 0, bailed: false, paths: 324, insts: 371526, guard_execs: 50508, cached_bits: 0x3feda7d096e26253, cycle_bits: [0x41126ab000000000, 0x4110e9c333333336, 0x0000000000000000, 0x4101774000000000, 0x40cd880000000000, 0x40e9564000000000] },
    Golden { workload: "deltablue", config: "default", opt: "full", scheme: "net", installed: 13, live: 13, flushes: 0, bailed: false, paths: 153, insts: 371526, guard_execs: 52303, cached_bits: 0x3fef02ab2605b179, cycle_bits: [0x4100644000000000, 0x4111983333333334, 0x0000000000000000, 0x40a4680000000000, 0x40d0900000000000, 0x40e1df0000000000] },
    Golden { workload: "deltablue", config: "default", opt: "full", scheme: "pp", installed: 12, live: 12, flushes: 0, bailed: false, paths: 324, insts: 371526, guard_execs: 50508, cached_bits: 0x3feda7d096e26253, cycle_bits: [0x41126ab000000000, 0x4110e9c333333336, 0x0000000000000000, 0x4101774000000000, 0x40cd880000000000, 0x40e9564000000000] },
    Golden { workload: "deltablue", config: "flush", opt: "none", scheme: "net", installed: 793, live: 1, flushes: 264, bailed: false, paths: 2265, insts: 371526, guard_execs: 39707, cached_bits: 0x3fe134187affd9c9, cycle_bits: [0x413e966000000000, 0x4103f7f3333333c4, 0x0000000000000000, 0x40dcf40000000000, 0x4135bbfc00000000, 0x410c98c800000000] },
    Golden { workload: "deltablue", config: "flush", opt: "none", scheme: "pp", installed: 549, live: 1, flushes: 184, bailed: false, paths: 4418, insts: 371526, guard_execs: 28554, cached_bits: 0x3fda3e04aaac01eb, cycle_bits: [0x4143c4ac00000000, 0x40fe64333333325b, 0x0000000000000000, 0x413e40ba00000000, 0x412c881000000000, 0x41020b2400000000] },
    Golden { workload: "deltablue", config: "flush", opt: "guards", scheme: "net", installed: 793, live: 1, flushes: 264, bailed: false, paths: 2265, insts: 371526, guard_execs: 39707, cached_bits: 0x3fe134187affd9c9, cycle_bits: [0x413e966000000000, 0x4103f7f3333333c4, 0x0000000000000000, 0x40dcf40000000000, 0x4135bbfc00000000, 0x410c98c800000000] },
    Golden { workload: "deltablue", config: "flush", opt: "guards", scheme: "pp", installed: 549, live: 1, flushes: 184, bailed: false, paths: 4418, insts: 371526, guard_execs: 28554, cached_bits: 0x3fda3e04aaac01eb, cycle_bits: [0x4143c4ac00000000, 0x40fe64333333325b, 0x0000000000000000, 0x413e40ba00000000, 0x412c881000000000, 0x41020b2400000000] },
    Golden { workload: "deltablue", config: "flush", opt: "full", scheme: "net", installed: 793, live: 1, flushes: 264, bailed: false, paths: 2265, insts: 371526, guard_execs: 39707, cached_bits: 0x3fe134187affd9c9, cycle_bits: [0x413e966000000000, 0x4103f7f3333333c4, 0x0000000000000000, 0x40dcf40000000000, 0x4135bbfc00000000, 0x410c98c800000000] },
    Golden { workload: "deltablue", config: "flush", opt: "full", scheme: "pp", installed: 549, live: 1, flushes: 184, bailed: false, paths: 4418, insts: 371526, guard_execs: 28554, cached_bits: 0x3fda3e04aaac01eb, cycle_bits: [0x4143c4ac00000000, 0x40fe64333333325b, 0x0000000000000000, 0x413e40ba00000000, 0x412c881000000000, 0x41020b2400000000] },
    Golden { workload: "deltablue", config: "bail", opt: "none", scheme: "net", installed: 10, live: 10, flushes: 0, bailed: true, paths: 16, insts: 371526, guard_execs: 3544, cached_bits: 0x3fee7502c9358d77, cycle_bits: [0x40cbde0000000000, 0x40d2bc3333333334, 0x411523d000000000, 0x406e800000000000, 0x40cf9a0000000000, 0x40a7560000000000] },
    Golden { workload: "deltablue", config: "bail", opt: "none", scheme: "pp", installed: 10, live: 10, flushes: 0, bailed: true, paths: 32, insts: 371526, guard_execs: 745, cached_bits: 0x3fe6666666666666, cycle_bits: [0x40d6c20000000000, 0x40acde6666666668, 0x4116469400000000, 0x40cc6a0000000000, 0x40cf9a0000000000, 0x40a07a0000000000] },
    Golden { workload: "deltablue", config: "bail", opt: "guards", scheme: "net", installed: 10, live: 10, flushes: 0, bailed: true, paths: 16, insts: 371526, guard_execs: 3544, cached_bits: 0x3fee7502c9358d77, cycle_bits: [0x40cbde0000000000, 0x40d2bc3333333334, 0x411523d000000000, 0x406e800000000000, 0x40cf9a0000000000, 0x40a7560000000000] },
    Golden { workload: "deltablue", config: "bail", opt: "guards", scheme: "pp", installed: 10, live: 10, flushes: 0, bailed: true, paths: 32, insts: 371526, guard_execs: 745, cached_bits: 0x3fe6666666666666, cycle_bits: [0x40d6c20000000000, 0x40acde6666666668, 0x4116469400000000, 0x40cc6a0000000000, 0x40cf9a0000000000, 0x40a07a0000000000] },
    Golden { workload: "deltablue", config: "bail", opt: "full", scheme: "net", installed: 10, live: 10, flushes: 0, bailed: true, paths: 16, insts: 371526, guard_execs: 3544, cached_bits: 0x3fee7502c9358d77, cycle_bits: [0x40cbde0000000000, 0x40d2bc3333333334, 0x411523d000000000, 0x406e800000000000, 0x40cf9a0000000000, 0x40a7560000000000] },
    Golden { workload: "deltablue", config: "bail", opt: "full", scheme: "pp", installed: 10, live: 10, flushes: 0, bailed: true, paths: 32, insts: 371526, guard_execs: 745, cached_bits: 0x3fe6666666666666, cycle_bits: [0x40d6c20000000000, 0x40acde6666666668, 0x4116469400000000, 0x40cc6a0000000000, 0x40cf9a0000000000, 0x40a07a0000000000] },
];

#[test]
fn linked_engine_decisions_match_the_golden_table() {
    use hotpath::dynamo::{BailoutPolicy, FlushPolicy};
    use hotpath::vm::OptLevel;

    /// Builds a row's configuration for `scheme`.
    type MakeConfig = fn(Scheme) -> DynamoConfig;
    let configs: [(&str, MakeConfig); 3] = [
        ("default", |scheme| DynamoConfig::new(scheme, 50)),
        ("flush", |scheme| {
            let mut c = DynamoConfig::new(scheme, 5);
            c.max_fragments = 2;
            c.flush = FlushPolicy::OnSpike {
                window: 32,
                factor: 2.0,
                min_predictions: 2,
            };
            c.bailout = None;
            c
        }),
        ("bail", |scheme| {
            let mut c = DynamoConfig::new(scheme, 5);
            c.bailout = Some(BailoutPolicy {
                check_every_paths: 16,
                max_installs: 4,
            });
            c
        }),
    ];
    let mut actual = Vec::new();
    for w in suite(Scale::Smoke) {
        for (config_name, make) in configs {
            for (opt, opt_name) in [
                (OptLevel::None, "none"),
                (OptLevel::Guards, "guards"),
                (OptLevel::Full, "full"),
            ] {
                for (scheme, scheme_name) in [(Scheme::Net, "net"), (Scheme::PathProfile, "pp")] {
                    let config = make(scheme).with_opt_level(opt);
                    actual.push(golden_row(
                        w.name.as_str(),
                        config_name,
                        opt_name,
                        scheme_name,
                        &config,
                        &w.program,
                    ));
                }
            }
        }
    }
    if actual != GOLDEN {
        for g in &actual {
            println!(
                "    Golden {{ workload: {:?}, config: {:?}, opt: {:?}, scheme: {:?}, \
                 installed: {}, live: {}, flushes: {}, bailed: {}, paths: {}, insts: {}, \
                 guard_execs: {}, cached_bits: {:#018x}, cycle_bits: [{}] }},",
                g.workload,
                g.config,
                g.opt,
                g.scheme,
                g.installed,
                g.live,
                g.flushes,
                g.bailed,
                g.paths,
                g.insts,
                g.guard_execs,
                g.cached_bits,
                g.cycle_bits.map(|b| format!("{b:#018x}")).join(", "),
            );
        }
        let first = actual
            .iter()
            .zip(GOLDEN)
            .find(|(a, g)| a != g)
            .map(|(a, g)| format!("actual {a:?}\n golden {g:?}"));
        panic!(
            "LinkedEngine decisions changed ({} rows, {} golden); first difference: {first:?}",
            actual.len(),
            GOLDEN.len()
        );
    }
}

/// Runs one linked configuration and reads its outcome into a row.
fn golden_row(
    workload: &'static str,
    config_name: &'static str,
    opt: &'static str,
    scheme: &'static str,
    config: &DynamoConfig,
    program: &Program,
) -> Golden {
    let o = hotpath::dynamo::run_dynamo_linked(program, config)
        .unwrap()
        .outcome;
    let c = o.cycles;
    Golden {
        workload,
        config: config_name,
        opt,
        scheme,
        installed: o.fragments_installed,
        live: o.fragments_live,
        flushes: o.flushes,
        bailed: o.bailed_out,
        paths: o.paths_completed,
        insts: o.insts_executed,
        guard_execs: o.guard_execs,
        cached_bits: o.cached_block_fraction.to_bits(),
        cycle_bits: [
            c.interp.to_bits(),
            c.trace.to_bits(),
            c.native.to_bits(),
            c.profiling.to_bits(),
            c.build.to_bits(),
            c.transitions.to_bits(),
        ],
    }
}

/// The linked engine asks "is this path already a fragment?" by block
/// sequence, where path profiling names paths by signature. The two agree
/// unless a conditional branch's taken and fall-through targets are the
/// same block (two signatures, one sequence); no workload has one, which
/// is why the golden decisions above hold for both.
#[test]
fn no_workload_branches_twice_to_the_same_block() {
    use hotpath::ir::Terminator;

    for w in suite(Scale::Smoke) {
        for f in &w.program.functions {
            for (i, b) in f.blocks.iter().enumerate() {
                if let Terminator::Branch {
                    taken, fallthrough, ..
                } = &b.terminator
                {
                    assert_ne!(
                        taken,
                        fallthrough,
                        "{}: {} block {i} branches twice to one block",
                        w.name.as_str(),
                        f.name
                    );
                }
            }
        }
    }
}
