//! The trace workloads: whole linked runs of a program set, cycled
//! round-robin, each checked against a plain-interpreter reference.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hotpath_dynamo::{DynamoConfig, DynamoOutcome, LinkedEngine, Scheme};
use hotpath_ir::Program;
use hotpath_vm::{
    BlockEvent, CountingObserver, ExecutionObserver, OptLevel, RunStats, TraceCommand,
    TraceController, TraceExcursion, Vm,
};
use hotpath_workloads::{build, Scale, WorkloadName};

use crate::spans::{SpanId, Tracer};
use crate::stats::quantile;

/// Every program runs at this scale: long enough that one run is a few
/// to a few hundred milliseconds, short enough for many reps per run.
pub const SCALE: Scale = Scale::Small;

/// The shipped configuration: NET at Dynamo's τ=50, fully optimized
/// traces.
pub fn shipped_config() -> DynamoConfig {
    DynamoConfig::new(Scheme::Net, 50).with_opt_level(OptLevel::Full)
}

/// What a plain interpreted run of a program produces.
#[derive(Clone, Debug)]
pub struct Reference {
    /// Run statistics.
    pub stats: RunStats,
    /// Final data memory.
    pub memory: Vec<i64>,
    /// Final global registers.
    pub globals: Vec<i64>,
}

impl Reference {
    /// Runs `program` on the plain interpreter.
    pub fn compute(program: &Program) -> Reference {
        let mut vm = Vm::new(program);
        let stats = vm
            .run(&mut CountingObserver::default())
            .expect("every workload runs to completion on the interpreter");
        Reference {
            stats,
            memory: vm.memory().to_vec(),
            globals: vm.globals().to_vec(),
        }
    }
}

/// A built program with its reference.
#[derive(Debug)]
pub struct Bench {
    /// Which workload program.
    pub name: WorkloadName,
    /// The program.
    pub program: Program,
    /// Its interpreted result.
    pub reference: Reference,
}

/// Builds `names` at [`SCALE`]; returns the programs and the build time.
pub fn build_all(names: &[WorkloadName]) -> (Vec<(WorkloadName, Program)>, Duration) {
    let t = Instant::now();
    let built = names
        .iter()
        .map(|&n| (n, black_box(build(n, SCALE)).program))
        .collect();
    (built, t.elapsed())
}

/// Attaches references to built programs.
pub fn with_references(built: Vec<(WorkloadName, Program)>) -> Vec<Bench> {
    built
        .into_iter()
        .map(|(name, program)| Bench {
            name,
            reference: Reference::compute(&program),
            program,
        })
        .collect()
}

/// Per-call-site timing of the engine's callbacks: calls and total ns.
#[derive(Clone, Copy, Default, Debug)]
pub struct CallSite {
    /// Calls made.
    pub calls: u64,
    /// Time inside them.
    pub ns: u64,
}

/// Forwards to a [`LinkedEngine`] and times each callback, folded per
/// call site.
#[derive(Debug)]
pub struct TimedEngine<'a> {
    inner: &'a mut LinkedEngine,
    /// `on_block` (interpreted blocks).
    block: CallSite,
    /// `on_trace_exit` (trace excursions).
    exit: CallSite,
    /// `poll_command` (after every block and excursion).
    poll: CallSite,
}

impl<'a> TimedEngine<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut LinkedEngine) -> Self {
        TimedEngine {
            inner,
            block: CallSite::default(),
            exit: CallSite::default(),
            poll: CallSite::default(),
        }
    }

    /// Records the three call sites as aggregates under `span`.
    pub fn record(&self, tracer: &mut Tracer, span: SpanId) {
        for (name, site) in [
            ("engine.on_block", self.block),
            ("engine.on_trace_exit", self.exit),
            ("engine.poll_command", self.poll),
        ] {
            tracer.aggregate(span, name, site.calls, site.ns);
        }
    }

    /// Calls and time over all three call sites.
    pub fn total(&self) -> CallSite {
        CallSite {
            calls: self.block.calls + self.exit.calls + self.poll.calls,
            ns: self.block.ns + self.exit.ns + self.poll.ns,
        }
    }
}

fn timed<T>(site: &mut CallSite, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    site.ns += t.elapsed().as_nanos() as u64;
    site.calls += 1;
    out
}

impl ExecutionObserver for TimedEngine<'_> {
    fn on_block(&mut self, event: &BlockEvent) {
        let inner = &mut *self.inner;
        timed(&mut self.block, || inner.on_block(event));
    }

    fn on_halt(&mut self) {
        self.inner.on_halt();
    }
}

impl TraceController for TimedEngine<'_> {
    fn on_trace_exit(&mut self, excursion: &TraceExcursion) {
        let inner = &mut *self.inner;
        timed(&mut self.exit, || inner.on_trace_exit(excursion));
    }

    fn poll_command(&mut self) -> Option<TraceCommand> {
        let inner = &mut *self.inner;
        timed(&mut self.poll, || inner.poll_command())
    }
}

/// One linked run of one program.
#[derive(Debug)]
pub struct Rep {
    /// Whole run: engine and VM set-up, execution, finish.
    pub total: Duration,
    /// Execution alone (`run_linked`).
    pub run: Duration,
    /// Engine callbacks (zero unless traced).
    pub engine: CallSite,
    /// The engine's outcome.
    pub outcome: DynamoOutcome,
    /// True when stats, memory and globals match the reference.
    pub correct: bool,
}

/// Runs `bench` once under the linked engine. With tracing on, the engine
/// is wrapped in a [`TimedEngine`] and the run records a span tree under
/// request `request`.
pub fn rep(bench: &Bench, config: &DynamoConfig, tracer: &mut Tracer, request: u64) -> Rep {
    let root = tracer.begin("trace.rep", None, request);
    let open = tracer.begin("vm.open", Some(root), request);
    let t0 = Instant::now();
    let mut engine = LinkedEngine::new(config.clone());
    let mut vm = Vm::new(&bench.program).with_opt_level(config.opt_level);
    let t1 = Instant::now();
    tracer.end(open);
    let run = tracer.begin("vm.run_linked", Some(root), request);
    let (result, callbacks) = if tracer.enabled() {
        let mut timed = TimedEngine::new(&mut engine);
        let result = vm.run_linked(&mut timed);
        timed.record(tracer, run);
        (result, timed.total())
    } else {
        (vm.run_linked(&mut engine), CallSite::default())
    };
    let t2 = Instant::now();
    tracer.end(run);
    let finish = tracer.begin("dynamo.finish", Some(root), request);
    let outcome = engine.finish();
    let t3 = Instant::now();
    tracer.end(finish);
    let check = tracer.begin("check", Some(root), request);
    let reference = &bench.reference;
    let correct = result.as_ref().is_ok_and(|s| *s == reference.stats)
        && vm.memory() == reference.memory.as_slice()
        && vm.globals() == reference.globals.as_slice();
    tracer.end(check);
    tracer.end(root);
    Rep {
        total: t3 - t0,
        run: t2 - t1,
        engine: callbacks,
        outcome,
        correct,
    }
}

/// Rep times of the trace loop, per program (in `benches` order).
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Whole-rep seconds per program.
    pub total: Vec<Vec<f64>>,
    /// Reps attempted.
    pub attempted: u64,
    /// Reps whose result differed from the reference (or failed).
    pub failed: u64,
}

/// The rep-time quantile the trace workloads' throughput is taken at.
/// The host runs this code in a slow and a fast mode about 1.6x apart,
/// each lasting seconds, and the fast mode's share of a run varies from
/// near none to nearly all of it; every quantile near the middle follows
/// that share, while the 95th percentile stays on the slow mode (see
/// README.md).
pub const SUSTAINED: f64 = 0.95;

impl LoopResult {
    /// Total blocks over the sum of each program's [`SUSTAINED`]-quantile
    /// rep time.
    pub fn blocks_per_s(&self, benches: &[Bench]) -> f64 {
        let blocks: u64 = benches
            .iter()
            .map(|b| b.reference.stats.blocks_executed)
            .sum();
        let secs: f64 = self
            .total
            .iter()
            .map(|t| quantile(t, SUSTAINED).unwrap_or(0.0))
            .sum();
        blocks as f64 / secs
    }
}

/// Cycles round-robin through `order` (indices into `benches`), one rep
/// per program per round, for whole rounds until `budget` has passed and
/// at least `min_rounds` are done.
pub fn run_loop(
    benches: &[Bench],
    order: &[usize],
    budget: Duration,
    min_rounds: u32,
    tracer: &mut Tracer,
) -> LoopResult {
    let config = shipped_config();
    let mut out = LoopResult {
        total: vec![Vec::new(); benches.len()],
        ..LoopResult::default()
    };
    let start = Instant::now();
    let mut round = 0u32;
    while round < min_rounds || start.elapsed() < budget {
        for &i in order {
            let r = rep(&benches[i], &config, tracer, out.attempted);
            out.attempted += 1;
            if !r.correct {
                out.failed += 1;
            }
            out.total[i].push(r.total.as_secs_f64());
        }
        round += 1;
    }
    out
}
