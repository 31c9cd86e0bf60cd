//! `perfbench` — end-to-end and per-layer benchmark of the hotpath stack.
//!
//! ```text
//! perfbench --workload trace-hot|trace-cold|serve-sessions
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Measures the workload for `--seconds` and prints, as the last line of
//! standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off; with `--trace 1` they are the per-layer ones, from a run
//! that records spans and writes them to a `spans` directory next to this
//! executable. Nothing else is written. See
//! README.md for why each workload and statistic was chosen.

mod ledger;
mod serve;
mod spans;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hotpath_ir::rng::Rng64;
use hotpath_ir::Program;
use hotpath_vm::RunStats;
use hotpath_workloads::{WorkloadName, ALL_WORKLOADS};

use crate::serve::{Planner, Server, Traffic};
use crate::spans::Tracer;
use crate::stats::{median, quantile};
use crate::trace::{build_all, shipped_config, Bench, LoopResult, Reference};

const USAGE: &str = "usage: perfbench --workload trace-hot|trace-cold|serve-sessions \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Set-ups per run: one before the measured loop, the rest spread evenly
/// over it (see README.md).
const SETUPS: usize = 9;
/// The set-up time quantile `setup_s` reports. Like the trace
/// workloads' throughput, set-up time follows the host's fast and slow
/// modes, and a high quantile stays on the slow one (see README.md).
const SETUP_QUANTILE: f64 = 0.8;
/// Every measured loop runs at least this many whole rounds.
const MIN_ROUNDS: u32 = 3;

/// Programs with at least 85% of blocks run from the fragment cache.
const TRACE_HOT: [WorkloadName; 6] = [
    WorkloadName::Ijpeg,
    WorkloadName::Li,
    WorkloadName::M88ksim,
    WorkloadName::Perl,
    WorkloadName::Vortex,
    WorkloadName::Deltablue,
];
/// Programs that run mostly interpreted and slower linked than plain.
const TRACE_COLD: [WorkloadName; 2] = [WorkloadName::Gcc, WorkloadName::Go];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    TraceHot,
    TraceCold,
    ServeSessions,
}

impl Workload {
    fn programs(self) -> &'static [WorkloadName] {
        match self {
            Workload::TraceHot => &TRACE_HOT,
            Workload::TraceCold => &TRACE_COLD,
            Workload::ServeSessions => &ALL_WORKLOADS,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::TraceHot => "trace-hot",
            Workload::TraceCold => "trace-cold",
            Workload::ServeSessions => "serve-sessions",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::TraceHot,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "trace-hot" => Workload::TraceHot,
                    "trace-cold" => Workload::TraceCold,
                    "serve-sessions" => Workload::ServeSessions,
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes a number")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if args.seconds == 0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Named metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// Operations attempted and failed.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or gave a result other than the reference.
    pub failed: u64,
}

impl Ops {
    /// Counts one operation.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Peak resident set size (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The workload's programs in a seeded round-robin order.
fn seeded_order(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x0DE5_0F0D);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    order
}

/// A workload ready to measure.
enum Ready {
    /// The trace loop's round-robin order.
    Trace(Vec<usize>),
    /// The connected server and the seeded session plan.
    Serve(Box<Server>, Planner),
}

impl Ready {
    /// Runs the workload's loop for `budget`, in at least `min_rounds`
    /// whole rounds.
    fn measure(
        &mut self,
        benches: &[Bench],
        (budget, min_rounds): (Duration, u32),
        tracer: &mut Tracer,
        ops: &mut Ops,
    ) -> Measured {
        let measured = match self {
            Ready::Trace(order) => {
                Measured::Trace(trace::run_loop(benches, order, budget, min_rounds, tracer))
            }
            Ready::Serve(server, planner) => Measured::Serve(serve::run_loop(
                &mut server.client,
                benches,
                planner,
                budget,
                min_rounds,
                tracer,
            )),
        };
        let (attempted, failed) = measured.ops();
        ops.attempted += attempted;
        ops.failed += failed;
        measured
    }
}

/// Times of one set-up and of the program builds inside it, seconds.
struct SetupTime {
    total: f64,
    build: f64,
}

/// Sets the workload up once: builds the programs, starts the server and
/// connects (serve), and runs one warm-up pass, outside the measured
/// loop, that leaves no state behind.
fn setup(
    workload: Workload,
    seed: u64,
    references: &[Reference],
    ops: &mut Ops,
) -> (Vec<(WorkloadName, Program)>, Ready, SetupTime) {
    let names = workload.programs();
    let t = Instant::now();
    let (built, build_time) = build_all(names);
    let ready = match workload {
        Workload::TraceHot | Workload::TraceCold => {
            let config = shipped_config();
            for ((_, program), reference) in built.iter().zip(references) {
                let run = hotpath_dynamo::run_dynamo_linked(program, &config);
                ops.count(run.is_ok_and(|r| r.stats == reference.stats));
            }
            Ready::Trace(seeded_order(names.len(), seed))
        }
        Workload::ServeSessions => {
            let mut server = Server::start().expect("start a loopback server");
            for ((name, _), reference) in built.iter().zip(references) {
                let stats = warm_session(&mut server, *name);
                ops.count(stats == Some(reference.stats));
            }
            let slices = references.iter().map(serve::slices).collect();
            Ready::Serve(Box::new(server), Planner::new(seed, slices))
        }
    };
    let time = SetupTime {
        total: t.elapsed().as_secs_f64(),
        build: build_time.as_secs_f64(),
    };
    (built, ready, time)
}

/// Repeats the set-up, each repeat torn down at once, until `times` holds
/// `SETUPS` of them.
fn repeat_setups(
    workload: Workload,
    seed: u64,
    references: &[Reference],
    ops: &mut Ops,
    times: &mut Vec<SetupTime>,
) {
    while times.len() < SETUPS {
        let (_, _, time) = setup(workload, seed, references, ops);
        times.push(time);
    }
}

/// Opens a cold session, runs it to the end in one request, and closes
/// it (no profile publish, so the server keeps no state).
fn warm_session(server: &mut Server, name: WorkloadName) -> Option<RunStats> {
    let client = &mut server.client;
    let config = hotpath_serve::SessionConfig::exec(name, trace::SCALE)
        .with_opt_level(hotpath_vm::OptLevel::Full);
    let (id, _) = client.open(config).ok()?;
    let ran = client.run(id, None);
    let closed = client.close(id);
    match (ran, closed) {
        (Ok((true, stats)), Ok(_)) => Some(stats),
        _ => None,
    }
}

/// The end-to-end figures of one measured loop (set-up and memory are
/// added by the caller).
fn e2e(benches: &[Bench], result: &Measured) -> Metrics {
    let mut m = Metrics::default();
    match result {
        Measured::Trace(r) => m.push("blocks_per_s", r.blocks_per_s(benches), "1/s"),
        Measured::Serve(t) => {
            m.push("blocks_per_s", t.blocks_per_s(), "1/s");
            m.push("run_p50_us", t.run_p50_us(), "us");
            m.push("control_p50_us", t.control_p50_us(), "us");
        }
    }
    m
}

enum Measured {
    Trace(LoopResult),
    Serve(Traffic),
}

impl Measured {
    fn ops(&self) -> (u64, u64) {
        match self {
            Measured::Trace(r) => (r.attempted, r.failed),
            Measured::Serve(t) => (t.attempted, t.failed),
        }
    }

    /// Appends a later slice of the same workload's loop.
    fn extend(&mut self, later: Measured) {
        match (self, later) {
            (Measured::Trace(r), Measured::Trace(more)) => {
                for (total, more) in r.total.iter_mut().zip(more.total) {
                    total.extend(more);
                }
                r.attempted += more.attempted;
                r.failed += more.failed;
            }
            (Measured::Serve(t), Measured::Serve(more)) => {
                t.runs.extend(more.runs);
                t.control.extend(more.control);
                t.attempted += more.attempted;
                t.failed += more.failed;
                t.busy += more.busy;
            }
            _ => unreachable!("one run measures one workload"),
        }
    }
}

fn run(args: &Args) -> (Ops, Metrics) {
    let mut ops = Ops::default();
    // The reference is computed once, before and outside the set-up
    // timing.
    let (built, _) = build_all(args.workload.programs());
    let references: Vec<Reference> = built.iter().map(|(_, p)| Reference::compute(p)).collect();
    drop(built);
    let (built, mut ready, first) = setup(args.workload, args.seed, &references, &mut ops);
    let benches: Vec<Bench> = built
        .into_iter()
        .zip(references.iter().cloned())
        .map(|((name, program), reference)| Bench {
            name,
            program,
            reference,
        })
        .collect();
    let mut setups = vec![first];
    let budget = Duration::from_secs(args.seconds);
    let mut metrics = Metrics::default();
    if !args.trace {
        // The loop runs in equal slices with a set-up, torn down at once,
        // after each: set-ups taken together would all fall in one host
        // mode.
        let slice = (budget / (SETUPS as u32 - 1), 1);
        let mut measured = ready.measure(&benches, slice, &mut Tracer::new(false), &mut ops);
        while setups.len() < SETUPS {
            setups.push(setup(args.workload, args.seed, &references, &mut ops).2);
            if setups.len() < SETUPS {
                let more = ready.measure(&benches, slice, &mut Tracer::new(false), &mut ops);
                measured.extend(more);
            }
        }
        let rss = peak_rss_mb();
        let totals: Vec<f64> = setups.iter().map(|s| s.total).collect();
        let setup_s = quantile(&totals, SETUP_QUANTILE).expect("set-up ran");
        metrics.push("setup_s", setup_s, "s");
        metrics.extend(e2e(&benches, &measured));
        metrics.push("peak_rss_mb", rss, "MiB");
        return (ops, metrics);
    }

    // Traced run: half the budget untraced, half traced, then the ledger.
    let mut tracer = Tracer::new(true);
    let untraced = e2e(
        &benches,
        &ready.measure(
            &benches,
            (budget / 2, MIN_ROUNDS),
            &mut Tracer::new(false),
            &mut ops,
        ),
    );
    let traced = e2e(
        &benches,
        &ready.measure(&benches, (budget / 2, MIN_ROUNDS), &mut tracer, &mut ops),
    );
    // The ledger starts its own server; close this one first.
    drop(ready);
    repeat_setups(args.workload, args.seed, &references, &mut ops, &mut setups);
    let builds: Vec<f64> = setups.iter().map(|s| s.build).collect();
    metrics.push(
        "workloads.build_s",
        median(&builds).expect("set-up ran"),
        "s",
    );
    metrics.extend(ledger::measure(&benches, args.seed, &mut tracer, &mut ops));
    // How much worse each figure read with tracing on, in percent.
    for ((name, before, _), (_, after, _)) in untraced.0.iter().zip(&traced.0) {
        let worse = if name == "blocks_per_s" {
            before / after
        } else {
            after / before
        };
        metrics.push(
            &format!("trace.overhead.{name}"),
            (worse - 1.0) * 100.0,
            "%",
        );
    }
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("spans")))
        .unwrap_or_else(|| PathBuf::from("spans"));
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    match tracer.write(&path) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            ops.failed += 1;
        }
    }
    (ops, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (ops, metrics) = run(&args);
    for (name, value, unit) in &metrics.0 {
        eprintln!("perfbench: {name:<36} {value:>16.6} {unit}");
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.failed == 0,
        ops.attempted,
        ops.failed
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; a figure that degenerated to one
        // is reported as null rather than as invalid JSON.
        let value = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    println!("{out}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_every_flag() {
        let a = parse(&[
            "--workload",
            "serve-sessions",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid flags");
        assert_eq!(a.workload, Workload::ServeSessions);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3, true));
    }

    #[test]
    fn rejects_unknown_or_incomplete_flags() {
        assert!(parse(&["--workload", "trace-hot", "--bogus"]).is_err());
        assert!(parse(&["--workload"]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err());
        assert!(parse(&["--workload", "trace-cold", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "trace-cold", "--seconds", "0"]).is_err());
    }

    #[test]
    fn seeded_order_is_a_permutation_fixed_by_the_seed() {
        let a = seeded_order(9, 5);
        assert_eq!(a, seeded_order(9, 5));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
    }
}
