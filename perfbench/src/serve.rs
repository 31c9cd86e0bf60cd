//! The serve workload: one client, one TCP connection, closed loop,
//! sessions drawn from a seeded plan.

use std::time::{Duration, Instant};

use hotpath_ir::rng::Rng64;
use hotpath_serve::{serve, Client, ClientError, ServeConfig, ServerHandle, SessionConfig};
use hotpath_vm::OptLevel;

use crate::spans::{SpanId, Tracer};
use crate::stats::{mix_median, secs};
use crate::trace::{Bench, Reference, SCALE};

/// Blocks per `Run` request. Short, so the request path (wire, reactor,
/// shard hop) is a large share of each request.
pub const FUEL: u64 = 4096;

/// One shard and one reactor: with the client thread that is at most two
/// busy threads, which a 2-core host can run without oversubscription.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        reactors: 1,
        ..ServeConfig::default()
    }
}

/// The session configuration for a program.
pub fn session_config(bench: &Bench, prewarm: bool) -> SessionConfig {
    SessionConfig::exec(bench.name, SCALE)
        .with_opt_level(OptLevel::Full)
        .with_prewarm(prewarm)
}

/// `Run` requests a program needs to finish.
pub fn slices(reference: &Reference) -> u64 {
    reference.stats.blocks_executed.div_ceil(FUEL)
}

/// One planned session.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SessionPlan {
    /// Index of the program in the workload's program list.
    pub program: usize,
    /// After this many `Run` requests the session is snapshotted,
    /// restored into a fresh session, and the original closed.
    pub snapshot_at: u64,
    /// Open from the fleet profile store's aggregate.
    pub prewarm: bool,
}

/// Draws rounds of sessions from a seed. Every round runs each program
/// once, in a seeded order, with a seeded snapshot point in the middle
/// half of its run; every second session of a program opens prewarmed,
/// the seed choosing which. Every round therefore has the same mix of
/// requests, so medians compare across seeds.
#[derive(Debug)]
pub struct Planner {
    rng: Rng64,
    slices: Vec<u64>,
    prewarm_phase: Vec<bool>,
    round: u64,
}

impl Planner {
    /// A planner for programs needing `slices[i]` runs each.
    pub fn new(seed: u64, slices: Vec<u64>) -> Planner {
        let mut rng = Rng64::seed_from_u64(seed ^ 0x5E55_1045);
        let prewarm_phase = slices.iter().map(|_| rng.gen_bool(0.5)).collect();
        Planner {
            rng,
            slices,
            prewarm_phase,
            round: 0,
        }
    }

    /// The next round of sessions.
    pub fn next_round(&mut self) -> Vec<SessionPlan> {
        let mut order: Vec<usize> = (0..self.slices.len()).collect();
        for i in (1..order.len()).rev() {
            let j = self.rng.next_below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        let round = self.round;
        self.round += 1;
        order
            .into_iter()
            .map(|program| {
                let n = self.slices[program];
                let snapshot_at = n / 4 + self.rng.next_below((n / 2).max(1));
                SessionPlan {
                    program,
                    snapshot_at: snapshot_at.max(1),
                    prewarm: (round % 2 == 1) != self.prewarm_phase[program],
                }
            })
            .collect()
    }
}

/// A non-`Run` request kind.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Op {
    /// Cold open.
    Open,
    /// Prewarmed open.
    OpenPrewarm,
    /// Snapshot of a live session.
    Snapshot,
    /// Restore from a snapshot.
    Restore,
    /// Profile publish.
    Publish,
    /// Close.
    Close,
}

impl Op {
    fn span(self) -> &'static str {
        match self {
            Op::Open => "serve.open",
            Op::OpenPrewarm => "serve.open_prewarm",
            Op::Snapshot => "serve.snapshot",
            Op::Restore => "serve.restore",
            Op::Publish => "serve.publish",
            Op::Close => "serve.close",
        }
    }
}

/// Latencies the client saw.
#[derive(Debug, Default)]
pub struct Traffic {
    /// `Run` latencies in µs, with the program and blocks run.
    pub runs: Vec<(usize, f64, u64)>,
    /// Other requests' latencies in µs, with the program.
    pub control: Vec<(Op, usize, f64)>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed, plus finished sessions whose result differed
    /// from the reference.
    pub failed: u64,
    /// Failures that were the server refusing with `Busy`.
    pub busy: u64,
}

impl Traffic {
    /// Median `Run` latency, µs: each program's median, averaged over
    /// the programs' shares of the `Run` requests.
    pub fn run_p50_us(&self) -> f64 {
        mix_median(self.runs.iter().map(|r| (r.0, r.1))).unwrap_or(0.0)
    }

    /// Median latency of the other requests, µs: the median of each kind
    /// of request on each program, averaged over their shares of the
    /// requests.
    pub fn control_p50_us(&self) -> f64 {
        mix_median(self.control.iter().map(|c| ((c.0, c.1), c.2))).unwrap_or(0.0)
    }

    /// Median latency of one kind of request, µs, averaged over the
    /// programs the same way.
    pub fn op_p50_us(&self, op: Op) -> f64 {
        let of_op = self.control.iter().filter(|c| c.0 == op);
        mix_median(of_op.map(|c| (c.1, c.2))).unwrap_or(0.0)
    }

    /// Total blocks over the time the `Run` requests take at
    /// [`Traffic::run_p50_us`]: throughput from medians, not from wall
    /// time.
    pub fn blocks_per_s(&self) -> f64 {
        let blocks: u64 = self.runs.iter().map(|r| r.2).sum();
        blocks as f64 / (self.runs.len() as f64 * self.run_p50_us() * 1e-6)
    }
}

/// A server on a loopback port and one client connected to it.
#[derive(Debug)]
pub struct Server {
    // Declared first so it drops first: the server's drain then finds no
    // connection still open.
    /// The client.
    pub client: Client,
    /// Owned so the server lives as long as the client; dropping it
    /// stops the server and joins its threads.
    _server: ServerHandle,
}

impl Server {
    /// Starts a server and connects.
    pub fn start() -> std::io::Result<Server> {
        let server = serve("127.0.0.1:0", serve_config())?;
        let client = Client::connect(server.addr())?;
        Ok(Server {
            client,
            _server: server,
        })
    }
}

/// Where a request belongs: its session's span, request id and program.
#[derive(Clone, Copy)]
struct At {
    root: SpanId,
    request: u64,
    program: usize,
}

/// Times one request under its own span.
fn timed<T>(tracer: &mut Tracer, at: At, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = tracer.begin(name, Some(at.root), at.request);
    let (out, s) = secs(f);
    tracer.end(span);
    (out, s * 1e6)
}

/// Records a failed request; true when it failed.
fn failed<T>(traffic: &mut Traffic, result: &Result<T, ClientError>) -> bool {
    traffic.attempted += 1;
    match result {
        Ok(_) => false,
        Err(e) => {
            if matches!(e, ClientError::Exhausted { last, .. } if last == "Busy") {
                traffic.busy += 1;
            }
            traffic.failed += 1;
            true
        }
    }
}

/// Sends one non-`Run` request, timed, and records its latency; `None`
/// when it failed.
fn control<T>(
    tracer: &mut Tracer,
    traffic: &mut Traffic,
    at: At,
    op: Op,
    f: impl FnOnce() -> Result<T, ClientError>,
) -> Option<T> {
    let (result, us) = timed(tracer, at, op.span(), f);
    if failed(traffic, &result) {
        return None;
    }
    traffic.control.push((op, at.program, us));
    result.ok()
}

/// Runs one planned session over `client` and records what it saw. The
/// session's final statistics must equal the reference's.
pub fn session(
    client: &mut Client,
    bench: &Bench,
    plan: SessionPlan,
    tracer: &mut Tracer,
    (parent, request): (Option<SpanId>, u64),
    traffic: &mut Traffic,
) {
    let root = tracer.begin("serve.session", parent, request);
    let at = At {
        root,
        request,
        program: plan.program,
    };
    let op = if plan.prewarm {
        Op::OpenPrewarm
    } else {
        Op::Open
    };
    let config = session_config(bench, plan.prewarm);
    let Some((mut id, ..)) = control(tracer, traffic, at, op, || client.open_detailed(config))
    else {
        tracer.end(root);
        return;
    };
    let mut runs = 0u64;
    let mut blocks = 0u64;
    let finished = loop {
        let (ran, us) = timed(tracer, at, "serve.run", || client.run(id, Some(FUEL)));
        if failed(traffic, &ran) {
            break None;
        }
        let Ok((done, stats)) = ran else { break None };
        traffic
            .runs
            .push((plan.program, us, stats.blocks_executed - blocks));
        blocks = stats.blocks_executed;
        runs += 1;
        if done {
            break Some(stats);
        }
        if runs == plan.snapshot_at {
            match snapshot_restore(client, id, tracer, at, traffic) {
                Some(restored) => id = restored,
                None => break None,
            }
        }
    };
    let Some(stats) = finished else {
        // The failure is already counted; leave the server clean.
        drop(client.close(id));
        tracer.end(root);
        return;
    };
    if stats != bench.reference.stats {
        traffic.failed += 1;
    }
    control(tracer, traffic, at, Op::Publish, || {
        client.publish_profile(id)
    });
    control(tracer, traffic, at, Op::Close, || client.close(id));
    tracer.end(root);
}

/// Snapshots `id`, restores the blob into a fresh session and closes the
/// original; returns the new session.
fn snapshot_restore(
    client: &mut Client,
    id: u64,
    tracer: &mut Tracer,
    at: At,
    traffic: &mut Traffic,
) -> Option<u64> {
    let blob = control(tracer, traffic, at, Op::Snapshot, || client.snapshot(id))?;
    let restored = control(tracer, traffic, at, Op::Restore, || client.restore(blob))?;
    control(tracer, traffic, at, Op::Close, || client.close(id));
    Some(restored.0)
}

/// Runs whole rounds of planned sessions until `budget` has passed and at
/// least `min_rounds` are done.
pub fn run_loop(
    client: &mut Client,
    benches: &[Bench],
    planner: &mut Planner,
    budget: Duration,
    min_rounds: u32,
    tracer: &mut Tracer,
) -> Traffic {
    let mut traffic = Traffic::default();
    let start = Instant::now();
    let mut rounds = 0u32;
    let mut request = 0u64;
    while rounds < min_rounds || start.elapsed() < budget {
        for plan in planner.next_round() {
            let bench = &benches[plan.program];
            session(client, bench, plan, tracer, (None, request), &mut traffic);
            request += 1;
        }
        rounds += 1;
    }
    traffic
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rounds(seed: u64, n: usize) -> Vec<Vec<SessionPlan>> {
        let mut p = Planner::new(seed, vec![40, 400, 7, 1, 120]);
        (0..n).map(|_| p.next_round()).collect()
    }

    #[test]
    fn one_seed_always_yields_the_same_plan() {
        assert_eq!(rounds(42, 6), rounds(42, 6));
        assert_ne!(rounds(42, 6), rounds(43, 6));
    }

    #[test]
    fn every_round_runs_each_program_once_with_a_fixed_mix() {
        for round in rounds(7, 8).iter() {
            let mut programs: Vec<usize> = round.iter().map(|s| s.program).collect();
            programs.sort_unstable();
            assert_eq!(programs, vec![0, 1, 2, 3, 4]);
        }
        // Each program alternates cold and prewarmed opens.
        let all = rounds(7, 8);
        for program in 0..5 {
            let warm: Vec<bool> = all
                .iter()
                .map(|r| r.iter().find(|s| s.program == program).unwrap().prewarm)
                .collect();
            assert!(warm.windows(2).all(|w| w[0] != w[1]));
        }
    }

    #[test]
    fn snapshot_points_fall_in_the_middle_half() {
        let slices = [40u64, 400, 7, 1, 120];
        for round in rounds(3, 20) {
            for s in round {
                let n = slices[s.program];
                assert!(s.snapshot_at >= (n / 4).max(1), "{s:?}");
                assert!(s.snapshot_at < (n / 4 + (n / 2).max(1)).max(2), "{s:?}");
            }
        }
    }
}
