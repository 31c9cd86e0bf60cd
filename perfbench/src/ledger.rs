//! The per-layer ledger of the traced run: a fixed amount of work that
//! times each layer's public calls from outside, on every workload the
//! same way, over the workload's own programs (the per-program rows cover
//! all nine).

use std::hint::black_box;

use hotpath_core::{HotPathPredictor, NetPredictor};
use hotpath_dynamo::LinkedEngine;
use hotpath_profiles::{PathExecution, PathExtractor, PathSink};
use hotpath_serve::{Request, Response, Session, SessionManager, SessionSnapshot};
use hotpath_vm::{CountingObserver, StepOutcome, Vm};
use hotpath_workloads::ALL_WORKLOADS;

use crate::serve::{serve_config, session_config, slices, Op, Planner, Server, Traffic, FUEL};
use crate::spans::Tracer;
use crate::stats::{median, quantile, secs};
use crate::trace::{build_all, rep, shipped_config, with_references, Bench, CallSite};
use crate::{Metrics, Ops};

/// Rounds of each ladder. Fixed, so every traced run does the same work.
const ENGINE_ROUNDS: u32 = 3;
const MODE_ROUNDS: u32 = 3;
const SERVE_ROUNDS: u64 = 2;
const CODEC_BATCH: u32 = 1000;
const CODEC_BATCHES: u32 = 21;
const SNAPSHOT_REPS: usize = 5;

/// Counts completed paths.
struct CountSink(u64);

impl PathSink for CountSink {
    fn on_path(&mut self, _exec: &PathExecution) {
        self.0 += 1;
    }
}

/// Feeds completed paths to NET at τ=50 and counts them.
struct NetSink(NetPredictor, u64);

impl PathSink for NetSink {
    fn on_path(&mut self, exec: &PathExecution) {
        black_box(self.0.observe(exec));
        self.1 += 1;
    }
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// Runs every ladder and returns the per-layer metrics.
pub fn measure(benches: &[Bench], seed: u64, tracer: &mut Tracer, ops: &mut Ops) -> Metrics {
    let mut m = Metrics::default();
    engine_ladder(benches, tracer, ops, &mut m);
    mode_ladder(benches, tracer, ops, &mut m);
    serve_ladder(benches, seed, tracer, ops, &mut m);
    wire_codec(benches, &mut m);
    m
}

/// Linked runs with the engine's callbacks timed: how the run splits
/// between the VM's own work and the engine's.
fn engine_ladder(benches: &[Bench], tracer: &mut Tracer, ops: &mut Ops, m: &mut Metrics) {
    let config = shipped_config();
    let blocks: u64 = benches
        .iter()
        .map(|b| b.reference.stats.blocks_executed)
        .sum();
    let mut vm_self = Vec::new();
    let mut engine_self = Vec::new();
    let mut calls = 0;
    let (mut cached, mut guards, mut installs, mut flushes, mut bailed) = (0.0, 0, 0, 0, 0);
    for round in 0..ENGINE_ROUNDS {
        let (mut vm_s, mut engine) = (0.0, CallSite::default());
        for (i, bench) in benches.iter().enumerate() {
            let r = rep(bench, &config, tracer, u64::from(round) << 32 | i as u64);
            ops.count(r.correct);
            vm_s += r.run.as_secs_f64() - r.engine.ns as f64 * 1e-9;
            engine.ns += r.engine.ns;
            engine.calls += r.engine.calls;
            if round == 0 {
                let o = &r.outcome;
                cached += o.cached_block_fraction * bench.reference.stats.blocks_executed as f64;
                guards += o.guard_execs;
                installs += o.fragments_installed;
                flushes += o.flushes;
                bailed += u64::from(o.bailed_out);
            }
        }
        vm_self.push(vm_s);
        engine_self.push(engine.ns as f64 * 1e-9);
        calls = engine.calls;
    }
    m.push("vm.linked.self_s", med(&vm_self), "s");
    m.push("dynamo.engine.self_s", med(&engine_self), "s");
    m.push("dynamo.engine.calls", calls as f64, "count");
    m.push("vm.trace.cached_fraction", cached / blocks as f64, "ratio");
    m.push(
        "vm.trace.guard_execs_per_block",
        guards as f64 / blocks as f64,
        "ratio",
    );
    m.push("dynamo.fragments_installed", installs as f64, "count");
    m.push("dynamo.flushes", flushes as f64, "count");
    m.push("dynamo.bailed_out", bailed as f64, "count");
}

/// Interpreter, then + path extraction, then + NET, then linked, on all
/// nine programs in interleaved rounds. Differences between rungs give
/// the profiler's and the predictor's cost without per-block timers.
fn mode_ladder(benches: &[Bench], tracer: &mut Tracer, ops: &mut Ops, m: &mut Metrics) {
    let (built, _) = build_all(&ALL_WORKLOADS);
    let all = with_references(built);
    let config = shipped_config();
    let mut off = Tracer::new(false);
    let n = all.len();
    let (mut interp, mut extract, mut net, mut linked) = (
        vec![vec![]; n],
        vec![vec![]; n],
        vec![vec![]; n],
        vec![vec![]; n],
    );
    let mut paths = vec![0u64; n];
    for round in 0..MODE_ROUNDS {
        for (i, b) in all.iter().enumerate() {
            let request = u64::from(round) << 32 | i as u64;
            let span = tracer.begin("ledger.interp", None, request);
            let (stats, t) = secs(|| Vm::new(&b.program).run(&mut CountingObserver::default()));
            tracer.end(span);
            ops.count(stats.is_ok_and(|s| s == b.reference.stats));
            interp[i].push(t);

            let span = tracer.begin("ledger.extract", None, request);
            let ((stats, sink), t) = secs(|| {
                let mut ex = PathExtractor::new(CountSink(0));
                let stats = Vm::new(&b.program).run(&mut ex);
                (stats, ex.into_parts().0)
            });
            tracer.end(span);
            ops.count(stats.is_ok_and(|s| s == b.reference.stats));
            extract[i].push(t);
            paths[i] = sink.0;

            let span = tracer.begin("ledger.net", None, request);
            let ((stats, sink), t) = secs(|| {
                let mut ex = PathExtractor::new(NetSink(NetPredictor::new(50), 0));
                let stats = Vm::new(&b.program).run(&mut ex);
                (stats, ex.into_parts().0)
            });
            tracer.end(span);
            ops.count(stats.is_ok_and(|s| s == b.reference.stats) && sink.1 == paths[i]);
            net[i].push(t);

            let span = tracer.begin("ledger.linked", None, request);
            let r = rep(b, &config, &mut off, request);
            tracer.end(span);
            ops.count(r.correct);
            linked[i].push(r.total.as_secs_f64());
        }
    }
    for (i, b) in all.iter().enumerate() {
        let blocks = b.reference.stats.blocks_executed as f64;
        let name = b.name.as_str();
        m.push(
            &format!("program.{name}.blocks_per_s"),
            blocks / med(&linked[i]),
            "1/s",
        );
        m.push(
            &format!("program.{name}.linked_vs_interp"),
            med(&interp[i]) / med(&linked[i]),
            "ratio",
        );
    }
    // Layer figures over the workload's own programs.
    let own: Vec<usize> = benches
        .iter()
        .map(|b| {
            all.iter()
                .position(|a| a.name == b.name)
                .expect("one of the nine")
        })
        .collect();
    let blocks: u64 = own
        .iter()
        .map(|&i| all[i].reference.stats.blocks_executed)
        .sum();
    let own_paths: u64 = own.iter().map(|&i| paths[i]).sum();
    let interp_s: f64 = own.iter().map(|&i| med(&interp[i])).sum();
    m.push("vm.interp.blocks_per_s", blocks as f64 / interp_s, "1/s");
    // Each rung ran right after the one below it, so a round's difference
    // is taken in one host phase; the median is over rounds.
    let rung = |upper: &[Vec<f64>], lower: &[Vec<f64>]| {
        let per_round: Vec<f64> = (0..MODE_ROUNDS as usize)
            .map(|r| own.iter().map(|&i| upper[i][r] - lower[i][r]).sum())
            .collect();
        med(&per_round)
    };
    m.push(
        "profiles.extract_ns_per_block",
        rung(&extract, &interp) / blocks as f64 * 1e9,
        "ns",
    );
    m.push(
        "core.net_ns_per_path",
        rung(&net, &extract) / own_paths.max(1) as f64 * 1e9,
        "ns",
    );
}

/// The same program in 4096-block slices through each serving layer in
/// turn: the VM directly, a `Session`, the in-process `SessionManager`
/// (adds the shard hop), and a TCP client (adds wire and reactor; these
/// sessions also follow the seeded plan's snapshot, restore, publish and
/// prewarm requests).
fn serve_ladder(benches: &[Bench], seed: u64, tracer: &mut Tracer, ops: &mut Ops, m: &mut Metrics) {
    let config = shipped_config();
    let mut vm_us = Vec::new();
    let mut session_us = Vec::new();
    let mut manager_us = Vec::new();
    let mut snap_enc = Vec::new();
    let mut snap_dec = Vec::new();
    let mut snap_kb = Vec::new();
    let mut traffic = Traffic::default();
    let mut tcp_secs = 0.0;
    let manager = SessionManager::new(serve_config());
    let mut server = Server::start().expect("start a loopback server");
    let mut planner = Planner::new(
        seed ^ 0x1ED6_E500,
        benches.iter().map(|b| slices(&b.reference)).collect(),
    );
    let mut nonce = 1u64;
    for round in 0..SERVE_ROUNDS {
        for plan in planner.next_round() {
            let b = &benches[plan.program];
            let request = round << 32 | plan.program as u64;

            let span = tracer.begin("ledger.vm_slices", None, request);
            let mut engine = LinkedEngine::new(config.clone());
            let mut vm = Vm::new(&b.program).with_opt_level(config.opt_level);
            let mut state = vm.start_linked();
            let stats = loop {
                let (out, t) = secs(|| vm.step_linked(&mut state, &mut engine, Some(FUEL)));
                vm_us.push(t * 1e6);
                match out {
                    Ok(StepOutcome::Yielded) => {}
                    Ok(StepOutcome::Halted(stats)) => break Some(stats),
                    Err(_) => break None,
                }
            };
            tracer.end(span);
            ops.count(stats == Some(b.reference.stats));

            let span = tracer.begin("ledger.session_slices", None, request);
            let mut session = Session::open(1, 0, session_config(b, false));
            let half = slices(&b.reference) / 2;
            let mut ran = 0;
            let stats = loop {
                let (out, t) = secs(|| session.run(Some(FUEL)));
                session_us.push(t * 1e6);
                ran += 1;
                if ran == half {
                    snapshot_codec(
                        &session.snapshot(),
                        &mut snap_enc,
                        &mut snap_dec,
                        &mut snap_kb,
                    );
                }
                match out {
                    Ok((false, _)) => {}
                    Ok((true, stats)) => break Some(stats),
                    Err(_) => break None,
                }
            };
            tracer.end(span);
            ops.count(stats == Some(b.reference.stats));

            let span = tracer.begin("ledger.manager_slices", None, request);
            let stats = manager_slices(&manager, b, &mut nonce, &mut manager_us);
            tracer.end(span);
            ops.count(stats == Some(b.reference.stats));

            let span = tracer.begin("ledger.tcp_session", None, request);
            let (_, t) = secs(|| {
                let id = (Some(span), request);
                crate::serve::session(&mut server.client, b, plan, tracer, id, &mut traffic)
            });
            tcp_secs += t;
            tracer.end(span);
        }
    }
    manager.shutdown();
    ops.attempted += traffic.attempted;
    ops.failed += traffic.failed;
    let tcp_us: Vec<f64> = traffic.runs.iter().map(|r| r.1).collect();
    let tcp_blocks: u64 = traffic.runs.iter().map(|r| r.2).sum();
    let (session, manager, tcp) = (med(&session_us), med(&manager_us), med(&tcp_us));
    m.push("vm.slice_us", med(&vm_us), "us");
    m.push("serve.session.run_us", session, "us");
    m.push("serve.manager.run_us", manager, "us");
    m.push("serve.tcp.run_us", tcp, "us");
    m.push("serve.shard_hop_us", manager - session, "us");
    m.push("serve.front_us", tcp - manager, "us");
    m.push("serve.snapshot.encode_us", mean(&snap_enc), "us");
    m.push("serve.snapshot.decode_us", mean(&snap_dec), "us");
    m.push("serve.snapshot.kb", mean(&snap_kb), "KiB");
    for (name, op) in [
        ("serve.open_p50_us", Op::Open),
        ("serve.open_prewarm_p50_us", Op::OpenPrewarm),
        ("serve.restore_p50_us", Op::Restore),
        ("serve.publish_p50_us", Op::Publish),
        ("serve.close_p50_us", Op::Close),
    ] {
        m.push(name, traffic.op_p50_us(op), "us");
    }
    m.push(
        "serve.run_p90_us",
        quantile(&tcp_us, 0.9).unwrap_or(0.0),
        "us",
    );
    m.push(
        "serve.run_p99_us",
        quantile(&tcp_us, 0.99).unwrap_or(0.0),
        "us",
    );
    m.push(
        "serve.wall_blocks_per_s",
        tcp_blocks as f64 / tcp_secs,
        "1/s",
    );
    m.push("serve.busy", traffic.busy as f64, "count");
    m.push("serve.retries", server.client.retries() as f64, "count");
    m.push(
        "serve.reconnects",
        server.client.reconnects() as f64,
        "count",
    );
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Times encoding and decoding of one snapshot.
fn snapshot_codec(
    snap: &SessionSnapshot,
    enc: &mut Vec<f64>,
    dec: &mut Vec<f64>,
    kb: &mut Vec<f64>,
) {
    let mut e = Vec::new();
    let mut d = Vec::new();
    let mut blob = Vec::new();
    for _ in 0..SNAPSHOT_REPS {
        let (b, t) = secs(|| snap.encode());
        e.push(t * 1e6);
        let (decoded, t) = secs(|| SessionSnapshot::decode(&b));
        d.push(t * 1e6);
        assert!(
            decoded.is_ok_and(|s| s == *snap),
            "a snapshot decodes to itself"
        );
        blob = b;
    }
    enc.push(med(&e));
    dec.push(med(&d));
    kb.push(blob.len() as f64 / 1024.0);
}

/// Runs `b` to completion through the in-process manager in 4096-block
/// slices, sequenced like the TCP client's requests; returns the final
/// statistics.
fn manager_slices(
    manager: &SessionManager,
    b: &Bench,
    nonce: &mut u64,
    run_us: &mut Vec<f64>,
) -> Option<hotpath_vm::RunStats> {
    let sequenced = |seq: u64, inner: Request| Request::Sequenced {
        seq,
        inner: Box::new(inner),
    };
    *nonce += 1;
    let open = Request::Open {
        config: session_config(b, false),
    };
    let Response::Opened { session, .. } = manager.request(sequenced(*nonce, open)) else {
        return None;
    };
    let mut seq = 1;
    let result = loop {
        let run = sequenced(
            seq,
            Request::Run {
                session,
                fuel: Some(FUEL),
            },
        );
        seq += 1;
        let (response, t) = secs(|| manager.request(run));
        run_us.push(t * 1e6);
        match response {
            Response::Ran { done: false, .. } => {}
            Response::Ran { done: true, stats } => break Some(stats),
            _ => break None,
        }
    };
    manager.request(sequenced(seq, Request::Close { session }));
    result
}

/// Encode and decode time of the hot request pair — a sequenced `Run`
/// and its `Ran` response — and its size on the wire with frame headers.
fn wire_codec(benches: &[Bench], m: &mut Metrics) {
    let request = Request::Sequenced {
        seq: 1234,
        inner: Box::new(Request::Run {
            session: 77,
            fuel: Some(FUEL),
        }),
    };
    let response = Response::Ran {
        done: false,
        stats: benches[0].reference.stats,
    };
    let (req_bytes, resp_bytes) = (request.encode(), response.encode());
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for _ in 0..CODEC_BATCHES {
        let (_, t) = secs(|| {
            for _ in 0..CODEC_BATCH {
                black_box(black_box(&request).encode());
                black_box(black_box(&response).encode());
            }
        });
        enc.push(t / f64::from(CODEC_BATCH) * 1e9);
        let (ok, t) = secs(|| {
            (0..CODEC_BATCH).all(|_| {
                Request::decode(black_box(&req_bytes)).is_ok()
                    && Response::decode(black_box(&resp_bytes)).is_ok()
            })
        });
        assert!(ok, "encoded frames decode");
        dec.push(t / f64::from(CODEC_BATCH) * 1e9);
    }
    m.push("serve.wire.encode_ns", med(&enc), "ns");
    m.push("serve.wire.decode_ns", med(&dec), "ns");
    m.push(
        "serve.wire.bytes_per_req",
        (req_bytes.len() + resp_bytes.len() + 8) as f64,
        "bytes",
    );
}
