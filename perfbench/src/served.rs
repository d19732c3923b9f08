//! `served_solve` and `served_eco`: an in-process `Server::serve_tcp` on
//! loopback with 2 workers and one resident design, driven by two
//! closed-loop client connections that each wait for a reply before
//! sending the next frame.
//!
//! * `served_solve`: a 150-position net (`server_throughput --quick`
//!   size) with a 16-type library; both clients send default `solve`
//!   frames (`verify` on), so the DP is only part of each request and the
//!   request path and transport are the rest.
//! * `served_eco`: a 64-sink (≈945-position) net with a 16-type library;
//!   one client writes `eco` frames (small batches cycled from one seeded
//!   10%-locality edit script), the other sends `solve` frames.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fastbuf_api::wire::{ok_frame, parse_frame, scenario_record, Json};
use fastbuf_api::{EcoSolver, Outcome, Scenario, Session};
use fastbuf_buflib::BufferLibrary;
use fastbuf_incremental::{parse_edits, EditScriptSpec};
use fastbuf_netgen::RandomNetSpec;
use fastbuf_rctree::{io as netio, RoutingTree};
use fastbuf_server::handler::handle_frame;
use fastbuf_server::registry::DesignRegistry;
use fastbuf_server::{Server, ServerConfig};

use crate::layers::{overhead_share, span_summary, CoreReplay, Metrics, SetupTimes};
use crate::measure::{mean, median, ms, CpuTimer, Sample};
use crate::trace::Recorder;
use crate::{Params, Run, Traced};

/// Server worker threads and client connections.
const WORKERS: usize = 2;
/// Edits per `eco` frame.
const EDITS_PER_FRAME: usize = 4;
/// Length of the seeded edit script the writer cycles through: long
/// enough that the cost of a cycle does not hinge on a few edit sites.
const SCRIPT_EDITS: usize = 256;
/// Warm-up requests per client before the first timed op.
const WARMUP: usize = 20;
/// Seeded candidate nets a design is picked from.
const CANDIDATES: u64 = 9;
/// The resident design's id.
const DESIGN: &str = "bench";

/// A generated design: the text the server receives, and the parsed
/// copies the benchmark checks against.
struct DesignInputs {
    net_text: String,
    lib_text: String,
    tree: RoutingTree,
    session: Session,
    /// Worst slack (ps) of an in-process `Session` solve of the net.
    reference_ps: f64,
}

fn design(p: Params, eco: bool, times: &mut SetupTimes) -> DesignInputs {
    // Positions are pinned so that every seed asks for about the same work.
    let (sinks, positions) = match (eco, p.tiny) {
        (false, false) => (12, 150),
        (true, false) => (64, 945),
        (_, true) => (6, 60),
    };
    let salt = if eco { 3 } else { 2 };
    let (candidates, lib) = SetupTimes::time(&mut times.generate_ms, || {
        let candidates: Vec<RoutingTree> = (0..CANDIDATES)
            .map(|k| {
                RandomNetSpec {
                    seed: p.stream(salt * CANDIDATES + k),
                    ..RandomNetSpec::paper(sinks)
                }
                .with_target_positions(positions)
                .build()
            })
            .collect();
        (
            candidates,
            BufferLibrary::paper_synthetic(16).expect("b > 0"),
        )
    });
    // The design is the candidate of median work, so that how hard the
    // net (and, on served_eco, its edit script) happens to be varies less
    // from seed to seed.
    let session = Session::new(lib.clone());
    let mut scored: Vec<(u64, RoutingTree)> = candidates
        .into_iter()
        .map(|tree| {
            let script = eco.then(|| Script::new(p, &tree));
            (work_of(&session, &tree, script.as_ref()), tree)
        })
        .collect();
    scored.sort_by_key(|(work, _)| *work);
    let tree = scored.swap_remove(scored.len() / 2).1;
    let (net_text, lib_text) = (netio::write(&tree), lib.to_text());
    let tree = SetupTimes::time(&mut times.net_parse_ms, || {
        netio::parse(&net_text).expect("generated nets parse")
    });
    let lib = SetupTimes::time(&mut times.lib_parse_ms, || {
        BufferLibrary::from_text(&lib_text).expect("generated libraries parse")
    });
    let session = Session::new(lib);
    let reference_ps = worst_slack_ps(&session, &tree);
    DesignInputs {
        net_text,
        lib_text,
        tree,
        session,
        reference_ps,
    }
}

/// Machine-independent DP work (`SolveStats::addbuffer_work`) of one
/// `solve` request on `tree` plus, given the writer's script, of its mean
/// `eco` frame over one cycle of the script.
fn work_of(session: &Session, tree: &RoutingTree, script: Option<&Script>) -> u64 {
    let work = |o: Result<Outcome, _>| {
        o.ok()
            .and_then(|o| o.solution().map(|s| s.stats.addbuffer_work()))
            .unwrap_or(0)
    };
    let read = work(session.request(tree).track_predecessors(false).solve());
    let Some(script) = script else {
        return read;
    };
    let Ok(mut replica) = session.eco(tree, vec![Scenario::default()]) else {
        return read;
    };
    let mut write = 0;
    for lines in &script.lines {
        let edits = parse_edits(&lines.join("\n")).expect("script parses");
        if replica.apply_all(&edits).is_ok() {
            write += work(replica.solve());
        }
    }
    read + write / script.lines.len() as u64
}

/// Worst slack in ps of an in-process default solve.
fn worst_slack_ps(session: &Session, tree: &RoutingTree) -> f64 {
    session
        .request(tree)
        .solve()
        .expect("generated nets solve")
        .worst_slack()
        .expect("max-slack outcome")
        .picos()
}

fn load_frame(d: &DesignInputs) -> String {
    format!(
        r#"{{"v": 1, "id": "load", "op": "load", "design": "{DESIGN}", "net": {}, "lib": {}}}"#,
        Json::Str(d.net_text.clone()).to_json(),
        Json::Str(d.lib_text.clone()).to_json(),
    )
}

fn solve_frame(id: u64) -> String {
    format!(r#"{{"v": 1, "id": {id}, "op": "solve", "design": "{DESIGN}"}}"#)
}

/// An in-process TCP server, stopped and joined on drop.
struct Harness {
    server: Arc<Server>,
    config: ServerConfig,
    addr: SocketAddr,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Harness {
    fn start() -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let config = ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        };
        let server = Arc::new(Server::new(config.clone()));
        let serving = Arc::clone(&server);
        let thread = std::thread::spawn(move || serving.serve_tcp(listener));
        Harness {
            server,
            config,
            addr,
            thread: Some(thread),
        }
    }

    fn registry(&self) -> &DesignRegistry {
        self.server.registry()
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        self.server.stop();
        if let Some(thread) = self.thread.take() {
            if !matches!(thread.join(), Ok(Ok(()))) {
                eprintln!("warning: server thread ended with an error");
            }
        }
    }
}

/// One closed-loop client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to the in-process server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
            line: String::new(),
        }
    }

    /// Sends one frame and waits for its reply; `None` on I/O or JSON
    /// failure.
    fn call(&mut self, frame: &str) -> Option<Json> {
        let mut bytes = Vec::with_capacity(frame.len() + 1);
        bytes.extend_from_slice(frame.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes).ok()?;
        self.line.clear();
        if self.reader.read_line(&mut self.line).ok()? == 0 {
            return None;
        }
        Json::parse(self.line.trim()).ok()
    }
}

fn is_ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

fn reply_slack(reply: &Json) -> Option<f64> {
    reply.get("result")?.get("worst_slack_ps")?.as_f64()
}

/// The writer's edit script, pre-cut into `eco` frames.
struct Script {
    /// Edit lines of each batch.
    lines: Vec<Vec<String>>,
    /// The JSON array of each batch.
    arrays: Vec<String>,
}

impl Script {
    fn new(p: Params, tree: &RoutingTree) -> Self {
        let edits = EditScriptSpec {
            edits: SCRIPT_EDITS,
            locality: 0.1,
            seed: p.stream(4),
            swap_library_every: 0,
        }
        .generate(tree);
        let lines: Vec<Vec<String>> = edits
            .chunks(EDITS_PER_FRAME)
            .map(|batch| batch.iter().map(ToString::to_string).collect())
            .collect();
        let arrays = lines
            .iter()
            .map(|batch: &Vec<String>| {
                let items: Vec<String> = batch
                    .iter()
                    .map(|l| Json::Str(l.clone()).to_json())
                    .collect();
                format!("[{}]", items.join(", "))
            })
            .collect();
        Script { lines, arrays }
    }

    fn frame(&self, id: u64, write: usize) -> String {
        format!(
            r#"{{"v": 1, "id": {id}, "op": "eco", "design": "{DESIGN}", "edits": {}}}"#,
            self.arrays[write % self.arrays.len()]
        )
    }
}

/// A started server with a loaded design and connected clients.
struct Live {
    inputs: DesignInputs,
    clients: Vec<Client>,
    /// Round trip of the `load` frame.
    load_ms: f64,
    /// Indices of the committed `eco` batches, in commit order.
    committed: Vec<usize>,
    script: Option<Script>,
    // Declared last: dropped after the clients disconnect.
    harness: Harness,
}

fn start(p: Params, eco: bool, times: &mut SetupTimes) -> Live {
    let inputs = design(p, eco, times);
    let harness = Harness::start();
    let mut clients: Vec<Client> = (0..WORKERS)
        .map(|_| Client::connect(harness.addr))
        .collect();
    let t = Instant::now();
    let loaded = clients[0].call(&load_frame(&inputs));
    let load_ms = ms(t.elapsed());
    assert!(loaded.as_ref().is_some_and(is_ok), "design load failed");
    let script = eco.then(|| Script::new(p, &inputs.tree));
    let mut live = Live {
        inputs,
        clients,
        load_ms,
        committed: Vec::new(),
        script,
        harness,
    };
    // Warm-up: fill the session's workspace pool and, on served_eco,
    // build the design's warm incremental engine.
    for c in 0..WORKERS {
        for i in 0..WARMUP {
            let reply = live.clients[c].call(&solve_frame(i as u64));
            assert!(reply.as_ref().is_some_and(is_ok), "warm-up solve failed");
        }
    }
    if let Some(script) = &live.script {
        let reply = live.clients[0].call(&script.frame(0, 0));
        assert!(reply.as_ref().is_some_and(is_ok), "warm-up eco failed");
        live.committed.push(0);
    }
    live
}

/// Runs `op` closed-loop on every client until `budget` passes; returns
/// per-client results and the wall time until the last op finished.
fn drive<R: Send>(
    clients: &mut [Client],
    budget: Duration,
    op: impl Fn(usize, &mut Client, Instant) -> R + Sync,
) -> (Vec<R>, Duration) {
    let start = Instant::now();
    let deadline = start + budget;
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let op = &op;
                s.spawn(move || op(c, client, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (results, start.elapsed())
}

/// Closed-loop latencies and failures of one client.
#[derive(Default)]
struct Loop {
    latency_ms: Vec<Sample>,
    failed: u64,
    /// Committed write indices (the `served_eco` writer only).
    committed: Vec<usize>,
}

/// The untraced client loops: `solve` on every client, except that on
/// `served_eco` client 0 writes. `solve` replies must carry the
/// in-process reference slack when the design never changes.
fn untraced_loops(live: &mut Live, budget: Duration) -> (Vec<Loop>, Duration) {
    let reference = live.inputs.reference_ps;
    let script = live.script.as_ref();
    let first_write = live.committed.len();
    drive(&mut live.clients, budget, |c, client, deadline| {
        let origin = deadline - budget;
        let mut out = Loop::default();
        let mut i = 0u64;
        loop {
            let write = script.filter(|_| c == 0);
            let frame = match write {
                Some(s) => s.frame(i, first_write + i as usize),
                None => solve_frame(i),
            };
            let t = Instant::now();
            let reply = client.call(&frame);
            out.latency_ms.push(Sample {
                at: t - origin,
                ms: ms(t.elapsed()),
            });
            let ok = match (&reply, script) {
                (Some(r), None) => is_ok(r) && reply_slack(r) == Some(reference),
                (Some(r), Some(_)) => is_ok(r) && reply_slack(r).is_some_and(f64::is_finite),
                (None, _) => false,
            };
            if ok && write.is_some() {
                out.committed.push(first_write + i as usize);
            }
            out.failed += u64::from(!ok);
            i += 1;
            if Instant::now() >= deadline {
                return out;
            }
        }
    })
}

/// After the writer stops: a served `solve` must match an in-process
/// replay of the committed edit sequence.
fn eco_replay_matches(live: &mut Live) -> bool {
    let script = live.script.as_ref().expect("served_eco has a script");
    let lines: Vec<&str> = live
        .committed
        .iter()
        .flat_map(|&w| {
            script.lines[w % script.lines.len()]
                .iter()
                .map(String::as_str)
        })
        .collect();
    let Ok(edits) = parse_edits(&lines.join("\n")) else {
        return false;
    };
    let session = &live.inputs.session;
    let Ok(mut replica) = session.eco(&live.inputs.tree, vec![Scenario::default()]) else {
        return false;
    };
    if replica.apply_all(&edits).is_err() {
        return false;
    }
    let expected = worst_slack_ps(session, replica.tree());
    let served = live.clients[1]
        .call(&solve_frame(u64::MAX))
        .filter(is_ok)
        .and_then(|r| reply_slack(&r));
    served.map(f64::to_bits) == Some(expected.to_bits())
}

/// The untraced run of `served_eco` (`eco`) or `served_solve`.
pub fn untraced(p: Params, budget: Duration, eco: bool) -> Run {
    let mut run = Run::default();
    let mut times = SetupTimes::default();
    let mut live = run.repeat_setup(|| start(p, eco, &mut times));
    let (cpu, start) = (CpuTimer::start(), Instant::now());
    let (loops, _) = untraced_loops(&mut live, budget);
    run.end_window(start, cpu);
    for (c, l) in loops.into_iter().enumerate() {
        run.ops += l.latency_ms.len() as u64;
        run.failed += l.failed;
        run.latency_ms.extend(&l.latency_ms);
        if eco {
            // Client 0 writes, client 1 reads.
            let kind = if c == 0 { "write" } else { "read" };
            run.by_kind.push((kind, l.latency_ms));
            live.committed.extend(l.committed);
        }
    }
    if eco {
        run.checks.push((
            "served_solve_matches_eco_replay",
            eco_replay_matches(&mut live),
        ));
    }
    run
}

/// What one traced client thread recorded.
struct ClientTrace {
    rec: Recorder,
    core: CoreReplay,
    ops: u64,
    failed: u64,
    /// `(reused, recomputed)` nodes of the writer's replica solves.
    reuse: (u64, u64),
}

/// Replays one `solve` frame through the public pieces the handler uses,
/// as children of the `server.handle_frame` replay `h`.
fn replay_solve(
    rec: &mut Recorder,
    core: &mut CoreReplay,
    h: usize,
    registry: &DesignRegistry,
    frame: &str,
) -> bool {
    let ((id, op), _) = rec.replay("api.parse_frame", h, || parse_frame(frame));
    if op.is_err() {
        return false;
    }
    let (design, _) = rec.replay("server.registry_get", h, || registry.get(DESIGN));
    let Some(design) = design else {
        return false;
    };
    let (tree, _) = rec.replay("server.lock_wait", h, || {
        Arc::clone(&design.state.read().expect("design lock poisoned").tree)
    });
    let session = &design.session;
    let (lib, model) = (session.library(), session.delay_model());
    let (outcome, req) = rec.replay("api.request", h, || {
        session
            .request(&tree)
            .scenarios(vec![Scenario::default()])
            .workers(1)
            .solve()
    });
    let Ok(outcome) = outcome else {
        return false;
    };
    let solution = core.solve(rec, req, &tree, lib, model);
    let (verified, ver) = rec.replay("api.outcome_verify", h, || {
        outcome.verify(&tree, lib).is_ok()
    });
    let replay_ok = CoreReplay::verify(rec, ver, &solution, &tree, lib, model);
    let (serialized, _) = rec.replay("api.serialize", h, || {
        serialize(id.as_ref(), &tree, lib, &outcome)
    });
    verified && replay_ok && serialized
}

/// The records-and-envelope step of a reply.
fn serialize(
    id: Option<&Json>,
    tree: &RoutingTree,
    lib: &BufferLibrary,
    outcome: &Outcome,
) -> bool {
    let records: Result<Vec<String>, _> = outcome
        .scenarios
        .iter()
        .map(|corner| {
            scenario_record(DESIGN, 0, tree, lib, corner, false, false).map(|r| r.to_json())
        })
        .collect();
    match records {
        Ok(records) => {
            !ok_frame(id, &format!("{{\"results\": [{}]}}", records.join(", "))).is_empty()
        }
        Err(_) => false,
    }
}

/// The traced run of `served_eco` (`eco`) or `served_solve`.
pub fn traced(p: Params, budget: Duration, eco: bool) -> Traced {
    let mut times = SetupTimes::default();
    let mut live = start(p, eco, &mut times);
    let half = budget / 2;

    // Untraced half: the overhead baseline.
    let (loops, wall) = untraced_loops(&mut live, half);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (c, l) in loops.into_iter().enumerate() {
        attempted += l.latency_ms.len() as u64;
        failed += l.failed;
        if eco && c == 0 {
            live.committed.extend(l.committed);
        }
    }
    let untraced_rate = attempted as f64 / wall.as_secs_f64();

    // The shadow registry mirrors the live design so that `eco` frames can
    // be replayed through `handle_frame` without committing them twice.
    let shadow = DesignRegistry::new(1);
    let config = live.harness.config.clone();
    let mut replica: Option<EcoSolver> = None;
    if let Some(script) = &live.script {
        let loaded = handle_frame(&shadow, &config, &load_frame(&live.inputs), Instant::now());
        assert!(
            loaded.reply().contains("\"ok\": true"),
            "shadow load failed"
        );
        let mut solver = live
            .inputs
            .session
            .eco(&live.inputs.tree, vec![Scenario::default()])
            .expect("replica builds");
        for &w in &live.committed {
            let frame = script.frame(0, w);
            handle_frame(&shadow, &config, &frame, Instant::now());
            let lines = script.lines[w % script.lines.len()].join("\n");
            solver
                .apply_all(&parse_edits(&lines).expect("script parses"))
                .expect("committed edits apply");
        }
        replica = Some(solver);
    }
    let replica = std::sync::Mutex::new(replica);
    let first_write = live.committed.len();
    let epoch = Instant::now();
    let registry = live.harness.registry();
    let script = live.script.as_ref();
    let session = &live.inputs.session;
    let reference = live.inputs.reference_ps;
    let (clients, wall) = drive(&mut live.clients, half, |c, client, deadline| {
        let mut t = ClientTrace {
            rec: Recorder::new(epoch),
            core: CoreReplay::default(),
            ops: 0,
            failed: 0,
            reuse: (0, 0),
        };
        let mut replica = if c == 0 {
            replica.lock().expect("replica lock").take()
        } else {
            None
        };
        loop {
            let id = ((c as u64) << 32) | t.ops;
            let write = script.filter(|_| c == 0);
            let frame = match write {
                Some(s) => s.frame(id, first_write + t.ops as usize),
                None => solve_frame(id),
            };
            let root = t.rec.open("transport.round_trip", id, None);
            let reply = client.call(&frame);
            t.rec.close(root);
            let mut ok = match (&reply, script) {
                (Some(r), None) => is_ok(r) && reply_slack(r) == Some(reference),
                (Some(r), Some(_)) => is_ok(r) && reply_slack(r).is_some_and(f64::is_finite),
                (None, _) => false,
            };
            match (write, replica.as_mut()) {
                (Some(s), Some(replica)) => {
                    let (handled, h) = t.rec.replay("server.handle_frame", root, || {
                        handle_frame(&shadow, &config, &frame, Instant::now())
                    });
                    ok &= handled.reply().contains("\"ok\": true");
                    let w = first_write + t.ops as usize;
                    let lines = s.lines[w % s.lines.len()].join("\n");
                    let ((fid, _), _) = t.rec.replay("api.parse_frame", h, || parse_frame(&frame));
                    let (edits, _) = t
                        .rec
                        .replay("incremental.parse_edits", h, || parse_edits(&lines));
                    let edits = edits.expect("script parses");
                    let (applied, _) = t
                        .rec
                        .replay("incremental.apply", h, || replica.apply_all(&edits));
                    let (outcome, _) = t.rec.replay("incremental.solve", h, || replica.solve());
                    match (applied, outcome) {
                        (Ok(()), Ok(outcome)) => {
                            let tree = replica.tree();
                            let lib = session.library();
                            let (verified, _) = t.rec.replay("api.outcome_verify", h, || {
                                outcome.verify(tree, lib).is_ok()
                            });
                            let (serialized, _) = t.rec.replay("api.serialize", h, || {
                                serialize(fid.as_ref(), tree, lib, &outcome)
                            });
                            if let Some(stats) = outcome.solution().map(|s| &s.stats) {
                                t.reuse.0 += stats.nodes_reused;
                                t.reuse.1 += stats.nodes_recomputed;
                            }
                            // The replica must agree with the served reply.
                            let replica_ps = outcome.worst_slack().map(|s| s.picos());
                            ok &= verified
                                && serialized
                                && replica_ps.is_some()
                                && replica_ps == reply.as_ref().and_then(reply_slack);
                        }
                        _ => ok = false,
                    }
                }
                _ => {
                    let received = Instant::now();
                    let (handled, h) = t.rec.replay("server.handle_frame", root, || {
                        handle_frame(registry, &config, &frame, received)
                    });
                    ok &= handled.reply().contains("\"ok\": true");
                    ok &= replay_solve(&mut t.rec, &mut t.core, h, registry, &frame);
                }
            }
            t.failed += u64::from(!ok);
            t.ops += 1;
            if Instant::now() >= deadline {
                return t;
            }
        }
    });

    let mut rec = Recorder::new(epoch);
    let mut core = CoreReplay::default();
    let mut ops = 0u64;
    let mut reuse = (0u64, 0u64);
    for t in clients {
        ops += t.ops;
        failed += t.failed;
        reuse.0 += t.reuse.0;
        reuse.1 += t.reuse.1;
        rec.absorb(t.rec);
        core.absorb(t.core);
    }
    attempted += ops;
    let traced_rate = ops as f64 / wall.as_secs_f64();

    let mut metrics = Metrics::new();
    core.metrics(&rec, &mut metrics);
    metrics.insert(
        "api.request_overhead_ms",
        median(&rec.self_ms_of("api.request")),
    );
    metrics.insert(
        "api.outcome_verify_ms",
        median(&rec.durations_ms("api.outcome_verify")),
    );
    metrics.insert(
        "api.parse_frame_ms",
        median(&rec.durations_ms("api.parse_frame")),
    );
    metrics.insert(
        "api.serialize_ms",
        median(&rec.durations_ms("api.serialize")),
    );
    metrics.insert(
        "server.handle_frame_ms",
        median(&rec.durations_ms("server.handle_frame")),
    );
    metrics.insert(
        "server.transport_ms",
        median(&rec.self_ms_of("transport.round_trip")),
    );
    metrics.insert(
        "server.lock_wait_ms",
        mean(&rec.durations_ms("server.lock_wait")),
    );
    let round_trips: f64 = rec.durations_ms("transport.round_trip").iter().sum();
    let unattributed: f64 = rec.self_ms_of("server.handle_frame").iter().sum();
    metrics.insert("server.unattributed_share", unattributed / round_trips);
    metrics.insert("server.load_ms", live.load_ms);
    if eco {
        metrics.insert(
            "incremental.apply_ms",
            median(&rec.durations_ms("incremental.apply")),
        );
        metrics.insert(
            "incremental.solve_ms",
            median(&rec.durations_ms("incremental.solve")),
        );
        metrics.insert(
            "incremental.reuse_ratio",
            reuse.0 as f64 / (reuse.0 + reuse.1).max(1) as f64,
        );
        let stats = live.clients[1].call(r#"{"v": 1, "id": "stats", "op": "stats"}"#);
        let hit = stats.as_ref().and_then(|s| {
            s.get("result")?
                .get("designs")?
                .as_array()?
                .first()?
                .get("eco_reuse")?
                .as_f64()
        });
        match hit {
            Some(hit) => {
                metrics.insert("server.eco_warm_hit_ratio", hit);
            }
            None => failed += 1,
        }
    }
    times.metrics(&mut metrics);
    span_summary(&rec, ops, &mut metrics);
    metrics.insert(
        "trace.overhead_share",
        overhead_share(untraced_rate, traced_rate),
    );
    Traced {
        metrics,
        rec,
        attempted,
        failed,
    }
}
