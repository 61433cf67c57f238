//! The daemon workloads. The daemon runs in this process through
//! `service::server::Server::bind` — the code path `deltanet serve` uses —
//! on loopback. The load generator uses two connections: one for
//! requests, one for the subscriber. The calling thread drives the request
//! connection and one more thread reads the subscriber connection; the
//! open loop adds a thread that only reads replies.
//!
//! * `daemon-closed-airtel1`: `deltanet serve` defaults (2 shards, window
//!   32, monitor and loop check on, no durability); one client keeps at
//!   most 32 single-op requests in flight over the Airtel-1 trace, then
//!   asks Table 4's what-if questions on the final data plane.
//! * `daemon-open-durable-airtel1`: the first half of Airtel-1 is applied
//!   through a `CheckpointManager` (untimed); the daemon starts by
//!   recovering from that directory; an open loop sends the second half
//!   at a fixed rate with what-if queries at a fixed rate on the same
//!   connection, each timed from when it was due.

use crate::host::Steal;
use crate::inputs::{self, most_used_links, Input};
use crate::layers::{self, ShardPlan};
use crate::Outcome;
use deltanet::persist::{Durability, RecoveryPolicy};
use deltanet::{
    CheckpointConfig, CheckpointManager, DeltaNet, DeltaNetConfig, FsBackend, PersistNet,
};
use netmodel::topology::{LinkId, Topology};
use netmodel::trace::Op;
use perfbench::{
    due_time_ns, median, median_summary, percentile, quiet_or_all, residual_us, segment_ranges,
    summarize, OpenLoopSample, Summary, QUIET_STEAL,
};
use service::json::Json;
use service::{CheckpointSetup, Server, ServiceConfig};
use std::collections::BTreeSet;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Requests the closed-loop client keeps in flight.
pub const INFLIGHT: usize = 32;
/// Offered op rate of the open loop, ops/s: about a sixteenth of the
/// closed loop's throughput on a 2-core machine. Checkpoint stalls (every
/// 1024 ops) then hold up about 4% of requests: enough that the p99s show
/// them, few enough that the what-if p90 measures the query, not the
/// stall it happened to meet.
pub const OPEN_OPS_PER_S: f64 = 1250.0;
/// Offered what-if rate of the open loop, queries/s.
pub const OPEN_WHATIFS_PER_S: f64 = 20.0;
/// Rounds of the what-if link set after each closed-loop pass.
const CLOSED_WHATIF_ROUNDS: usize = 8;
/// Daemon start-ups timed for `setup_s` besides the measured passes.
const CLOSED_SETUP_SAMPLES: usize = 25;
const DURABLE_SETUP_SAMPLES: usize = 7;
/// Events the subscriber asks the daemon to buffer for it. The daemon's
/// default (256) is under 40 ms of the closed loop's event rate; a load
/// generator thread that the host deschedules for longer would lose
/// events, and the run would measure the host.
const SUBSCRIBER_BUFFER: usize = 4096;
/// Length of one open-loop pass; a run makes passes until `--seconds`.
const DURABLE_PASS_SECONDS: f64 = 8.0;
/// How long the load generator waits for a reply before giving up.
const STALL_LIMIT: Duration = Duration::from_secs(30);
/// Checkpoint cadence and retention: the `deltanet` CLI defaults.
pub(crate) const CHECKPOINT: CheckpointConfig = CheckpointConfig {
    every_ops: 1024,
    retain: 2,
    durability: Durability::FlushPerBatch,
};

/// Monotonic nanoseconds from a common origin, shared by both threads.
#[derive(Clone, Copy)]
struct Clock(Instant);

impl Clock {
    fn ns(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// The topology as the daemon prepares it: a drop link on every node.
pub(crate) fn prepared(topology: &Topology) -> Topology {
    let mut topo = topology.clone();
    let nodes: Vec<_> = topo.nodes().collect();
    for node in nodes {
        topo.drop_link(node);
    }
    topo
}

/// A scratch directory inside the benchmark's own directory, removed when
/// dropped.
pub(crate) struct WorkDir(pub(crate) PathBuf);

impl WorkDir {
    pub(crate) fn new() -> Result<WorkDir, String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".scratch")
            .join(std::process::id().to_string());
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        if let Some(parent) = self.0.parent() {
            std::fs::remove_dir(parent).ok(); // only succeeds when empty
        }
    }
}

pub(crate) fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(to).ok();
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Reads newline-terminated lines from a socket, stamping each with the
/// time the read that completed it returned.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    timeout: Option<Duration>,
    eof: bool,
}

impl LineReader {
    fn new(stream: TcpStream) -> LineReader {
        LineReader {
            stream,
            buf: Vec::new(),
            timeout: None,
            eof: false,
        }
    }

    /// One read (waiting at most `timeout`, or indefinitely); complete
    /// lines are appended to `lines`.
    fn fill(
        &mut self,
        clock: Clock,
        timeout: Option<Duration>,
        lines: &mut Vec<(u64, String)>,
    ) -> io::Result<()> {
        if timeout != self.timeout {
            self.stream.set_read_timeout(timeout)?;
            self.timeout = timeout;
        }
        let mut tmp = [0u8; 1 << 16];
        match self.stream.read(&mut tmp) {
            Ok(0) => self.eof = true,
            Ok(n) => {
                let t = clock.ns();
                self.buf.extend_from_slice(&tmp[..n]);
                let mut start = 0;
                while let Some(p) = self.buf[start..].iter().position(|&b| b == b'\n') {
                    let line = String::from_utf8_lossy(&self.buf[start..start + p]).into_owned();
                    lines.push((t, line));
                    start += p + 1;
                }
                self.buf.drain(..start);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// Reads until `lines` has `count` entries, the peer closes, or
    /// nothing arrives for [`STALL_LIMIT`].
    fn fill_to(
        &mut self,
        clock: Clock,
        count: usize,
        lines: &mut Vec<(u64, String)>,
    ) -> Result<(), String> {
        let mut progress = Instant::now();
        while lines.len() < count && !self.eof {
            if progress.elapsed() >= STALL_LIMIT {
                return Err(format!("no reply from the daemon for {STALL_LIMIT:?}"));
            }
            let before = lines.len();
            self.fill(clock, Some(STALL_LIMIT), lines)
                .map_err(|e| format!("reading from the daemon: {e}"))?;
            if lines.len() > before {
                progress = Instant::now();
            }
        }
        Ok(())
    }

    /// Waits for one more line.
    fn line(&mut self, clock: Clock) -> Result<(u64, String), String> {
        let mut lines = Vec::new();
        self.fill_to(clock, 1, &mut lines)?;
        if lines.is_empty() {
            return Err("daemon closed the connection".to_string());
        }
        if lines.len() > 1 {
            return Err("daemon sent an unrequested line".to_string());
        }
        Ok(lines.pop().expect("one line"))
    }
}

/// A connection to the daemon.
struct Conn {
    writer: TcpStream,
    reader: LineReader,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            writer,
            reader: LineReader::new(stream),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer
            .write_all(&bytes)
            .map_err(|e| format!("send: {e}"))
    }

    /// One request, one reply.
    fn call(&mut self, clock: Clock, line: &str) -> Result<Json, String> {
        self.send(line)?;
        let (_, reply) = self.reader.line(clock)?;
        service::json::parse(&reply).map_err(|e| format!("bad reply {reply}: {e}"))
    }
}

/// The in-process daemon.
struct Daemon {
    addr: SocketAddr,
    handle: JoinHandle<io::Result<()>>,
}

impl Daemon {
    fn start(topology: &Topology, config: ServiceConfig) -> Result<Daemon, String> {
        let server = Server::bind("127.0.0.1:0", topology.clone(), config)
            .map_err(|e| format!("daemon start: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = thread::spawn(move || server.run());
        Ok(Daemon { addr, handle })
    }

    /// Asks the daemon to stop over `conn` and waits until it has.
    fn stop(self, conn: &mut Conn, clock: Clock) -> Result<(), String> {
        let reply = conn.call(clock, "{\"id\": 0, \"op\": \"shutdown\"}")?;
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("shutdown refused: {}", reply.render()));
        }
        self.handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))
    }
}

/// Opens the subscriber connection and waits for its ack.
fn subscribe(addr: SocketAddr, clock: Clock) -> Result<LineReader, String> {
    let mut conn = Conn::open(addr)?;
    let ack = conn.call(
        clock,
        &format!("{{\"id\": 0, \"op\": \"subscribe\", \"buffer\": {SUBSCRIBER_BUFFER}}}"),
    )?;
    if ack.get("subscribed").and_then(Json::as_bool) != Some(true) {
        return Err(format!("subscribe refused: {}", ack.render()));
    }
    Ok(conn.reader)
}

/// Reads the subscriber stream on its own thread until the daemon closes
/// it.
fn spawn_subscriber(
    mut reader: LineReader,
    clock: Clock,
) -> JoinHandle<Result<Vec<(u64, String)>, String>> {
    thread::spawn(move || {
        let mut lines = Vec::new();
        reader
            .fill_to(clock, usize::MAX, &mut lines)
            .map_err(|e| format!("subscriber: {e}"))?;
        Ok(lines)
    })
}

/// Starts a daemon, subscribes, and returns it with the time that took.
fn start_and_subscribe(
    topology: &Topology,
    config: ServiceConfig,
    clock: Clock,
) -> Result<(Daemon, LineReader, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::start(topology, config)?;
    let sub = subscribe(daemon.addr, clock)?;
    Ok((daemon, sub, t.elapsed().as_secs_f64()))
}

/// One timed start-up with nothing else done: start, subscribe, stop.
fn setup_sample(topology: &Topology, config: ServiceConfig, clock: Clock) -> Result<f64, String> {
    let (daemon, mut sub, secs) = start_and_subscribe(topology, config, clock)?;
    let mut conn = Conn::open(daemon.addr)?;
    daemon.stop(&mut conn, clock)?;
    sub.fill_to(clock, usize::MAX, &mut Vec::new())?;
    Ok(secs)
}

fn what_if_line(id: u64, topology: &Topology, link: LinkId) -> String {
    let l = topology.link(link);
    format!(
        "{{\"id\": {id}, \"op\": \"what_if\", \"src\": {}, \"dst\": {}, \"check_loops\": true}}",
        l.src.0, l.dst.0
    )
}

/// Everything one daemon pass recorded, on the load generator's clock.
#[derive(Default)]
pub(crate) struct Pass {
    /// Global op count before the pass (recovered ops).
    base: u64,
    /// Send time of each op request.
    op_sent: Vec<u64>,
    /// Each op request's `(start, reply)` times: the latency runs from
    /// the send (closed loop) or from when it was due (open loop); `None`
    /// when no reply arrived.
    op_times: Vec<Option<(u64, u64)>>,
    /// Each op request's id.
    op_ids: Vec<u64>,
    /// Each op's reply.
    op_reply: Vec<Option<String>>,
    /// `(ops sent before it, link)` of each what-if.
    whatif_at: Vec<(usize, LinkId)>,
    /// Each what-if's `(start, reply)` times, as for ops.
    whatif_times: Vec<Option<(u64, u64)>>,
    /// Each what-if's request id.
    whatif_ids: Vec<u64>,
    /// Each what-if's reply.
    whatif_reply: Vec<Option<String>>,
    /// Every request line sent, in order.
    request_lines: Vec<String>,
    /// Share of CPU time the host took during the pass.
    steal: f64,
    /// Lateness of every open-loop send, ns.
    late_ns: Vec<u64>,
    /// In-flight requests sampled at every send.
    inflight: Vec<u64>,
    /// Subscriber lines with receive times.
    events: Vec<(u64, String)>,
    /// The final `stats` reply.
    stats: Option<Json>,
    /// `setup_s` of this pass's daemon.
    setup_s: f64,
}

impl Pass {
    /// The record of requests served in process, without sockets: `base`
    /// ops preceded them; op request `k` took `op_ns[k]` from parse to
    /// rendered ack; `whatif_at` places the what-if queries.
    pub(crate) fn in_process(
        base: u64,
        request_lines: Vec<String>,
        whatif_at: Vec<(usize, LinkId)>,
        op_ns: &[u64],
    ) -> Pass {
        Pass {
            base,
            request_lines,
            whatif_at,
            op_times: op_ns.iter().map(|&ns| Some((0, ns))).collect(),
            stats: Some(service::json::obj(vec![(
                "ops_applied",
                Json::int(base + op_ns.len() as u64),
            )])),
            ..Pass::default()
        }
    }
}

impl Checked {
    /// In-process serving: one op per window, no event stream.
    pub(crate) fn in_process(whatif_answers: Vec<(u64, u64)>) -> Checked {
        Checked {
            events: Vec::new(),
            windows: Vec::new(),
            whatif_answers,
        }
    }
}

/// Drives a closed loop over `ops` on a started daemon, then the what-if
/// rounds, then `stats`.
fn closed_pass(
    topology: &Topology,
    ops: &[Op],
    links: &[LinkId],
    clock: Clock,
) -> Result<Pass, String> {
    let (daemon, sub, setup_s) = start_and_subscribe(topology, ServiceConfig::default(), clock)?;
    let sub = spawn_subscriber(sub, clock);
    let mut conn = Conn::open(daemon.addr)?;
    let mut pass = Pass {
        setup_s,
        ..Pass::default()
    };
    pass.request_lines = ops
        .iter()
        .enumerate()
        .map(|(k, op)| service::proto::op_request(k as u64 + 1, op, topology).render())
        .collect();
    let n = ops.len();
    pass.op_ids = (1..=n as u64).collect();
    pass.op_sent = vec![0; n];
    let mut replies: Vec<(u64, String)> = Vec::with_capacity(n);
    let mut next = 0;
    while replies.len() < n {
        while next < n && next - replies.len() < INFLIGHT {
            pass.inflight.push((next - replies.len()) as u64);
            pass.op_sent[next] = clock.ns();
            conn.send(&pass.request_lines[next])?;
            next += 1;
        }
        if conn.reader.eof {
            break;
        }
        let want = replies.len() + 1;
        conn.reader.fill_to(clock, want, &mut replies)?;
    }
    pass.op_times = (0..n)
        .map(|k| replies.get(k).map(|r| (pass.op_sent[k], r.0)))
        .collect();
    pass.op_reply = (0..n)
        .map(|k| replies.get(k).map(|r| r.1.clone()))
        .collect();

    let mut id = n as u64;
    for _ in 0..CLOSED_WHATIF_ROUNDS {
        for &link in links {
            id += 1;
            let line = what_if_line(id, topology, link);
            let t = clock.ns();
            conn.send(&line)?;
            let (done, reply) = conn.reader.line(clock)?;
            pass.whatif_at.push((n, link));
            pass.whatif_ids.push(id);
            pass.whatif_times.push(Some((t, done)));
            pass.whatif_reply.push(Some(reply));
            pass.request_lines.push(line);
        }
    }
    pass.stats = Some(conn.call(clock, "{\"id\": 0, \"op\": \"stats\"}")?);
    daemon.stop(&mut conn, clock)?;
    pass.events = sub
        .join()
        .map_err(|_| "subscriber panicked".to_string())??;
    Ok(pass)
}

/// Starts a daemon under `config` (which recovers `base` ops) and drives
/// the open loop: `ops` at [`OPEN_OPS_PER_S`] and what-ifs on `links`
/// (round robin) at [`OPEN_WHATIFS_PER_S`], on one connection.
fn open_pass(
    topology: &Topology,
    config: ServiceConfig,
    base: u64,
    ops: &[Op],
    links: &[LinkId],
    clock: Clock,
) -> Result<Pass, String> {
    let (daemon, sub, setup_s) = start_and_subscribe(topology, config, clock)?;
    let sub = spawn_subscriber(sub, clock);
    let mut conn = Conn::open(daemon.addr)?;
    let n = ops.len();
    let duration_s = n as f64 / OPEN_OPS_PER_S;
    let n_q = if links.is_empty() {
        0
    } else {
        (duration_s * OPEN_WHATIFS_PER_S).floor() as usize
    };
    // The merged schedule, relative to its start: (due, is_op, index).
    let mut schedule: Vec<(u64, bool, usize)> = (0..n)
        .map(|i| (due_time_ns(0, i as u64, OPEN_OPS_PER_S), true, i))
        .chain((0..n_q).map(|j| {
            let due = ((j as f64 + 0.5) * 1e9 / OPEN_WHATIFS_PER_S).round() as u64;
            (due, false, j)
        }))
        .collect();
    schedule.sort_unstable();
    let mut lines = Vec::with_capacity(schedule.len());
    let mut whatif_at = Vec::with_capacity(n_q);
    let mut ops_before = 0;
    for (k, &(_, is_op, i)) in schedule.iter().enumerate() {
        let id = k as u64 + 1;
        if is_op {
            lines.push(service::proto::op_request(id, &ops[i], topology).render());
            ops_before += 1;
        } else {
            let link = links[i % links.len()];
            whatif_at.push((ops_before, link));
            lines.push(what_if_line(id, topology, link));
        }
    }
    // Replies are read on their own thread with blocking reads: socket
    // read timeouts have scheduler-tick granularity (several ms), too
    // coarse both to keep a sub-ms schedule and to stamp replies.
    let expected = schedule.len();
    let acked = Arc::new(AtomicUsize::new(0));
    let reader = {
        let stream = conn.writer.try_clone().map_err(|e| e.to_string())?;
        let acked = Arc::clone(&acked);
        thread::spawn(move || -> Result<Vec<(u64, String)>, String> {
            let mut reader = LineReader::new(stream);
            let mut replies = Vec::with_capacity(expected);
            while replies.len() < expected && !reader.eof {
                reader.fill_to(clock, replies.len() + 1, &mut replies)?;
                acked.store(replies.len(), Ordering::Relaxed);
            }
            Ok(replies)
        })
    };
    let start = clock.ns() + 1_000_000;
    let mut samples = Vec::with_capacity(expected);
    let mut inflight = Vec::with_capacity(expected);
    for (k, entry) in schedule.iter_mut().enumerate() {
        entry.0 += start;
        let due = entry.0;
        let now = clock.ns();
        if now < due {
            thread::sleep(Duration::from_nanos(due - now));
        }
        inflight.push((k - acked.load(Ordering::Relaxed).min(k)) as u64);
        let sent = clock.ns();
        conn.send(&lines[k])?;
        samples.push((due, sent));
    }
    let replies = reader
        .join()
        .map_err(|_| "reply reader panicked".to_string())??;
    let mut pass = Pass {
        base,
        setup_s,
        inflight,
        whatif_at,
        request_lines: lines,
        ..Pass::default()
    };
    for (k, &(_, is_op, _)) in schedule.iter().enumerate() {
        let (due, sent) = samples[k];
        let reply = replies.get(k);
        let sample = OpenLoopSample {
            due,
            sent,
            done: reply.map_or(sent, |r| r.0),
        };
        pass.late_ns.push(sample.lateness_ns());
        let times = reply.map(|_| sample.charged());
        if is_op {
            pass.op_ids.push(k as u64 + 1);
            pass.op_sent.push(sent);
            pass.op_times.push(times);
            pass.op_reply.push(reply.map(|r| r.1.clone()));
        } else {
            pass.whatif_ids.push(k as u64 + 1);
            pass.whatif_times.push(times);
            pass.whatif_reply.push(reply.map(|r| r.1.clone()));
        }
    }
    pass.stats = Some(conn.call(clock, "{\"id\": 0, \"op\": \"stats\"}")?);
    daemon.stop(&mut conn, clock)?;
    pass.events = sub
        .join()
        .map_err(|_| "subscriber panicked".to_string())??;
    Ok(pass)
}

/// What the checks of one pass found, plus its event latencies.
pub(crate) struct Checked {
    /// Each event's `(send of its window's first op, receipt)` times.
    events: Vec<(u64, u64)>,
    /// Evented windows' `(first_op, last_op)`.
    windows: Vec<(u64, u64)>,
    /// `(affected_classes, violations)` of each what-if reply.
    whatif_answers: Vec<(u64, u64)>,
}

/// Checks one pass against the oracle and accounts its failures:
/// every request answered exactly once, in order, by its own id; op acks
/// with dense `at`; the folded
/// event stream equals the final `stats` violation count and the oracle's
/// active violations; what-ifs answered.
fn check_pass(
    pass: &Pass,
    start_keys: &BTreeSet<String>,
    oracle_keys: &BTreeSet<String>,
    out: &mut Outcome,
) -> Checked {
    let f = &mut out.failures;
    f.requests_sent += (pass.op_reply.len() + pass.whatif_reply.len()) as u64;
    let mut dense = true;
    let mut ids_match = true;
    for (k, reply) in pass.op_reply.iter().enumerate() {
        let Some(reply) = reply else {
            f.missing_acks += 1;
            continue;
        };
        let v = service::json::parse(reply).unwrap_or(Json::Null);
        ids_match &= v.get("id").and_then(Json::as_u64) == Some(pass.op_ids[k]);
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            let skipped = v.get("kind").and_then(Json::as_str) == Some("skipped");
            if skipped {
                f.skipped_acks += 1;
            } else {
                f.error_acks += 1;
            }
            continue;
        }
        dense &= v.get("at").and_then(Json::as_u64) == Some(pass.base + k as u64 + 1);
    }
    let mut whatif_answers = Vec::new();
    for (reply, &id) in pass.whatif_reply.iter().zip(&pass.whatif_ids) {
        let v = reply
            .as_deref()
            .and_then(|r| service::json::parse(r).ok())
            .unwrap_or(Json::Null);
        ids_match &= reply.is_none() || v.get("id").and_then(Json::as_u64) == Some(id);
        if v.get("ok").and_then(Json::as_bool) == Some(true) {
            whatif_answers.push((
                v.get("affected_classes")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                v.get("violations").and_then(Json::as_u64).unwrap_or(0),
            ));
        } else {
            f.failed_whatifs += 1;
        }
    }
    out.check(ids_match, || {
        "a reply does not answer the request in its place".to_string()
    });
    out.check(dense, || {
        "op acks do not carry dense `at` in send order".to_string()
    });

    let mut folded = start_keys.clone();
    let mut fold_ok = true;
    let mut event_times = Vec::new();
    let mut windows = Vec::new();
    let mut received = 0u64;
    for (t, line) in &pass.events {
        let v = service::json::parse(line).unwrap_or(Json::Null);
        match v.get("event").and_then(Json::as_str) {
            Some("transitions") => {
                received += 1;
                let first = v.get("first_op").and_then(Json::as_u64).unwrap_or(0);
                let last = v.get("last_op").and_then(Json::as_u64).unwrap_or(0);
                windows.push((first, last));
                let local = first.checked_sub(pass.base + 1).map(|i| i as usize);
                match local.and_then(|i| pass.op_sent.get(i)) {
                    Some(&sent) => event_times.push((sent, *t)),
                    None => fold_ok = false,
                }
                let keys = |name: &str| -> Vec<String> {
                    v.get(name)
                        .and_then(Json::as_arr)
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(|k| k.as_str().map(str::to_string))
                        .collect()
                };
                for k in keys("appeared") {
                    fold_ok &= folded.insert(k);
                }
                for k in keys("resolved") {
                    fold_ok &= folded.remove(&k);
                }
            }
            Some("gap") => {}
            _ => fold_ok = false,
        }
    }
    let stats = pass.stats.as_ref();
    let stat = |name: &str| stats.and_then(|s| s.get(name)).and_then(Json::as_u64);
    // Under durability the daemon's event seq resumes from the recovered
    // op count.
    let emitted = stat("events").unwrap_or(0).saturating_sub(pass.base);
    out.failures.events_emitted += emitted;
    out.failures.events_lost += emitted.saturating_sub(received);
    out.check(fold_ok, || {
        "the event stream does not fold cleanly".to_string()
    });
    out.check(stat("violations") == Some(folded.len() as u64), || {
        format!(
            "stats reports {:?} violations, the folded event stream {}",
            stat("violations"),
            folded.len()
        )
    });
    out.check(&folded == oracle_keys, || {
        format!(
            "folded event stream ({} violations) differs from the in-process oracle ({})",
            folded.len(),
            oracle_keys.len()
        )
    });
    out.check(
        stat("ops_applied") == Some(pass.base + pass.op_reply.len() as u64),
        || {
            format!(
                "stats ops_applied {:?} is not the ops sent",
                stat("ops_applied")
            )
        },
    );
    Checked {
        events: event_times,
        windows,
        whatif_answers,
    }
}

/// Active violation identities of a monitored single engine after `ops`,
/// and the engine itself.
pub(crate) fn oracle(
    topology: &Topology,
    warm: &[Op],
    ops: &[Op],
) -> (DeltaNet, BTreeSet<String>, u64) {
    let config = DeltaNetConfig {
        check_loops_per_update: false,
        monitor_violations: true,
        ..DeltaNetConfig::default()
    };
    let (mut net, mut errors) = layers::warmed(topology, config, warm);
    errors += ops
        .iter()
        .filter(|op| layers::apply(&mut net, op).is_err())
        .count() as u64;
    let keys = net
        .monitor()
        .expect("monitored")
        .active_keys()
        .iter()
        .map(|k| k.to_string())
        .collect();
    (net, keys, errors)
}

fn us_of(ns: impl Iterator<Item = u64>) -> Vec<f64> {
    ns.map(|n| n as f64 / 1e3).collect()
}

/// Segment sizes: acks in runs of 5000 (fifty samples beyond each p99;
/// four seconds of the open loop), events in runs of 1000 and what-ifs in
/// runs of 100 (ten beyond each p99 or p90).
const ACK_SEGMENT: usize = 5000;
const EVENT_SEGMENT: usize = 1000;
const WHATIF_SEGMENT: usize = 100;
const MAX_SEGMENTS: usize = 64;

/// Per-segment summaries of a run's passes, each tagged with the host
/// steal over its whole pass; the end-to-end metrics are medians over the
/// segments of quiet passes ([`quiet_or_all`]). A pass is the unit of
/// selection because it covers the whole input, so dropping a disturbed
/// pass does not change the mix of trace phases the medians are taken
/// over. Passes are folded in as they finish, so a run holds one pass's
/// raw samples at a time.
#[derive(Default)]
struct Segments {
    acks: Vec<(Summary, f64)>,
    rates: Vec<(f64, f64)>,
    events: Vec<(Summary, f64)>,
    whatifs: Vec<(Summary, f64)>,
}

/// Summaries of consecutive segments of `(start, end)` timed samples.
fn timed_segments(times: &[(u64, u64)], min_len: usize, tail: f64) -> Vec<Summary> {
    segment_ranges(times.len(), min_len, MAX_SEGMENTS)
        .into_iter()
        .filter_map(|r| {
            let mut us: Vec<f64> = times[r]
                .iter()
                .map(|&(a, b)| b.saturating_sub(a) as f64 / 1e3)
                .collect();
            summarize(&mut us, tail)
        })
        .collect()
}

/// The entries of `items` from quiet passes (all when none was quiet).
fn quiet<T: Copy>(items: &[(T, f64)]) -> Vec<T> {
    let steal: Vec<f64> = items.iter().map(|i| i.1).collect();
    quiet_or_all(&steal, QUIET_STEAL)
        .into_iter()
        .map(|i| items[i].0)
        .collect()
}

impl Segments {
    fn add(&mut self, pass: &Pass, c: &Checked) {
        let steal = pass.steal;
        let tag = |v: Vec<Summary>| v.into_iter().map(move |s| (s, steal));
        let ops: Vec<(u64, u64)> = pass.op_times.iter().flatten().copied().collect();
        self.acks
            .extend(tag(timed_segments(&ops, ACK_SEGMENT, 0.99)));
        // Throughput of each full segment: its ops over the time from the
        // previous segment's last reply to its own.
        let mut prev = ops.first().map_or(0, |t| t.0);
        for chunk in ops.chunks(ACK_SEGMENT) {
            let last = chunk.iter().map(|t| t.1).max().unwrap_or(prev);
            if last > prev && chunk.len() == ACK_SEGMENT {
                let rate = chunk.len() as f64 / ((last - prev) as f64 / 1e9);
                self.rates.push((rate, steal));
            }
            prev = last;
        }
        self.events
            .extend(tag(timed_segments(&c.events, EVENT_SEGMENT, 0.99)));
        let whatifs: Vec<(u64, u64)> = pass.whatif_times.iter().flatten().copied().collect();
        self.whatifs
            .extend(tag(timed_segments(&whatifs, WHATIF_SEGMENT, 0.9)));
    }

    /// The end-to-end metrics shared by both daemon workloads.
    fn report(&self, out: &mut Outcome, setup: &[f64]) -> Result<(), String> {
        if self.acks.is_empty()
            || self.events.is_empty()
            || self.whatifs.is_empty()
            || self.rates.is_empty()
        {
            return Err("too few acks, events or what-if replies to summarise".to_string());
        }
        let acks = quiet(&self.acks);
        println!(
            "# segments from quiet passes / all: acks {}/{}, events {}/{}, what-ifs {}/{}",
            acks.len(),
            self.acks.len(),
            quiet(&self.events).len(),
            self.events.len(),
            quiet(&self.whatifs).len(),
            self.whatifs.len()
        );
        let a = median_summary(&acks);
        let m = &mut out.metrics;
        m.timing("update_p50_us", a.p50, a.n);
        m.timing("update_p99_us", a.tail, a.n);
        m.timing("update_mean_us", a.mean, a.n);
        m.timing(
            "updates_per_s",
            median(&quiet(&self.rates)).expect("a segment"),
            a.n,
        );
        m.latency(
            ["event_p50_us", "event_p99_us", "event_mean_us"],
            &median_summary(&quiet(&self.events)),
        );
        m.latency(
            ["whatif_p50_us", "whatif_p90_us", "whatif_mean_us"],
            &median_summary(&quiet(&self.whatifs)),
        );
        m.timing(
            "setup_s",
            median(setup).ok_or("no setup samples")?,
            setup.len(),
        );
        Ok(())
    }
}

/// Per-layer metrics of a daemon pass: replays its ops through each
/// layer's public functions with the daemon's window boundaries.
pub(crate) fn per_layer(
    out: &mut Outcome,
    topology: &Topology,
    warm: &[Op],
    ops: &[Op],
    (pass, checked): (&Pass, &Checked),
    oracle_keys: &BTreeSet<String>,
    persist: Option<(&Path, Vec<f64>)>,
) -> Result<(), String> {
    let windows = layers::windows_from_events(ops.len(), pass.base, &checked.windows)?;
    let n_ops = ops.len() as f64;

    let el = layers::trace_engine_loops(topology, warm, ops);
    let (mut plain_net, _) = layers::warmed(topology, DeltaNetConfig::default(), warm);
    let plain = layers::timed_replay(&mut plain_net, ops);
    out.check(el.print == plain.print, || {
        "traced loop checks differ from the engine's own".to_string()
    });
    let engine_total: u64 = el.engine_ns.iter().map(|&n| u64::from(n)).sum();
    let loops_total: u64 = el.loops_ns.iter().map(|&n| u64::from(n)).sum();
    let mut engine_us = us_of(el.engine_ns.iter().map(|&n| u64::from(n)));
    let engine = summarize(&mut engine_us, 0.99).ok_or("no ops")?;

    let mon = layers::trace_monitor(topology, warm, ops, &windows);
    out.check(&mon.keys == oracle_keys, || {
        "a monitor fed the daemon's windows ends with other violations than the oracle".to_string()
    });
    let plan = ShardPlan {
        warm,
        ops,
        windows: &windows,
        whatifs: &pass.whatif_at,
        render: true,
        persist: persist
            .as_ref()
            .map(|(dir, _)| (*dir, CHECKPOINT.every_ops)),
    };
    let two = layers::trace_shards(topology, 2, &plan)?;
    let one = layers::trace_shards(
        topology,
        1,
        &ShardPlan {
            whatifs: &[],
            render: false,
            persist: None,
            ..plan
        },
    )?;
    out.check(two.whatif_answers == checked.whatif_answers, || {
        "the daemon's what-if answers differ from the replayed engine's".to_string()
    });
    let (parse_ns, request_bytes) = layers::trace_parse(topology, &pass.request_lines)?;

    let m = &mut out.metrics;
    m.timing(
        "engine.busy_us_per_op",
        engine_total as f64 / 1e3 / n_ops,
        ops.len(),
    );
    m.summary("engine.p50_us", "engine.p99_us", &engine);
    m.set("engine.affected_atoms_per_op", el.affected as f64 / n_ops);
    m.set("engine.atoms", el.atoms as f64);
    m.set("engine.memory_bytes", el.memory as f64);
    m.timing(
        "loops.busy_us_per_op",
        loops_total as f64 / 1e3 / n_ops,
        ops.len(),
    );
    m.set("loops.seeds_per_op", el.seeds as f64 / n_ops);
    m.set("loops.hit_ratio", el.hits as f64 / n_ops);

    let n_win = windows.len() as f64;
    let mon_total: u64 = mon.window_ns.iter().map(|&n| u64::from(n)).sum();
    m.timing(
        "monitor.busy_us_per_window",
        mon_total as f64 / 1e3 / n_win,
        windows.len(),
    );
    m.set("monitor.events", mon.events as f64);
    m.set("monitor.useful_ratio", mon.useful_windows as f64 / n_win);

    let two_total: u64 = two.window_ns.iter().map(|&n| u64::from(n)).sum();
    let one_total: u64 = one.window_ns.iter().map(|&n| u64::from(n)).sum();
    let mut win = two.window_ns.clone();
    m.timing(
        "shard.busy_us_per_window",
        two_total as f64 / 1e3 / n_win,
        windows.len(),
    );
    m.timing(
        "shard.p99_us_per_window",
        f64::from(percentile(&mut win, 0.99).unwrap_or(0)) / 1e3,
        windows.len(),
    );
    m.set("shard.ops_per_window", n_ops / n_win);
    m.set(
        "shard.speedup_vs_1",
        one_total as f64 / two_total.max(1) as f64,
    );
    m.set("shard.atom_imbalance", two.atom_imbalance);

    if let Some((_, recover_ms)) = &persist {
        let flush_total: u64 = two.log_flush_ns.iter().map(|&n| u64::from(n)).sum();
        m.timing(
            "persist.log_append_us_per_op",
            two.log_append_ns as f64 / 1e3 / n_ops,
            ops.len(),
        );
        m.timing(
            "persist.log_flush_us_per_window",
            flush_total as f64 / 1e3 / two.log_flush_ns.len().max(1) as f64,
            two.log_flush_ns.len(),
        );
        m.set("persist.log_bytes", two.log_bytes as f64);
        let snap_ms: Vec<f64> = two.snapshot_ns.iter().map(|&n| n as f64 / 1e6).collect();
        m.timing(
            "persist.snapshot_ms",
            median(&snap_ms).unwrap_or(0.0),
            snap_ms.len(),
        );
        let bytes: Vec<f64> = two.snapshot_bytes.iter().map(|&b| b as f64).collect();
        m.set("persist.snapshot_bytes", median(&bytes).unwrap_or(0.0));
        m.set("persist.snapshots", two.snapshot_ns.len() as f64);
        m.timing(
            "persist.recover_ms",
            median(recover_ms).unwrap_or(0.0),
            recover_ms.len(),
        );
    }

    let mut query_us = us_of(two.query_ns.iter().map(|&n| u64::from(n)));
    if let Some(q) = summarize(&mut query_us, 0.9) {
        m.timing("query.busy_us_per_call", q.mean, q.n);
        m.timing("query.p90_us", q.tail, q.n);
    }
    m.set("query.calls", two.query_ns.len() as f64);

    let n_req = parse_ns.len() as f64;
    let parse_us = parse_ns.iter().map(|&n| u64::from(n)).sum::<u64>() as f64 / 1e3 / n_req;
    let n_rep = two.render_ns.len().max(1) as f64;
    let render_us = two.render_ns.iter().map(|&n| u64::from(n)).sum::<u64>() as f64 / 1e3 / n_rep;
    m.timing("proto.parse_us_per_request", parse_us, parse_ns.len());
    m.set("proto.request_bytes", request_bytes as f64 / n_req);
    m.timing("proto.render_us_per_reply", render_us, two.render_ns.len());
    m.set("proto.reply_bytes", two.reply_bytes as f64 / n_rep);

    let mut ack = us_of(pass.op_times.iter().flatten().map(|&(a, b)| b - a));
    let ack_p50 = percentile(&mut ack, 0.5).unwrap_or(0.0);
    let window_us_per_op = two_total as f64 / 1e3 / n_ops;
    let residual = residual_us(ack_p50, parse_us, window_us_per_op, render_us);
    m.set("server.residual_us", residual);
    m.set("server.events_dropped", out.failures.events_lost as f64);
    let applied = pass
        .stats
        .as_ref()
        .and_then(|s| s.get("ops_applied"))
        .and_then(Json::as_u64);
    m.set("server.ops_applied", applied.unwrap_or(0) as f64);

    let mut late = us_of(pass.late_ns.iter().copied());
    m.set(
        "loadgen.late_p99_us",
        percentile(&mut late, 0.99).unwrap_or(0.0),
    );
    m.set("loadgen.sent", pass.request_lines.len() as f64);
    let inflight = pass.inflight.iter().sum::<u64>() as f64 / pass.inflight.len().max(1) as f64;
    m.set("loadgen.inflight_mean", inflight);

    m.set(
        "trace.unattributed_frac",
        residual / ack_p50.max(f64::MIN_POSITIVE),
    );
    m.set(
        "trace.overhead_frac",
        el.wall_ns as f64 / plain.wall_ns as f64 - 1.0,
    );
    Ok(())
}

/// `daemon-closed-airtel1`.
pub fn closed(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let Input { topology, ops } = inputs::airtel1(seed);
    let prep = prepared(&topology);
    let mut out = Outcome::default();
    println!("# daemon-closed-airtel1: {} ops", ops.len());
    let (net, oracle_keys, oracle_errors) = oracle(&prep, &[], &ops);
    out.check(oracle_errors == 0, || {
        format!("{oracle_errors} ops fail in-process")
    });
    let links = most_used_links(&net);
    drop(net);

    let clock = Clock(Instant::now());
    let mut setup = Vec::new();
    for _ in 0..CLOSED_SETUP_SAMPLES {
        setup.push(setup_sample(&topology, ServiceConfig::default(), clock)?);
    }
    let started = Instant::now();
    let mut segments = Segments::default();
    let mut passes = 0;
    let (pass, c) = loop {
        let t = Instant::now();
        let steal = Steal::start();
        let mut pass = closed_pass(&topology, &ops, &links, clock)?;
        pass.steal = steal.fraction();
        passes += 1;
        setup.push(pass.setup_s);
        let c = check_pass(&pass, &BTreeSet::new(), &oracle_keys, &mut out);
        segments.add(&pass, &c);
        out.first_pass_done();
        if started.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > seconds {
            break (pass, c);
        }
    };
    println!("# passes {passes}, what-if links {}", links.len());
    if trace {
        per_layer(&mut out, &prep, &[], &ops, (&pass, &c), &oracle_keys, None)?;
    } else {
        segments.report(&mut out, &setup)?;
    }
    Ok(out)
}

/// Applies `ops` through a [`CheckpointManager`] at the CLI defaults, in
/// windows of 32, leaving a checkpoint directory at `dir` (untimed input
/// preparation for the workloads that recover from it).
pub(crate) fn write_checkpoints(topology: &Topology, ops: &[Op], dir: &Path) -> Result<(), String> {
    let mut mgr = CheckpointManager::create(
        Box::new(FsBackend),
        dir,
        PersistNet::Sharded(Box::new(layers::daemon_engine(topology, 2))),
        0,
        CHECKPOINT,
    )
    .map_err(|e| format!("checkpoint create: {e}"))?;
    for chunk in ops.chunks(32) {
        mgr.apply_batch(chunk)
            .map_err(|e| format!("checkpointed first half: {e}"))?;
    }
    mgr.close().map_err(|e| format!("checkpoint close: {e}"))?;
    Ok(())
}

/// `daemon-open-durable-airtel1`.
pub fn open_durable(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let Input { topology, ops } = inputs::airtel1(seed);
    let prep = prepared(&topology);
    let half = ops.len() / 2;
    let (first, second) = ops.split_at(half);
    let n = second
        .len()
        .min((OPEN_OPS_PER_S * DURABLE_PASS_SECONDS).floor() as usize);
    let second = &second[..n];
    let mut out = Outcome::default();
    println!(
        "# daemon-open-durable-airtel1: {} ops recovered, {} sent per pass at {} ops/s",
        first.len(),
        second.len(),
        OPEN_OPS_PER_S
    );
    let (net, start_keys, e1) = oracle(&prep, &[], first);
    let links = most_used_links(&net);
    drop(net);
    let (_, oracle_keys, e2) = oracle(&prep, first, second);
    out.check(e1 + e2 == 0, || format!("{} ops fail in-process", e1 + e2));

    let work = WorkDir::new()?;
    let pristine = work.0.join("pristine");
    write_checkpoints(&prep, first, &pristine)?;

    let live = work.0.join("live");
    let config = ServiceConfig {
        checkpoint: Some(CheckpointSetup {
            dir: live.clone(),
            config: CHECKPOINT,
        }),
        ..ServiceConfig::default()
    };
    let clock = Clock(Instant::now());
    let mut setup = Vec::new();
    for _ in 1..DURABLE_SETUP_SAMPLES {
        copy_dir(&pristine, &live)?;
        setup.push(setup_sample(&topology, config.clone(), clock)?);
    }
    let started = Instant::now();
    let mut segments = Segments::default();
    let mut passes = 0;
    let (pass, c) = loop {
        let t = Instant::now();
        copy_dir(&pristine, &live)?;
        let steal = Steal::start();
        let mut pass = open_pass(
            &topology,
            config.clone(),
            half as u64,
            second,
            &links,
            clock,
        )?;
        pass.steal = steal.fraction();
        setup.push(pass.setup_s);
        passes += 1;
        let c = check_pass(&pass, &start_keys, &oracle_keys, &mut out);
        segments.add(&pass, &c);
        out.first_pass_done();
        if started.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > seconds {
            break (pass, c);
        }
    };
    println!("# passes {passes}, what-if links {}", links.len());
    if trace {
        let mut recover_ms = Vec::new();
        for _ in 0..3 {
            copy_dir(&pristine, &live)?;
            let t = Instant::now();
            CheckpointManager::recover(
                Box::new(FsBackend),
                &live,
                &prep,
                RecoveryPolicy::RepairTail,
                CHECKPOINT,
            )
            .map_err(|e| format!("recover: {e}"))?;
            recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let traced = work.0.join("traced");
        std::fs::create_dir_all(&traced).map_err(|e| e.to_string())?;
        per_layer(
            &mut out,
            &prep,
            first,
            second,
            (&pass, &c),
            &oracle_keys,
            Some((&traced, recover_ms)),
        )?;
    } else {
        segments.report(&mut out, &setup)?;
    }
    Ok(out)
}
