//! Traced replays: the benchmark times its own calls into each layer's
//! public functions. For layers the daemon calls internally, the daemon
//! run's ops are replayed here afterwards with the same window boundaries.

use deltanet::monitor::ViolationMonitor;
use deltanet::persist::{DeltaLog, Durability, Snapshot};
use deltanet::{loops, DeltaNet, DeltaNetConfig, FsBackend, Parallelism, ShardedDeltaNet};
use netmodel::checker::{UpdateError, UpdateReport};
use netmodel::topology::{LinkId, Topology};
use netmodel::trace::Op;
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

/// Nanoseconds elapsed since `t`, saturated into a `u32` sample.
pub fn ns_since(t: Instant) -> u32 {
    u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

/// Applies one op to a single engine.
pub fn apply(net: &mut DeltaNet, op: &Op) -> Result<UpdateReport, UpdateError> {
    match op {
        Op::Insert(rule) => net.try_insert_rule(*rule),
        Op::Remove(id) => net.try_remove_rule(*id),
    }
}

/// A fingerprint of which ops found loops and how many: two replays of
/// the same ops that check loops the same way give equal prints.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoopPrint {
    /// Ops whose check reported at least one loop.
    pub ops_with_loops: u64,
    /// FNV-1a over `(op index, loops found)` of those ops.
    pub hash: u64,
}

impl LoopPrint {
    /// Folds in op `index`, whose check reported `loops` loops.
    pub fn add(&mut self, index: usize, loops: usize) {
        if loops == 0 {
            return;
        }
        self.ops_with_loops += 1;
        let mut h = if self.hash == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.hash
        };
        for byte in (index as u64)
            .to_le_bytes()
            .into_iter()
            .chain((loops as u64).to_le_bytes())
        {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        self.hash = h;
    }
}

/// An engine with everything applied from `warm`, untimed.
pub fn warmed(topology: &Topology, config: DeltaNetConfig, warm: &[Op]) -> (DeltaNet, u64) {
    let mut net = DeltaNet::new(topology.clone(), config);
    let errors = warm
        .iter()
        .filter(|op| apply(&mut net, op).is_err())
        .count() as u64;
    (net, errors)
}

/// One in-process replay at the default configuration (loop check inside
/// every update), timing each op as the caller sees it.
pub struct TimedReplay {
    /// Per-op latency, ns.
    pub op_ns: Vec<u32>,
    /// Latency of the ops whose check reported a loop, ns.
    pub loop_op_ns: Vec<u32>,
    /// Wall time of the whole replay, ns.
    pub wall_ns: u64,
    /// Which ops found loops.
    pub print: LoopPrint,
    /// Ops the engine refused.
    pub errors: u64,
}

/// Replays `ops` on `net` one op at a time, timing each call.
pub fn timed_replay(net: &mut DeltaNet, ops: &[Op]) -> TimedReplay {
    let mut out = TimedReplay {
        op_ns: Vec::with_capacity(ops.len()),
        loop_op_ns: Vec::new(),
        wall_ns: 0,
        print: LoopPrint::default(),
        errors: 0,
    };
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let t = Instant::now();
        let result = std::hint::black_box(apply(net, op));
        let ns = ns_since(t);
        out.op_ns.push(ns);
        match result {
            Ok(report) => {
                out.print.add(i, report.violations.len());
                if !report.violations.is_empty() {
                    out.loop_op_ns.push(ns);
                }
            }
            Err(_) => out.errors += 1,
        }
    }
    out.wall_ns = start.elapsed().as_nanos() as u64;
    out
}

/// The engine and loop layers timed apart: the engine runs with its
/// per-update loop check off, and the benchmark calls
/// [`loops::find_loops_from_seeds`] on each update's delta-graph itself —
/// the same call the engine makes internally.
pub struct EngineLoopsTrace {
    /// `try_insert_rule` / `try_remove_rule` time per op, ns.
    pub engine_ns: Vec<u32>,
    /// `find_loops_from_seeds` time per op, ns.
    pub loops_ns: Vec<u32>,
    /// Sum of `affected_classes` over the ops.
    pub affected: u64,
    /// Sum of loop-check seeds (label additions) over the ops.
    pub seeds: u64,
    /// Loop-check calls that found a loop.
    pub hits: u64,
    /// Which ops found loops.
    pub print: LoopPrint,
    /// Wall time of the traced replay, ns.
    pub wall_ns: u64,
    /// Atoms at the end.
    pub atoms: usize,
    /// The engine's memory estimate at the end, bytes.
    pub memory: usize,
    /// Ops the engine refused.
    pub errors: u64,
}

/// Traces the engine and loop layers over `ops`, after `warm` untimed.
pub fn trace_engine_loops(topology: &Topology, warm: &[Op], ops: &[Op]) -> EngineLoopsTrace {
    let config = DeltaNetConfig {
        check_loops_per_update: false,
        ..DeltaNetConfig::default()
    };
    let (mut net, errors) = warmed(topology, config, warm);
    let mut out = EngineLoopsTrace {
        engine_ns: Vec::with_capacity(ops.len()),
        loops_ns: Vec::with_capacity(ops.len()),
        affected: 0,
        seeds: 0,
        hits: 0,
        print: LoopPrint::default(),
        wall_ns: 0,
        atoms: 0,
        memory: 0,
        errors,
    };
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let t = Instant::now();
        let result = std::hint::black_box(apply(&mut net, op));
        out.engine_ns.push(ns_since(t));
        let Ok(report) = result else {
            out.errors += 1;
            out.loops_ns.push(0);
            continue;
        };
        out.affected += report.affected_classes as u64;
        let seeds = &net.last_delta().added;
        out.seeds += seeds.len() as u64;
        let t = Instant::now();
        let found = std::hint::black_box(loops::find_loops_from_seeds(
            net.topology(),
            net.labels(),
            net.atoms(),
            seeds,
        ));
        out.loops_ns.push(ns_since(t));
        out.hits += u64::from(!found.is_empty());
        out.print.add(i, found.len());
    }
    out.wall_ns = start.elapsed().as_nanos() as u64;
    out.atoms = net.atom_count();
    out.memory = net.memory_estimate();
    out
}

/// The monitor layer, fed one aggregated delta-graph per window.
pub struct MonitorTrace {
    /// `ViolationMonitor::apply_update` time per window, ns.
    pub window_ns: Vec<u32>,
    /// Transitions (appeared + resolved) the monitor recorded.
    pub events: u64,
    /// Windows with at least one transition.
    pub useful_windows: u64,
    /// The monitor's active violation identities at the end.
    pub keys: BTreeSet<String>,
}

/// Replays `ops` in windows of `windows[i]` ops on an unmonitored engine,
/// repairing a separate [`ViolationMonitor`] from each window's
/// `take_aggregate` delta-graph.
pub fn trace_monitor(
    topology: &Topology,
    warm: &[Op],
    ops: &[Op],
    windows: &[usize],
) -> MonitorTrace {
    let config = DeltaNetConfig {
        check_loops_per_update: false,
        ..DeltaNetConfig::default()
    };
    let (mut net, _) = warmed(topology, config, warm);
    let mut monitor = ViolationMonitor::from_state(net.topology(), net.labels(), net.atoms());
    let mut out = MonitorTrace {
        window_ns: Vec::with_capacity(windows.len()),
        events: 0,
        useful_windows: 0,
        keys: BTreeSet::new(),
    };
    let mut at = 0;
    for &size in windows {
        net.begin_aggregate();
        for op in &ops[at..at + size] {
            let _ = apply(&mut net, op);
        }
        at += size;
        let delta = net.take_aggregate();
        let t = Instant::now();
        monitor.apply_update(net.topology(), net.labels(), &delta);
        out.window_ns.push(ns_since(t));
        let events = monitor.last_events().len() as u64;
        out.events += events;
        out.useful_windows += u64::from(events > 0);
    }
    out.keys = monitor
        .active_keys()
        .iter()
        .map(|k| k.to_string())
        .collect();
    out
}

/// What a sharded replay of the daemon's windows should also do.
pub struct ShardPlan<'a> {
    /// Ops applied (untimed, in windows of 32) before the measured ones.
    pub warm: &'a [Op],
    /// The measured ops.
    pub ops: &'a [Op],
    /// Window sizes, summing to `ops.len()`.
    pub windows: &'a [usize],
    /// What-if queries: `(ops applied before it, link)`, in order.
    pub whatifs: &'a [(usize, LinkId)],
    /// Render an `ok` reply for every op's report.
    pub render: bool,
    /// Directory for a delta log and snapshots every `snapshot_every`
    /// ops, when the persist layer is traced.
    pub persist: Option<(&'a Path, u64)>,
}

/// Timings of one sharded replay.
#[derive(Default)]
pub struct ShardTrace {
    /// `ShardedDeltaNet::apply_batch` time per window, ns.
    pub window_ns: Vec<u32>,
    /// `link_failure_impact(link, true)` time per query, ns.
    pub query_ns: Vec<u32>,
    /// `(affected_classes, violations)` of every what-if answer.
    pub whatif_answers: Vec<(u64, u64)>,
    /// Reply `render` time per op, ns.
    pub render_ns: Vec<u32>,
    /// Reply bytes, newline included.
    pub reply_bytes: u64,
    /// Total `DeltaLog::append` time, ns.
    pub log_append_ns: u64,
    /// `DeltaLog::flush` time per window, ns.
    pub log_flush_ns: Vec<u32>,
    /// Log size at the end, bytes.
    pub log_bytes: u64,
    /// `Snapshot::of_sharded` + `write_to` time per snapshot, ns.
    pub snapshot_ns: Vec<u64>,
    /// Bytes of each snapshot written.
    pub snapshot_bytes: Vec<u64>,
    /// Max over mean of per-shard atom counts at the end.
    pub atom_imbalance: f64,
    /// Ops the engine refused.
    pub errors: u64,
}

/// The daemon's engine: `shards` shards, monitor and loop check on.
pub fn daemon_engine(topology: &Topology, shards: usize) -> ShardedDeltaNet {
    let config = DeltaNetConfig {
        monitor_violations: true,
        ..DeltaNetConfig::default()
    };
    let mut net =
        ShardedDeltaNet::with_parallelism(topology.clone(), config, shards, Parallelism::auto());
    net.enable_monitor();
    net
}

/// Replays the plan through `apply_batch` on a `shards`-shard daemon
/// engine, timing each layer call the plan asks for.
pub fn trace_shards(
    topology: &Topology,
    shards: usize,
    plan: &ShardPlan<'_>,
) -> Result<ShardTrace, String> {
    let mut net = daemon_engine(topology, shards);
    let mut out = ShardTrace::default();
    for chunk in plan.warm.chunks(32) {
        if net.apply_batch(chunk).is_err() {
            out.errors += 1;
        }
    }
    let base = plan.warm.len() as u64;
    let mut log = match plan.persist {
        Some((dir, _)) => Some(
            DeltaLog::create_with(
                Box::new(FsBackend),
                &dir.join("trace.dnlog"),
                Durability::FlushPerBatch,
            )
            .map_err(|e| format!("creating the traced log: {e}"))?,
        ),
        None => None,
    };
    let mut queries = plan.whatifs.iter().peekable();
    let mut at = 0usize;
    for &size in plan.windows {
        while let Some(&&(pos, link)) = queries.peek() {
            if pos > at {
                break;
            }
            queries.next();
            let t = Instant::now();
            let answer = std::hint::black_box(net.link_failure_impact(link, true));
            out.query_ns.push(ns_since(t));
            out.whatif_answers.push((
                answer.affected_classes as u64,
                answer.violations.len() as u64,
            ));
        }
        let window = &plan.ops[at..at + size];
        let t = Instant::now();
        let result = std::hint::black_box(net.apply_batch(window));
        out.window_ns.push(ns_since(t));
        let reports = match result {
            Ok(reports) => reports,
            Err(_) => {
                out.errors += 1;
                Vec::new()
            }
        };
        if plan.render {
            for (i, report) in reports.iter().enumerate() {
                let index = (at + i) as u64;
                let t = Instant::now();
                let line = service::proto::ok_reply(index + 1, base + index + 1, report).render();
                out.render_ns.push(ns_since(t));
                out.reply_bytes += line.len() as u64 + 1;
            }
        }
        if let (Some(log), Some((dir, every))) = (log.as_mut(), plan.persist) {
            for (i, op) in window.iter().enumerate() {
                let t = Instant::now();
                log.append(op);
                out.log_append_ns += t.elapsed().as_nanos() as u64;
                let done = base + (at + i + 1) as u64;
                if done.is_multiple_of(every) {
                    let path = dir.join(format!("trace-{done}.dnsnap"));
                    let t = Instant::now();
                    Snapshot::of_sharded(&net, done)
                        .write_to(&path)
                        .map_err(|e| format!("writing a traced snapshot: {e}"))?;
                    out.snapshot_ns.push(t.elapsed().as_nanos() as u64);
                    out.snapshot_bytes
                        .push(std::fs::metadata(&path).map_or(0, |m| m.len()));
                    std::fs::remove_file(&path).ok();
                }
            }
            let t = Instant::now();
            log.flush()
                .map_err(|e| format!("flushing the traced log: {e}"))?;
            out.log_flush_ns.push(ns_since(t));
        }
        at += size;
    }
    for (_, link) in queries {
        let t = Instant::now();
        let answer = std::hint::black_box(net.link_failure_impact(*link, true));
        out.query_ns.push(ns_since(t));
        out.whatif_answers.push((
            answer.affected_classes as u64,
            answer.violations.len() as u64,
        ));
    }
    if let Some(log) = log.as_mut() {
        log.sync()
            .map_err(|e| format!("syncing the traced log: {e}"))?;
        out.log_bytes = std::fs::metadata(log.path()).map_or(0, |m| m.len());
    }
    let atoms: Vec<f64> = net.shards().iter().map(|s| s.atom_count() as f64).collect();
    let mean = atoms.iter().sum::<f64>() / atoms.len().max(1) as f64;
    out.atom_imbalance = atoms.iter().copied().fold(0.0, f64::max) / mean.max(1.0);
    Ok(out)
}

/// Per-request `service::proto::parse_request` time, ns, and the total
/// bytes parsed (newline included).
pub fn trace_parse(topology: &Topology, lines: &[String]) -> Result<(Vec<u32>, u64), String> {
    let mut ns = Vec::with_capacity(lines.len());
    let mut bytes = 0u64;
    for line in lines {
        let t = Instant::now();
        let parsed = std::hint::black_box(service::proto::parse_request(line, topology));
        ns.push(ns_since(t));
        parsed.map_err(|e| format!("the benchmark's own request does not parse: {e}"))?;
        bytes += line.len() as u64 + 1;
    }
    Ok((ns, bytes))
}

/// Window sizes of a daemon run over `total` ops, recovered from its
/// transition events: each event names its window's op range
/// (`first_op..=last_op`, 1-based global; `base` ops preceded the run).
/// Ops outside every evented window were applied in windows of their own
/// — exact here, because the load generator's single request connection
/// is served one request at a time, so no two single-op requests share a
/// window.
pub fn windows_from_events(
    total: usize,
    base: u64,
    ranges: &[(u64, u64)],
) -> Result<Vec<usize>, String> {
    let mut sorted = ranges.to_vec();
    sorted.sort_unstable();
    let mut windows = Vec::new();
    let mut cursor = 0usize;
    for (first, last) in sorted {
        let (Some(lo), Some(hi)) = (
            first.checked_sub(base + 1).map(|v| v as usize),
            last.checked_sub(base).map(|v| v as usize),
        ) else {
            return Err(format!("event window {first}..={last} precedes the run"));
        };
        if lo < cursor || hi <= lo || hi > total {
            return Err(format!(
                "event window {first}..={last} overlaps or exceeds the ops"
            ));
        }
        windows.extend(std::iter::repeat_n(1, lo - cursor));
        windows.push(hi - lo);
        cursor = hi;
    }
    windows.extend(std::iter::repeat_n(1, total - cursor));
    Ok(windows)
}
