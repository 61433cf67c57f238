//! `engine-thread-airtel1`: the work the daemon's engine thread does for a
//! lone client, in process and single-threaded, without sockets or thread
//! hand-offs. Set-up recovers the first half of Airtel-1 from a checkpoint
//! directory (CLI defaults); the run then serves the second half request
//! by request — parse the ndjson line, apply it as a one-op window on the
//! recovered 2-shard monitored engine, render the ack and any transition
//! events — with a what-if query (with loop checks) every
//! [`WHATIF_EVERY`] requests on Table 4's most-used links.
//!
//! The daemon workloads time the same path through the daemon; on a
//! shared 2-vCPU host their latencies move by several times with the
//! host's load, while this path holds steady, so this is the workload the
//! shard, monitor, proto and recovery layers are gated on.

use crate::daemon::{self, Checked, Pass, WorkDir, CHECKPOINT};
use crate::host::Steal;
use crate::inputs::{self, most_used_links, Input};
use crate::Outcome;
use deltanet::{CheckpointManager, FsBackend, MonitorTransitions, PersistNet, RecoveryPolicy};
use netmodel::trace::Op;
use perfbench::{median, median_summary, quiet_or_all, summarize, Summary, QUIET_STEAL};
use service::proto::{ok_reply, parse_request, transitions_event, what_if_reply, RequestBody};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Requests between what-if queries: about the open-loop daemon
/// workload's mix (1250 ops/s with 20 what-ifs/s), and enough queries per
/// pass for a p90 with ten samples beyond it.
const WHATIF_EVERY: usize = 64;

fn us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

/// One pass's measurements.
struct PassStats {
    steal: f64,
    update: Summary,
    event: Summary,
    rate: f64,
    whatif: Summary,
}

/// Runs the workload for about `seconds`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let Input { topology, ops } = inputs::airtel1(seed);
    let prep = daemon::prepared(&topology);
    let half = ops.len() / 2;
    let (first, second) = ops.split_at(half);
    let mut out = Outcome::default();
    println!(
        "# engine-thread-airtel1: {} ops recovered, {} served",
        first.len(),
        second.len()
    );
    let (net, start_keys, e1) = daemon::oracle(&prep, &[], first);
    let links = most_used_links(&net);
    drop(net);
    let (_, oracle_keys, e2) = daemon::oracle(&prep, first, second);
    out.check(e1 + e2 == 0, || format!("{} ops fail in-process", e1 + e2));
    out.check(!links.is_empty(), || "no link carries traffic".to_string());

    let work = WorkDir::new()?;
    let pristine = work.0.join("pristine");
    daemon::write_checkpoints(&prep, first, &pristine)?;
    let live = work.0.join("live");

    // The client's request lines, what-ifs placed after every
    // `WHATIF_EVERY` ops, as the daemon would receive them.
    let mut lines = Vec::with_capacity(second.len() + second.len() / WHATIF_EVERY);
    let mut whatif_at = Vec::new();
    for (k, op) in second.iter().enumerate() {
        lines.push(service::proto::op_request(lines.len() as u64 + 1, op, &topology).render());
        if (k + 1) % WHATIF_EVERY == 0 {
            let link = links[whatif_at.len() % links.len()];
            let l = prep.link(link);
            lines.push(format!(
                "{{\"id\": {}, \"op\": \"what_if\", \"src\": {}, \"dst\": {}, \"check_loops\": true}}",
                lines.len() + 1,
                l.src.0,
                l.dst.0
            ));
            whatif_at.push((k + 1, link));
        }
    }

    let started = Instant::now();
    let mut passes: Vec<PassStats> = Vec::new();
    let mut setup = Vec::new();
    let (op_ns, answers) = loop {
        let pass_start = Instant::now();
        let steal = Steal::start();
        daemon::copy_dir(&pristine, &live)?;
        let t = Instant::now();
        let (mgr, _) = CheckpointManager::recover(
            Box::new(FsBackend),
            &live,
            &prep,
            RecoveryPolicy::RepairTail,
            CHECKPOINT,
        )
        .map_err(|e| format!("recover: {e}"))?;
        let PersistNet::Sharded(net) = mgr.close().map_err(|e| format!("close: {e}"))? else {
            return Err("the checkpoint holds a single engine".to_string());
        };
        let mut net = *net;
        if net.monitor_keys().is_none() {
            net.enable_monitor();
        }
        let staging: Arc<Mutex<Vec<MonitorTransitions>>> = Arc::default();
        let sink = Arc::clone(&staging);
        net.set_monitor_observer(move |t: &MonitorTransitions| {
            sink.lock().expect("observer sink").push(t.clone())
        });
        setup.push(t.elapsed().as_secs_f64());

        let mut op_ns = Vec::with_capacity(second.len());
        let mut event_ns = Vec::new();
        let mut whatif_ns = Vec::with_capacity(whatif_at.len());
        let mut answers = Vec::with_capacity(whatif_at.len());
        let mut folded = start_keys.clone();
        let mut fold_ok = true;
        let mut applied = half as u64;
        let mut seq = 0u64;
        let mut reply_bytes = 0usize;
        let replay_start = Instant::now();
        for line in &lines {
            let t = Instant::now();
            let request = parse_request(line, &prep).map_err(|e| format!("request: {e}"))?;
            let op = match request.body {
                RequestBody::Insert(rule) => Op::Insert(rule),
                RequestBody::Remove(id) => Op::Remove(id),
                RequestBody::WhatIf {
                    src,
                    dst,
                    check_loops,
                } => {
                    let link = prep.link_between(src, dst).ok_or("unknown what-if link")?;
                    let report = std::hint::black_box(net.link_failure_impact(link, check_loops));
                    reply_bytes += what_if_reply(request.id, &report).render().len();
                    whatif_ns.push(t.elapsed().as_nanos() as u64);
                    answers.push((
                        report.affected_classes as u64,
                        report.violations.len() as u64,
                    ));
                    continue;
                }
                _ => return Err("unexpected request kind".to_string()),
            };
            let reports = match net.apply_batch(&[op]) {
                Ok(reports) => reports,
                Err(_) => {
                    out.failures.error_acks += 1;
                    continue;
                }
            };
            applied += 1;
            reply_bytes += ok_reply(request.id, applied, &reports[0]).render().len();
            let transitions: Vec<MonitorTransitions> =
                staging.lock().expect("observer sink").drain(..).collect();
            for tr in &transitions {
                seq += 1;
                reply_bytes += transitions_event(seq, applied, applied, tr).render().len();
            }
            let ns = t.elapsed().as_nanos() as u64;
            op_ns.push(ns);
            if !transitions.is_empty() {
                event_ns.push(ns);
            }
            // The check folds the events outside the timed request.
            for tr in &transitions {
                for k in &tr.appeared {
                    fold_ok &= folded.insert(k.to_string());
                }
                for k in &tr.resolved {
                    fold_ok &= folded.remove(&k.to_string());
                }
            }
        }
        let replay_ns = replay_start.elapsed().as_nanos() as u64;
        std::hint::black_box(reply_bytes);
        out.failures.requests_sent += lines.len() as u64;
        out.failures.events_emitted += seq;
        out.check(fold_ok && folded == oracle_keys, || {
            format!(
                "the folded events ({} violations) differ from the oracle ({})",
                folded.len(),
                oracle_keys.len()
            )
        });
        let live_keys: BTreeSet<String> = net
            .monitor_keys()
            .unwrap_or_default()
            .iter()
            .map(|k| k.to_string())
            .collect();
        out.check(live_keys == oracle_keys, || {
            "the engine's monitor differs from the oracle".to_string()
        });
        passes.push(PassStats {
            steal: steal.fraction(),
            update: summarize(&mut us(&op_ns), 0.99).ok_or("no ops")?,
            event: summarize(&mut us(&event_ns), 0.99).ok_or("no op produced an event")?,
            rate: op_ns.len() as f64 / (replay_ns as f64 / 1e9),
            whatif: summarize(&mut us(&whatif_ns), 0.9).ok_or("no what-ifs")?,
        });
        out.first_pass_done();
        if started.elapsed().as_secs_f64() + pass_start.elapsed().as_secs_f64() > seconds {
            break (op_ns, answers);
        }
    };
    let steal: Vec<f64> = passes.iter().map(|p| p.steal).collect();
    let reported: Vec<&PassStats> = quiet_or_all(&steal, QUIET_STEAL)
        .into_iter()
        .map(|i| &passes[i])
        .collect();
    println!(
        "# passes {} (reported {}, host steal at most {:.1}% of a pass), what-ifs per pass {}",
        passes.len(),
        reported.len(),
        steal.iter().fold(0.0f64, |a, &b| a.max(b)) * 100.0,
        whatif_at.len()
    );

    if trace {
        let mut recover_ms = setup.iter().map(|s| s * 1e3).collect::<Vec<_>>();
        recover_ms.truncate(3);
        let traced = work.0.join("traced");
        std::fs::create_dir_all(&traced).map_err(|e| e.to_string())?;
        let pass = Pass::in_process(half as u64, lines, whatif_at, &op_ns);
        daemon::per_layer(
            &mut out,
            &prep,
            first,
            second,
            (&pass, &Checked::in_process(answers)),
            &oracle_keys,
            Some((&traced, recover_ms)),
        )?;
    } else {
        let pick = |f: fn(&PassStats) -> Summary| {
            median_summary(&reported.iter().map(|p| f(p)).collect::<Vec<_>>())
        };
        let u = pick(|p| p.update);
        let m = &mut out.metrics;
        m.timing("update_p50_us", u.p50, u.n);
        m.timing("update_p99_us", u.tail, u.n);
        m.timing("update_mean_us", u.mean, u.n);
        let rates: Vec<f64> = reported.iter().map(|p| p.rate).collect();
        m.timing("updates_per_s", median(&rates).expect("a pass"), u.n);
        m.latency(
            ["event_p50_us", "event_p99_us", "event_mean_us"],
            &pick(|p| p.event),
        );
        m.latency(
            ["whatif_p50_us", "whatif_p90_us", "whatif_mean_us"],
            &pick(|p| p.whatif),
        );
        m.timing("setup_s", median(&setup).expect("a pass"), setup.len());
    }
    Ok(out)
}
