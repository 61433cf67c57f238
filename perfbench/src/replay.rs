//! `replay-airtel2`: the paper's Table 3 measurement. A single engine at
//! the default configuration (loop check per update, no monitor) replays
//! the Airtel-2 trace one op at a time; after each pass, Table 4's what-if
//! queries (with loop checks) run on the final data plane.

use crate::host::Steal;
use crate::inputs::{self, most_used_links};
use crate::layers::{self, ns_since, LoopPrint};
use crate::Outcome;
use deltanet::{DeltaNet, DeltaNetConfig};
use netmodel::checker::InvariantViolation;
use netmodel::trace::Trace;
use perfbench::{median, median_summary, quiet_or_all, summarize, Summary, QUIET_STEAL};
use std::time::Instant;

/// Set-ups (trace parse + engine build) timed for `setup_s`.
const SETUP_SAMPLES: usize = 9;
/// Rounds of the what-if link set after each pass: 100 queries, so the
/// pass's p90 has ten samples beyond it.
const WHATIF_ROUNDS: usize = 4;

fn us(ns: &[u32]) -> Vec<f64> {
    ns.iter().map(|&n| f64::from(n) / 1e3).collect()
}

fn sorted_debug(v: Vec<InvariantViolation>) -> Vec<String> {
    let mut out: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
    out.sort();
    out
}

/// Runs the workload for about `seconds`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    // Set-up is what `deltanet replay` does before its first update: parse
    // the trace text and build the engine.
    let input = inputs::airtel2(seed);
    let text = Trace::from_ops(input.ops.clone()).to_text(&input.topology);
    let mut setup = Vec::with_capacity(SETUP_SAMPLES);
    let mut parsed = None;
    for _ in 0..SETUP_SAMPLES {
        let t = Instant::now();
        let mut topology = input.topology.clone();
        let trace = Trace::parse(&text, &mut topology)
            .map_err(|e| format!("the generated trace does not parse: {e}"))?;
        let net = std::hint::black_box(DeltaNet::new(topology.clone(), DeltaNetConfig::default()));
        setup.push(t.elapsed().as_secs_f64());
        drop(net);
        parsed = Some(trace);
    }
    drop(text);
    let mut out = Outcome::default();
    let parsed = parsed.expect("at least one set-up sample");
    out.check(parsed.ops() == input.ops.as_slice(), || {
        "the trace text does not parse back to the generated ops".to_string()
    });
    drop(parsed);
    let ops = &input.ops;
    println!("# replay-airtel2: {} ops", ops.len());

    // One entry per pass; the run reports medians over the passes the
    // host left quiet.
    struct Pass {
        steal: f64,
        update: Summary,
        event: Summary,
        rate: f64,
        whatif: Summary,
        /// `(untraced wall, traced wall, traced layers)` in traced runs.
        traced: Option<(u64, u64, layers::EngineLoopsTrace)>,
    }
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut first_print: Option<LoopPrint> = None;
    let mut links = Vec::new();
    let net = loop {
        let pass_start = Instant::now();
        let steal = Steal::start();
        let mut net = DeltaNet::new(input.topology.clone(), DeltaNetConfig::default());
        let r = layers::timed_replay(&mut net, ops);
        out.failures.requests_sent += ops.len() as u64;
        out.failures.error_acks += r.errors;
        let print = *first_print.get_or_insert(r.print);
        out.check(r.print == print, || {
            format!(
                "pass {}: per-op loop print {:?} differs from pass 1's {print:?}",
                passes.len() + 1,
                r.print
            )
        });
        let traced = if trace {
            // Pair each untraced pass with a traced one over the same ops.
            let t = layers::trace_engine_loops(&input.topology, &[], ops);
            out.check(t.print == print, || {
                format!(
                    "traced loop print {:?} differs from the engine's own {print:?}",
                    t.print
                )
            });
            out.failures.error_acks += t.errors;
            Some((r.wall_ns, t.wall_ns, t))
        } else {
            None
        };
        if links.is_empty() {
            links = most_used_links(&net);
        }
        let mut whatif_ns = Vec::with_capacity(WHATIF_ROUNDS * links.len());
        for _ in 0..WHATIF_ROUNDS {
            for &link in &links {
                let t = Instant::now();
                std::hint::black_box(net.link_failure_impact(link, true));
                whatif_ns.push(ns_since(t));
            }
        }
        out.failures.requests_sent += whatif_ns.len() as u64;
        passes.push(Pass {
            steal: steal.fraction(),
            update: summarize(&mut us(&r.op_ns), 0.99).ok_or("no ops")?,
            event: summarize(&mut us(&r.loop_op_ns), 0.99).ok_or("no op found a loop")?,
            rate: ops.len() as f64 / (r.wall_ns as f64 / 1e9),
            whatif: summarize(&mut us(&whatif_ns), 0.9).ok_or("no what-if samples")?,
            traced,
        });
        out.first_pass_done();
        if started.elapsed().as_secs_f64() + pass_start.elapsed().as_secs_f64() > seconds {
            break net;
        }
    };
    let steal: Vec<f64> = passes.iter().map(|p| p.steal).collect();
    let reported: Vec<&Pass> = quiet_or_all(&steal, QUIET_STEAL)
        .into_iter()
        .map(|i| &passes[i])
        .collect();
    println!(
        "# passes {} (reported {}, host steal at most {:.1}% of a pass), what-if links {}",
        passes.len(),
        reported.len(),
        steal.iter().fold(0.0f64, |a, &b| a.max(b)) * 100.0,
        links.len()
    );

    // The replayed engine's final violations match a fresh engine's
    // loaded with the final data plane.
    let mut fresh = DeltaNet::new(
        input.topology.clone(),
        DeltaNetConfig {
            check_loops_per_update: false,
            ..DeltaNetConfig::default()
        },
    );
    for rule in Trace::from_ops(ops.clone()).final_data_plane() {
        fresh
            .try_insert_rule(rule)
            .map_err(|e| format!("final data plane does not load: {e}"))?;
    }
    let mut replayed = net.check_all_loops();
    replayed.extend(net.check_all_blackholes());
    let mut expected = fresh.check_all_loops();
    expected.extend(fresh.check_all_blackholes());
    let (replayed, expected) = (sorted_debug(replayed), sorted_debug(expected));
    out.check(replayed == expected, || {
        format!(
            "final violations of the replayed engine ({}) differ from a fresh engine's ({})",
            replayed.len(),
            expected.len()
        )
    });
    out.check(!links.is_empty(), || "no link carries traffic".to_string());

    let m = &mut out.metrics;
    let q = median_summary(&reported.iter().map(|p| p.whatif).collect::<Vec<_>>());
    if trace {
        let traced: Vec<&(u64, u64, layers::EngineLoopsTrace)> =
            reported.iter().filter_map(|p| p.traced.as_ref()).collect();
        let n_ops = (ops.len() * traced.len()) as f64;
        let engine_ns: Vec<u32> = traced
            .iter()
            .flat_map(|t| t.2.engine_ns.iter().copied())
            .collect();
        let loops_total: u64 = traced
            .iter()
            .flat_map(|t| t.2.loops_ns.iter())
            .map(|&n| u64::from(n))
            .sum();
        let engine_total: u64 = engine_ns.iter().map(|&n| u64::from(n)).sum();
        let engine = summarize(&mut us(&engine_ns), 0.99).ok_or("no engine samples")?;
        let last = &traced.last().expect("at least one traced pass").2;
        m.timing(
            "engine.busy_us_per_op",
            engine_total as f64 / 1e3 / n_ops,
            n_ops as usize,
        );
        m.summary("engine.p50_us", "engine.p99_us", &engine);
        m.set(
            "engine.affected_atoms_per_op",
            traced.iter().map(|t| t.2.affected).sum::<u64>() as f64 / n_ops,
        );
        m.set("engine.atoms", last.atoms as f64);
        m.set("engine.memory_bytes", last.memory as f64);
        m.timing(
            "loops.busy_us_per_op",
            loops_total as f64 / 1e3 / n_ops,
            n_ops as usize,
        );
        m.set(
            "loops.seeds_per_op",
            traced.iter().map(|t| t.2.seeds).sum::<u64>() as f64 / n_ops,
        );
        m.set(
            "loops.hit_ratio",
            traced.iter().map(|t| t.2.hits).sum::<u64>() as f64 / n_ops,
        );
        m.timing("query.busy_us_per_call", q.mean, q.n);
        m.timing("query.p90_us", q.tail, q.n);
        m.set("query.calls", q.n as f64);
        // Untraced per-op mean (same process, paired passes) against the
        // engine + loop busy time that explains it.
        let untraced_ns: u64 = traced.iter().map(|t| t.0).sum();
        let untraced_mean_us = untraced_ns as f64 / 1e3 / n_ops;
        let attributed_us = (engine_total + loops_total) as f64 / 1e3 / n_ops;
        m.set(
            "trace.unattributed_frac",
            (untraced_mean_us - attributed_us) / untraced_mean_us,
        );
        let overheads: Vec<f64> = traced
            .iter()
            .map(|&&(plain, traced, _)| traced as f64 / plain as f64 - 1.0)
            .collect();
        m.set("trace.overhead_frac", median(&overheads).unwrap_or(0.0));
        println!(
            "# untraced update_mean_us {untraced_mean_us:.4} vs engine + loops busy {attributed_us:.4}"
        );
    } else {
        let u = median_summary(&reported.iter().map(|p| p.update).collect::<Vec<_>>());
        m.timing("update_p50_us", u.p50, u.n);
        m.timing("update_p99_us", u.tail, u.n);
        m.timing("update_mean_us", u.mean, u.n);
        let rates: Vec<f64> = reported.iter().map(|p| p.rate).collect();
        m.timing("updates_per_s", median(&rates).expect("a pass"), u.n);
        let e = median_summary(&reported.iter().map(|p| p.event).collect::<Vec<_>>());
        m.latency(["event_p50_us", "event_p99_us", "event_mean_us"], &e);
        m.latency(["whatif_p50_us", "whatif_p90_us", "whatif_mean_us"], &q);
        m.timing(
            "setup_s",
            median(&setup).expect("setup samples"),
            setup.len(),
        );
    }
    Ok(out)
}
