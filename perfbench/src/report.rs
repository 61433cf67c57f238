//! Metric names, collection and the result line.

use perfbench::Summary;
use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs), in print order: name and unit.
/// Every workload reports every one of them in its result line, and
/// `BENCHMARK.json` bounds each.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("update_mean_us", "us"),
    ("event_mean_us", "us"),
    ("whatif_mean_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// End-to-end medians, tails and throughput printed in the readable table
/// but kept out of the result line: on a shared 2-vCPU host their
/// run-to-run spread is wider than the means' (see PERFORMANCE.md).
pub const UNBOUNDED: &[(&str, &str)] = &[
    ("update_p50_us", "us"),
    ("update_p99_us", "us"),
    ("updates_per_s", "1/s"),
    ("event_p50_us", "us"),
    ("event_p99_us", "us"),
    ("whatif_p50_us", "us"),
    ("whatif_p90_us", "us"),
];

/// Per-layer metrics (traced runs), in print order: name and unit. A
/// layer the workload bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.busy_us_per_op", "us"),
    ("engine.p50_us", "us"),
    ("engine.p99_us", "us"),
    ("engine.affected_atoms_per_op", "count"),
    ("engine.atoms", "count"),
    ("engine.memory_bytes", "B"),
    ("loops.busy_us_per_op", "us"),
    ("loops.seeds_per_op", "count"),
    ("loops.hit_ratio", "ratio"),
    ("monitor.busy_us_per_window", "us"),
    ("monitor.events", "count"),
    ("monitor.useful_ratio", "ratio"),
    ("shard.busy_us_per_window", "us"),
    ("shard.p99_us_per_window", "us"),
    ("shard.ops_per_window", "count"),
    ("shard.speedup_vs_1", "ratio"),
    ("shard.atom_imbalance", "ratio"),
    ("persist.log_append_us_per_op", "us"),
    ("persist.log_flush_us_per_window", "us"),
    ("persist.log_bytes", "B"),
    ("persist.snapshot_ms", "ms"),
    ("persist.snapshot_bytes", "B"),
    ("persist.snapshots", "count"),
    ("persist.recover_ms", "ms"),
    ("query.busy_us_per_call", "us"),
    ("query.p90_us", "us"),
    ("query.calls", "count"),
    ("proto.parse_us_per_request", "us"),
    ("proto.request_bytes", "B"),
    ("proto.render_us_per_reply", "us"),
    ("proto.reply_bytes", "B"),
    ("server.residual_us", "us"),
    ("server.events_dropped", "count"),
    ("server.ops_applied", "count"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.sent", "count"),
    ("loadgen.inflight_mean", "count"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The names the daemon workloads' end-to-end metrics also go by.
pub const DAEMON_ALIASES: &[(&str, &str)] = &[
    ("update_p50_us", "ack_p50_us"),
    ("update_p99_us", "ack_p99_us"),
    ("update_mean_us", "ack_mean_us"),
    ("updates_per_s", "acked_ops_per_s"),
];

/// Collected metric values, with the sample count behind each timing.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, Option<usize>)>,
}

impl Metrics {
    /// Records a plain value (a count, a ratio, a one-off measurement).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (value, None));
    }

    /// Records a value derived from `samples` measurements.
    pub fn timing(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, Some(samples)));
    }

    /// Records a summary's median and tail under two names.
    pub fn summary(&mut self, p50: &'static str, tail: &'static str, s: &Summary) {
        self.timing(p50, s.p50, s.n);
        self.timing(tail, s.tail, s.n);
    }

    /// Records a summary's median, tail and mean under three names.
    pub fn latency(&mut self, [p50, tail, mean]: [&'static str; 3], s: &Summary) {
        self.summary(p50, tail, s);
        self.timing(mean, s.mean, s.n);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// Prints a human-readable table of `names`, then returns the JSON
    /// `metrics` object over exactly those names. Per-layer names that a
    /// workload did not record are reported as 0 (the layer is bypassed);
    /// a missing end-to-end metric is a bug in the benchmark.
    /// `aliases` gives other names to print beside some metrics.
    pub fn render(
        &self,
        names: &[(&str, &str)],
        zero_fill: bool,
        aliases: &[(&str, &str)],
    ) -> String {
        let mut json = Vec::new();
        for &(name, unit) in names {
            let value = self.print_row(name, unit, zero_fill, aliases);
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            ));
        }
        format!("{{{}}}", json.join(", "))
    }

    /// Prints one row of the readable table and returns its value.
    pub fn print_row(
        &self,
        name: &str,
        unit: &str,
        zero_fill: bool,
        aliases: &[(&str, &str)],
    ) -> f64 {
        let label = match aliases.iter().find(|a| a.0 == name) {
            Some((_, alias)) => format!("{name} ({alias})"),
            None => name.to_string(),
        };
        let (value, samples) = match self.values.get(name) {
            Some(&v) => v,
            None if zero_fill => (0.0, None),
            None => panic!("metric {name} was not measured"),
        };
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match samples {
            Some(n) => println!("# {label:<34} {value:>16.3} {unit:<6} n={n}"),
            None => println!("# {label:<34} {value:>16.3} {unit}"),
        }
        value
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
pub fn number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine shape a result depends on, as one JSON object.
pub fn machine_shape() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{}\", \"profile\": \"{}\"}}",
        cpu.replace('"', "'"),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_REV"),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    )
}
