//! Accounting shared by the benchmark binary and its tests: percentile and
//! quartile selection, medians over passes and segments, the choice of
//! quiet passes, open-loop due-time latency, the failure fraction, the
//! daemon's unattributed residual, and the compare-mode verdict.
//!
//! Everything here is pure arithmetic over recorded numbers, so it is
//! unit-tested in `tests/accounting.rs` without running a workload.

#![forbid(unsafe_code)]

use std::ops::Range;

/// A latency sample set summarised as the benchmark reports timings: a
/// median, a tail percentile, the mean, and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// The tail percentile asked for (nearest rank).
    pub tail: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Nearest-rank percentile `q` (in `0.0..=1.0`) of `samples`, reordering
/// the slice in place. The rank is `ceil(q * n)`, clamped to `1..=n`, so
/// `q = 0.5` of an even-sized set is the lower median and `q = 0.99` of
/// 1000 samples is the 990th smallest — ten samples lie beyond it.
/// Returns `None` for an empty slice.
pub fn percentile<T: Copy + PartialOrd>(samples: &mut [T], q: f64) -> Option<T> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let (_, value, _) = samples.select_nth_unstable_by(rank - 1, |a, b| {
        a.partial_cmp(b).expect("samples must be comparable")
    });
    Some(*value)
}

/// Median, `tail` percentile and mean of `samples` (reordered in place).
pub fn summarize(samples: &mut [f64], tail: f64) -> Option<Summary> {
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n.max(1) as f64;
    let p50 = percentile(samples, 0.5)?;
    let tail = percentile(samples, tail)?;
    Some(Summary { n, p50, tail, mean })
}

/// The median, field by field, of several summaries of the same kind of
/// samples (one per pass or segment); `n` is their total sample count.
/// Reporting medians over passes or segments keeps a burst of outside
/// noise to the stretch it hit instead of the whole run's tail.
pub fn median_summary(parts: &[Summary]) -> Summary {
    let field =
        |f: fn(&Summary) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    Summary {
        n: parts.iter().map(|s| s.n).sum(),
        p50: field(|s| s.p50),
        tail: field(|s| s.tail),
        mean: field(|s| s.mean),
    }
}

/// Share of CPU time the hypervisor may take from this machine during a
/// pass or segment before it counts as disturbed by the host.
pub const QUIET_STEAL: f64 = 0.05;

/// Indices of the passes a run reports: those during which
/// the host took at most `limit` of the CPU time (`steal[i]`, a fraction),
/// or all of them when none was that quiet. A stretch the host disturbed
/// measures the host, not the program: on a shared machine such episodes
/// last tens of seconds and slow a daemon's tail several times over.
pub fn quiet_or_all(steal: &[f64], limit: f64) -> Vec<usize> {
    let quiet: Vec<usize> = (0..steal.len()).filter(|&i| steal[i] <= limit).collect();
    if quiet.is_empty() {
        (0..steal.len()).collect()
    } else {
        quiet
    }
}

/// Cuts `len` samples recorded in time order into consecutive segments of
/// at least `min_len` samples (at most `max_segments` of them; the last
/// takes the remainder). Empty when there are fewer than `min_len`.
pub fn segment_ranges(len: usize, min_len: usize, max_segments: usize) -> Vec<Range<usize>> {
    if len < min_len.max(1) {
        return Vec::new();
    }
    let count = (len / min_len.max(1)).clamp(1, max_segments.max(1));
    let size = len / count;
    (0..count)
        .map(|i| i * size..if i + 1 == count { len } else { (i + 1) * size })
        .collect()
}

/// The three quartile cut points of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does with its default `exclusive`
/// method. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("values must be comparable"));
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut cut = [0.0; 3];
    for (slot, i) in cut.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(cut)
}

/// The median of `values` (the middle quartile cut; the mean of the two
/// middle values for an even count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    match values.len() {
        0 => None,
        1 => Some(values[0]),
        _ => quartiles(values).map(|q| q[1]),
    }
}

/// Open-loop request timing. Every request has a *due* time fixed by the
/// schedule before the run starts; it is sent at or after that time and
/// completes when its reply arrives. All times are nanoseconds from a
/// common origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpenLoopSample {
    /// When the schedule said to send the request.
    pub due: u64,
    /// When the generator actually wrote it.
    pub sent: u64,
    /// When its reply was read.
    pub done: u64,
}

impl OpenLoopSample {
    /// The interval charged to the request: from when it was *due* to its
    /// reply, so a stall that delays later sends is charged to every
    /// request queued behind it, not hidden by timing from the (late) send.
    pub fn charged(&self) -> (u64, u64) {
        (self.due, self.done.max(self.due))
    }

    /// The latency charged to the request (see [`OpenLoopSample::charged`]).
    pub fn latency_ns(&self) -> u64 {
        let (from, to) = self.charged();
        to - from
    }

    /// How late the generator sent the request.
    pub fn lateness_ns(&self) -> u64 {
        self.sent.saturating_sub(self.due)
    }
}

/// The due time of the `index`-th request of a fixed-rate schedule that
/// starts at `start_ns` and issues `rate_per_s` requests per second.
pub fn due_time_ns(start_ns: u64, index: u64, rate_per_s: f64) -> u64 {
    start_ns + (index as f64 * 1e9 / rate_per_s).round() as u64
}

/// Failure accounting for one run: refused or skipped requests, failed
/// what-if queries and events lost to subscriber `gap` markers all count
/// as failures, against everything attempted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Failures {
    /// Requests written to the daemon (or ops issued in-process).
    pub requests_sent: u64,
    /// Transition events the daemon emitted to the subscriber.
    pub events_emitted: u64,
    /// Requests acked `ok: false` (refused, bad request, engine error).
    pub error_acks: u64,
    /// Ops acked as `skipped` inside a failed batch.
    pub skipped_acks: u64,
    /// Requests that never received any reply.
    pub missing_acks: u64,
    /// What-if queries that failed.
    pub failed_whatifs: u64,
    /// Emitted events the subscriber never received (dropped behind a
    /// `gap` marker, or lost at the end of the stream).
    pub events_lost: u64,
}

impl Failures {
    /// Everything attempted: requests sent plus events emitted.
    pub fn attempted(&self) -> u64 {
        self.requests_sent + self.events_emitted
    }

    /// Everything that failed.
    pub fn failed(&self) -> u64 {
        self.error_acks
            + self.skipped_acks
            + self.missing_acks
            + self.failed_whatifs
            + self.events_lost
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn fraction(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            attempted => self.failed() as f64 / attempted as f64,
        }
    }
}

/// The part of the daemon's median ack latency that the traced layers do
/// not explain: ack p50 minus the time attributed to parsing the request,
/// applying its window and rendering the reply. What remains is queue
/// wait, thread hand-offs and the socket. It can be negative when the
/// replayed layers ran slower than they did inside the daemon.
pub fn residual_us(ack_p50_us: f64, parse_us: f64, window_us: f64, render_us: f64) -> f64 {
    ack_p50_us - (parse_us + window_us + render_us)
}

/// Whether a metric is better when higher or when lower.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput).
    Higher,
    /// Smaller values are better (latency, memory, time).
    Lower,
}

/// The outcome of comparing one metric of one workload between a parent
/// and a change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of the pairs and its median
    /// beats the parent's by more than the parent's interquartile range.
    Improved,
    /// The change's median is no worse than the parent's by more than the
    /// bound.
    WithinBound,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed,
    /// One side's run-to-run spread (IQR over median) is wider than the
    /// bound, so the pairs cannot tell a change from noise — unless every
    /// change run beats every parent run.
    Unresolved,
}

impl Verdict {
    /// The label compare mode prints.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric compared over paired runs.
#[derive(Clone, Debug, PartialEq)]
pub struct Comparison {
    /// Parent median.
    pub parent_median: f64,
    /// Parent quartiles.
    pub parent_quartiles: [f64; 3],
    /// Change median.
    pub change_median: f64,
    /// Change quartiles.
    pub change_quartiles: [f64; 3],
    /// Pairs the change won (strictly better).
    pub wins: usize,
    /// Pairs the parent won (strictly better); ties count for neither.
    pub losses: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares paired runs of one metric. `pairs` holds `(parent, change)`
/// values of runs made back to back; `bound` is the share of the parent's
/// median by which the change may be worse before it counts as a
/// regression. Needs at least two pairs.
pub fn compare(pairs: &[(f64, f64)], better: Better, bound: f64) -> Option<Comparison> {
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let pq = quartiles(&parent)?;
    let cq = quartiles(&change)?;
    let beats = |a: f64, b: f64| match better {
        Better::Higher => a > b,
        Better::Lower => a < b,
    };
    let wins = pairs.iter().filter(|&&(p, c)| beats(c, p)).count();
    let losses = pairs.iter().filter(|&&(p, c)| beats(p, c)).count();
    let (pm, cm) = (pq[1], cq[1]);
    let spread = |q: &[f64; 3]| {
        if q[1] == 0.0 {
            0.0
        } else {
            (q[2] - q[0]).abs() / q[1].abs()
        }
    };
    // Worsening of the change's median, as a share of the parent's.
    let worse_by = if pm == 0.0 {
        0.0
    } else {
        match better {
            Better::Higher => (pm - cm) / pm.abs(),
            Better::Lower => (cm - pm) / pm.abs(),
        }
    };
    let all_better = parent.iter().all(|&p| change.iter().all(|&c| beats(c, p)));
    let verdict =
        if wins * 10 >= pairs.len() * 9 && beats(cm, pm) && (cm - pm).abs() > pq[2] - pq[0] {
            Verdict::Improved
        } else if (spread(&pq) > bound || spread(&cq) > bound) && !all_better {
            Verdict::Unresolved
        } else if worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::WithinBound
        };
    Some(Comparison {
        parent_median: pm,
        parent_quartiles: pq,
        change_median: cm,
        change_quartiles: cq,
        wins,
        losses,
        pairs: pairs.len(),
        verdict,
    })
}
