//! CPU time the hypervisor takes from this machine ("steal"), read from
//! `/proc/stat`, so a run can tell passes the host disturbed from quiet
//! ones.

/// The host's cumulative `(steal, total)` CPU jiffies; `None` where the
/// kernel does not report them.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// Steal over an interval: start one with [`Steal::start`], read the
/// share with [`Steal::fraction`].
#[derive(Clone, Copy)]
pub struct Steal(Option<(u64, u64)>);

impl Steal {
    /// Starts an interval now.
    pub fn start() -> Steal {
        Steal(cpu_jiffies())
    }

    /// Share of CPU time stolen since the start (0 when unknown).
    pub fn fraction(self) -> f64 {
        match (self.0, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}
