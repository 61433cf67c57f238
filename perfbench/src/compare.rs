//! `perfbench compare <parent-dir> <change-dir> [--bounds BENCHMARK.json]`
//!
//! Reads two sets of saved run outputs (one file per run: the stdout of
//! `perfbench --trace 0 ...`), pairs parent and change runs by workload and
//! seed (or in seed order when the sides used different seeds), and prints for every workload and end-to-end metric both sides'
//! medians and quartiles, the change's wins out of the pairs, and a
//! verdict (see [`perfbench::compare`]).

use perfbench::{compare, Better};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// A parsed JSON value (numbers as `f64`; enough for result lines and
/// `BENCHMARK.json`).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at {pos}", c as char))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = Vec::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'u' => {
                        let hex = b.get(*pos..*pos + 4).ok_or("short \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        let ch = char::from_u32(code).unwrap_or('?');
                        out.extend_from_slice(ch.to_string().as_bytes());
                        *pos += 4;
                    }
                    other => out.push(other),
                }
            }
            _ => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                pairs.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Value::Num)
                .ok_or_else(|| format!("bad value at {start}"))
        }
        None => Err("unexpected end of input".to_string()),
    }
}

/// End-to-end metric values of one run, by name.
type MetricValues = BTreeMap<String, f64>;

/// One saved run: workload, seed and its end-to-end metric values.
struct RunResult {
    workload: String,
    seed: u64,
    metrics: BTreeMap<String, f64>,
}

fn read_run(path: &Path) -> Result<Option<RunResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut meta = None;
    let mut result = None;
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let Ok(v) = parse(line) else { continue };
        if let Some(m) = v.get("meta") {
            meta = Some(m.clone());
        } else if v.get("metrics").is_some() {
            result = Some(v);
        }
    }
    let (Some(meta), Some(result)) = (meta, result) else {
        return Ok(None);
    };
    if meta.get("trace").and_then(Value::num) != Some(0.0) {
        return Ok(None); // only untraced runs carry end-to-end metrics
    }
    let workload = meta
        .get("workload")
        .and_then(Value::str)
        .unwrap_or("")
        .to_string();
    let seed = meta.get("seed").and_then(Value::num).unwrap_or(0.0) as u64;
    let mut metrics = BTreeMap::new();
    if let Some(Value::Obj(pairs)) = result.get("metrics") {
        for (name, v) in pairs {
            if let Some(x) = v.get("value").and_then(Value::num) {
                metrics.insert(name.clone(), x);
            }
        }
    }
    Ok(Some(RunResult {
        workload,
        seed,
        metrics,
    }))
}

fn read_dir(dir: &str) -> Result<Vec<RunResult>, String> {
    let mut runs = Vec::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    for path in paths {
        if let Some(run) = read_run(&path)? {
            runs.push(run);
        }
    }
    Ok(runs)
}

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn read_bounds(path: &str) -> Result<Vec<(String, Better, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text)?;
    let Some(Value::Arr(metrics)) = doc.get("end_to_end") else {
        return Err(format!("{path}: no end_to_end list"));
    };
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::str)
                .ok_or("metric without name")?;
            let better = match m.get("better").and_then(Value::str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                _ => return Err(format!("{name}: better must be higher or lower")),
            };
            let bound = m
                .get("bound")
                .and_then(Value::num)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), better, bound))
        })
        .collect()
}

/// Entry point of compare mode.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut dirs = Vec::new();
    let mut bounds_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bounds" {
            bounds_path = it.next().ok_or("--bounds needs a path")?.clone();
        } else {
            dirs.push(a.clone());
        }
    }
    let [parent_dir, change_dir] = dirs.as_slice() else {
        return Err(
            "usage: perfbench compare <parent-dir> <change-dir> [--bounds BENCHMARK.json]".into(),
        );
    };
    let bounds = read_bounds(&bounds_path)?;
    let parent = read_dir(parent_dir)?;
    let change = read_dir(change_dir)?;
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut regressed = false;
    for workload in workloads {
        let by_seed = |runs: &[RunResult]| -> BTreeMap<u64, BTreeMap<String, f64>> {
            runs.iter()
                .filter(|r| r.workload == workload)
                .map(|r| (r.seed, r.metrics.clone()))
                .collect()
        };
        let p = by_seed(&parent);
        let c = by_seed(&change);
        // Runs pair by seed; when the two sides used different seeds they
        // pair in seed order instead.
        let runs: Vec<(&MetricValues, &MetricValues)> = if p.keys().any(|s| c.contains_key(s)) {
            p.iter().filter_map(|(s, m)| Some((m, c.get(s)?))).collect()
        } else {
            p.values().zip(c.values()).collect()
        };
        println!("{workload}: {} pairs", runs.len());
        if runs.len() < 10 {
            println!("  warning: fewer than 10 pairs; verdicts are weak");
        }
        println!(
            "  {:<16} {:>12} {:>25} {:>12} {:>25} {:>7}  verdict",
            "metric", "parent p50", "parent q1..q3", "change p50", "change q1..q3", "wins"
        );
        for (name, better, bound) in &bounds {
            let pairs: Vec<(f64, f64)> = runs
                .iter()
                .filter_map(|(pm, cm)| Some((*pm.get(name)?, *cm.get(name)?)))
                .collect();
            let Some(cmp) = compare(&pairs, *better, *bound) else {
                println!("  {name:<16} (not enough pairs)");
                continue;
            };
            regressed |= cmp.verdict == perfbench::Verdict::Regressed;
            println!(
                "  {name:<16} {:>12.3} {:>12.3}..{:<12.3} {:>12.3} {:>12.3}..{:<12.3} {:>3}/{:<3}  {}",
                cmp.parent_median,
                cmp.parent_quartiles[0],
                cmp.parent_quartiles[2],
                cmp.change_median,
                cmp.change_quartiles[0],
                cmp.change_quartiles[2],
                cmp.wins,
                cmp.pairs,
                cmp.verdict.label()
            );
        }
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
