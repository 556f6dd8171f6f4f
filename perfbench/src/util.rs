//! Statistics, host/process probes, a minimal JSON reader, and the span
//! recorder the traced run uses.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// ---------------------------------------------------------------- stats

/// Median of `xs` (NaN when empty).  Sorts in place.
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs` (NaN when empty).  Sorts in place.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    let s: f64 = xs.iter().map(|x| x.ln()).sum();
    (s / xs.len() as f64).exp()
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut mca_sync::SmallRng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_index(0, i + 1));
    }
}

// --------------------------------------------------------- host probes

/// Aggregate `cpu` line of `/proc/stat`: (all ticks, steal ticks).
fn host_ticks() -> (u64, u64) {
    let text = fs::read_to_string("/proc/stat").unwrap_or_default();
    let line = text.lines().next().unwrap_or("");
    let vals: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user, so only the first 8 sum.
    let total = vals.iter().take(8).sum();
    (total, vals.get(7).copied().unwrap_or(0))
}

/// Clock ticks per second of `/proc` CPU counters (`USER_HZ`, 100 on
/// every Linux ABI this runs on).
const USER_HZ: f64 = 100.0;

/// User and system CPU seconds of one process (all its threads).
pub fn proc_cpu(pid: u32) -> (f64, f64) {
    let text = fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime/stime are the
    // 14th/15th fields overall, i.e. index 11/12 after `) `.
    let rest = text.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let get = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (get(11) / USER_HZ, get(12) / USER_HZ)
}

/// Peak resident set (`VmHWM`) of one process, MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let text = fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// CPU time of every live thread of this process, nanoseconds: the sum
/// of the run times in `/proc/self/task/*/schedstat`.  Finer than the
/// 10 ms ticks of `/proc/<pid>/stat`, so it can time a single solve.
pub fn self_cpu_ns() -> u64 {
    threads_cpu_ns("/proc/self/task")
}

/// [`self_cpu_ns`] of other processes, summed.
pub fn pids_cpu_ns(pids: &[u32]) -> u64 {
    pids.iter()
        .map(|p| threads_cpu_ns(&format!("/proc/{p}/task")))
        .sum()
}

fn threads_cpu_ns(task_dir: &str) -> u64 {
    let Ok(dir) = fs::read_dir(task_dir) else {
        return 0;
    };
    dir.flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| {
            s.split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
        })
        .sum()
}

/// Host steal and process CPU over one measured interval.
pub struct HostWindow {
    t0: Instant,
    ticks0: (u64, u64),
    cpu0: f64,
    pids: Vec<u32>,
}

impl HostWindow {
    /// Start a window whose CPU is that of `pids` (summed).
    pub fn start(pids: Vec<u32>) -> HostWindow {
        let cpu0 = pids.iter().map(|&p| cpu_total(p)).sum();
        HostWindow {
            t0: Instant::now(),
            ticks0: host_ticks(),
            cpu0,
            pids,
        }
    }

    /// `(host.steal_frac, cpu seconds, wall seconds)` since `start`.
    pub fn finish(&self) -> (f64, f64, f64) {
        let wall = self.t0.elapsed().as_secs_f64();
        let (tot, steal) = host_ticks();
        let dt = tot.saturating_sub(self.ticks0.0).max(1) as f64;
        let ds = steal.saturating_sub(self.ticks0.1) as f64;
        let cpu: f64 = self.pids.iter().map(|&p| cpu_total(p)).sum::<f64>() - self.cpu0;
        (ds / dt, cpu, wall)
    }
}

fn cpu_total(pid: u32) -> f64 {
    let (u, s) = proc_cpu(pid);
    u + s
}

// ------------------------------------------------------------ json read

/// A parsed JSON value (only what the serve `Stats` document needs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete document.
    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut i = 0;
        let v = parse_value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing bytes at {i}"));
        }
        Ok(v)
    }

    /// Member lookup along a `.`-free path of keys.
    pub fn get(&self, path: &[&str]) -> Option<&Json> {
        let mut cur = self;
        for key in path {
            match cur {
                Json::Obj(members) => cur = &members.iter().find(|(k, _)| k == key)?.1,
                _ => return None,
            }
        }
        Some(cur)
    }

    /// Numeric value at `path`, if present.
    pub fn num(&self, path: &[&str]) -> Option<f64> {
        match self.get(path)? {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && b[*i].is_ascii_whitespace() {
        *i += 1;
    }
}

fn parse_value(b: &[u8], i: &mut usize) -> Result<Json, String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => {
            *i += 1;
            let mut members = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, i);
                let Json::Str(k) = parse_value(b, i)? else {
                    return Err(format!("object key expected at {i}"));
                };
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("':' expected at {i}"));
                }
                *i += 1;
                members.push((k, parse_value(b, i)?));
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("',' or '}}' expected at {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            let mut items = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, i)?);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("',' or ']' expected at {i}")),
                }
            }
        }
        Some(b'"') => {
            *i += 1;
            let mut s = String::new();
            while let Some(&c) = b.get(*i) {
                *i += 1;
                match c {
                    b'"' => return Ok(Json::Str(s)),
                    b'\\' => {
                        let e = *b.get(*i).ok_or("dangling escape")?;
                        *i += 1;
                        match e {
                            b'n' => s.push('\n'),
                            b't' => s.push('\t'),
                            b'r' => s.push('\r'),
                            b'u' => {
                                let hex = b.get(*i..*i + 4).ok_or("short \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                s.push(char::from_u32(code).unwrap_or('?'));
                                *i += 4;
                            }
                            other => s.push(other as char),
                        }
                    }
                    _ => {
                        // Re-decode multi-byte UTF-8 sequences whole.
                        let start = *i - 1;
                        let mut end = *i;
                        while end < b.len() && (b[end] & 0xC0) == 0x80 {
                            end += 1;
                        }
                        s.push_str(std::str::from_utf8(&b[start..end]).map_err(|e| e.to_string())?);
                        *i = end;
                    }
                }
            }
            Err("unterminated string".into())
        }
        Some(b't') if b[*i..].starts_with(b"true") => {
            *i += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*i..].starts_with(b"false") => {
            *i += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*i..].starts_with(b"null") => {
            *i += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *i;
            while *i < b.len() && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                *i += 1;
            }
            std::str::from_utf8(&b[start..*i])
                .ok()
                .and_then(|t| t.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad value at {start}"))
        }
        None => Err("unexpected end of document".into()),
    }
}

// ---------------------------------------------------------------- spans

/// One recorded span: a call from the benchmark into a module's public
/// function.  Spans of one request share `req`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder; a disabled recorder only runs the closures.
pub struct Spans {
    enabled: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name` under `parent` (0 = root) for
    /// request `req`; `f` receives the new span's id for its children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("span recorder poisoned")
            .push(Span {
                id,
                parent,
                req,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span recorder poisoned").len()
    }

    /// Median self time (duration minus the children's) of spans named
    /// `name`, microseconds.
    pub fn self_us(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut child_ns = std::collections::HashMap::<u64, u64>::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut xs: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
                    as f64
                    / 1e3
            })
            .collect();
        median(&mut xs)
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(fs::File::create(path)?);
        for s in self.spans.lock().expect("span recorder poisoned").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut xs), 2.5);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn json_reads_stats_shapes() {
        let j = Json::parse(r#"{"a":{"b":[1,2.5e3,null,true]},"s":"x\"é","n":-3}"#).unwrap();
        assert_eq!(j.num(&["n"]), Some(-3.0));
        assert_eq!(j.get(&["s"]), Some(&Json::Str("x\"é".into())));
        assert_eq!(
            j.get(&["a", "b"]),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2500.0),
                Json::Null,
                Json::Bool(true)
            ]))
        );
        assert!(Json::parse("{\"a\":1} x").is_err());
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = Spans::new(true);
        spans.span("outer", 0, 1, |id| {
            spans.span("inner", id, 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(spans.len(), 2);
        assert!(spans.self_us("outer") < spans.self_us("inner"));
    }
}
