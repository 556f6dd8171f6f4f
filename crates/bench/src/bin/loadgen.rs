//! `loadgen` — the romp-serve load generator and latency reporter.
//!
//! ```text
//! loadgen --addr HOST:PORT [--clients N | --sweep 1,4,16,64] [--requests N]
//!         [--pipeline N] [--rate R] [--mix epcc|npb|mixed|hi=10,batch=90]
//!         [--hi-deadline-ms MS] [--hi-p99-max-us US] [--json]
//! loadgen --workers-sweep 0,1,2,4 [--server-bin PATH] [other flags]
//! loadgen --addr HOST:PORT --ping
//! loadgen --addr HOST:PORT --shutdown
//! ```
//!
//! `--mix hi=P,batch=Q` is the **mixed-priority** mode: `P` percent of
//! each client's stream is tagged Hi priority with a tight explicit
//! deadline (`--hi-deadline-ms`, default 150), the rest floods the Batch
//! lane.  The report adds per-class p50/p99 and shed counts; a
//! `ShedDeadline` answer abandons that job (it is *not* retried — the
//! server's verdict is that the deadline cannot be met) and counts toward
//! the class's `sheds`.  With `--hi-p99-max-us` the process exits
//! non-zero when the Hi class misses the bound or records any failed or
//! shed job — the CI overload gate.
//!
//! `--workers-sweep` runs one phase per pool width, spawning a fresh
//! `romp-serve` child for each (`0` = the single-process baseline, `N>0`
//! = `--workers N` cluster mode), waiting for its readiness line,
//! driving the phase, and shutting it down — the `BENCH_cluster.json`
//! scaling experiment.  The server binary is located next to this one
//! unless `--server-bin` says otherwise.
//!
//! Each client is the one client core (`romp_serve::client::ClientCore`)
//! on its own thread and connection, keeping up to `--pipeline N` jobs in
//! flight: a submission is followed immediately by an `await`, and the
//! server writes each `JobResult` the moment the job finishes — no
//! polling, no extra round trips.  Submission responses arrive in request
//! order; results arrive in completion order and are correlated by job
//! id.  `--pipeline 1` (the default) degenerates to the classic closed
//! loop, one round trip at a time.
//!
//! With `--rate R` the generator is **open-loop**: arrivals follow a
//! fixed schedule of `R` requests/second per client, and latency is
//! measured from the *scheduled* arrival, so time spent catching up after
//! a slow response is charged to the server (coordinated-omission-free,
//! the wrk2 discipline).  Without `--rate` it is closed-loop maximum
//! throughput and latency is submit → result.
//!
//! `Rejected { retry_after_ms }` answers are counted, honoured (a capped,
//! jittered backoff) and retried for up to 60 s per job — a full-queue
//! episode shows up as rejections and latency, never as a lost request.
//! Every response is checked against what the client asked: anything it
//! cannot explain — a lost accepted job, a duplicate answered with two
//! ids, a malformed or unsolicited frame, a transport failure — counts in
//! `violations`, and `protocol_errors` counts those plus any job whose
//! retry budget ran out.  The process exits non-zero if either is
//! non-zero (the CI smokes' assertion).

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mca_sync::cli::{FromArg, Spec};
use romp_epcc::Construct;
use romp_npb::{Class, NpbKernel};
use romp_serve::client::{drive, ClientProfile, JobStream, LaneTally, Tally};
use romp_serve::{lane_name, Client, JobSpec, SubmitOptions};

const CLI: Spec = Spec {
    usage: "usage: loadgen --addr HOST:PORT [--clients N | --sweep 1,4,16,64] \
            [--requests N] [--pipeline N] [--rate R] \
            [--mix epcc|npb|mixed|hi=10,batch=90] [--hi-deadline-ms MS] \
            [--hi-p99-max-us US] [--json]\n\
            \x20      loadgen --workers-sweep 0,1,2,4 [--server-bin PATH] [flags]\n\
            \x20      loadgen --addr HOST:PORT --ping | --shutdown",
    values: "--addr --clients --sweep --workers-sweep --server-bin --requests --rate \
             --pipeline --mix --hi-deadline-ms --hi-p99-max-us",
    switches: "--json --ping --shutdown",
    positionals: 0,
};

/// A positive count.
fn positive<T: FromArg + PartialOrd + From<u8>>(s: &str) -> Option<T> {
    T::from_arg(s).filter(|n| *n >= T::from(1))
}

#[derive(Clone, Copy, PartialEq)]
enum Mix {
    Epcc,
    Npb,
    Mixed,
    /// Mixed-priority: `hi_pct` percent of the stream is Hi priority
    /// with a tight deadline, the rest Batch (EPCC specs throughout).
    Priority {
        hi_pct: u64,
    },
}

impl Mix {
    fn parse(s: &str) -> Option<Mix> {
        match s {
            "epcc" => Some(Mix::Epcc),
            "npb" => Some(Mix::Npb),
            "mixed" => Some(Mix::Mixed),
            _ => {
                // "hi=10,batch=90" (the batch share is implied; when both
                // are given they must sum to 100).
                let mut hi: Option<u64> = None;
                let mut batch: Option<u64> = None;
                for part in s.split(',') {
                    let (k, v) = part.split_once('=')?;
                    let v: u64 = v.trim().parse().ok()?;
                    match k.trim() {
                        "hi" => hi = Some(v),
                        "batch" => batch = Some(v),
                        _ => return None,
                    }
                }
                let hi_pct = hi?;
                if hi_pct > 100 || batch.is_some_and(|b| hi_pct + b != 100) {
                    return None;
                }
                Some(Mix::Priority { hi_pct })
            }
        }
    }

    fn label(self) -> &'static str {
        match self {
            Mix::Epcc => "epcc",
            Mix::Npb => "npb",
            Mix::Mixed => "mixed",
            Mix::Priority { .. } => "priority",
        }
    }

    /// Whether the k-th request rides the Hi lane (priority mix only).
    fn is_hi(self, k: u64) -> bool {
        match self {
            Mix::Priority { hi_pct } => k % 100 < hi_pct,
            _ => false,
        }
    }

    /// The k-th request's job.  EPCC constructs rotate so the stream
    /// exercises the whole construct matrix; the mixed stream folds in an
    /// NPB kernel every 16th request.
    fn job(self, k: u64) -> JobSpec {
        const CONSTRUCTS: [Construct; 6] = [
            Construct::Barrier,
            Construct::Parallel,
            Construct::Reduction,
            Construct::Critical,
            Construct::Single,
            Construct::ParallelFor,
        ];
        let epcc = JobSpec::Epcc {
            construct: CONSTRUCTS[(k % CONSTRUCTS.len() as u64) as usize],
            threads: 2,
            inner_reps: 8,
        };
        let npb = JobSpec::Npb {
            kernel: if k.is_multiple_of(2) {
                NpbKernel::Ep
            } else {
                NpbKernel::Is
            },
            class: Class::S,
            threads: 2,
        };
        match self {
            Mix::Epcc | Mix::Priority { .. } => epcc,
            Mix::Npb => npb,
            Mix::Mixed => {
                if k % 16 == 15 {
                    npb
                } else {
                    epcc
                }
            }
        }
    }
}

/// Rank quantile over a sorted latency vector, microseconds.
fn quantile_us_of(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let n = sorted_ns.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted_ns[rank - 1] as f64 / 1_000.0
}

/// The lanes the priority mix reports: Hi and Batch.
const CLASS_LANES: [usize; 2] = [0, 2];

fn class_json(lane: usize, l: &LaneTally) -> String {
    format!(
        "\"{}\": {{\"completed\": {}, \"failed\": {}, \"sheds\": {}, \
         \"p50_us\": {:.1}, \"p99_us\": {:.1}}}",
        lane_name(lane),
        l.latency_ns.len(),
        l.failed,
        l.sheds,
        quantile_us_of(&l.latency_ns, 0.50),
        quantile_us_of(&l.latency_ns, 0.99),
    )
}

struct PhaseReport {
    clients: usize,
    /// The clients' tallies, every lane's latencies sorted.
    tally: Tally,
    wall_s: f64,
    /// Every resolved job's latency, sorted.
    latencies_ns: Vec<u64>,
    /// Whether to report the Hi and Batch classes (the priority mix).
    classes: bool,
}

impl PhaseReport {
    fn completed(&self) -> u64 {
        self.tally.resolved()
    }

    fn protocol_errors(&self) -> u64 {
        self.tally.violations.len() as u64 + self.tally.gave_up
    }

    fn throughput_rps(&self) -> f64 {
        self.completed() as f64 / self.wall_s.max(1e-9)
    }

    fn quantile_us(&self, q: f64) -> f64 {
        quantile_us_of(&self.latencies_ns, q)
    }

    fn mean_us(&self) -> f64 {
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.latencies_ns.iter().sum();
        sum as f64 / self.latencies_ns.len() as f64 / 1_000.0
    }

    fn to_json(&self) -> String {
        let lanes = &self.tally.lanes;
        let classes = if self.classes {
            let [hi, batch] = CLASS_LANES.map(|l| class_json(l, &lanes[l]));
            format!(", \"classes\": {{{hi}, {batch}}}")
        } else {
            String::new()
        };
        format!(
            "{{\"clients\": {}, \"completed\": {}, \"failed_verification\": {}, \
             \"rejections\": {}, \"sheds\": {}, \"protocol_errors\": {}, \"violations\": {}, \
             \"wall_s\": {:.4}, \"throughput_rps\": {:.2}, \"mean_us\": {:.1}, \
             \"p50_us\": {:.1}, \"p90_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}{classes}}}",
            self.clients,
            self.completed(),
            self.tally.failed(),
            self.tally.rejections,
            self.tally.sheds(),
            self.protocol_errors(),
            self.tally.violations.len(),
            self.wall_s,
            self.throughput_rps(),
            self.mean_us(),
            self.quantile_us(0.50),
            self.quantile_us(0.90),
            self.quantile_us(0.99),
            self.quantile_us(0.999),
        )
    }

    fn render(&self) -> String {
        let mut line = format!(
            "clients={:<3} completed={:<6} rejected={:<5} shed={:<4} proto_err={:<3} \
             {:>8.1} req/s   p50={:.1}us p90={:.1}us p99={:.1}us p999={:.1}us",
            self.clients,
            self.completed(),
            self.tally.rejections,
            self.tally.sheds(),
            self.protocol_errors(),
            self.throughput_rps(),
            self.quantile_us(0.50),
            self.quantile_us(0.90),
            self.quantile_us(0.99),
            self.quantile_us(0.999),
        );
        if self.classes {
            for lane in CLASS_LANES {
                let c = &self.tally.lanes[lane];
                line.push_str(&format!(
                    "\n  {:<5} completed={:<6} failed={:<4} shed={:<4} p50={:.1}us p99={:.1}us",
                    lane_name(lane),
                    c.latency_ns.len(),
                    c.failed,
                    c.sheds,
                    quantile_us_of(&c.latency_ns, 0.50),
                    quantile_us_of(&c.latency_ns, 0.99),
                ));
            }
        }
        line
    }
}

/// Exit 1 unless every phase completed or shed each of its `requests`,
/// all verified, with no protocol error or violation.
fn gate<'a>(reports: impl Iterator<Item = &'a PhaseReport> + Clone, requests: u64) {
    let bad: u64 = reports.clone().map(|r| r.protocol_errors()).sum();
    let violations: usize = reports.clone().map(|r| r.tally.violations.len()).sum();
    let incomplete = reports
        .into_iter()
        .any(|r| r.completed() + r.tally.sheds() != requests || r.tally.failed() != 0);
    if bad > 0 || incomplete {
        eprintln!(
            "loadgen: FAILED (protocol_errors={bad}, violations={violations}, \
             incomplete={incomplete})"
        );
        std::process::exit(1);
    }
}

/// One phase: `requests` spread over `clients` client cores, client `c`
/// taking the mix's jobs `c·7919 + j` on its own shard key.
fn run_phase(
    addr: SocketAddr,
    mix: Mix,
    hi_deadline_ms: u32,
    clients: usize,
    requests: u64,
    rate: f64,
    pipeline: u32,
) -> PhaseReport {
    let per = requests / clients as u64;
    let extra = requests % clients as u64;
    let interval_ns = if rate > 0.0 {
        Duration::from_secs_f64(1.0 / rate).as_nanos() as u64
    } else {
        0
    };
    let profiles = (0..clients as u64)
        .map(|c| {
            let job: JobStream = Arc::new(move |j| {
                let k = c.wrapping_mul(7919).wrapping_add(j);
                // The priority mix: Hi jobs carry a tight deadline on
                // lane 1, everything else floods the Batch lane.
                let (deadline_ms, priority) = match mix {
                    Mix::Priority { .. } if mix.is_hi(k) => (hi_deadline_ms, 1),
                    Mix::Priority { .. } => (0, 2),
                    _ => (0, 0),
                };
                let opts = SubmitOptions {
                    deadline_ms,
                    idem_key: 0,
                    affinity: c + 1,
                    priority,
                };
                (mix.job(k), opts)
            });
            // At most `requests`, which was parsed as a u32.
            let n = (per + u64::from(c < extra)) as u32;
            ClientProfile {
                pipeline,
                interval_ns,
                ..ClientProfile::driven(n, job)
            }
        })
        .collect();
    let t0 = Instant::now();
    let mut tally = drive(addr, profiles, 0x10AD_6E4E);
    let wall_s = t0.elapsed().as_secs_f64();
    for v in &tally.violations {
        eprintln!("loadgen: {v}");
    }
    for lane in &mut tally.lanes {
        lane.latency_ns.sort_unstable();
    }
    let mut latencies_ns: Vec<u64> = tally
        .lanes
        .iter()
        .flat_map(|l| l.latency_ns.iter().copied())
        .collect();
    latencies_ns.sort_unstable();
    PhaseReport {
        clients,
        tally,
        wall_s,
        latencies_ns,
        classes: matches!(mix, Mix::Priority { .. }),
    }
}

/// The `--json` document: `head`'s (key, JSON value) pairs, then one
/// line per phase.
fn json_doc(head: &[(&str, String)], phases: Vec<String>) -> String {
    let head: String = head
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v},\n"))
        .collect();
    format!(
        "{{\n{head}  \"phases\": [\n    {}\n  ]\n}}",
        phases.join(",\n    ")
    )
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |v| v.get())
}

/// Resolve `HOST:PORT`, or exit 1.
fn resolve(addr: &str) -> SocketAddr {
    addr.to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
        .unwrap_or_else(|| {
            eprintln!("loadgen: cannot resolve {addr}");
            std::process::exit(1);
        })
}

/// Launch a server for one `--workers-sweep` phase and wait for its
/// readiness line.  Returns the child and the bound address.
fn spawn_server(bin: &std::path::Path, workers: usize) -> (std::process::Child, String) {
    use std::io::BufRead;
    let mut cmd = std::process::Command::new(bin);
    cmd.args(["--addr", "127.0.0.1:0"]);
    if workers > 0 {
        cmd.args(["--workers", &workers.to_string()]);
    }
    cmd.stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit());
    let mut child = cmd.spawn().unwrap_or_else(|e| {
        eprintln!("loadgen: spawn {} failed: {e}", bin.display());
        std::process::exit(1);
    });
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap_or_else(|e| {
        eprintln!("loadgen: server readiness line: {e}");
        std::process::exit(1);
    });
    let addr = match line.trim().strip_prefix("romp-serve listening on ") {
        Some(a) => a.to_string(),
        None => {
            eprintln!("loadgen: unexpected server banner: {line:?}");
            let _ = child.kill();
            std::process::exit(1);
        }
    };
    // Keep the pipe drained so the drain report never blocks the server.
    std::thread::spawn(move || {
        let mut sink = String::new();
        use std::io::Read;
        let _ = reader.read_to_string(&mut sink);
    });
    (child, addr)
}

fn main() {
    let args = CLI.parse();
    let addr: Option<String> = args.value("--addr");
    let clients: usize = args.value_with("--clients", positive).unwrap_or(4);
    let sweep = args.list_with("--sweep", positive::<usize>);
    let workers_sweep = args.list::<usize>("--workers-sweep");
    let server_bin: Option<std::path::PathBuf> = args.value("--server-bin");
    let requests = u64::from(args.value::<u32>("--requests").unwrap_or(200));
    let rate: f64 = args.value("--rate").unwrap_or(0.0);
    let pipeline: u32 = args.value_with("--pipeline", positive).unwrap_or(1);
    let mix = args.value_with("--mix", Mix::parse).unwrap_or(Mix::Epcc);
    let hi_deadline_ms: u32 = args.value_with("--hi-deadline-ms", positive).unwrap_or(150);
    let hi_p99_max_us = args
        .value_with("--hi-p99-max-us", |s| {
            f64::from_arg(s).filter(|&us| us > 0.0)
        })
        .unwrap_or(0.0);
    let (json, ping, shutdown) = (
        args.switch("--json"),
        args.switch("--ping"),
        args.switch("--shutdown"),
    );
    if hi_p99_max_us > 0.0 && !matches!(mix, Mix::Priority { .. }) {
        args.fail("--hi-p99-max-us requires --mix hi=..,batch=..");
    }
    // Worker-pool scaling mode: one fresh server per phase.
    if let Some(widths) = workers_sweep {
        if ping || shutdown || sweep.is_some() || addr.is_some() {
            args.fail("--workers-sweep spawns its own servers");
        }
        let bin = server_bin
            .or_else(|| mca_sync::cli::sibling_bin("romp-serve"))
            .unwrap_or_else(|| {
                eprintln!("loadgen: romp-serve binary not found (pass --server-bin PATH)");
                std::process::exit(1);
            });
        let mut phases: Vec<(usize, PhaseReport)> = Vec::new();
        for &w in &widths {
            if !json {
                eprintln!(
                    "loadgen: phase workers={w} clients={clients} requests={requests} \
                     pipeline={pipeline} ..."
                );
            }
            let (mut child, srv_addr) = spawn_server(&bin, w);
            let report = run_phase(
                resolve(&srv_addr),
                mix,
                hi_deadline_ms,
                clients,
                requests,
                rate,
                pipeline,
            );
            if let Err(e) = Client::connect(srv_addr.as_str()).and_then(|mut c| c.shutdown()) {
                eprintln!("loadgen: shutdown after workers={w} failed: {e}");
            }
            let status = child.wait().expect("server exit status");
            if !status.success() {
                eprintln!("loadgen: server (workers={w}) exited with {status}");
                std::process::exit(1);
            }
            phases.push((w, report));
        }
        if json {
            let head = [
                ("benchmark", "\"cluster_loadgen\"".to_string()),
                ("host_cores", host_parallelism().to_string()),
                ("mix", format!("\"{}\"", mix.label())),
                ("requests_per_phase", requests.to_string()),
                ("clients", clients.to_string()),
                ("pipeline", pipeline.to_string()),
            ];
            let rows = phases.iter();
            let rows = rows.map(|(w, r)| format!("{{\"workers\": {w}, {}", &r.to_json()[1..]));
            println!("{}", json_doc(&head, rows.collect()));
        } else {
            for (w, r) in &phases {
                println!("workers={w:<2} {}", r.render());
            }
        }
        gate(phases.iter().map(|(_, r)| r), requests);
        return;
    }

    let addr = addr.unwrap_or_else(|| args.fail("--addr is required"));

    if ping {
        match Client::connect(addr.as_str()).and_then(|mut c| c.ping()) {
            Ok(()) => {
                eprintln!("loadgen: {addr} is alive");
                return;
            }
            Err(e) => {
                eprintln!("loadgen: ping {addr} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if shutdown {
        match Client::connect(addr.as_str()).and_then(|mut c| c.shutdown()) {
            Ok(outstanding) => {
                eprintln!("loadgen: drain requested, {outstanding} jobs outstanding");
                return;
            }
            Err(e) => {
                eprintln!("loadgen: shutdown {addr} failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let concurrencies = sweep.unwrap_or_else(|| vec![clients]);
    let sock = resolve(&addr);
    let mut reports = Vec::new();
    for &c in &concurrencies {
        if !json {
            eprintln!("loadgen: phase clients={c} requests={requests} pipeline={pipeline} ...");
        }
        reports.push(run_phase(
            sock,
            mix,
            hi_deadline_ms,
            c,
            requests,
            rate,
            pipeline,
        ));
    }

    if json {
        let head = [
            ("benchmark", "\"serve_loadgen\"".to_string()),
            ("host_parallelism", host_parallelism().to_string()),
            ("mix", format!("\"{}\"", mix.label())),
            ("requests_per_phase", requests.to_string()),
            ("pipeline", pipeline.to_string()),
            ("open_loop_rate_per_client", rate.to_string()),
        ];
        println!(
            "{}",
            json_doc(&head, reports.iter().map(PhaseReport::to_json).collect())
        );
    } else {
        for r in &reports {
            println!("{}", r.render());
        }
    }

    gate(reports.iter(), requests);
    // The overload gate: the Hi class must finish everything it was
    // admitted for (no deadline kills, no sheds) within the p99 bound.
    if hi_p99_max_us > 0.0 {
        for r in &reports {
            let hi = &r.tally.lanes[CLASS_LANES[0]];
            let p99 = quantile_us_of(&hi.latency_ns, 0.99);
            if hi.failed != 0 || hi.sheds != 0 || p99 > hi_p99_max_us {
                eprintln!(
                    "loadgen: FAILED hi-class gate (failed={}, sheds={}, p99={p99:.1}us, \
                     bound={hi_p99_max_us:.1}us)",
                    hi.failed, hi.sheds
                );
                std::process::exit(1);
            }
        }
    }
}
