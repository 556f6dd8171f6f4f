//! `serve` and `cluster`: a `romp-serve --backend mca --shed` child on
//! loopback (`cluster` adds `--workers 1 --worker-threads 2`), driven in a
//! `paced` phase and a `saturated` phase.  A second server, the same but
//! `--backend native`, takes every other paced request: the base of
//! `mca_over_native`.  The paced phase is split over several freshly
//! spawned server pairs, because a server process keeps a fast or slow
//! mode for its whole life (NOTES.md).

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use mca_sync::SmallRng;
use romp_epcc::Construct;
use romp_serve::{Client, JobSpec, Request, Response};

use crate::util::{median, peak_rss_mb, pids_cpu_ns, proc_cpu, quantile, HostWindow, Json, Spans};
use crate::{Report, RunCfg, TEAM};

/// Open-loop arrival rate of the paced phase, requests per second, over
/// both servers.
const PACED_RPS: f64 = 500.0;
/// How long before each due time the paced generator stops sleeping and
/// spins.
const SPIN: Duration = Duration::from_micros(200);
/// Server processes the saturated phase is split over, one after another:
/// its CPU per job follows the mode of the process that serves it
/// (NOTES.md), so several processes share it.
const SAT_SERVERS: u32 = 3;
/// Arrival rate of Hi jobs in the saturated phase, requests per second.
/// Paced, not closed-loop, so the number of Hi jobs (and with it the
/// phase's job mix) does not depend on how fast the server answers.
const HI_RPS: f64 = 200.0;
/// Deadline on each Hi job of the saturated phase, milliseconds.  Far
/// above any Hi latency seen here (tens of ms under 20 % steal), so a
/// miss means a stalled server.  Deadlines order jobs only within a lane.
const HI_DEADLINE_MS: u32 = 1_000;
/// Deadline on each Batch job, milliseconds (loose: Batch is sheddable
/// background work, not a latency target).
const BATCH_DEADLINE_MS: u32 = 10_000;
/// Batch jobs kept in flight on connection B; more than the dispatcher
/// can run at once, so the queue never drains.
const BATCH_WINDOW: usize = 4;
/// The smallest job: one MRAPI-locked critical on one thread.
const TINY: JobSpec = JobSpec::Epcc {
    construct: Construct::Critical,
    threads: 1,
    inner_reps: 1,
};

const PRIO_NORMAL: u8 = 0;
const PRIO_HI: u8 = 1;
const PRIO_BATCH: u8 = 2;

/// A spawned server: the child, its address, and its stdout (which
/// carries the drain report at exit).
struct Server {
    child: Child,
    addr: String,
    stdout: BufReader<ChildStdout>,
}

fn serve_bin(cfg: &RunCfg) -> PathBuf {
    cfg.serve_bin.clone().unwrap_or_else(|| {
        let exe = std::env::current_exe().expect("current executable path");
        exe.with_file_name("romp-serve")
    })
}

/// Spawn a server on `backend` and wait until it serves; returns the
/// server and a connected client.  A server that never comes up is killed
/// and reaped.
fn spawn(cfg: &RunCfg, cluster: bool, backend: &str) -> Result<(Server, Client), String> {
    let mut cmd = Command::new(serve_bin(cfg));
    cmd.args([
        "--addr",
        "127.0.0.1:0",
        "--backend",
        backend,
        "--shed",
        "--threads",
        &TEAM.to_string(),
    ]);
    if cluster {
        cmd.args(["--workers", "1", "--worker-threads", &TEAM.to_string()]);
    }
    // The cluster's sockets and rmem files go under the system temp dir;
    // keep them inside the output directory (a relative path keeps the
    // socket paths short).
    let tmp = cfg.out_dir.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    cmd.env("TMPDIR", &tmp)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", serve_bin(cfg).display()))?;
    crate::watchdog::guard(child.id());
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    match connect(&mut stdout, cluster) {
        Ok((addr, client)) => Ok((
            Server {
                child,
                addr,
                stdout,
            },
            client,
        )),
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            crate::watchdog::release(child.id());
            Err(e)
        }
    }
}

/// Read the server's banner, connect, and wait for the first `Ping`
/// answer (and, for a cluster, until the stats list the worker as up: the
/// server listens before its worker processes have said hello).
fn connect(stdout: &mut BufReader<ChildStdout>, cluster: bool) -> Result<(String, Client), String> {
    let mut line = String::new();
    stdout
        .read_line(&mut line)
        .map_err(|e| format!("server banner: {e}"))?;
    let addr = line
        .trim()
        .strip_prefix("romp-serve listening on ")
        .ok_or_else(|| format!("unexpected server banner {line:?}"))?
        .to_string();
    let mut client = Client::connect(addr.as_str()).map_err(|e| format!("connect {addr}: {e}"))?;
    client.ping().map_err(|e| format!("first ping: {e}"))?;
    let ready_by = Instant::now() + Duration::from_secs(30);
    if cluster {
        loop {
            let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
            if !Snap(Json::parse(&stats)?).worker_pids().is_empty() {
                break;
            }
            if Instant::now() > ready_by {
                return Err(format!("cluster workers not up after 30 s: {stats}"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    Ok((addr, client))
}

/// Drain the server and check its drain report and exit status.
fn shutdown(mut server: Server, mut client: Client, report: &mut Report) {
    if let Err(e) = client.shutdown() {
        report.fail(format!("shutdown request: {e}"));
    }
    drop(client);
    let mut rest = String::new();
    let _ = server.stdout.read_to_string(&mut rest);
    let status = server.child.wait();
    crate::watchdog::release(server.child.id());
    match status {
        Ok(s) if s.success() => {}
        other => report.fail(format!("server exit: {other:?}")),
    }
    match rest.lines().last().map(Json::parse) {
        Some(Ok(drain)) => {
            for key in ["dropped", "rmem_leaked", "proto_errors", "failed"] {
                if drain.num(&[key]) != Some(0.0) {
                    report.fail(format!("drain report {key} = {:?}", drain.num(&[key])));
                }
            }
        }
        other => report.fail(format!("no drain report: {other:?}")),
    }
}

/// What the server's `Stats` op reports, at one instant.
struct Snap(Json);

impl Snap {
    fn take(client: &mut Client, report: &mut Report) -> Snap {
        match client
            .stats()
            .map_err(|e| e.to_string())
            .and_then(|s| Json::parse(&s))
        {
            Ok(j) => Snap(j),
            Err(e) => {
                report.fail(format!("stats op: {e}"));
                Snap(Json::Null)
            }
        }
    }

    fn counter(&self, name: &str) -> f64 {
        self.0.num(&["metrics", "counters", name]).unwrap_or(0.0)
    }

    /// (count, sum) of a histogram.
    fn hist(&self, name: &str) -> (f64, f64) {
        let h = |f| {
            self.0
                .num(&["metrics", "histograms", name, f])
                .unwrap_or(0.0)
        };
        (h("count"), h("sum"))
    }

    fn cluster(&self, name: &str) -> f64 {
        self.0.num(&["cluster", name]).unwrap_or(0.0)
    }

    fn worker_pids(&self) -> Vec<u32> {
        match self.0.get(&["cluster", "workers"]) {
            Some(Json::Arr(ws)) => ws
                .iter()
                .filter(|w| w.get(&["up"]) == Some(&Json::Bool(true)))
                .filter_map(|w| w.num(&["pid"]))
                .map(|p| p as u32)
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// User and system CPU seconds of `pids`, summed.
fn proc_cpu_of(pids: &[u32]) -> (f64, f64) {
    pids.iter()
        .map(|&p| proc_cpu(p))
        .fold((0.0, 0.0), |a, c| (a.0 + c.0, a.1 + c.1))
}

/// A healthy cluster never retried a job or restarted a worker.
fn check_cluster(snap: &Snap, report: &mut Report) {
    for key in ["retries", "restarts"] {
        if snap.cluster(key) != 0.0 {
            report.fail(format!("cluster {key} = {}", snap.cluster(key)));
        }
    }
}

/// Mean of a histogram between two snapshots.
fn hist_mean(a: &Snap, b: &Snap, name: &str) -> f64 {
    let (c0, s0) = a.hist(name);
    let (c1, s1) = b.hist(name);
    (s1 - s0) / (c1 - c0)
}

/// Submit `spec` and return the job id; results of earlier `Await`s
/// that arrive first are passed to `on_result`.  `Ok(None)` = shed.
fn submit(
    client: &mut Client,
    spec: JobSpec,
    deadline_ms: u32,
    priority: u8,
    rejected: &mut u64,
    mut on_result: impl FnMut(u64, bool),
) -> Result<Option<u64>, String> {
    let req = Request::Submit {
        spec,
        deadline_ms,
        idem_key: 0,
        affinity: 0,
        priority,
    };
    loop {
        client.send(&req).map_err(|e| format!("submit send: {e}"))?;
        let resp = loop {
            match client.recv().map_err(|e| format!("submit recv: {e}"))? {
                Response::JobResult {
                    job, ok, detail, ..
                } => on_result(job, checked(job, ok, &detail)),
                other => break other,
            }
        };
        match resp {
            Response::Accepted { job } => return Ok(Some(job)),
            Response::ShedDeadline { .. } => return Ok(None),
            Response::Rejected { retry_after_ms } => {
                *rejected += 1;
                std::thread::sleep(Duration::from_millis(
                    u64::from(retry_after_ms).clamp(1, 50),
                ));
            }
            other => return Err(format!("unexpected submit answer {other:?}")),
        }
    }
}

/// Pass a job's verification flag through, logging the server's detail
/// when it failed.
fn checked(job: u64, ok: bool, detail: &str) -> bool {
    if !ok {
        eprintln!("perfbench: job {job} failed: {detail}");
    }
    ok
}

/// Wait for the `JobResult` of `job` (the only job in flight).
fn await_one(client: &mut Client, job: u64) -> Result<bool, String> {
    client
        .send(&Request::Await { job })
        .map_err(|e| format!("await send: {e}"))?;
    match client.recv().map_err(|e| format!("await recv: {e}"))? {
        Response::JobResult {
            job: j, ok, detail, ..
        } if j == job => Ok(checked(job, ok, &detail)),
        other => Err(format!("unexpected await answer {other:?}")),
    }
}

/// Paced-phase client tallies.  Index 0 is the native server, 1 the
/// MCA server.
#[derive(Default)]
struct Paced {
    /// Completion minus send time of untraced requests, µs.
    rtt_us: [Vec<f64>; 2],
    /// MCA server: completion minus due time, µs, untraced requests.
    from_due_us: Vec<f64>,
    /// Same, for the requests recorded inside spans.
    traced_us: Vec<f64>,
    /// MCA server: completion minus send time of every request, µs.
    mca_from_send_us: Vec<f64>,
    /// Send minus due time (how late the generator ran), µs.
    late_us: Vec<f64>,
    /// Completed jobs per server.
    jobs: [u64; 2],
    rejected: u64,
}

/// Sleep to just short of `due`, then spin: a plain sleep overshoots by
/// tens of µs, which would read as server latency.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

impl Paced {
    fn extend(&mut self, other: &Paced) {
        for b in 0..2 {
            self.rtt_us[b].extend(&other.rtt_us[b]);
            self.jobs[b] += other.jobs[b];
        }
        self.from_due_us.extend(&other.from_due_us);
        self.traced_us.extend(&other.traced_us);
        self.mca_from_send_us.extend(&other.mca_from_send_us);
        self.late_us.extend(&other.late_us);
        self.rejected += other.rejected;
    }
}

/// Tiny jobs at `PACED_RPS` for `slice`, to the two servers in turn:
/// each pair of due times goes to both, in seeded order.  `k0` numbers
/// the first request; `forced` makes one result check fail.
fn paced_phase(
    clients: [&mut Client; 2],
    rng: &mut SmallRng,
    k0: u64,
    mut forced: bool,
    spans: &Spans,
    slice: Duration,
    report: &mut Report,
) -> Paced {
    let mut out = Paced::default();
    let interval = Duration::from_secs_f64(1.0 / PACED_RPS);
    let start = Instant::now();
    let mut first = 0;
    for k in k0.. {
        let due = start + interval * (k - k0) as u32;
        if due >= start + slice {
            break;
        }
        if k % 2 == 0 {
            first = (rng.next_u64() & 1) as usize;
        }
        let b = if k % 2 == 0 { first } else { 1 - first };
        let client = &mut *clients[b];
        wait_until(due);
        let sent = Instant::now();
        // The traced run records every other pair of requests, so the
        // span cost shows as the traced-minus-untraced latency difference.
        let traced = spans.enabled() && (k / 2) % 2 == 1;
        let mut one = |parent: u64| -> Result<bool, String> {
            let job = spans.span("serve.submit", parent, k, |_| {
                submit(client, TINY, 0, PRIO_NORMAL, &mut out.rejected, |_, _| {})
            })?;
            let job = job.ok_or("unexpected shed of a deadline-free job")?;
            spans.span("serve.await", parent, k, |_| await_one(client, job))
        };
        let res = if traced {
            spans.span("serve.request", 0, k, &mut one)
        } else {
            one(0)
        };
        let done = Instant::now();
        report.attempted += 1;
        match res {
            Ok(ok) if ok && !std::mem::take(&mut forced) => {}
            Ok(_) => report.fail(format!("paced job {k} did not verify")),
            Err(e) => {
                report.fail(format!("paced job {k}: {e}"));
                break;
            }
        }
        out.jobs[b] += 1;
        let rtt = (done - sent).as_secs_f64() * 1e6;
        let lat = (done - due).as_secs_f64() * 1e6;
        if !traced {
            out.rtt_us[b].push(rtt);
        }
        if b == 1 {
            out.mca_from_send_us.push(rtt);
            if traced {
                out.traced_us.push(lat);
            } else {
                out.from_due_us.push(lat);
            }
        }
        out.late_us.push((sent - due).as_secs_f64() * 1e6);
    }
    out
}

/// Saturated-phase tallies.
#[derive(Default)]
struct Saturated {
    /// Hi latency from due time to result, µs; a shed Hi job counts as
    /// infinitely late.
    hi_us: Vec<f64>,
    completed: u64,
    batch_shed: u64,
    submits: u64,
    rejected: u64,
    errors: Vec<String>,
    not_ok: u64,
}

impl Saturated {
    fn extend(&mut self, other: Saturated) {
        self.hi_us.extend(other.hi_us);
        self.completed += other.completed;
        self.batch_shed += other.batch_shed;
        self.submits += other.submits;
        self.rejected += other.rejected;
        self.errors.extend(other.errors);
        self.not_ok += other.not_ok;
    }
}

/// A Batch job drawn from the seeded mix: any EPCC construct, team 2.
fn batch_job(rng: &mut SmallRng) -> JobSpec {
    const CONSTRUCTS: [Construct; 8] = [
        Construct::Parallel,
        Construct::For,
        Construct::ParallelFor,
        Construct::Barrier,
        Construct::Single,
        Construct::Critical,
        Construct::Reduction,
        Construct::Lock,
    ];
    JobSpec::Epcc {
        construct: CONSTRUCTS[rng.gen_index(0, CONSTRUCTS.len())],
        threads: TEAM as u8,
        inner_reps: [16, 32, 64, 128][rng.gen_index(0, 4)],
    }
}

/// Connection B: Batch jobs, `BATCH_WINDOW` in flight until `until`,
/// then drained.
fn batch_loop(addr: &str, seed: u64, until: Instant) -> Saturated {
    let mut t = Saturated::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            t.errors.push(format!("batch connect: {e}"));
            return t;
        }
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xBA7C);
    let mut inflight = HashSet::new();
    let mut finished: Vec<(u64, bool)> = Vec::new();
    let mut step = || -> Result<bool, String> {
        for (job, ok) in finished.drain(..) {
            if !inflight.remove(&job) {
                return Err(format!("result for unknown job {job}"));
            }
            t.completed += u64::from(Instant::now() < until);
            t.not_ok += u64::from(!ok);
        }
        if Instant::now() < until && inflight.len() < BATCH_WINDOW {
            t.submits += 1;
            let spec = batch_job(&mut rng);
            let fin = &mut finished;
            match submit(
                &mut client,
                spec,
                BATCH_DEADLINE_MS,
                PRIO_BATCH,
                &mut t.rejected,
                |j, ok| fin.push((j, ok)),
            )? {
                Some(job) => {
                    client
                        .send(&Request::Await { job })
                        .map_err(|e| format!("await send: {e}"))?;
                    inflight.insert(job);
                }
                None => t.batch_shed += 1,
            }
            return Ok(true);
        }
        if inflight.is_empty() {
            return Ok(false);
        }
        match client.recv().map_err(|e| format!("batch recv: {e}"))? {
            Response::JobResult {
                job, ok, detail, ..
            } => finished.push((job, checked(job, ok, &detail))),
            other => return Err(format!("unexpected frame {other:?}")),
        }
        Ok(true)
    };
    loop {
        match step() {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => {
                t.errors.push(e);
                break;
            }
        }
    }
    t
}

/// Connection A: Hi jobs with a deadline, paced at `HI_RPS`, one in
/// flight, until `until`; latency counts from each job's due time.  `k0`
/// numbers the first job.
fn hi_loop(client: &mut Client, spans: &Spans, k0: u64, until: Instant) -> Saturated {
    let mut t = Saturated::default();
    let interval = Duration::from_secs_f64(1.0 / HI_RPS);
    let start = Instant::now();
    for k in k0.. {
        let due = start + interval * (k - k0) as u32;
        if due >= until {
            break;
        }
        wait_until(due);
        t.submits += 1;
        let res = spans.span(
            "serve.hi_request",
            0,
            k,
            |_| -> Result<Option<bool>, String> {
                match submit(
                    client,
                    TINY,
                    HI_DEADLINE_MS,
                    PRIO_HI,
                    &mut t.rejected,
                    |_, _| {},
                )? {
                    Some(job) => await_one(client, job).map(Some),
                    None => Ok(None),
                }
            },
        );
        match res {
            Ok(Some(ok)) => {
                t.hi_us.push(due.elapsed().as_secs_f64() * 1e6);
                t.completed += 1;
                t.not_ok += u64::from(!ok);
            }
            Ok(None) => t.hi_us.push(f64::INFINITY),
            Err(e) => {
                t.errors.push(e);
                break;
            }
        }
    }
    t
}

/// A spawned server with its client and (for `cluster`) its worker pids,
/// which the watchdog is told about.
fn with_workers(
    server: Server,
    mut client: Client,
    cluster: bool,
    report: &mut Report,
) -> (Server, Client, Vec<u32>) {
    let workers = if cluster {
        Snap::take(&mut client, report).worker_pids()
    } else {
        Vec::new()
    };
    if cluster && workers.is_empty() {
        report.fail("cluster lists no worker process".into());
    }
    for &w in &workers {
        crate::watchdog::guard(w);
    }
    (server, client, workers)
}

/// One spawned pair: index 0 the native server, 1 the MCA server, each
/// with a connected client and its worker pids.
struct Pair {
    servers: Vec<(Server, Client, Vec<u32>)>,
}

impl Pair {
    /// Spawn both servers, pushing each one's set-up time to `setups`;
    /// fails (after reaping whatever came up) if either does not come up.
    fn spawn(
        cfg: &RunCfg,
        cluster: bool,
        setups: &mut Vec<f64>,
        report: &mut Report,
    ) -> Result<Pair, String> {
        let mut servers = Vec::new();
        for backend in ["native", "mca"] {
            let t0 = Instant::now();
            match spawn(cfg, cluster, backend) {
                Ok((server, client)) => {
                    setups.push(t0.elapsed().as_secs_f64());
                    servers.push(with_workers(server, client, cluster, report));
                }
                Err(e) => {
                    for s in servers {
                        stop(s, cluster, report);
                    }
                    return Err(e);
                }
            }
        }
        Ok(Pair { servers })
    }

    /// Server plus worker pids of backend `b`.
    fn pids(&self, b: usize) -> Vec<u32> {
        let (server, _, workers) = &self.servers[b];
        std::iter::once(server.child.id())
            .chain(workers.iter().copied())
            .collect()
    }
}

/// Shut one spawned server down, checking a cluster's counters first.
fn stop(
    (server, mut client, workers): (Server, Client, Vec<u32>),
    cluster: bool,
    report: &mut Report,
) {
    if cluster {
        check_cluster(&Snap::take(&mut client, report), report);
    }
    shutdown(server, client, report);
    for w in workers {
        crate::watchdog::release(w);
    }
}

pub fn run(cfg: &RunCfg, spans: &Spans, cluster: bool) -> Report {
    let mut report = Report::default();
    let window = HostWindow::start(Vec::new());
    let pairs = cfg.setup_reps();
    let half = cfg.measure / 2;
    let slice = half / pairs as u32;
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x9ACE);

    // Set-up: spawn of a server until it answers its first ping (for
    // `cluster` this includes its worker process being up), twice per
    // pair; the median is reported.  Each pair serves one slice of the
    // paced phase; the last MCA server also serves the saturated phase.
    let mut setups = Vec::new();
    let mut paced = Paced::default();
    let mut last = Paced::default();
    let mut ratios = Vec::new();
    let mut rss = Vec::new();
    // CPU ns of the MCA servers (plus workers) over their paced slices,
    // and of every measured server over the paced and saturated phases.
    let mut mca_paced_cpu_ns = 0u64;
    let mut all_cpu_ns = 0u64;
    let mut measured = None;
    for i in 0..pairs {
        let mut pair = match Pair::spawn(cfg, cluster, &mut setups, &mut report) {
            Ok(p) => p,
            Err(e) => {
                report.fail(e);
                return report;
            }
        };
        let pids = [pair.pids(0), pair.pids(1)];
        let is_last = i + 1 == pairs;
        let before = is_last.then(|| {
            let mca = &mut pair.servers[1];
            (
                Snap::take(&mut mca.1, &mut report),
                proc_cpu_of(&pids[1]),
                proc_cpu_of(&pids[1][1..]),
            )
        });
        let cpu0 = pids.clone().map(|p| pids_cpu_ns(&p));
        let [native, mca] = &mut pair.servers[..] else {
            unreachable!("a pair holds two servers")
        };
        let one = paced_phase(
            [&mut native.1, &mut mca.1],
            &mut rng,
            paced.late_us.len() as u64,
            cfg.inject_failure && i == 0,
            spans,
            slice,
            &mut report,
        );
        let cpu1 = pids.clone().map(|p| pids_cpu_ns(&p));
        // Saturating: a thread that exits takes its CPU time with it.
        let used = [0, 1].map(|b| cpu1[b].saturating_sub(cpu0[b]));
        all_cpu_ns += used[0] + used[1];
        mca_paced_cpu_ns += used[1];
        // Read after a fixed amount of work (set-up plus a paced slice):
        // the saturated phase's team-2 jobs grow resident memory by an
        // amount that follows how many of them the host let run.
        rss.push(pids[1].iter().map(|&p| peak_rss_mb(p)).sum::<f64>());
        let mut rtt = one.rtt_us.clone();
        ratios.push(median(&mut rtt[1]) / median(&mut rtt[0]));
        paced.extend(&one);
        let mut servers = pair.servers.into_iter();
        stop(servers.next().expect("native server"), cluster, &mut report);
        let mut mca = servers.next().expect("MCA server");
        if let Some(before) = before {
            last = one;
            let s1 = Snap::take(&mut mca.1, &mut report);
            measured = Some((mca, pids[1].clone(), before, s1));
        } else {
            stop(mca, cluster, &mut report);
        }
    }
    report.setup_s = median(&mut setups);
    let Some(((server, client, _), pids, (s0, cpu0, wcpu0), s1)) = measured else {
        unreachable!("at least one pair")
    };

    // The saturated phase: the last pair's MCA server, then fresh ones.
    // Its per-layer figures come from the first segment, the server that
    // also served the measured paced slice.
    let segs = if cfg.tiny || cfg.probe {
        1
    } else {
        SAT_SERVERS
    };
    let mut hi = Saturated::default();
    let mut batch = Saturated::default();
    let mut sat_cpu_ns = 0u64;
    let mut first = None;
    let mut next = Some((server, client, pids[1..].to_vec()));
    for j in 0..segs {
        let (server, mut client, workers) = match next.take() {
            Some(s) => s,
            None => match spawn(cfg, cluster, "mca") {
                Ok((server, client)) => with_workers(server, client, cluster, &mut report),
                Err(e) => {
                    report.fail(e);
                    break;
                }
            },
        };
        let seg_pids: Vec<u32> = std::iter::once(server.child.id())
            .chain(workers.iter().copied())
            .collect();
        let cpu_before = pids_cpu_ns(&seg_pids);
        let until = Instant::now() + half / segs;
        let (h, b) = std::thread::scope(|s| {
            let addr = server.addr.as_str();
            let seed = cfg.seed.wrapping_add(u64::from(j));
            let b = s.spawn(move || batch_loop(addr, seed, until));
            let h = hi_loop(&mut client, spans, hi.submits, until);
            (h, b.join().expect("batch load thread"))
        });
        sat_cpu_ns += pids_cpu_ns(&seg_pids).saturating_sub(cpu_before);
        let snap = Snap::take(&mut client, &mut report);
        if cluster {
            check_cluster(&snap, &mut report);
        }
        if j == 0 {
            let seg = (h.completed + b.completed) as f64;
            first = Some((snap, proc_cpu_of(&seg_pids), proc_cpu_of(&workers), seg));
        }
        hi.extend(h);
        batch.extend(b);
        shutdown(server, client, &mut report);
        for w in workers {
            crate::watchdog::release(w);
        }
    }
    all_cpu_ns += sat_cpu_ns;
    let (steal, _, wall_s) = window.finish();
    report.host(steal, all_cpu_ns as f64 / 1e9 / wall_s);

    for t in [&hi, &batch] {
        report.attempted += t.submits;
        for e in &t.errors {
            report.fail(e.clone());
        }
        for _ in 0..t.not_ok {
            report.fail("saturated-phase job did not verify".into());
        }
    }
    // A shed Hi job misses any latency limit; with a deadline this loose
    // it means the server mispredicted, so it counts as a failure.
    for _ in hi.hi_us.iter().filter(|x| x.is_infinite()) {
        report.fail("Hi job shed at admission".into());
    }
    let Some((s2, cpu1, wcpu1, first_jobs)) = first else {
        return report;
    };

    let saturated = (hi.completed + batch.completed) as f64;
    report.e2e("mca_over_native", median(&mut ratios), "ratio");
    report.e2e(
        "cpu_us_per_op",
        (mca_paced_cpu_ns + sat_cpu_ns) as f64 / 1e3 / (paced.jobs[1] as f64 + saturated),
        "us",
    );
    report.e2e("peak_rss_mb", median(&mut rss), "MiB");

    // Wall-clock latency and throughput move with host steal by more than
    // any allowed bound (NOTES.md): printed, and per layer, not bounded.
    let mut from_due = paced.from_due_us.clone();
    let mut hi_us = hi.hi_us.clone();
    let throughput = (hi.completed + batch.completed) as f64 / half.as_secs_f64();
    let (p50, p99) = (median(&mut from_due), quantile(&mut from_due, 0.99));
    let (hi_p50, hi_p99) = (median(&mut hi_us), quantile(&mut hi_us, 0.99));
    report.info("latency_p50_us", p50, "us");
    report.info("latency_p99_us", p99, "us");
    report.info("hi_p99_us", hi_p99, "us");
    report.info("throughput_rps", throughput, "1/s");

    if spans.enabled() {
        let mut rtt = paced.rtt_us.clone();
        report.layer("serve.paced_rtt_us.native", median(&mut rtt[0]), "us");
        report.layer("serve.paced_rtt_us.mca", median(&mut rtt[1]), "us");
        report.layer("serve.paced_p50_us", p50, "us");
        report.layer("serve.paced_p99_us", p99, "us");
        report.layer("serve.hi_p50_us", hi_p50, "us");
        report.layer("serve.hi_p99_us", hi_p99, "us");
        report.layer("serve.throughput_rps", throughput, "1/s");
        let prefix = if cluster { "cluster" } else { "serve" };
        report.layer(
            "serve.queue_wait_us.paced",
            hist_mean(&s0, &s1, "serve.latency.queue_ns") / 1e3,
            "us",
        );
        report.layer(
            "serve.queue_wait_us.saturated",
            hist_mean(&s1, &s2, "serve.latency.queue_ns") / 1e3,
            "us",
        );
        report.layer(
            &format!("{prefix}.exec_us.paced"),
            hist_mean(&s0, &s1, "serve.latency.exec_ns") / 1e3,
            "us",
        );
        if !cluster {
            report.layer(
                "serve.exec_us.saturated",
                hist_mean(&s1, &s2, "serve.latency.exec_ns") / 1e3,
                "us",
            );
        }
        report.layer(
            "serve.handle_us",
            hist_mean(&s0, &s2, "serve.latency.handle_ns") / 1e3,
            "us",
        );
        // Over the measured server's paced slice.
        let client_mean =
            last.mca_from_send_us.iter().sum::<f64>() / last.mca_from_send_us.len() as f64;
        report.layer(
            "serve.residual_us.paced",
            client_mean - hist_mean(&s0, &s1, "serve.latency.total_ns") / 1e3,
            "us",
        );
        // Self times of the traced paced requests' spans split the client's
        // view into its two round trips.
        report.layer(
            "serve.submit_rtt_us.paced",
            spans.self_us("serve.submit"),
            "us",
        );
        report.layer(
            "serve.await_rtt_us.paced",
            spans.self_us("serve.await"),
            "us",
        );
        let mut late = paced.late_us.clone();
        report.layer(
            "serve.generator_late_us.p99",
            quantile(&mut late, 0.99),
            "us",
        );
        let used = (cpu1.0 - cpu0.0) + (cpu1.1 - cpu0.1);
        let wakeups = s2.counter("serve.reactor.wakeups") - s0.counter("serve.reactor.wakeups");
        report.layer(
            "serve.wakeups_per_req",
            wakeups / (last.jobs[1] as f64 + first_jobs),
            "ratio",
        );
        report.layer(
            "serve.events_per_wakeup",
            hist_mean(&s0, &s2, "serve.reactor.events_per_wakeup"),
            "ratio",
        );
        report.layer(
            "serve.saturated_cpu_us_per_job",
            sat_cpu_ns as f64 / 1e3 / saturated,
            "us",
        );
        report.layer("serve.sys_cpu_frac", (cpu1.1 - cpu0.1) / used, "ratio");
        report.layer(
            "serve.batch_shed_frac",
            batch.batch_shed as f64 / batch.submits.max(1) as f64,
            "ratio",
        );
        let submits = (paced.late_us.len() as u64 + hi.submits + batch.submits) as f64;
        report.layer(
            "serve.rejected_frac",
            (paced.rejected + hi.rejected + batch.rejected) as f64 / submits,
            "ratio",
        );
        let mut traced = paced.traced_us.clone();
        report.layer(
            "trace.overhead_frac",
            median(&mut traced) / median(&mut from_due) - 1.0,
            "ratio",
        );
        if cluster {
            let dispatched = s2.cluster("dispatched") - s0.cluster("dispatched");
            report.layer(
                "cluster.rmem_inline_frac",
                (s2.cluster("inline_results") - s0.cluster("inline_results")) / dispatched,
                "ratio",
            );
            let wused = (wcpu1.0 - wcpu0.0) + (wcpu1.1 - wcpu0.1);
            report.layer("cluster.worker_cpu_frac", wused / used, "ratio");
            report.layer("cluster.retries", s2.cluster("retries"), "count");
            report.layer("cluster.restarts", s2.cluster("restarts"), "count");
        }
    }
    report
}
