//! Layer microbenchmarks for the traced runs: each times one public
//! operation of one module in isolation, as the median over batches.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mca_mcapi::{EndpointAddr, McapiDomain, WireChan, WireListener};
use mca_mrapi::sync::MutexAttributes;
use mca_mrapi::{DomainId, MrapiSystem, NodeId, RmemAttributes, ShmemAttributes};
use mca_mtapi::Mtapi;
use mca_sync::deque::{Injector, Steal};
use romp::CancelToken;
use romp_epcc::Construct;
use romp_serve::queue::{JobQueue, QueuedJob};
use romp_serve::{JobSpec, Request, Response};

use crate::util::{median, Spans};
use crate::Report;

/// Time each microbenchmark this long.
const BUDGET: Duration = Duration::from_millis(250);

/// Median nanoseconds per call of `op`, over batches of `batch` calls
/// run for [`BUDGET`].
fn per_op_ns(batch: u32, mut op: impl FnMut()) -> f64 {
    let mut xs = Vec::new();
    let end = Instant::now() + BUDGET;
    while Instant::now() < end || xs.len() < 5 {
        let t0 = Instant::now();
        for _ in 0..batch {
            op();
        }
        xs.push(t0.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    median(&mut xs)
}

/// `mca-sync` and MRAPI primitives: the layers under `romp`'s constructs.
pub fn sync_and_mrapi(report: &mut Report, spans: &Spans) {
    let m = mca_sync::Mutex::new(0u64);
    let v = spans.span("layer.sync.mutex", 0, 0, |_| {
        per_op_ns(1000, || *m.lock() += 1)
    });
    report.layer("sync.mutex_ns", v, "ns");

    let inj = Injector::new();
    let v = spans.span("layer.sync.injector", 0, 0, |_| {
        per_op_ns(1000, || {
            inj.push(1u64);
            while !matches!(std::hint::black_box(inj.steal()), Steal::Success(_)) {}
        })
    });
    report.layer("sync.injector_ns", v, "ns");

    let sys = MrapiSystem::new_t4240();
    let node = sys.initialize(DomainId(3), NodeId(0)).expect("mrapi node");
    let mtx = node
        .mutex_create(1, &MutexAttributes::default())
        .expect("mrapi mutex");
    let v = spans.span("layer.mrapi.mutex", 0, 0, |_| {
        per_op_ns(1000, || {
            let key = mtx.lock(Duration::from_secs(1)).expect("uncontended lock");
            mtx.unlock(&key).expect("unlock");
        })
    });
    report.layer("mrapi.mutex_ns", v, "ns");

    // Two nodes hammer one mutex; the figure is wall time per acquisition.
    let v = spans.span("layer.mrapi.mutex_contended", 0, 0, |_| {
        let stop = Arc::new(AtomicBool::new(false));
        let peer = {
            let stop = Arc::clone(&stop);
            node.thread_create(NodeId(1), move |me| {
                let mtx = me.mutex_get(1).expect("peer mutex_get");
                while !stop.load(Ordering::Relaxed) {
                    let key = mtx.lock(Duration::from_secs(5)).expect("contended lock");
                    mtx.unlock(&key).expect("unlock");
                }
            })
            .expect("peer node")
        };
        let ns = per_op_ns(1000, || {
            let key = mtx.lock(Duration::from_secs(5)).expect("contended lock");
            mtx.unlock(&key).expect("unlock");
        });
        stop.store(true, Ordering::Relaxed);
        peer.join().expect("peer node exits cleanly");
        ns
    });
    report.layer("mrapi.mutex_contended_ns", v, "ns");

    let mut key = 0x100u32;
    let v = spans.span("layer.mrapi.shmem_create", 0, 0, |_| {
        per_op_ns(20, || {
            key += 1;
            let seg = node
                .shmem_create(key, 4096, &ShmemAttributes::default())
                .expect("shmem_create");
            seg.delete().expect("shmem delete");
        })
    });
    report.layer("mrapi.shmem_create_us", v / 1e3, "us");

    let mut next = 10u32;
    let v = spans.span("layer.mrapi.node_spawn", 0, 0, |_| {
        per_op_ns(10, || {
            next += 1;
            let w = node
                .thread_create(NodeId(next), |_| 1u64)
                .expect("thread_create");
            std::hint::black_box(w.join().expect("node joins"));
        })
    });
    report.layer("mrapi.node_spawn_us", v / 1e3, "us");
}

/// MCAPI, MTAPI and file-backed rmem: the layers only the cluster's
/// router-to-worker path crosses.
pub fn cluster_path(report: &mut Report, spans: &Spans, dir: &Path) {
    std::fs::create_dir_all(dir).expect("scratch directory for sockets and rmem files");

    let sys = MrapiSystem::new_t4240();
    let node = sys.initialize(DomainId(4), NodeId(0)).expect("mrapi node");
    let path = dir.join(format!("rmem-{}.bin", std::process::id()));
    let rmem = node
        .rmem_create_file(1, &path, 4096, &RmemAttributes::default())
        .expect("rmem_create_file");
    let payload = [7u8; 64];
    let mut back = [0u8; 64];
    let v = spans.span("layer.mrapi.rmem_rw", 0, 0, |_| {
        per_op_ns(1000, || {
            rmem.write(64, &payload).expect("rmem write");
            rmem.read(64, &mut back).expect("rmem read");
        })
    });
    rmem.delete().expect("rmem delete");
    let _ = std::fs::remove_file(&path);
    report.layer("mrapi.rmem_rw_ns", v, "ns");

    // Packet round trip over the Unix-socket wire channel the router uses.
    let sock = dir.join(format!("pkt-{}.sock", std::process::id()));
    let listener = WireListener::bind(&sock).expect("bind wire socket");
    let echo = {
        let sock = sock.clone();
        std::thread::spawn(move || {
            let chan =
                WireChan::connect(&sock, Duration::from_secs(5)).expect("connect wire socket");
            while let Ok(pkt) = chan.recv() {
                if pkt.is_empty() || chan.send(&pkt).is_err() {
                    break;
                }
            }
        })
    };
    let chan = listener
        .accept(Duration::from_secs(5))
        .expect("accept wire peer");
    let v = spans.span("layer.mcapi.pkt_rtt", 0, 0, |_| {
        per_op_ns(100, || {
            chan.send(&payload).expect("pkt send");
            chan.recv().expect("pkt echo");
        })
    });
    chan.send(&[]).expect("pkt stop");
    echo.join().expect("echo thread exits cleanly");
    let _ = std::fs::remove_file(&sock);
    report.layer("mcapi.pkt_rtt_us", v / 1e3, "us");

    // Connectionless message round trip between two in-process nodes.
    let dom = McapiDomain::new(5);
    let a = dom.initialize(0).expect("mcapi node a");
    let b = dom.initialize(1).expect("mcapi node b");
    let ea = a.create_endpoint(1).expect("endpoint a");
    let eb = b.create_endpoint(1).expect("endpoint b");
    let echo = std::thread::spawn(move || loop {
        let (data, _) = eb.msg_recv().expect("msg recv");
        if data.is_empty() {
            break;
        }
        eb.msg_send(EndpointAddr { node: 0, port: 1 }, &data, 0)
            .expect("msg echo");
    });
    let to_b = EndpointAddr { node: 1, port: 1 };
    let v = spans.span("layer.mcapi.msg_rtt", 0, 0, |_| {
        per_op_ns(100, || {
            ea.msg_send(to_b, &payload, 0).expect("msg send");
            ea.msg_recv().expect("msg reply");
        })
    });
    ea.msg_send(to_b, &[], 0).expect("msg stop");
    echo.join().expect("echo thread exits cleanly");
    report.layer("mcapi.msg_rtt_us", v / 1e3, "us");

    let mt = Mtapi::initialize(6, 0, crate::TEAM).expect("mtapi");
    mt.create_action(1, |input| input.to_vec())
        .expect("mtapi action");
    let job = mt.job(1).expect("mtapi job");
    let v = spans.span("layer.mtapi.task", 0, 0, |_| {
        per_op_ns(100, || {
            let t = job.start(payload.to_vec()).expect("task start");
            t.wait(None).expect("task result");
        })
    });
    report.layer("mtapi.task_us", v / 1e3, "us");
}

/// The serve request path's in-process pieces: wire codec and job queue.
pub fn serve_path(report: &mut Report, spans: &Spans) {
    let spec = JobSpec::Epcc {
        construct: Construct::Critical,
        threads: 1,
        inner_reps: 1,
    };
    let submit = Request::Submit {
        spec,
        deadline_ms: 20,
        idem_key: 0,
        affinity: 0,
        priority: 1,
    };
    let result = Response::JobResult {
        job: 42,
        ok: true,
        wall_us: 17,
        detail: "critical x1 on 1 thread".into(),
    };
    // `encode` yields a whole frame; `decode` takes the body after the
    // 4-byte length prefix.
    let v = spans.span("layer.serve.codec", 0, 0, |_| {
        per_op_ns(1000, || {
            let r = Request::decode(&std::hint::black_box(submit.encode())[4..])
                .expect("submit round-trips");
            let s = Response::decode(&std::hint::black_box(result.encode())[4..])
                .expect("result round-trips");
            std::hint::black_box((r, s));
        })
    });
    report.layer("serve.codec_ns", v, "ns");

    let q = JobQueue::new(64);
    let token = CancelToken::new();
    let mut id = 0u64;
    let v = spans.span("layer.serve.queue", 0, 0, |_| {
        per_op_ns(1000, || {
            id += 1;
            q.try_push(QueuedJob {
                id,
                spec,
                enqueued_ns: id,
                cancel: token.clone(),
                deadline_ns: Some(id + 1_000_000),
                affinity: 0,
                priority: 1,
            })
            .expect("queue has room");
            std::hint::black_box(q.try_pop().expect("job queued"));
        })
    });
    report.layer("serve.queue_ns", v, "ns");
}
