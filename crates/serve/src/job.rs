//! Job specifications and their execution on the shared runtime.
//!
//! A *job* is one of the workloads the reproduction already knows how to
//! run — an EPCC construct exercise or an NPB kernel at a small class —
//! so the server doubles as a realistic mixed-workload driver: the same
//! kernels the paper measures, now arriving as concurrent requests.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use romp::{CancelToken, Runtime, Schedule, Worker};
use romp_epcc::{delay, Construct};
use romp_npb::{Class, NpbKernel};

use crate::lifecycle::terminal_for;

/// A supervision-diagnostic workload: misbehaves on purpose so the kill
/// paths (deadline, cancel, panic isolation, watchdog escalation) can be
/// exercised end-to-end against a live server.  Rejected at admission
/// unless [`JobLimits::allow_diag`] is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagSpec {
    /// Panic inside the parallel region — exercises the dispatcher's
    /// panic isolation.
    Panic,
    /// Spin for `ms` milliseconds crossing a barrier checkpoint each
    /// iteration — a long job that cancels promptly.
    Spin {
        /// How long to spin.
        ms: u32,
    },
    /// Loop through a named critical for `ms` milliseconds — the
    /// backend-lock path, which a persistent MRAPI fault can wedge (the
    /// watchdog-escalation scenario).
    CriticalLoop {
        /// How long to loop.
        ms: u32,
    },
}

/// What a client asks the server to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobSpec {
    /// One EPCC construct, exercised `inner_reps` times on a team of
    /// `threads` (the syncbench inner loop, without the measurement
    /// scaffolding).
    Epcc {
        /// Which construct to exercise.
        construct: Construct,
        /// Team size.
        threads: u8,
        /// Construct executions per job.
        inner_reps: u16,
    },
    /// One NPB kernel run, verification included.
    Npb {
        /// Which kernel.
        kernel: NpbKernel,
        /// Problem class (keep to S/W for serving; A is a batch job).
        class: Class,
        /// Team size.
        threads: u8,
    },
    /// A supervision diagnostic (see [`DiagSpec`]); admission-gated.
    Diag {
        /// Which misbehaviour.
        diag: DiagSpec,
        /// Team size.
        threads: u8,
    },
}

/// Admission limits a [`JobSpec`] must satisfy (checked server-side so a
/// hand-rolled client cannot request a 200-thread team or a day of work).
#[derive(Debug, Clone, Copy)]
pub struct JobLimits {
    /// Largest team a job may request.
    pub max_threads: u8,
    /// Largest EPCC `inner_reps`.
    pub max_inner_reps: u16,
    /// Largest NPB class admitted while serving.
    pub max_class: Class,
    /// Whether [`JobSpec::Diag`] workloads are admitted.  Off by default:
    /// they exist to exercise the supervision machinery in tests and soak
    /// runs, not for production clients.
    pub allow_diag: bool,
}

impl Default for JobLimits {
    fn default() -> Self {
        JobLimits {
            max_threads: 16,
            max_inner_reps: 4096,
            max_class: Class::W,
            allow_diag: false,
        }
    }
}

/// Longest diag spin/loop admitted (keeps a hostile client from parking a
/// dispatcher for minutes even when diagnostics are enabled).
const MAX_DIAG_MS: u32 = 120_000;

fn class_rank(c: Class) -> u8 {
    match c {
        Class::S => 0,
        Class::W => 1,
        Class::A => 2,
    }
}

impl JobSpec {
    /// Validate against the server's limits.
    pub fn validate(&self, limits: &JobLimits) -> Result<(), &'static str> {
        match *self {
            JobSpec::Epcc {
                threads,
                inner_reps,
                ..
            } => {
                if threads == 0 || threads > limits.max_threads {
                    return Err("threads out of range");
                }
                if inner_reps == 0 || inner_reps > limits.max_inner_reps {
                    return Err("inner_reps out of range");
                }
                Ok(())
            }
            JobSpec::Npb { class, threads, .. } => {
                if threads == 0 || threads > limits.max_threads {
                    return Err("threads out of range");
                }
                if class_rank(class) > class_rank(limits.max_class) {
                    return Err("class too large for serving");
                }
                Ok(())
            }
            JobSpec::Diag { diag, threads } => {
                if !limits.allow_diag {
                    return Err("diagnostic jobs not admitted");
                }
                if threads == 0 || threads > limits.max_threads {
                    return Err("threads out of range");
                }
                match diag {
                    DiagSpec::Panic => Ok(()),
                    DiagSpec::Spin { ms } | DiagSpec::CriticalLoop { ms } => {
                        if ms == 0 || ms > MAX_DIAG_MS {
                            return Err("diag duration out of range");
                        }
                        Ok(())
                    }
                }
            }
        }
    }

    /// Short label for stats (`epcc.barrier`, `npb.ep.w`, ...): the job's
    /// service-time class.
    pub fn label(&self) -> ClassLabel {
        use Class::{A, S, W};
        use NpbKernel::{Cg, Ep, Ft, Is, Mg};
        ClassLabel(match self {
            JobSpec::Epcc { construct, .. } => match construct {
                Construct::Parallel => "epcc.parallel",
                Construct::For => "epcc.for",
                Construct::ParallelFor => "epcc.parallel_for",
                Construct::Barrier => "epcc.barrier",
                Construct::Single => "epcc.single",
                Construct::Critical => "epcc.critical",
                Construct::Reduction => "epcc.reduction",
                Construct::Lock => "epcc.lock",
            },
            JobSpec::Npb { kernel, class, .. } => match (kernel, class) {
                (Ep, S) => "npb.ep.s",
                (Ep, W) => "npb.ep.w",
                (Ep, A) => "npb.ep.a",
                (Cg, S) => "npb.cg.s",
                (Cg, W) => "npb.cg.w",
                (Cg, A) => "npb.cg.a",
                (Is, S) => "npb.is.s",
                (Is, W) => "npb.is.w",
                (Is, A) => "npb.is.a",
                (Mg, S) => "npb.mg.s",
                (Mg, W) => "npb.mg.w",
                (Mg, A) => "npb.mg.a",
                (Ft, S) => "npb.ft.s",
                (Ft, W) => "npb.ft.w",
                (Ft, A) => "npb.ft.a",
            },
            JobSpec::Diag { diag, .. } => match diag {
                DiagSpec::Panic => "diag.panic",
                DiagSpec::Spin { .. } => "diag.spin",
                DiagSpec::CriticalLoop { .. } => "diag.critical_loop",
            },
        })
    }
}

/// A job's service-time class name, as [`JobSpec::label`] gives it.  Every
/// class comes from a finite construct × kernel × class × diag set, so the
/// name is static: admission and completion name a job's class without
/// building a string.  Derefs to `str`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassLabel(&'static str);

impl std::ops::Deref for ClassLabel {
    type Target = str;
    fn deref(&self) -> &str {
        self.0
    }
}

impl PartialEq<&str> for ClassLabel {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

/// Where a submitted job is in its lifecycle.
///
/// Terminal states are `Done`, `Failed`, `Cancelled` and `TimedOut`; every
/// accepted job reaches exactly one of them (`Failed` also covers panics —
/// the payload message lands in the outcome detail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting in the queue.
    Queued,
    /// Executing on the shared runtime.
    Running,
    /// Finished with a passing verification.
    Done,
    /// Finished but verification failed, or the job panicked (result
    /// still fetchable).
    Failed,
    /// A cancel was requested while running; the region is unwinding to
    /// its next cooperative checkpoint.
    Cancelling,
    /// Terminal: the deadline fired and the job unwound.
    TimedOut,
    /// Terminal: a client cancel (or pre-run cancel) took effect.
    Cancelled,
}

impl JobState {
    /// Stable wire encoding (shared by the client protocol and the
    /// cluster's worker control protocol).
    pub fn to_u8(self) -> u8 {
        match self {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Done => 2,
            JobState::Failed => 3,
            JobState::Cancelling => 4,
            JobState::TimedOut => 5,
            JobState::Cancelled => 6,
        }
    }

    /// Decode the wire byte; `None` for values no state maps to.
    pub fn from_u8(v: u8) -> Option<JobState> {
        Some(match v {
            0 => JobState::Queued,
            1 => JobState::Running,
            2 => JobState::Done,
            3 => JobState::Failed,
            4 => JobState::Cancelling,
            5 => JobState::TimedOut,
            6 => JobState::Cancelled,
            _ => return None,
        })
    }

    /// Whether this state is final — the job will never change state
    /// again and its outcome (if any) is fetchable.
    pub fn terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled | JobState::TimedOut
        )
    }
}

/// A finished job's result.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Whether the workload's own verification passed.
    pub ok: bool,
    /// Execution wall time, microseconds (queue wait excluded).
    pub wall_us: u64,
    /// Kernel-specific summary.
    pub detail: String,
}

impl JobOutcome {
    /// The outcome of a job that did not run (to its end): not ok, no
    /// wall time.
    pub fn unrun(detail: &str) -> JobOutcome {
        JobOutcome {
            ok: false,
            wall_us: 0,
            detail: detail.into(),
        }
    }
}

/// Busy-work units inside each EPCC construct execution (the syncbench
/// `delaylength` analogue; fixed — serving measures the service, not the
/// construct, so no calibration loop per job).
const EPCC_DELAY: u64 = 32;

/// Execute `spec` on the shared runtime.
///
/// Never panics and never aborts the service: the runtime's own fault
/// model applies (persistent MCA trouble degrades the backend under this
/// job, which then completes on the fallback), and a kernel whose
/// verification fails reports `ok = false` rather than erroring.
pub fn execute(rt: &Runtime, spec: &JobSpec) -> JobOutcome {
    let t0 = Instant::now();
    match *spec {
        JobSpec::Epcc {
            construct,
            threads,
            inner_reps,
        } => {
            let n = threads as usize;
            let inner = inner_reps as u64;
            run_epcc(rt, construct, n, inner);
            JobOutcome {
                ok: true,
                wall_us: t0.elapsed().as_micros() as u64,
                detail: format!("{} x{inner} on {n} threads", construct.label()),
            }
        }
        JobSpec::Npb {
            kernel,
            class,
            threads,
        } => {
            let res = kernel.run(rt, threads as usize, class);
            JobOutcome {
                ok: res.verified(),
                wall_us: t0.elapsed().as_micros() as u64,
                detail: format!(
                    "{}.{} mops={:.2} {:?}",
                    res.name,
                    class.label(),
                    res.mops,
                    res.verification
                ),
            }
        }
        JobSpec::Diag { diag, threads } => {
            let n = threads as usize;
            run_diag(rt, diag, n);
            JobOutcome {
                ok: true,
                wall_us: t0.elapsed().as_micros() as u64,
                detail: format!("diag {diag:?} on {n} threads"),
            }
        }
    }
}

/// Run one supervised job on `rt` and decide its terminal state — the
/// one job runner behind both executors (the in-process dispatcher and
/// the cluster worker's MTAPI action).
///
/// Arms the runtime with the job's `cancel` token, and with its
/// `affinity` key when non-zero, so every region the job forks —
/// including ones nested inside kernels — checks the token and keeps its
/// tasks on the key's home shard.  A job whose token fired before it
/// started is not run.  A panicking kernel becomes a `Failed` job
/// carrying the panic message, never a dead executor: the pool has
/// already contained the unwind (each member runs under its own net),
/// and the runner quiesces it so trailing region epilogues finish before
/// the next job.  Otherwise a fired token outranks whatever
/// [`execute`] returned ([`terminal_for`]).
pub fn run_guarded(
    rt: &Runtime,
    spec: &JobSpec,
    cancel: &CancelToken,
    affinity: u64,
) -> (JobState, JobOutcome) {
    if let Some(reason) = cancel.reason() {
        return terminal_for(Some(reason), JobOutcome::unrun(""));
    }
    rt.set_cancel_token(Some(cancel.clone()));
    if affinity != 0 {
        rt.set_affinity(Some(affinity));
    }
    let t0 = Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(rt, spec)));
    let wall_us = t0.elapsed().as_micros() as u64;
    rt.set_affinity(None);
    rt.set_cancel_token(None);
    match result {
        Err(payload) => {
            rt.quiesce();
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                s
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.as_str()
            } else {
                "non-string panic payload"
            };
            let outcome = JobOutcome {
                ok: false,
                wall_us,
                detail: format!("panicked: {msg}"),
            };
            (JobState::Failed, outcome)
        }
        Ok(out) => terminal_for(cancel.reason(), out),
    }
}

/// The misbehaving diagnostic bodies.  Each keeps its loop *inside* a
/// single parallel region so a fired cancel token unwinds the whole job
/// at the next checkpoint (a loop of short regions would restart between
/// cancels).
fn run_diag(rt: &Runtime, diag: DiagSpec, n: usize) {
    match diag {
        // Every member panics (none left stranded at an explicit barrier
        // the panicker skipped); the first payload surfaces at the master.
        DiagSpec::Panic => rt.parallel(n, |_| panic!("diag: deliberate panic")),
        DiagSpec::Spin { ms } => {
            let until = Instant::now() + Duration::from_millis(u64::from(ms));
            // Master decides when to stop and the decision crosses the
            // barrier with everyone, so all members run the same number of
            // barrier phases (per-member clock reads would desync them).
            // Members read the flag between two barriers: with one, the
            // master could store the next round's decision before a slow
            // member read this round's, and that member would leave one
            // phase early, pairing the region's closing barrier with the
            // master's explicit one — a region that never ends.
            let done = AtomicBool::new(false);
            rt.parallel(n, |w| loop {
                if w.is_master() && Instant::now() >= until {
                    done.store(true, Ordering::Release);
                }
                delay(EPCC_DELAY);
                w.barrier();
                let stop = done.load(Ordering::Acquire);
                w.barrier();
                if stop {
                    break;
                }
            });
        }
        DiagSpec::CriticalLoop { ms } => {
            let until = Instant::now() + Duration::from_millis(u64::from(ms));
            rt.parallel(n, move |w| {
                while Instant::now() < until {
                    w.critical("diag-critical", || delay(EPCC_DELAY));
                }
                w.barrier();
            });
        }
    }
}

/// The EPCC construct bodies, mirroring `romp_epcc::measure`'s inner
/// loops without the timing scaffolding.
fn run_epcc(rt: &Runtime, construct: Construct, n: usize, inner: u64) {
    let len = EPCC_DELAY;
    // Criticals/locks split the inner repetitions across the team the way
    // syncbench does.
    let share =
        |w: &Worker| inner / n as u64 + u64::from((w.thread_num() as u64) < inner % n as u64);
    match construct {
        Construct::Parallel => {
            for _ in 0..inner {
                rt.parallel(n, |_| delay(len));
            }
        }
        Construct::For => rt.parallel(n, |w| {
            for _ in 0..inner {
                w.for_range(0..n as u64, Schedule::Static { chunk: None }, |_| {
                    delay(len)
                });
            }
        }),
        Construct::ParallelFor => {
            for _ in 0..inner {
                rt.parallel_for(n, 0..n as u64, Schedule::Static { chunk: None }, |_| {
                    delay(len)
                });
            }
        }
        Construct::Barrier => rt.parallel(n, |w| {
            for _ in 0..inner {
                delay(len);
                w.barrier();
            }
        }),
        Construct::Single => rt.parallel(n, |w| {
            for _ in 0..inner {
                w.single(|| delay(len));
            }
        }),
        Construct::Critical => rt.parallel(n, |w| {
            for _ in 0..share(w) {
                w.critical("serve-epcc", || delay(len));
            }
        }),
        Construct::Lock => {
            let lock = rt.new_lock();
            rt.parallel(n, |w| {
                for _ in 0..share(w) {
                    lock.with(|| delay(len));
                }
            });
        }
        Construct::Reduction => {
            for _ in 0..inner {
                rt.parallel(n, |w| {
                    delay(len);
                    std::hint::black_box(w.reduce_u64(1, romp::ReduceOp::Sum));
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use romp::{BackendKind, Runtime};

    /// Every member of a team-2 `Spin` region leaves its loop in the same
    /// barrier phase, so each region ends: many short regions, each with
    /// one chance for a slow member to read the stop flag a phase late,
    /// under a timeout instead of a hang.
    #[test]
    fn short_team_spin_regions_always_end() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let rt = Runtime::with_config(romp::Config::default().with_num_threads(2)).unwrap();
            for _ in 0..400 {
                run_diag(&rt, DiagSpec::Spin { ms: 1 }, 2);
            }
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("a team-2 Spin region never ended");
    }

    #[test]
    fn limits_reject_out_of_range_specs() {
        let limits = JobLimits::default();
        let ok = JobSpec::Epcc {
            construct: Construct::Barrier,
            threads: 4,
            inner_reps: 8,
        };
        assert!(ok.validate(&limits).is_ok());
        let zero = JobSpec::Epcc {
            construct: Construct::Barrier,
            threads: 0,
            inner_reps: 8,
        };
        assert!(zero.validate(&limits).is_err());
        let wide = JobSpec::Npb {
            kernel: NpbKernel::Ep,
            class: Class::S,
            threads: 200,
        };
        assert!(wide.validate(&limits).is_err());
        let big = JobSpec::Npb {
            kernel: NpbKernel::Ep,
            class: Class::A,
            threads: 2,
        };
        assert!(big.validate(&limits).is_err(), "class A not served");
    }

    #[test]
    fn labels_are_stable() {
        let s = JobSpec::Epcc {
            construct: Construct::ParallelFor,
            threads: 2,
            inner_reps: 1,
        };
        assert_eq!(s.label(), "epcc.parallel_for");
        let n = JobSpec::Npb {
            kernel: NpbKernel::Cg,
            class: Class::S,
            threads: 2,
        };
        assert_eq!(n.label(), "npb.cg.s");
    }

    #[test]
    fn static_labels_follow_the_construct_and_kernel_names() {
        let constructs = [
            Construct::Parallel,
            Construct::For,
            Construct::ParallelFor,
            Construct::Barrier,
            Construct::Single,
            Construct::Critical,
            Construct::Reduction,
            Construct::Lock,
        ];
        for construct in constructs {
            let spec = JobSpec::Epcc {
                construct,
                threads: 1,
                inner_reps: 1,
            };
            let derived = format!(
                "epcc.{}",
                construct.label().to_ascii_lowercase().replace(' ', "_")
            );
            assert_eq!(&*spec.label(), derived);
        }
        for kernel in NpbKernel::all() {
            for class in [Class::S, Class::W, Class::A] {
                let spec = JobSpec::Npb {
                    kernel,
                    class,
                    threads: 1,
                };
                let derived = format!(
                    "npb.{}.{}",
                    kernel.name().to_ascii_lowercase(),
                    class.label().to_ascii_lowercase()
                );
                assert_eq!(&*spec.label(), derived);
            }
        }
    }

    #[test]
    fn every_epcc_construct_executes() {
        let rt = Runtime::with_backend(BackendKind::Native).unwrap();
        for c in [
            Construct::Parallel,
            Construct::For,
            Construct::ParallelFor,
            Construct::Barrier,
            Construct::Single,
            Construct::Critical,
            Construct::Reduction,
            Construct::Lock,
        ] {
            let out = execute(
                &rt,
                &JobSpec::Epcc {
                    construct: c,
                    threads: 2,
                    inner_reps: 4,
                },
            );
            assert!(out.ok, "{c:?}");
        }
    }

    #[test]
    fn npb_job_verifies() {
        let rt = Runtime::with_backend(BackendKind::Native).unwrap();
        let out = execute(
            &rt,
            &JobSpec::Npb {
                kernel: NpbKernel::Ep,
                class: Class::S,
                threads: 2,
            },
        );
        assert!(out.ok, "{}", out.detail);
        assert!(out.wall_us > 0);
    }
}
