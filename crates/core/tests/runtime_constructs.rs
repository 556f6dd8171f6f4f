//! Construct-matrix integration tests: every OpenMP construct, on both
//! backends (native = stock libGOMP analogue, mca = the paper's
//! MCA-libGOMP).  This is the same discipline as the paper's §6A validation
//! step, applied at the runtime's own API level.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use romp::{BackendKind, BarrierKind, CancelToken, Config, ReduceOp, RompError, Runtime, Schedule};

fn runtimes() -> Vec<Runtime> {
    BackendKind::all()
        .iter()
        .map(|&k| Runtime::with_backend(k).unwrap())
        .collect()
}

#[test]
fn parallel_runs_requested_team() {
    for rt in runtimes() {
        let seen = AtomicU64::new(0);
        rt.parallel(6, |w| {
            assert_eq!(w.num_threads(), 6);
            assert!(w.thread_num() < 6);
            seen.fetch_add(1 << w.thread_num(), Ordering::Relaxed);
        });
        assert_eq!(
            seen.load(Ordering::Relaxed),
            0b111111,
            "{:?}",
            rt.backend_kind()
        );
    }
}

#[test]
fn parallel_zero_uses_default_size() {
    for rt in runtimes() {
        let n = AtomicUsize::new(0);
        rt.parallel(0, |w| {
            if w.is_master() {
                n.store(w.num_threads(), Ordering::Relaxed);
            }
        });
        assert_eq!(n.load(Ordering::Relaxed), rt.max_threads());
    }
}

#[test]
fn mca_default_team_comes_from_metadata_tree() {
    // §5B.4: the MCA backend discovers 24 processors on the modeled T4240.
    let rt = Runtime::with_backend(BackendKind::Mca).unwrap();
    assert_eq!(rt.max_threads(), 24);
}

#[test]
fn regions_reuse_the_pool() {
    for rt in runtimes() {
        for _ in 0..50 {
            let count = AtomicUsize::new(0);
            rt.parallel(4, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 4);
        }
        assert_eq!(rt.stats().regions, 50);
    }
}

#[test]
fn every_schedule_covers_every_iteration_exactly_once() {
    let schedules = [
        Schedule::Static { chunk: None },
        Schedule::Static { chunk: Some(3) },
        Schedule::Dynamic { chunk: 1 },
        Schedule::Dynamic { chunk: 7 },
        Schedule::Guided { chunk: 2 },
        Schedule::Auto,
        Schedule::Runtime,
    ];
    for rt in runtimes() {
        for sched in schedules {
            let n = 1000u64;
            let marks: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            rt.parallel(5, |w| {
                w.for_range(0..n, sched, |i| {
                    marks[i as usize].fetch_add(1, Ordering::Relaxed);
                });
            });
            for (i, m) in marks.iter().enumerate() {
                assert_eq!(
                    m.load(Ordering::Relaxed),
                    1,
                    "iter {i} under {sched:?} on {:?}",
                    rt.backend_kind()
                );
            }
        }
    }
}

#[test]
fn consecutive_nowait_loops_do_not_interfere() {
    for rt in runtimes() {
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        rt.parallel(4, |w| {
            w.for_range_nowait(0..100, Schedule::Dynamic { chunk: 3 }, |_| {
                a.fetch_add(1, Ordering::Relaxed);
            });
            w.for_range_nowait(0..50, Schedule::Guided { chunk: 1 }, |_| {
                b.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(a.load(Ordering::Relaxed), 100);
        assert_eq!(b.load(Ordering::Relaxed), 50);
    }
}

#[test]
fn barrier_orders_phases() {
    for rt in runtimes() {
        let phase1 = AtomicUsize::new(0);
        let ok = AtomicUsize::new(0);
        rt.parallel(8, |w| {
            phase1.fetch_add(1, Ordering::SeqCst);
            w.barrier();
            if phase1.load(Ordering::SeqCst) == 8 {
                ok.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(ok.load(Ordering::SeqCst), 8, "{:?}", rt.backend_kind());
    }
}

#[test]
fn single_runs_exactly_once_per_encounter() {
    for rt in runtimes() {
        let runs = AtomicUsize::new(0);
        rt.parallel(6, |w| {
            for _ in 0..10 {
                w.single(|| {
                    runs.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(runs.load(Ordering::Relaxed), 10);
        assert_eq!(rt.stats().singles, 10);
    }
}

#[test]
fn single_copy_broadcasts_value() {
    for rt in runtimes() {
        let sum = AtomicU64::new(0);
        rt.parallel(5, |w| {
            let v: u64 = w.single_copy(|| 41 + 1);
            sum.fetch_add(v, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 42 * 5);
    }
}

#[test]
fn master_runs_only_on_thread_zero() {
    for rt in runtimes() {
        let who = AtomicUsize::new(usize::MAX);
        let count = AtomicUsize::new(0);
        rt.parallel(4, |w| {
            w.master(|| {
                who.store(w.thread_num(), Ordering::Relaxed);
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(who.load(Ordering::Relaxed), 0);
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }
}

#[test]
fn sections_each_run_once() {
    for rt in runtimes() {
        let marks: Vec<AtomicUsize> = (0..7).map(|_| AtomicUsize::new(0)).collect();
        rt.parallel(3, |w| {
            w.sections(7, |i| {
                marks[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(marks.iter().all(|m| m.load(Ordering::Relaxed) == 1));
    }
}

#[test]
fn critical_provides_mutual_exclusion() {
    for rt in runtimes() {
        let value = AtomicU64::new(0);
        rt.parallel(8, |w| {
            for _ in 0..200 {
                w.critical("counter", || {
                    // Non-atomic RMW; only the critical section makes it safe.
                    let v = value.load(Ordering::Relaxed);
                    value.store(v + 1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(
            value.load(Ordering::Relaxed),
            1600,
            "{:?}",
            rt.backend_kind()
        );
        assert_eq!(rt.stats().criticals, 1600);
    }
}

#[test]
fn differently_named_criticals_are_independent() {
    for rt in runtimes() {
        let in_a = AtomicUsize::new(0);
        rt.parallel(2, |w| {
            if w.thread_num() == 0 {
                w.critical("a", || {
                    in_a.store(1, Ordering::SeqCst);
                    // Give the other thread time to take "b" concurrently.
                    let t0 = std::time::Instant::now();
                    while in_a.load(Ordering::SeqCst) != 2
                        && t0.elapsed() < std::time::Duration::from_secs(2)
                    {
                        std::thread::yield_now();
                    }
                });
            } else {
                while in_a.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
                w.critical("b", || {
                    in_a.store(2, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(
            in_a.load(Ordering::SeqCst),
            2,
            "named criticals must not alias"
        );
    }
}

#[test]
fn reductions_match_serial_folds() {
    for rt in runtimes() {
        // f64 sum
        let s = rt.parallel_reduce_sum_f64(6, 0..1_000, |i| i as f64);
        assert!((s - 499_500.0).abs() < 1e-9);
        // u64 min/max/prod via the worker API
        let out = std::sync::Mutex::new((0u64, 0u64, 0u64));
        rt.parallel(4, |w| {
            let tid = w.thread_num() as u64;
            let mn = w.reduce_u64(tid + 10, ReduceOp::Min);
            let mx = w.reduce_u64(tid + 10, ReduceOp::Max);
            let pr = w.reduce_u64(tid + 1, ReduceOp::Prod);
            if w.is_master() {
                *out.lock().unwrap() = (mn, mx, pr);
            }
        });
        let (mn, mx, pr) = *out.lock().unwrap();
        assert_eq!(mn, 10);
        assert_eq!(mx, 13);
        assert_eq!(pr, 24);
    }
}

#[test]
fn generic_reduction_combines_all_contributions() {
    for rt in runtimes() {
        let result = std::sync::Mutex::new(Vec::new());
        rt.parallel(5, |w| {
            let v = w.reduce_with(vec![w.thread_num()], |mut a, b| {
                a.extend(b);
                a
            });
            if w.is_master() {
                let mut v = v;
                v.sort_unstable();
                *result.lock().unwrap() = v;
            }
        });
        assert_eq!(*result.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }
}

#[test]
fn back_to_back_reductions_are_isolated() {
    for rt in runtimes() {
        let out = std::sync::Mutex::new((0.0f64, 0.0f64));
        rt.parallel(6, |w| {
            let a = w.reduce_f64(1.0, ReduceOp::Sum);
            let b = w.reduce_f64(2.0, ReduceOp::Sum);
            if w.is_master() {
                *out.lock().unwrap() = (a, b);
            }
        });
        let (a, b) = *out.lock().unwrap();
        assert_eq!(a, 6.0);
        assert_eq!(b, 12.0);
    }
}

#[test]
fn ordered_loop_runs_ordered_blocks_in_sequence() {
    for rt in runtimes() {
        let log = std::sync::Mutex::new(Vec::new());
        rt.parallel(4, |w| {
            w.for_range_ordered(0..64, Schedule::Dynamic { chunk: 3 }, |i| {
                // Unordered part may run in any order; ordered part must be
                // strictly ascending.
                w.ordered(i, || {
                    log.lock().unwrap().push(i);
                });
            });
        });
        let log = log.into_inner().unwrap();
        assert_eq!(
            log,
            (0..64).collect::<Vec<u64>>(),
            "{:?}",
            rt.backend_kind()
        );
    }
}

#[test]
fn tasks_complete_by_taskwait_and_barrier() {
    for rt in runtimes() {
        let done = Arc::new(AtomicUsize::new(0));
        rt.parallel(4, |w| {
            if w.thread_num() == 1 {
                for _ in 0..20 {
                    let d = Arc::clone(&done);
                    w.task(move || {
                        d.fetch_add(1, Ordering::Relaxed);
                    });
                }
                w.taskwait();
                assert_eq!(done.load(Ordering::Relaxed), 20);
            }
            w.barrier();
            assert_eq!(done.load(Ordering::Relaxed), 20);
        });
        assert_eq!(rt.stats().tasks, 20);
    }
}

#[test]
fn tasks_spawned_by_tasks_finish_before_region_end() {
    for rt in runtimes() {
        let done = Arc::new(AtomicUsize::new(0));
        let d_out = Arc::clone(&done);
        rt.parallel(3, move |w| {
            if w.is_master() {
                let d1 = Arc::clone(&d_out);
                let team_spawner = {
                    let d2 = Arc::clone(&d_out);
                    move || {
                        d2.fetch_add(1, Ordering::Relaxed);
                    }
                };
                w.task(move || {
                    d1.fetch_add(1, Ordering::Relaxed);
                });
                w.task(team_spawner);
            }
        });
        assert_eq!(
            done.load(Ordering::Relaxed),
            2,
            "implicit barrier completes tasks"
        );
    }
}

#[test]
fn nested_parallel_serializes() {
    for rt in runtimes() {
        let inner_sizes = std::sync::Mutex::new(Vec::new());
        let rt2 = rt.clone();
        rt.parallel(3, |w| {
            let _ = w;
            rt2.parallel(4, |iw| {
                inner_sizes.lock().unwrap().push(iw.num_threads());
            });
        });
        let sizes = inner_sizes.into_inner().unwrap();
        assert_eq!(sizes.len(), 3, "each member ran the nested region");
        assert!(
            sizes.iter().all(|&s| s == 1),
            "nested teams serialize to size 1"
        );
    }
}

#[test]
fn worker_panic_propagates_to_caller() {
    for rt in runtimes() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.parallel(4, |w| {
                if w.thread_num() == 2 {
                    panic!("worker exploded");
                }
            });
        }));
        assert!(result.is_err(), "{:?}", rt.backend_kind());
        // The runtime survives the panic and can run another region.
        let n = AtomicUsize::new(0);
        rt.parallel(4, |_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 4);
    }
}

#[test]
fn tree_barrier_configuration_works_end_to_end() {
    for kind in BackendKind::all() {
        let rt = Runtime::with_config(
            Config::default()
                .with_backend(kind)
                .with_barrier(BarrierKind::Tree { arity: 2 }),
        )
        .unwrap();
        let sum = rt.parallel_reduce_sum(9, 0..10_000u64, |i| i);
        assert_eq!(sum, 49_995_000);
    }
}

#[test]
fn profiling_captures_worker_cpu_time() {
    for rt in runtimes() {
        rt.set_profiling(true);
        rt.reset_profile();
        rt.parallel(3, |w| {
            // Burn measurable CPU on every worker.
            let mut x = w.thread_num() as u64;
            for i in 0..2_000_000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(x);
            w.barrier();
        });
        let prof = rt.take_profile();
        assert_eq!(prof.num_workers(), 3);
        assert!(
            prof.worker_cpu_ns.iter().all(|&ns| ns > 0),
            "every worker should have accrued CPU time: {:?}",
            prof.worker_cpu_ns
        );
        assert!(prof.barriers >= 2, "explicit + implicit barrier recorded");
        rt.set_profiling(false);
    }
}

#[test]
fn stats_track_constructs() {
    for rt in runtimes() {
        rt.reset_stats();
        rt.parallel(2, |w| {
            w.for_range(0..10, Schedule::Static { chunk: None }, |_| {});
            w.single(|| {});
            w.barrier();
        });
        let s = rt.stats();
        assert_eq!(s.regions, 1);
        assert_eq!(s.loops, 1);
        assert_eq!(s.singles, 1);
        // for_range's implicit + single's implicit + explicit + region end.
        assert_eq!(s.barriers, 4);
    }
}

#[test]
fn omp_in_parallel_reflects_context() {
    let rt = Runtime::with_backend(BackendKind::Native).unwrap();
    assert!(!Runtime::in_parallel());
    let seen = AtomicUsize::new(0);
    rt.parallel(2, |_| {
        if Runtime::in_parallel() {
            seen.fetch_add(1, Ordering::Relaxed);
        }
    });
    // Only the master thread's flag is thread-local-visible here; workers
    // run `run_region_member` without the flag, so they are allowed to
    // launch their own (serialized) nested regions. The master must see it.
    assert!(seen.load(Ordering::Relaxed) >= 1);
    assert!(!Runtime::in_parallel());
}

#[test]
fn parallel_map_collects_by_thread() {
    for rt in runtimes() {
        let v = rt.parallel_map(5, |w| w.thread_num() * 10);
        assert_eq!(v, vec![0, 10, 20, 30, 40]);
    }
}

/// One counter per encounter index.
fn counters(n: usize) -> Vec<AtomicUsize> {
    (0..n).map(|_| AtomicUsize::new(0)).collect()
}

#[test]
fn single_nowait_chain_far_past_the_ring_has_one_winner_per_encounter() {
    // 10 000 encounters: far more than the 64-slot construct ring, with no
    // barrier to keep the members in step.
    const CHAIN: usize = 10_000;
    for rt in runtimes() {
        let wins = counters(CHAIN);
        rt.reset_stats();
        rt.parallel(4, |w| {
            for (i, win) in wins.iter().enumerate() {
                w.single_nowait(|| win.fetch_add(1, Ordering::Relaxed));
                // Vary who arrives first.
                if (i + w.thread_num()) % 97 == 0 {
                    std::thread::yield_now();
                }
            }
        });
        let kind = rt.backend_kind();
        for (i, win) in wins.iter().enumerate() {
            assert_eq!(win.load(Ordering::Relaxed), 1, "{kind:?}: encounter {i}");
        }
        assert_eq!(rt.stats().singles, CHAIN as u64, "{kind:?}");
    }
}

#[test]
fn singles_interleave_with_ring_constructs() {
    const ROUNDS: usize = 50;
    const ITERS: u64 = 97;
    const SECTIONS: usize = 5;
    for rt in runtimes() {
        let singles = counters(ROUNDS);
        let nowaits = counters(ROUNDS);
        let iters = counters(ROUNDS * ITERS as usize);
        let sections = counters(ROUNDS * SECTIONS);
        let copied = AtomicU64::new(0);
        rt.reset_stats();
        rt.parallel(4, |w| {
            for r in 0..ROUNDS {
                w.single_nowait(|| nowaits[r].fetch_add(1, Ordering::Relaxed));
                let v: u64 = w.single_copy(|| r as u64 + 1);
                copied.fetch_add(v, Ordering::Relaxed);
                w.for_range(0..ITERS, Schedule::Dynamic { chunk: 3 }, |i| {
                    iters[r * ITERS as usize + i as usize].fetch_add(1, Ordering::Relaxed);
                });
                w.single(|| singles[r].fetch_add(1, Ordering::Relaxed));
                w.sections(SECTIONS, |s| {
                    sections[r * SECTIONS + s].fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        let kind = rt.backend_kind();
        for c in [&singles, &nowaits, &iters, &sections] {
            assert!(
                c.iter().all(|x| x.load(Ordering::Relaxed) == 1),
                "{kind:?}: a construct ran other than once"
            );
        }
        let per_member: u64 = (1..=ROUNDS as u64).sum();
        assert_eq!(copied.load(Ordering::Relaxed), 4 * per_member, "{kind:?}");
        // single, single nowait and single copyprivate each count once.
        assert_eq!(rt.stats().singles, 3 * ROUNDS as u64, "{kind:?}");
    }
}

#[test]
fn region_after_a_cancelled_single_chain_still_runs_each_single_once() {
    const CHAIN: usize = 1_000;
    const CANCEL_AT: usize = 300;
    for rt in runtimes() {
        let kind = rt.backend_kind();
        let token = CancelToken::new();
        rt.set_cancel_token(Some(token.clone()));
        let wins = counters(CHAIN);
        let err = rt.try_parallel(4, |w| {
            for (i, win) in wins.iter().enumerate() {
                w.single_nowait(|| {
                    win.fetch_add(1, Ordering::Relaxed);
                    if i == CANCEL_AT {
                        token.cancel();
                    }
                });
                // The barrier is the chain's cancellation point.
                if i % 64 == 63 {
                    w.barrier();
                }
            }
        });
        assert!(
            matches!(err, Err(RompError::Cancelled)),
            "{kind:?}: {err:?}"
        );
        assert!(
            wins.iter().all(|x| x.load(Ordering::Relaxed) <= 1),
            "{kind:?}"
        );
        assert_eq!(wins[CANCEL_AT].load(Ordering::Relaxed), 1, "{kind:?}");
        assert_eq!(wins[CHAIN - 1].load(Ordering::Relaxed), 0, "{kind:?}");
        rt.set_cancel_token(None);

        let wins = counters(CHAIN);
        rt.reset_stats();
        rt.parallel(4, |w| {
            for win in &wins {
                w.single_nowait(|| win.fetch_add(1, Ordering::Relaxed));
            }
        });
        for (i, win) in wins.iter().enumerate() {
            assert_eq!(win.load(Ordering::Relaxed), 1, "{kind:?}: encounter {i}");
        }
        assert_eq!(rt.stats().singles, CHAIN as u64, "{kind:?}");
    }
}

#[test]
fn criticals_beyond_the_published_table_stay_exclusive_and_independent() {
    // Far more names than the published name→lock table holds, so most
    // of them take the table path on every call.
    const NAMES: usize = 200;
    const ROUNDS: usize = 3;
    let names: Vec<String> = (0..NAMES).map(|i| format!("critical-{i}")).collect();
    for rt in runtimes() {
        let kind = rt.backend_kind();
        let values: Vec<AtomicU64> = (0..NAMES).map(|_| AtomicU64::new(0)).collect();
        rt.reset_stats();
        rt.parallel(4, |w| {
            for _ in 0..ROUNDS {
                for k in 0..NAMES {
                    // Members walk the names from different offsets.
                    let i = (k + w.thread_num() * NAMES / 4) % NAMES;
                    w.critical(&names[i], || {
                        // Non-atomic RMW; only the critical makes it safe.
                        let v = values[i].load(Ordering::Relaxed);
                        std::hint::spin_loop();
                        values[i].store(v + 1, Ordering::Relaxed);
                    });
                }
            }
        });
        for (i, v) in values.iter().enumerate() {
            assert_eq!(
                v.load(Ordering::Relaxed),
                4 * ROUNDS as u64,
                "{kind:?}: {i}"
            );
        }
        assert_eq!(
            rt.stats().criticals,
            (4 * ROUNDS * NAMES) as u64,
            "{kind:?}"
        );

        // Independence: while member 0 holds name r, the other members
        // each get through a different name.  Aliased locks would block
        // them until member 0 gave up waiting.
        let holding = AtomicUsize::new(0);
        let entered = AtomicUsize::new(0);
        let aliased = AtomicUsize::new(0);
        rt.parallel(4, |w| {
            for r in 0..NAMES {
                if w.thread_num() == 0 {
                    w.critical(&names[r], || {
                        holding.store(r + 1, Ordering::Release);
                        let t0 = Instant::now();
                        while entered.load(Ordering::Acquire) < 3 * (r + 1) {
                            if t0.elapsed() > Duration::from_secs(5) {
                                aliased.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            std::thread::yield_now();
                        }
                    });
                } else {
                    while holding.load(Ordering::Acquire) != r + 1 {
                        std::thread::yield_now();
                    }
                    w.critical(&names[(r + w.thread_num()) % NAMES], || {
                        entered.fetch_add(1, Ordering::AcqRel);
                    });
                }
                w.barrier();
            }
        });
        assert_eq!(
            aliased.load(Ordering::Relaxed),
            0,
            "{kind:?}: names aliased"
        );
    }
}

#[test]
fn activity_advances_while_a_team_loops_on_criticals() {
    for rt in runtimes() {
        let kind = rt.backend_kind();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let observer = s.spawn(|| {
                // Samples that saw the signal advance; the team runs until
                // the observer is done either way.
                let mut advanced = 0;
                let mut last = rt.activity();
                let t0 = Instant::now();
                while advanced < 5 && t0.elapsed() < Duration::from_secs(10) {
                    std::thread::sleep(Duration::from_millis(1));
                    let now = rt.activity();
                    if now > last {
                        advanced += 1;
                        last = now;
                    }
                }
                stop.store(true, Ordering::Release);
                advanced
            });
            // Criticals only: no barrier or loop bumps the signal.
            rt.parallel(4, |w| {
                while !stop.load(Ordering::Acquire) {
                    w.critical("tick", || {});
                }
            });
            assert_eq!(observer.join().unwrap(), 5, "{kind:?}: activity went flat");
        });
    }
}
