//! Integration suite for the work-stealing pool: steal correctness,
//! panic poisoning, and `install` nesting, exercised through the public
//! surface. Runs in its own process, so the global pool starts cold.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use mine_pool::{current_num_threads, install, map_slice, stats};

/// The tests share one process-wide pool and its counters, and the test
/// harness runs them on parallel threads. Each holds this lock so that
/// a counter delta measured in one test is not another test's work.
fn exclusive_pool() -> MutexGuard<'static, ()> {
    static POOL: Mutex<()> = Mutex::new(());
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Burn a little CPU so chunks are long enough to be stolen.
fn spin_work(x: u64) -> u64 {
    let mut acc = x;
    for i in 0..2_000u64 {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
    }
    acc
}

#[test]
fn stolen_work_produces_sequential_output() {
    let _pool = exclusive_pool();
    let items: Vec<u64> = (0..4_096).collect();
    let expected: Vec<u64> = items.iter().map(|&x| spin_work(x)).collect();
    // Skewed costs: early items are much heavier, so the creator's
    // chunks outlive the helpers' and stealing has to rebalance.
    for _ in 0..5 {
        let out = install(8, || {
            map_slice(&items, |&x| {
                if x < 64 {
                    for _ in 0..20 {
                        std::hint::black_box(spin_work(x));
                    }
                }
                spin_work(x)
            })
        });
        assert_eq!(out, expected);
    }
    let stats = stats();
    assert!(stats.workers >= 1, "parallel maps spawned workers");
    assert!(
        stats.executed_total() > 0,
        "workers executed chunks: {stats:?}"
    );
}

#[test]
fn every_index_is_executed_exactly_once() {
    let _pool = exclusive_pool();
    let hits: Vec<AtomicUsize> = (0..10_000).map(|_| AtomicUsize::new(0)).collect();
    let items: Vec<usize> = (0..hits.len()).collect();
    let out = install(8, || {
        map_slice(&items, |&i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            i * 2
        })
    });
    assert_eq!(out, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    for (i, hit) in hits.iter().enumerate() {
        assert_eq!(hit.load(Ordering::Relaxed), 1, "index {i} ran once");
    }
}

#[test]
fn panicking_task_poisons_the_op_not_the_pool() {
    let _pool = exclusive_pool();
    let items: Vec<u32> = (0..1_000).collect();
    let result = catch_unwind(AssertUnwindSafe(|| {
        install(4, || {
            map_slice(&items, |&x| {
                assert!(x != 500, "boom at {x}");
                x
            })
        })
    }));
    let payload = result.expect_err("the map must rethrow the task panic");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(message.contains("boom at 500"), "payload: {message:?}");

    // The workers caught the panic and went back to the queues: the
    // pool keeps serving operations afterward.
    for round in 0..3 {
        let out = install(4, || map_slice(&items, |&x| u64::from(x) + round));
        assert_eq!(
            out,
            items
                .iter()
                .map(|&x| u64::from(x) + round)
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn nested_installs_and_maps_compose() {
    let _pool = exclusive_pool();
    let outer: Vec<u64> = (0..16).collect();
    let inner: Vec<u64> = (0..64).collect();
    let out = install(4, || {
        map_slice(&outer, |&o| {
            // The nested map inherits the enclosing budget and feeds
            // the same run queue — the old code needed an install(1)
            // here to avoid spawning a pool per item.
            assert_eq!(current_num_threads(), 4);
            map_slice(&inner, |&i| spin_work(o * 1_000 + i))
                .into_iter()
                .fold(0u64, u64::wrapping_add)
        })
    });
    let expected: Vec<u64> = outer
        .iter()
        .map(|&o| {
            inner
                .iter()
                .map(|&i| spin_work(o * 1_000 + i))
                .fold(0u64, u64::wrapping_add)
        })
        .collect();
    assert_eq!(out, expected);

    // An explicit nested install shadows the outer budget.
    let shadowed = install(4, || install(2, current_num_threads));
    assert_eq!(shadowed, 2);
}

#[test]
fn install_one_stays_inline_and_spawns_nothing_extra() {
    let _pool = exclusive_pool();
    let before = stats().ops;
    let items: Vec<u32> = (0..100).collect();
    let out = install(1, || map_slice(&items, |&x| x + 1));
    assert_eq!(out, (1..=100).collect::<Vec<_>>());
    assert_eq!(stats().ops, before, "budget 1 never dispatches to the pool");
}
