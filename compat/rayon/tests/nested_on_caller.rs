//! Nesting on the calling thread: a parallel call made from the caller's
//! own chunk of an outer call must finish while the pool's workers are
//! busy with the outer call's other chunks. The caller drains every nested
//! chunk itself and withdraws the tasks nobody picked up.
//!
//! This file holds a single test, so its process starts exactly one pool
//! worker and the test can keep that worker busy for the whole nested
//! call.

use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Barrier, Mutex};
use std::time::Duration;

/// How long the worker waits for the caller before declaring the nested
/// call stuck. A nested call that waited on the busy worker would never
/// release it; the timeout turns that deadlock into a failure.
const STUCK: Duration = Duration::from_secs(60);

#[test]
fn nested_par_iter_mut_on_the_caller_never_waits_on_a_busy_worker() {
    let caller = std::thread::current().id();
    // Both outer items meet here, so the worker holds item 1 while the
    // caller runs item 0.
    let barrier = Barrier::new(2);
    let (release, released) = mpsc::channel::<()>();
    let released = Mutex::new(released);
    let nested = Mutex::new((0..64).collect::<Vec<u64>>());
    let ran_elsewhere = AtomicBool::new(false);
    ThreadPoolBuilder::new().num_threads(2).build().unwrap().install(|| {
        [0u8, 1].par_iter().for_each(|&item| {
            barrier.wait();
            if item == 1 {
                // The only worker: busy until the nested call has returned.
                released
                    .lock()
                    .unwrap()
                    .recv_timeout(STUCK)
                    .expect("nested call waited on a worker");
                return;
            }
            assert_eq!(std::thread::current().id(), caller, "chunk 0 runs on the caller");
            let mut v = nested.lock().unwrap();
            v.par_iter_mut().for_each(|x| {
                *x *= 3;
                if std::thread::current().id() != caller {
                    ran_elsewhere.store(true, Ordering::Relaxed);
                }
            });
            release.send(()).unwrap();
        });
    });
    assert_eq!(*nested.lock().unwrap(), (0..64).map(|i| i * 3).collect::<Vec<u64>>());
    assert!(!ran_elsewhere.load(Ordering::Relaxed), "the busy worker ran a nested chunk");
}
