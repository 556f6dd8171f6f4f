//! A run-length guard: if a run hangs (a wedged server, a lost reply), it
//! kills every child process it spawned and exits non-zero instead of
//! blocking forever.

use std::process::Command;
use std::sync::Mutex;
use std::time::Duration;

static CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Arm the guard: after `limit`, kill the registered children and exit 1.
/// The guard thread is never joined; it dies with the process.
pub fn start(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: run exceeded {limit:?}; killing children and exiting");
        for pid in CHILDREN.lock().map(|c| c.clone()).unwrap_or_default() {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
        std::process::exit(1);
    });
}

/// Register a child process to kill if the run hangs.
pub fn guard(pid: u32) {
    CHILDREN.lock().expect("watchdog list poisoned").push(pid);
}

/// Forget a child that has been reaped.
pub fn release(pid: u32) {
    CHILDREN
        .lock()
        .expect("watchdog list poisoned")
        .retain(|&p| p != pid);
}
