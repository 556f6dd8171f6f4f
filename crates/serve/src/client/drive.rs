//! The blocking driver: one thread and one TCP connection per
//! [`ClientProfile`], the socket's bytes fed to a [`ClientCore`], and a
//! readiness wait bounded by the core's next wake standing in for its
//! timers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use mca_sync::SmallRng;

use super::{ClientCmd, ClientCore, ClientProfile, Tally};
use crate::reactor::sys::wait_readable;

/// Run one client per profile against `addr`, concurrently, and fold
/// their tallies.  Client `i` draws from a generator seeded by `seed`
/// and `i`; a transport failure ends that client with a violation.
pub fn drive(addr: SocketAddr, profiles: Vec<ClientProfile>, seed: u64) -> Tally {
    let handles: Vec<_> = profiles
        .into_iter()
        .enumerate()
        .map(|(i, profile)| {
            let rng =
                SmallRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            std::thread::spawn(move || run(addr, ClientCore::new(i as u64, profile), rng))
        })
        .collect();
    let mut total = Tally::default();
    for h in handles {
        total.absorb(h.join().expect("client thread panicked"));
    }
    total
}

fn run(addr: SocketAddr, mut core: ClientCore, mut rng: SmallRng) -> Tally {
    if let Err(e) = converse(addr, &mut core, &mut rng) {
        core.tally
            .violations
            .push(format!("client {}: transport: {e}", core.id));
    }
    core.tally
}

fn converse(addr: SocketAddr, core: &mut ClientCore, rng: &mut SmallRng) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let epoch = Instant::now();
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut wakes = BinaryHeap::from([Reverse(0u64)]);
    let mut buf = vec![0u8; 64 * 1024];
    while !core.quiescent() {
        let t = now();
        let cmds = if wakes.peek().is_some_and(|w| w.0 <= t) {
            while wakes.peek().is_some_and(|w| w.0 <= t) {
                wakes.pop();
            }
            core.on_wake(t, rng)
        } else {
            let wait = wakes.peek().map(|w| Duration::from_nanos(w.0 - t));
            if wait.is_none() && !core.awaiting_reply() {
                return Err(io::Error::other("client stalled with nothing in flight"));
            }
            // Not a socket read timeout: the kernel rounds those to
            // scheduler ticks, milliseconds late for a backoff or an
            // open-loop arrival.
            if !wait_readable(stream.as_raw_fd(), wait)? {
                continue;
            }
            match stream.read(&mut buf) {
                Ok(0) => {
                    core.on_server_eof();
                    return Ok(());
                }
                Ok(n) => core.on_bytes(now(), rng, &buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for cmd in cmds {
            match cmd {
                ClientCmd::Send(bytes) => stream.write_all(&bytes)?,
                ClientCmd::SendEof => stream.shutdown(Shutdown::Write)?,
                ClientCmd::WakeAt(at) => wakes.push(Reverse(at)),
            }
        }
    }
    Ok(())
}
