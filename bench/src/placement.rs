//! Where the wire pass's threads run: the client on the first CPU this
//! process may use, every thread of the node on the others.
//!
//! A `lookup` round trip is four thread wake-ups (client → connection
//! handler → session thread → handler → client). Left to the scheduler,
//! a wakee lands either on its waker's CPU (a context switch) or on the
//! other one (an inter-processor interrupt, ≈ 20 µs on the reference
//! VM), and the choice sticks for a whole process: the same code read
//! 200 k or 490 k tx/s on `line-query-mix` depending on what had run
//! before it. Pinned, the client ↔ handler wake-ups always cross CPUs —
//! as they do when the client is another machine — and the node keeps
//! its threads among its own CPUs. Threads inherit the affinity of the
//! thread that spawns them, so pinning the thread that calls
//! `serve_with_telemetry` places the accept loop, the handlers, the
//! session threads and their pool lanes.

use std::io;

/// glibc's `cpu_set_t`: 1024 bits.
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A set of CPUs a thread may run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cpus([u64; WORDS]);

impl Cpus {
    /// The CPUs the calling thread may run on.
    pub fn of_this_thread() -> io::Result<Cpus> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
        if rc == 0 {
            Ok(Cpus(mask))
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Restricts the calling thread — and every thread it spawns from
    /// now on — to these CPUs.
    pub fn pin_this_thread(self) -> io::Result<()> {
        // SAFETY: `self.0` is a live buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, size_of_val(&self.0), self.0.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// The lowest CPU of the set and the rest; `None` when the set has a
    /// single CPU (or none) and so nothing to split.
    fn split_first(self) -> Option<(Cpus, Cpus)> {
        let word = self.0.iter().position(|&w| w != 0)?;
        let mut first = [0u64; WORDS];
        first[word] = self.0[word] & self.0[word].wrapping_neg();
        let mut rest = self.0;
        rest[word] &= !first[word];
        rest.iter()
            .any(|&w| w != 0)
            .then_some((Cpus(first), Cpus(rest)))
    }
}

/// The wire pass's thread placement, in force from [`Placement::take`]
/// until the value is dropped.
#[derive(Debug)]
pub struct Placement {
    all: Cpus,
    node: Option<Cpus>,
}

impl Placement {
    /// Pins the calling thread (the client) to the first CPU it may use.
    /// With a single CPU there is nothing to place and nothing is pinned.
    pub fn take() -> io::Result<Placement> {
        let all = Cpus::of_this_thread()?;
        let node = match all.split_first() {
            Some((client, node)) => {
                client.pin_this_thread()?;
                Some(node)
            }
            None => None,
        };
        Ok(Placement { all, node })
    }

    /// The CPUs the node's threads get; `None` on a single-CPU machine.
    pub fn node(&self) -> Option<Cpus> {
        self.node
    }
}

impl Drop for Placement {
    fn drop(&mut self) {
        // The offline passes that follow must have every CPU again. A
        // failure here cannot be returned; the next `take` would see the
        // narrowed set and report a single CPU.
        let _ = self.all.pin_this_thread();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpus(bits: &[usize]) -> Cpus {
        let mut mask = [0u64; WORDS];
        for &bit in bits {
            mask[bit / 64] |= 1 << (bit % 64);
        }
        Cpus(mask)
    }

    #[test]
    fn split_first_takes_the_lowest_cpu() {
        assert_eq!(cpus(&[0, 1]).split_first(), Some((cpus(&[0]), cpus(&[1]))));
        assert_eq!(
            cpus(&[3, 64, 70]).split_first(),
            Some((cpus(&[3]), cpus(&[64, 70])))
        );
        assert_eq!(cpus(&[65]).split_first(), None);
        assert_eq!(cpus(&[]).split_first(), None);
    }

    #[test]
    fn a_placement_pins_the_thread_and_restores_it() {
        // On a thread of its own: affinity is per thread, and the other
        // tests must keep theirs.
        std::thread::spawn(|| {
            let before = Cpus::of_this_thread().unwrap();
            let placement = Placement::take().unwrap();
            match placement.node() {
                Some(node) => {
                    let (client, rest) = before.split_first().unwrap();
                    assert_eq!(Cpus::of_this_thread().unwrap(), client);
                    assert_eq!(node, rest);
                }
                None => assert_eq!(Cpus::of_this_thread().unwrap(), before),
            }
            drop(placement);
            assert_eq!(Cpus::of_this_thread().unwrap(), before);
        })
        .join()
        .unwrap();
    }
}
