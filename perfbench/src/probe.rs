//! Host-speed probe: scales measured host time to a fixed reference speed.
//!
//! The benchmark runs on a few cores of a shared host whose speed moves by
//! up to 1.8× over seconds to minutes, because other tenants contend for
//! the same cores, caches and memory. Every run of a workload would then
//! read as fast or as slow as the host was while it ran. To take that out,
//! a fixed reference task, written here and independent of the program
//! under test, is timed before and after each timed call. The call's host
//! time is scaled by [`REFERENCE_PROBE_S`] over the geometric mean of the
//! two probe times: "seconds at the speed at which the probe takes
//! [`REFERENCE_PROBE_S`]". A change to the program moves the call's time
//! and not the probe's, so it moves the scaled time by the same ratio.
//!
//! The reference task imitates the simulator's mix of work: an event heap,
//! a hash map keyed by random addresses, and sixteen set-associative tag
//! arrays probed with a mix of sequential and random addresses. Its state
//! is allocated once per thread, so a probe allocates nothing.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Probe time at the reference speed: about the median probe time on the
/// 2-core development host (an Intel Xeon VM). There, averaged over one
/// pass's probes, it ranged from 3.4 to 9.5 ms.
pub const REFERENCE_PROBE_S: f64 = 0.005;

/// Processors of the probe's cache model.
const PROCS: usize = 16;
/// Sets per tag array.
const SETS: usize = 1024;
/// Ways per set.
const WAYS: usize = 4;
/// Addresses the probe touches.
const LINES: u64 = 1 << 16;
/// Events per probe in each half of the task.
const EVENTS: u32 = 16_000;
/// xorshift64 seed of every probe.
const SEED: u64 = 0x243f_6a88_85a3_08d3;

/// The probe's state, reused by every probe on a thread.
struct Task {
    /// Event heap of the first half: (time, id).
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    /// Counters of the first half, keyed by random addresses.
    counters: HashMap<u64, u64>,
    /// Tag arrays of the second half, one per processor, most recent way
    /// first.
    tags: Vec<Vec<u64>>,
    /// Sharer bits per line of the second half.
    sharers: HashMap<u64, u32>,
    /// Event heap of the second half: (time, processor).
    events: BinaryHeap<Reverse<(u64, usize)>>,
    /// xorshift64 state.
    x: u64,
}

impl Task {
    fn new() -> Task {
        Task {
            heap: BinaryHeap::with_capacity(4096),
            counters: HashMap::with_capacity(LINES as usize),
            tags: vec![vec![u64::MAX; SETS * WAYS]; PROCS],
            sharers: (0..LINES).map(|a| (a, 0)).collect(),
            events: BinaryHeap::with_capacity(PROCS),
            x: SEED,
        }
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    /// One probe's work, the same every time; returns a checksum so it
    /// cannot be optimised away.
    fn run(&mut self) -> u64 {
        self.x = SEED;
        for tags in &mut self.tags {
            tags.fill(u64::MAX);
        }
        self.sharers.values_mut().for_each(|bits| *bits = 0);
        let mut acc = 0u64;
        // An event loop over a heap of 4096 pending events and a counter
        // table.
        self.heap.clear();
        self.counters.clear();
        self.heap
            .extend((0..4096u64).map(|i| Reverse((i * 7919 % 4096, i))));
        for _ in 0..EVENTS {
            let Reverse((time, id)) = self.heap.pop().expect("the heap never drains");
            let x = self.next();
            let count = self.counters.entry(x % LINES).or_insert(0);
            *count += id;
            acc = if *count & 1 == 1 {
                acc.wrapping_add(*count)
            } else {
                acc ^ time
            };
            self.heap.push(Reverse((time + 1 + x % 64, id)));
        }
        // Sixteen processors probing their tag arrays; a miss updates the
        // line's sharer bits and costs more simulated time.
        self.events.clear();
        self.events
            .extend((0..PROCS).map(|p| Reverse((p as u64, p))));
        let mut last = [0u64; PROCS];
        for _ in 0..EVENTS {
            let Reverse((time, p)) = self.events.pop().expect("one event per processor");
            let x = self.next();
            let line = if x.is_multiple_of(4) {
                x % LINES
            } else {
                (last[p] + 1) % LINES
            };
            last[p] = line;
            let set = (line as usize % SETS) * WAYS;
            let ways = &mut self.tags[p][set..set + WAYS];
            let latency = match ways.iter().position(|&t| t == line) {
                Some(w) => {
                    ways[..=w].rotate_right(1);
                    1
                }
                None => {
                    ways.rotate_right(1);
                    ways[0] = line;
                    let bits = self.sharers.get_mut(&line).expect("every line has sharers");
                    *bits ^= 1 << p;
                    acc = acc.wrapping_add(u64::from(bits.count_ones()));
                    40 + 10 * u64::from(bits.count_ones())
                }
            };
            self.events.push(Reverse((time + latency, p)));
        }
        acc
    }
}

thread_local! {
    static TASK: RefCell<Task> = RefCell::new(Task::new());
}

/// Host seconds one run of the reference task takes now on this thread.
fn probe_once() -> f64 {
    TASK.with(|task| {
        let mut task = task.borrow_mut();
        let t = Instant::now();
        std::hint::black_box(task.run());
        t.elapsed().as_secs_f64()
    })
}

/// Host seconds the reference task takes now on the slowest of `threads`
/// threads running it at once. A call on several threads waits for the
/// slowest of them, so its time follows the slowest core's speed.
pub fn probe_s(threads: usize) -> f64 {
    std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(probe_once)).collect();
        others
            .into_iter()
            .map(|h| h.join().expect("a probe thread does not panic"))
            .fold(probe_once(), f64::max)
    })
}

/// The factor that scales host time measured between two probes to the
/// reference speed.
pub fn scale_factor(before_s: f64, after_s: f64) -> f64 {
    REFERENCE_PROBE_S / (before_s * after_s).sqrt()
}

/// Probes around a sequence of timed calls; each probe closes one call's
/// bracket and opens the next one's.
pub struct RefClock {
    /// Threads the timed calls run on, and so the probes.
    threads: usize,
    /// The latest probe time.
    last_s: f64,
}

impl RefClock {
    /// Probe once, opening the first bracket, for calls that run on
    /// `threads` threads.
    pub fn start(threads: usize) -> RefClock {
        RefClock {
            threads,
            last_s: probe_s(threads),
        }
    }

    /// Probe again, closing the bracket opened by the previous probe, and
    /// return the factor that scales host time measured inside it to the
    /// reference speed.
    pub fn factor(&mut self) -> f64 {
        let now_s = probe_s(self.threads);
        let k = scale_factor(self.last_s, now_s);
        self.last_s = now_s;
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_factor_uses_the_geometric_mean_of_the_bracket() {
        let r = REFERENCE_PROBE_S;
        assert!((scale_factor(r, r) - 1.0).abs() < 1e-12);
        // A host at half speed on both sides halves the time.
        assert!((scale_factor(2.0 * r, 2.0 * r) - 0.5).abs() < 1e-12);
        // Slow before, fast after: the geometric mean of 4r and r is 2r.
        assert!((scale_factor(4.0 * r, r) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probe_is_deterministic_work() {
        let mut a = Task::new();
        let mut b = Task::new();
        let first = a.run();
        assert_eq!(first, b.run());
        assert_eq!(a.run(), first, "a reused task repeats the same work");
        assert!(probe_s(1) > 0.0);
        assert!(probe_s(2) > 0.0);
    }
}
