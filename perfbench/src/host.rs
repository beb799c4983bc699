//! The benchmark's clocks against a shared host: CPU time instead of
//! wall time, and a fixed reference kernel that measures how fast the
//! host runs at the moment, so that times can be given at one reference
//! speed.
//!
//! Other tenants of a shared host slow the same code by up to 1.6× over
//! minutes, in CPU time too, with no steal time showing. The reference
//! kernel is the benchmark's own code and never changes with the
//! simulator's, so a run divides the rate it measures by the kernel's
//! speed, measured in between the elections.

use std::hint::black_box;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's clocks of the CPU time that all of the process's threads,
/// or the calling thread, have used.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds the process has used so far, all threads together. Every
/// benchmark time is read from this clock, not the wall clock: time the
/// process waits for a core, or the host steals from the virtual
/// machine, does not count.
pub fn cpu_secs() -> f64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used so far.
fn thread_cpu_secs() -> f64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

fn read(clock: i32) -> f64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and both clock ids are constants the
    // kernel knows.
    let rc = unsafe { clock_gettime(clock, &mut t) };
    if rc == 0 {
        t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// Nodes and degree of the reference kernel's graph (64 KiB of
/// adjacency), steps of its walk, and how often it folds its buffer.
const NODES: usize = 1 << 12;
const DEGREE: usize = 4;
const STEPS: usize = 300_000;
const FOLD_EVERY: usize = 1024;

/// Seconds one run of the reference kernel takes at the reference
/// speed. This defines the reference speed; it is about what the 2-core
/// development container measured.
const REFERENCE_S: f64 = 0.002;

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The reference kernel: a pseudo-random walk on a fixed random graph,
/// writing each step to a buffer that it folds now and then. Like the
/// simulator, it chases indices, branches and stores; it allocates
/// nothing once built.
pub struct Reference {
    adj: Vec<u32>,
    buf: Vec<u64>,
}

impl Reference {
    pub fn new() -> Self {
        let adj = (0..NODES * DEGREE)
            .map(|i| (mix(i as u64) % NODES as u64) as u32)
            .collect();
        Reference {
            adj,
            buf: Vec::with_capacity(FOLD_EVERY),
        }
    }

    fn walk(&mut self) -> u64 {
        let (mut v, mut x, mut acc) = (0usize, 1u64, 0u64);
        for _ in 0..STEPS {
            x = mix(x ^ v as u64);
            v = self.adj[v * DEGREE + (x % DEGREE as u64) as usize] as usize;
            self.buf.push(x);
            if self.buf.len() == FOLD_EVERY {
                acc ^= self.buf.iter().fold(0, |a, b| a ^ b);
                self.buf.clear();
            }
        }
        self.buf.clear();
        acc ^ v as u64
    }

    /// CPU seconds of one run of the kernel, on the calling thread's
    /// clock, so that no other thread's work counts.
    pub fn sample(&mut self) -> f64 {
        let start = thread_cpu_secs();
        black_box(self.walk());
        thread_cpu_secs() - start
    }
}

/// The host's speed while `ref_secs` were sampled, relative to the
/// reference speed: [`REFERENCE_S`] ÷ the mean sample (NaN without
/// samples). Below 1 the host ran slower than the reference.
pub fn speed(ref_secs: &[f64]) -> f64 {
    let mean = ref_secs.iter().sum::<f64>() / ref_secs.len() as f64;
    REFERENCE_S / mean
}
