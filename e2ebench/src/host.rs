//! CPU clocks, CPU pinning and host-speed calibration.
//!
//! The benchmark runs on shared hosts, which disturb wall times in three
//! ways. Other processes of the same machine take the CPUs away for a
//! while; CPU time does not count that. Two threads of the program
//! running on the two hyperthreads of one core slow each other down,
//! and whether they do changes from one moment to the next. And in
//! spells of minutes the vCPU itself runs 20 % to 100 % slower (other
//! guests of the machine share its cores and caches), with no steal time
//! shown to the guest; that slows CPU time as well.
//!
//! So an untraced run pins itself to one CPU ([`pin_to_one_cpu`]): the
//! campaign's grid runs on one thread, as it does on a one-CPU host.
//! Setup and campaign are timed in process CPU seconds, and the run also
//! times a fixed kernel of the benchmark's own, [`probe`], before every
//! setup, between setup and campaign, and after every campaign. A setup
//! or campaign whose CPU time is `t` and whose bracketing kernels took
//! `p` and `q` CPU seconds is reported as `t · NOMINAL_S / ((p + q) / 2)`:
//! its time at the host speed at which the kernel takes [`NOMINAL_S`]. The kernel calls no
//! code of the program, so no change to the program moves it; a program
//! that gets slower reads slower by the same share.

use std::ffi::{c_int, c_long};
use std::time::Instant;

/// The kernel's CPU time on the reference host, seconds: about the median
/// [`probe`] of the 2-vCPU Linux VM the benchmark was tuned on (0.11 s
/// when its machine is quiet, up to 0.22 s in loaded spells). It sets the
/// scale of the reported times only; comparisons between commits do not
/// depend on it.
pub const NOMINAL_S: f64 = 0.13;

/// Input rows of the kernel's weight array (the MNIST crossbar's).
const ROWS: usize = 784;
/// Columns (neurons) of the kernel's weight array (N400's).
const COLS: usize = 400;
/// Active rows accumulated per time step.
const ACTIVE: usize = 28;
/// Time steps of one probe.
const STEPS: usize = 48_000;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    fn sched_getcpu() -> c_int;
}

/// The calling thread restricted to one CPU; the CPUs it could run on
/// before are restored on drop.
#[derive(Debug)]
pub struct Pinned {
    previous: CpuSet,
}

/// Restricts the calling thread, and every thread it starts from now on,
/// to the CPU it runs on (so that runs started side by side do not pile
/// onto one CPU). `available_parallelism` then reads 1, so `parallel_map`
/// evaluates its items in order on the calling thread.
///
/// # Errors
///
/// Returns the OS error when the affinity cannot be read or set.
pub fn pin_to_one_cpu() -> std::io::Result<Pinned> {
    let mut previous: CpuSet = [0; 16];
    // SAFETY: `previous` is a writable buffer of the size passed; pid 0
    // is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut previous) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let allowed = |c: usize| c < 1024 && previous[c / 64] >> (c % 64) & 1 == 1;
    // SAFETY: no arguments; returns the current CPU or -1.
    let current = usize::try_from(unsafe { sched_getcpu() }).ok();
    let cpu = current
        .filter(|&c| allowed(c))
        .or_else(|| (0..1024).find(|&c| allowed(c)))
        .ok_or_else(|| std::io::Error::other("the thread may run on no CPU"))?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    set_affinity(&one)?;
    Ok(Pinned { previous })
}

fn set_affinity(mask: &CpuSet) -> std::io::Result<()> {
    // SAFETY: `mask` is a readable buffer of the size passed; pid 0 is
    // the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

impl Drop for Pinned {
    fn drop(&mut self) {
        let _ = set_affinity(&self.previous);
    }
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn clock_s(clock: c_int) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`, and both clock
    // ids are defined by POSIX and supported by Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time of the whole process so far, seconds: every thread, those
/// that have exited included, user and system time.
pub fn process_cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread so far, seconds.
pub fn thread_cpu_s() -> f64 {
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Wall and process CPU seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Took {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
}

impl std::ops::Add for Took {
    type Output = Self;

    fn add(self, other: Self) -> Self {
        Self {
            wall_s: self.wall_s + other.wall_s,
            cpu_s: self.cpu_s + other.cpu_s,
        }
    }
}

/// Measures wall and process CPU time from its start.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// Time since the start.
    pub fn read(&self) -> Took {
        Took {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - self.cpu_s,
        }
    }
}

/// Runs the kernel on the calling thread and returns the CPU seconds it
/// took.
///
/// The kernel fills a 784 × 400 `i16` weight array and then, for a fixed
/// number of time steps, accumulates pseudo-randomly chosen rows into 400
/// membrane potentials, leaks them, and resets those above a threshold:
/// the shape of the campaign's crossbar drive, with a fixed amount of
/// work.
pub fn probe() -> f64 {
    let start = thread_cpu_s();
    std::hint::black_box(kernel(std::hint::black_box(1)));
    thread_cpu_s() - start
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The kernel's work; returns the number of resets so the work cannot be
/// optimised away.
fn kernel(seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let weights: Vec<i16> = (0..ROWS * COLS)
        .map(|_| (xorshift(&mut x) % 64) as i16 - 16)
        .collect();
    let mut v = vec![0_i32; COLS];
    let mut resets = 0_u64;
    for _ in 0..STEPS {
        for _ in 0..ACTIVE {
            let row = (xorshift(&mut x) % ROWS as u64) as usize;
            for (vi, &w) in v.iter_mut().zip(&weights[row * COLS..(row + 1) * COLS]) {
                *vi += i32::from(w);
            }
        }
        for vi in &mut v {
            *vi -= *vi >> 4;
            if *vi > 2_000 {
                *vi = 0;
                resets += 1;
            }
        }
    }
    resets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_does_work() {
        assert_eq!(kernel(1), kernel(1));
        assert!(kernel(1) > 0);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_s(), thread_cpu_s());
        let spent = probe();
        assert!(spent > 0.0);
        assert!(thread_cpu_s() - t0 >= spent);
        assert!(process_cpu_s() - p0 >= spent);
    }
}
