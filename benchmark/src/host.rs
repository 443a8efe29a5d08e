//! What the benchmark reads from the host: process CPU time, peak
//! resident memory, core count, and a fixed spin loop that shows how
//! noisy the machine is right now. Linux only (`/proc`, POSIX clocks).

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU seconds consumed so far by every thread of this
/// process, including threads that have already exited — which `/proc`'s
/// per-task files lose, and the run pools here spawn and join workers on
/// every repetition.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable, correctly laid out `struct
    // timespec` (two 64-bit fields on 64-bit Linux) and the clock id is a
    // constant the kernel defines; the call writes `ts` and nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`) in MB.
///
/// # Panics
/// Panics if `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("VmHWM line in /proc/self/status") / 1024.0
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Worker threads every parallel workload uses: two, or one on a
/// single-core host.
pub fn workers() -> usize {
    nproc().min(2)
}

static SCRATCH_ORDINAL: AtomicUsize = AtomicUsize::new(0);

/// A fresh directory path under `./.bench_tmp` — inside the checkout the
/// benchmark was started from, the only place it writes. Unique per
/// process and per call; the caller creates it and hands it back to
/// [`remove_scratch`].
pub fn scratch_dir(tag: &str) -> PathBuf {
    std::env::current_dir()
        .expect("current directory")
        .join(".bench_tmp")
        .join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            SCRATCH_ORDINAL.fetch_add(1, Ordering::Relaxed)
        ))
}

/// Remove a [`scratch_dir`], and `.bench_tmp` itself once it is empty.
pub fn remove_scratch(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        // fails, harmlessly, while another scratch directory remains
        let _ = std::fs::remove_dir(parent);
    }
}

/// `iters` dependent multiply-adds: latency-bound, touches no memory.
pub fn fma_chain(iters: u32) {
    let mut x = std::hint::black_box(1.000_000_1f64);
    for _ in 0..iters {
        x = x.mul_add(0.999_999_9, 1e-9);
    }
    std::hint::black_box(x);
}

/// Milliseconds one thread takes for a fixed chain of dependent
/// multiply-adds (median of `reps`). The work never changes, so a change
/// in this number between two sets of runs is the host, not the code.
pub fn spin_ref_ms(reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            fma_chain(20_000_000);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&samples)
}

// ---------------------------------------------------------------------
// host-speed pacing
// ---------------------------------------------------------------------
//
// On the shared 2-vCPU hosts this benchmark runs on, the speed of a vCPU
// moves by up to 2× for seconds to minutes at a time (a fixed
// single-thread loop read 108 ms and 207 ms half a minute apart, with no
// steal time reported), so two runs of the same binary differ by tens of
// percent however many repetitions each takes. What did repeat was the
// *ratio* of a piece of work to a fixed reference snippet run on the same
// thread within the same few tens of milliseconds (README, "Why the
// timings are speed-normalised"). The benchmark's wrapper around every
// forward evaluation therefore calls [`pace`], which runs the snippet
// below at most every [`PACE_PERIOD`] on the calling worker thread, and a
// timed interval is divided by the mean slowdown its snippets saw.
//
// The snippet must read the host and not the program, so nothing it times
// depends on state outside the core: a dependent FMA chain in registers,
// and a stencil over two grids of 8 KiB that is swept once untimed (which
// brings them into L1 from wherever the program's last 20 ms left them)
// before the timed sweeps. What the program keeps in L2 or the last-level
// cache, and the memory bandwidth the other worker uses, do not reach it;
// `benchmark sensitivity` checks that on every workload.

/// Shortest interval between two snippets on one thread.
const PACE_PERIOD: Duration = Duration::from_millis(20);
/// Snippet parts: a dependent FMA chain (latency-bound: core clock and
/// time-slicing) and a 5-point stencil resident in L1 (throughput-bound,
/// as the solver kernels are: vector units and load ports).
const SPIN_ITERS: u32 = 100_000;
const STENCIL_N: usize = 32;
const STENCIL_SWEEPS: usize = 240;
/// Milliseconds each part takes on this class of host when nothing
/// disturbs it. Only a choice of unit — a normalised time reads as seconds
/// on an undisturbed host of this class — since every commit is divided by
/// the same constants.
const NOMINAL_MS: [f64; 2] = [0.28, 0.16];

static PACE_NS: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];
static PACE_SNIPPETS: AtomicU64 = AtomicU64::new(0);

struct PaceState {
    last: Option<Instant>,
    a: Vec<f64>,
    b: Vec<f64>,
}

thread_local! {
    static PACE_STATE: RefCell<PaceState> = RefCell::new(PaceState {
        last: None,
        a: vec![1.0; STENCIL_N * STENCIL_N],
        b: vec![0.5; STENCIL_N * STENCIL_N],
    });
}

fn stencil_sweep(a: &[f64], b: &mut [f64]) {
    let n = STENCIL_N;
    for i in 1..n - 1 {
        for j in 1..n - 1 {
            let c = i * n + j;
            b[c] = 0.2 * (a[c] + a[c - 1] + a[c + 1] + a[c - n] + a[c + n]);
        }
    }
}

fn snippet(state: &mut PaceState) {
    let (a, b) = (&mut state.a, &mut state.b);
    // untimed: bring both grids and the chain's code and stack lines into
    // L1, and sit out whatever misses and write-backs the program left in
    // flight
    stencil_sweep(a, b);
    fma_chain(64);
    let t0 = Instant::now();
    fma_chain(SPIN_ITERS);
    let t1 = Instant::now();
    for _ in 0..STENCIL_SWEEPS / 2 {
        stencil_sweep(b, a);
        stencil_sweep(a, b);
    }
    std::hint::black_box(&b);
    let t2 = Instant::now();
    // statistics only: the counters publish no other data
    PACE_NS[0].fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
    PACE_NS[1].fetch_add((t2 - t1).as_nanos() as u64, Ordering::Relaxed);
    PACE_SNIPPETS.fetch_add(1, Ordering::Relaxed);
    state.last = Some(t2);
}

/// Run the reference snippet on this thread if none ran here in the last
/// [`PACE_PERIOD`]. Called before every forward evaluation.
pub fn pace() {
    PACE_STATE.with(|cell| {
        let mut state = cell.borrow_mut();
        if state.last.is_none_or(|t| t.elapsed() >= PACE_PERIOD) {
            snippet(&mut state);
        }
    });
}

/// Run the reference snippet on this thread now: set-up calls it around
/// the steps that make no forward evaluation (the hierarchy build), so
/// the slowdown of `setup_s` is sampled next to them too.
pub fn pace_now() {
    PACE_STATE.with(|cell| snippet(&mut cell.borrow_mut()));
}

/// The pacing counters at one instant; [`PaceMark::slowdown`] turns the
/// snippets taken since then into the host's mean slowdown.
#[derive(Clone, Copy)]
pub struct PaceMark {
    ns: [u64; 2],
    snippets: u64,
}

pub fn pace_mark() -> PaceMark {
    PaceMark {
        ns: [0, 1].map(|i| PACE_NS[i].load(Ordering::Relaxed)),
        snippets: PACE_SNIPPETS.load(Ordering::Relaxed),
    }
}

impl PaceMark {
    /// Mean over the two parts of part time against nominal part time,
    /// over the snippets run on any thread since the mark: 1 on an
    /// undisturbed host, 2 when everything takes twice as long. If no
    /// snippet ran in the interval, one runs now on the calling thread.
    pub fn slowdown(self) -> f64 {
        if PACE_SNIPPETS.load(Ordering::Relaxed) == self.snippets {
            pace_now();
        }
        let snippets = (PACE_SNIPPETS.load(Ordering::Relaxed) - self.snippets) as f64;
        let mut sum = 0.0;
        for part in 0..2 {
            let ms = (PACE_NS[part].load(Ordering::Relaxed) - self.ns[part]) as f64 * 1e-6;
            sum += ms / (snippets * NOMINAL_MS[part]);
        }
        sum / 2.0
    }
}

/// Reset the kernel's peak-RSS watermark of this process to its current
/// RSS, so that [`peak_rss_mb`] then reports the peak of what follows.
/// Returns whether the kernel accepted the request.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Milliseconds one thread takes to sum a fixed 64 MiB array (median of
/// `reps`): the memory-side twin of [`spin_ref_ms`]. On a shared host the
/// two move independently — a neighbour that streams memory slows the
/// solvers and this sweep but not the spin loop.
pub fn mem_ref_ms(reps: usize) -> f64 {
    let data = vec![1.0f64; 8 << 20];
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let sum: f64 = std::hint::black_box(&data).iter().sum();
            std::hint::black_box(sum);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work_and_rss_is_plausible() {
        let before = cpu_seconds();
        let ms = spin_ref_ms(1);
        let burnt = cpu_seconds() - before;
        assert!(ms > 0.0);
        assert!(
            burnt > 0.0 && burnt < 60.0,
            "cpu clock moved by {burnt} s over a {ms} ms spin"
        );
        let rss = peak_rss_mb();
        assert!(rss > 1.0 && rss < 1e6, "peak rss {rss} MB");
    }

    #[test]
    fn slowdown_is_the_mean_part_time_over_nominal() {
        let mark = pace_mark();
        // no snippet since the mark: slowdown() takes one itself
        let first = mark.slowdown();
        assert!(first > 0.05 && first < 50.0, "slowdown {first}");
        // pacing is rate-limited per thread: an immediate second call is a
        // no-op (checked on this thread's own state: other tests' worker
        // threads add to the global counters meanwhile)
        let last = || PACE_STATE.with(|cell| cell.borrow().last);
        pace();
        let first_call = last();
        pace();
        assert!(first_call.is_some());
        assert_eq!(last(), first_call, "a second snippet ran inside the period");
        pace_now();
        assert_ne!(last(), first_call, "pace_now is not rate-limited");
    }

    #[test]
    fn vm_hwm_line_is_parsed() {
        let status = "Name:\tbenchmark\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }
}
