//! CPU placement of the client thread (Linux).
//!
//! On a virtual machine whose CPUs share physical cores with other
//! tenants, one CPU can run 1.5× slower than another for seconds at a
//! time, and which one is slow changes. A single-threaded closed loop
//! then measures whichever CPU the scheduler happened to keep it on,
//! and items split into a fast and a slow group whose sizes decide
//! where the median falls. For the whole run a helper thread therefore
//! moves the client thread to the next CPU once per slice, so each run
//! samples all of them alike.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// `cpu_set_t`: 1024 CPU bits.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
struct CpuSet([u64; 16]);

extern "C" {
    fn gettid() -> i32;
    fn sched_getaffinity(tid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(tid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Held while a rotation moves a thread, and by [`unpinned`] while it
/// runs, so no move lands inside an `unpinned` section.
static MOVES: Mutex<()> = Mutex::new(());

fn this_thread() -> i32 {
    // SAFETY: `gettid` takes no arguments and cannot fail.
    unsafe { gettid() }
}

/// The CPUs the process may use, read once before any thread is
/// pinned (`None` if the kernel would not say).
fn allowed() -> Option<&'static CpuSet> {
    static ALLOWED: OnceLock<Option<CpuSet>> = OnceLock::new();
    ALLOWED
        .get_or_init(|| {
            let mut set = CpuSet([0; 16]);
            // SAFETY: `set` is a live, writable `cpu_set_t`-sized
            // buffer and the size passed is exactly its size.
            let rc = unsafe {
                sched_getaffinity(this_thread(), std::mem::size_of::<CpuSet>(), &mut set)
            };
            (rc == 0).then_some(set)
        })
        .as_ref()
}

fn set_affinity(tid: i32, set: &CpuSet) {
    // SAFETY: `set` is a live `cpu_set_t`-sized buffer and the size
    // passed is exactly its size. A failure (say, the thread has
    // exited) leaves the affinity unchanged, which costs steadiness but
    // not correctness, so the result is not checked.
    unsafe {
        sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set);
    }
}

/// Run `f` on any CPU, with no rotation move in between: threads that
/// `f` spawns inherit every CPU rather than the one the caller was
/// pinned to.
pub fn unpinned<R>(f: impl FnOnce() -> R) -> R {
    let _hold = MOVES.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(all) = allowed() {
        set_affinity(this_thread(), all);
    }
    f()
}

/// Moves the thread that started it over every CPU the process may
/// use, one slice at a time, until dropped; then lets it run on all
/// of them again.
#[derive(Debug)]
pub struct Rotation {
    cpus: usize,
    slice_ns: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    helper: Option<std::thread::JoinHandle<()>>,
}

impl Rotation {
    /// Start rotating the calling thread.
    pub fn start(slice: Duration) -> Self {
        let tid = this_thread();
        let all = allowed().copied().unwrap_or(CpuSet([0; 16]));
        let cpus: Vec<usize> = (0..1024)
            .filter(|&c| all.0[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let slice_ns = Arc::new(AtomicU64::new(slice.as_nanos() as u64));
        let helper = (cpus.len() >= 2).then(|| {
            let (stop, cpus, slice_ns) = (stop.clone(), cpus.clone(), slice_ns.clone());
            std::thread::spawn(move || {
                for turn in 0.. {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let cpu = cpus[turn % cpus.len()];
                    let mut set = CpuSet([0; 16]);
                    set.0[cpu / 64] |= 1 << (cpu % 64);
                    {
                        let _hold = MOVES.lock().unwrap_or_else(PoisonError::into_inner);
                        set_affinity(tid, &set);
                    }
                    std::thread::sleep(Duration::from_nanos(slice_ns.load(Ordering::Relaxed)));
                }
                set_affinity(tid, &all);
            })
        });
        Rotation {
            cpus: cpus.len(),
            slice_ns,
            stop,
            helper,
        }
    }

    /// Change the slice; it applies from the next move on.
    pub fn set_slice(&self, slice: Duration) {
        self.slice_ns
            .store(slice.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Number of CPUs the rotation visits (0 or 1: no rotation).
    pub fn cpus(&self) -> usize {
        self.cpus
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(helper) = self.helper.take() {
            // The helper only sleeps and sets affinities; a panic there
            // has nothing to report beyond a lost rotation.
            let _ = helper.join();
        }
    }
}
