//! Long-running provisioning daemon.
//!
//! A provisioning service under continuous load wants a resident pool
//! fed by a queue, so consecutive waves pay zero thread-spawn cost,
//! share one [`PreparedImageCache`], and recycle transmit buffers
//! instead of allocating a payload-sized `Vec` per device.
//!
//! [`ProvisioningDaemon`] is that service. Its steady-state loop is
//! allocation-free per device:
//!
//! * **Preparation** is served by the epoch-keyed cache — a repeated
//!   (image, config) wave never re-runs
//!   [`SoftwareSource::prepare_image`].
//! * **Packaging** writes each device's wire frame with
//!   [`SoftwareSource::package_prepared_into`] into a buffer taken
//!   from a daemon-wide [`BufferPool`]; consumers hand frames back via
//!   [`BatchHandle::recycle`], so after warm-up the pool cycles a
//!   fixed set of buffers.
//! * **Claiming** hands out a batch's devices through one relaxed
//!   atomic cursor: every worker takes the next unclaimed index, so
//!   the pool stays busy until the last device is claimed, and a
//!   worker stalled on a slow device holds only that one device.
//! * **Backpressure** is double-bounded: each batch streams outcomes
//!   over a `sync_channel(workers)` (a slow consumer stalls the
//!   workers, never buffers unboundedly), and `submit` itself blocks
//!   once `queue_depth` batches are pending.
//!
//! Shutdown is a drain: workers finish every queued batch before
//! exiting, so no accepted submission is dropped.
//!
//! The daemon is hardened for sustained operation under partial
//! failure:
//!
//! * **Load shedding** — [`ProvisioningDaemon::try_submit`] refuses a
//!   full queue with [`SubmitError::QueueFull`] instead of blocking
//!   (counted in [`DaemonHealth::sheds`]), and
//!   [`ProvisioningDaemon::submit_deadline`] bounds the backpressure
//!   wait.
//! * **Panic containment** — a panic while packaging one device is
//!   caught, converted to a failed [`WireOutcome`]
//!   ([`EricError::Panic`]), and the worker keeps draining; the
//!   device's buffer is reclaimed, siblings and later batches are
//!   untouched.
//! * **Poison tolerance** — daemon locks ride through a poisoned
//!   mutex (each critical section leaves the guarded state
//!   consistent), so one contained panic never cascades into every
//!   other thread.
//! * **Observability** — [`ProvisioningDaemon::health`] snapshots the
//!   terminal-outcome ledger: every submitted device is eventually
//!   counted completed (and possibly failed), plus sheds, contained
//!   panics, and delivery retries reported via
//!   [`ProvisioningDaemon::note_retries`].

use super::cache::PreparedImageCache;
use crate::config::EncryptionConfig;
use crate::delta::PreparedDelta;
use crate::error::EricError;
use crate::source::{PackagedFrame, PreparedImage, SoftwareSource};
use eric_asm::Image;
use eric_puf::crp::EnrollmentRecord;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Lock, riding through poison: every daemon critical section leaves
/// its guarded state consistent (no partial updates survive a panic
/// inside one), so a poisoned mutex carries usable state and refusing
/// it would only cascade one contained panic into every other thread.
pub(crate) fn lock_clean<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A recycling pool of wire-frame buffers.
///
/// [`BufferPool::take`] reuses a returned buffer when one is pooled
/// and allocates an empty `Vec` otherwise; the first packaging pass
/// grows each buffer to frame size and every later pass reuses that
/// capacity. [`BufferPool::created`] counts total allocations ever —
/// the steady-state zero-allocation property is exactly "`created`
/// stops growing after warm-up".
#[derive(Debug, Default)]
pub struct BufferPool {
    buffers: Mutex<Vec<Vec<u8>>>,
    created: AtomicUsize,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a cleared buffer: pooled if available, freshly created
    /// otherwise.
    pub fn take(&self) -> Vec<u8> {
        if let Some(buf) = lock_clean(&self.buffers).pop() {
            return buf;
        }
        self.created.fetch_add(1, Ordering::Relaxed);
        Vec::new()
    }

    /// Return a buffer for reuse (its capacity is kept, its contents
    /// cleared).
    pub fn recycle(&self, mut buf: Vec<u8>) {
        buf.clear();
        lock_clean(&self.buffers).push(buf);
    }

    /// Buffers ever created (monotone; flat in steady state).
    pub fn created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }

    /// Buffers currently resting in the pool.
    pub fn pooled(&self) -> usize {
        lock_clean(&self.buffers).len()
    }
}

/// One device's serialized package, in a pool-owned buffer.
///
/// Hand it back with [`BatchHandle::recycle`] once transmitted so the
/// buffer's capacity is reused by the next device.
#[derive(Debug)]
pub struct WireFrame {
    /// Frame metadata (nonce, wire length, signed-header length).
    pub info: PackagedFrame,
    /// The full wire frame, parseable by
    /// [`Package::from_wire`](crate::Package::from_wire) — or, for a
    /// [`ProvisioningDaemon::submit_delta`] batch, by
    /// [`DeltaPackage::from_wire`](crate::Frame::from_wire).
    pub bytes: Vec<u8>,
}

/// What happened to one device of a daemon batch, in completion order.
#[derive(Debug)]
pub struct WireOutcome {
    /// Position of this device in the submitted credential list.
    pub index: usize,
    /// The device the frame was built for.
    pub device_id: String,
    /// Wall clock the worker spent on this device.
    pub elapsed: Duration,
    /// The wire frame, or why this device failed (failures never
    /// affect sibling devices).
    pub result: Result<WireFrame, EricError>,
}

/// The consumer's end of one submitted batch.
///
/// Receive outcomes with [`BatchHandle::recv`] (or drain them all via
/// [`BatchHandle::iter`]); the stream ends after exactly
/// [`BatchHandle::devices`] outcomes. Dropping the handle abandons the
/// batch: workers still drain it (frames are recycled unsent), so the
/// daemon's accounting stays consistent.
#[derive(Debug)]
pub struct BatchHandle {
    rx: Receiver<WireOutcome>,
    pool: Arc<BufferPool>,
    devices: usize,
    cache_hit: bool,
}

impl BatchHandle {
    /// Devices in this batch (= outcomes the stream will deliver).
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Whether this batch's preparation was served from the
    /// [`PreparedImageCache`] (no `prepare_image` ran).
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// Next outcome in completion order, `None` when the batch is
    /// fully delivered.
    pub fn recv(&self) -> Option<WireOutcome> {
        self.rx.recv().ok()
    }

    /// Like [`BatchHandle::recv`], but bounded: never waits longer
    /// than `timeout` for the next outcome.
    ///
    /// The chaos harness consumes every stream through this method so
    /// a lost outcome surfaces as a visible
    /// [`RecvTimeout::TimedOut`] instead of a hung test.
    pub fn recv_timeout(&self, timeout: Duration) -> RecvTimeout {
        match self.rx.recv_timeout(timeout) {
            Ok(outcome) => RecvTimeout::Outcome(outcome),
            Err(RecvTimeoutError::Disconnected) => RecvTimeout::Complete,
            Err(RecvTimeoutError::Timeout) => RecvTimeout::TimedOut,
        }
    }

    /// Drain the remaining outcomes as an iterator.
    pub fn iter(&self) -> impl Iterator<Item = WireOutcome> + '_ {
        std::iter::from_fn(move || self.recv())
    }

    /// Return a transmitted frame's buffer to the daemon pool.
    pub fn recycle(&self, frame: WireFrame) {
        self.pool.recycle(frame.bytes);
    }
}

/// Result of a bounded [`BatchHandle::recv_timeout`] wait.
#[derive(Debug)]
pub enum RecvTimeout {
    /// The next outcome arrived within the timeout.
    Outcome(WireOutcome),
    /// The batch is fully delivered; no more outcomes will come.
    Complete,
    /// No outcome arrived within the timeout; the batch is still in
    /// flight — poll again or give up.
    TimedOut,
}

/// Why a submission was refused.
#[derive(Debug)]
pub enum SubmitError {
    /// The submission queue is at `queue_depth` and the caller asked
    /// not to wait ([`ProvisioningDaemon::try_submit`]) — the batch
    /// was shed, counted in [`DaemonHealth::sheds`].
    QueueFull,
    /// The queue stayed full past the caller's deadline
    /// ([`ProvisioningDaemon::submit_deadline`]) — also counted as a
    /// shed.
    Timeout,
    /// The daemon is shutting down and accepts no new batches.
    ShutDown,
    /// Preparing the (image, config) pair failed before anything was
    /// queued (e.g. an invalid configuration).
    Rejected(EricError),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "submission queue full (batch shed)"),
            SubmitError::Timeout => write!(f, "submission queue full past deadline (batch shed)"),
            SubmitError::ShutDown => write!(f, "provisioning daemon is shut down"),
            SubmitError::Rejected(e) => write!(f, "batch rejected: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SubmitError::Rejected(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SubmitError> for EricError {
    fn from(e: SubmitError) -> Self {
        match e {
            SubmitError::Rejected(inner) => inner,
            other => EricError::Config(other.to_string()),
        }
    }
}

/// A point-in-time snapshot of the daemon's health ledger.
///
/// The accounting invariant the chaos soak pins: after a drain, every
/// submitted device has reached exactly one terminal outcome —
/// `completed_devices == submitted_devices`, with `failed_devices`
/// the subset whose outcome was an error (including contained
/// panics). A live snapshot, taken while batches are in flight,
/// always has `failed_devices <= completed_devices <=
/// submitted_devices`: a device is counted submitted before a worker
/// can claim it, and [`ProvisioningDaemon::health`] reads the
/// counters in the reverse of that order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaemonHealth {
    /// Batches waiting in the submission queue right now.
    pub queued_batches: usize,
    /// Batches accepted but not yet fully delivered.
    pub active_batches: usize,
    /// Devices ever accepted across all submissions.
    pub submitted_devices: u64,
    /// Devices that reached a terminal outcome (ok or failed).
    pub completed_devices: u64,
    /// Devices whose terminal outcome was an error.
    pub failed_devices: u64,
    /// Submissions refused because the queue was full
    /// ([`ProvisioningDaemon::try_submit`] /
    /// [`ProvisioningDaemon::submit_deadline`]).
    pub sheds: u64,
    /// Worker panics contained into failed outcomes.
    pub panics: u64,
    /// Delivery retries reported by external retry loops via
    /// [`ProvisioningDaemon::note_retries`].
    pub retries: u64,
}

#[derive(Default)]
struct HealthCounters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    sheds: AtomicU64,
    panics: AtomicU64,
    retries: AtomicU64,
}

/// A chaos-injection probe run for each device inside the worker's
/// panic-containment region (a panic here is contained exactly like a
/// packaging panic). Installed via
/// [`ProvisioningDaemon::set_packaging_hook`]; called with the
/// device's batch index.
pub type PackagingHook = Arc<dyn Fn(usize) + Send + Sync>;

/// How long `submit_inner` may wait out a full queue.
enum Wait {
    Block,
    Shed,
    Deadline(Instant),
}

/// What a batch packages per device: a full prepared image (`ERIC1`/
/// `ERIC2` frames) or a prepared delta (`ERIC2D` frames).
enum JobImage {
    Full(Arc<PreparedImage>),
    Delta(Arc<PreparedDelta>),
}

struct BatchJob {
    image: JobImage,
    creds: Vec<EnrollmentRecord>,
    /// The next unclaimed index into `creds`.
    cursor: AtomicUsize,
    // `SyncSender` is `Sync`, so workers share the job's sender
    // through the `Arc` and the channel closes when the last worker
    // drops its reference after the final send.
    tx: SyncSender<WireOutcome>,
    done: AtomicUsize,
}

impl BatchJob {
    /// Claim the next device index, `None` once every device is
    /// claimed. Relaxed: the cursor publishes no data (`creds` is
    /// immutable and reached through the `Arc`), and a claim past the
    /// end only leaves the cursor further past it.
    fn claim(&self) -> Option<usize> {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        (i < self.creds.len()).then_some(i)
    }

    /// Whether every device has been claimed.
    fn is_drained(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) >= self.creds.len()
    }
}

#[derive(Default)]
struct DaemonQueue {
    jobs: VecDeque<Arc<BatchJob>>,
    active: usize,
}

struct DaemonShared {
    source: SoftwareSource,
    cache: PreparedImageCache,
    pool: Arc<BufferPool>,
    queue: Mutex<DaemonQueue>,
    /// Wakes workers: new job, or shutdown.
    work_cv: Condvar,
    /// Wakes submitters/drainers: queue slot freed, or a job completed.
    state_cv: Condvar,
    shutdown: AtomicBool,
    queue_depth: usize,
    health: HealthCounters,
    hook: Mutex<Option<PackagingHook>>,
}

/// A resident, queue-fed provisioning service.
///
/// # Examples
///
/// ```
/// use eric_core::{Device, EncryptionConfig, Package, ProvisioningDaemon, SoftwareSource};
///
/// let mut fleet: Vec<Device> = (0..4)
///     .map(|i| Device::with_seed(4000 + i, &format!("fleet/unit-{i}")))
///     .collect();
/// let creds: Vec<_> = fleet.iter_mut().map(Device::enroll).collect();
///
/// let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 2);
/// let image = daemon
///     .source()
///     .compile("main:\n li a0, 9\n li a7, 93\n ecall\n", false)
///     .unwrap();
///
/// // Wave 1 prepares and caches; wave 2 is a pure cache hit.
/// for wave in 0..2 {
///     let handle = daemon
///         .submit(&image, &EncryptionConfig::full(), creds.clone())
///         .unwrap();
///     assert_eq!(handle.cache_hit(), wave > 0);
///     for outcome in handle.iter() {
///         let frame = outcome.result.unwrap();
///         let package = Package::from_wire(&frame.bytes).unwrap();
///         let run = fleet[outcome.index].install_and_run(&package).unwrap();
///         assert_eq!(run.exit_code, 9);
///         handle.recycle(frame); // buffer goes back to the pool
///     }
/// }
/// daemon.shutdown();
/// ```
pub struct ProvisioningDaemon {
    shared: Arc<DaemonShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    workers: usize,
}

impl std::fmt::Debug for ProvisioningDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ProvisioningDaemon {{ {} workers, {:?} }}",
            self.workers, self.shared.cache
        )
    }
}

impl ProvisioningDaemon {
    /// Start a daemon with `workers` resident threads and defaults of
    /// 8 cached preparations and a 4-batch submission queue.
    pub fn start(source: SoftwareSource, workers: usize) -> Self {
        Self::start_with(source, workers, 8, 4)
    }

    /// Start a daemon with explicit cache capacity and submission
    /// queue depth (all three knobs clamped to at least 1).
    pub fn start_with(
        source: SoftwareSource,
        workers: usize,
        cache_capacity: usize,
        queue_depth: usize,
    ) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(DaemonShared {
            source,
            cache: PreparedImageCache::new(cache_capacity),
            pool: Arc::new(BufferPool::new()),
            queue: Mutex::new(DaemonQueue::default()),
            work_cv: Condvar::new(),
            state_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            queue_depth: queue_depth.max(1),
            health: HealthCounters::default(),
            hook: Mutex::new(None),
        });
        let threads = (0..workers)
            .map(|w| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("eric-provision-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn provisioning worker")
            })
            .collect();
        ProvisioningDaemon {
            shared,
            threads,
            workers,
        }
    }

    /// Resident worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The wrapped software source.
    pub fn source(&self) -> &SoftwareSource {
        &self.shared.source
    }

    /// The daemon's prepared-image cache (e.g. to
    /// [`invalidate_stale_epochs`](PreparedImageCache::invalidate_stale_epochs)
    /// after a credential rotation).
    pub fn cache(&self) -> &PreparedImageCache {
        &self.shared.cache
    }

    /// The daemon-wide frame-buffer pool (its
    /// [`created`](BufferPool::created) counter is the steady-state
    /// allocation observable).
    pub fn pool(&self) -> &BufferPool {
        &self.shared.pool
    }

    /// Queue a batch: prepare (or cache-hit) the image × config, fan
    /// `creds` out across the workers, and return the outcome stream.
    ///
    /// Blocks while `queue_depth` batches are already pending
    /// (submission backpressure). Consume or drop the returned handle
    /// promptly: outcomes flow over a channel bounded at `workers`, so
    /// an unconsumed handle stalls the pool by design.
    ///
    /// # Errors
    ///
    /// Configuration errors from preparation, or submission after
    /// [`ProvisioningDaemon::shutdown`] began. Per-device failures are
    /// reported in-stream, never here.
    pub fn submit(
        &self,
        image: &Image,
        config: &EncryptionConfig,
        creds: Vec<EnrollmentRecord>,
    ) -> Result<BatchHandle, EricError> {
        self.submit_inner(image, config, creds, Wait::Block)
            .map_err(EricError::from)
    }

    /// Non-blocking [`ProvisioningDaemon::submit`]: a full queue sheds
    /// the batch with [`SubmitError::QueueFull`] (counted in
    /// [`DaemonHealth::sheds`]) instead of parking the caller — the
    /// load-shedding entry point for callers that would rather drop a
    /// wave than stall their own loop.
    pub fn try_submit(
        &self,
        image: &Image,
        config: &EncryptionConfig,
        creds: Vec<EnrollmentRecord>,
    ) -> Result<BatchHandle, SubmitError> {
        self.submit_inner(image, config, creds, Wait::Shed)
    }

    /// Deadline-bounded [`ProvisioningDaemon::submit`]: waits out
    /// backpressure for at most `timeout`, then sheds the batch with
    /// [`SubmitError::Timeout`].
    pub fn submit_deadline(
        &self,
        image: &Image,
        config: &EncryptionConfig,
        creds: Vec<EnrollmentRecord>,
        timeout: Duration,
    ) -> Result<BatchHandle, SubmitError> {
        self.submit_inner(
            image,
            config,
            creds,
            Wait::Deadline(Instant::now() + timeout),
        )
    }

    /// Queue a delta batch: one `ERIC2D` frame per credential for a
    /// delta already diffed with
    /// [`SoftwareSource::prepare_delta`](crate::SoftwareSource::prepare_delta).
    ///
    /// Delta preparation is the caller's (cheap) diff over two prepared
    /// images, so there is no cache lookup; the batch rides the same
    /// claim cursor, buffer pool, backpressure, and panic containment
    /// as a full-image wave. Each delivered [`WireFrame`] parses with
    /// [`DeltaPackage::from_wire`](crate::Frame::from_wire).
    ///
    /// # Errors
    ///
    /// Submission after [`ProvisioningDaemon::shutdown`] began.
    /// Per-device failures (wrong epoch, packaging errors) are
    /// reported in-stream, never here.
    pub fn submit_delta(
        &self,
        delta: &PreparedDelta,
        creds: Vec<EnrollmentRecord>,
    ) -> Result<BatchHandle, EricError> {
        self.enqueue(
            JobImage::Delta(Arc::new(delta.clone())),
            creds,
            Wait::Block,
            false,
        )
        .map_err(EricError::from)
    }

    fn submit_inner(
        &self,
        image: &Image,
        config: &EncryptionConfig,
        creds: Vec<EnrollmentRecord>,
        wait: Wait,
    ) -> Result<BatchHandle, SubmitError> {
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return Err(SubmitError::ShutDown);
        }
        let lookup = self
            .shared
            .cache
            .get_or_prepare(&self.shared.source, image, config)
            .map_err(SubmitError::Rejected)?;
        self.enqueue(JobImage::Full(lookup.prepared), creds, wait, lookup.hit)
    }

    fn enqueue(
        &self,
        image: JobImage,
        creds: Vec<EnrollmentRecord>,
        wait: Wait,
        cache_hit: bool,
    ) -> Result<BatchHandle, SubmitError> {
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return Err(SubmitError::ShutDown);
        }
        let devices = creds.len();
        let (tx, rx) = std::sync::mpsc::sync_channel(self.workers);
        let handle = BatchHandle {
            rx,
            pool: self.shared.pool.clone(),
            devices,
            cache_hit,
        };
        if devices == 0 {
            return Ok(handle); // tx dropped here: the stream is already complete
        }
        let job = Arc::new(BatchJob {
            image,
            creds,
            cursor: AtomicUsize::new(0),
            tx,
            done: AtomicUsize::new(0),
        });
        let mut queue = lock_clean(&self.shared.queue);
        loop {
            // Checked under the lock on every pass, the first included:
            // a worker exits only after seeing `shutdown` with no job
            // left under this same lock, so a job pushed here is always
            // claimed by a live worker.
            if self.shared.shutdown.load(Ordering::Relaxed) {
                return Err(SubmitError::ShutDown);
            }
            if queue.jobs.len() < self.shared.queue_depth {
                break;
            }
            queue = match wait {
                Wait::Block => self
                    .shared
                    .state_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner),
                Wait::Shed => {
                    self.shared.health.sheds.fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::QueueFull);
                }
                Wait::Deadline(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        self.shared.health.sheds.fetch_add(1, Ordering::Relaxed);
                        return Err(SubmitError::Timeout);
                    }
                    self.shared
                        .state_cv
                        .wait_timeout(queue, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
        // Counted before the push, under the lock a worker takes to
        // claim the job: the count happens before any of its devices
        // can complete, which is what keeps `health()` snapshots
        // ordered.
        self.shared
            .health
            .submitted
            .fetch_add(devices as u64, Ordering::Relaxed);
        queue.jobs.push_back(job);
        queue.active += 1;
        drop(queue);
        self.shared.work_cv.notify_all();
        Ok(handle)
    }

    /// Snapshot the daemon's health ledger: queue occupancy, the
    /// terminal-outcome accounting, sheds, contained panics, and
    /// reported retries.
    pub fn health(&self) -> DaemonHealth {
        let (queued_batches, active_batches) = {
            let queue = lock_clean(&self.shared.queue);
            (queue.jobs.len(), queue.active)
        };
        let h = &self.shared.health;
        // Read in the reverse of write order. A worker bumps
        // `completed` then `failed` (both `Release`), each after
        // claiming its job under the queue lock that `submitted` was
        // bumped under, so each `Acquire` load below sees at least
        // every increment behind the counts already read.
        let failed_devices = h.failed.load(Ordering::Acquire);
        let completed_devices = h.completed.load(Ordering::Acquire);
        let submitted_devices = h.submitted.load(Ordering::Acquire);
        DaemonHealth {
            queued_batches,
            active_batches,
            submitted_devices,
            completed_devices,
            failed_devices,
            sheds: h.sheds.load(Ordering::Relaxed),
            panics: h.panics.load(Ordering::Relaxed),
            retries: h.retries.load(Ordering::Relaxed),
        }
    }

    /// Fold `n` delivery retries into [`DaemonHealth::retries`] — the
    /// reporting hook for retry loops (e.g.
    /// [`ResilientDelivery`](crate::ResilientDelivery)) driving frames
    /// this daemon packaged.
    pub fn note_retries(&self, n: u64) {
        self.shared.health.retries.fetch_add(n, Ordering::Relaxed);
    }

    /// Install (or, with `None`, clear) a probe called with each
    /// device's batch index inside the worker's panic-containment
    /// region, before packaging.
    ///
    /// This is the chaos harness's fault-injection point: a probe that
    /// panics exercises exactly the containment path a packaging bug
    /// would, without needing one.
    pub fn set_packaging_hook(&self, hook: Option<PackagingHook>) {
        *lock_clean(&self.shared.hook) = hook;
    }

    /// Block until every submitted batch has completed.
    ///
    /// Callers must be consuming (or have dropped) the outstanding
    /// [`BatchHandle`]s — an unconsumed handle stalls its workers on
    /// the bounded outcome channel, and with them this drain.
    pub fn drain(&self) {
        let mut queue = lock_clean(&self.shared.queue);
        while queue.active > 0 {
            queue = self
                .shared
                .state_cv
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stop accepting submissions, finish every queued batch, and join
    /// the workers. Dropping the daemon does the same.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Signal shutdown without joining: new submissions start failing
    /// and producers parked in [`ProvisioningDaemon::submit`]
    /// backpressure observe it immediately (they return an error, not
    /// deadlock), while workers still drain every accepted batch.
    /// Call [`ProvisioningDaemon::shutdown`] — or drop the daemon —
    /// to join the workers afterwards.
    pub fn begin_shutdown(&self) {
        // Set under the queue lock that every check before parking
        // holds: a worker or producer that read `false` there is
        // parked by the time the wake-ups below go out, so none is
        // lost.
        let queue = lock_clean(&self.shared.queue);
        self.shared.shutdown.store(true, Ordering::Relaxed);
        drop(queue);
        self.shared.work_cv.notify_all();
        self.shared.state_cv.notify_all();
    }

    fn stop_and_join(&mut self) {
        self.begin_shutdown();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for ProvisioningDaemon {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Render a caught panic payload into the [`EricError::Panic`]
/// message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn worker_loop(shared: &DaemonShared) {
    loop {
        // Claim the oldest job with work left; park when there is
        // none. Shutdown is checked only when idle, so every accepted
        // batch drains before the worker exits.
        let job = {
            let mut queue = lock_clean(&shared.queue);
            loop {
                while queue.jobs.front().is_some_and(|j| j.is_drained()) {
                    queue.jobs.pop_front();
                    shared.state_cv.notify_all();
                }
                if let Some(job) = queue.jobs.iter().find(|j| !j.is_drained()) {
                    break job.clone();
                }
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                queue = shared
                    .work_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        while let Some(index) = job.claim() {
            let cred = &job.creds[index];
            let t0 = Instant::now();
            let mut buf = shared.pool.take();
            let hook = lock_clean(&shared.hook).clone();
            // Containment region: a panic in the probe or in packaging
            // unwinds only to here. `buf` is borrowed, not moved, so
            // it survives the unwind and goes back to the pool — a
            // panicking device cannot leak pool buffers.
            let packaged = catch_unwind(AssertUnwindSafe(|| {
                if let Some(hook) = &hook {
                    hook(index);
                }
                match &job.image {
                    JobImage::Full(prepared) => shared
                        .source
                        .package_prepared_into(prepared, cred, &mut buf),
                    JobImage::Delta(delta) => {
                        shared.source.package_delta_into(delta, cred, &mut buf)
                    }
                }
            }));
            let result = match packaged {
                Ok(Ok(info)) => Ok(WireFrame { info, bytes: buf }),
                Ok(Err(e)) => {
                    shared.pool.recycle(buf);
                    Err(e)
                }
                Err(payload) => {
                    shared.pool.recycle(buf);
                    shared.health.panics.fetch_add(1, Ordering::Relaxed);
                    Err(EricError::Panic(panic_message(payload)))
                }
            };
            // `Release`, paired with the `Acquire` loads in `health()`.
            shared.health.completed.fetch_add(1, Ordering::Release);
            if result.is_err() {
                shared.health.failed.fetch_add(1, Ordering::Release);
            }
            let outcome = WireOutcome {
                index,
                device_id: cred.device_id.clone(),
                elapsed: t0.elapsed(),
                result,
            };
            if let Err(undelivered) = job.tx.send(outcome) {
                // Handle dropped: the batch is abandoned but still
                // accounted — reclaim the buffer and keep draining.
                if let Ok(frame) = undelivered.0.result {
                    shared.pool.recycle(frame.bytes);
                }
            }
            if job.done.fetch_add(1, Ordering::AcqRel) + 1 == job.creds.len() {
                let mut queue = lock_clean(&shared.queue);
                queue.active -= 1;
                drop(queue);
                shared.state_cv.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::package::{Frame, Package};

    const PROGRAM: &str = "main:\n li a0, 41\n addi a0, a0, 1\n li a7, 93\n ecall\n";

    fn fleet(n: usize, base_seed: u64) -> (Vec<Device>, Vec<EnrollmentRecord>) {
        let mut devices: Vec<Device> = (0..n)
            .map(|i| Device::with_seed(base_seed + i as u64, &format!("unit-{i}")))
            .collect();
        let creds = devices.iter_mut().map(Device::enroll).collect();
        (devices, creds)
    }

    #[test]
    fn buffer_pool_recycles_capacity() {
        let pool = BufferPool::new();
        let mut a = pool.take();
        assert_eq!(pool.created(), 1);
        a.extend_from_slice(&[1, 2, 3]);
        let cap = a.capacity();
        pool.recycle(a);
        let b = pool.take();
        assert_eq!(pool.created(), 1, "reuse, not a new allocation");
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap);
    }

    #[test]
    fn daemon_round_trips_frames_and_hits_cache_on_wave_two() {
        let (mut devices, creds) = fleet(6, 2000);
        let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 3);
        let image = daemon.source().compile(PROGRAM, false).unwrap();
        let config = EncryptionConfig::full();
        for wave in 0..3 {
            let handle = daemon.submit(&image, &config, creds.clone()).unwrap();
            assert_eq!(handle.cache_hit(), wave > 0);
            assert_eq!(handle.devices(), 6);
            let mut delivered = 0;
            for outcome in handle.iter() {
                let frame = outcome.result.unwrap();
                assert_eq!(frame.bytes.len(), frame.info.wire_len);
                let package = Package::from_wire(&frame.bytes).unwrap();
                assert_eq!(package.nonce, frame.info.nonce);
                let run = devices[outcome.index].install_and_run(&package).unwrap();
                assert_eq!(run.exit_code, 42);
                handle.recycle(frame);
                delivered += 1;
            }
            assert_eq!(delivered, 6);
        }
        let stats = daemon.cache().stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        // Steady state: no more buffers than could ever be in flight.
        assert!(daemon.pool().created() <= 2 * daemon.workers() + 2);
        daemon.shutdown();
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 2);
        let image = daemon.source().compile(PROGRAM, false).unwrap();
        let handle = daemon
            .submit(&image, &EncryptionConfig::full(), Vec::new())
            .unwrap();
        assert_eq!(handle.devices(), 0);
        assert!(handle.recv().is_none());
        daemon.drain(); // nothing active: returns at once
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let (_, creds) = fleet(1, 2100);
        let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 1);
        let image = daemon.source().compile(PROGRAM, false).unwrap();
        let shared = daemon.shared.clone();
        daemon.shutdown();
        let daemon = ProvisioningDaemon {
            shared,
            threads: Vec::new(),
            workers: 1,
        };
        let err = daemon
            .submit(&image, &EncryptionConfig::full(), creds)
            .unwrap_err();
        assert!(matches!(err, EricError::Config(_)));
    }

    /// `try_submit` sheds instead of blocking: a depth-1 queue holding
    /// a stalled batch refuses the next submission with `QueueFull`,
    /// counts the shed, and accepts a retry once the queue drains.
    #[test]
    fn try_submit_sheds_when_the_queue_is_full() {
        let (_, creds) = fleet(4, 2300);
        let daemon = ProvisioningDaemon::start_with(SoftwareSource::new("vendor"), 1, 8, 1);
        let image = daemon.source().compile(PROGRAM, false).unwrap();
        let config = EncryptionConfig::full();
        // h1's outcomes are not consumed yet: its job occupies the
        // single queue slot while the worker stalls on the bounded
        // outcome channel.
        let h1 = daemon.try_submit(&image, &config, creds.clone()).unwrap();
        let shed = daemon.try_submit(&image, &config, creds.clone());
        assert!(matches!(shed, Err(SubmitError::QueueFull)), "{shed:?}");
        assert_eq!(daemon.health().sheds, 1);
        // Draining h1 frees the slot (once the worker retires the
        // drained job); the shed wave then retries successfully.
        for outcome in h1.iter() {
            h1.recycle(outcome.result.unwrap());
        }
        let h2 = loop {
            match daemon.try_submit(&image, &config, creds.clone()) {
                Ok(h) => break h,
                Err(SubmitError::QueueFull) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => panic!("unexpected refusal: {e}"),
            }
        };
        assert_eq!(h2.iter().count(), 4);
        let health = daemon.health();
        assert_eq!(health.submitted_devices, 8);
        assert_eq!(health.completed_devices, 8);
        assert_eq!(health.failed_devices, 0);
        daemon.shutdown();
    }

    /// `submit_deadline` bounds the backpressure wait and counts the
    /// timeout as a shed.
    #[test]
    fn submit_deadline_times_out_instead_of_parking_forever() {
        let (_, creds) = fleet(2, 2400);
        let daemon = ProvisioningDaemon::start_with(SoftwareSource::new("vendor"), 1, 8, 1);
        let image = daemon.source().compile(PROGRAM, false).unwrap();
        let config = EncryptionConfig::full();
        // Unconsumed h1 keeps its job in the queue's only slot.
        let h1 = daemon.submit(&image, &config, creds.clone()).unwrap();
        let t0 = Instant::now();
        let shed = daemon.submit_deadline(&image, &config, creds, Duration::from_millis(50));
        assert!(matches!(shed, Err(SubmitError::Timeout)), "{shed:?}");
        assert!(t0.elapsed() >= Duration::from_millis(50));
        assert_eq!(daemon.health().sheds, 1);
        drop(h1);
        daemon.shutdown();
    }

    /// `recv_timeout` distinguishes a pending stream from a complete
    /// one and never blocks past its bound.
    #[test]
    fn recv_timeout_reports_pending_and_complete() {
        let (_, creds) = fleet(1, 2500);
        let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 1);
        let image = daemon.source().compile(PROGRAM, false).unwrap();
        let handle = daemon
            .submit(&image, &EncryptionConfig::full(), creds)
            .unwrap();
        let outcome = loop {
            match handle.recv_timeout(Duration::from_millis(100)) {
                RecvTimeout::Outcome(o) => break o,
                RecvTimeout::TimedOut => continue,
                RecvTimeout::Complete => panic!("stream ended with no outcome"),
            }
        };
        handle.recycle(outcome.result.unwrap());
        assert!(matches!(
            handle.recv_timeout(Duration::from_millis(100)),
            RecvTimeout::Complete
        ));
        daemon.shutdown();
    }

    /// A panic while packaging one device is contained: that device
    /// fails with `EricError::Panic`, its siblings complete, no pool
    /// buffer leaks, and the daemon accepts the next batch.
    #[test]
    fn worker_panic_is_contained_to_one_device() {
        let (_, creds) = fleet(6, 2600);
        let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 2);
        let image = daemon.source().compile(PROGRAM, false).unwrap();
        let config = EncryptionConfig::full();
        daemon.set_packaging_hook(Some(Arc::new(|index| {
            if index == 3 {
                panic!("injected chaos panic");
            }
        })));
        let handle = daemon.submit(&image, &config, creds.clone()).unwrap();
        let mut ok = 0;
        let mut panicked = 0;
        for outcome in handle.iter() {
            match outcome.result {
                Ok(frame) => {
                    ok += 1;
                    handle.recycle(frame);
                }
                Err(EricError::Panic(msg)) => {
                    assert_eq!(outcome.index, 3);
                    assert!(msg.contains("injected chaos panic"), "{msg}");
                    panicked += 1;
                }
                Err(other) => panic!("unexpected failure: {other}"),
            }
        }
        assert_eq!((ok, panicked), (5, 1));
        daemon.set_packaging_hook(None);
        // The panicked device's buffer went back to the pool, and the
        // daemon still serves clean batches.
        assert_eq!(daemon.pool().created(), daemon.pool().pooled());
        let handle = daemon.submit(&image, &config, creds).unwrap();
        assert_eq!(handle.iter().filter(|o| o.result.is_ok()).count(), 6);
        let health = daemon.health();
        assert_eq!(health.panics, 1);
        assert_eq!(health.failed_devices, 1);
        assert_eq!(health.completed_devices, 12);
        daemon.shutdown();
    }

    /// A delta wave rides the same pool: every device gets an
    /// `ERIC2D` frame for its own key, applies it over the installed
    /// base, and runs the new version.
    #[test]
    fn daemon_fans_out_delta_frames_per_device() {
        use crate::delta::DeltaPackage;
        let (mut devices, creds) = fleet(5, 2700);
        let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 2);
        let cfg = EncryptionConfig::full().with_segments(8);
        let source = daemon.source();
        let image = source.compile(PROGRAM, false).unwrap();
        let next_image = source
            .compile("main:\n li a0, 17\n li a7, 93\n ecall\n", false)
            .unwrap();
        let base = source.prepare_image(&image, &cfg).unwrap();
        let next = source.prepare_image(&next_image, &cfg).unwrap();

        // Wave 1: full install via the daemon.
        let mut installed: Vec<Option<crate::delta::InstalledImage>> =
            (0..devices.len()).map(|_| None).collect();
        let handle = daemon.submit(&image, &cfg, creds.clone()).unwrap();
        for outcome in handle.iter() {
            let frame = outcome.result.unwrap();
            let package = Package::from_wire(&frame.bytes).unwrap();
            installed[outcome.index] = Some(devices[outcome.index].install(&package).unwrap());
            handle.recycle(frame);
        }

        // Wave 2: delta batch, one frame per device key.
        let delta = source.prepare_delta(&base, &next).unwrap();
        let handle = daemon.submit_delta(&delta, creds).unwrap();
        assert!(!handle.cache_hit());
        let mut patched = 0;
        for outcome in handle.iter() {
            let frame = outcome.result.unwrap();
            assert_eq!(frame.bytes.len(), frame.info.wire_len);
            let delta_pkg = DeltaPackage::from_wire(&frame.bytes).unwrap();
            assert_eq!(delta_pkg.nonce, frame.info.nonce);
            let device = &mut devices[outcome.index];
            let base_img = installed[outcome.index].as_ref().unwrap();
            let new_img = device.apply_delta(base_img, &delta_pkg).unwrap();
            assert_eq!(device.run_installed(&new_img).unwrap().exit_code, 17);
            handle.recycle(frame);
            patched += 1;
        }
        assert_eq!(patched, 5);
        let health = daemon.health();
        assert_eq!(health.submitted_devices, 10);
        assert_eq!(health.completed_devices, 10);
        assert_eq!(health.failed_devices, 0);
        daemon.shutdown();
    }

    /// `note_retries` folds external delivery retries into the ledger.
    #[test]
    fn note_retries_accumulates() {
        let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 1);
        daemon.note_retries(3);
        daemon.note_retries(4);
        assert_eq!(daemon.health().retries, 7);
        daemon.shutdown();
    }

    #[test]
    fn dropped_handle_abandons_cleanly_and_recycles_frames() {
        let (_, creds) = fleet(8, 2200);
        let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), 2);
        let image = daemon.source().compile(PROGRAM, false).unwrap();
        let handle = daemon
            .submit(&image, &EncryptionConfig::full(), creds)
            .unwrap();
        drop(handle); // abandon before consuming anything
        daemon.drain(); // workers still drain the batch

        // Frames rejected by the closed channel were recycled; only
        // outcomes already buffered in the channel when the receiver
        // dropped are lost with it — at most `workers` (its capacity).
        let (created, pooled) = (daemon.pool().created(), daemon.pool().pooled());
        assert!(
            created - pooled <= daemon.workers(),
            "lost {} of {created} buffers",
            created - pooled
        );
        daemon.shutdown();
    }
}
