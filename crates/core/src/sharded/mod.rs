//! The sharded multi-core engine: one algorithm instance per thread.
//!
//! The paper scales HeavyKeeper across cores by RSS-style partitioning:
//! the NIC hashes each flow to one receive queue, and every queue's
//! packets are measured independently (Section VII). [`ShardedEngine`]
//! is that architecture in software, generalized over *every* algorithm
//! in the workspace — HK variants and baselines alike — through the
//! [`PreparedInsert`] capability (whose supertrait is
//! [`TopKAlgorithm`]):
//!
//! * **Hash-once routing.** The dispatch plane prepares each key
//!   exactly once. When every shard reports the same
//!   [`PreparedInsert::hash_spec`] **and** consumes prepared batches
//!   ([`PreparedInsert::consumes_prepared`] — the common case for HK
//!   shards, which share a seed to stay merge-compatible), the same
//!   [`PreparedKey`] that picks the shard (via [`PreparedKey::lane`],
//!   a further fold of the hash, independent of bucket placement) is
//!   **shipped to the worker**, which ingests through
//!   [`PreparedInsert::insert_prepared_batch`] — no second hash
//!   anywhere. Shards with divergent specs (e.g. per-shard seeds), or
//!   shards that would discard prepared state (non-hashing baselines),
//!   fall back to routing under a dedicated seed and worker-side
//!   `insert_batch`.
//! * **Zero-alloc dispatch.** Keys are partitioned into per-shard
//!   structure-of-arrays sub-batches (`keys` + `PreparedKey`s, plain
//!   `Copy` stores — [`FlowKey`] keys are small POD, never cloned
//!   through an allocation). Filled sub-batches travel to workers over
//!   a bounded, preallocated [`sync_channel`] per shard and the drained
//!   buffers come back over a per-shard **return channel**, so after
//!   warm-up a steady stream dispatches with no allocation at all
//!   ([`ShardedEngine::dispatch_buffers_allocated`] stops moving).
//!   A full work channel is **backpressure**: the dispatcher blocks in
//!   `send` until the worker frees a slot, instead of queueing without
//!   bound.
//! * **Merge at query.** Because flows are partitioned, the global
//!   top-k is the k largest of the union of per-shard top-ks — no
//!   cross-shard double counting. For HK shards the classic sketch
//!   [`crate::merge`] machinery is additionally available through
//!   [`ShardedEngine::merged`], which folds every shard into one
//!   instance for network-wide-style queries.
//!
//! ## Batch boundary and snapshot semantics
//!
//! Scalar [`TopKAlgorithm::insert`] calls accumulate in a per-shard
//! pending buffer and are dispatched when
//! [`ShardedEngine::batch_capacity`] packets are buffered;
//! [`TopKAlgorithm::insert_batch`] dispatches at every call boundary.
//! Any read ([`TopKAlgorithm::query`] / [`TopKAlgorithm::top_k`])
//! first dispatches pending packets and then **flushes**: it waits until
//! every shard has drained its channel, so reads always observe every
//! packet inserted before them — the pipeline lag is bounded by the
//! flush, not exposed to readers. Within one shard packets are
//! processed in arrival order by a single thread, so results are
//! deterministic: independent of scheduling, equal to running each
//! shard's sub-stream sequentially.
//!
//! ## Worker wakeups and shutdown
//!
//! A worker blocks in the channel's `recv` when idle and wakes on the
//! next message; the channel's own disconnect is the shutdown signal.
//! Dropping a shard's sender (engine drop, respawn, reshard teardown)
//! lets the worker drain what was queued and exit, and a worker that
//! exits or unwinds drops its receiver, so the dispatcher's next `send`
//! — even one already blocked on a full channel — fails instead of
//! waiting forever.
//!
//! ## Worker death
//!
//! A shard algorithm that panics inside ingest kills its worker thread.
//! The engine does **not** propagate that as a panic on the caller
//! thread: the shard is marked *poisoned*, [`ShardedEngine::flush`]
//! (and the non-trait ingest/rotation entry points) report it as a
//! [`ShardPoisoned`] error, packets routed to it are dropped and counted
//! in [`ShardedEngine::lost_packets`], and reads keep serving from the
//! surviving shards (a poisoned shard's flows go unreported — its state
//! may be torn mid-insert).
//!
//! ## Checkpoint/respawn recovery
//!
//! Poisoning alone leaves a dead shard dark forever. With
//! [`ShardedEngine::enable_checkpoints`] the engine turns worker death
//! into a *bounded-loss, self-healing* event instead:
//!
//! * **Checkpointing.** Every shard's algorithm is periodically encoded
//!   (via [`ShardCheckpoint`](hk_common::algorithm::ShardCheckpoint) — the encoding is the algorithm's own wire
//!   format, so wire frames double as restart state) into an in-engine
//!   checkpoint slot. Checkpoint *ops* ride the work channel like any
//!   control message, so a checkpoint captures the state after exactly
//!   the packets dispatched before it — a well-defined cut of the
//!   shard's sub-stream. Cadence: every `N` dispatched batches, at
//!   every [`ShardedEngine::rotate_all`] barrier, and on demand via
//!   [`ShardedEngine::checkpoint_now`]. The codec runs at memory speed
//!   (slicing-by-16 CRC, word-at-a-time bucket cells): a W = 4 window
//!   of 2 × 32 618-bucket epochs checkpoints as a 3.1 MB frame in ~3 ms
//!   and restores in ~3.5 ms on a 2-vCPU host, which is what every
//!   checkpointed `rotate_all` pays per shard.
//! * **Respawn.** [`ShardedEngine::recover`] decodes each poisoned
//!   shard's last checkpoint, spawns a fresh worker with fresh
//!   work/return channels, re-admits the lane, and reports the *dark window* — the
//!   packets routed to the shard after the checkpoint cut, which the
//!   restored state does not include — in a [`RecoveryReport`]. With
//!   [`ShardedEngine::set_auto_recover`] the ingest entry points run
//!   the same recovery as soon as they observe a dead worker, so the
//!   stream heals without caller involvement. Reads during the dark
//!   window keep degrading to the surviving shards as before.
//! * **Fault injection.** Recovery code only exercised by hand-crafted
//!   thread aborts rots; [`ShardedEngine::set_fault_plan`] installs a
//!   deterministic [`FaultPlan`](crate::fault::FaultPlan) — kill /
//!   mid-walk / wedge at exact sub-stream positions — threaded through
//!   the worker loop, so every recovery path has a reproducible test.
//!
//! ## Epoch rotation
//!
//! For epoch-organized shards (e.g. [`crate::SlidingTopK`]) the engine
//! phase-aligns period boundaries across shards:
//! [`ShardedEngine::rotate_all`] dispatches everything pending and then
//! enqueues a rotation control message behind it on every shard's
//! work channel, so every shard rotates at the same point of its sub-stream
//! without a stop-the-world barrier.
//!
//! ## Layout
//!
//! This module holds the engine's types, construction, the one worker
//! birth (`spawn`, which construction, recovery and resharding all
//! call), the worker loop, the reads and [`ShardedEngine::rotate_all`].
//! The rest is split by concern:
//!
//! * `dispatch` — routing, the bounded send and its backpressure
//!   policy, death detection and the flush barrier;
//! * `lifecycle` — checkpoints, [`ShardedEngine::recover`] and
//!   [`ShardedEngine::reshard`], with their reports and errors;
//! * `export` — the phase-aligned wire-frame exports of a sliding
//!   engine.

use crate::config::HkConfig;
use crate::fault::{FaultKind, FaultPlan, ShardFaults};
use crate::merge::MergeError;
use crate::minimum::MinimumTopK;
use crate::parallel::ParallelTopK;
use hk_common::algorithm::{EpochRotate, PreparedInsert, TopKAlgorithm};
use hk_common::key::FlowKey;
use hk_common::prepared::{HashSpec, PreparedKey};
use hk_obs::{ObsHub, WorkerObs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

mod dispatch;
mod export;
mod lifecycle;

pub use lifecycle::{RecoverError, RecoveryReport, ReshardError, ReshardReport};

/// Seed of the fallback routing hash, used only when shards disagree on
/// their [`PreparedInsert::hash_spec`] (so no single prepared key is
/// portable to every shard). Distinct from every algorithm seed in use
/// so shard assignment stays independent of bucket placement.
const ROUTE_SEED: u64 = 0x5EED_0F50 ^ 0xA110_C8ED;

/// Default number of scalar inserts buffered before a dispatch.
pub const DEFAULT_BATCH_CAPACITY: usize = 4096;

/// Work-channel depth per shard: how many dispatched sub-batches may be
/// in flight before the dispatcher blocks (backpressure). Small on
/// purpose — at the default batch size one slot is thousands of
/// packets, and a deep channel would only hide a slow shard behind
/// queue growth.
const WORK_RING_CAPACITY: usize = 8;

/// Return-channel depth: work channel + the buffer the worker holds +
/// the one the dispatcher is filling, so a drained buffer essentially
/// always finds a free return slot (an overflowing return drops the
/// buffer — self-correcting, the dispatcher allocates a fresh one on
/// demand).
const RECYCLE_RING_CAPACITY: usize = WORK_RING_CAPACITY + 2;

/// What the dispatcher does when a shard's work channel is full.
///
/// The channel is deliberately shallow ([`WORK_RING_CAPACITY`] slots), so
/// a shard that falls behind fills it fast; this policy decides whether
/// the *whole* dispatch plane then runs at the slow shard's pace or the
/// slow shard's overflow is dropped. See
/// [`ShardedEngine::set_backpressure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Hold the message until the worker frees a slot — lossless, the
    /// default: dispatch throughput degrades to the slowest shard's.
    #[default]
    Block,
    /// Drop the crossing sub-batch and count its packets in
    /// [`ShardedEngine::shed_packets`] — lossy: dispatch never stalls
    /// behind one slow shard. Only packet batches are ever shed;
    /// control ops (rotation, checkpoint barriers) always block, so
    /// phase alignment and checkpoint cuts stay exact under shedding.
    Shed,
}

/// A routed sub-batch in structure-of-arrays form: flow keys and, on
/// the hash-once handoff path, their prepared hash state (index
/// aligned; empty in route-only mode). Buffers cycle dispatcher →
/// work channel → worker → return channel → dispatcher, keeping their
/// capacity, so steady-state dispatch neither allocates nor frees.
struct SubBatch<K> {
    keys: Vec<K>,
    prepared: Vec<PreparedKey>,
    /// Dispatch timestamp for the dispatch→drain latency histogram.
    /// Stamped only when an [`ObsHub`] is attached (one `Instant::now`
    /// per *batch*, at the batch boundary — never per packet), `None`
    /// otherwise.
    sent_at: Option<Instant>,
}

impl<K> SubBatch<K> {
    fn new() -> Self {
        Self {
            keys: Vec::new(),
            prepared: Vec::new(),
            sent_at: None,
        }
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.prepared.clear();
        self.sent_at = None;
    }
}

/// One unit of shard-worker work: a routed sub-batch, or a control
/// operation applied to the shard's algorithm in stream order (e.g. the
/// epoch rotation of [`ShardedEngine::rotate_all`]). Because the channel
/// preserves order and every shard receives the same cut — all
/// sub-batches dispatched before the op, none after — control ops stay
/// phase-aligned across shards.
enum ShardMsg<K, A> {
    Batch(SubBatch<K>),
    Op(Box<dyn FnOnce(&mut A) + Send>),
}

/// Error: one or more shard workers died mid-stream (the shard's
/// algorithm panicked while ingesting). The engine keeps serving from
/// the surviving shards; packets routed to a poisoned shard are
/// counted in [`ShardedEngine::lost_packets`] and dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPoisoned {
    /// Indices of the dead shards, ascending.
    pub shards: Vec<usize>,
}

impl std::fmt::Display for ShardPoisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard worker(s) {:?} died (algorithm panicked during ingest)",
            self.shards
        )
    }
}

impl std::error::Error for ShardPoisoned {}

/// A shard's last taken checkpoint: the encoded restart state plus the
/// routed-packet count at its cut (the value of the shard's cumulative
/// routed counter when the checkpoint op was enqueued — by channel order,
/// exactly the packets the worker had applied when it encoded).
/// The bytes are shared, not copied: a recovery, a reshard drain and
/// [`ShardedEngine::checkpoint_bytes`] each take a reference under the
/// slot lock.
#[derive(Clone)]
struct CheckpointSlot {
    bytes: Arc<Vec<u8>>,
    packets: u64,
}

/// The checkpoint plane, present once
/// [`ShardedEngine::enable_checkpoints`] ran: the cadence plus `A`'s
/// [`ShardCheckpoint`](hk_common::algorithm::ShardCheckpoint) codec,
/// captured as plain fn pointers so the unbounded engine paths
/// (dispatch, rotate) can schedule checkpoints without that bound.
struct Checkpointing<A> {
    /// Dispatched batches per shard between scheduled checkpoints.
    every: u64,
    encode: fn(&A) -> Vec<u8>,
    restore: fn(&[u8]) -> Option<A>,
}

/// Messages a shard's two channels carried (work + return), behind the
/// `ring_pushes`/`ring_pops` obs gauges. Relaxed: statistics only.
#[derive(Default)]
struct Transit {
    sent: AtomicU64,
    received: AtomicU64,
}

struct Shard<K, A> {
    algo: Arc<Mutex<A>>,
    /// Dispatcher → worker transport (sub-batches + control ops).
    /// Dropping it is the worker's shutdown signal. The return
    /// channel's receiver lives in [`Pending`], under the lock
    /// `take_buffer` already holds.
    work: SyncSender<ShardMsg<K, A>>,
    /// Flush units handed to the worker (batch lengths + 1 per op).
    /// Written only on the producer side, under the pending lock.
    enqueued: AtomicU64,
    /// Flush units the worker has fully applied.
    processed: Arc<AtomicU64>,
    /// Packets handed to the worker (batch lengths only: control ops
    /// carry none). Producer side, under the pending lock.
    packets_sent: AtomicU64,
    /// Packets the worker has fully applied. On death, `packets_sent -
    /// packets_applied` is the backlog lost with it.
    packets_applied: Arc<AtomicU64>,
    /// Send/receive counts on both channels.
    transit: Arc<Transit>,
    /// Set once the worker is observed dead with work outstanding; the
    /// shard is skipped from then on instead of panicking the caller
    /// thread.
    poisoned: AtomicBool,
    /// Cumulative packets routed to this shard (enqueued *or* dropped
    /// dead), written on the producer side under the pending lock.
    /// Rebased to the checkpoint cut on respawn, so `routed - ckpt`
    /// is the dark window across repeated kills.
    packets_routed: AtomicU64,
    /// Batches dispatched since the last scheduled checkpoint
    /// (producer side, under the pending lock).
    ckpt_batches: AtomicU64,
    /// The last taken checkpoint, shared with in-flight checkpoint ops.
    /// A respawn starts from a copy of it.
    checkpoint: Arc<Mutex<Option<CheckpointSlot>>>,
    /// This shard index's slice of the installed fault plan. Carried
    /// across respawns and reshards so repeated faults keep firing in
    /// sequence.
    faults: Arc<ShardFaults>,
    /// The worker's observation bundle: set at birth when a hub is
    /// attached, else later by [`ShardedEngine::attach_obs`]. Unset =
    /// instrumentation off: the worker pays one atomic load per batch
    /// and nothing else.
    obs: Arc<OnceLock<WorkerObs>>,
    worker: JoinHandle<()>,
}

impl<K, A> Shard<K, A> {
    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Closes the work channel and reaps the worker, which drains what
    /// was queued and exits (a dead worker is just reaped).
    fn retire(self) {
        drop(self.work);
        let _ = self.worker.join();
    }
}

struct Pending<K> {
    per_shard: Vec<SubBatch<K>>,
    /// Each shard's return channel: drained buffers coming back.
    recycled: Vec<Receiver<SubBatch<K>>>,
    total: usize,
}

/// A multi-core top-k engine: `N` owned shards of any
/// [`PreparedInsert`] algorithm, fed hash-partitioned prepared
/// sub-batches over bounded channels.
///
/// # Examples
///
/// ```
/// use heavykeeper::{HkConfig, ShardedEngine, ParallelTopK};
/// use hk_common::TopKAlgorithm;
///
/// let cfg = HkConfig::builder().width(512).k(8).seed(1).build();
/// let mut engine = ShardedEngine::parallel(&cfg, 4);
/// let batch: Vec<u64> = (0..40_000).map(|i| i % 10).collect();
/// engine.insert_batch(&batch);
/// assert_eq!(engine.top_k().len(), 8);
/// ```
pub struct ShardedEngine<K: FlowKey, A: TopKAlgorithm<K>> {
    shards: Vec<Shard<K, A>>,
    /// The spec keys are prepared under on the dispatch thread: the
    /// shards' shared [`PreparedInsert::hash_spec`] in handoff mode,
    /// a dedicated routing spec otherwise.
    route: HashSpec,
    /// True when every shard shares `route` and therefore consumes the
    /// dispatcher's prepared keys directly (hash-once handoff).
    handoff: bool,
    k: usize,
    batch_capacity: usize,
    pending: Mutex<Pending<K>>,
    /// Packets routed to a shard after its worker died (dropped, since
    /// no thread can ingest them).
    lost: AtomicU64,
    /// Sub-batch buffers ever allocated (the initial per-shard set plus
    /// any allocated when the return channel came up empty). Flat after
    /// warm-up — the recycling invariant the tests pin down.
    buffers_allocated: AtomicU64,
    /// `None` until [`ShardedEngine::enable_checkpoints`].
    checkpointing: Option<Checkpointing<A>>,
    /// When set, ingest entry points respawn dead shards themselves.
    auto_recover: bool,
    /// Every recovery this engine has performed, in order.
    recovery_log: Vec<RecoveryReport>,
    /// Full-work-channel policy (see [`BackpressurePolicy`]).
    backpressure: BackpressurePolicy,
    /// Packets dropped by [`BackpressurePolicy::Shed`] on full channels —
    /// the lossy-policy sibling of [`ShardedEngine::lost_packets`].
    shed: AtomicU64,
    /// The installed fault plan, kept so a reshard can arm shard
    /// indices the old topology never had (`None` when no plan).
    fault_plan: Option<FaultPlan>,
    /// Every reshard migration this engine has run, in order
    /// (committed and rolled back alike).
    reshard_log: Vec<ReshardReport>,
    /// The attached observability hub; `None` (the default) disables
    /// all instrumentation down to one branch per dispatched batch.
    obs: Option<Arc<ObsHub>>,
}

impl<K, A> ShardedEngine<K, A>
where
    K: FlowKey + Send + 'static,
    A: PreparedInsert<K> + Send + 'static,
{
    /// Builds the engine from pre-configured shard instances, reporting
    /// the `k` largest flows at query time.
    ///
    /// When every instance reports the same
    /// [`PreparedInsert::hash_spec`] and consumes prepared batches,
    /// the engine runs in hash-once handoff mode: keys are prepared
    /// once on the dispatch thread (routing rides
    /// [`PreparedKey::lane`]) and workers ingest the shipped prepared
    /// batches without re-hashing. Divergent specs (e.g. deliberately
    /// different per-shard seeds) or prepared-discarding shards fall
    /// back to a dedicated routing hash with worker-side
    /// `insert_batch`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or `k == 0`.
    pub fn from_shards(shards: Vec<A>, k: usize) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        assert!(k > 0, "k must be positive");
        let n = shards.len();
        let first_spec = shards[0].hash_spec();
        // Handoff mode needs both halves: every shard must *accept* the
        // same prepared keys (equal specs) and actually *read* them
        // (`consumes_prepared`) — shipping 12 B/packet of prepared
        // state to an algorithm that discards it is pure overhead, so
        // such shards get routing-only dispatch instead.
        let handoff = shards
            .iter()
            .all(|s| s.hash_spec() == first_spec && s.consumes_prepared());
        let route = if handoff {
            first_spec
        } else {
            HashSpec::new(ROUTE_SEED, 32)
        };
        let mut engine = Self {
            shards: Vec::with_capacity(n),
            route,
            handoff,
            k,
            batch_capacity: DEFAULT_BATCH_CAPACITY,
            pending: Mutex::new(Pending {
                per_shard: (0..n).map(|_| SubBatch::new()).collect(),
                recycled: Vec::with_capacity(n),
                total: 0,
            }),
            lost: AtomicU64::new(0),
            buffers_allocated: AtomicU64::new(n as u64),
            checkpointing: None,
            auto_recover: false,
            recovery_log: Vec::new(),
            backpressure: BackpressurePolicy::Block,
            shed: AtomicU64::new(0),
            fault_plan: None,
            reshard_log: Vec::new(),
            obs: None,
        };
        for (idx, algo) in shards.into_iter().enumerate() {
            let (shard, recycled) = engine.spawn(idx, algo, None);
            engine.shards.push(shard);
            engine.pending_mut().recycled.push(recycled);
        }
        engine
    }

    /// Brings shard `idx`'s worker to life around `algo`: the one birth
    /// every worker takes — at construction (no checkpoint), on
    /// recovery (the dead shard's last checkpoint) and in a reshard
    /// (the carried state's baseline). Both packet counters start at
    /// the checkpoint's cut, so dark windows and fault thresholds stay
    /// in cumulative sub-stream coordinates across respawns and
    /// migrations. An index the engine already has keeps its fault
    /// slice (consumed faults stay consumed); a new index arms its
    /// slice of the installed plan. With a hub attached the worker
    /// reports into slot `idx` from birth. Returns the shard and the
    /// receiving end of its return channel, which the caller installs
    /// in [`Pending`] when it installs the shard.
    fn spawn(
        &self,
        idx: usize,
        algo: A,
        checkpoint: Option<CheckpointSlot>,
    ) -> (Shard<K, A>, Receiver<SubBatch<K>>) {
        let base = checkpoint.as_ref().map_or(0, |c| c.packets);
        let faults = match self.shards.get(idx) {
            Some(shard) => Arc::clone(&shard.faults),
            None => {
                let faults = ShardFaults::default();
                if let Some(plan) = &self.fault_plan {
                    faults.install(plan.specs_for(idx));
                }
                Arc::new(faults)
            }
        };
        let obs = Arc::new(match &self.obs {
            Some(hub) => OnceLock::from(hub.worker(idx)),
            None => OnceLock::new(),
        });
        let algo = Arc::new(Mutex::new(algo));
        let processed = Arc::new(AtomicU64::new(0));
        let packets_applied = Arc::new(AtomicU64::new(0));
        let transit = Arc::new(Transit::default());
        let (work, work_rx) = sync_channel(WORK_RING_CAPACITY);
        let (recycle_tx, recycled) = sync_channel(RECYCLE_RING_CAPACITY);
        let worker = {
            let algo = Arc::clone(&algo);
            let processed = Arc::clone(&processed);
            let packets_applied = Arc::clone(&packets_applied);
            let transit = Arc::clone(&transit);
            let faults = Arc::clone(&faults);
            let obs = Arc::clone(&obs);
            let handoff = self.handoff;
            std::thread::spawn(move || {
                Self::worker_loop(
                    &algo,
                    work_rx,
                    recycle_tx,
                    &processed,
                    &packets_applied,
                    base,
                    &transit,
                    &faults,
                    handoff,
                    &obs,
                )
            })
        };
        let shard = Shard {
            algo,
            work,
            enqueued: AtomicU64::new(0),
            processed,
            packets_sent: AtomicU64::new(0),
            packets_applied,
            transit,
            poisoned: AtomicBool::new(false),
            packets_routed: AtomicU64::new(base),
            ckpt_batches: AtomicU64::new(0),
            checkpoint: Arc::new(Mutex::new(checkpoint)),
            faults,
            obs,
            worker,
        };
        (shard, recycled)
    }

    /// The shard worker: apply the work channel's messages in order and
    /// return drained buffers, blocking in `recv` when idle. Runs until
    /// the dispatcher drops its sender (engine drop, respawn, reshard)
    /// and the backlog is drained — or an injected fault takes it down
    /// first. Either way `work` drops with this frame (on return or
    /// unwind), so the dispatcher's sends fail from then on. `applied`
    /// is the worker's stream position, starting at its checkpoint's
    /// cut: the position fault thresholds are measured against.
    /// `processed` counts flush units, `packets_applied` packets only.
    #[allow(clippy::too_many_arguments)]
    fn worker_loop(
        algo: &Mutex<A>,
        work: Receiver<ShardMsg<K, A>>,
        recycled: SyncSender<SubBatch<K>>,
        processed: &AtomicU64,
        packets_applied: &AtomicU64,
        mut applied: u64,
        transit: &Transit,
        faults: &ShardFaults,
        handoff: bool,
        obs: &OnceLock<WorkerObs>,
    ) {
        while let Ok(msg) = work.recv() {
            transit.received.fetch_add(1, Ordering::Relaxed);
            match msg {
                ShardMsg::Batch(mut batch) => {
                    let units = batch.keys.len() as u64;
                    if let Some((threshold, kind)) = faults.crossing(applied, units) {
                        match kind {
                            // Clean death at a batch boundary: nothing
                            // of the crossing batch is applied.
                            FaultKind::Kill => {
                                // hk-lint: allow(panic-free-worker-paths) deliberate fault injection: this panic IS the simulated worker death
                                panic!("fault injection: kill at {threshold} packets")
                            }
                            // Torn death: apply the batch up to the
                            // threshold, then die *holding* the algo
                            // mutex — sketch torn mid-stream, mutex
                            // poisoned. The worst case recovery must
                            // absorb.
                            FaultKind::MidWalk => {
                                let cut = (threshold.saturating_sub(applied) as usize)
                                    .min(batch.keys.len());
                                let mut guard = algo.lock().unwrap_or_else(PoisonError::into_inner);
                                if handoff {
                                    guard.insert_prepared_batch(
                                        &batch.keys[..cut],
                                        &batch.prepared[..cut],
                                    );
                                } else {
                                    guard.insert_batch(&batch.keys[..cut]);
                                }
                                // hk-lint: allow(panic-free-worker-paths) deliberate fault injection: dies holding the algo mutex to simulate a torn walk
                                panic!("fault injection: mid-walk at {threshold} packets")
                            }
                            // Silent stop: exit without panicking. The
                            // receiver drops on return, so a dispatcher
                            // blocked on a full channel fails instead of
                            // waiting on a shard that will never drain.
                            FaultKind::Wedge => return,
                        }
                    }
                    {
                        // A *live* worker can only observe poison from
                        // a reader thread panicking in its `with_shard`
                        // closure (shared access — the sketch is not
                        // torn); a panic on this thread would have
                        // killed the worker already. Absorb and keep
                        // ingesting.
                        let mut guard = algo.lock().unwrap_or_else(PoisonError::into_inner);
                        if handoff {
                            guard.insert_prepared_batch(&batch.keys, &batch.prepared);
                        } else {
                            guard.insert_batch(&batch.keys);
                        }
                    }
                    // Instrumentation samples at the batch boundary:
                    // one counter bump and one histogram record per
                    // *drained batch*, and the latency clock was read
                    // at dispatch — the per-packet walk above stays
                    // timing- and counter-free.
                    if let Some(o) = obs.get() {
                        o.shard.ingest_batches.incr();
                        o.shard.ingest_packets.add(units);
                        o.batch_packets.record(units);
                        if let Some(sent) = batch.sent_at {
                            let ns = sent.elapsed().as_nanos();
                            o.latency_ns.record(u64::try_from(ns).unwrap_or(u64::MAX));
                        }
                    }
                    applied += units;
                    packets_applied.fetch_add(units, Ordering::Release);
                    processed.fetch_add(units, Ordering::Release);
                    // Hand the drained buffer back for reuse; a full
                    // return channel just drops it (the dispatcher will
                    // allocate a replacement on demand).
                    batch.clear();
                    if recycled.try_send(batch).is_ok() {
                        transit.sent.fetch_add(1, Ordering::Relaxed);
                    }
                }
                ShardMsg::Op(op) => {
                    {
                        let mut guard = algo.lock().unwrap_or_else(PoisonError::into_inner);
                        op(&mut guard);
                    }
                    processed.fetch_add(1, Ordering::Release);
                }
            }
        }
    }

    /// Builds the engine with `n` shards produced by `make(shard_index)`.
    pub fn from_fn(n: usize, k: usize, make: impl FnMut(usize) -> A) -> Self {
        let mut make = make;
        Self::from_shards((0..n).map(&mut make).collect(), k)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The scalar-insert buffering threshold (see the module docs).
    pub fn batch_capacity(&self) -> usize {
        self.batch_capacity
    }

    /// Overrides the scalar-insert buffering threshold.
    pub fn set_batch_capacity(&mut self, capacity: usize) {
        self.batch_capacity = capacity.max(1);
    }

    /// True when the engine ships dispatcher-prepared keys to workers
    /// (all shards share one hash spec **and** consume prepared
    /// batches); false when routing falls back to the dedicated seed
    /// and workers ingest through their own `insert_batch`.
    pub fn prepared_handoff(&self) -> bool {
        self.handoff
    }

    /// Sub-batch buffers allocated so far: the initial per-shard set
    /// plus one for every dispatch that found its shard's return
    /// channel empty. Flat after warm-up — the observable form of
    /// "steady-state dispatch allocates nothing".
    pub fn dispatch_buffers_allocated(&self) -> u64 {
        self.buffers_allocated.load(Ordering::Acquire)
    }

    /// The pending partition through `&mut self`: exclusive access
    /// needs no lock, and poison is absorbed as in `lock_pending`.
    fn pending_mut(&mut self) -> &mut Pending<K> {
        self.pending
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` against one shard's algorithm (flushed first), for
    /// diagnostics and merging. Returns `None` when the shard is
    /// poisoned (its worker died mid-ingest and its state may be torn)
    /// — the engine degrades to the surviving shards instead of
    /// panicking; [`ShardedEngine::poisoned_shards`] names the dead
    /// ones.
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&A) -> R) -> Option<R> {
        let _ = self.flush();
        let s = &self.shards[shard];
        if s.is_poisoned() {
            return None;
        }
        // A poisoned algo mutex (the worker panicked holding it) means
        // the same thing as a poisoned shard: torn state, no answer.
        let guard = s.algo.lock().ok()?;
        Some(f(&guard))
    }

    /// Indices of shards whose workers have died so far (ascending;
    /// empty in the healthy steady state). Detection happens on
    /// dispatch/flush boundaries, so call [`ShardedEngine::flush`]
    /// first for an up-to-date answer.
    pub fn poisoned_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_poisoned())
            .map(|(i, _)| i)
            .collect()
    }

    /// `Ok` while every worker lives, else the dead shards as a
    /// [`ShardPoisoned`] error.
    fn health(&self) -> Result<(), ShardPoisoned> {
        let dead = self.poisoned_shards();
        if dead.is_empty() {
            Ok(())
        } else {
            Err(ShardPoisoned { shards: dead })
        }
    }

    /// Packets dropped because their shard's worker was dead: packets
    /// routed to an already-poisoned shard, plus the packets that were
    /// queued (or mid-batch) when the worker died. Control ops queued
    /// behind a death are not packets and never count.
    pub fn lost_packets(&self) -> u64 {
        self.lost.load(Ordering::Acquire)
    }

    /// Packets dropped by [`BackpressurePolicy::Shed`] when their
    /// shard's work channel was full — the lossy-policy counter next to
    /// [`ShardedEngine::lost_packets`] (which counts dead-shard drops;
    /// the two never overlap). Always zero under the default
    /// [`BackpressurePolicy::Block`].
    pub fn shed_packets(&self) -> u64 {
        self.shed.load(Ordering::Acquire)
    }

    /// Attaches an observability hub: every stage of the engine starts
    /// reporting into it — dispatch/ingest counters, dispatch→drain
    /// latency and batch-size histograms, and journal events for
    /// worker death, recovery, reshard phases and shedding. Idempotent
    /// per shard slot (the worker's bundle is set once); workers born
    /// later (respawn, reshard) are wired at birth.
    ///
    /// With no hub attached (the default) the hot path pays one branch
    /// per dispatched batch and one relaxed load per drained batch.
    /// The attached cost is measured by perfbench's
    /// `trace.overhead_share_sharded` (hub and spans against neither);
    /// the old `obs_overhead` A/B bench could not resolve it (the same
    /// code read +5.4% and then −6.0%).
    pub fn attach_obs(&mut self, hub: Arc<ObsHub>) {
        for (idx, shard) in self.shards.iter().enumerate() {
            let _ = shard.obs.set(hub.worker(idx));
        }
        self.obs = Some(hub);
    }

    /// The attached hub, if any.
    pub fn obs(&self) -> Option<&Arc<ObsHub>> {
        self.obs.as_ref()
    }

    /// Publishes the engine-owned gauge totals (messages sent and
    /// received on the work and return channels, lost and shed
    /// packets) into the attached hub and returns a coherent snapshot.
    /// `None` when no hub is attached.
    pub fn obs_snapshot(&self) -> Option<hk_obs::Snapshot> {
        let hub = self.obs.as_ref()?;
        let mut pushes = 0u64;
        let mut pops = 0u64;
        for shard in &self.shards {
            pushes += shard.transit.sent.load(Ordering::Relaxed);
            pops += shard.transit.received.load(Ordering::Relaxed);
        }
        hub.stages.ring_pushes.set(pushes);
        hub.stages.ring_pops.set(pops);
        hub.stages.lost_packets.set(self.lost_packets());
        hub.stages.shed_packets.set(self.shed_packets());
        Some(hub.snapshot())
    }
}

impl<K, A> TopKAlgorithm<K> for ShardedEngine<K, A>
where
    K: FlowKey + Send + 'static,
    A: PreparedInsert<K> + Send + 'static,
{
    fn insert(&mut self, key: &K) {
        // Scalar fast path: the death scan piggybacks on the dispatch
        // boundary, not on every buffered insert.
        let dispatch = {
            let mut pending = self.lock_pending();
            self.route_into(std::slice::from_ref(key), &mut pending);
            pending.total >= self.batch_capacity
        };
        if dispatch {
            self.auto_recover_if_needed();
            let mut pending = self.lock_pending();
            if pending.total >= self.batch_capacity {
                self.dispatch_locked(&mut pending);
            }
        }
    }

    fn insert_batch(&mut self, keys: &[K]) {
        // Recover *before* routing, so a freshly respawned shard
        // receives this batch instead of dropping it.
        self.auto_recover_if_needed();
        let mut pending = self.lock_pending();
        self.route_into(keys, &mut pending);
        // A batch boundary is a dispatch boundary: hand every shard its
        // sub-batch now so workers overlap with the caller.
        self.dispatch_locked(&mut pending);
    }

    fn query(&self, key: &K) -> u64 {
        let _ = self.flush();
        let s = self.shard_of(key);
        if self.shards[s].is_poisoned() {
            // The flow's shard died mid-ingest; its state may be torn,
            // so report "unknown" rather than a garbage estimate.
            return 0;
        }
        match self.shards[s].algo.lock() {
            Ok(guard) => guard.query(key),
            // Poisoned mutex = worker died holding it; same degraded
            // answer as a poisoned shard.
            Err(_) => 0,
        }
    }

    fn top_k(&self) -> Vec<(K, u64)> {
        let _ = self.flush();
        let mut all: Vec<(K, u64)> = Vec::new();
        for shard in &self.shards {
            if shard.is_poisoned() {
                continue; // Dead shard: its flows are unreported.
            }
            let Ok(guard) = shard.algo.lock() else {
                continue; // Torn mid-walk: degrade like a poisoned shard.
            };
            all.extend(guard.top_k());
        }
        // Flows are partitioned, so the union has no duplicates; the
        // global top-k is the k largest. Ties break on key bytes so the
        // report is deterministic.
        all.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| a.0.key_bytes().as_slice().cmp(b.0.key_bytes().as_slice()))
        });
        all.truncate(self.k);
        all
    }

    fn memory_bytes(&self) -> usize {
        self.shards
            .iter()
            .filter_map(|s| {
                // A dead worker may have poisoned the mutex; its memory
                // is still allocated, so account it when readable and
                // fall back to the inner value otherwise.
                s.algo
                    .lock()
                    .map(|g| g.memory_bytes())
                    .or_else(|p| Ok::<usize, ()>(p.into_inner().memory_bytes()))
                    .ok()
            })
            .sum()
    }

    fn name(&self) -> &'static str {
        "Sharded"
    }
}

impl<K, A> ShardedEngine<K, A>
where
    K: FlowKey + Send + 'static,
    A: PreparedInsert<K> + EpochRotate + Send + 'static,
{
    /// Crosses one period boundary on **every** shard, phase-aligned:
    /// all pending packets are dispatched first, then a rotation
    /// control message is enqueued behind them on each shard's work
    /// channel. Because workers process their channel in order and
    /// every shard receives the same cut — everything inserted before
    /// this call lands pre-rotation, everything after lands
    /// post-rotation — the shard windows advance in lockstep without
    /// stopping the world: rotation overlaps with the caller like any
    /// other batch.
    ///
    /// # Errors
    ///
    /// Returns [`ShardPoisoned`] when dead shards were skipped (their
    /// windows no longer advance).
    pub fn rotate_all(&self) -> Result<(), ShardPoisoned> {
        {
            // The ops go out under the pending lock too, so all sends
            // stay serialized and no packet can slip between the
            // dispatch and the rotation cut.
            let mut pending = self.lock_pending();
            self.dispatch_locked(&mut pending);
            for idx in 0..self.shards.len() {
                self.send_to_shard(
                    idx,
                    ShardMsg::Op(Box::new(|a: &mut A| a.rotate_epoch())),
                    1,
                    0,
                );
                // A rotation is a natural checkpoint barrier: the
                // encode rides right behind the rotate op, so a restart
                // from it resumes at a clean epoch boundary.
                self.enqueue_checkpoint(idx);
            }
        }
        if let Some(hub) = &self.obs {
            hub.stages.rotations.incr();
        }
        self.health()
    }
}

impl<K: FlowKey + Send + 'static> ShardedEngine<K, crate::sliding::SlidingTopK<K>> {
    /// An engine of `shards` sliding windows (see
    /// [`ShardedEngine::parallel`] for the memory split): every shard
    /// runs a `window`-epoch [`SlidingTopK`](crate::sliding::SlidingTopK)
    /// ring, sharing `cfg`'s seed so the engine rides hash-once handoff
    /// and the shard windows stay merge-compatible.
    pub fn sliding(cfg: &HkConfig, shards: usize, window: usize) -> Self {
        let per = split_config(cfg, shards);
        Self::from_fn(shards, cfg.k, |_| {
            crate::sliding::SlidingTopK::new(per.clone(), window)
        })
    }
}

impl<K, A> EpochRotate for ShardedEngine<K, A>
where
    K: FlowKey + Send + 'static,
    A: PreparedInsert<K> + EpochRotate + Send + 'static,
{
    /// [`ShardedEngine::rotate_all`] through the infallible trait
    /// surface. A [`ShardPoisoned`] error is not lost, only deferred:
    /// the poisoned state is sticky, so the next
    /// [`ShardedEngine::flush`] (or [`ShardedEngine::poisoned_shards`])
    /// reports it — callers driving the engine generically should check
    /// one of those after the stream, as the CLI's windowed path does.
    fn rotate_epoch(&mut self) {
        let _ = self.rotate_all();
    }
}

impl<K: FlowKey, A: TopKAlgorithm<K>> Drop for ShardedEngine<K, A> {
    fn drop(&mut self) {
        // Drop every sender first so the workers drain their backlogs
        // in parallel, then reap them.
        let workers: Vec<JoinHandle<()>> = std::mem::take(&mut self.shards)
            .into_iter()
            .map(|shard| shard.worker)
            .collect();
        for worker in workers {
            let _ = worker.join();
        }
    }
}

/// Divides a configuration's width by the shard count so an `n`-shard
/// engine is accounted the same total sketch memory as one `cfg`
/// instance.
fn split_config(cfg: &HkConfig, shards: usize) -> HkConfig {
    let mut per = cfg.clone();
    per.width = (cfg.width / shards.max(1)).max(1);
    per
}

impl<K: FlowKey + Send + 'static> ShardedEngine<K, ParallelTopK<K>> {
    /// An engine of `shards` Parallel-variant instances. Each shard gets
    /// `cfg` with its width divided by the shard count, so total sketch
    /// memory matches a single `cfg` instance; all shards share `cfg`'s
    /// seed, which keeps them merge-compatible — and puts the engine in
    /// hash-once handoff mode (shared hash spec).
    pub fn parallel(cfg: &HkConfig, shards: usize) -> Self {
        let per = split_config(cfg, shards);
        Self::from_fn(shards, cfg.k, |_| ParallelTopK::new(per.clone()))
    }

    /// Folds every **live** shard into one Parallel instance via the
    /// classic sketch merge machinery ([`MergeMode::Sum`]: shards saw
    /// disjoint packets), for network-wide-style queries over one
    /// structure. Poisoned shards are skipped — the merged view
    /// degrades exactly like [`TopKAlgorithm::top_k`] does.
    ///
    /// # Errors
    ///
    /// [`MergeError::NoLiveShards`] when every shard is poisoned;
    /// otherwise the usual merge-compatibility errors.
    ///
    /// [`MergeMode::Sum`]: crate::merge::MergeMode::Sum
    pub fn merged(&self) -> Result<ParallelTopK<K>, MergeError> {
        let mut out: Option<ParallelTopK<K>> = None;
        for i in 0..self.shards() {
            let Some(part) = self.with_shard(i, |a| a.clone()) else {
                continue;
            };
            match &mut out {
                None => out = Some(part),
                Some(acc) => acc.merge_from(&part)?,
            }
        }
        out.ok_or(MergeError::NoLiveShards)
    }
}

impl<K: FlowKey + Send + 'static> ShardedEngine<K, MinimumTopK<K>> {
    /// An engine of `shards` Minimum-variant instances (see
    /// [`ShardedEngine::parallel`] for the memory split).
    pub fn minimum(cfg: &HkConfig, shards: usize) -> Self {
        let per = split_config(cfg, shards);
        Self::from_fn(shards, cfg.k, |_| MinimumTopK::new(per.clone()))
    }

    /// Folds every **live** shard into one Minimum instance via the
    /// sketch merge machinery (same degradation rules as the Parallel
    /// engine's `merged`: poisoned shards are skipped,
    /// [`MergeError::NoLiveShards`] when none survive).
    pub fn merged(&self) -> Result<MinimumTopK<K>, MergeError> {
        let mut out: Option<MinimumTopK<K>> = None;
        for i in 0..self.shards() {
            let Some(part) = self.with_shard(i, |a| a.clone()) else {
                continue;
            };
            match &mut out {
                None => out = Some(part),
                Some(acc) => acc.merge_from(&part)?,
            }
        }
        out.ok_or(MergeError::NoLiveShards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::BasicTopK;

    fn skewed_stream(n: usize, heavy: u64, tail: u64, seed: u64) -> Vec<u64> {
        let mut state = seed.max(1);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(2) {
                    (state >> 1) % heavy
                } else {
                    heavy + state % tail
                }
            })
            .collect()
    }

    fn cfg(w: usize, k: usize) -> HkConfig {
        HkConfig::builder().arrays(2).width(w).k(k).seed(5).build()
    }

    #[test]
    fn finds_elephants_like_sequential() {
        let stream = skewed_stream(60_000, 10, 3000, 9);
        let mut sharded = ShardedEngine::parallel(&cfg(256, 10), 4);
        let mut seq = ParallelTopK::<u64>::new(cfg(256, 10));
        sharded.insert_batch(&stream);
        seq.insert_batch(&stream);

        for (name, top) in [("sharded", sharded.top_k()), ("sequential", seq.top_k())] {
            let hits = top.iter().filter(|&&(f, _)| f < 10).count();
            assert!(hits >= 9, "{name} found only {hits}/10: {top:?}");
        }
    }

    #[test]
    fn partitioning_preserves_exact_counts() {
        // Each flow lands on exactly one shard, so an uncontended flow's
        // count is exact — sharding must not split or double-count it.
        let mut engine = ShardedEngine::parallel(&cfg(2048, 16), 4);
        assert!(engine.prepared_handoff(), "shared seed => handoff mode");
        let mut batch = Vec::new();
        for f in 0..16u64 {
            for _ in 0..100 * (f + 1) {
                batch.push(f);
            }
        }
        engine.insert_batch(&batch);
        for f in 0..16u64 {
            assert_eq!(engine.query(&f), 100 * (f + 1), "flow {f}");
        }
    }

    #[test]
    fn scalar_inserts_flush_on_read() {
        let mut engine = ShardedEngine::parallel(&cfg(128, 4), 2);
        for _ in 0..10 {
            engine.insert(&7u64);
        }
        // Far below batch_capacity, yet reads must see every packet.
        assert_eq!(engine.query(&7), 10);
        assert_eq!(engine.top_k()[0], (7, 10));
    }

    #[test]
    fn deterministic_across_runs() {
        let stream = skewed_stream(30_000, 8, 500, 3);
        let run = || {
            let mut e = ShardedEngine::parallel(&cfg(128, 8), 3);
            for chunk in stream.chunks(777) {
                e.insert_batch(chunk);
            }
            e.top_k()
        };
        assert_eq!(run(), run(), "thread scheduling must not leak into results");
    }

    #[test]
    fn works_for_any_algorithm_basic() {
        let mut engine = ShardedEngine::from_fn(3, 5, |_| BasicTopK::<u64>::new(cfg(256, 5)));
        let stream = skewed_stream(30_000, 5, 1000, 7);
        engine.insert_batch(&stream);
        let top = engine.top_k();
        let hits = top.iter().filter(|&&(f, _)| f < 5).count();
        assert!(hits >= 4, "top = {top:?}");
        assert_eq!(engine.name(), "Sharded");
        assert!(engine.memory_bytes() >= 3 * BasicTopK::<u64>::new(cfg(256, 5)).memory_bytes());
    }

    #[test]
    fn merged_view_uses_sketch_merge() {
        let mut engine = ShardedEngine::parallel(&cfg(1024, 8), 4);
        let mut batch = Vec::new();
        for f in 0..8u64 {
            for _ in 0..200 {
                batch.push(f);
            }
        }
        engine.insert_batch(&batch);
        let merged = engine.merged().expect("shards share config");
        for f in 0..8u64 {
            use hk_common::algorithm::TopKAlgorithm;
            assert_eq!(merged.query(&f), 200, "flow {f} after merge");
        }
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut engine = ShardedEngine::<u64, _>::parallel(&cfg(16, 4), 2);
        engine.insert_batch(&[]);
        assert!(engine.top_k().is_empty());
    }

    #[test]
    fn steady_state_dispatch_recycles_buffers() {
        // The recycled-buffer round trip: after warm-up, sub-batch
        // buffers cycle dispatcher → work ring → worker → return ring →
        // dispatcher, and the allocation counter stops moving no matter
        // how many more flushes run.
        let mut engine = ShardedEngine::parallel(&cfg(256, 8), 4);
        let stream = skewed_stream(8192, 16, 500, 11);
        // Warm-up: let buffer capacities and the recycle cycle converge
        // (flush after each batch so every buffer completes the trip).
        for _ in 0..16 {
            engine.insert_batch(&stream);
            engine.flush().expect("healthy engine");
        }
        let after_warmup = engine.dispatch_buffers_allocated();
        for _ in 0..64 {
            engine.insert_batch(&stream);
            engine.flush().expect("healthy engine");
        }
        assert_eq!(
            engine.dispatch_buffers_allocated(),
            after_warmup,
            "steady-state dispatch must reuse returned buffers, not allocate"
        );
        // Sanity: the counter is small — on the order of shards × ring
        // depth, not on the order of flush count.
        assert!(after_warmup <= (4 * (WORK_RING_CAPACITY as u64 + 2)) + 4);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedEngine::<u64, ParallelTopK<u64>>::from_shards(vec![], 4);
    }

    /// An algorithm that blows up on ingest, to exercise worker-death
    /// detection.
    struct Exploder;

    impl TopKAlgorithm<u64> for Exploder {
        fn insert(&mut self, _key: &u64) {
            panic!("boom");
        }
        fn query(&self, _key: &u64) -> u64 {
            0
        }
        fn top_k(&self) -> Vec<(u64, u64)> {
            Vec::new()
        }
        fn memory_bytes(&self) -> usize {
            0
        }
        fn name(&self) -> &'static str {
            "Exploder"
        }
    }

    impl PreparedInsert<u64> for Exploder {
        fn hash_spec(&self) -> HashSpec {
            HashSpec::new(0, 32)
        }
        fn insert_prepared(&mut self, key: &u64, _p: &PreparedKey) {
            self.insert(key);
        }
    }

    #[test]
    fn dead_worker_poisons_shard_instead_of_panicking() {
        let mut engine = ShardedEngine::from_shards(vec![Exploder], 1);
        engine.insert_batch(&[1u64]);
        // The worker panicked on the batch; the flush must surface that
        // as an inspectable error rather than spin forever or panic the
        // caller thread.
        let err = engine.flush().expect_err("dead worker must be reported");
        assert_eq!(err.shards, vec![0]);
        assert_eq!(engine.poisoned_shards(), vec![0]);
        assert!(err.to_string().contains("died"), "err = {err}");
        // Reads degrade to the surviving shards (none here) instead of
        // hanging or panicking.
        assert_eq!(engine.query(&1), 0);
        assert!(engine.top_k().is_empty());
        // Further ingest routed to the dead shard is dropped + counted,
        // without allocating a fresh buffer per dispatch: a long-lived
        // engine with a dead shard must stay zero-alloc too.
        let allocated = engine.dispatch_buffers_allocated();
        for _ in 0..32 {
            engine.insert_batch(&[2u64, 3u64]);
        }
        assert!(engine.flush().is_err());
        assert!(
            engine.lost_packets() >= 2,
            "lost = {}",
            engine.lost_packets()
        );
        assert_eq!(
            engine.dispatch_buffers_allocated(),
            allocated,
            "dispatch to a poisoned shard must not allocate"
        );
    }

    #[test]
    fn full_ring_on_dead_worker_drops_instead_of_hanging() {
        // Overrun a dead worker's bounded ring: the backpressure path
        // must detect the death and drop (counted), never spin forever.
        let mut engine = ShardedEngine::from_shards(vec![Exploder], 1);
        let stream: Vec<u64> = (0..64).collect();
        for _ in 0..4 * WORK_RING_CAPACITY {
            engine.insert_batch(&stream);
        }
        assert!(engine.flush().is_err());
        assert!(
            engine.lost_packets() > 0,
            "overrun packets must be counted lost"
        );
    }

    #[test]
    fn healthy_engine_reports_no_poisoned_shards() {
        let mut engine = ShardedEngine::parallel(&cfg(64, 4), 2);
        engine.insert_batch(&[1u64, 2, 3]);
        engine.flush().expect("healthy shards flush cleanly");
        assert!(engine.poisoned_shards().is_empty());
        assert_eq!(engine.lost_packets(), 0);
    }

    #[test]
    fn surviving_shards_keep_serving_after_one_death() {
        // Shard 0 explodes on its first packet; shard 1 is a real HK
        // instance. Flows routed to shard 1 must stay queryable.
        enum Mixed {
            Bad(Exploder),
            Good(Box<ParallelTopK<u64>>),
        }
        impl TopKAlgorithm<u64> for Mixed {
            fn insert(&mut self, key: &u64) {
                match self {
                    Mixed::Bad(a) => a.insert(key),
                    Mixed::Good(a) => a.insert(key),
                }
            }
            fn query(&self, key: &u64) -> u64 {
                match self {
                    Mixed::Bad(a) => a.query(key),
                    Mixed::Good(a) => a.query(key),
                }
            }
            fn top_k(&self) -> Vec<(u64, u64)> {
                match self {
                    Mixed::Bad(a) => a.top_k(),
                    Mixed::Good(a) => a.top_k(),
                }
            }
            fn memory_bytes(&self) -> usize {
                0
            }
            fn name(&self) -> &'static str {
                "Mixed"
            }
        }
        impl PreparedInsert<u64> for Mixed {
            fn hash_spec(&self) -> HashSpec {
                HashSpec::new(0, 32)
            }
            fn insert_prepared(&mut self, key: &u64, _p: &PreparedKey) {
                self.insert(key);
            }
        }
        let mut engine = ShardedEngine::from_shards(
            vec![
                Mixed::Bad(Exploder),
                Mixed::Good(Box::new(ParallelTopK::new(cfg(256, 4)))),
            ],
            4,
        );
        // Two packets of each of 20 flows; routing spreads them over
        // both shards.
        let mut batch = Vec::new();
        for f in 0..20u64 {
            batch.push(f);
            batch.push(f);
        }
        assert!(
            batch.iter().any(|f| engine.shard_of(f) == 0)
                && batch.iter().any(|f| engine.shard_of(f) == 1),
            "stream must hit both shards"
        );
        engine.insert_batch(&batch);
        let err = engine.flush().expect_err("exploding shard must poison");
        assert_eq!(err.shards, vec![0]);
        // Flows on the surviving shard answer exactly.
        let mut served = 0;
        for f in &batch {
            if engine.shard_of(f) == 1 {
                assert_eq!(engine.query(f), 2, "flow {f} on surviving shard");
                served += 1;
            }
        }
        assert!(served > 0, "stream never hit the surviving shard");
        assert!(engine.top_k().iter().all(|(f, _)| engine.shard_of(f) == 1));
    }

    #[test]
    fn divergent_shard_specs_fall_back_to_route_only() {
        // Deliberately different per-shard seeds: no single prepared
        // key fits every shard, so the engine must route under its own
        // seed and let workers hash — and still count exactly.
        let mut engine = ShardedEngine::from_fn(3, 8, |i| {
            ParallelTopK::<u64>::new(
                HkConfig::builder()
                    .arrays(2)
                    .width(1024)
                    .k(8)
                    .seed(100 + i as u64)
                    .build(),
            )
        });
        assert!(!engine.prepared_handoff(), "per-shard seeds => route-only");
        let mut batch = Vec::new();
        for f in 0..8u64 {
            for _ in 0..100 {
                batch.push(f);
            }
        }
        engine.insert_batch(&batch);
        for f in 0..8u64 {
            assert_eq!(engine.query(&f), 100, "flow {f}");
        }
    }

    #[test]
    fn sharded_export_is_phase_aligned_and_collectible() {
        use crate::collector::{AggregationRule, Collector};
        use crate::wire::{FrameKind, WindowFrame};

        let mut engine = ShardedEngine::<u64, _>::sliding(&cfg(1024, 8), 3, 2);
        assert!(engine.prepared_handoff());

        // No rotation yet: no closed epoch anywhere, so no deltas.
        engine.insert_batch(&(0..3000u64).map(|i| i % 6).collect::<Vec<_>>());
        assert!(engine.export_deltas(0, 500).unwrap().is_none());

        engine.rotate_all().unwrap();
        engine.insert_batch(&(0..3000u64).map(|i| 100 + i % 6).collect::<Vec<_>>());

        // Full frames: one per shard, all at the same rotation count
        // (the flush barrier), decodable, with the right switch ids.
        let frames = engine.export_frames(10, 500).unwrap();
        assert_eq!(frames.len(), 3);
        for (i, bytes) in frames.iter().enumerate() {
            let f = WindowFrame::<u64>::decode(bytes).unwrap();
            assert_eq!(f.kind, FrameKind::Full);
            assert_eq!(f.switch_id, 10 + i as u64);
            assert_eq!(f.rotation, 1, "phase-aligned rotation count");
            assert_eq!(f.window, 2);
            assert_eq!(f.epoch_packets, 500);
        }

        // Deltas exist now and carry the closed epoch of rotation 1.
        let deltas = engine.export_deltas(10, 500).unwrap().unwrap();
        assert_eq!(deltas.len(), 3);
        for bytes in &deltas {
            let f = WindowFrame::<u64>::decode(bytes).unwrap();
            assert_eq!(f.kind, FrameKind::Delta);
            assert_eq!(f.rotation, 1);
        }

        // A Sum-rule collector (shards are disjoint vantage points)
        // reassembles the full frames into the engine's own view.
        let mut coll = Collector::<u64>::new(16, AggregationRule::Sum);
        for bytes in &frames {
            coll.submit_window_frame(bytes).unwrap();
        }
        for f in (0..6u64).chain(100..106) {
            assert_eq!(
                coll.window_top_k()
                    .iter()
                    .find(|(k, _)| *k == f)
                    .map(|&(_, c)| c)
                    .unwrap_or(0),
                engine.query(&f),
                "flow {f}: collector view must match the engine"
            );
        }
    }

    #[test]
    fn sharded_dirty_export_primes_then_ships_lockstep() {
        use crate::wire::{FrameKind, WindowFrame};

        let mut engine = ShardedEngine::<u64, _>::sliding(&cfg(1024, 8), 3, 2);

        // No rotation yet: no closed epoch anywhere.
        engine.insert_batch(&(0..3000u64).map(|i| i % 6).collect::<Vec<_>>());
        assert!(engine.export_dirties(10, 500).unwrap().is_none());

        // One closed epoch: every shard primes its shadow, and the
        // batch declines as a unit (all-or-nothing lockstep).
        engine.rotate_all().unwrap();
        assert!(engine.export_dirties(10, 500).unwrap().is_none());

        engine.insert_batch(&(0..3000u64).map(|i| 100 + i % 6).collect::<Vec<_>>());
        engine.rotate_all().unwrap();
        let frames = engine
            .export_dirties(10, 500)
            .unwrap()
            .expect("every shard shadow is fresh");
        assert_eq!(frames.len(), 3);
        for (i, bytes) in frames.iter().enumerate() {
            let f = WindowFrame::<u64>::decode(bytes).unwrap();
            assert_eq!(f.kind, FrameKind::Dirty);
            assert_eq!(f.switch_id, 10 + i as u64);
            assert_eq!(f.rotation, 2, "phase-aligned rotation count");
            assert_eq!(f.window, 2);
            assert!(f.patch.is_some());
        }
    }

    #[test]
    fn rotate_all_keeps_shard_windows_phase_aligned() {
        use crate::sliding::SlidingTopK;
        // A 2-epoch window over 3 shards: flows inserted before the
        // second rotate_all must be gone after the third, exactly as in
        // the single-instance window.
        let mk = || ShardedEngine::from_fn(3, 8, |_| SlidingTopK::<u64>::new(cfg(256, 8), 2));
        let mut engine = mk();
        assert!(engine.prepared_handoff(), "windows share the epoch seed");
        let old: Vec<u64> = (0..6000u64).map(|i| i % 6).collect();
        let new: Vec<u64> = (0..6000u64).map(|i| 100 + i % 6).collect();
        engine.insert_batch(&old);
        engine.rotate_all().expect("healthy rotation");
        engine.insert_batch(&new);
        // Old flows still inside the 2-epoch window.
        for f in 0..6u64 {
            assert_eq!(engine.query(&f), 1000, "flow {f} still in window");
        }
        engine.rotate_all().expect("healthy rotation");
        engine.rotate_all().expect("healthy rotation");
        for f in 0..6u64 {
            assert_eq!(engine.query(&f), 0, "flow {f} must have slid out");
        }
        // Rotation and per-shard sub-streams are deterministic.
        let run = |mut e: ShardedEngine<u64, SlidingTopK<u64>>| {
            e.insert_batch(&old);
            e.rotate_all().unwrap();
            e.insert_batch(&new);
            e.top_k()
        };
        assert_eq!(run(mk()), run(mk()));
    }

    /// An algorithm whose ingest blocks until a shared gate opens:
    /// makes the worker deterministically slow so the work channel
    /// fills and the full-channel backpressure policies are observable.
    struct Gated {
        open: Arc<std::sync::atomic::AtomicBool>,
        count: u64,
    }

    impl TopKAlgorithm<u64> for Gated {
        fn insert(&mut self, _key: &u64) {
            while !self.open.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            self.count += 1;
        }
        fn query(&self, _key: &u64) -> u64 {
            self.count
        }
        fn top_k(&self) -> Vec<(u64, u64)> {
            vec![(7, self.count)]
        }
        fn memory_bytes(&self) -> usize {
            0
        }
        fn name(&self) -> &'static str {
            "Gated"
        }
    }

    impl PreparedInsert<u64> for Gated {
        fn hash_spec(&self) -> HashSpec {
            HashSpec::new(0, 32)
        }
        fn insert_prepared(&mut self, key: &u64, _p: &PreparedKey) {
            self.insert(key);
        }
    }

    #[test]
    fn shed_policy_drops_counted_packets_on_full_ring() {
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut engine = ShardedEngine::from_shards(
            vec![Gated {
                open: Arc::clone(&gate),
                count: 0,
            }],
            4,
        );
        engine.set_batch_capacity(1);
        assert_eq!(engine.backpressure(), BackpressurePolicy::Block);
        engine.set_backpressure(BackpressurePolicy::Shed);
        // The gated worker never frees a ring slot, so once the ring
        // fills every further batch must shed instead of stalling —
        // this loop terminates *because* Shed never blocks.
        let total = 20 * WORK_RING_CAPACITY as u64;
        for _ in 0..total {
            engine.insert_batch(&[7u64]);
        }
        assert!(engine.shed_packets() > 0, "full ring under Shed must shed");
        gate.store(true, Ordering::Release);
        engine.flush().expect("gated worker is alive, not dead");
        // Shed is bookkept loss, not silent loss: what was not shed was
        // applied, and none of it counts as dead-shard loss.
        assert_eq!(engine.query(&7), total - engine.shed_packets());
        assert_eq!(engine.lost_packets(), 0);
        assert!(engine.poisoned_shards().is_empty());
    }

    impl hk_common::ShardCheckpoint for Gated {
        fn encode_checkpoint(&self) -> Vec<u8> {
            self.count.to_le_bytes().to_vec()
        }
        fn restore_checkpoint(bytes: &[u8]) -> Option<Self> {
            Some(Gated {
                open: Arc::new(std::sync::atomic::AtomicBool::new(true)),
                count: u64::from_le_bytes(bytes.try_into().ok()?),
            })
        }
    }

    #[test]
    fn baseline_after_shedding_counts_only_later_packets_dark() {
        // Shed some packets, then take the baseline: its cut is the
        // routed count, so the shed packets stay counted once (as shed)
        // and the dark window of a later recovery holds exactly the
        // packets routed after the baseline.
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut engine = ShardedEngine::from_shards(
            vec![Gated {
                open: Arc::clone(&gate),
                count: 0,
            }],
            4,
        );
        engine.set_batch_capacity(1);
        engine.set_backpressure(BackpressurePolicy::Shed);
        let before = 20 * WORK_RING_CAPACITY as u64;
        for _ in 0..before {
            engine.insert_batch(&[7u64]);
        }
        let shed = engine.shed_packets();
        assert!(shed > 0, "full ring under Shed must shed");
        gate.store(true, Ordering::Release);
        engine.enable_checkpoints(1_000_000).expect("alive");
        let applied = before - shed;
        assert_eq!(engine.query(&7), applied);

        engine.set_backpressure(BackpressurePolicy::Block);
        engine.set_fault_plan(&FaultPlan::new().with(0, applied + 5, FaultKind::Kill));
        let after = 40u64;
        for _ in 0..after {
            engine.insert_batch(&[7u64]);
        }
        let reports = engine.recover().expect("baseline restores");
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].checkpoint_packets, before);
        assert_eq!(reports[0].dark_packets, after, "shed packets are not dark");
        assert_eq!(engine.shed_packets(), shed);
        assert_eq!(engine.query(&7), applied);
    }

    #[test]
    fn block_policy_stalls_until_worker_catches_up() {
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut engine = ShardedEngine::from_shards(
            vec![Gated {
                open: Arc::clone(&gate),
                count: 0,
            }],
            4,
        );
        engine.set_batch_capacity(1);
        // Open the gate from the side once the dispatcher is (almost
        // surely) parked on the full ring; under Block it must wait for
        // the worker rather than drop or shed anything.
        let opener = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                gate.store(true, Ordering::Release);
            })
        };
        let total = 20 * WORK_RING_CAPACITY as u64;
        for _ in 0..total {
            engine.insert_batch(&[7u64]);
        }
        engine.flush().expect("healthy worker");
        opener.join().expect("opener thread");
        assert_eq!(engine.query(&7), total, "Block delivers every packet");
        assert_eq!(engine.shed_packets(), 0);
        assert_eq!(engine.lost_packets(), 0);
    }

    #[test]
    fn wedge_under_block_fails_the_blocked_send_instead_of_hanging() {
        // The gated worker holds batch 1 while the dispatcher queues
        // WORK_RING_CAPACITY more and blocks in `send` on the next. The
        // gate opens only once that call has started; the worker then
        // applies batch 1 and wedges on batch 2: it exits without
        // panicking, its receiver drops, and the blocked send must fail
        // (poisoning the shard) rather than wait on a channel nobody
        // drains.
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let calls = Arc::new(AtomicU64::new(0));
        let mut engine = ShardedEngine::from_shards(
            vec![Gated {
                open: Arc::clone(&gate),
                count: 0,
            }],
            4,
        );
        engine.set_batch_capacity(1);
        engine.set_fault_plan(&FaultPlan::new().with(0, 1, FaultKind::Wedge));
        let opener = {
            let gate = Arc::clone(&gate);
            let calls = Arc::clone(&calls);
            std::thread::spawn(move || {
                while calls.load(Ordering::Acquire) < WORK_RING_CAPACITY as u64 + 2 {
                    std::thread::yield_now();
                }
                gate.store(true, Ordering::Release);
            })
        };
        let total = 20 * WORK_RING_CAPACITY as u64;
        for _ in 0..total {
            calls.fetch_add(1, Ordering::Release);
            engine.insert_batch(&[7u64]);
        }
        opener.join().expect("opener thread");
        let err = engine.flush().expect_err("a wedged worker reads as dead");
        assert_eq!(err.shards, vec![0]);
        // Exactly the first packet was applied; every other one was
        // queued behind the wedge, blocked on it, or routed after it.
        assert_eq!(engine.lost_packets(), total - 1);
        assert_eq!(engine.shed_packets(), 0);
    }

    #[test]
    fn engines_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedEngine<u64, ParallelTopK<u64>>>();
        assert_send_sync::<ShardedEngine<u64, crate::sliding::SlidingTopK<u64>>>();
    }

    fn checked_engine(width: usize, shards: usize) -> ShardedEngine<u64, ParallelTopK<u64>> {
        let mut engine = ShardedEngine::parallel(&cfg(width, 16), shards);
        engine
            .enable_checkpoints(1)
            .expect("fresh engine checkpoints");
        engine
    }

    /// 100·(f+1) packets of each of 16 flows — wide-sketch counts are
    /// exact, so reshard carry errors show up as off-by-anything.
    fn counting_batch() -> Vec<u64> {
        let mut batch = Vec::new();
        for f in 0..16u64 {
            for _ in 0..100 * (f + 1) {
                batch.push(f);
            }
        }
        batch
    }

    #[test]
    fn reshard_grow_preserves_exact_counts_under_live_traffic() {
        let mut engine = checked_engine(2048, 2);
        let batch = counting_batch();
        engine.insert_batch(&batch);
        let report = engine.reshard(4).expect("well-formed reshard");
        assert!(report.committed, "zero-fault grow commits: {report}");
        assert_eq!((report.from_shards, report.to_shards), (2, 4));
        assert_eq!(report.dark_packets, 0, "no fault => no dark window");
        assert_eq!(engine.shards(), 4);
        // Traffic keeps flowing into the new topology.
        engine.insert_batch(&batch);
        for f in 0..16u64 {
            assert_eq!(engine.query(&f), 2 * 100 * (f + 1), "flow {f}");
        }
        // The carry must never lose counts (no underestimation from the
        // split): every monitored flow is still reported, exactly once.
        let top = engine.top_k();
        for f in 0..16u64 {
            let hits: Vec<_> = top.iter().filter(|&&(k, _)| k == f).collect();
            assert_eq!(hits.len(), 1, "flow {f} reported exactly once");
            assert_eq!(hits[0].1, 2 * 100 * (f + 1));
        }
        assert_eq!(engine.reshard_log().len(), 1);
    }

    #[test]
    fn reshard_shrink_folds_donors_without_losing_counts() {
        let mut engine = checked_engine(2048, 4);
        let batch = counting_batch();
        engine.insert_batch(&batch);
        let report = engine.reshard(2).expect("well-formed reshard");
        assert!(report.committed, "zero-fault shrink commits: {report}");
        assert_eq!(report.cut_packets.iter().sum::<u64>(), batch.len() as u64);
        assert_eq!(engine.shards(), 2);
        engine.insert_batch(&batch);
        for f in 0..16u64 {
            assert_eq!(engine.query(&f), 2 * 100 * (f + 1), "flow {f}");
        }
    }

    #[test]
    fn reshard_carry_is_one_sided_even_when_the_sketch_is_tight() {
        // A deliberately narrow sketch under a heavy-tailed stream:
        // estimates collide, but the grow carry must be invisible —
        // each child replicates its parent's sketch and keeps its slice
        // of the parent's store, so every sketch estimate and every
        // monitored count is bit-identical across the migration.
        // Whatever one-sidedness held before (Theorem 2) still holds.
        let stream = skewed_stream(40_000, 10, 2000, 13);
        let mut engine = checked_engine(64, 2);
        engine.insert_batch(&stream);
        let before = engine.top_k();
        let before_est: Vec<(u64, u64)> =
            before.iter().map(|&(f, _)| (f, engine.query(&f))).collect();
        engine.reshard(4).expect("well-formed reshard");
        for &(f, est) in &before_est {
            assert_eq!(engine.query(&f), est, "flow {f}: sketch estimate moved");
        }
        // Every pre-reshard monitored flow is still monitored, at the
        // same count, on exactly the shard the new lane map routes it to.
        let mut monitored = std::collections::HashMap::new();
        for shard in 0..engine.shards() {
            for (f, c) in engine.with_shard(shard, |a| a.top_k()).expect("live") {
                assert!(
                    monitored.insert(f, c).is_none(),
                    "flow {f} monitored on two shards"
                );
            }
        }
        for &(f, est) in &before {
            assert_eq!(monitored.get(&f), Some(&est), "flow {f}: store carry");
        }
    }

    #[test]
    fn reshard_partitions_monitored_flows_by_new_routing() {
        let mut engine = checked_engine(2048, 2);
        engine.insert_batch(&counting_batch());
        engine.reshard(3).expect("well-formed reshard");
        for shard in 0..engine.shards() {
            let owned = engine.with_shard(shard, |a| a.top_k()).expect("live shard");
            for (f, _) in owned {
                assert_eq!(
                    engine.shard_of(&f),
                    shard,
                    "flow {f} monitored off its routed shard"
                );
            }
        }
    }

    #[test]
    fn reshard_misuse_is_an_error_not_a_rollback() {
        let mut engine: ShardedEngine<u64, ParallelTopK<u64>> =
            ShardedEngine::parallel(&cfg(256, 8), 2);
        assert_eq!(
            engine.reshard(4),
            Err(ReshardError::CheckpointsDisabled),
            "no encode/restore capability captured"
        );
        engine.enable_checkpoints(4).unwrap();
        assert_eq!(engine.reshard(0), Err(ReshardError::ZeroShards));
        assert!(engine.reshard_log().is_empty(), "misuse is not logged");
        // Same-count reshard is a committed no-op.
        let report = engine.reshard(2).unwrap();
        assert!(report.committed);
        assert_eq!(engine.shards(), 2);
    }

    #[test]
    fn reshard_recovers_from_kill_during_drain_and_commits() {
        let mut engine = checked_engine(1024, 2);
        let stream = skewed_stream(20_000, 8, 400, 3);
        engine.insert_batch(&stream);
        engine.flush().expect("healthy engine");
        let applied0 = stream.iter().filter(|f| engine.shard_of(f) == 0).count() as u64;
        // The fault crosses only when the *drain* dispatches the staged
        // sub-batch below — the stream above ends exactly at the
        // threshold and `>` does not fire.
        engine.set_fault_plan(&FaultPlan::new().kill(0, applied0));
        let mut victim = 0u64;
        while engine.shard_of(&victim) != 0 {
            victim += 1;
        }
        let staged = vec![victim; 50];
        engine.insert_batch(&staged); // stays pending: far below batch_capacity
        let report = engine.reshard(4).expect("well-formed reshard");
        assert!(report.committed, "drain heals and retries: {report}");
        assert_eq!(report.recoveries.len(), 1, "exactly the scheduled kill");
        assert_eq!(report.recoveries[0].shard, 0);
        // Dark window bound: cadence is one batch, so at most the
        // staged sub-batch that died with the worker goes dark.
        assert!(
            report.dark_packets <= staged.len() as u64,
            "dark window {} exceeds the staged batch",
            report.dark_packets
        );
        assert_eq!(engine.shards(), 4);
        // Post-commit traffic lands and counts stay one-sided.
        engine.insert_batch(&staged);
        engine.flush().expect("post-reshard engine is healthy");
        let est = engine.query(&victim);
        let truth = stream.iter().filter(|&&f| f == victim).count() as u64 + 100;
        assert!(est <= truth, "over-estimated after faulted reshard");
        assert!(
            est + report.dark_packets + staged.len() as u64 >= truth,
            "lost more than the dark window: est {est}, truth {truth}"
        );
    }

    #[test]
    fn reshard_rolls_back_when_donors_cannot_fold() {
        use crate::sliding::SlidingTopK;
        // Shard 1's window span differs: a 4 -> 2 shrink must fold
        // donors 0+1, hit the window mismatch, and roll back with the
        // old topology still serving.
        let mut engine = ShardedEngine::from_fn(4, 8, |i| {
            SlidingTopK::<u64>::new(cfg(512, 8), if i == 1 { 3 } else { 2 })
        });
        engine.enable_checkpoints(4).unwrap();
        let batch: Vec<u64> = (0..4000u64).map(|i| i % 8).collect();
        engine.insert_batch(&batch);
        let report = engine.reshard(2).expect("well-formed reshard");
        assert!(!report.committed, "mismatched donors cannot commit");
        let reason = report.rollback.as_deref().expect("rollback reason");
        assert!(
            reason.contains("not fold-compatible"),
            "unexpected reason: {reason}"
        );
        assert_eq!(engine.shards(), 4, "old topology survives the rollback");
        assert_eq!(engine.reshard_log().len(), 1);
        assert!(!engine.reshard_log()[0].committed);
        // Reads and writes keep working against the pre-swap state.
        engine.insert_batch(&batch);
        for f in 0..8u64 {
            assert_eq!(engine.query(&f), 1000, "flow {f} after rollback");
        }
    }

    #[test]
    fn reshard_grow_arms_dormant_fault_specs_on_new_shards() {
        // A spec naming shard 3 of a 2-shard engine is dormant until
        // the grow creates shard 3 — then it must fire on the fresh
        // worker and be recoverable through the normal path.
        let mut engine = checked_engine(1024, 2);
        engine.set_fault_plan(&FaultPlan::new().kill(3, 0));
        let stream = skewed_stream(10_000, 8, 400, 7);
        engine.insert_batch(&stream);
        engine
            .flush()
            .expect("dormant spec must not fire at 2 shards");
        assert!(engine.poisoned_shards().is_empty());
        let report = engine.reshard(4).expect("well-formed reshard");
        assert!(report.committed);
        // First packet routed to shard 3 crosses threshold 0.
        let mut probe = 0u64;
        while engine.shard_of(&probe) != 3 {
            probe += 1;
        }
        engine.insert_batch(&vec![probe; 64]);
        assert!(engine.flush().is_err(), "armed spec fires post-grow");
        assert_eq!(engine.poisoned_shards(), vec![3]);
        let healed = engine.recover().expect("baseline checkpoint restores");
        assert_eq!(healed.len(), 1);
        assert_eq!(healed[0].shard, 3);
        engine.flush().expect("healed engine");
    }

    #[test]
    fn obs_snapshot_covers_a_faulted_resharded_run() {
        let hub = Arc::new(hk_obs::ObsHub::new());
        let mut engine = checked_engine(2048, 2);
        engine.attach_obs(hub.clone());
        engine.set_fault_plan(&FaultPlan::new().kill(0, 200));
        engine.set_auto_recover(true);
        let batch = counting_batch();
        engine.insert_batch(&batch);
        // Auto-recovery fires on the next insert; a post-stream kill is
        // healed explicitly, the CLI's finish discipline.
        engine.recover().expect("checkpoint restores the kill");
        engine.flush().expect("recovered engine is healthy");
        let report = engine.reshard(4).expect("well-formed reshard");
        assert!(report.committed, "zero-fault grow commits: {report}");
        engine.insert_batch(&batch);
        engine.flush().expect("healthy after reshard");

        let snap = engine.obs_snapshot().expect("hub attached");
        // Stage counters: every packet dispatched, all of them ingested
        // (recovery replays the checkpointed prefix, so ingest can
        // exceed dispatch — never undershoot what survived).
        assert_eq!(snap.stages.dispatch_packets, 2 * batch.len() as u64);
        let ingested: u64 = snap.shards.iter().map(|s| s.ingest_packets).sum();
        assert!(ingested > 0, "workers reported ingest");
        assert!(snap.stages.recoveries >= 1, "kill was recovered");
        assert_eq!(snap.stages.reshards, 1);
        assert!(
            snap.stages.reshard_phases >= 4,
            "drain/rebuild/swap/commit each counted: {}",
            snap.stages.reshard_phases
        );
        assert!(snap.stages.ring_pushes > 0);
        assert!(snap.stages.checkpoints > 0);
        // Histograms saw the batches and their drain latencies.
        assert!(snap.batch_packets.count > 0);
        assert!(snap.dispatch_latency_ns.count > 0);
        assert!(
            snap.dark_packets.count >= 1,
            "recovery recorded its dark window"
        );
        // Journal: the full lifecycle story, in one faulted run.
        assert!(snap.journal.count_of("worker_death") >= 1);
        assert!(snap.journal.count_of("recovery") >= 1);
        assert!(snap.journal.count_of("reshard_phase") >= 4);
        assert_eq!(snap.journal.dropped, 0);
        // The journal agrees with the engine logs, the one home of
        // these facts: the recovery events in order, and the stage
        // counters (a same-count reshard is a committed no-op, neither
        // journaled nor counted).
        let journaled: Vec<(usize, u64)> = snap
            .journal
            .events
            .iter()
            .filter_map(|e| match e.kind {
                hk_obs::EventKind::Recovery {
                    shard,
                    dark_packets,
                } => Some((shard as usize, dark_packets)),
                _ => None,
            })
            .collect();
        let logged: Vec<(usize, u64)> = engine
            .recovery_log()
            .iter()
            .map(|r| (r.shard, r.dark_packets))
            .collect();
        assert_eq!(journaled, logged);
        assert_eq!(snap.stages.recoveries, engine.recovery_log().len() as u64);
        let migrations = engine
            .reshard_log()
            .iter()
            .filter(|r| r.committed && r.from_shards != r.to_shards)
            .count();
        assert_eq!(snap.stages.reshards, migrations as u64);
        // Both exposition formats carry the keys CI greps for.
        let json = snap.render_json();
        assert!(json.contains("\"dispatch_packets\""), "{json}");
        assert!(json.contains("\"kind\": \"recovery\""), "{json}");
        assert!(json.contains("\"kind\": \"reshard_phase\""), "{json}");
        let prom = snap.render_prometheus();
        assert!(prom.contains("hk_recoveries 1"), "{prom}");
    }

    #[test]
    fn dead_backlog_counts_packets_not_queued_control_ops() {
        // A windowed shard dies mid-walk with two rotation barriers
        // (rotate + checkpoint op each) queued behind the crossing
        // batch. Those ops die with the worker, but they are no
        // packets: loss must stay inside the dark window and every
        // offered packet is ingested, lost or shed — exactly once.
        let hub = Arc::new(hk_obs::ObsHub::new());
        let mut engine =
            ShardedEngine::<u64, crate::sliding::SlidingTopK<u64>>::sliding(&cfg(2048, 8), 2, 3);
        engine.attach_obs(hub);
        engine.enable_checkpoints(u64::MAX).expect("fresh engine");
        engine.set_fault_plan(&FaultPlan::new().with(0, 100, crate::fault::FaultKind::MidWalk));
        let batch: Vec<u64> = (0..2000).collect();
        {
            // Holding shard 0's algo stalls its worker on the crossing
            // batch (a mid-walk death applies under this lock), so the
            // control ops below are queued behind it, not refused.
            let algo = Arc::clone(&engine.shards[0].algo);
            let held = algo.lock().expect("worker has not died yet");
            engine.insert_batch(&batch);
            engine
                .rotate_all()
                .expect("the worker is stalled, not dead");
            engine
                .rotate_all()
                .expect("the worker is stalled, not dead");
            assert_eq!(
                engine.shards[0].enqueued.load(Ordering::Acquire)
                    - engine.shards[0].processed.load(Ordering::Acquire),
                engine.shards[0].packets_sent.load(Ordering::Acquire) + 4,
                "the crossing batch and four control ops are in flight"
            );
            drop(held);
        }
        assert!(engine.flush().is_err(), "shard 0 died");
        let healed = engine.recover().expect("baseline checkpoint restores");
        assert_eq!(healed.len(), 1);
        engine.insert_batch(&batch);
        engine.flush().expect("healed engine");

        let dark = healed[0].dark_packets;
        let lost = engine.lost_packets();
        assert!(lost > 0, "the crossing batch is lost");
        assert!(
            lost <= dark,
            "{lost} lost outside a {dark}-packet dark window"
        );
        let snap = engine.obs_snapshot().expect("hub attached");
        let ingested: u64 = snap.shards.iter().map(|s| s.ingest_packets).sum();
        let offered = 2 * batch.len() as u64;
        assert_eq!(
            offered,
            ingested + lost + engine.shed_packets(),
            "conservation: offered = ingested + lost + shed"
        );
    }

    #[test]
    fn detached_engine_has_no_obs_and_sheds_no_instrumentation_state() {
        let mut engine = ShardedEngine::parallel(&cfg(256, 8), 2);
        assert!(engine.obs().is_none());
        assert!(engine.obs_snapshot().is_none());
        engine.insert_batch(&counting_batch());
        engine.flush().expect("healthy");
        // Attaching mid-life starts counting from here on.
        let hub = Arc::new(hk_obs::ObsHub::new());
        engine.attach_obs(hub);
        engine.insert_batch(&counting_batch());
        engine.flush().expect("healthy");
        let snap = engine.obs_snapshot().expect("attached");
        assert_eq!(snap.stages.dispatch_packets, counting_batch().len() as u64);
    }
}
