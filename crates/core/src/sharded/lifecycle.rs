//! The lifecycle plane: checkpoints, worker recovery and live
//! resharding.
//!
//! Every lifecycle event ends in the same step — a worker born through
//! the engine's one `spawn`, from a [`CheckpointSlot`] whose cut its
//! packet counters start at — and records its facts once, in the
//! engine's logs ([`ShardedEngine::recovery_log`],
//! [`ShardedEngine::reshard_log`]); an attached obs hub journals the
//! same events at the same code points.
//!
//! * **Checkpoints** ride the work channel as control ops, so a slot
//!   holds the shard's state after exactly the packets routed before
//!   the op (its cut).
//! * **Recovery** ([`ShardedEngine::recover`]) restores each dead
//!   shard's last slot into a fresh worker and reports the *dark
//!   window*: the packets routed after the cut.
//! * **Resharding** ([`ShardedEngine::reshard`]) runs drain (a
//!   checkpoint barrier through every work channel), rebuild (every
//!   new shard restored from the donor checkpoints its lane interval
//!   overlaps) and swap (the new topology installed), rolling back to
//!   the old topology on any failure before the swap.
//!
//! **Lane intervals.** Routing folds a prepared key's 32-bit lane to a
//! shard by multiply-shift: `shard = (lane · n) >> 32`. Under that map
//! every shard owns one *contiguous* interval of lane space, so the
//! donors of a new shard — the old shards whose packets it must
//! inherit — are exactly the old shards whose intervals intersect its
//! own, a contiguous run computable without scanning lanes.

use super::dispatch::lane_to_shard;
use super::{CheckpointSlot, Checkpointing, ShardMsg, ShardPoisoned, ShardedEngine, SubBatch};
use crate::fault::FaultPlan;
use hk_common::algorithm::{PreparedInsert, ShardCheckpoint, ShardReshard};
use hk_common::key::FlowKey;
use hk_obs::{EventKind, ReshardStage};
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};

/// What one shard recovery did: which shard was respawned, where its
/// restoring checkpoint cut the sub-stream, and how many packets fell
/// in the *dark window* — routed to the shard after the checkpoint cut,
/// hence absent from the restored state. The dark window is the
/// recovery's loss bound: at most one checkpoint interval of that
/// shard's sub-stream plus whatever was routed while the shard was
/// down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Index of the respawned shard.
    pub shard: usize,
    /// Cumulative routed-packet position of the restoring checkpoint.
    pub checkpoint_packets: u64,
    /// Cumulative packets routed to the shard when recovery ran.
    pub routed_packets: u64,
    /// `routed_packets - checkpoint_packets`: the packets the restored
    /// shard never saw.
    pub dark_packets: u64,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} respawned from checkpoint @{} pkts ({} dark of {} routed)",
            self.shard, self.checkpoint_packets, self.dark_packets, self.routed_packets
        )
    }
}

/// Error: [`ShardedEngine::recover`] could not respawn a dead shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// [`ShardedEngine::enable_checkpoints`] was never called, so there
    /// is no restore path (the engine cannot name `A`'s decoder without
    /// the [`ShardCheckpoint`] capability being captured first).
    CheckpointsDisabled,
    /// The shard died before its first checkpoint was taken.
    NoCheckpoint {
        /// The shard that has no checkpoint to restore from.
        shard: usize,
    },
    /// The shard's checkpoint bytes failed to decode. Shards recovered
    /// earlier in the same call stay recovered.
    CheckpointCorrupt {
        /// The shard whose checkpoint did not decode.
        shard: usize,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::CheckpointsDisabled => {
                write!(f, "recovery requires enable_checkpoints to be called first")
            }
            Self::NoCheckpoint { shard } => {
                write!(f, "shard {shard} died before its first checkpoint")
            }
            Self::CheckpointCorrupt { shard } => {
                write!(f, "shard {shard}'s checkpoint bytes failed to decode")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

/// What one [`reshard`](ShardedEngine::reshard) call did.
///
/// A migration either **commits** — the new topology is installed, all
/// packet counters rebased to the donor checkpoint cuts — or **rolls
/// back**: the old topology keeps serving (degraded exactly as before
/// the call if shards were already poisoned) and `rollback` names the
/// reason. Either way `recoveries` lists every respawn the migration
/// was forced to run when a fault fired inside a phase, and
/// `dark_packets` sums their dark windows — the migration's total loss
/// bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReshardReport {
    /// Shard count before the migration.
    pub from_shards: usize,
    /// Requested shard count (equals the installed count iff committed).
    pub to_shards: usize,
    /// True when the new topology was installed.
    pub committed: bool,
    /// Per-old-shard routed-packet positions of the drain cuts, once
    /// the drain phase completed (empty on a rollback during drain).
    pub cut_packets: Vec<u64>,
    /// Sum of the dark windows of every recovery forced mid-migration.
    pub dark_packets: u64,
    /// Every respawn the migration performed, in order.
    pub recoveries: Vec<RecoveryReport>,
    /// `None` when committed; otherwise why the migration rolled back
    /// to the old topology.
    pub rollback: Option<String>,
}

impl std::fmt::Display for ReshardReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.committed {
            write!(
                f,
                "reshard {} -> {} committed ({} forced recoveries, {} dark packets)",
                self.from_shards,
                self.to_shards,
                self.recoveries.len(),
                self.dark_packets
            )
        } else {
            write!(
                f,
                "reshard {} -> {} rolled back: {} ({} forced recoveries, {} dark packets)",
                self.from_shards,
                self.to_shards,
                self.rollback.as_deref().unwrap_or("unknown"),
                self.recoveries.len(),
                self.dark_packets
            )
        }
    }
}

/// Why [`reshard`](ShardedEngine::reshard) could not run at all
/// (misuse — distinct from a fault-driven rollback, which is reported
/// through [`ReshardReport::rollback`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReshardError {
    /// A zero shard count was requested.
    ZeroShards,
    /// [`enable_checkpoints`](ShardedEngine::enable_checkpoints)
    /// was never called: without the captured encode/restore capability
    /// there is no way to cut, move, or rebuild shard state.
    CheckpointsDisabled,
}

impl std::fmt::Display for ReshardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroShards => write!(f, "cannot reshard to zero shards"),
            Self::CheckpointsDisabled => {
                write!(
                    f,
                    "resharding requires enable_checkpoints to be called first"
                )
            }
        }
    }
}

impl std::error::Error for ReshardError {}

/// Full 32-bit lane space: lanes are `u32`, intervals are half-open in
/// `u64` so the top interval's exclusive end is representable.
const LANE_SPACE: u64 = 1 << 32;

/// The half-open interval `[start, end)` of lanes shard `shard` owns
/// under a `shards`-way multiply-shift split.
#[inline]
fn lane_span(shard: usize, shards: usize) -> (u64, u64) {
    let start = (shard as u64 * LANE_SPACE).div_ceil(shards as u64);
    let end = ((shard as u64 + 1) * LANE_SPACE).div_ceil(shards as u64);
    (start, end)
}

/// The old shards whose lane intervals intersect new shard `new_idx`'s
/// interval — the donors its restored state folds together. Intervals
/// partition lane space on both sides, so the donors are a contiguous
/// inclusive run of old indices.
fn donor_range(new_idx: usize, new_shards: usize, old_shards: usize) -> (usize, usize) {
    let (start, end) = lane_span(new_idx, new_shards);
    let first = lane_to_shard(start as u32, old_shards);
    let last = lane_to_shard((end - 1) as u32, old_shards);
    (first, last)
}

impl<K, A> ShardedEngine<K, A>
where
    K: FlowKey + Send + 'static,
    A: PreparedInsert<K> + Send + 'static,
{
    /// Enqueues a checkpoint op on shard `idx`'s work channel (caller
    /// holds the pending lock, which keeps sends in dispatch order) and
    /// restarts the shard's cadence count. The op rides behind every
    /// batch dispatched so far, so the state it encodes is exactly the
    /// routed-counter cut captured here. A no-op until
    /// [`ShardedEngine::enable_checkpoints`].
    pub(super) fn enqueue_checkpoint(&self, idx: usize) {
        let Some(encode) = self.checkpointing.as_ref().map(|c| c.encode) else {
            return;
        };
        let shard = &self.shards[idx];
        shard.ckpt_batches.store(0, Ordering::Relaxed);
        if shard.is_poisoned() {
            return;
        }
        let at_packets = shard.packets_routed.load(Ordering::Acquire);
        let slot = Arc::clone(&shard.checkpoint);
        let op = move |a: &mut A| {
            let bytes = Arc::new(encode(a));
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(CheckpointSlot {
                bytes,
                packets: at_packets,
            });
        };
        if let Some(hub) = &self.obs {
            hub.stages.checkpoints.incr();
        }
        self.send_to_shard(idx, ShardMsg::Op(Box::new(op)), 1, 0);
    }

    /// Journals a reshard phase transition (no-op without a hub).
    fn obs_reshard_phase(&self, from: usize, to: usize, stage: ReshardStage) {
        if let Some(hub) = &self.obs {
            hub.stages.reshard_phases.incr();
            hub.journal.record(EventKind::ReshardPhase {
                from_shards: from as u64,
                to_shards: to as u64,
                stage,
            });
        }
    }

    /// Turns on checkpoint/respawn recovery: captures `A`'s
    /// [`ShardCheckpoint`] encode/decode as engine state, schedules a
    /// checkpoint every `every_batches` dispatched batches per shard
    /// (plus one at every [`ShardedEngine::rotate_all`] barrier), and
    /// takes an immediate baseline checkpoint of every live shard — so
    /// any later death, however early, has something to restore from.
    ///
    /// The dark-window loss bound is the cadence knob: a shard respawn
    /// loses at most `every_batches` batches of that shard's sub-stream
    /// (plus whatever was routed while it was down), at the cost of one
    /// checkpoint per interval. A checkpoint costs what `A`'s encode
    /// costs: a full sketch for a steady `ParallelTopK`, but only the
    /// epochs changed since the last encode for a `SlidingTopK` (one at
    /// a rotation barrier; its record cache lives outside
    /// `memory_bytes`).
    ///
    /// # Errors
    ///
    /// Returns [`ShardPoisoned`] if dead shards were found while taking
    /// the baseline (the live ones are still checkpointed and
    /// recoverable).
    pub fn enable_checkpoints(&mut self, every_batches: u64) -> Result<(), ShardPoisoned>
    where
        A: ShardCheckpoint,
    {
        self.checkpointing = Some(Checkpointing {
            every: every_batches.max(1),
            encode: A::encode_checkpoint,
            restore: A::restore_checkpoint,
        });
        let res = self.flush();
        for shard in &self.shards {
            if shard.is_poisoned() {
                continue;
            }
            // Flushed + `&mut self`: the worker is idle and no ingest
            // races, so encoding here on the caller thread is exact and
            // skips a round trip through the worker. The cut is the
            // routed counter, as for every later checkpoint.
            let Ok(guard) = shard.algo.lock() else {
                continue;
            };
            let bytes = Arc::new(A::encode_checkpoint(&guard));
            let packets = shard.packets_routed.load(Ordering::Acquire);
            *shard
                .checkpoint
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(CheckpointSlot { bytes, packets });
        }
        res
    }

    /// When on, the ingest entry points ([`hk_common::TopKAlgorithm::insert`] /
    /// [`hk_common::TopKAlgorithm::insert_batch`]) scan for dead workers and run
    /// [`ShardedEngine::recover`] themselves, so the stream self-heals
    /// without the caller checking [`ShardedEngine::flush`]. Requires
    /// [`ShardedEngine::enable_checkpoints`]; recoveries land in
    /// [`ShardedEngine::recovery_log`].
    pub fn set_auto_recover(&mut self, on: bool) {
        self.auto_recover = on;
    }

    /// Installs a deterministic fault plan: each shard's worker takes
    /// its scheduled faults when its cumulative applied-packet count
    /// crosses their thresholds (see [`crate::fault`]). Replaces any
    /// previous plan. Specs naming a shard index beyond the current
    /// topology are kept dormant: a later [`ShardedEngine::reshard`]
    /// that grows past that index arms them on the new worker (and a
    /// reshard rebases packet counters to the packets a shard's
    /// restored state represents, so thresholds stay in cumulative
    /// sub-stream coordinates — a threshold the rebase jumps past
    /// fires on the new worker's first batch). Test/CLI hook — a
    /// production engine never calls this.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        for (idx, shard) in self.shards.iter().enumerate() {
            shard.faults.install(plan.specs_for(idx));
        }
        self.fault_plan = Some(plan.clone());
    }

    /// Checkpoints every live shard right now (behind the usual
    /// dispatch barrier) and waits for the encodes to land.
    ///
    /// # Errors
    ///
    /// Returns [`ShardPoisoned`] when dead shards were skipped.
    pub fn checkpoint_now(&self) -> Result<(), ShardPoisoned> {
        {
            let mut pending = self.lock_pending();
            self.dispatch_locked(&mut pending);
            for idx in 0..self.shards.len() {
                self.enqueue_checkpoint(idx);
            }
        }
        self.flush()
    }

    /// The bytes of `shard`'s last taken checkpoint (in-flight
    /// checkpoint ops are flushed first), or `None` if none was taken
    /// yet. The differential tests compare these against a fresh encode
    /// of the restored shard to pin down bit-exact recovery.
    pub fn checkpoint_bytes(&self, shard: usize) -> Option<Vec<u8>> {
        let _ = self.flush();
        let bytes = self.shards[shard]
            .checkpoint
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|s| Arc::clone(&s.bytes));
        // The copy is made here, outside the slot lock.
        bytes.map(Arc::unwrap_or_clone)
    }

    /// Every recovery this engine has performed, in order (both
    /// explicit [`ShardedEngine::recover`] calls and auto-recoveries).
    pub fn recovery_log(&self) -> &[RecoveryReport] {
        &self.recovery_log
    }

    /// Every reshard migration this engine has run, in order —
    /// committed and rolled back alike (see [`ShardedEngine::reshard`]).
    pub fn reshard_log(&self) -> &[ReshardReport] {
        &self.reshard_log
    }

    /// Respawns every poisoned shard from its last checkpoint: decodes
    /// the checkpoint bytes, spawns a fresh worker on fresh work/return
    /// channels around the restored algorithm, re-admits the shard's
    /// lane, and reports each recovery's dark window. After `Ok`,
    /// [`ShardedEngine::poisoned_shards`] is empty and routed packets
    /// flow to the respawned shards again. A healthy engine returns an
    /// empty `Vec`.
    ///
    /// # Errors
    ///
    /// [`RecoverError::CheckpointsDisabled`] without
    /// [`ShardedEngine::enable_checkpoints`];
    /// [`RecoverError::NoCheckpoint`] / [`RecoverError::CheckpointCorrupt`]
    /// when a dead shard has nothing restorable (shards recovered
    /// earlier in the call stay recovered).
    pub fn recover(&mut self) -> Result<Vec<RecoveryReport>, RecoverError> {
        let restore = self
            .checkpointing
            .as_ref()
            .ok_or(RecoverError::CheckpointsDisabled)?
            .restore;
        // Settle detection: drains pending (dropping dead shards'
        // packets into the routed/lost counters) and poisons every
        // shard whose worker is gone. The Err only repeats what
        // `is_poisoned` tells us next.
        let _ = self.flush();
        let mut reports = Vec::new();
        for idx in 0..self.shards.len() {
            if !self.shards[idx].is_poisoned() {
                continue;
            }
            let slot = self.shards[idx]
                .checkpoint
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone()
                .ok_or(RecoverError::NoCheckpoint { shard: idx })?;
            let algo =
                restore(&slot.bytes).ok_or(RecoverError::CheckpointCorrupt { shard: idx })?;
            let routed = self.shards[idx].packets_routed.load(Ordering::Acquire);
            let report = RecoveryReport {
                shard: idx,
                checkpoint_packets: slot.packets,
                routed_packets: routed,
                dark_packets: routed.saturating_sub(slot.packets),
            };
            let (fresh, recycled) = self.spawn(idx, algo, Some(slot));
            std::mem::replace(&mut self.shards[idx], fresh).retire();
            self.pending_mut().recycled[idx] = recycled;
            if let Some(hub) = &self.obs {
                hub.stages.recoveries.incr();
                hub.dark_packets.record(report.dark_packets);
                hub.journal.record(EventKind::Recovery {
                    shard: idx as u64,
                    dark_packets: report.dark_packets,
                });
            }
            self.recovery_log.push(report.clone());
            reports.push(report);
        }
        Ok(reports)
    }

    /// The auto-recover death scan: one `is_finished` load per shard
    /// (cheap enough for the ingest path), recovery only when a worker
    /// is actually gone. Errors are deliberately swallowed — ingest
    /// stays infallible, and an unrecoverable shard shows up through
    /// `flush`/`poisoned_shards` exactly as without auto-recovery.
    pub(super) fn auto_recover_if_needed(&mut self) {
        if !self.auto_recover || self.checkpointing.is_none() {
            return;
        }
        let any_dead = self
            .shards
            .iter()
            .any(|s| s.is_poisoned() || s.worker.is_finished());
        if any_dead {
            let _ = self.recover();
        }
    }
}

impl<K, A> ShardedEngine<K, A>
where
    K: FlowKey + Send + 'static,
    A: PreparedInsert<K> + ShardReshard<K> + Send + 'static,
{
    /// Changes the shard count **under traffic**: a phase-structured
    /// online migration that ends with the engine serving the same
    /// stream over `new_shards` lanes.
    ///
    /// 1. **Drain** — dispatch everything pending and run a checkpoint
    ///    barrier op through every shard's work channel
    ///    ([`ShardedEngine::checkpoint_now`]), so each shard's slot is
    ///    a packet-precise cut of its sub-stream. A `kill`/`wedge`/
    ///    `mid-walk` fault firing here respawns the victim from its
    ///    last periodic checkpoint (dark window accounted in the
    ///    report) and re-runs the barrier.
    /// 2. **Split/merge** — pure computation on the drained checkpoint
    ///    bytes; the old topology keeps serving reads meanwhile
    ///    (pre-swap state, never an error). Every new shard restores
    ///    the donors whose lane intervals intersect its own: shrink
    ///    folds donors through the Sum merge (disjoint sub-streams),
    ///    grow restores the same parent checkpoint into each child —
    ///    the parent *sketch* is replicated (a sketch cannot attribute
    ///    its cells to flows; the copy is conservative and keeps
    ///    estimates one-sided) while the monitored top-k set is
    ///    repartitioned under the new lane map
    ///    ([`ShardReshard::retain_flows`]). The children's sketches
    ///    are therefore *not* disjoint until the carried epochs age
    ///    out, which a Sum-rule collector of the exported frames sees
    ///    as an over-read (see the `export` module docs).
    /// 3. **Swap** — every new shard is spawned from its carried state
    ///    and the topology is swapped in one step: routing is the same
    ///    multiply-shift fold over the new shard count (divergent-spec
    ///    fallback routing preserved — `route` does not change),
    ///    per-shard packet
    ///    counters are rebased to the packets each restored state
    ///    represents (the sum of its donor cuts), and a baseline
    ///    checkpoint of the carried state is primed so a death right
    ///    after the swap is recoverable. Old workers are retired: their
    ///    channels close and their threads are joined.
    ///
    /// Ingest issued between phases buffers in the pending partition
    /// under the usual bounded backpressure policy and is dispatched to
    /// the *new* topology after the swap. A migration that cannot
    /// complete — unrecoverable shard, undecodable or fold-incompatible
    /// checkpoint, faults exhausting the drain retry budget — **rolls
    /// back**: the old topology keeps serving exactly as before the
    /// call, and the returned [`ReshardReport`] carries the reason plus
    /// the dark-window accounting of any recoveries that did run.
    /// `reshard(current_count)` is a committed no-op.
    ///
    /// # Errors
    ///
    /// [`ReshardError::ZeroShards`] and
    /// [`ReshardError::CheckpointsDisabled`] are caller mistakes; every
    /// runtime failure is a rollback, reported not errored.
    pub fn reshard(&mut self, new_shards: usize) -> Result<ReshardReport, ReshardError> {
        if new_shards == 0 {
            return Err(ReshardError::ZeroShards);
        }
        let Some(ckpt) = &self.checkpointing else {
            return Err(ReshardError::CheckpointsDisabled);
        };
        let (encode, restore) = (ckpt.encode, ckpt.restore);
        let from = self.shards.len();
        let mut recoveries = Vec::new();
        let mut cut_packets = Vec::new();
        let outcome = if new_shards == from {
            // A same-count reshard is a committed no-op: nothing
            // migrates, so nothing is journaled or counted.
            Ok(())
        } else {
            self.obs_reshard_phase(from, new_shards, ReshardStage::Drain);
            let outcome = self
                .reshard_drain(&mut recoveries)
                .and_then(|cuts| {
                    cut_packets = cuts.iter().map(|c| c.packets).collect();
                    self.obs_reshard_phase(from, new_shards, ReshardStage::Rebuild);
                    self.reshard_rebuild(new_shards, &cuts, restore)
                })
                .map(|states| {
                    self.obs_reshard_phase(from, new_shards, ReshardStage::Swap);
                    self.reshard_swap(states, encode);
                });
            // A failure before the swap leaves the old topology
            // installed: that is the rollback.
            let closing = match outcome {
                Ok(()) => ReshardStage::Commit,
                Err(_) => ReshardStage::Rollback,
            };
            self.obs_reshard_phase(from, new_shards, closing);
            if let (Ok(()), Some(hub)) = (&outcome, &self.obs) {
                hub.stages.reshards.incr();
            }
            outcome
        };
        let report = ReshardReport {
            from_shards: from,
            to_shards: new_shards,
            committed: outcome.is_ok(),
            cut_packets,
            dark_packets: recoveries.iter().map(|r| r.dark_packets).sum(),
            recoveries,
            rollback: outcome.err(),
        };
        self.reshard_log.push(report.clone());
        Ok(report)
    }

    /// Phase 1 of [`ShardedEngine::reshard`]: the checkpoint barrier.
    /// Retries around mid-drain faults — each retry first heals every
    /// dead shard through the normal recovery path (its dark window
    /// lands in `recoveries`), and fault specs are consume-once, so
    /// the loop strictly progresses; the attempt budget is a backstop
    /// against pathological plans, turning them into a rollback
    /// instead of a livelock.
    fn reshard_drain(
        &mut self,
        recoveries: &mut Vec<RecoveryReport>,
    ) -> Result<Vec<CheckpointSlot>, String> {
        let mut attempts = 0usize;
        while self.checkpoint_now().is_err() {
            attempts += 1;
            if attempts > self.shards.len() + 2 {
                return Err("drain retry budget exhausted (faults kept firing)".into());
            }
            match self.recover() {
                Ok(mut healed) => recoveries.append(&mut healed),
                Err(e) => return Err(format!("unrecoverable shard during drain: {e}")),
            }
        }
        let mut cuts = Vec::with_capacity(self.shards.len());
        for (idx, shard) in self.shards.iter().enumerate() {
            let slot = shard
                .checkpoint
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            match slot {
                Some(slot) => cuts.push(slot),
                None => return Err(format!("shard {idx} has no checkpoint after drain")),
            }
        }
        Ok(cuts)
    }

    /// Phase 2 of [`ShardedEngine::reshard`]: rebuilds each new
    /// shard's state from the drained cuts. Runs entirely on the
    /// caller thread against checkpoint *bytes* — no worker
    /// participates, so a fault cannot fire here and the old topology
    /// stays untouched (rollback is free until the swap).
    fn reshard_rebuild(
        &self,
        new_shards: usize,
        cuts: &[CheckpointSlot],
        restore: fn(&[u8]) -> Option<A>,
    ) -> Result<Vec<(A, u64)>, String> {
        let route = self.route;
        let mut out = Vec::with_capacity(new_shards);
        for j in 0..new_shards {
            let (first, last) = donor_range(j, new_shards, cuts.len());
            let mut acc: Option<A> = None;
            let mut base = 0u64;
            for (i, cut) in cuts.iter().enumerate().take(last + 1).skip(first) {
                let Some(part) = restore(&cut.bytes) else {
                    return Err(format!("donor shard {i}'s checkpoint failed to decode"));
                };
                base = base.saturating_add(cut.packets);
                match &mut acc {
                    None => acc = Some(part),
                    Some(a) => {
                        if let Err(e) = a.fold_donor(&part) {
                            return Err(format!("donor shard {i} is not fold-compatible: {e}"));
                        }
                    }
                }
            }
            let Some(mut algo) = acc else {
                return Err(format!("new shard {j} has no donor interval"));
            };
            // Repartition the monitored set under the *new* lane map:
            // only flows routing to lane interval `j` stay reported
            // here. Same prepare + fold as the dispatcher, so a
            // retained flow is exactly a flow future packets reach.
            algo.retain_flows(&mut |key: &K| {
                let kb = key.key_bytes();
                lane_to_shard(route.prepare(kb.as_slice()).lane(), new_shards) == j
            });
            out.push((algo, base));
        }
        Ok(out)
    }

    /// Phase 3 of [`ShardedEngine::reshard`]: installs the new
    /// topology. Every new shard is spawned from a baseline checkpoint
    /// of the state it carries at its rebased cut, so a death right
    /// after the swap restores exactly what the migration installed
    /// (dark window = post-swap routed packets only). The pending
    /// partition is then resized to the new shard count — the routing
    /// swap: every later `route_into` folds lanes over the new count —
    /// and the old workers are retired.
    fn reshard_swap(&mut self, states: Vec<(A, u64)>, encode: fn(&A) -> Vec<u8>) {
        let (fresh, recycled): (Vec<_>, Vec<_>) = states
            .into_iter()
            .enumerate()
            .map(|(j, (algo, packets))| {
                let bytes = Arc::new(encode(&algo));
                self.spawn(j, algo, Some(CheckpointSlot { bytes, packets }))
            })
            .unzip();
        self.buffers_allocated
            .fetch_add(fresh.len() as u64, Ordering::Release);
        let pending = self.pending_mut();
        pending.per_shard = (0..fresh.len()).map(|_| SubBatch::new()).collect();
        pending.recycled = recycled;
        pending.total = 0;
        for shard in std::mem::replace(&mut self.shards, fresh) {
            shard.retire();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_partition_lane_space() {
        for shards in [1usize, 2, 3, 4, 5, 7, 8, 16] {
            let mut expected_start = 0u64;
            for i in 0..shards {
                let (start, end) = lane_span(i, shards);
                assert_eq!(start, expected_start, "{shards} shards, shard {i}");
                assert!(end > start, "{shards} shards, shard {i} empty");
                expected_start = end;
            }
            assert_eq!(
                expected_start, LANE_SPACE,
                "{shards} shards cover lane space"
            );
        }
    }

    #[test]
    fn span_boundaries_agree_with_routing() {
        // Every span's first/last lane must route back to its shard,
        // and the lanes just outside must not.
        for shards in [2usize, 3, 4, 5, 7, 16] {
            for i in 0..shards {
                let (start, end) = lane_span(i, shards);
                assert_eq!(lane_to_shard(start as u32, shards), i);
                assert_eq!(lane_to_shard((end - 1) as u32, shards), i);
                if start > 0 {
                    assert_eq!(lane_to_shard((start - 1) as u32, shards), i - 1);
                }
            }
        }
    }

    #[test]
    fn grow_donors_are_single_parents() {
        // 2 -> 4: each child inherits exactly one parent.
        assert_eq!(donor_range(0, 4, 2), (0, 0));
        assert_eq!(donor_range(1, 4, 2), (0, 0));
        assert_eq!(donor_range(2, 4, 2), (1, 1));
        assert_eq!(donor_range(3, 4, 2), (1, 1));
    }

    #[test]
    fn shrink_donors_fold_pairs() {
        // 4 -> 2: each survivor folds exactly two donors.
        assert_eq!(donor_range(0, 2, 4), (0, 1));
        assert_eq!(donor_range(1, 2, 4), (2, 3));
    }

    #[test]
    fn ragged_reshard_donors_cover_every_old_shard() {
        // Non-divisible counts: every old shard must donate somewhere,
        // and donor runs must be monotone (no old shard skipped).
        for (old, new) in [(2usize, 3usize), (3, 2), (3, 5), (5, 3), (4, 7), (7, 4)] {
            let mut covered = vec![false; old];
            let mut prev_last = 0usize;
            for j in 0..new {
                let (first, last) = donor_range(j, new, old);
                assert!(first <= last, "{old}->{new} shard {j}");
                assert!(first <= prev_last.max(first), "donor runs monotone");
                for slot in covered.iter_mut().take(last + 1).skip(first) {
                    *slot = true;
                }
                prev_last = last;
            }
            assert!(
                covered.iter().all(|&c| c),
                "{old}->{new}: every old shard donates"
            );
        }
    }
}
