//! The dispatch plane: routing, the bounded send, backpressure and the
//! flush barrier.
//!
//! The caller thread prepares every key once and routes it by its
//! lane ([`lane_to_shard`]) into a per-shard pending buffer; a dispatch
//! hands each filled buffer to its worker over the shard's bounded work
//! channel and takes a drained one back from the return channel. A full
//! channel blocks or sheds per [`BackpressurePolicy`]. Worker death is
//! detected here too — a send that finds the receiver gone, or a flush
//! waiting on a finished worker — and poisons the shard, accounting its
//! backlog as lost.

use super::{BackpressurePolicy, Pending, ShardMsg, ShardPoisoned, ShardedEngine, SubBatch};
use hk_common::algorithm::PreparedInsert;
use hk_common::key::FlowKey;
use hk_obs::EventKind;
use std::sync::atomic::Ordering;
use std::sync::mpsc::TrySendError;
use std::sync::{MutexGuard, PoisonError};
use std::time::Instant;

/// Routes a prepared key's lane to a shard index (multiply-shift over
/// the shard count — no modulo bias, no division). Under this map every
/// shard owns one contiguous interval of lane space, which the reshard
/// donor math in `lifecycle` relies on; its store repartition calls
/// this same fold.
#[inline]
pub(super) fn lane_to_shard(lane: u32, shards: usize) -> usize {
    ((lane as u64 * shards as u64) >> 32) as usize
}

impl<K, A> ShardedEngine<K, A>
where
    K: FlowKey + Send + 'static,
    A: PreparedInsert<K> + Send + 'static,
{
    /// The shard index `key` routes to.
    #[inline]
    pub fn shard_of(&self, key: &K) -> usize {
        let kb = key.key_bytes();
        lane_to_shard(self.route.prepare(kb.as_slice()).lane(), self.shards.len())
    }

    /// The pending-buffer lock, recovering from poison: `Pending` is
    /// plain routed-buffer state (keys copied in, a running total), so
    /// a caller thread that panicked mid-route leaves it usable — at
    /// worst a partially routed batch that the next dispatch ships.
    /// Recovering keeps a single caller panic from wedging every later
    /// ingest and read on this engine.
    pub(super) fn lock_pending(&self) -> MutexGuard<'_, Pending<K>> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Dispatches buffered scalar inserts and waits until every live
    /// shard has drained its channel. After this returns `Ok`, every
    /// packet previously inserted is reflected in shard state.
    ///
    /// # Errors
    ///
    /// Returns [`ShardPoisoned`] when any shard's worker has died (its
    /// algorithm panicked during ingest). The engine stays usable: the
    /// surviving shards are fully flushed, reads keep working over
    /// them, and packets routed to dead shards are dropped and counted
    /// in [`ShardedEngine::lost_packets`].
    pub fn flush(&self) -> Result<(), ShardPoisoned> {
        {
            let mut pending = self.lock_pending();
            self.dispatch_locked(&mut pending);
        }
        for (idx, shard) in self.shards.iter().enumerate() {
            loop {
                if shard.is_poisoned() {
                    break;
                }
                let target = shard.enqueued.load(Ordering::Acquire);
                if shard.processed.load(Ordering::Acquire) >= target {
                    break;
                }
                // A worker that died (its algorithm panicked inside
                // ingest) can never catch up; poison the shard instead
                // of busy-waiting forever. Re-read the counter after
                // seeing the thread finished so a clean last batch is
                // not mistaken for death.
                if shard.worker.is_finished() {
                    let done = shard.processed.load(Ordering::Acquire);
                    if done < target {
                        self.poison_shard(idx);
                        break;
                    }
                } else {
                    std::thread::yield_now();
                }
            }
        }
        self.health()
    }

    /// The current full-channel policy.
    pub fn backpressure(&self) -> BackpressurePolicy {
        self.backpressure
    }

    /// Sets the full-channel policy (see [`BackpressurePolicy`]). A shed
    /// sub-batch's buffer is dropped with it, so sustained shedding
    /// re-allocates replacement buffers at the shedding rate —
    /// shedding trades the zero-alloc steady state for liveness.
    pub fn set_backpressure(&mut self, policy: BackpressurePolicy) {
        self.backpressure = policy;
    }

    /// Accounts a newly detected worker death exactly once: whichever
    /// racing observer wins the false→true transition owns the
    /// sent-but-unapplied packet backlog (the worker is dead, so
    /// `packets_applied` is final). Counted in packets, not flush
    /// units: a rotate or checkpoint op queued behind the death is
    /// dropped with the worker but is no packet.
    fn poison_shard(&self, idx: usize) {
        let shard = &self.shards[idx];
        if shard
            .poisoned
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            let sent = shard.packets_sent.load(Ordering::Acquire);
            let applied = shard.packets_applied.load(Ordering::Acquire);
            self.lost
                .fetch_add(sent.saturating_sub(applied), Ordering::Release);
            if let Some(hub) = &self.obs {
                hub.shard(idx).worker_deaths.incr();
                hub.journal
                    .record(EventKind::WorkerDeath { shard: idx as u64 });
            }
        }
    }

    /// Hands one message to a shard worker, blocking on a full channel
    /// (backpressure) until the worker frees a slot or is found dead.
    /// `flush_units` is what the flush accounting waits for (batch
    /// length, or 1 for a control op); `packet_units` is how many real
    /// packets the message carries — only those count as
    /// [`ShardedEngine::lost_packets`] when the shard is dead, whether
    /// dropped here or in the backlog a death leaves (a dropped
    /// rotation op is not packet loss).
    ///
    /// All callers hold the pending lock, so sends to one shard stay
    /// in dispatch order.
    pub(super) fn send_to_shard(
        &self,
        idx: usize,
        msg: ShardMsg<K, A>,
        flush_units: u64,
        packet_units: u64,
    ) {
        let shard = &self.shards[idx];
        // Routed = destined for this shard, delivered or not: the dark
        // window a recovery reports is everything sent after the
        // checkpoint cut, including packets dropped while the shard was
        // down.
        shard
            .packets_routed
            .fetch_add(packet_units, Ordering::Release);
        if shard.is_poisoned() {
            self.lost.fetch_add(packet_units, Ordering::Release);
            return;
        }
        // Shed policy: a live-but-slow shard's overflow batch is
        // dropped instead of stalling the whole dispatch plane. Ops
        // always block — a shed rotation or checkpoint barrier would
        // tear the phase alignment shedding is meant to preserve.
        let may_shed =
            self.backpressure == BackpressurePolicy::Shed && matches!(msg, ShardMsg::Batch(_));
        let delivered = if may_shed {
            match shard.work.try_send(msg) {
                Ok(()) => true,
                Err(TrySendError::Full(_)) => {
                    self.shed.fetch_add(packet_units, Ordering::Release);
                    if let Some(hub) = &self.obs {
                        hub.journal.record(EventKind::Shed {
                            shard: idx as u64,
                            packets: packet_units,
                        });
                    }
                    return;
                }
                Err(TrySendError::Disconnected(_)) => false,
            }
        } else {
            shard.work.send(msg).is_ok()
        };
        if delivered {
            // Count after a successful send: counting first would open
            // a window where a racing flush waits on (and a racing
            // death accounting double-counts) units that were never
            // delivered.
            shard.enqueued.fetch_add(flush_units, Ordering::Release);
            shard
                .packets_sent
                .fetch_add(packet_units, Ordering::Release);
            shard.transit.sent.fetch_add(1, Ordering::Relaxed);
        } else {
            // The receiver is gone: the worker exited or unwound. This
            // message never entered `packets_sent`, so its loss is
            // owned here unconditionally.
            self.lost.fetch_add(packet_units, Ordering::Release);
            self.poison_shard(idx);
        }
    }

    /// Grabs an empty sub-batch buffer for shard `idx`: recycled from
    /// the worker's return channel when available, freshly allocated
    /// (and counted) only when the cycle has not converged yet.
    fn take_buffer(&self, pending: &Pending<K>, idx: usize) -> SubBatch<K> {
        match pending.recycled[idx].try_recv() {
            Ok(buf) => {
                self.shards[idx]
                    .transit
                    .received
                    .fetch_add(1, Ordering::Relaxed);
                debug_assert!(buf.keys.is_empty(), "worker returns cleared buffers");
                buf
            }
            Err(_) => {
                self.buffers_allocated.fetch_add(1, Ordering::Release);
                SubBatch::new()
            }
        }
    }

    pub(super) fn dispatch_locked(&self, pending: &mut Pending<K>) {
        if pending.total == 0 {
            return;
        }
        for idx in 0..pending.per_shard.len() {
            if pending.per_shard[idx].keys.is_empty() {
                continue;
            }
            if self.shards[idx].is_poisoned() {
                // Dead shard: its packets are lost either way, so drop
                // them in place — clearing keeps the buffer (and its
                // capacity), taking no replacement, so a long-lived
                // engine with one dead shard stays zero-alloc. Still
                // routed, for dark-window accounting.
                let units = pending.per_shard[idx].keys.len() as u64;
                self.shards[idx]
                    .packets_routed
                    .fetch_add(units, Ordering::Release);
                self.lost.fetch_add(units, Ordering::Release);
                pending.per_shard[idx].clear();
                continue;
            }
            let replacement = self.take_buffer(pending, idx);
            let mut batch = std::mem::replace(&mut pending.per_shard[idx], replacement);
            let units = batch.keys.len() as u64;
            if let Some(hub) = &self.obs {
                hub.stages.dispatch_batches.incr();
                hub.stages.dispatch_packets.add(units);
                // One clock read per dispatched batch, at the batch
                // boundary — the worker computes the elapsed
                // dispatch→drain time when it drains this buffer.
                batch.sent_at = Some(Instant::now());
            }
            self.send_to_shard(idx, ShardMsg::Batch(batch), units, units);
            // Scheduled checkpoint: every `every` dispatched batches,
            // the shard encodes itself right behind the work it just
            // received.
            if let Some(ckpt) = &self.checkpointing {
                let n = self.shards[idx]
                    .ckpt_batches
                    .fetch_add(1, Ordering::Relaxed)
                    + 1;
                if n >= ckpt.every {
                    self.enqueue_checkpoint(idx);
                }
            }
        }
        pending.total = 0;
    }

    /// The single-pass partition: hash each key **once**, route by the
    /// prepared lane, and store key (+ prepared state in handoff mode)
    /// into the shard's recycled buffer — plain `Copy` stores, no
    /// clones, no allocation once buffer capacities have converged.
    pub(super) fn route_into(&self, keys: &[K], pending: &mut Pending<K>) {
        let one_shard = self.shards.len() == 1;
        if one_shard && !self.handoff {
            // Routing is vacuous and the worker re-hashes anyway: a
            // straight copy keeps the degenerate 1-shard route-only
            // engine at one hash per packet (the worker's).
            pending.per_shard[0].keys.extend_from_slice(keys);
            pending.total += keys.len();
            return;
        }
        for key in keys {
            let kb = key.key_bytes();
            let p = self.route.prepare(kb.as_slice());
            let s = if one_shard {
                0
            } else {
                lane_to_shard(p.lane(), self.shards.len())
            };
            let buf = &mut pending.per_shard[s];
            buf.keys.push(*key);
            if self.handoff {
                buf.prepared.push(p);
            }
        }
        pending.total += keys.len();
    }
}
