//! Phase-aligned wire exports of a sliding-window engine.
//!
//! Each export runs behind the engine's flush barrier — the same
//! pending-dispatch cut [`ShardedEngine::rotate_all`] enqueues behind —
//! so every shard's frame is captured at the same point of the stream
//! and the same rotation count. Shard `i`'s frame carries switch id
//! `switch_id_base + i`. The three frame kinds (full, delta, dirty)
//! share one barrier, [`ShardedEngine::export_each`], which returns a
//! set only when every shard produced a frame.
//!
//! **Aggregating the set.** Flows are hash-partitioned across shards,
//! so a collector under [`AggregationRule::Sum`] reassembles the
//! engine's view — except after a reshard *grow*. A grow restores its
//! parent's checkpoint into every child: each child carries a copy of
//! the parent's sketch epochs, and a Sum collector counts those copies
//! once per child, over-reading the grown lanes' flows (never
//! under-reading [`TopKAlgorithm::query`](hk_common::TopKAlgorithm::query)).
//! The view is exact again once every carried epoch has slid out of
//! the window: W − 1 rotations after a grow that lands on a rotation
//! boundary, W after one that lands mid-epoch. A shrink folds disjoint
//! donors and stays exact throughout.
//!
//! [`AggregationRule::Sum`]: crate::collector::AggregationRule::Sum

use super::{ShardPoisoned, ShardedEngine};
use crate::sliding::SlidingTopK;
use hk_common::key::FlowKey;
use std::sync::PoisonError;

impl<K: FlowKey + Send + 'static> ShardedEngine<K, SlidingTopK<K>> {
    /// Exports one **full** wire-v2 frame per shard, phase-aligned (see
    /// the module docs for the barrier, the switch ids, and how a
    /// collector aggregates the set — including the over-read after a
    /// reshard grow).
    ///
    /// # Errors
    ///
    /// Returns [`ShardPoisoned`] when any shard's worker has died (its
    /// ring state may be torn; no frame is exported for it — the
    /// surviving shards' frames are not returned either, so a partial
    /// fleet view is never mistaken for a complete one).
    pub fn export_frames(
        &self,
        switch_id_base: u64,
        epoch_packets: u32,
    ) -> Result<Vec<Vec<u8>>, ShardPoisoned> {
        self.export_each(|a, id| Some(a.export_frame(switch_id_base + id, epoch_packets)))
            .map(Option::unwrap_or_default)
    }

    /// The delta sibling of [`ShardedEngine::export_frames`]: one
    /// **delta** frame per shard behind the same flush barrier, each
    /// carrying the shard window's newest closed epoch. Returns `None`
    /// before the first rotation (no epoch has closed anywhere — the
    /// shards rotate in lockstep through
    /// [`ShardedEngine::rotate_all`], so either all have a closed
    /// epoch or none do).
    pub fn export_deltas(
        &self,
        switch_id_base: u64,
        epoch_packets: u32,
    ) -> Result<Option<Vec<Vec<u8>>>, ShardPoisoned> {
        self.export_each(|a, id| a.export_delta(switch_id_base + id, epoch_packets))
    }

    /// The dirty sibling of [`ShardedEngine::export_deltas`]: one
    /// **dirty** wire-v3 frame per shard behind the same flush barrier
    /// ([`SlidingTopK::export_dirty`]).
    /// Returns `None` unless *every* shard produced a dirty frame —
    /// the shards rotate in lockstep through
    /// [`ShardedEngine::rotate_all`] and this method primes or advances
    /// every shard's shadow on every call, so after the first
    /// (`None`-returning, shadow-priming) call per rotation stream the
    /// shards stay dirty-eligible together. On `None` the caller ships
    /// [`ShardedEngine::export_deltas`] or
    /// [`ShardedEngine::export_frames`] instead; either fallback
    /// carries the same closed epochs the refreshed shadows snapshot,
    /// so the next rotation can go dirty.
    pub fn export_dirties(
        &self,
        switch_id_base: u64,
        epoch_packets: u32,
    ) -> Result<Option<Vec<Vec<u8>>>, ShardPoisoned> {
        self.export_each(|a, id| a.export_dirty(switch_id_base + id, epoch_packets))
    }

    /// The one export barrier: flushes, then calls `export` on every
    /// shard with its index — every shard, even after one returned
    /// `None`, because a dirty export's call is what primes or advances
    /// that shard's shadow (a delta export reads only, so the extra
    /// calls change nothing). Returns the frames only when the set is
    /// complete, and only a complete set counts as an export in the
    /// attached hub (one op, plus each frame's size).
    fn export_each(
        &self,
        mut export: impl FnMut(&mut SlidingTopK<K>, u64) -> Option<Vec<u8>>,
    ) -> Result<Option<Vec<Vec<u8>>>, ShardPoisoned> {
        self.flush()?;
        let mut frames = Vec::with_capacity(self.shards.len());
        let mut complete = true;
        for (i, shard) in self.shards.iter().enumerate() {
            // The flush barrier already rejected dead workers; residual
            // poison can only come from a reader's panic (shared
            // access, state intact) — absorb it.
            let mut guard = shard.algo.lock().unwrap_or_else(PoisonError::into_inner);
            match export(&mut guard, i as u64) {
                Some(frame) => frames.push(frame),
                None => complete = false,
            }
        }
        if !complete {
            return Ok(None);
        }
        if let Some(hub) = &self.obs {
            hub.stages.exports.incr();
            for f in &frames {
                hub.export_bytes.record(f.len() as u64);
            }
        }
        Ok(Some(frames))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{AggregationRule, Collector};
    use crate::config::HkConfig;
    use hk_common::TopKAlgorithm;

    /// `(flow, Sum-collector count, engine count)` for each flow, the
    /// collector fresh and fed one full frame per shard.
    fn collector_vs_engine(
        engine: &ShardedEngine<u64, SlidingTopK<u64>>,
        flows: &[u64],
    ) -> Vec<(u64, u64, u64)> {
        let mut coll = Collector::<u64>::new(16, AggregationRule::Sum);
        for frame in engine.export_frames(0, 500).expect("healthy engine") {
            coll.submit_window_frame(&frame)
                .expect("fresh frame applies");
        }
        let top = coll.window_top_k();
        flows
            .iter()
            .map(|&f| {
                let seen = top.iter().find(|(k, _)| *k == f).map_or(0, |&(_, c)| c);
                (f, seen, engine.query(&f))
            })
            .collect()
    }

    #[test]
    fn grow_over_reads_in_a_sum_collector_until_carried_epochs_slide_out() {
        let cfg = HkConfig::builder()
            .arrays(2)
            .width(1024)
            .k(8)
            .seed(5)
            .build();
        let window = 2;
        let flows: Vec<u64> = (0..6).collect();
        let traffic: Vec<u64> = (0..6000u64).map(|i| i % 6).collect();
        for (from, to) in [(2usize, 4usize), (4, 2)] {
            let grow = to > from;
            let mut engine = ShardedEngine::<u64, _>::sliding(&cfg, from, window);
            engine.enable_checkpoints(4).unwrap();
            engine.insert_batch(&traffic);
            engine.rotate_all().unwrap();
            assert!(engine.reshard(to).unwrap().committed, "{from}->{to}");

            // Right after a grow every child carries its parent's
            // epochs (each flow reads 2000 against a true 1000 today);
            // the collector may over-read but never under-reads. A
            // shrink is exact.
            for (f, seen, truth) in collector_vs_engine(&engine, &flows) {
                assert_eq!(truth, 1000, "{from}->{to} flow {f}");
                let tag = format!("{from}->{to} flow {f} after the reshard");
                if grow {
                    assert!(seen >= truth, "{tag}: under-read {seen} < {truth}");
                } else {
                    assert_eq!(seen, truth, "{tag}");
                }
            }
            // Post-reshard traffic lands on one shard per flow; the
            // over-read persists, never an under-read, until W − 1
            // rotations have slid the carried epochs out.
            for step in 0..window {
                engine.insert_batch(&traffic);
                for (f, seen, truth) in collector_vs_engine(&engine, &flows) {
                    let tag = format!("{from}->{to} flow {f} after {step} rotations");
                    if grow && step < window - 1 {
                        assert!(seen >= truth, "{tag}: under-read {seen} < {truth}");
                    } else {
                        assert_eq!(seen, truth, "{tag}");
                    }
                }
                engine.rotate_all().unwrap();
            }
        }
    }
}
