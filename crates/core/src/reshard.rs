//! Live resharding support types: lane-interval math, the migration
//! report, and its error surface.
//!
//! [`ShardedEngine::reshard`](crate::ShardedEngine::reshard) changes
//! the shard count under traffic as a phase-structured migration —
//! drain (checkpoint barrier through every work channel), split/merge
//! (rebuild every new shard from restored donor checkpoints), swap
//! (install the new topology and lane routing). This module holds the pieces that
//! are pure data or pure arithmetic:
//!
//! * **Lane intervals.** Routing folds a prepared key's 32-bit lane to
//!   a shard by multiply-shift: `shard = (lane · n) >> 32`. Under that
//!   map every shard owns one *contiguous* interval of lane space, so
//!   the donors of a new shard — the old shards whose packets it must
//!   inherit — are exactly the old shards whose intervals intersect
//!   its own, a contiguous run computable without scanning lanes.
//! * **[`ReshardReport`]** — what one migration did: the per-donor
//!   checkpoint cuts, any forced recoveries (with their dark windows),
//!   and whether the migration committed or rolled back to the old
//!   topology.

use crate::sharded::RecoveryReport;

/// Full 32-bit lane space: lanes are `u32`, intervals are half-open in
/// `u64` so the top interval's exclusive end is representable.
const LANE_SPACE: u64 = 1 << 32;

/// Routes a prepared key's lane to a shard index (multiply-shift over
/// the shard count — no modulo bias, no division). The free-function
/// form of the engine's routing fold, shared with the reshard plane so
/// donor selection and store repartition use the exact map the
/// dispatcher does.
#[inline]
pub(crate) fn lane_to_shard(lane: u32, shards: usize) -> usize {
    ((lane as u64 * shards as u64) >> 32) as usize
}

/// The half-open interval `[start, end)` of lanes shard `shard` owns
/// under a `shards`-way multiply-shift split.
#[inline]
pub(crate) fn lane_span(shard: usize, shards: usize) -> (u64, u64) {
    let start = (shard as u64 * LANE_SPACE).div_ceil(shards as u64);
    let end = ((shard as u64 + 1) * LANE_SPACE).div_ceil(shards as u64);
    (start, end)
}

/// The old shards whose lane intervals intersect new shard `new_idx`'s
/// interval — the donors its restored state folds together. Intervals
/// partition lane space on both sides, so the donors are a contiguous
/// inclusive run of old indices.
pub(crate) fn donor_range(new_idx: usize, new_shards: usize, old_shards: usize) -> (usize, usize) {
    let (start, end) = lane_span(new_idx, new_shards);
    let first = lane_to_shard(start as u32, old_shards);
    let last = lane_to_shard((end - 1) as u32, old_shards);
    (first, last)
}

/// What one [`reshard`](crate::ShardedEngine::reshard) call did.
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

/// Why [`reshard`](crate::ShardedEngine::reshard) could not run at all
/// (misuse — distinct from a fault-driven rollback, which is reported
/// through [`ReshardReport::rollback`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReshardError {
    /// A zero shard count was requested.
    ZeroShards,
    /// [`enable_checkpoints`](crate::ShardedEngine::enable_checkpoints)
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
