//! The fleet differential: the collector's reassembled per-switch
//! windows against the switch-local ground truth.
//!
//! Two properties are pinned, matching the telemetry plane's contract:
//!
//! 1. **Full frames are lossless**: under full-frame export (and under
//!    lossless delta export) every collector replica is *bit-exact*
//!    with its switch's own [`SlidingTopK`] — same ring geometry,
//!    rotation counter, every epoch's bucket words, every store entry.
//! 2. **Delta mode self-heals**: with frames dropped and reordered by
//!    the channel, the resync protocol (gap detection → full-snapshot
//!    re-anchor, plus the end-of-run reconcile for losses on the final
//!    rotation) restores bit-exactness.
//!
//! "Bit-exact" is checked bucket-by-bucket here (not just through the
//! query surface), and compactly via [`window_digest`] across sweeps.

use heavykeeper::sliding::SlidingTopK;
use hk_common::algorithm::TopKAlgorithm;
use hk_common::key::FlowKey;
use hk_telemetry::{window_digest, ExportMode, Fleet, FleetConfig};

/// Skewed deterministic stream: a few persistent elephants over a long
/// mouse tail, shaped like the paper's workloads.
fn stream(n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state.is_multiple_of(3) {
                state % 10
            } else {
                1000 + state % 5000
            }
        })
        .collect()
}

/// Full bucket-level equality, the long form of the digest comparison.
fn assert_bit_exact<K: FlowKey>(replica: &SlidingTopK<K>, local: &SlidingTopK<K>, what: &str) {
    assert_eq!(replica.window(), local.window(), "{what}: window");
    assert_eq!(replica.rotations(), local.rotations(), "{what}: rotations");
    assert_eq!(replica.live_epochs(), local.live_epochs(), "{what}: live");
    for (n, (ea, eb)) in replica.epoch_iter().zip(local.epoch_iter()).enumerate() {
        assert_eq!(ea.config(), eb.config(), "{what}: epoch {n} config");
        assert_eq!(ea.sketch().arrays(), eb.sketch().arrays());
        for j in 0..ea.sketch().arrays() {
            for i in 0..ea.sketch().width() {
                assert_eq!(
                    ea.sketch().bucket(j, i),
                    eb.sketch().bucket(j, i),
                    "{what}: epoch {n} bucket ({j},{i})"
                );
            }
        }
    }
    assert_eq!(
        window_digest(replica),
        window_digest(local),
        "{what}: digest"
    );
}

#[test]
fn full_frames_reassemble_bit_exact_across_geometries() {
    // Sweep switch counts and window sizes; every combination must
    // reassemble exactly, including mid-fill rings (few rotations).
    for &(switches, window, periods) in
        &[(1usize, 2usize, 3usize), (3, 4, 8), (4, 3, 2), (2, 6, 13)]
    {
        let mut fleet = Fleet::<u64>::new(FleetConfig {
            switches,
            window,
            epoch_packets: 3_000,
            mode: ExportMode::Full,
            seed: 7,
            ..FleetConfig::default()
        });
        fleet.run_trace(&stream(3_000 * periods, 21));
        assert_eq!(fleet.stats().rotations, periods as u64);
        assert!(fleet.collector().resync_needed().is_empty());
        for (i, sw) in fleet.switches().iter().enumerate() {
            let replica = fleet
                .collector()
                .switch_window(i as u64)
                .expect("lossless full frames install every switch");
            assert_bit_exact(replica, sw, &format!("S{switches} W{window} sw{i}"));
        }
    }
}

#[test]
fn lossless_deltas_reassemble_bit_exact() {
    let mut fleet = Fleet::<u64>::new(FleetConfig {
        switches: 3,
        window: 4,
        epoch_packets: 4_000,
        mode: ExportMode::Delta,
        seed: 3,
        ..FleetConfig::default()
    });
    fleet.run_trace(&stream(48_000, 5));
    // Steady state: every rotation shipped one delta per switch.
    assert_eq!(fleet.stats().delta_frames, 3 * 12);
    assert_eq!(fleet.stats().frames_lost, 0);
    for (i, sw) in fleet.switches().iter().enumerate() {
        let replica = fleet.collector().switch_window(i as u64).unwrap();
        assert_bit_exact(replica, sw, &format!("switch {i}"));
    }
}

#[test]
fn delta_mode_with_loss_recovers_bit_exact_after_resync() {
    // Heavy injected loss and reorder: mid-run the collector falls
    // behind (gaps), the resync protocol re-anchors it, and after the
    // final reconcile every replica is bit-exact again.
    let mut fleet = Fleet::<u64>::new(FleetConfig {
        switches: 3,
        window: 4,
        epoch_packets: 3_000,
        mode: ExportMode::Delta,
        loss: 0.3,
        reorder: 0.15,
        seed: 11,
        ..FleetConfig::default()
    });
    fleet.run_trace(&stream(60_000, 13));
    let s = *fleet.stats();
    assert!(s.frames_lost > 0, "the channel must actually drop frames");
    assert!(
        s.resyncs > 0,
        "loss at this rate must have triggered resyncs"
    );

    // The end-of-run reconcile heals everything the in-band protocol
    // could not see (e.g. a loss on the very last rotation).
    fleet.reconcile();
    assert!(fleet.collector().resync_needed().is_empty());
    for (i, sw) in fleet.switches().iter().enumerate() {
        let replica = fleet
            .collector()
            .switch_window(i as u64)
            .expect("reconcile installs every switch");
        assert_bit_exact(replica, sw, &format!("switch {i} after resync"));
    }
}

#[test]
fn loss_sweep_always_converges() {
    // Digest-level sweep over loss rates and seeds: whatever the
    // channel does, reconcile ends bit-exact.
    for loss in [0.05, 0.5, 0.8] {
        for seed in 1..=4u64 {
            let mut fleet = Fleet::<u64>::new(FleetConfig {
                switches: 2,
                window: 3,
                epoch_packets: 1_000,
                mode: ExportMode::Delta,
                loss,
                reorder: 0.2,
                seed,
                ..FleetConfig::default()
            });
            fleet.run_trace(&stream(12_000, seed * 7 + 1));
            fleet.reconcile();
            for (i, sw) in fleet.switches().iter().enumerate() {
                let replica = fleet.collector().switch_window(i as u64).unwrap();
                assert_eq!(
                    window_digest(replica),
                    window_digest(sw),
                    "loss {loss} seed {seed} switch {i}"
                );
            }
        }
    }
}

#[test]
fn lossless_dirty_patches_reassemble_bit_exact() {
    let mut fleet = Fleet::<u64>::new(FleetConfig {
        switches: 3,
        window: 4,
        epoch_packets: 4_000,
        mode: ExportMode::Dirty,
        seed: 3,
        ..FleetConfig::default()
    });
    fleet.run_trace(&stream(48_000, 5));
    // Steady state: one priming delta per switch (rotation 1), dirty
    // patches everywhere after.
    assert_eq!(fleet.stats().delta_frames, 3);
    assert_eq!(fleet.stats().dirty_frames, 3 * 11);
    assert_eq!(fleet.stats().frames_lost, 0);
    for (i, sw) in fleet.switches().iter().enumerate() {
        let replica = fleet.collector().switch_window(i as u64).unwrap();
        assert_bit_exact(replica, sw, &format!("switch {i}"));
    }
}

#[test]
fn dirty_mode_with_loss_recovers_bit_exact_after_resync() {
    // The same punishment the delta test takes, in dirty mode: 30%
    // loss plus reordering. A lost dirty patch leaves the replica's
    // baseline behind, so *every* later patch for that switch is
    // unusable until a resync snapshot re-anchors it — the strongest
    // self-healing obligation in the protocol.
    let mut fleet = Fleet::<u64>::new(FleetConfig {
        switches: 3,
        window: 4,
        epoch_packets: 3_000,
        mode: ExportMode::Dirty,
        loss: 0.3,
        reorder: 0.15,
        seed: 11,
        ..FleetConfig::default()
    });
    fleet.run_trace(&stream(60_000, 13));
    let s = *fleet.stats();
    assert!(s.frames_lost > 0, "the channel must actually drop frames");
    assert!(
        s.dirty_frames > 0,
        "the exporter must actually ship patches"
    );
    assert!(
        s.resyncs > 0,
        "loss at this rate must have triggered resyncs"
    );

    fleet.reconcile();
    assert!(fleet.collector().resync_needed().is_empty());
    for (i, sw) in fleet.switches().iter().enumerate() {
        let replica = fleet
            .collector()
            .switch_window(i as u64)
            .expect("reconcile installs every switch");
        assert_bit_exact(replica, sw, &format!("switch {i} after resync"));
    }
}

#[test]
fn dirty_loss_sweep_always_converges() {
    // Digest-level sweep over loss rates and seeds in dirty mode:
    // whatever the channel does to the patch stream, reconcile ends
    // bit-exact.
    for loss in [0.05, 0.5, 0.8] {
        for seed in 1..=4u64 {
            let mut fleet = Fleet::<u64>::new(FleetConfig {
                switches: 2,
                window: 3,
                epoch_packets: 1_000,
                mode: ExportMode::Dirty,
                loss,
                reorder: 0.2,
                seed,
                ..FleetConfig::default()
            });
            fleet.run_trace(&stream(12_000, seed * 7 + 1));
            fleet.reconcile();
            for (i, sw) in fleet.switches().iter().enumerate() {
                let replica = fleet.collector().switch_window(i as u64).unwrap();
                assert_eq!(
                    window_digest(replica),
                    window_digest(sw),
                    "loss {loss} seed {seed} switch {i}"
                );
            }
        }
    }
}

#[test]
fn collector_windowed_topk_tracks_oracle_under_loss() {
    // The CI recall property: a lossy delta-mode collector's windowed
    // top-k stays close to the loss-free merged oracle (resyncs keep
    // pulling it back), and matches it exactly after reconcile.
    let mut fleet = Fleet::<u64>::new(FleetConfig {
        switches: 3,
        window: 4,
        epoch_packets: 5_000,
        k: 10,
        mode: ExportMode::Delta,
        loss: 0.05,
        seed: 2,
        ..FleetConfig::default()
    });
    fleet.run_trace(&stream(60_000, 17));
    let recall = fleet.recall_vs_oracle();
    assert!(recall >= 0.8, "mid-run recall {recall} below bound");
    fleet.reconcile();
    assert_eq!(
        fleet.recall_vs_oracle(),
        1.0,
        "after reconcile the collector view equals the oracle"
    );
}

/// The collector's merged-epoch memo against a cold rebuild: a warm
/// collector (queried every rotation, so its memo carries merged epochs
/// from one rotation to the next) must answer exactly like a clone of
/// itself, which starts with an empty memo and merges every epoch
/// afresh — top-k, and the merged window's buckets and stores.
fn assert_memo_matches_cold(fleet: &Fleet<u64>, what: &str) {
    let warm = fleet.collector();
    let cold = warm.clone();
    assert_eq!(warm.window_top_k(), cold.window_top_k(), "{what}: top-k");
    let (w, c) = (warm.merged_window(), cold.merged_window());
    assert_eq!(w.is_ok(), c.is_ok(), "{what}: merge outcome");
    let (Ok(Some(w)), Ok(Some(c))) = (w, c) else {
        return;
    };
    assert_eq!(
        (w.window(), w.rotations(), w.live_epochs()),
        (c.window(), c.rotations(), c.live_epochs()),
        "{what}: ring"
    );
    for (n, (we, ce)) in w.epoch_iter().zip(c.epoch_iter()).enumerate() {
        assert_eq!(we.config(), ce.config(), "{what}: epoch {n} config");
        assert_eq!(we.top_k(), ce.top_k(), "{what}: epoch {n} store");
        let (ws, cs) = (we.sketch(), ce.sketch());
        assert_eq!(ws.arrays(), cs.arrays(), "{what}: epoch {n} arrays");
        for j in 0..ws.arrays() {
            for i in 0..ws.width() {
                assert_eq!(
                    ws.bucket(j, i),
                    cs.bucket(j, i),
                    "{what}: epoch {n} bucket ({j},{i})"
                );
            }
        }
    }
}

#[test]
fn warm_collector_memo_matches_cold_clone_every_rotation() {
    // Dirty export through a lossy, reordering channel: gaps, buffered
    // patches, resync snapshots and (with a lease and a muted switch)
    // evictions and re-admissions all move the replicas under the memo.
    for seed in 1..=3u64 {
        let mut fleet = Fleet::<u64>::new(FleetConfig {
            switches: 3,
            window: 4,
            epoch_packets: 2_000,
            k: 20,
            mode: ExportMode::Dirty,
            loss: 0.1,
            reorder: 0.1,
            lease: 2,
            seed,
            ..FleetConfig::default()
        });
        let packets = stream(2_000 * 20, seed * 13 + 5);
        for (p, period) in packets.chunks(2_000).enumerate() {
            fleet.set_muted(1, (6..11).contains(&p));
            fleet.ingest(period);
            fleet.rotate();
            assert_memo_matches_cold(&fleet, &format!("seed {seed} rotation {}", p + 1));
        }
        let s = *fleet.stats();
        assert!(
            s.frames_lost > 0 && s.frames_reordered > 0,
            "seed {seed}: {s:?}"
        );
        assert!(s.evictions > 0 && s.readmissions > 0, "seed {seed}: {s:?}");
    }
}
