//! The two-thread OVS deployment: datapath producer + sketch consumer.
//!
//! Mirrors the paper's Section VII architecture: the datapath thread
//! parses and forwards frames and writes flow IDs into the shared ring;
//! the user-space thread drains the ring and feeds the measurement
//! algorithm. End-to-end throughput — packets fully processed per second
//! — is what Figure 34 compares across algorithms (plus a no-algorithm
//! OVS baseline).
//!
//! The shared ring is a bounded [`sync_channel`] whose slots are
//! **bursts**: the datapath parses and forwards frames up to
//! [`CONSUMER_BATCH`] at a time and mirrors each burst's flow IDs as one
//! message, so the two threads synchronize once per burst, not once per
//! packet. Both ends block instead of spinning, and the datapath
//! dropping its sender is the end-of-stream signal. The consumer is
//! **batch-first**: each burst reaches the algorithm through one
//! [`insert_batch`](hk_common::TopKAlgorithm::insert_batch) call, so the
//! prepared-key prolog and bucket walk amortize over the whole burst.

use crate::datapath::{synthesize_frame, Datapath, FRAME_LEN};
use heavykeeper::SlidingTopK;
use hk_common::algorithm::TopKAlgorithm;
use hk_traffic::flow::FiveTuple;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Instant;

/// Most flow IDs in one mirrored burst, and so in one `insert_batch`
/// call on the consumer.
pub const CONSUMER_BATCH: usize = 512;

/// What the datapath does when the ring is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingMode {
    /// Block until the consumer frees space — end-to-end throughput is
    /// gated by the slower stage, like the paper's saturated pipeline.
    Backpressure,
    /// Drop the mirror (the packet is still forwarded). Measures how
    /// much measurement traffic survives a slow consumer.
    DropWhenFull,
}

/// Results of one deployment run.
#[derive(Debug, Clone)]
pub struct DeploymentReport {
    /// End-to-end throughput in million packets per second: packets the
    /// *consumer* fully processed, divided by wall time.
    pub mps: f64,
    /// Packets the datapath forwarded.
    pub forwarded: u64,
    /// Flow IDs dropped at the ring (only in [`RingMode::DropWhenFull`],
    /// which drops a whole burst when every slot is taken).
    pub dropped: u64,
    /// Packets the algorithm consumed.
    pub consumed: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// The shared ring for a region of `ring_capacity` flow IDs: bursts of
/// up to [`CONSUMER_BATCH`] IDs (fewer when the region is smaller), as
/// many as fit. Returns the two ends and the burst size.
fn shared_ring(
    ring_capacity: usize,
) -> (SyncSender<Vec<FiveTuple>>, Receiver<Vec<FiveTuple>>, usize) {
    assert!(ring_capacity > 0, "ring capacity must be positive");
    let burst = CONSUMER_BATCH.min(ring_capacity);
    let (tx, rx) = sync_channel(ring_capacity / burst);
    (tx, rx, burst)
}

/// The datapath thread: parses and forwards frames a burst at a time
/// and mirrors each burst's flow IDs into the ring under `mode`.
/// Returns `(forwarded, dropped)`; the sender drops on return, which
/// ends the consumer's stream.
fn run_datapath(
    frames: &[[u8; FRAME_LEN]],
    ring: SyncSender<Vec<FiveTuple>>,
    burst: usize,
    mode: RingMode,
) -> (u64, u64) {
    let mut dp = Datapath::new();
    let mut dropped = 0u64;
    for chunk in frames.chunks(burst) {
        let mut mirror = Vec::with_capacity(chunk.len());
        dp.process_batch(chunk.iter().map(|f| f.as_slice()), &mut mirror);
        let ids = mirror.len() as u64;
        let delivered = match mode {
            RingMode::Backpressure => ring.send(mirror).is_ok(),
            RingMode::DropWhenFull => ring.try_send(mirror).is_ok(),
        };
        if !delivered {
            dropped += ids;
        }
    }
    (dp.forwarded(), dropped)
}

/// Runs the deployment over `flows`, feeding `algo` in the consumer
/// thread. `ring_capacity` models the shared-memory region size, in
/// flow IDs.
///
/// When `algo` is `None`, the consumer still drains the ring but runs no
/// algorithm — the paper's "original OVS" baseline in Figure 34.
///
/// # Panics
///
/// Panics if `flows` is empty or `ring_capacity == 0`.
pub fn run_deployment<A>(
    flows: &[FiveTuple],
    mut algo: Option<A>,
    ring_capacity: usize,
    mode: RingMode,
) -> (DeploymentReport, Option<A>)
where
    A: TopKAlgorithm<FiveTuple> + Send,
{
    assert!(!flows.is_empty(), "need packets to run");
    let (tx, rx, burst) = shared_ring(ring_capacity);

    // Pre-synthesize frames so frame construction isn't measured.
    let frames: Vec<[u8; FRAME_LEN]> = flows.iter().map(synthesize_frame).collect();

    let start = Instant::now();
    let mut consumed = 0u64;
    let (forwarded, dropped) = std::thread::scope(|s| {
        let producer = s.spawn(|| run_datapath(&frames, tx, burst, mode));
        // User-space consumer (runs on this thread): one burst, one
        // `insert_batch`.
        while let Ok(ids) = rx.recv() {
            if let Some(a) = algo.as_mut() {
                a.insert_batch(&ids);
            }
            consumed += ids.len() as u64;
        }
        producer.join().expect("datapath thread")
    });

    let seconds = start.elapsed().as_secs_f64();
    (
        DeploymentReport {
            mps: consumed as f64 / seconds / 1e6,
            forwarded,
            dropped,
            consumed,
            seconds,
        },
        algo,
    )
}

/// Results of one windowed deployment run: the plain report plus the
/// telemetry frames the consumer exported at each period boundary.
#[derive(Debug)]
pub struct WindowedDeploymentReport {
    /// The end-to-end pipeline report.
    pub report: DeploymentReport,
    /// The exported wire-v2 frames, in export order: one initial full
    /// snapshot, then one delta per rotation — exactly the stream a
    /// collector's `submit_window_frame` reassembles.
    pub frames: Vec<Vec<u8>>,
    /// Period boundaries crossed (equals the delta count).
    pub rotations: u64,
}

/// [`run_deployment`] with a sliding-window consumer that *feeds the
/// telemetry exporter*: the user-space thread drains the ring's bursts
/// into `window`, rotates it every `epoch_packets` consumed
/// packets, and exports a frame at every boundary — an initial
/// [`SlidingTopK::export_frame`] snapshot before the stream, then one
/// [`SlidingTopK::export_delta`] per rotation (the steady-state
/// O(sketch) export). The returned frames are ready for a collector.
///
/// Export happens on the consumer thread between bursts, exactly
/// where a deployed switch would serialize: the cost shows up in `mps`
/// like every other consumer-side cost.
///
/// # Panics
///
/// Panics if `flows` is empty, `ring_capacity == 0`, or
/// `epoch_packets == 0`.
pub fn run_windowed_deployment(
    flows: &[FiveTuple],
    mut window: SlidingTopK<FiveTuple>,
    switch_id: u64,
    epoch_packets: usize,
    ring_capacity: usize,
    mode: RingMode,
) -> (WindowedDeploymentReport, SlidingTopK<FiveTuple>) {
    assert!(!flows.is_empty(), "need packets to run");
    assert!(epoch_packets > 0, "epoch length must be positive");
    let (tx, rx, burst) = shared_ring(ring_capacity);

    let frames_budget = epoch_packets.min(u32::MAX as usize) as u32;
    let frames: Vec<[u8; FRAME_LEN]> = flows.iter().map(synthesize_frame).collect();

    let start = Instant::now();
    let mut consumed = 0u64;
    let mut exported: Vec<Vec<u8>> = Vec::new();

    // The delta stream starts from a full snapshot of the (empty) ring.
    exported.push(window.export_frame(switch_id, frames_budget));

    let (forwarded, dropped) = std::thread::scope(|s| {
        let producer = s.spawn(|| run_datapath(&frames, tx, burst, mode));
        // Consumer: ingest bursts, rotate at period boundaries, export.
        let mut until_rotation = epoch_packets;
        while let Ok(ids) = rx.recv() {
            let mut rest = ids.as_slice();
            while !rest.is_empty() {
                // Never ingest past a period boundary: a rotation must
                // land between packet `epoch_packets` and packet
                // `epoch_packets + 1` of the sub-stream, exactly like
                // the trace-driven windowed ingest, so a burst that
                // straddles the boundary is split there.
                let (now, later) = rest.split_at(rest.len().min(until_rotation));
                window.insert_batch(now);
                consumed += now.len() as u64;
                until_rotation -= now.len();
                rest = later;
                if until_rotation == 0 {
                    window.rotate();
                    // A W = 1 ring has no closed epoch to delta (its
                    // only slot is the accumulating one); fall back to a
                    // full frame so every rotation still exports.
                    exported.push(
                        window
                            .export_delta(switch_id, frames_budget)
                            .unwrap_or_else(|| window.export_frame(switch_id, frames_budget)),
                    );
                    until_rotation = epoch_packets;
                }
            }
        }
        producer.join().expect("datapath thread")
    });

    let seconds = start.elapsed().as_secs_f64();
    let rotations = window.rotations();
    (
        WindowedDeploymentReport {
            report: DeploymentReport {
                mps: consumed as f64 / seconds / 1e6,
                forwarded,
                dropped,
                consumed,
                seconds,
            },
            frames: exported,
            rotations,
        },
        window,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use heavykeeper::{HkConfig, ParallelTopK};

    fn flows(n: u64, distinct: u64) -> Vec<FiveTuple> {
        (0..n)
            .map(|i| FiveTuple::from_index(i % distinct))
            .collect()
    }

    #[test]
    fn backpressure_processes_every_packet() {
        let pkts = flows(200_000, 100);
        let algo = ParallelTopK::<FiveTuple>::new(HkConfig::builder().width(256).k(10).build());
        let (report, algo) = run_deployment(&pkts, Some(algo), 1024, RingMode::Backpressure);
        assert_eq!(report.forwarded, 200_000);
        assert_eq!(report.consumed, 200_000);
        assert_eq!(report.dropped, 0);
        assert!(report.mps > 0.0);
        // The algorithm actually saw the traffic.
        let top = algo.unwrap().top_k();
        assert_eq!(top.len(), 10);
        assert!(top[0].1 > 1000);
    }

    #[test]
    fn no_algorithm_baseline_runs() {
        let pkts = flows(100_000, 50);
        let (report, _) =
            run_deployment::<ParallelTopK<FiveTuple>>(&pkts, None, 1024, RingMode::Backpressure);
        assert_eq!(report.consumed, 100_000);
    }

    #[test]
    fn drop_mode_may_shed_load() {
        let pkts = flows(100_000, 50);
        // A tiny ring plus a slow consumer: some mirrors may drop, but
        // forwarded + accounting must stay consistent.
        let algo = ParallelTopK::<FiveTuple>::new(HkConfig::builder().width(64).k(5).build());
        let (report, _) = run_deployment(&pkts, Some(algo), 16, RingMode::DropWhenFull);
        assert_eq!(report.forwarded, 100_000);
        assert_eq!(report.consumed + report.dropped, 100_000);
    }

    #[test]
    #[should_panic(expected = "need packets")]
    fn empty_trace_panics() {
        run_deployment::<ParallelTopK<FiveTuple>>(&[], None, 8, RingMode::Backpressure);
    }

    #[test]
    fn windowed_deployment_exports_collectible_frames() {
        use heavykeeper::collector::{AggregationRule, Collector};

        let pkts = flows(60_000, 200);
        let win =
            SlidingTopK::<FiveTuple>::new(HkConfig::builder().width(256).k(10).seed(5).build(), 3);
        let (out, win) =
            run_windowed_deployment(&pkts, win, 42, 10_000, 1024, RingMode::Backpressure);
        assert_eq!(out.report.consumed, 60_000);
        assert_eq!(out.rotations, 6, "60k packets / 10k per epoch");
        // One initial snapshot + one delta per rotation.
        assert_eq!(out.frames.len(), 1 + out.rotations as usize);

        // The frame stream reassembles loss-free at a collector.
        let mut coll = Collector::<FiveTuple>::new(10, AggregationRule::Sum);
        for frame in &out.frames {
            coll.submit_window_frame(frame).unwrap();
        }
        assert!(coll.resync_needed().is_empty());
        let replica = coll.switch_window(42).expect("switch installed");
        assert_eq!(replica.rotations(), win.rotations());
        // Every *closed* epoch is bit-identical (the switch's newest
        // epoch only had packets after the last export, and here the
        // trace length is a multiple of the epoch length, so both
        // newest epochs are empty and the whole ring matches).
        assert_eq!(replica.live_epochs(), win.live_epochs());
        for (ea, eb) in replica.epoch_iter().zip(win.epoch_iter()) {
            for j in 0..ea.sketch().arrays() {
                for i in 0..ea.sketch().width() {
                    assert_eq!(ea.sketch().bucket(j, i), eb.sketch().bucket(j, i));
                }
            }
        }
        // Window queries answered from the collector match the
        // switch-local view.
        for &f in pkts.iter().take(50) {
            assert_eq!(replica.query(&f), win.query(&f));
        }
    }
}
