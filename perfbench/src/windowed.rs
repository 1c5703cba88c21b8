//! The two windowed workloads over the same sampled-Zipf traffic:
//!
//! * `fleet-window` — four `SlidingTopK` switches exporting dirty
//!   (wire-v3) frames to a `Collector` through `Fleet`, with the
//!   window top-k queried after every period;
//! * `engine-lifecycle` — `ShardedEngine::sliding` with checkpoints,
//!   one injected worker kill healed by `recover()`, and a live
//!   reshard 2→1→2, closing every period with `rotate_all` + `top_k`.
//!
//! Each also replays the trace through a plain 2-shard sliding engine
//! (no export, no lifecycle events) as its sharded counterpart.

use crate::harness::{
    self, begin_root, dispatch_plane, end_root, secs, self_ns_per_pkt, timed, Closes, Counterpart,
    Pass, Primary, BATCH, HK_SEED, SHARDS, TOP_K,
};
use crate::report::{Checks, Outcome};
use crate::spans::{self, Recorder, Span};
use crate::stats::median;
use crate::Layers;
use heavykeeper::collector::{AggregationRule, Collector};
use heavykeeper::{FaultPlan, HkConfig, ShardedEngine, SlidingTopK};
use hk_common::algorithm::{PreparedInsert, TopKAlgorithm};
use hk_obs::ObsHub;
use hk_telemetry::{ExportMode, Fleet, FleetConfig};
use hk_traffic::oracle::ExactCounter;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Packets per period (epoch).
pub const EPOCH: usize = 50_000;
/// Epochs per sliding window.
pub const WINDOW: usize = 4;
/// Periods per trace.
pub const PERIODS: usize = 24;
/// Flow universe of the sampled-Zipf generator.
pub const FLOWS: usize = 500_000;
/// Zipf skew of the generator.
pub const SKEW: f64 = 0.9;
/// Switches in `fleet-window`.
pub const SWITCHES: usize = 4;
/// Memory per switch window in `fleet-window`.
pub const SWITCH_MEMORY: usize = 1 << 20;
/// Sketch memory per epoch of the whole `engine-lifecycle` engine, so
/// each of its two shards holds a 1 MiB window like a fleet switch.
pub const LIFECYCLE_EPOCH_MEMORY: usize = 512 << 10;
/// Period at whose start the lifecycle engine shrinks to one shard.
pub const RESHARD_DOWN_AT: usize = 8;
/// Period at whose start it grows back to two shards.
pub const RESHARD_UP_AT: usize = 14;
/// The injected kill fires on shard 0 halfway through this period.
pub const KILL_PERIOD: usize = 4;

/// The trace: `PERIODS` full periods of sampled Zipf traffic.
pub fn trace(seed: u64) -> Vec<u64> {
    hk_traffic::synthetic::sampled_zipf((PERIODS * EPOCH) as u64, FLOWS, SKEW, seed).packets
}

/// Exact counts of the suffix the final window covers: after the last
/// rotation it holds the `WINDOW - 1` most recent closed epochs.
fn window_oracle(packets: &[u64]) -> ExactCounter<u64> {
    ExactCounter::from_packets(&packets[(PERIODS - (WINDOW - 1)) * EPOCH..])
}

fn fleet_cfg() -> FleetConfig {
    FleetConfig {
        switches: SWITCHES,
        window: WINDOW,
        epoch_packets: EPOCH,
        k: TOP_K,
        memory_bytes: SWITCH_MEMORY,
        seed: HK_SEED,
        mode: ExportMode::Dirty,
        loss: 0.0,
        reorder: 0.0,
        lease: 0,
    }
}

fn engine_cfg(epoch_memory: usize) -> HkConfig {
    HkConfig::builder()
        .memory_bytes(epoch_memory)
        .k(TOP_K)
        .seed(HK_SEED)
        .build()
}

/// Runs a windowed workload: `primary` against a plain 2-shard
/// sliding engine with `counterpart_memory` per epoch, closing every
/// period with `rotate_all` + `top_k`. Precision scores the final
/// window against the suffix it covers.
fn run_windowed<P: Primary<u64>>(
    primary: &P,
    counterpart_memory: usize,
    packets: &[u64],
    seconds: f64,
    trace: bool,
    checks: &mut Checks,
) -> (Outcome, Layers) {
    let cfg = engine_cfg(counterpart_memory);
    let build = || ShardedEngine::sliding(&cfg, SHARDS, WINDOW);
    let rotate = |e: &ShardedEngine<u64, SlidingTopK<u64>>| e.rotate_all();
    let counterpart = Counterpart {
        build: &build,
        period: EPOCH,
        rotate: Some(&rotate),
    };
    let (mut out, layers) = harness::run(
        primary,
        &counterpart,
        Closes::Primary,
        packets,
        &window_oracle(packets),
        seconds,
        trace,
        checks,
    );
    out.detail("window_packets", ((WINDOW - 1) * EPOCH).to_string());
    (out, layers)
}

/// `fleet-window`.
struct FleetPrimary;

/// Per-pass facts of a fleet replay.
#[derive(Debug, PartialEq)]
struct FleetFacts {
    /// Export bytes of every rotation, all switches.
    bytes_per_period: Vec<u64>,
    /// Frames the collector rejected.
    rejected: u64,
}

impl Primary<u64> for FleetPrimary {
    type Facts = FleetFacts;

    fn pass(
        &self,
        packets: &[u64],
        reference: bool,
        _round: u64,
        checks: &mut Checks,
    ) -> (Pass<u64>, FleetFacts) {
        let t = Instant::now();
        let mut fleet = Fleet::<u64>::new(fleet_cfg());
        let build_s = secs(t);
        let mut closes = Vec::new();
        let mut bytes = Vec::new();
        let mut top = Vec::new();
        let start = Instant::now();
        for period in packets.chunks(EPOCH) {
            for batch in period.chunks(BATCH) {
                fleet.ingest(batch);
            }
            let t0 = Instant::now();
            fleet.rotate();
            top = fleet.collector().window_top_k();
            closes.push(t0.elapsed().as_nanos() as f64);
            black_box(&top);
            bytes.push(fleet.stats().bytes_last_rotation);
        }
        let run_s = secs(start);
        let stats = *fleet.stats();
        checks.check(stats.frames_lost == 0 && stats.resyncs == 0, || {
            format!(
                "loss-free fleet lost {} frames, {} resyncs",
                stats.frames_lost, stats.resyncs
            )
        });
        if reference {
            // The loss-free channel must deliver the oracle's answer.
            let oracle = fleet.oracle_collector().window_top_k();
            checks.check(oracle == top, || {
                "collector top-k differs from Fleet::oracle_collector".into()
            });
            checks.check(fleet.recall_vs_oracle() == 1.0, || {
                "collector recall below 1.0".into()
            });
        }
        let facts = FleetFacts {
            bytes_per_period: bytes,
            rejected: fleet.collector().window_frames_rejected(),
        };
        let pass = Pass {
            build_s,
            run_s,
            closes_ns: closes,
            top,
        };
        (pass, facts)
    }

    /// The per-layer split: drives four `SlidingTopK` windows and a
    /// `Collector` directly, routing with `Fleet::switch_of`, in the
    /// order `Fleet::ingest` and `Fleet::rotate` use.
    fn traced(
        &self,
        packets: &[u64],
        round: u64,
        checks: &mut Checks,
    ) -> (Pass<u64>, FleetFacts, Vec<Span>, Layers) {
        let t = Instant::now();
        let cfg = fleet_cfg();
        let router = Fleet::<u64>::new(cfg.clone());
        let mut switches: Vec<SlidingTopK<u64>> = (0..SWITCHES)
            .map(|_| SlidingTopK::with_memory(SWITCH_MEMORY, TOP_K, HK_SEED, WINDOW))
            .collect();
        let mut collector = Collector::<u64>::new(TOP_K, AggregationRule::Sum);
        let budget = EPOCH as u32;
        for (i, sw) in switches.iter().enumerate() {
            let ok = collector
                .submit_window_frame(&sw.export_frame(i as u64, budget))
                .is_ok();
            checks.check(ok, || "initial snapshot rejected".into());
        }
        let spec = switches[0].hash_spec();
        let mut staging: Vec<Vec<u64>> = vec![Vec::new(); SWITCHES];
        let mut prepared = Vec::with_capacity(BATCH);
        let build_s = secs(t);

        let mut rec = Recorder::new();
        let mut r = Some(&mut rec);
        let mut closes = Vec::new();
        let mut bytes = Vec::new();
        let mut top = Vec::new();
        let (mut frames, mut dirty) = (0u64, 0u64);
        let mut frame_bytes = 0u64;
        let mut apply_ok = true;
        let root = begin_root(&mut r, round);
        let start = Instant::now();
        let mut batch_id = 0u64;
        for (p, period) in packets.chunks(EPOCH).enumerate() {
            for batch in period.chunks(BATCH) {
                let ing = r
                    .as_mut()
                    .map(|x| x.begin("telemetry.ingest", root, batch_id));
                for buf in &mut staging {
                    buf.clear();
                }
                for key in batch {
                    staging[router.switch_of(key)].push(*key);
                }
                for (sw, buf) in switches.iter_mut().zip(&staging) {
                    if buf.is_empty() {
                        continue;
                    }
                    timed(&mut r, "prepared", ing, batch_id, || {
                        spec.prepare_batch(buf, &mut prepared)
                    });
                    timed(&mut r, "sliding.ingest", ing, batch_id, || {
                        sw.insert_prepared_batch(buf, &prepared)
                    });
                }
                end_root(&mut r, ing);
                batch_id += 1;
            }
            let t0 = Instant::now();
            let pid = p as u64;
            let rot = r.as_mut().map(|x| x.begin("telemetry.rotate", root, pid));
            for sw in &mut switches {
                timed(&mut r, "sliding.rotate", rot, pid, || sw.rotate());
            }
            let mut shipped = Vec::with_capacity(SWITCHES);
            for (i, sw) in switches.iter_mut().enumerate() {
                let id = i as u64;
                let (frame, is_dirty) = timed(&mut r, "wire.export", rot, pid, || {
                    match sw.export_dirty(id, budget) {
                        Some(b) => (b, true),
                        None => match sw.export_delta(id, budget) {
                            Some(b) => (b, false),
                            None => (sw.export_frame(id, budget), false),
                        },
                    }
                });
                frames += 1;
                dirty += u64::from(is_dirty);
                frame_bytes += frame.len() as u64;
                shipped.push(frame);
            }
            bytes.push(shipped.iter().map(|f| f.len() as u64).sum());
            for frame in &shipped {
                apply_ok &= timed(&mut r, "collector.apply", rot, pid, || {
                    collector.submit_window_frame(frame)
                })
                .is_ok();
            }
            end_root(&mut r, rot);
            top = timed(&mut r, "collector.query", root, pid, || {
                collector.window_top_k()
            });
            closes.push(t0.elapsed().as_nanos() as f64);
            black_box(&top);
        }
        let run_s = secs(start);
        end_root(&mut r, root);
        checks.check(apply_ok, || "collector refused a split-pass frame".into());

        let s = rec.spans().to_vec();
        let by = spans::self_time_by_layer(&s);
        let n = packets.len();
        let p50 = |name: &str| median(&spans::durations(&s, name));
        let mut l = Layers::new();
        l.set("prepared.ns_per_pkt", self_ns_per_pkt(&by, "prepared", n));
        l.set(
            "sliding.ingest_ns_per_pkt",
            self_ns_per_pkt(&by, "sliding.ingest", n),
        );
        l.set(
            "telemetry.ingest_ns_per_pkt",
            self_ns_per_pkt(&by, "telemetry.ingest", n),
        );
        l.set("telemetry.rotate_ms_p50", p50("telemetry.rotate") / 1e6);
        l.set("sliding.rotate_us_p50", p50("sliding.rotate") / 1e3);
        l.set("wire.export_us_p50", p50("wire.export") / 1e3);
        l.set("wire.bytes_per_frame", frame_bytes as f64 / frames as f64);
        l.set("wire.dirty_frame_share", dirty as f64 / frames as f64);
        l.set("collector.apply_us_p50", p50("collector.apply") / 1e3);
        l.set("collector.query_ms_p50", p50("collector.query") / 1e6);
        l.set(
            "collector.frames_rejected",
            collector.window_frames_rejected() as f64,
        );
        l.set("uplink_bytes_per_period", steady_bytes(&bytes));
        let facts = FleetFacts {
            bytes_per_period: bytes,
            rejected: collector.window_frames_rejected(),
        };
        let pass = Pass {
            build_s,
            run_s,
            closes_ns: closes,
            top,
        };
        (pass, facts, s, l)
    }
}

/// Median export bytes per rotation once the ring has filled (the
/// first `WINDOW` rotations still grow the window).
fn steady_bytes(bytes: &[u64]) -> f64 {
    let steady: Vec<f64> = bytes.iter().skip(WINDOW).map(|&b| b as f64).collect();
    median(&steady)
}

/// Runs `fleet-window`.
pub fn run_fleet(
    packets: &[u64],
    seconds: f64,
    trace: bool,
    checks: &mut Checks,
) -> (Outcome, Layers) {
    let counterpart_memory = SWITCHES * SWITCH_MEMORY / WINDOW;
    run_windowed(
        &FleetPrimary,
        counterpart_memory,
        packets,
        seconds,
        trace,
        checks,
    )
}

/// `engine-lifecycle`.
struct LifecyclePrimary {
    plan: FaultPlan,
}

/// Per-pass facts of a lifecycle replay.
#[derive(Debug, PartialEq)]
struct LifecycleFacts {
    lost: u64,
    shed: u64,
    dark: u64,
    recoveries: usize,
    reshards_committed: usize,
}

impl LifecyclePrimary {
    fn new(packets: &[u64]) -> Self {
        // Shard 0's share of the stream up to the middle of the kill
        // period: the kill fires in the batch that crosses it.
        let probe = ShardedEngine::<u64, SlidingTopK<u64>>::sliding(
            &engine_cfg(LIFECYCLE_EPOCH_MEMORY),
            SHARDS,
            WINDOW,
        );
        let cut = KILL_PERIOD * EPOCH + EPOCH / 2;
        let threshold = packets[..cut]
            .iter()
            .filter(|&k| probe.shard_of(k) == 0)
            .count() as u64;
        Self {
            plan: FaultPlan::new().kill(0, threshold),
        }
    }

    fn replay(
        &self,
        packets: &[u64],
        hub: Option<Arc<ObsHub>>,
        mut rec: Option<&mut Recorder>,
        round: u64,
        checks: &mut Checks,
    ) -> (Pass<u64>, LifecycleFacts, Option<hk_obs::Snapshot>, u64) {
        let t = Instant::now();
        let mut engine =
            ShardedEngine::sliding(&engine_cfg(LIFECYCLE_EPOCH_MEMORY), SHARDS, WINDOW);
        if let Some(hub) = hub {
            engine.attach_obs(hub);
        }
        // Checkpoints ride every rotation only, so a death's dark
        // window is at most one period of the shard's sub-stream.
        engine
            .enable_checkpoints(u64::MAX)
            .expect("fresh engine has no dead shards");
        engine.set_fault_plan(&self.plan);
        let build_s = secs(t);

        let mut closes = Vec::new();
        let mut top = Vec::new();
        let mut committed = 0usize;
        let root = begin_root(&mut rec, round);
        let start = Instant::now();
        let mut batch_id = 0u64;
        for (p, period) in packets.chunks(EPOCH).enumerate() {
            let pid = p as u64;
            let target = match p {
                RESHARD_DOWN_AT => Some(1),
                RESHARD_UP_AT => Some(SHARDS),
                _ => None,
            };
            if let Some(to) = target {
                let report = timed(&mut rec, "reshard", root, pid, || engine.reshard(to));
                committed += usize::from(report.is_ok_and(|r| r.committed));
            }
            for batch in period.chunks(BATCH) {
                timed(&mut rec, "sharded.dispatch", root, batch_id, || {
                    engine.insert_batch(batch)
                });
                batch_id += 1;
            }
            // Close: drain, heal a dead shard, rotate, read.
            let t0 = Instant::now();
            if timed(&mut rec, "sharded.drain", root, pid, || engine.flush()).is_err() {
                let healed = timed(&mut rec, "sharded.recover", root, pid, || engine.recover());
                checks.check(healed.is_ok_and(|r| !r.is_empty()), || {
                    format!("period {p}: recover failed")
                });
            }
            let rotated = timed(&mut rec, "sharded.rotate_all", root, pid, || {
                engine.rotate_all()
            });
            checks.check(rotated.is_ok(), || {
                format!("period {p}: rotate_all hit a dead shard")
            });
            top = timed(&mut rec, "sharded.topk", root, pid, || engine.top_k());
            closes.push(t0.elapsed().as_nanos() as f64);
            black_box(&top);
        }
        let run_s = secs(start);
        end_root(&mut rec, root);

        // Every recovery, a reshard's forced ones included, is in the
        // recovery log.
        let dark = engine
            .recovery_log()
            .iter()
            .map(|r| r.dark_packets)
            .sum::<u64>();
        let facts = LifecycleFacts {
            lost: engine.lost_packets(),
            shed: engine.shed_packets(),
            dark,
            recoveries: engine.recovery_log().len(),
            reshards_committed: committed,
        };
        checks.check(
            engine.poisoned_shards().is_empty() && engine.shards() == SHARDS,
            || "lifecycle engine ended degraded".into(),
        );
        let snap = engine.obs_snapshot();
        let bufs = engine.dispatch_buffers_allocated();
        let pass = Pass {
            build_s,
            run_s,
            closes_ns: closes,
            top,
        };
        (pass, facts, snap, bufs)
    }
}

impl Primary<u64> for LifecyclePrimary {
    type Facts = LifecycleFacts;

    fn pass(
        &self,
        packets: &[u64],
        reference: bool,
        round: u64,
        checks: &mut Checks,
    ) -> (Pass<u64>, LifecycleFacts) {
        let hub = reference.then(|| Arc::new(ObsHub::new()));
        let (pass, facts, snap, _) = self.replay(packets, hub, None, round, checks);
        if reference {
            check_lifecycle(
                checks,
                packets.len() as u64,
                &facts,
                snap.as_ref().expect("hub attached"),
            );
        }
        (pass, facts)
    }

    fn traced(
        &self,
        packets: &[u64],
        round: u64,
        checks: &mut Checks,
    ) -> (Pass<u64>, LifecycleFacts, Vec<Span>, Layers) {
        let mut rec = Recorder::new();
        let (pass, facts, snap, bufs) = self.replay(
            packets,
            Some(Arc::new(ObsHub::new())),
            Some(&mut rec),
            round,
            checks,
        );
        let snap = snap.expect("hub attached");
        check_lifecycle(checks, packets.len() as u64, &facts, &snap);
        let s = rec.spans().to_vec();
        let n = packets.len();
        let mut l = dispatch_plane(&s, &snap, bufs, n);
        l.set(
            "sharded.rotate_all_us",
            median(&spans::durations(&s, "sharded.rotate_all")) / 1e3,
        );
        l.set("sharded.checkpoints", snap.stages.checkpoints as f64);
        l.set(
            "sharded.recover_ms",
            spans::total_ns(&s, "sharded.recover") as f64 / 1e6,
        );
        l.set("reshard.ms", spans::total_ns(&s, "reshard") as f64 / 1e6);
        l.set("sharded.dark_packets", facts.dark as f64);
        // Lost packets lie inside the dark window, so they are not
        // added again.
        l.set("failed_share", (facts.shed + facts.dark) as f64 / n as f64);
        (pass, facts, s, l)
    }
}

/// Lifecycle accounting: exactly one kill, healed; both reshards
/// committed; nothing shed; every dropped packet inside the healed dark
/// window; and conservation, offered = ingested + lost + shed, from
/// the obs hub's per-shard ingest counters.
fn check_lifecycle(
    checks: &mut Checks,
    offered: u64,
    facts: &LifecycleFacts,
    snap: &hk_obs::Snapshot,
) {
    checks.check(facts.recoveries == 1, || {
        format!("{} recoveries, expected 1", facts.recoveries)
    });
    checks.check(facts.reshards_committed == 2, || {
        format!("{} of 2 reshards committed", facts.reshards_committed)
    });
    checks.check(facts.shed == 0, || format!("{} packets shed", facts.shed));
    checks.check(facts.lost <= facts.dark, || {
        format!(
            "{} lost outside a {}-packet dark window",
            facts.lost, facts.dark
        )
    });
    let ingested: u64 = snap.shards.iter().map(|s| s.ingest_packets).sum();
    checks.check(offered == ingested + facts.lost + facts.shed, || {
        format!(
            "conservation: {offered} offered != {ingested} ingested + {} lost + {} shed",
            facts.lost, facts.shed
        )
    });
}

/// Runs `engine-lifecycle`.
pub fn run_lifecycle(
    packets: &[u64],
    seconds: f64,
    trace: bool,
    checks: &mut Checks,
) -> (Outcome, Layers) {
    let primary = LifecyclePrimary::new(packets);
    run_windowed(
        &primary,
        LIFECYCLE_EPOCH_MEMORY,
        packets,
        seconds,
        trace,
        checks,
    )
}
