//! Shared replay machinery: the batch/period loop, optional span
//! recording, the sharded counterpart every workload is compared with,
//! and [`run`], the interleaved-round loop that turns a workload's
//! primary pipeline and counterpart into metrics.

use crate::report::{json_str, Checks, Outcome};
use crate::spans::{self, Recorder, Span};
use crate::stats::{self, median};
use crate::Layers;
use heavykeeper::{ShardPoisoned, ShardedEngine};
use hk_common::algorithm::{PreparedInsert, TopKAlgorithm};
use hk_common::key::FlowKey;
use hk_metrics::accuracy::evaluate_topk;
use hk_obs::{ObsHub, Snapshot};
use hk_traffic::oracle::ExactCounter;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Packets per `insert_batch` call in every workload.
pub const BATCH: usize = 8192;
/// Shard count of every sharded pass (the host has two CPUs).
pub const SHARDS: usize = 2;
/// Reported flows.
pub const TOP_K: usize = 100;
/// Sketch hash seed. Fixed: the workload seed only shapes the traffic.
pub const HK_SEED: u64 = 1;
/// Rounds every run makes, however short `--seconds` is.
pub const MIN_ROUNDS: usize = 3;
/// Close samples a run collects so that p90 has ten samples beyond it.
pub const MIN_CLOSES: usize = 100;

/// One timed replay of the whole trace.
#[derive(Debug, Clone)]
pub struct Pass<K> {
    /// Seconds spent building the system under test.
    pub build_s: f64,
    /// Seconds from the first packet to the final top-k.
    pub run_s: f64,
    /// Period-close latencies in nanoseconds.
    pub closes_ns: Vec<f64>,
    /// The final top-k.
    pub top: Vec<(K, u64)>,
}

impl<K> Pass<K> {
    /// Replay rate in million packets per second.
    pub fn mpps(&self, packets: usize) -> f64 {
        packets as f64 / self.run_s / 1e6
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Decides when a run has measured enough: at least `seconds` of wall
/// time, [`MIN_ROUNDS`] rounds and [`MIN_CLOSES`] close samples, but
/// never more than three times `seconds`.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    /// Starts the clock.
    pub fn start(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            seconds,
        }
    }

    /// True while another round should run.
    pub fn more(&self, rounds: usize, closes: usize) -> bool {
        let t = secs(self.start);
        if rounds >= MIN_ROUNDS && t > 3.0 * self.seconds {
            return false;
        }
        rounds < MIN_ROUNDS || closes < MIN_CLOSES || t < self.seconds
    }
}

/// The order of a round's passes: alternate rounds run them reversed,
/// so drift on a shared host hits every kind of pass alike.
pub fn round_order(round: usize, kinds: usize) -> Vec<usize> {
    if round.is_multiple_of(2) {
        (0..kinds).collect()
    } else {
        (0..kinds).rev().collect()
    }
}

/// Runs `f` inside a span when a recorder is present.
pub fn timed<R>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    parent: Option<usize>,
    id: u64,
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        Some(r) => r.time(name, parent, id, f),
        None => f(),
    }
}

/// Opens the root span of a traced pass.
pub fn begin_root(rec: &mut Option<&mut Recorder>, id: u64) -> Option<usize> {
    rec.as_mut().map(|r| r.begin("pass", None, id))
}

/// Closes the root span of a traced pass.
pub fn end_root(rec: &mut Option<&mut Recorder>, root: Option<usize>) {
    if let (Some(r), Some(root)) = (rec.as_mut(), root) {
        r.end(root);
    }
}

/// Self time of layer `name` per packet, in nanoseconds.
pub fn self_ns_per_pkt(by_layer: &BTreeMap<&'static str, u64>, name: &str, n: usize) -> f64 {
    by_layer.get(name).copied().unwrap_or(0) as f64 / n as f64
}

/// Period closer of a windowed sharded engine (`rotate_all`); `None`
/// for engines that never rotate.
pub type Rotate<'a, K, A> = Option<&'a dyn Fn(&ShardedEngine<K, A>) -> Result<(), ShardPoisoned>>;

/// A workload's plain 2-shard engine of the same total memory and
/// period structure as its primary pipeline, giving `mpps_sharded`.
pub struct Counterpart<'a, K: FlowKey, A: TopKAlgorithm<K>> {
    /// Builds a fresh engine.
    pub build: &'a dyn Fn() -> ShardedEngine<K, A>,
    /// Packets between period closes.
    pub period: usize,
    /// Closes a period before the read, if the engine rotates.
    pub rotate: Rotate<'a, K, A>,
}

/// A counterpart replay: the pass, the obs hub snapshot when a hub was
/// attached, and the dispatch buffers the engine allocated.
type CounterpartPass<K> = (Pass<K>, Option<Snapshot>, u64);

impl<K, A> Counterpart<'_, K, A>
where
    K: FlowKey + Send + 'static,
    A: PreparedInsert<K> + Send + 'static,
{
    /// One replay on a fresh engine. With `hub` set an `ObsHub` is
    /// attached and packet conservation is checked against it.
    fn pass(
        &self,
        packets: &[K],
        hub: bool,
        rec: Option<&mut Recorder>,
        round: u64,
        checks: &mut Checks,
    ) -> CounterpartPass<K> {
        let t = Instant::now();
        let mut engine = (self.build)();
        if hub {
            engine.attach_obs(Arc::new(ObsHub::new()));
        }
        let build_s = secs(t);
        let (run_s, closes_ns, top) =
            sharded_pass(&mut engine, packets, self.period, self.rotate, rec, round);
        checks.check(
            engine.lost_packets() == 0
                && engine.shed_packets() == 0
                && engine.poisoned_shards().is_empty(),
            || "sharded counterpart lost, shed or poisoned".to_string(),
        );
        let snap = engine.obs_snapshot();
        if let Some(snap) = &snap {
            let n = packets.len() as u64;
            let ingested: u64 = snap.shards.iter().map(|s| s.ingest_packets).sum();
            checks.check(snap.stages.dispatch_packets == n && ingested == n, || {
                format!(
                    "sharded conservation: {n} offered, {} dispatched, {ingested} ingested",
                    snap.stages.dispatch_packets
                )
            });
        }
        let pass = Pass {
            build_s,
            run_s,
            closes_ns,
            top,
        };
        (pass, snap, engine.dispatch_buffers_allocated())
    }
}

/// One replay through a sharded engine: batches of [`BATCH`], and
/// after every `period` packets a close — `rotate_all` (when `rotate`
/// is set) and a flushing `top_k`. With a recorder, every call is a
/// span: `sharded.dispatch` per batch, `sharded.drain` (an explicit
/// flush), `sharded.rotate_all` and `sharded.topk` per period.
fn sharded_pass<K, A>(
    engine: &mut ShardedEngine<K, A>,
    packets: &[K],
    period: usize,
    rotate: Rotate<'_, K, A>,
    mut rec: Option<&mut Recorder>,
    round: u64,
) -> (f64, Vec<f64>, Vec<(K, u64)>)
where
    K: FlowKey + Send + 'static,
    A: PreparedInsert<K> + Send + 'static,
{
    let mut closes = Vec::new();
    let mut top = Vec::new();
    let root = begin_root(&mut rec, round);
    let start = Instant::now();
    let mut batch_id = 0u64;
    for (p, chunk) in packets.chunks(period).enumerate() {
        for batch in chunk.chunks(BATCH) {
            timed(&mut rec, "sharded.dispatch", root, batch_id, || {
                engine.insert_batch(batch)
            });
            batch_id += 1;
        }
        let t0 = Instant::now();
        if rec.is_some() {
            let _ = timed(&mut rec, "sharded.drain", root, p as u64, || engine.flush());
        }
        if let Some(rotate) = rotate {
            let _ = timed(&mut rec, "sharded.rotate_all", root, p as u64, || {
                rotate(engine)
            });
        }
        top = timed(&mut rec, "sharded.topk", root, p as u64, || engine.top_k());
        closes.push(t0.elapsed().as_nanos() as f64);
        black_box(&top);
    }
    let run_s = secs(start);
    end_root(&mut rec, root);
    (run_s, closes, top)
}

/// The primary pipeline of a workload: what `mpps` measures.
pub trait Primary<K> {
    /// Exact per-pass facts every pass must repeat.
    type Facts: PartialEq + Debug;
    /// One untraced replay; `reference` marks the first, untimed one,
    /// which may make extra checks.
    fn pass(
        &self,
        packets: &[K],
        reference: bool,
        round: u64,
        checks: &mut Checks,
    ) -> (Pass<K>, Self::Facts);
    /// One traced replay, with its spans and per-layer figures.
    fn traced(
        &self,
        packets: &[K],
        round: u64,
        checks: &mut Checks,
    ) -> (Pass<K>, Self::Facts, Vec<Span>, Layers);
}

/// Whose period closes give `close_p50_ms` and `close_p90_ms`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Closes {
    /// The primary pipeline's.
    Primary,
    /// The sharded counterpart's.
    Counterpart,
}

/// Runs a workload: a reference round (untimed; the counterpart with
/// an obs hub attached), then interleaved rounds of the primary and
/// its counterpart, plus both traced when `trace` is set, until the
/// [`Budget`] is spent. Precision and ARE score the reference top-k
/// against `oracle`.
#[allow(clippy::too_many_arguments)]
pub fn run<K, A, P>(
    primary: &P,
    counterpart: &Counterpart<'_, K, A>,
    closes_from: Closes,
    packets: &[K],
    oracle: &ExactCounter<K>,
    seconds: f64,
    trace: bool,
    checks: &mut Checks,
) -> (Outcome, Layers)
where
    K: FlowKey + Send + 'static,
    A: PreparedInsert<K> + Send + 'static,
    P: Primary<K>,
{
    let n = packets.len();
    let (reference, ref_facts) = primary.pass(packets, true, 0, checks);
    let (ref_plain, _, _) = counterpart.pass(packets, true, None, 0, checks);

    let mut prim: Vec<Pass<K>> = Vec::new();
    let mut plain: Vec<Pass<K>> = Vec::new();
    let mut prim_traced: Vec<(Pass<K>, Vec<Span>)> = Vec::new();
    let mut prim_layers: Vec<Layers> = Vec::new();
    let mut plain_traced: Vec<(Pass<K>, f64)> = Vec::new();
    let mut plain_layers: Vec<Layers> = Vec::new();
    let kinds = if trace { 4 } else { 2 };
    let budget = Budget::start(seconds);
    let mut round = 0usize;
    loop {
        let timed_closes = match closes_from {
            Closes::Primary => &prim,
            Closes::Counterpart => &plain,
        };
        if !budget.more(round, timed_closes.iter().map(|p| p.closes_ns.len()).sum()) {
            break;
        }
        let id = round as u64 + 1;
        for kind in round_order(round, kinds) {
            match kind {
                0 => {
                    let (pass, facts) = primary.pass(packets, false, id, checks);
                    check_same_top(checks, "primary pass", &reference.top, &pass.top);
                    checks.check(facts == ref_facts, || {
                        format!("primary pass facts {facts:?} != {ref_facts:?}")
                    });
                    prim.push(pass);
                }
                1 => {
                    let (pass, _, _) = counterpart.pass(packets, false, None, id, checks);
                    check_same_top(checks, "sharded pass", &ref_plain.top, &pass.top);
                    plain.push(pass);
                }
                2 => {
                    let (pass, facts, spans, l) = primary.traced(packets, id, checks);
                    check_same_top(checks, "traced primary pass", &reference.top, &pass.top);
                    checks.check(facts == ref_facts, || {
                        format!("traced pass facts {facts:?} != {ref_facts:?}")
                    });
                    prim_traced.push((pass, spans));
                    prim_layers.push(l);
                }
                _ => {
                    let mut rec = Recorder::new();
                    let (pass, snap, bufs) =
                        counterpart.pass(packets, true, Some(&mut rec), id, checks);
                    check_same_top(checks, "traced sharded pass", &ref_plain.top, &pass.top);
                    let snap = snap.expect("hub attached");
                    plain_layers.push(dispatch_plane(rec.spans(), &snap, bufs, n));
                    plain_traced.push((pass, layer_self_s(rec.spans())));
                }
            }
        }
        round += 1;
    }

    let acc = evaluate_topk(&reference.top, oracle, TOP_K);
    let acc_sharded = evaluate_topk(&ref_plain.top, oracle, TOP_K);
    checks.check(acc.reported == TOP_K, || {
        format!("reported {} flows", acc.reported)
    });
    let close_passes = match closes_from {
        Closes::Primary => &prim,
        Closes::Counterpart => &plain,
    };
    let closes: Vec<f64> = close_passes
        .iter()
        .flat_map(|p| p.closes_ns.iter().copied())
        .collect();
    let (p50, p90, samples, top_pct) = close_summary(&closes);
    let setup: Vec<f64> = prim
        .iter()
        .zip(&plain)
        .map(|(a, b)| a.build_s + b.build_s)
        .collect();
    let prim_mpps: Vec<f64> = prim.iter().map(|p| p.mpps(n)).collect();
    let plain_mpps: Vec<f64> = plain.iter().map(|p| p.mpps(n)).collect();

    let mut out = Outcome::default();
    out.metric("setup_s", median(&setup), "s");
    out.metric("mpps", median(&prim_mpps), "Mpkt/s");
    out.metric("mpps_sharded", median(&plain_mpps), "Mpkt/s");
    out.metric("precision", acc.precision, "ratio");
    out.metric("close_p50_ms", p50, "ms");
    out.metric("close_p90_ms", p90, "ms");
    let passes = 2 + prim.len() + plain.len() + prim_traced.len() + plain_traced.len();
    out.packets = (n * passes) as u64;
    out.detail("packets", n.to_string());
    out.detail("rounds", round.to_string());
    out.detail("close_samples", samples.to_string());
    out.detail("close_highest_percentile", top_pct.to_string());
    out.detail("are", acc.are.to_string());
    out.detail("precision_sharded", acc_sharded.precision.to_string());
    out.detail("reference_facts", json_str(&format!("{ref_facts:?}")));
    out.detail("mpps_passes", format!("{prim_mpps:?}"));
    out.detail("mpps_sharded_passes", format!("{plain_mpps:?}"));

    let mut layers = Layers::new();
    layers.set("are", acc.are);
    layers.set("failed_share", 0.0);
    if trace {
        let plain_s = median_run_s(prim.iter());
        let traced_s = median_run_s(prim_traced.iter().map(|(p, _)| p));
        let layer_s = median(
            &prim_traced
                .iter()
                .map(|(_, s)| layer_self_s(s))
                .collect::<Vec<_>>(),
        );
        layers.set("trace.overhead_share", traced_s / plain_s - 1.0);
        layers.set("trace.gap_share", layer_s / plain_s - 1.0);

        let plain_s = median_run_s(plain.iter());
        let traced_s = median_run_s(plain_traced.iter().map(|(p, _)| p));
        let layer_s = median(&plain_traced.iter().map(|(_, s)| *s).collect::<Vec<_>>());
        layers.set("trace.overhead_share_sharded", traced_s / plain_s - 1.0);
        layers.set("trace.gap_share_sharded", layer_s / plain_s - 1.0);

        // Where the primary is itself a sharded engine
        // (`engine-lifecycle`), its dispatch-plane figures win.
        layers.merge(&median_layers(&plain_layers));
        layers.merge(&median_layers(&prim_layers));
    }
    (out, layers)
}

/// Dispatch-plane figures of one traced sharded pass, from its spans,
/// its obs hub snapshot and the dispatch buffers the engine allocated.
pub fn dispatch_plane(spans: &[Span], snap: &Snapshot, buffers: u64, n: usize) -> Layers {
    let by = spans::self_time_by_layer(spans);
    let mut l = Layers::new();
    l.set(
        "sharded.dispatch_ns_per_pkt",
        self_ns_per_pkt(&by, "sharded.dispatch", n),
    );
    l.set(
        "sharded.drain_ms",
        spans::total_ns(spans, "sharded.drain") as f64 / 1e6,
    );
    l.set("spsc.ring_pushes", snap.stages.ring_pushes as f64);
    l.set("spsc.ring_pops", snap.stages.ring_pops as f64);
    l.set("sharded.buffers_allocated", buffers as f64);
    l.set("sharded.shard_skew", shard_skew(snap));
    l.set(
        "sharded.dispatch_latency_p50_ns",
        snap.dispatch_latency_ns.p50 as f64,
    );
    l.set(
        "sharded.dispatch_latency_p99_ns",
        snap.dispatch_latency_ns.p99 as f64,
    );
    l
}

/// Per-name median over the per-pass figures of several passes.
fn median_layers(per_pass: &[Layers]) -> Layers {
    let mut out = Layers::new();
    if let Some(first) = per_pass.first() {
        for name in first.names() {
            let v: Vec<f64> = per_pass.iter().map(|l| l.get(name)).collect();
            out.set(name, median(&v));
        }
    }
    out
}

/// Median run time of `passes`, in seconds.
fn median_run_s<'a, K: 'a>(passes: impl Iterator<Item = &'a Pass<K>>) -> f64 {
    median(&passes.map(|p| p.run_s).collect::<Vec<_>>())
}

/// Max over mean of per-shard ingested packets.
fn shard_skew(snap: &Snapshot) -> f64 {
    let counts: Vec<f64> = snap
        .shards
        .iter()
        .map(|s| s.ingest_packets as f64)
        .collect();
    if counts.is_empty() {
        return 0.0;
    }
    let mean = counts.iter().sum::<f64>() / counts.len() as f64;
    counts.iter().cloned().fold(0.0, f64::max) / mean
}

/// Seconds of layer self time in one traced pass: every span except
/// the benchmark's own root.
fn layer_self_s(spans: &[Span]) -> f64 {
    spans::self_time_by_layer(spans)
        .iter()
        .filter(|(name, _)| **name != "pass")
        .map(|(_, ns)| *ns as f64)
        .sum::<f64>()
        / 1e9
}

/// Checks every pass of a kind returned the first pass's top-k.
fn check_same_top<K: FlowKey>(
    checks: &mut Checks,
    what: &str,
    reference: &[(K, u64)],
    got: &[(K, u64)],
) {
    checks.check(reference == got, || {
        format!("{what}: top-k differs from the reference pass")
    });
}

/// Median and p90 of close samples, in milliseconds, plus the sample
/// count and the highest percentile the count supports.
fn close_summary(closes_ns: &[f64]) -> (f64, f64, usize, f64) {
    let ms: Vec<f64> = closes_ns.iter().map(|ns| ns / 1e6).collect();
    let top = stats::highest_supported_percentile(ms.len(), stats::MIN_TAIL_SAMPLES).unwrap_or(0.0);
    (
        stats::median(&ms),
        stats::percentile(&ms, 90.0),
        ms.len(),
        top,
    )
}
