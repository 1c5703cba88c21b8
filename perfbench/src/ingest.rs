//! The ingest workload, `campus-50k`: one trace through a single-thread
//! HK-Parallel and through a 2-shard `ShardedEngine` of the same total
//! memory, with a top-k read every [`READ_PERIOD`] packets and at the
//! end.

use crate::harness::{
    self, begin_root, end_root, secs, self_ns_per_pkt, timed, Closes, Counterpart, Pass, Primary,
    BATCH, HK_SEED, SHARDS, TOP_K,
};
use crate::report::{Checks, Outcome};
use crate::spans::{self, Recorder, Span};
use crate::stats::median;
use crate::Layers;
use heavykeeper::{HkConfig, InsertStats, ParallelTopK, ShardedEngine};
use hk_common::algorithm::{PreparedInsert, TopKAlgorithm};
use hk_common::key::FlowKey;
use hk_traffic::oracle::ExactCounter;
use std::hint::black_box;
use std::time::Instant;

/// Packets between top-k reads: 16 batches.
pub const READ_PERIOD: usize = 16 * BATCH;

/// The single-thread HK-Parallel pipeline. Its facts are the sketch's
/// `InsertStats`, which every pass must repeat exactly.
struct SinglePrimary {
    cfg: HkConfig,
}

impl SinglePrimary {
    /// One replay. Untraced it calls `insert_batch`; traced it calls
    /// the two halves of that path, `HashSpec::prepare_batch` and
    /// `insert_prepared_batch`, each in its own span.
    fn replay<K: FlowKey>(
        &self,
        packets: &[K],
        mut rec: Option<&mut Recorder>,
        round: u64,
    ) -> (Pass<K>, InsertStats) {
        let t = Instant::now();
        let mut hk = ParallelTopK::<K>::new(self.cfg.clone());
        let spec = hk.hash_spec();
        let mut prepared = Vec::with_capacity(BATCH);
        let build_s = secs(t);

        let mut closes = Vec::new();
        let mut top = Vec::new();
        let root = begin_root(&mut rec, round);
        let start = Instant::now();
        let mut batch_id = 0u64;
        for (p, chunk) in packets.chunks(READ_PERIOD).enumerate() {
            for batch in chunk.chunks(BATCH) {
                if rec.is_some() {
                    timed(&mut rec, "prepared", root, batch_id, || {
                        spec.prepare_batch(batch, &mut prepared)
                    });
                    timed(&mut rec, "parallel", root, batch_id, || {
                        hk.insert_prepared_batch(batch, &prepared)
                    });
                } else {
                    hk.insert_batch(batch);
                }
                batch_id += 1;
            }
            let t0 = Instant::now();
            top = timed(&mut rec, "parallel.topk", root, p as u64, || hk.top_k());
            closes.push(t0.elapsed().as_nanos() as f64);
            black_box(&top);
        }
        let run_s = secs(start);
        end_root(&mut rec, root);
        let pass = Pass {
            build_s,
            run_s,
            closes_ns: closes,
            top,
        };
        (pass, *hk.stats())
    }
}

impl<K: FlowKey> Primary<K> for SinglePrimary {
    type Facts = InsertStats;

    fn pass(
        &self,
        packets: &[K],
        _reference: bool,
        round: u64,
        _checks: &mut Checks,
    ) -> (Pass<K>, InsertStats) {
        self.replay(packets, None, round)
    }

    fn traced(
        &self,
        packets: &[K],
        round: u64,
        _checks: &mut Checks,
    ) -> (Pass<K>, InsertStats, Vec<Span>, Layers) {
        let mut rec = Recorder::new();
        let (pass, stats) = self.replay(packets, Some(&mut rec), round);
        let s = rec.spans().to_vec();
        let by = spans::self_time_by_layer(&s);
        let n = packets.len();
        let mut l = Layers::new();
        l.set("prepared.ns_per_pkt", self_ns_per_pkt(&by, "prepared", n));
        l.set("parallel.ns_per_pkt", self_ns_per_pkt(&by, "parallel", n));
        l.set(
            "parallel.topk_us",
            median(&spans::durations(&s, "parallel.topk")) / 1e3,
        );
        let per = |x: u64| x as f64 / stats.packets.max(1) as f64;
        l.set("parallel.increments", per(stats.increments));
        l.set("parallel.decay_rolls", per(stats.decay_rolls));
        l.set("parallel.decays", per(stats.decays));
        l.set("parallel.replacements", per(stats.replacements));
        l.set("parallel.empty_claims", per(stats.empty_claims));
        l.set("parallel.match_rate", stats.match_rate());
        l.set("store.admissions", per(stats.admissions));
        (pass, stats, s, l)
    }
}

/// Runs an ingest workload with a sketch of `memory_bytes`. Its period
/// closes are the 2-shard engine's flushing `top_k` reads; the
/// single-thread read is `parallel.topk_us`.
pub fn run<K: FlowKey + Send + 'static>(
    packets: &[K],
    memory_bytes: usize,
    seconds: f64,
    trace: bool,
    checks: &mut Checks,
) -> (Outcome, Layers) {
    let cfg = HkConfig::builder()
        .memory_bytes(memory_bytes)
        .k(TOP_K)
        .seed(HK_SEED)
        .build();
    let build = || ShardedEngine::parallel(&cfg, SHARDS);
    let counterpart = Counterpart {
        build: &build,
        period: READ_PERIOD,
        rotate: None,
    };
    let oracle = ExactCounter::from_packets(packets);
    let (mut out, layers) = harness::run(
        &SinglePrimary { cfg: cfg.clone() },
        &counterpart,
        Closes::Counterpart,
        packets,
        &oracle,
        seconds,
        trace,
        checks,
    );
    out.detail("distinct_flows", oracle.distinct_flows().to_string());
    (out, layers)
}
