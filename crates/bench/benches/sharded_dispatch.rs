//! The sharded-dispatch bench: hash-once sharded dispatch vs the
//! single-thread batched ceiling, plus the `BENCH_sharded.json`
//! snapshot.
//!
//! The question this bench answers is the one the dispatch-plane
//! rewrite exists for: does a 4-shard [`ShardedEngine`] beat one thread
//! running the same batched ingest on the same workload? Before the
//! rewrite it did not (BENCH_ingest.json: sharded 16.3 Mps vs batched
//! 20.5 Mps on the seed machine) — every packet was hashed twice
//! (route + worker prolog), cloned into per-shard `Vec`s, and shipped
//! over an allocating mutex-backed mpsc channel. The rewritten plane
//! hashes once, ships recycled structure-of-arrays prepared sub-batches
//! over bounded channels, and workers ingest via
//! `insert_prepared_batch` with no re-hash.
//!
//! Measurements are **interleaved paired rounds**
//! ([`measure_paired_mps_with`]): each round times single-thread
//! batched and 4-shard sharded back to back, so drift on a shared VM
//! degrades the pair, not one side. The snapshot pass writes every
//! round pair plus the drift-resistant mean ratio to
//! `BENCH_sharded.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use heavykeeper::{HkConfig, ParallelTopK, ShardedEngine};
use hk_common::algorithm::TopKAlgorithm;
use hk_metrics::throughput::{measure_paired_mps_with, IngestMode};
use hk_traffic::synthetic::sampled_zipf;

/// Sketch memory: large enough that bucket lines miss cache, the regime
/// line-rate deployments with millions of flows live in.
const MEM: usize = 32 * 1024 * 1024;
const K: usize = 100;
const BATCH: usize = 8192;
const SHARDS: usize = 4;
/// Paired rounds for the snapshot (each round = one batched + one
/// sharded full-trace run, adjacent in time).
const ROUNDS: usize = 3;

fn workload() -> Vec<u64> {
    // The standard ingest workload (same as BENCH_ingest.json /
    // BENCH_layout.json): 4M packets over 2M flows at skew 0.8.
    sampled_zipf(4_000_000, 2_000_000, 0.8, 1).packets
}

fn cfg() -> HkConfig {
    HkConfig::builder().memory_bytes(MEM).k(K).seed(1).build()
}

fn bench_sharded_dispatch(c: &mut Criterion) {
    let packets = workload();
    let mut g = c.benchmark_group("sharded_dispatch");
    g.sample_size(3);
    g.throughput(Throughput::Elements(packets.len() as u64));

    g.bench_function("single_batched", |b| {
        b.iter(|| {
            let mut hk = ParallelTopK::<u64>::new(cfg());
            for chunk in packets.chunks(BATCH) {
                hk.insert_batch(chunk);
            }
            hk.top_k().len()
        })
    });
    g.bench_function("sharded_prepared", |b| {
        b.iter(|| {
            let mut engine = ShardedEngine::parallel(&cfg(), SHARDS);
            assert!(engine.prepared_handoff());
            for chunk in packets.chunks(BATCH) {
                engine.insert_batch(chunk);
            }
            engine.top_k().len()
        })
    });
    g.finish();

    // Snapshot pass: paired A/B rounds for BENCH_sharded.json.
    let paired = measure_paired_mps_with(
        || ParallelTopK::<u64>::new(cfg()),
        || ShardedEngine::parallel(&cfg(), SHARDS),
        &packets,
        ROUNDS,
        IngestMode::Batched(BATCH),
    );

    let rounds_json: Vec<String> = paired
        .rounds
        .iter()
        .map(|r| {
            format!(
                "{{ \"single_batched_mps\": {:.3}, \"sharded_mps\": {:.3} }}",
                r.a_mps, r.b_mps
            )
        })
        .collect();
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"sharded_dispatch\",\n  \"workload\": \"sampled_zipf(n=4e6, m=2e6, skew=0.8)\",\n  \"available_parallelism\": {parallelism},\n  \"algo\": \"HK-Parallel\",\n  \"memory_bytes\": {MEM},\n  \"k\": {K},\n  \"batch\": {BATCH},\n  \"shards\": {SHARDS},\n  \"before\": {{ \"dispatch\": \"hash-twice + clone + unbounded mpsc at commit 08c0fa6 — FROZEN snapshot, recorded 2026-07-28 on the single-CPU container that also recorded the first after-run; on later hosts compare only within one file revision\", \"single_batched_mean_mps\": 15.933, \"sharded_mean_mps\": 14.688, \"sharded_over_single_ratio\": 0.922 }},\n  \"paired_rounds\": [\n    {}\n  ],\n  \"single_batched_mean_mps\": {:.3},\n  \"sharded_mean_mps\": {:.3},\n  \"sharded_over_single_ratio\": {:.3},\n  \"note\": \"paired rounds: each round times single-thread batched and 4-shard sharded back to back on the same trace, with the flushing top-k read inside the clock (end-to-end, no off-clock backlog drain). This container exposes ONE logical CPU, so parity is the physical ceiling for the sharded engine here: the ratio measures pure dispatch-plane overhead, which the hash-once/SPSC rewrite cut roughly in half (paired ratio 0.922 before vs 0.94-0.97 across adjacent after-runs; old sharded ~14.7 -> new ~16.3-16.9 Mps absolute). On multi-core hardware the same workload scales with shard count; re-record there (ROADMAP item).\"\n}}\n",
        rounds_json.join(",\n    "),
        paired.a_mean,
        paired.b_mean,
        paired.ratio_mean,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sharded.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    print!("{json}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(3);
    targets = bench_sharded_dispatch
}
criterion_main!(benches);
