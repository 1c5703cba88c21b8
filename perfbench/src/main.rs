//! The HeavyKeeper benchmark: replays a seeded trace through the
//! library's public entry points, checks the outputs, and prints one
//! JSON result line last.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campus-50k --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` interleaves
//! traced passes and prints the per-layer metrics. See `README.md`.

#![forbid(unsafe_code)]

mod harness;
mod ingest;
mod report;
mod spans;
mod stats;
mod windowed;

use report::{
    fingerprint, json_num, json_object, json_str, peak_rss_mb, result_line, Checks, Outcome,
};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Per-layer metrics, in print order, with their units. A workload
/// that bypasses a layer reports it as 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("prepared.ns_per_pkt", "ns"),
    ("parallel.ns_per_pkt", "ns"),
    ("parallel.topk_us", "us"),
    ("parallel.increments", "1/pkt"),
    ("parallel.decay_rolls", "1/pkt"),
    ("parallel.decays", "1/pkt"),
    ("parallel.replacements", "1/pkt"),
    ("parallel.empty_claims", "1/pkt"),
    ("parallel.match_rate", "ratio"),
    ("store.admissions", "1/pkt"),
    ("sharded.dispatch_ns_per_pkt", "ns"),
    ("sharded.drain_ms", "ms"),
    ("spsc.ring_pushes", "count"),
    ("spsc.ring_pops", "count"),
    ("sharded.buffers_allocated", "count"),
    ("sharded.shard_skew", "ratio"),
    ("sharded.dispatch_latency_p50_ns", "ns"),
    ("sharded.dispatch_latency_p99_ns", "ns"),
    ("sliding.ingest_ns_per_pkt", "ns"),
    ("sliding.rotate_us_p50", "us"),
    ("wire.export_us_p50", "us"),
    ("wire.bytes_per_frame", "B"),
    ("wire.dirty_frame_share", "ratio"),
    ("collector.apply_us_p50", "us"),
    ("collector.query_ms_p50", "ms"),
    ("collector.frames_rejected", "count"),
    ("telemetry.ingest_ns_per_pkt", "ns"),
    ("telemetry.rotate_ms_p50", "ms"),
    ("sharded.rotate_all_us", "us"),
    ("sharded.checkpoints", "count"),
    ("sharded.recover_ms", "ms"),
    ("reshard.ms", "ms"),
    ("sharded.dark_packets", "count"),
    ("uplink_bytes_per_period", "B"),
    ("are", "ratio"),
    ("failed_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("trace.overhead_share", "ratio"),
    ("trace.gap_share", "ratio"),
    ("trace.overhead_share_sharded", "ratio"),
    ("trace.gap_share_sharded", "ratio"),
];

/// Named per-layer values of one run.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `name` to `v`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    /// The value of `name`, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Sets every name `other` sets to its value there.
    pub fn merge(&mut self, other: &Layers) {
        self.0.extend(other.0.iter().map(|(k, v)| (*k, *v)));
    }

    /// Every name set.
    pub fn names(&self) -> Vec<&'static str> {
        self.0.keys().copied().collect()
    }
}

/// The workloads, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["campus-50k", "fleet-window", "engine-lifecycle"];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: hk-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    silence_injected_faults();
    let mut checks = Checks::default();
    let (mut out, mut layers) = match args.workload.as_str() {
        // Paper Fig. 33 setup: 5-tuple campus traffic, 50 KB sketch.
        "campus-50k" => {
            let t = hk_traffic::presets::campus_like(10, args.seed).packets;
            ingest::run(&t, 50 * 1024, args.seconds, args.trace, &mut checks)
        }
        "fleet-window" => {
            let t = windowed::trace(args.seed);
            windowed::run_fleet(&t, args.seconds, args.trace, &mut checks)
        }
        _ => {
            let t = windowed::trace(args.seed);
            windowed::run_lifecycle(&t, args.seconds, args.trace, &mut checks)
        }
    };
    let attempted = out.packets + checks.run();
    layers.set("peak_rss_mb", peak_rss_mb());

    let mut detail = vec![
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("trace".to_string(), args.trace.to_string()),
    ];
    detail.extend(fingerprint());
    detail.extend(out.detail.iter().cloned());
    detail.push(("checks_run".to_string(), checks.run().to_string()));
    detail.push(("checks_failed".to_string(), checks.failed().to_string()));
    let printed = if args.trace {
        detail.push((
            "end_to_end".to_string(),
            json_object(
                &out.metrics
                    .iter()
                    .map(|(n, v, _)| (n.to_string(), json_num(*v)))
                    .collect::<Vec<_>>(),
            ),
        ));
        let mut traced = Outcome::default();
        for (name, unit) in PER_LAYER {
            traced.metric(name, layers.get(name), unit);
        }
        traced
    } else {
        out.detail.clear();
        std::mem::take(&mut out)
    };
    println!("{}", json_object(&detail));

    let correct = checks.failed() == 0 && printed.metrics.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{}",
        result_line(correct, attempted, checks.failed(), &printed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `engine-lifecycle` workload kills a shard worker on purpose;
/// keep that panic's message off stderr and report every other panic
/// as usual.
fn silence_injected_faults() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.starts_with("fault injection") {
            default(info);
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this program must agree on every name.
    #[test]
    fn benchmark_json_names_match() {
        let json = include_str!("../../BENCHMARK.json");
        let listed: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"why\":"))
            .filter_map(|l| l.split("\"name\": \"").nth(1)?.split('"').next())
            .collect();
        assert_eq!(listed, WORKLOADS);
        for (name, unit) in PER_LAYER {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "per-layer metric {name} ({unit})"
            );
        }
        for name in [
            "setup_s",
            "mpps",
            "mpps_sharded",
            "precision",
            "close_p50_ms",
            "close_p90_ms",
        ] {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "metric {name}"
            );
        }
    }
}
