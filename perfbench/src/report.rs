//! Run results: metrics, correctness checks, host fingerprint, and the
//! one-line JSON result the benchmark prints last.

use std::fmt::Write as _;

/// Correctness checks of one run. A failed check is printed to stderr
/// as it happens and fails the run.
#[derive(Debug, Default)]
pub struct Checks {
    run: u64,
    failed: u64,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// Checks run so far.
    pub fn run(&self) -> u64 {
        self.run
    }

    /// Checks failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics in print order: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Packets replayed across every pass of the run.
    pub packets: u64,
    /// Context lines for the detail record (key, JSON value).
    pub detail: Vec<(String, String)>,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Appends a detail entry whose value is already JSON.
    pub fn detail(&mut self, key: &str, json_value: String) {
        self.detail.push((key.to_string(), json_value));
    }
}

/// Host fingerprint: CPU model, `available_parallelism`, `rustc -V`.
pub fn fingerprint() -> Vec<(String, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let par = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc_v = std::process::Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("cpu_model".to_string(), json_str(&cpu)),
        ("available_parallelism".to_string(), par.to_string()),
        ("rustc".to_string(), json_str(&rustc_v)),
    ]
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot hold) become
/// `null` so a broken measurement is visible rather than misparsed.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON object from already-encoded values.
pub fn json_object(entries: &[(String, String)]) -> String {
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The final result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, outcome: &Outcome) -> String {
    let metrics: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.to_string(),
                format!(
                    "{{\"value\": {}, \"unit\": {}}}",
                    json_num(*value),
                    json_str(unit)
                ),
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_object(&metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut o = Outcome::default();
        o.metric("mpps", 12.5, "Mpkt/s");
        let line = result_line(true, 10, 0, &o);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"mpps\": {\"value\": 12.5, \"unit\": \"Mpkt/s\"}}}"
        );
    }

    #[test]
    fn strings_and_numbers_escape() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(0.1), "0.1");
    }
}
