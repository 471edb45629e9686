//! Metric collection, correctness accounting, process gauges and the
//! result line.

use std::fmt::Write as _;

/// Metrics in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Metrics {
    /// Records a metric; a later value of the same name replaces it.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        // `+ 0.0` folds a negative zero into zero.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        match self.values.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_string(), value, unit),
            None => self.values.push((name.to_string(), value, unit)),
        }
    }

    /// Adds a line of context to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Keeps only the named metrics, in the given order. Names never
    /// measured are returned as missing.
    pub fn select(&self, names: &[&str]) -> (Vec<(String, f64, &'static str)>, Vec<String>) {
        let mut kept = Vec::new();
        let mut missing = Vec::new();
        for &name in names {
            match self.values.iter().find(|(n, _, _)| n == name) {
                Some(v) => kept.push(v.clone()),
                None => missing.push(name.to_string()),
            }
        }
        (kept, missing)
    }

    /// The context lines.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// Correctness accounting: operations attempted and failed, with the
/// first few failure descriptions.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Counts a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            self.note(what);
        }
    }

    /// Counts `n` failures described elsewhere.
    pub fn count(&mut self, n: usize) {
        self.failed += n as u64;
    }

    /// Keeps a failure description (the first 16 only).
    pub fn note(&mut self, what: &str) {
        if self.notes.len() < 16 {
            self.notes.push(what.to_string());
        }
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Failure descriptions.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// Logs a progress line to standard error, stamped with the time since
/// the first call.
pub fn progress(what: &str) {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    let t = START.get_or_init(std::time::Instant::now).elapsed();
    eprintln!("perfbench [{:7.2} s] {what}", t.as_secs_f64());
}

/// Online CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// User plus system CPU time of this process so far, s.
pub fn process_cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks (100 Hz on
    // Linux); the command name in field 2 may hold spaces, so split
    // after its closing parenthesis.
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &'static str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

/// A finite number in JSON syntax, every digit kept.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_expected_keys() {
        let line = result_json(
            true,
            10,
            0,
            &[("a_ms".into(), 1.25, "ms"), ("n".into(), 3.0, "count")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"n\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn process_gauges_read_proc() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_s() >= 0.0);
        assert!(nproc() >= 1);
    }
}
