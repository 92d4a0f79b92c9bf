//! Minimal wall-clock benchmark harness (the in-tree criterion
//! replacement).
//!
//! Each benchmark runs a warm-up iteration followed by `samples` timed
//! iterations and reports the **median** wall-clock time — robust to the
//! occasional scheduler hiccup without criterion's statistical machinery.
//! Results print as an aligned table and are also written as JSON to
//! `target/xai-bench/<group>.json`, relative to the working directory
//! (`crates/bench` under `cargo bench`), so runs can be diffed or
//! tracked by scripts. The checked-in gate baselines live elsewhere, in
//! `crates/bench/baselines/`.
//!
//! Knobs (environment variables):
//! - `XAI_BENCH_SAMPLES` — timed iterations per benchmark (default 11).
//! - `XAI_BENCH_JSON_DIR` — where JSON reports go (default
//!   `target/xai-bench`; set to `-` to disable writing).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One benchmark's timing summary.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark name within the group.
    pub name: String,
    /// Median of the timed iterations.
    pub median: Duration,
    /// Fastest iteration.
    pub min: Duration,
    /// Slowest iteration.
    pub max: Duration,
    /// Number of timed iterations.
    pub samples: usize,
}

/// A named group of benchmarks sharing a sample count.
pub struct Group {
    name: String,
    samples: usize,
    measurements: Vec<Measurement>,
}

fn env_samples() -> usize {
    std::env::var("XAI_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(11)
}

impl Group {
    /// Creates a group with the sample count from `XAI_BENCH_SAMPLES`
    /// (default 11).
    pub fn new(name: &str) -> Self {
        Self { name: name.to_string(), samples: env_samples(), measurements: Vec::new() }
    }

    /// Overrides the per-benchmark sample count (for expensive subjects).
    pub fn samples(mut self, n: usize) -> Self {
        assert!(n >= 1, "need at least one sample");
        self.samples = n;
        self
    }

    /// Times `f` and records the measurement; returns the median.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> Duration {
        black_box(f()); // warm-up: page in code and data, fill caches
        let mut times: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                black_box(f());
                start.elapsed()
            })
            .collect();
        times.sort_unstable();
        let median = times[times.len() / 2];
        let m = Measurement {
            name: name.to_string(),
            median,
            min: times[0],
            max: times[times.len() - 1],
            samples: self.samples,
        };
        self.measurements.push(m);
        median
    }

    /// Renders the results table, writes the JSON report, and returns the
    /// measurements.
    pub fn finish(self) -> Vec<Measurement> {
        let mut table = crate::Table::new(
            &format!("bench {} (median of {})", self.name, self.samples),
            &["benchmark", "median", "min", "max"],
        );
        for m in &self.measurements {
            table.row(vec![
                m.name.clone(),
                crate::fmt_duration(m.median),
                crate::fmt_duration(m.min),
                crate::fmt_duration(m.max),
            ]);
        }
        table.print();
        if let Some(path) = self.json_path() {
            if let Err(e) = std::fs::create_dir_all(path.parent().expect("dir has parent"))
                .and_then(|()| std::fs::write(&path, self.to_json()))
            {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("  json: {}", path.display());
            }
        }
        self.measurements
    }

    fn json_path(&self) -> Option<std::path::PathBuf> {
        let dir = std::env::var("XAI_BENCH_JSON_DIR").unwrap_or_else(|_| "target/xai-bench".into());
        if dir == "-" {
            return None;
        }
        Some(std::path::PathBuf::from(dir).join(format!("{}.json", self.name)))
    }

    /// Serializes the group as a JSON document (hand-rolled; the workspace
    /// has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"group\": {},\n", json_string(&self.name)));
        out.push_str(&format!("  \"samples\": {},\n", self.samples));
        out.push_str("  \"benchmarks\": [\n");
        for (i, m) in self.measurements.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}{}\n",
                json_string(&m.name),
                m.median.as_nanos(),
                m.min.as_nanos(),
                m.max.as_nanos(),
                if i + 1 < self.measurements.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_median_between_extremes() {
        let mut g = Group::new("unit-test").samples(5);
        let mut calls = 0u32;
        let median = g.bench("noop", || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 6, "warm-up + 5 samples");
        let m = &g.measurements[0];
        assert!(m.min <= median && median <= m.max);
    }

    #[test]
    fn json_is_well_formed() {
        let mut g = Group::new("json\"test").samples(1);
        g.bench("a", || 1 + 1);
        g.bench("b", || 2 + 2);
        let j = g.to_json();
        assert!(j.contains("\"group\": \"json\\\"test\""));
        assert!(j.contains("\"median_ns\""));
        assert_eq!(j.matches("\"name\"").count(), 2);
        // One comma between the two benchmark objects, none trailing.
        assert!(j.contains("}},\n") || j.contains("},\n"));
        assert!(!j.contains(",\n  ]"));
    }

    #[test]
    fn string_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
