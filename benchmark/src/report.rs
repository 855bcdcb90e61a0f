//! Declared metrics, summary statistics, and the result a run prints.

use std::collections::BTreeMap;
use std::time::Duration;

/// One declared metric: its name and unit, as `BENCHMARK.json` lists it.
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn decl(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit }
}

/// Metrics of an untraced run, printed for every workload.
pub const END_TO_END: &[Decl] = &[
    decl("setup_s", "s"),
    decl("ops_per_s", "1/s"),
    decl("p50_ms", "ms"),
    decl("p90_ms", "ms"),
    decl("peak_rss_mb", "MiB"),
];

/// Metrics of a traced run, printed for every workload.
pub const PER_LAYER: &[Decl] = &[
    decl("bench.busy_frac", "ratio"),
    decl("search.pick_frac", "ratio"),
    decl("search.pick_frac.surrogate", "ratio"),
    decl("core.eval.frac", "ratio"),
    decl("core.eval.calls", "count"),
    decl("preprocess.frac", "ratio"),
    decl("models.frac", "ratio"),
    decl("wire.frac", "ratio"),
    decl("serve.codec_frac", "ratio"),
    decl("core.cache.hit_rate", "ratio"),
    decl("core.cache.lookups", "count"),
    decl("core.prefix.hit_rate", "ratio"),
    decl("core.prefix.steps_saved", "count"),
    decl("core.prefix.bytes", "bytes"),
    decl("core.repo.appended", "count"),
    decl("core.repo.preloaded", "count"),
    decl("core.repo.segment_bytes", "bytes"),
    decl("core.repo.resume_frac", "ratio"),
    decl("evald.faults", "count"),
    decl("evald.worker_hits", "count"),
    decl("serve.predicted", "count"),
    decl("serve.rejected_non_finite", "count"),
    decl("serve.rejected_arity", "count"),
    decl("setup.generate_frac", "ratio"),
    decl("setup.build_frac", "ratio"),
    decl("setup.spawn_frac", "ratio"),
];

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` percent of the sample at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (its default exclusive
/// method), so the spreads printed here match the ones used to set and
/// check the bounds in `BENCHMARK.json`.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        // Negative for tiny samples, exactly as in Python.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Per-round values of the end-to-end timings.
///
/// A run reports the median set-up over its rounds, and for throughput and
/// latency the best value any round reached. Load from elsewhere on a
/// shared machine only ever slows a round down, and it comes in episodes
/// of seconds that can slow a whole round by a third; the least disturbed
/// round is the steadiest estimate of the program's own speed.
#[derive(Default)]
pub struct RoundTimes {
    setup_s: Vec<f64>,
    ops_per_s: Vec<f64>,
    p50_ms: Vec<f64>,
    p90_ms: Vec<f64>,
}

impl RoundTimes {
    /// Record one round: its set-up, the operations it completed in its
    /// `measured` time, and the latency of each operation in milliseconds.
    pub fn push(
        &mut self,
        setup: Duration,
        ops: u64,
        measured: Duration,
        mut latencies_ms: Vec<f64>,
    ) {
        self.setup_s.push(setup.as_secs_f64());
        self.ops_per_s.push(ops as f64 / measured.as_secs_f64());
        if !latencies_ms.is_empty() {
            latencies_ms.sort_by(f64::total_cmp);
            self.p50_ms.push(nearest_rank(&latencies_ms, 50.0));
            self.p90_ms.push(nearest_rank(&latencies_ms, 90.0));
        }
    }

    /// Set the end-to-end timings; one without any sample stays unset,
    /// which fails the run.
    pub fn fill(&self, out: &mut Outcome) {
        let best = |values: &[f64], higher: bool| {
            values.iter().copied().reduce(|a, b| if (b > a) == higher { b } else { a })
        };
        let values = [
            ("setup_s", (!self.setup_s.is_empty()).then(|| median(&self.setup_s))),
            ("ops_per_s", best(&self.ops_per_s, true)),
            ("p50_ms", best(&self.p50_ms, false)),
            ("p90_ms", best(&self.p90_ms, false)),
        ];
        for (name, value) in values {
            if let Some(value) = value {
                out.set(name, value);
            }
        }
    }
}

/// The traced run's reconciliation: attributed time must cover the
/// measured thread time, without counting any of it twice.
pub fn check_busy(out: &mut Outcome) {
    let busy = out.values.get("bench.busy_frac").copied().unwrap_or(0.0);
    out.check((0.80..=1.05).contains(&busy), || {
        format!("traced time does not reconcile: busy share {busy:.3} outside [0.80, 1.05]")
    });
}

/// Everything one workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (search trials, evaluations or requests).
    pub attempted: u64,
    /// Operations that failed (worst-error trials, failed requests).
    pub failed: u64,
    /// Metric values by declared name.
    pub values: BTreeMap<&'static str, f64>,
    /// Correctness checks that did not hold; any makes the run incorrect.
    pub problems: Vec<String>,
    /// Digest of the first round's results, for the cross-workload checks.
    pub digest: Option<u64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Print the human lines and, last, the one-line JSON result; returns
    /// whether every check held. Every end-to-end metric must have been
    /// measured; a per-layer metric left unset is a layer the workload does
    /// not pass through, and reads 0.
    pub fn print(mut self, workload: &str, trace: bool) -> bool {
        let decls = if trace { PER_LAYER } else { END_TO_END };
        let mut json = Vec::with_capacity(decls.len());
        for d in decls {
            let value = match self.values.get(d.name) {
                None if trace => Some(0.0),
                v => v.copied().filter(|v| v.is_finite()),
            };
            if value.is_none() {
                self.problems.push(format!("metric {} has no finite value", d.name));
            }
            let value = value.unwrap_or(0.0);
            println!("{workload} {} {value} {}", d.name, d.unit);
            json.push(format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", d.name, d.unit));
        }
        if let Some(digest) = self.digest {
            println!("{workload} digest {digest:016x}");
        }
        if self.attempted == 0 {
            self.problems.push("no operation was attempted".into());
        }
        for p in &self.problems {
            eprintln!("{workload}: check failed: {p}");
        }
        let correct = self.problems.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_value_covering_p() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50.0);
        assert_eq!(nearest_rank(&v, 99.0), 99.0);
        assert_eq!(nearest_rank(&v, 99.5), 100.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&[3.0, 7.0, 9.0], 50.0), 7.0);
        assert_eq!(nearest_rank(&[3.0, 7.0, 9.0], 67.0), 9.0);
        assert_eq!(nearest_rank(&[4.0], 99.0), 4.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 4, 2], n=4) == [1.25, 3.0, 4.75]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0]), [1.25, 3.0, 4.75]);
        // statistics.quantiles([2, 8], n=4) == [0.5, 5.0, 9.5]
        assert_eq!(quartiles(&[2.0, 8.0]), [0.5, 5.0, 9.5]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[6.0]), 6.0);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(d.unit.len() <= 16, "{}", d.unit);
        }
    }
}
