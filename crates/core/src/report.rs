//! Rendering search outcomes as text artifacts (TSV and Markdown).
//!
//! The experiment harness and the CLI both need to persist results in a
//! form that diff-based tooling and humans can read. This module keeps
//! the rendering logic next to the data it renders.

use crate::cache::CacheStats;
use crate::error::{FailureKind, FailureStats};
use crate::framework::SearchOutcome;
use crate::prefix::PrefixStats;
use crate::remote::FleetStats;
use crate::repo::StoreStats;
use std::fmt::Write as _;

/// Render an outcome's trials as TSV (`index`, `pipeline`, `accuracy`,
/// `error`, `prep_ms`, `train_ms`, `train_fraction`, `failure`), with a
/// header row. The `failure` column is `-` for successful trials and
/// the [`FailureKind`] name for worst-error trials.
pub fn trials_tsv(outcome: &SearchOutcome) -> String {
    let mut out = String::from(
        "index\tpipeline\taccuracy\terror\tprep_ms\ttrain_ms\ttrain_fraction\tfailure\n",
    );
    for (i, t) in outcome.history.trials().iter().enumerate() {
        let _ = writeln!(
            out,
            "{i}\t{}\t{:.6}\t{:.6}\t{:.3}\t{:.3}\t{:.3}\t{}",
            t.pipeline,
            t.accuracy,
            t.error,
            t.prep_time.as_secs_f64() * 1e3,
            t.train_time.as_secs_f64() * 1e3,
            t.train_fraction,
            t.failure.map_or("-", FailureKind::name),
        );
    }
    out
}

/// Render a compact Markdown summary of one search run.
pub fn summary_markdown(outcome: &SearchOutcome, baseline: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "### {} search summary\n", outcome.algorithm);
    let _ = writeln!(out, "| metric | value |");
    let _ = writeln!(out, "|---|---|");
    let _ = writeln!(out, "| evaluations | {} |", outcome.history.len());
    let _ = writeln!(out, "| elapsed | {:.3} s |", outcome.elapsed.as_secs_f64());
    let _ = writeln!(out, "| no-FP baseline | {baseline:.4} |");
    let _ = writeln!(out, "| best accuracy | {:.4} |", outcome.best_accuracy());
    let _ = writeln!(
        out,
        "| improvement | {:+.2} pp |",
        (outcome.best_accuracy() - baseline) * 100.0
    );
    if let Some(best) = outcome.best() {
        let _ = writeln!(out, "| best pipeline | `{}` |", best.pipeline);
    }
    let (pick, prep, train) = outcome.breakdown.percentages();
    let _ = writeln!(
        out,
        "| phase split | Pick {pick:.0}% / Prep {prep:.0}% / Train {train:.0}% |"
    );
    if let Some(stats) = &outcome.cache {
        let _ = writeln!(
            out,
            "| cache | {} hits / {} lookups ({:.0}% hit rate), {:.3} s saved |",
            stats.hits,
            stats.lookups(),
            stats.hit_rate() * 100.0,
            stats.saved.as_secs_f64(),
        );
    }
    if let Some(p) = &outcome.prefix {
        let _ = writeln!(
            out,
            "| prefix cache | {} hits / {} lookups ({:.0}% hit rate), {} steps saved |",
            p.hits,
            p.lookups(),
            p.hit_rate() * 100.0,
            p.steps_saved,
        );
    }
    if outcome.failures.total() > 0 {
        let detail: Vec<String> = FailureKind::ALL
            .iter()
            .filter(|&&k| outcome.failures.count(k) > 0)
            .map(|&k| format!("{} {}", outcome.failures.count(k), k.name()))
            .collect();
        let _ = writeln!(
            out,
            "| failed trials | {} ({}) |",
            outcome.failures.total(),
            detail.join(", ")
        );
    }
    out
}

/// Render a per-run failure tally as a Markdown table (every kind is
/// listed, including zero rows, so tables are diffable across runs).
pub fn failure_stats_markdown(stats: &FailureStats) -> String {
    let mut out = String::from("### Evaluation failures\n\n");
    let _ = writeln!(out, "| kind | count |");
    let _ = writeln!(out, "|---|---|");
    for kind in FailureKind::ALL {
        let _ = writeln!(out, "| {} | {} |", kind.name(), stats.count(kind));
    }
    let _ = writeln!(out, "| **total** | {} |", stats.total());
    out
}

/// Render cache-layer statistics as a Markdown table with one block of
/// rows per layer, so trial-cache ([`crate::EvalCache`]) and
/// prefix-cache ([`crate::PrefixCache`]) numbers stay distinguishable
/// in exp_* bin output. Pass `prefix: None` for runs without a prefix
/// cache — the table then only carries `trial` rows.
pub fn cache_stats_markdown(stats: &CacheStats, prefix: Option<&PrefixStats>) -> String {
    let mut out = String::from("### Evaluation caches\n\n");
    let _ = writeln!(out, "| layer | metric | value |");
    let _ = writeln!(out, "|---|---|---|");
    let _ = writeln!(out, "| trial | lookups | {} |", stats.lookups());
    let _ = writeln!(out, "| trial | hits | {} |", stats.hits);
    let _ = writeln!(out, "| trial | misses | {} |", stats.misses);
    let _ = writeln!(out, "| trial | hit rate | {:.1}% |", stats.hit_rate() * 100.0);
    let _ = writeln!(out, "| trial | entries | {} |", stats.entries);
    let _ = writeln!(out, "| trial | eval time saved | {:.3} s |", stats.saved.as_secs_f64());
    if let Some(p) = prefix {
        out.push_str(&prefix_stats_rows(p));
    }
    out
}

/// The `prefix` layer's rows of a per-layer cache table (shared by
/// [`cache_stats_markdown`] and [`matrix_stats_markdown`]).
fn prefix_stats_rows(p: &PrefixStats) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| prefix | lookups | {} |", p.lookups());
    let _ = writeln!(out, "| prefix | hits | {} |", p.hits);
    let _ = writeln!(out, "| prefix | misses | {} |", p.misses);
    let _ = writeln!(out, "| prefix | hit rate | {:.1}% |", p.hit_rate() * 100.0);
    let _ = writeln!(out, "| prefix | entries | {} |", p.entries);
    let _ = writeln!(out, "| prefix | bytes | {} |", p.bytes);
    let _ = writeln!(out, "| prefix | evictions | {} |", p.evictions);
    let _ = writeln!(out, "| prefix | bytes evicted | {} |", p.bytes_evicted);
    let _ = writeln!(out, "| prefix | poisoned rejects | {} |", p.poisoned);
    let _ = writeln!(out, "| prefix | steps saved | {} |", p.steps_saved);
    let _ = writeln!(out, "| prefix | transform time saved | {:.3} s |", p.saved.as_secs_f64());
    out
}

/// The durable `store` layer's rows of a per-layer cache table (see
/// [`crate::repo::TrialStore`]); every counter is listed, including
/// zeros, so tables are diffable across runs. A nonzero
/// `truncated bytes` row is the visible trace of a torn-tail recovery.
fn store_stats_rows(s: &StoreStats) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| store | trials | {} |", s.trials);
    let _ = writeln!(out, "| store | preloaded | {} |", s.preloaded);
    let _ = writeln!(out, "| store | appended | {} |", s.appended);
    let _ = writeln!(out, "| store | deduped | {} |", s.deduped);
    let _ = writeln!(out, "| store | never-persist skips | {} |", s.skipped);
    let _ = writeln!(out, "| store | io errors | {} |", s.io_errors);
    let _ = writeln!(out, "| store | truncated bytes | {} |", s.truncated_bytes);
    out
}

/// Render matrix-level aggregate statistics — per-layer cache tallies
/// and one failure tally folded over every cell of a dataset × model ×
/// algorithm matrix — as a compact Markdown block.
///
/// The bench harness prints this under each results table so shared
/// cross-algorithm cache reuse, prefix-transform reuse (when a prefix
/// cache ran — pass `None` otherwise), durable trial-store traffic
/// (when `--trial-store` ran — pass `None` otherwise), and any
/// worst-error trials are observable in the report itself.
pub fn matrix_stats_markdown(
    cache: &CacheStats,
    prefix: Option<&PrefixStats>,
    store: Option<&StoreStats>,
    failures: &FailureStats,
) -> String {
    let mut out = String::from("### Matrix aggregate stats\n\n");
    let _ = writeln!(out, "| layer | metric | value |");
    let _ = writeln!(out, "|---|---|---|");
    let _ = writeln!(out, "| trial | lookups | {} |", cache.lookups());
    let _ = writeln!(
        out,
        "| trial | hits | {} ({:.1}%) |",
        cache.hits,
        cache.hit_rate() * 100.0
    );
    let _ = writeln!(out, "| trial | misses | {} |", cache.misses);
    let _ = writeln!(out, "| trial | entries | {} |", cache.entries);
    let _ = writeln!(out, "| trial | eval time saved | {:.3} s |", cache.saved.as_secs_f64());
    if let Some(p) = prefix {
        out.push_str(&prefix_stats_rows(p));
    }
    if let Some(s) = store {
        out.push_str(&store_stats_rows(s));
    }
    if failures.total() == 0 {
        let _ = writeln!(out, "| - | failed trials | 0 |");
    } else {
        let detail: Vec<String> = FailureKind::ALL
            .iter()
            .filter(|&&k| failures.count(k) > 0)
            .map(|&k| format!("{} {}", failures.count(k), k.name()))
            .collect();
        let _ = writeln!(
            out,
            "| - | failed trials | {} ({}) |",
            failures.total(),
            detail.join(", ")
        );
    }
    out
}

/// Render the fleet robustness counters of a `--remote`/`--workers`
/// run as a Markdown table (see [`FleetStats`]). Every counter is
/// listed, including zero rows, so tables are diffable across runs; a
/// healthy run shows all zeros below the `workers` row.
pub fn fleet_stats_markdown(stats: &FleetStats) -> String {
    let mut out = String::from("### Fleet robustness\n\n");
    let _ = writeln!(out, "| metric | value |");
    let _ = writeln!(out, "|---|---|");
    let _ = writeln!(out, "| epoch | {} |", stats.epoch);
    let _ = writeln!(out, "| workers | {} |", stats.workers);
    let _ = writeln!(out, "| reconnects | {} |", stats.reconnects);
    let _ = writeln!(out, "| retries | {} |", stats.retries);
    let _ = writeln!(out, "| failovers | {} |", stats.failovers);
    let _ = writeln!(out, "| circuit opens | {} |", stats.circuit_opens);
    let _ = writeln!(out, "| respawns | {} |", stats.respawns);
    out
}

/// The best-so-far accuracy after each evaluation (the paper's anytime
/// curves, Figures 17-19).
pub fn best_so_far_curve(outcome: &SearchOutcome) -> Vec<f64> {
    let mut best = 0.0_f64;
    outcome
        .history
        .trials()
        .iter()
        .map(|t| {
            // Partial rungs do not improve the reported best.
            if t.train_fraction >= 1.0 - 1e-9 {
                best = best.max(t.accuracy);
            }
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{EvalConfig, Evaluator};
    use crate::framework::{run_search, SearchContext, Searcher};
    use crate::Budget;
    use autofp_data::SynthConfig;
    use autofp_preprocess::{ParamSpace, Pipeline};

    struct Fixed;
    impl Searcher for Fixed {
        fn name(&self) -> &'static str {
            "FIXED"
        }
        fn search(&mut self, ctx: &mut SearchContext) {
            let space = ParamSpace::default_space();
            let mut rng = autofp_linalg::rng::rng_from_seed(5);
            while ctx.evaluate(&space.sample_pipeline(&mut rng, 3)).is_some() {}
        }
    }

    fn outcome() -> (SearchOutcome, f64) {
        let d = SynthConfig::new("report", 100, 4, 2, 3).generate();
        let ev = Evaluator::new(&d, EvalConfig::default());
        (run_search(&mut Fixed, &ev, Budget::evals(6)), ev.baseline_accuracy())
    }

    #[test]
    fn tsv_has_header_and_one_row_per_trial() {
        let (out, _) = outcome();
        let tsv = trials_tsv(&out);
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), 7);
        assert!(lines[0].starts_with("index\tpipeline"));
        assert_eq!(lines[1].split('\t').count(), 8);
        assert!(lines[1].ends_with("\t-"), "successful trial renders `-` failure");
    }

    #[test]
    fn failure_stats_render_all_kinds() {
        use crate::error::{FailureKind, FailureStats};
        let mut stats = FailureStats::new();
        stats.record(FailureKind::Panic);
        stats.record(FailureKind::Deadline);
        stats.record(FailureKind::Deadline);
        let md = failure_stats_markdown(&stats);
        for kind in FailureKind::ALL {
            assert!(md.contains(kind.name()), "missing {}", kind.name());
        }
        assert!(md.contains("| panic | 1 |"));
        assert!(md.contains("| deadline | 2 |"));
        assert!(md.contains("| **total** | 3 |"));
        assert!(md.contains("| non-finite | 0 |"));
    }

    #[test]
    fn summary_lists_failures_only_when_present() {
        let (out, baseline) = outcome();
        let md = summary_markdown(&out, baseline);
        assert!(!md.contains("failed trials"), "clean run has no failure row");
        let mut faulty = out.clone();
        faulty.failures.record(crate::error::FailureKind::Panic);
        let md = summary_markdown(&faulty, baseline);
        assert!(md.contains("| failed trials | 1 (1 panic) |"));
    }

    #[test]
    fn markdown_mentions_best_pipeline() {
        let (out, baseline) = outcome();
        let md = summary_markdown(&out, baseline);
        assert!(md.contains("best accuracy"));
        assert!(md.contains("FIXED"));
        assert!(md.contains("| best pipeline |"));
    }

    #[test]
    fn cache_stats_render_and_appear_in_summary() {
        use crate::cache::EvalCache;
        use crate::framework::run_search_with;
        let d = SynthConfig::new("report-cache", 100, 4, 2, 3).generate();
        let ev = Evaluator::new(&d, EvalConfig::default());
        let cache = EvalCache::new();
        let out = run_search_with(&mut Fixed, &ev, Budget::evals(6), None, Some(&cache));
        let stats = out.cache.expect("cached run snapshots stats");
        let md = cache_stats_markdown(&stats, None);
        assert!(md.contains("| trial | lookups | 6 |"));
        assert!(md.contains("hit rate"));
        assert!(!md.contains("| prefix |"), "no prefix rows without a prefix cache");
        let summary = summary_markdown(&out, ev.baseline_accuracy());
        assert!(summary.contains("| cache |"));
        assert!(!summary.contains("| prefix cache |"));
    }

    #[test]
    fn per_layer_rows_keep_trial_and_prefix_distinguishable() {
        use crate::prefix::PrefixStats;
        let trial = CacheStats {
            hits: 4,
            misses: 6,
            entries: 6,
            saved: std::time::Duration::from_millis(20),
        };
        let prefix = PrefixStats {
            hits: 8,
            misses: 2,
            entries: 5,
            bytes: 4096,
            evictions: 3,
            bytes_evicted: 2048,
            poisoned: 1,
            steps_saved: 17,
            saved: std::time::Duration::from_millis(50),
        };
        let md = cache_stats_markdown(&trial, Some(&prefix));
        // Same metric name in both layers must resolve to different rows.
        assert!(md.contains("| trial | hits | 4 |"));
        assert!(md.contains("| prefix | hits | 8 |"));
        assert!(md.contains("| prefix | bytes | 4096 |"));
        assert!(md.contains("| prefix | bytes evicted | 2048 |"));
        assert!(md.contains("| prefix | poisoned rejects | 1 |"));
        assert!(md.contains("| prefix | steps saved | 17 |"));

        let md = matrix_stats_markdown(&trial, Some(&prefix), None, &FailureStats::new());
        assert!(md.contains("| trial | hits | 4 (40.0%) |"));
        assert!(md.contains("| prefix | hits | 8 |"));
        assert!(md.contains("| prefix | hit rate | 80.0% |"));
        assert!(!md.contains("| store |"), "no store rows without a trial store");
    }

    #[test]
    fn store_rows_render_every_counter_in_the_matrix_table() {
        use crate::repo::StoreStats;
        let store = StoreStats {
            appended: 12,
            deduped: 3,
            skipped: 2,
            io_errors: 0,
            preloaded: 7,
            trials: 19,
            truncated_bytes: 41,
        };
        let md = matrix_stats_markdown(&CacheStats::default(), None, Some(&store), &FailureStats::new());
        assert!(md.contains("| store | trials | 19 |"));
        assert!(md.contains("| store | preloaded | 7 |"));
        assert!(md.contains("| store | appended | 12 |"));
        assert!(md.contains("| store | deduped | 3 |"));
        assert!(md.contains("| store | never-persist skips | 2 |"));
        assert!(md.contains("| store | io errors | 0 |"));
        assert!(md.contains("| store | truncated bytes | 41 |"), "torn-tail recovery must be visible:\n{md}");
    }

    #[test]
    fn prefix_summary_row_renders_when_cache_attached() {
        use crate::prefix::PrefixCache;
        let d = SynthConfig::new("report-prefix", 100, 4, 2, 3).generate();
        let ev = Evaluator::new(&d, EvalConfig::default())
            .with_prefix_cache(PrefixCache::new());
        let out = run_search(&mut Fixed, &ev, Budget::evals(6));
        let md = summary_markdown(&out, ev.baseline_accuracy());
        assert!(md.contains("| prefix cache |"), "summary must surface prefix stats:\n{md}");
    }

    #[test]
    fn matrix_stats_render_cache_and_failures() {
        use crate::cache::CacheStats;
        use crate::error::{FailureKind, FailureStats};
        let mut cache = CacheStats::default();
        cache.hits = 3;
        cache.misses = 7;
        cache.entries = 7;
        let mut failures = FailureStats::new();
        let md = matrix_stats_markdown(&cache, None, None, &failures);
        assert!(md.contains("| trial | lookups | 10 |"));
        assert!(md.contains("| trial | hits | 3 (30.0%) |"));
        assert!(md.contains("| - | failed trials | 0 |"));
        assert!(!md.contains("| prefix |"));
        failures.record(FailureKind::Panic);
        let md = matrix_stats_markdown(&cache, None, None, &failures);
        assert!(md.contains("| - | failed trials | 1 (1 panic) |"));
    }

    #[test]
    fn best_so_far_is_monotone() {
        let (out, _) = outcome();
        let curve = best_so_far_curve(&out);
        assert_eq!(curve.len(), 6);
        for w in curve.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(*curve.last().unwrap(), out.best_accuracy());
    }

    #[test]
    fn partial_rungs_do_not_raise_the_curve() {
        let d = SynthConfig::new("report2", 80, 3, 2, 9).generate();
        let ev = Evaluator::new(&d, EvalConfig::default());
        let mut ctx = SearchContext::new(&ev, Budget::evals(3));
        let p = Pipeline::empty();
        ctx.evaluate_budgeted(&p, 0.1);
        ctx.evaluate(&p);
        let out = ctx.finish("manual");
        let curve = best_so_far_curve(&out);
        assert_eq!(curve[0], 0.0);
        assert!(curve[1] > 0.0);
    }
}
