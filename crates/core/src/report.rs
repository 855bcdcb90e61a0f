//! Rendering evaluation statistics as Markdown tables.
//!
//! The experiment harness prints these under its results tables so
//! cache reuse, durable-store traffic, failures and fleet faults are
//! observable in the report itself. This module keeps the rendering
//! logic next to the data it renders.

use crate::cache::CacheStats;
use crate::error::{FailureKind, FailureStats};
use crate::prefix::PrefixStats;
use crate::remote::FleetStats;
use crate::repo::StoreStats;
use std::fmt::Write as _;

/// The `prefix` layer's rows of [`matrix_stats_markdown`]'s per-layer
/// cache table.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_rows_keep_trial_and_prefix_distinguishable() {
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
        let md = matrix_stats_markdown(&trial, Some(&prefix), None, &FailureStats::new());
        // Same metric name in both layers must resolve to different rows.
        assert!(md.contains("| trial | hits | 4 (40.0%) |"));
        assert!(md.contains("| prefix | hits | 8 |"));
        assert!(md.contains("| prefix | hit rate | 80.0% |"));
        assert!(md.contains("| prefix | bytes | 4096 |"));
        assert!(md.contains("| prefix | bytes evicted | 2048 |"));
        assert!(md.contains("| prefix | poisoned rejects | 1 |"));
        assert!(md.contains("| prefix | steps saved | 17 |"));
        assert!(!md.contains("| store |"), "no store rows without a trial store");
    }

    #[test]
    fn store_rows_render_every_counter_in_the_matrix_table() {
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
    fn matrix_stats_render_cache_and_failures() {
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
}
