//! Durable trial repository: the persistence layer under the cache
//! hierarchy.
//!
//! TabRepo-style evaluation persistence (see PAPERS.md): every
//! finished [`Trial`] is appended to an on-disk segment as a
//! checksummed, length-prefixed record, so later runs can warm-start
//! their [`crate::EvalCache`], resume an interrupted bench matrix, or
//! replay a whole search with zero evaluations ("simulated search",
//! via [`ReplayEvaluator`]).
//!
//! A repository is a directory of segments, one per evaluation
//! context, each at [`segment_path`]. A [`TrialStore`] is one open
//! segment: its file, the set of keys it holds (for deduplication)
//! and its [`StoreMeta`]. It keeps no trials in memory —
//! [`TrialStore::load`] hands the trials it read to its caller once,
//! and [`crate::EvalCache::attach_segment`] moves them into the cache
//! it then writes through from. [`gc`] sweeps segments of abandoned
//! contexts.
//!
//! # On-disk format
//!
//! A store segment is one append-only file:
//!
//! ```text
//! [8-byte magic "AFPREPO1"]
//! repeated records: [u32 LE payload len][payload][u64 LE FNV-1a of payload]
//! ```
//!
//! Every payload starts with a one-byte record tag (`0` context
//! header, `1` evaluator meta, `2` trial) and is built from the shared
//! [`autofp_linalg::codec`] primitives; trials use the same
//! [`crate::codec`] encoding as the `evald` wire, locked by the
//! golden-bytes tests below. The per-record checksum
//! makes crash recovery exact: an append is a single write of the
//! fully assembled record, so a crash can only tear the *tail*, and
//! [`TrialStore::open`] detects the torn record (short, or checksum
//! mismatch), truncates the file back to the last good record, and
//! reports the dropped byte count in [`OpenReport`] — a torn tail is
//! never silently replayed. A record whose checksum matches but whose
//! payload does not decode is *format drift*, not a torn write, and is
//! a hard [`RepoError::Corrupt`].
//!
//! # Identity
//!
//! Segments are named by the FNV-1a fingerprint of their evaluation
//! context string (`EvalContext::canonical` in `autofp-evald`), and
//! the first record in each segment pins the full context string:
//! opening a segment under a different context is refused. Trial
//! records carry the full [`CacheKey::canonical`] string plus its
//! fingerprint, and the fingerprint is re-verified against the string
//! on load, so a store can never hand back a trial under the wrong key.
//! Invalidation is *by identity*: if the canonical key grammar ever
//! changes, every fingerprint moves, old records simply stop matching
//! new lookups, and the golden-fingerprint tests in `cache.rs` force
//! the migration to be explicit.
//!
//! # The never-persist rule
//!
//! [`crate::FailureKind::Deadline`] and [`crate::FailureKind::Transport`]
//! trials are circumstantial — a property of the run, not the
//! pipeline — and are never persisted, the same rule (one predicate)
//! as [`crate::EvalCache::insert`], checked again by
//! [`TrialStore::append`] so a mis-wired caller cannot poison the
//! durable layer.

use crate::cache::{never_cached, CacheKey};
use crate::codec::{dec_trial, enc_trial, Dec, DecodeError, Enc};
use crate::error::EvalError;
use crate::evaluator::{EvalConfig, Evaluate};
use crate::history::Trial;
use autofp_linalg::codec::{fnv1a, frame_record, next_record};
use autofp_models::CancelToken;
use autofp_preprocess::Pipeline;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The 8-byte segment-file magic (format version rides in the name).
pub const MAGIC: [u8; 8] = *b"AFPREPO1";

const REC_CONTEXT: u8 = 0;
const REC_META: u8 = 1;
const REC_TRIAL: u8 = 2;

/// Why a store operation failed.
#[derive(Debug)]
pub enum RepoError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file is not a trial store, belongs to a different context,
    /// or holds a checksum-valid record that no longer decodes
    /// (format drift — torn tails are truncated, not reported here).
    Corrupt {
        /// What failed to validate.
        detail: String,
    },
}

impl std::fmt::Display for RepoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepoError::Io(e) => write!(f, "trial store I/O error: {e}"),
            RepoError::Corrupt { detail } => write!(f, "corrupt trial store: {detail}"),
        }
    }
}

impl std::error::Error for RepoError {}

impl From<std::io::Error> for RepoError {
    fn from(e: std::io::Error) -> RepoError {
        RepoError::Io(e)
    }
}

impl From<DecodeError> for RepoError {
    fn from(e: DecodeError) -> RepoError {
        RepoError::Corrupt { detail: e.detail }
    }
}

pub(crate) fn corrupt(detail: impl Into<String>) -> RepoError {
    RepoError::Corrupt { detail: detail.into() }
}

// ------------------------------------------------------------- records

/// Evaluator identity stored once per segment so a replay can stand in
/// for the live evaluator without touching the dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreMeta {
    /// Validation accuracy of the empty pipeline (the no-FP baseline).
    pub baseline_accuracy: f64,
    /// Training rows the context's evaluator fits on.
    pub train_rows: u64,
}

enum Record {
    Context(String),
    Meta(StoreMeta),
    Trial(CacheKey, Trial),
}

fn encode_record(rec: &Record) -> Vec<u8> {
    match rec {
        Record::Context(canonical) => {
            let mut e = Enc::tagged(REC_CONTEXT);
            e.string(canonical);
            e.into_bytes()
        }
        Record::Meta(meta) => {
            let mut e = Enc::tagged(REC_META);
            e.f64(meta.baseline_accuracy);
            e.u64(meta.train_rows);
            e.into_bytes()
        }
        Record::Trial(key, trial) => {
            let mut e = Enc::tagged(REC_TRIAL);
            e.string(key.canonical());
            e.u64(key.fingerprint());
            enc_trial(&mut e, trial);
            e.into_bytes()
        }
    }
}

/// One framed record, ready for a single append write.
fn framed(rec: &Record) -> Vec<u8> {
    let mut out = Vec::new();
    frame_record(&mut out, &encode_record(rec));
    out
}

fn decode_record(payload: &[u8]) -> Result<Record, RepoError> {
    let mut d = Dec::new(payload);
    let rec = match d.u8()? {
        REC_CONTEXT => Record::Context(d.string()?),
        REC_META => Record::Meta(StoreMeta { baseline_accuracy: d.f64()?, train_rows: d.u64()? }),
        REC_TRIAL => {
            let canonical = d.string()?;
            let fingerprint = d.u64()?;
            if fingerprint != fnv1a(canonical.as_bytes()) {
                return Err(corrupt(format!("fingerprint mismatch for key `{canonical}`")));
            }
            let trial = dec_trial(&mut d)?;
            Record::Trial(CacheKey::from_parts(canonical, fingerprint), trial)
        }
        tag => return Err(corrupt(format!("bad record tag {tag}"))),
    };
    d.finish()?;
    Ok(rec)
}

// ---------------------------------------------------------------- scan

/// What [`TrialStore::open`] found in an existing segment file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenReport {
    /// Records decoded (context header and meta included).
    pub records: u64,
    /// Trial records loaded.
    pub trials: u64,
    /// Bytes dropped from a torn tail (`0` for a clean file). When
    /// non-zero the file was truncated back to its last good record.
    pub truncated_bytes: u64,
}

struct Scan {
    records: Vec<Record>,
    /// Byte offset of the first torn record (file is valid up to here).
    valid_len: u64,
    truncated_bytes: u64,
}

/// Scan a whole segment image. Torn tails (short record, checksum
/// mismatch, oversized length) stop the scan and are reported for
/// truncation; checksum-valid payloads that fail to decode are hard
/// corruption errors. Total: never panics on arbitrary bytes.
fn scan(bytes: &[u8]) -> Result<Scan, RepoError> {
    if bytes.len() < MAGIC.len() {
        // A crash while writing the initial magic+context tears even
        // the magic; re-initializing loses nothing.
        return Ok(Scan { records: Vec::new(), valid_len: 0, truncated_bytes: bytes.len() as u64 });
    }
    if !bytes.starts_with(&MAGIC) {
        return Err(corrupt("bad magic (not a trial store segment)"));
    }
    let mut records = Vec::new();
    let mut pos = MAGIC.len();
    loop {
        match next_record(bytes, &mut pos) {
            Ok(None) => return Ok(Scan { records, valid_len: pos as u64, truncated_bytes: 0 }),
            // Checksum-valid payload: decode failures are format drift
            // and must not pass silently.
            Ok(Some(payload)) => records.push(decode_record(payload)?),
            // A short record or a checksum mismatch is what a crash
            // mid-append leaves; `pos` still points at its start.
            Err(_) => {
                let truncated_bytes = (bytes.len() - pos) as u64;
                return Ok(Scan { records, valid_len: pos as u64, truncated_bytes });
            }
        }
    }
}

// --------------------------------------------------------------- store

/// Cumulative counters of one [`TrialStore`] (or, after
/// [`StoreStats::absorb`], of every segment a run touched).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Trial records appended this process.
    pub appended: u64,
    /// Appends skipped because the key was already persisted.
    pub deduped: u64,
    /// Appends refused by the never-persist rule (deadline/transport).
    pub skipped: u64,
    /// Appends dropped because the filesystem write failed.
    pub io_errors: u64,
    /// Trials warmed into an [`crate::EvalCache`] from this store.
    pub preloaded: u64,
    /// Distinct trial keys in the segment (loaded from disk plus
    /// appended).
    pub trials: u64,
    /// Torn-tail bytes dropped when the segment was opened.
    pub truncated_bytes: u64,
}

impl StoreStats {
    /// Fold another snapshot into this one (all counters summed).
    /// Sum each distinct segment exactly once.
    pub fn absorb(&mut self, other: &StoreStats) {
        self.appended += other.appended;
        self.deduped += other.deduped;
        self.skipped += other.skipped;
        self.io_errors += other.io_errors;
        self.preloaded += other.preloaded;
        self.trials += other.trials;
        self.truncated_bytes += other.truncated_bytes;
    }
}

#[derive(Debug)]
struct StoreInner {
    file: File,
    /// Canonical keys already persisted (dedup guard).
    keys: BTreeSet<String>,
    meta: Option<StoreMeta>,
}

/// One append-only segment of the trial repository, bound to a single
/// evaluation context.
///
/// All methods take `&self` (interior mutex + atomic counters), so one
/// store can back an [`crate::EvalCache`] serving many workers.
/// Appends are deduplicated by canonical key and obey the
/// never-persist rule for deadline/transport failures; I/O failures
/// drop the record and count in [`StoreStats::io_errors`] rather than
/// failing the evaluation that produced it.
#[derive(Debug)]
pub struct TrialStore {
    path: PathBuf,
    report: OpenReport,
    inner: Mutex<StoreInner>,
    appended: AtomicU64,
    deduped: AtomicU64,
    skipped: AtomicU64,
    io_errors: AtomicU64,
    preloaded: AtomicU64,
}

impl TrialStore {
    /// [`TrialStore::load`] without the loaded trials.
    pub fn open(path: impl Into<PathBuf>, context: &str) -> Result<TrialStore, RepoError> {
        Ok(TrialStore::load(path, context)?.0)
    }

    /// Open (or create) the segment at `path` for `context`, returning
    /// the store and the trials the file held: in file order, the
    /// first record of each key. The store itself keeps only their
    /// keys, so the caller owns the one in-memory copy.
    ///
    /// A torn tail — the signature a crash mid-append leaves — is
    /// truncated back to the last good record and reported with a
    /// warning on stderr; it is *not* an error. A segment recorded
    /// under a different context, or a checksum-valid record that no
    /// longer decodes, is [`RepoError::Corrupt`].
    pub fn load(
        path: impl Into<PathBuf>,
        context: &str,
    ) -> Result<(TrialStore, Vec<(CacheKey, Trial)>), RepoError> {
        let path = path.into();
        let mut file = OpenOptions::new().read(true).append(true).create(true).open(&path)?;
        let mut bytes = Vec::new();
        let _ = file.read_to_end(&mut bytes)?;
        let scan = scan(&bytes)?;
        if scan.truncated_bytes > 0 {
            file.set_len(scan.valid_len)?;
            eprintln!(
                "trial store {}: dropped {} torn tail byte(s) past offset {}",
                path.display(),
                scan.truncated_bytes,
                scan.valid_len,
            );
        }
        let mut keys = BTreeSet::new();
        let mut trials = Vec::new();
        let mut meta = None;
        let mut stored_context = None;
        let records_on_disk = scan.records.len() as u64;
        for rec in scan.records {
            match rec {
                Record::Context(c) => stored_context = Some(c),
                Record::Meta(m) => meta = Some(m),
                Record::Trial(key, trial) => {
                    if keys.insert(key.canonical().to_string()) {
                        trials.push((key, trial));
                    }
                }
            }
        }
        match &stored_context {
            Some(c) if c != context => {
                return Err(corrupt(format!(
                    "segment context `{c}` does not match requested `{context}`"
                )));
            }
            Some(_) => {}
            None => {
                // Fresh (or fully torn) segment: pin magic + context in
                // one write so a crash tears both or neither.
                let mut init = Vec::new();
                if scan.valid_len == 0 {
                    init.extend_from_slice(&MAGIC);
                }
                init.extend_from_slice(&framed(&Record::Context(context.to_string())));
                file.write_all(&init)?;
                file.flush()?;
            }
        }
        let report = OpenReport {
            records: records_on_disk,
            trials: trials.len() as u64,
            truncated_bytes: scan.truncated_bytes,
        };
        let store = TrialStore {
            path,
            report,
            inner: Mutex::new(StoreInner { file, keys, meta }),
            appended: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            preloaded: AtomicU64::new(0),
        };
        Ok((store, trials))
    }

    /// See [`EvalCache::lock`]: recovering a poisoned guard is sound
    /// because every mutation holds the lock for its full update.
    ///
    /// [`EvalCache::lock`]: crate::EvalCache
    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The segment file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// What [`TrialStore::open`] found on disk.
    pub fn open_report(&self) -> OpenReport {
        self.report
    }

    /// The stored evaluator meta, if one was recorded.
    pub fn meta(&self) -> Option<StoreMeta> {
        self.lock().meta
    }

    /// Record the evaluator meta once per segment. Idempotent for a
    /// bit-identical value; a conflicting value is corruption (two
    /// different evaluators writing into one segment).
    pub fn set_meta(&self, meta: StoreMeta) -> Result<(), RepoError> {
        let mut inner = self.lock();
        match inner.meta {
            Some(have)
                if have.baseline_accuracy.to_bits() == meta.baseline_accuracy.to_bits()
                    && have.train_rows == meta.train_rows =>
            {
                Ok(())
            }
            Some(have) => Err(corrupt(format!(
                "meta conflict: stored {have:?}, asked to record {meta:?}"
            ))),
            None => {
                let bytes = framed(&Record::Meta(meta));
                inner.file.write_all(&bytes)?;
                inner.file.flush()?;
                inner.meta = Some(meta);
                Ok(())
            }
        }
    }

    /// Persist one finished trial.
    ///
    /// Deadline/transport failures are refused (never-persist rule),
    /// already-persisted keys are deduplicated, and an I/O failure
    /// drops the record (counted in [`StoreStats::io_errors`]) instead
    /// of propagating — persistence is best-effort from the evaluation
    /// path's point of view; durability is observable in the stats.
    pub fn append(&self, key: &CacheKey, trial: &Trial) {
        if never_cached(trial) {
            self.skipped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut inner = self.lock();
        if inner.keys.contains(key.canonical()) {
            drop(inner);
            self.deduped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let bytes = framed(&Record::Trial(key.clone(), trial.clone()));
        match inner.file.write_all(&bytes).and_then(|()| inner.file.flush()) {
            Ok(()) => {
                inner.keys.insert(key.canonical().to_string());
                drop(inner);
                self.appended.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                drop(inner);
                self.io_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// True when `key` is already persisted.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.lock().keys.contains(key.canonical())
    }

    /// Number of distinct trial keys in the segment.
    pub fn len(&self) -> usize {
        self.lock().keys.len()
    }

    /// True when no trial is stored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count trials warmed into a cache from this store (called by
    /// [`crate::EvalCache::attach_segment`]).
    pub(crate) fn note_preloaded(&self, n: u64) {
        self.preloaded.fetch_add(n, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            appended: self.appended.load(Ordering::Relaxed),
            deduped: self.deduped.load(Ordering::Relaxed),
            skipped: self.skipped.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
            preloaded: self.preloaded.load(Ordering::Relaxed),
            trials: self.len() as u64,
            truncated_bytes: self.report.truncated_bytes,
        }
    }
}

// ---------------------------------------------------------------- repo

/// The segment file of `context` in the repository directory `dir`:
/// `ctx-<FNV-1a fingerprint of the context, hex>.log`.
pub fn segment_path(dir: &Path, context: &str) -> PathBuf {
    dir.join(format!("ctx-{:016x}.log", fnv1a(context.as_bytes())))
}

/// Dead-segment sweep: remove every `ctx-*.log` segment in `dir` whose
/// pinned context string is **not** in `keep` (abandoned configs
/// accumulate dead segments over the life of a repository). A missing
/// `dir` is created and reports nothing.
///
/// Conservative by construction: files that do not look like segment
/// files are ignored entirely; segments that cannot be read or whose
/// context cannot be decoded are reported in [`GcReport::skipped`] and
/// never deleted. With `dry_run` nothing is deleted and the report
/// describes what a real sweep would remove. Sweep only a repository
/// no process is writing to.
pub fn gc(dir: &Path, keep: &[String], dry_run: bool) -> Result<GcReport, RepoError> {
    std::fs::create_dir_all(dir)?;
    let mut names: Vec<std::ffi::OsString> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        names.push(entry?.file_name());
    }
    names.sort();
    let mut report = GcReport { dry_run, ..GcReport::default() };
    for name in names {
        let Some(text) = name.to_str() else { continue };
        if !text.starts_with("ctx-") || !text.ends_with(".log") {
            continue;
        }
        let path = dir.join(&name);
        let context = match segment_context(&path) {
            Some(c) => c,
            None => {
                report.skipped.push(path);
                continue;
            }
        };
        if keep.contains(&context) {
            report.kept.push(context);
            continue;
        }
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        if !dry_run {
            std::fs::remove_file(&path)?;
        }
        report.reclaimed_bytes += bytes;
        report.removed.push(GcSegment { context, path, bytes });
    }
    Ok(report)
}

/// Read the pinned context string of a segment file, if any. `None`
/// for unreadable files, non-segment bytes, or a segment torn before
/// its context record.
fn segment_context(path: &Path) -> Option<String> {
    let bytes = std::fs::read(path).ok()?;
    let parsed = scan(&bytes).ok()?;
    parsed.records.into_iter().find_map(|r| match r {
        Record::Context(c) => Some(c),
        _ => None,
    })
}

/// One dead segment found (and, outside dry runs, removed) by [`gc`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcSegment {
    /// The abandoned context the segment was pinned to.
    pub context: String,
    /// The segment file path.
    pub path: PathBuf,
    /// File size at sweep time.
    pub bytes: u64,
}

/// Outcome of a [`gc`] sweep.
#[derive(Debug, Clone, Default)]
pub struct GcReport {
    /// Contexts whose segments survive (the keep-list members found).
    pub kept: Vec<String>,
    /// Dead segments removed — or, under `dry_run`, that would be.
    pub removed: Vec<GcSegment>,
    /// Segment-like files whose context could not be read; never
    /// deleted.
    pub skipped: Vec<PathBuf>,
    /// Total size of the removed segments.
    pub reclaimed_bytes: u64,
    /// True when this was a report-only sweep.
    pub dry_run: bool,
}

// -------------------------------------------------------------- replay

/// An [`Evaluate`] that answers entirely from the trials of one
/// segment — TabRepo's "simulated search" with zero evaluations.
///
/// A looked-up pipeline that the store holds returns its persisted
/// trial bit-identically; a miss is an [`EvalError::Transport`] (the
/// trial is genuinely unreachable without an evaluator, and transport
/// errors are the one retryable, never-cached kind). Requires the
/// segment to carry a [`StoreMeta`] record so baseline and row count
/// can stand in for the live evaluator's.
pub struct ReplayEvaluator {
    trials: BTreeMap<String, Trial>,
    config: EvalConfig,
    meta: StoreMeta,
    replayed: AtomicU64,
    missing: AtomicU64,
}

impl ReplayEvaluator {
    /// Load the segment at `path` (see [`TrialStore::load`]) and
    /// answer from its trials and meta.
    ///
    /// `config` must be the [`EvalConfig`] the trials were evaluated
    /// under (it is part of every [`CacheKey`]); a mismatched config
    /// simply misses on every lookup.
    pub fn open(
        path: impl Into<PathBuf>,
        context: &str,
        config: EvalConfig,
    ) -> Result<ReplayEvaluator, RepoError> {
        let (store, loaded) = TrialStore::load(path, context)?;
        let meta = store
            .meta()
            .ok_or_else(|| corrupt(format!("segment {} has no meta record", store.path().display())))?;
        let trials =
            loaded.into_iter().map(|(key, trial)| (key.canonical().to_string(), trial)).collect();
        Ok(ReplayEvaluator {
            trials,
            config,
            meta,
            replayed: AtomicU64::new(0),
            missing: AtomicU64::new(0),
        })
    }

    /// Trials served from the store.
    pub fn replayed(&self) -> u64 {
        self.replayed.load(Ordering::Relaxed)
    }

    /// Lookups the store could not answer.
    pub fn missing(&self) -> u64 {
        self.missing.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for ReplayEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayEvaluator")
            .field("trials", &self.trials.len())
            .field("meta", &self.meta)
            .finish()
    }
}

impl Evaluate for ReplayEvaluator {
    fn evaluate_raw(
        &self,
        pipeline: &Pipeline,
        fraction: f64,
        _cancel: &CancelToken,
    ) -> Result<Trial, EvalError> {
        let key = CacheKey::new(pipeline, fraction, &self.config);
        match self.trials.get(key.canonical()) {
            Some(trial) => {
                self.replayed.fetch_add(1, Ordering::Relaxed);
                Ok(trial.clone())
            }
            None => {
                self.missing.fetch_add(1, Ordering::Relaxed);
                Err(EvalError::Transport {
                    detail: format!("trial store holds no record for `{}`", key.canonical()),
                })
            }
        }
    }

    fn config(&self) -> &EvalConfig {
        &self.config
    }

    fn baseline_accuracy(&self) -> f64 {
        self.meta.baseline_accuracy
    }

    fn train_rows(&self) -> usize {
        self.meta.train_rows as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::EvalCache;
    use crate::error::FailureKind;
    use crate::evaluator::evaluate_or_worst;
    use autofp_preprocess::{Norm, OutputDist, Preproc, PreprocKind};
    use std::time::Duration;

    /// Unique per-test scratch directory without touching any clock
    /// (wall-clock is banned in this module's lint span).
    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("autofp-repo-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn every_step_pipeline() -> Pipeline {
        Pipeline::new(vec![
            Preproc::Binarizer { threshold: 0.25 },
            Preproc::MaxAbsScaler,
            Preproc::MinMaxScaler,
            Preproc::Normalizer { norm: Norm::Max },
            Preproc::PowerTransformer { standardize: false },
            Preproc::QuantileTransformer { n_quantiles: 77, output: OutputDist::Normal },
            Preproc::StandardScaler { with_mean: false },
        ])
    }

    fn trial_for(p: &Pipeline, acc: f64, failure: Option<FailureKind>) -> Trial {
        Trial {
            pipeline: p.clone(),
            accuracy: acc,
            error: 1.0 - acc,
            prep_time: Duration::from_nanos(123_456_789),
            train_time: Duration::from_nanos(987_654_321),
            train_fraction: 1.0,
            failure,
        }
    }

    fn key_for(p: &Pipeline, fraction: f64) -> CacheKey {
        CacheKey::new(p, fraction, &EvalConfig::default())
    }

    /// A store populated with one trial per preprocessor kind plus a
    /// persisted deterministic failure, for recovery tests.
    fn populated(dir: &Path) -> (PathBuf, usize) {
        let path = dir.join("seg.log");
        let store = TrialStore::open(&path, "ctx-test").expect("open");
        store
            .set_meta(StoreMeta { baseline_accuracy: 0.5, train_rows: 193 })
            .expect("meta");
        let mut n = 0;
        for kind in PreprocKind::ALL {
            let p = Pipeline::from_kinds(&[kind]);
            store.append(&key_for(&p, 1.0), &trial_for(&p, 0.7, None));
            n += 1;
        }
        let p = every_step_pipeline();
        store.append(&key_for(&p, 0.5), &trial_for(&p, 0.0, Some(FailureKind::Panic)));
        n += 1;
        assert_eq!(store.len(), n);
        (path, n)
    }

    fn push_record(out: &mut Vec<u8>, payload: &[u8]) {
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    }

    /// Golden bytes: the store format is a compatibility surface — a
    /// silent change would strand every persisted repository. Every
    /// tag and field layout is transcribed by hand here.
    #[test]
    fn golden_segment_bytes_are_locked() {
        let dir = temp_dir("golden");
        let path = dir.join("seg.log");
        let store = TrialStore::open(&path, "ctx-golden").expect("open");
        store
            .set_meta(StoreMeta { baseline_accuracy: 0.5, train_rows: 193 })
            .expect("meta");
        let p = Pipeline::from_kinds(&[PreprocKind::StandardScaler]);
        let key = key_for(&p, 1.0);
        let trial = Trial {
            pipeline: p.clone(),
            accuracy: 0.8125,
            error: 0.1875,
            prep_time: Duration::from_nanos(123),
            train_time: Duration::from_nanos(456),
            train_fraction: 1.0,
            failure: None,
        };
        store.append(&key, &trial);
        drop(store);

        let mut expect = Vec::new();
        expect.extend_from_slice(b"AFPREPO1");
        // Context record: tag 0, string.
        let mut ctx = vec![0u8];
        ctx.extend_from_slice(&10u32.to_le_bytes());
        ctx.extend_from_slice(b"ctx-golden");
        push_record(&mut expect, &ctx);
        // Meta record: tag 1, baseline bits, train rows.
        let mut meta = vec![1u8];
        meta.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
        meta.extend_from_slice(&193u64.to_le_bytes());
        push_record(&mut expect, &meta);
        // Trial record: tag 2, key string, fingerprint, pipeline
        // (1 step: StandardScaler = kind 6, with_mean = true), floats
        // as bits, nanos as u64, no-failure flag 0.
        let mut tr = vec![2u8];
        tr.extend_from_slice(&(key.canonical().len() as u32).to_le_bytes());
        tr.extend_from_slice(key.canonical().as_bytes());
        tr.extend_from_slice(&key.fingerprint().to_le_bytes());
        tr.extend_from_slice(&1u32.to_le_bytes());
        tr.push(6);
        tr.push(1);
        tr.extend_from_slice(&0.8125f64.to_bits().to_le_bytes());
        tr.extend_from_slice(&0.1875f64.to_bits().to_le_bytes());
        tr.extend_from_slice(&123u64.to_le_bytes());
        tr.extend_from_slice(&456u64.to_le_bytes());
        tr.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        tr.push(0);
        push_record(&mut expect, &tr);

        let bytes = std::fs::read(&path).expect("read");
        assert_eq!(bytes, expect, "segment bytes drifted from the locked layout");
    }

    /// Golden bytes of a full trial record: every step kind with a
    /// non-default parameter, and a failure flag carrying a kind code.
    /// (A Transport trial is never appended, but its record layout is
    /// the one every other failure kind shares.)
    #[test]
    fn golden_every_step_trial_record_is_locked() {
        let p = every_step_pipeline();
        let key = key_for(&p, 0.5);
        let trial = Trial {
            pipeline: p,
            accuracy: 0.8125,
            error: 0.1875,
            prep_time: Duration::from_nanos(123_456_789),
            train_time: Duration::from_nanos(987_654_321),
            train_fraction: 0.5,
            failure: Some(FailureKind::Transport),
        };
        let mut expect = vec![2u8]; // trial record tag
        expect.extend_from_slice(&(key.canonical().len() as u32).to_le_bytes());
        expect.extend_from_slice(key.canonical().as_bytes());
        expect.extend_from_slice(&key.fingerprint().to_le_bytes());
        expect.extend_from_slice(&7u32.to_le_bytes()); // 7 steps
        expect.push(0); // Binarizer
        expect.extend_from_slice(&0.25f64.to_bits().to_le_bytes());
        expect.push(1); // MaxAbsScaler
        expect.push(2); // MinMaxScaler
        expect.extend_from_slice(&[3, 2]); // Normalizer, norm = Max
        expect.extend_from_slice(&[4, 0]); // PowerTransformer, standardize = false
        expect.push(5); // QuantileTransformer
        expect.extend_from_slice(&77u64.to_le_bytes());
        expect.push(1); // output = Normal
        expect.extend_from_slice(&[6, 0]); // StandardScaler, with_mean = false
        expect.extend_from_slice(&0.8125f64.to_bits().to_le_bytes());
        expect.extend_from_slice(&0.1875f64.to_bits().to_le_bytes());
        expect.extend_from_slice(&123_456_789u64.to_le_bytes());
        expect.extend_from_slice(&987_654_321u64.to_le_bytes());
        expect.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
        expect.extend_from_slice(&[1, 5]); // failed, Transport = FailureKind::ALL[5]
        assert_eq!(encode_record(&Record::Trial(key, trial)), expect);
    }

    #[test]
    fn every_trial_round_trips_bit_exactly_through_reopen() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("seg.log");
        let store = TrialStore::open(&path, "ctx-test").expect("open");
        let mut written = Vec::new();
        // Every step kind, a fractional-budget key, and every
        // persistable failure kind.
        let p = every_step_pipeline();
        for (i, fraction) in [(0, 1.0), (1, 0.25)] {
            let key = key_for(&p, fraction);
            let t = trial_for(&p, 0.5 + 0.1 * i as f64, None);
            store.append(&key, &t);
            written.push((key, t));
        }
        for kind in [
            FailureKind::NonFinite,
            FailureKind::Degenerate,
            FailureKind::Diverged,
            FailureKind::Panic,
        ] {
            let p = Pipeline::from_kinds(&[PreprocKind::Binarizer]);
            let key = CacheKey::new(
                &p,
                1.0,
                &EvalConfig { seed: kind.index() as u64, ..EvalConfig::default() },
            );
            let t = trial_for(&p, 0.0, Some(kind));
            store.append(&key, &t);
            written.push((key, t));
        }
        drop(store);
        let (store, loaded) = TrialStore::load(&path, "ctx-test").expect("reopen");
        assert_eq!(store.open_report().truncated_bytes, 0);
        assert_eq!(loaded, written, "reload must be bit-identical in file order");
        assert_eq!(store.len(), written.len());
    }

    #[test]
    fn torn_tail_is_truncated_reported_and_appendable() {
        let dir = temp_dir("torn");
        let (path, n) = populated(&dir);
        let clean = std::fs::read(&path).expect("read");
        // Tear mid-way through the last record.
        std::fs::write(&path, &clean[..clean.len() - 5]).expect("tear");
        let store = TrialStore::open(&path, "ctx-test").expect("open torn");
        let report = store.open_report();
        assert_eq!(store.len(), n - 1, "the torn record must be dropped");
        assert!(report.truncated_bytes > 0, "truncation must be reported");
        assert_eq!(report.trials, (n - 1) as u64);
        // The torn trial is gone from the dedup set, so re-appending it
        // persists it again.
        let p = every_step_pipeline();
        store.append(&key_for(&p, 0.5), &trial_for(&p, 0.0, Some(FailureKind::Panic)));
        assert_eq!(store.stats().appended, 1);
        drop(store);
        let store = TrialStore::open(&path, "ctx-test").expect("reopen");
        assert_eq!(store.open_report().truncated_bytes, 0, "truncation is idempotent");
        assert_eq!(store.len(), n);
    }

    #[test]
    fn every_prefix_of_a_segment_opens_without_panic() {
        let dir = temp_dir("prefix");
        let (path, _) = populated(&dir);
        let clean = std::fs::read(&path).expect("read");
        let cut_path = dir.join("cut.log");
        for cut in 0..clean.len() {
            std::fs::write(&cut_path, &clean[..cut]).expect("write cut");
            let store = TrialStore::open(&cut_path, "ctx-test")
                .unwrap_or_else(|e| panic!("prefix at {cut} failed to open: {e}"));
            let report = store.open_report();
            // A cut at a record boundary (or an entirely empty file)
            // drops nothing; anything else is a reported torn tail.
            let clean_open = cut == 0 || record_boundary(&clean, cut);
            assert_eq!(report.truncated_bytes == 0, clean_open, "truncation flag wrong at cut {cut}");
            drop(store);
            // Recovery is stable: a second open of the truncated file
            // must be clean.
            let store = TrialStore::open(&cut_path, "ctx-test").expect("reopen");
            assert_eq!(store.open_report().truncated_bytes, 0, "cut {cut} not idempotent");
            std::fs::remove_file(&cut_path).expect("rm");
        }
    }

    /// True when `cut` lands exactly between records (or at the end of
    /// the magic) in a clean segment image.
    fn record_boundary(bytes: &[u8], cut: usize) -> bool {
        let mut pos = MAGIC.len();
        loop {
            if pos == cut {
                return true;
            }
            if pos + 4 > bytes.len() || pos > cut {
                return false;
            }
            let mut len_buf = [0u8; 4];
            len_buf.copy_from_slice(&bytes[pos..pos + 4]);
            pos += 4 + u32::from_le_bytes(len_buf) as usize + 8;
        }
    }

    #[test]
    fn byte_flips_never_panic_exhaustively() {
        let dir = temp_dir("fuzz");
        let (path, _) = populated(&dir);
        let clean = std::fs::read(&path).expect("read");
        let mut_path = dir.join("mut.log");
        for i in 0..clean.len() {
            for v in [0u8, 1, 2, 127, 255] {
                if clean[i] == v {
                    continue;
                }
                let mut mutated = clean.clone();
                mutated[i] = v;
                std::fs::write(&mut_path, &mutated).expect("write");
                // Total: open is Ok (possibly truncated) or a corrupt
                // error — never a panic.
                let _ = TrialStore::open(&mut_path, "ctx-test");
            }
        }
    }

    #[test]
    fn checksum_valid_garbage_is_hard_corruption() {
        let dir = temp_dir("drift");
        let path = dir.join("seg.log");
        // Magic + context + a record whose checksum matches but whose
        // tag is unknown: format drift, not a torn tail.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        push_record(&mut bytes, &encode_record(&Record::Context("ctx-test".into())));
        push_record(&mut bytes, &[9u8, 1, 2, 3]);
        std::fs::write(&path, &bytes).expect("write");
        let err = TrialStore::open(&path, "ctx-test").expect_err("must refuse");
        assert!(matches!(err, RepoError::Corrupt { .. }), "{err}");

        // Same for a trial record whose fingerprint does not hash its
        // canonical string (a store can never lie about identity).
        let p = Pipeline::from_kinds(&[PreprocKind::Binarizer]);
        let key = key_for(&p, 1.0);
        let mut payload = encode_record(&Record::Trial(key.clone(), trial_for(&p, 0.5, None)));
        let fp_at = 1 + 4 + key.canonical().len();
        payload[fp_at] ^= 0xff;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        push_record(&mut bytes, &encode_record(&Record::Context("ctx-test".into())));
        push_record(&mut bytes, &payload);
        std::fs::write(&path, &bytes).expect("write");
        let err = TrialStore::open(&path, "ctx-test").expect_err("must refuse");
        assert!(
            matches!(&err, RepoError::Corrupt { detail } if detail.contains("fingerprint")),
            "{err}"
        );
    }

    #[test]
    fn context_mismatch_is_refused() {
        let dir = temp_dir("ctx");
        let path = dir.join("seg.log");
        drop(TrialStore::open(&path, "ctx-a").expect("open"));
        let err = TrialStore::open(&path, "ctx-b").expect_err("must refuse");
        assert!(
            matches!(&err, RepoError::Corrupt { detail } if detail.contains("ctx-a")),
            "{err}"
        );
        // Bad magic is corruption too, not truncation.
        std::fs::write(&path, b"NOTASTORE").expect("write");
        assert!(TrialStore::open(&path, "ctx-a").is_err());
    }

    #[test]
    fn deadline_and_transport_are_never_persisted() {
        let dir = temp_dir("never");
        let path = dir.join("seg.log");
        let store = TrialStore::open(&path, "ctx-test").expect("open");
        let p = Pipeline::from_kinds(&[PreprocKind::Binarizer]);
        store.append(&key_for(&p, 1.0), &Trial::failed(p.clone(), FailureKind::Deadline, 1.0));
        store.append(&key_for(&p, 0.5), &Trial::failed(p.clone(), FailureKind::Transport, 0.5));
        assert!(store.is_empty());
        assert_eq!(store.stats().skipped, 2);
        // Deterministic failures persist like successes.
        store.append(&key_for(&p, 1.0), &Trial::failed(p, FailureKind::Panic, 1.0));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn appends_deduplicate_by_canonical_key() {
        let dir = temp_dir("dedup");
        let path = dir.join("seg.log");
        let store = TrialStore::open(&path, "ctx-test").expect("open");
        let p = Pipeline::from_kinds(&[PreprocKind::MinMaxScaler]);
        let key = key_for(&p, 1.0);
        store.append(&key, &trial_for(&p, 0.6, None));
        store.append(&key, &trial_for(&p, 0.9, None));
        assert_eq!(store.len(), 1);
        let stats = store.stats();
        assert_eq!((stats.appended, stats.deduped), (1, 1));
        assert!(store.contains(&key));
        drop(store);
        // First write wins (deterministic evaluation makes re-runs
        // bit-identical, so there is nothing to overwrite).
        let (_, loaded) = TrialStore::load(&path, "ctx-test").expect("reopen");
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].1.accuracy, 0.6);
    }

    #[test]
    fn meta_is_recorded_once_and_conflicts_are_refused() {
        let dir = temp_dir("meta");
        let path = dir.join("seg.log");
        let store = TrialStore::open(&path, "ctx-test").expect("open");
        assert_eq!(store.meta(), None);
        let meta = StoreMeta { baseline_accuracy: 0.625, train_rows: 80 };
        store.set_meta(meta).expect("first");
        store.set_meta(meta).expect("idempotent");
        assert!(store.set_meta(StoreMeta { baseline_accuracy: 0.5, train_rows: 80 }).is_err());
        drop(store);
        let store = TrialStore::open(&path, "ctx-test").expect("reopen");
        let got = store.meta().expect("persisted");
        assert_eq!(got.baseline_accuracy.to_bits(), 0.625f64.to_bits());
        assert_eq!(got.train_rows, 80);
    }

    #[test]
    fn segment_names_are_a_pure_function_of_the_context() {
        let dir = temp_dir("repo");
        let a = segment_path(&dir, "ctx-a");
        assert_eq!(a, segment_path(&dir, "ctx-a"));
        assert_ne!(a, segment_path(&dir, "ctx-b"));
        assert_eq!(a, dir.join(format!("ctx-{:016x}.log", fnv1a(b"ctx-a"))));
    }

    #[test]
    fn replay_serves_stored_trials_and_errors_on_misses() {
        let dir = temp_dir("replay");
        let (path, _) = populated(&dir);
        let replay =
            ReplayEvaluator::open(&path, "ctx-test", EvalConfig::default()).expect("replay");
        assert_eq!(replay.baseline_accuracy(), 0.5);
        assert_eq!(replay.train_rows(), 193);
        let p = Pipeline::from_kinds(&[PreprocKind::Binarizer]);
        let hit = replay.try_evaluate(&p).expect("stored");
        assert_eq!(hit.accuracy, 0.7);
        // A pipeline the store never saw is unreachable without an
        // evaluator: a transport error, degraded to a worst-error
        // trial by the usual shielding.
        let novel = Pipeline::from_kinds(&[PreprocKind::Binarizer, PreprocKind::Binarizer]);
        let err = replay.try_evaluate(&novel).expect_err("miss");
        assert!(matches!(err, EvalError::Transport { .. }));
        let worst = evaluate_or_worst(&replay, &novel, 1.0, &CancelToken::new());
        assert_eq!(worst.failure, Some(FailureKind::Transport));
        assert_eq!((replay.replayed(), replay.missing()), (1, 2));
    }

    #[test]
    fn replay_requires_a_meta_record() {
        let dir = temp_dir("replay-meta");
        assert!(ReplayEvaluator::open(dir.join("seg.log"), "ctx-test", EvalConfig::default())
            .is_err());
    }

    #[test]
    fn cache_write_through_and_preload_close_the_loop() {
        let dir = temp_dir("cache").join("store");
        let meta = StoreMeta { baseline_accuracy: 0.5, train_rows: 193 };
        let cache = EvalCache::new();
        cache.attach_segment(&dir, "ctx-test", meta).expect("attach creates the directory");
        let store = cache.store().expect("attached");
        let p = Pipeline::from_kinds(&[PreprocKind::StandardScaler]);
        let key = key_for(&p, 1.0);
        cache.insert(&key, &trial_for(&p, 0.9, None));
        // Write-through: the insert reached the durable layer...
        assert_eq!(store.len(), 1);
        // ...but the never-persist rule holds at both layers.
        let q = Pipeline::from_kinds(&[PreprocKind::Binarizer]);
        cache.insert(&key_for(&q, 1.0), &Trial::failed(q, FailureKind::Deadline, 1.0));
        assert_eq!(store.len(), 1);
        // One cache, one segment.
        assert!(cache.attach_segment(&dir, "ctx-other", meta).is_err());
        drop(cache);

        // Attach a fresh cache to the same segment: the trial is a hit
        // without any evaluator, counters untouched by warming, and
        // nothing is written back.
        let warm = EvalCache::new();
        warm.attach_segment(&dir, "ctx-test", meta).expect("reattach");
        let stats = warm.store().expect("attached").stats();
        assert_eq!((stats.preloaded, stats.appended, stats.trials), (1, 0, 1));
        assert_eq!(warm.len(), 1);
        let hit = warm.lookup(&key).expect("preloaded hit");
        assert_eq!(hit.accuracy.to_bits(), 0.9f64.to_bits());
        let s = warm.stats();
        assert_eq!((s.hits, s.misses), (1, 0));
        // A different evaluator identity is refused.
        let other = StoreMeta { baseline_accuracy: 0.25, ..meta };
        assert!(EvalCache::new().attach_segment(&dir, "ctx-test", other).is_err());
    }

    #[test]
    fn store_stats_absorb_sums_every_counter() {
        let a = StoreStats {
            appended: 1,
            deduped: 2,
            skipped: 3,
            io_errors: 4,
            preloaded: 5,
            trials: 6,
            truncated_bytes: 7,
        };
        let mut total = StoreStats::default();
        total.absorb(&a);
        total.absorb(&a);
        assert_eq!(
            total,
            StoreStats {
                appended: 2,
                deduped: 4,
                skipped: 6,
                io_errors: 8,
                preloaded: 10,
                trials: 12,
                truncated_bytes: 14,
            }
        );
    }

    #[test]
    fn gc_sweeps_dead_segments_and_keeps_live_ones() {
        let dir = temp_dir("gc");
        // Three segments: one live (keep-list), two abandoned.
        for ctx in ["ctx=live", "ctx=dead-a", "ctx=dead-b"] {
            let store = TrialStore::open(segment_path(&dir, ctx), ctx).expect("open context");
            let p = Pipeline::from_kinds(&[PreprocKind::MinMaxScaler]);
            store.append(&key_for(&p, 1.0), &trial_for(&p, 0.6, None));
        }
        // A non-segment file and an unreadable segment-like file must
        // both survive any sweep.
        std::fs::write(dir.join("notes.txt"), b"not a segment").expect("write");
        std::fs::write(dir.join("ctx-ffffffffffffffff.log"), b"garbage").expect("write");
        let keep = vec!["ctx=live".to_string()];

        let dry = gc(&dir, &keep, true).expect("dry run");
        assert!(dry.dry_run);
        assert_eq!(dry.kept, vec!["ctx=live"]);
        assert_eq!(dry.removed.len(), 2);
        assert!(dry.reclaimed_bytes > 0);
        assert_eq!(dry.skipped, vec![dir.join("ctx-ffffffffffffffff.log")]);
        // Dry run deletes nothing.
        for seg in &dry.removed {
            assert!(seg.path.exists(), "{:?} deleted by dry run", seg.path);
        }

        let swept = gc(&dir, &keep, false).expect("sweep");
        assert_eq!(swept.kept, dry.kept);
        assert_eq!(swept.removed, dry.removed);
        assert_eq!(swept.reclaimed_bytes, dry.reclaimed_bytes);
        for seg in &swept.removed {
            assert!(!seg.path.exists(), "{:?} survived the sweep", seg.path);
        }
        let mut contexts: Vec<String> = swept.removed.iter().map(|s| s.context.clone()).collect();
        contexts.sort();
        assert_eq!(contexts, vec!["ctx=dead-a", "ctx=dead-b"]);
        // The kept segment still opens and holds its trial.
        let store = TrialStore::open(segment_path(&dir, "ctx=live"), "ctx=live").expect("live");
        assert_eq!(store.len(), 1);
        // The unreadable file is untouched.
        assert!(dir.join("ctx-ffffffffffffffff.log").exists());
        assert!(dir.join("notes.txt").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
