//! The evaluation service's wire protocol.
//!
//! Dependency-free, length-prefixed, canonical: every message is one
//! frame of `[u32 LE payload length][payload]`, and every payload
//! starts with a one-byte message tag followed by fields in the shared
//! byte codec (`autofp_linalg::codec`); pipelines and trials use the
//! [`autofp_core::codec`] layout the trial store also writes. An
//! encoded message is a pure function of its value and round-trips
//! bit-exactly, which the golden-bytes tests below pin.
//!
//! Decoding is total: truncated, oversized, or corrupt input returns
//! [`EvalError::Transport`] with a diagnostic detail — this module
//! must never panic on untrusted bytes (enforced by the xtask
//! panic-boundary lint, which covers this file).

use autofp_core::codec::{dec_pipeline, dec_trial, enc_pipeline, enc_trial, Dec, Enc};
use autofp_core::{EvalConfig, EvalError, Trial};
use autofp_models::classifier::ModelKind;
use autofp_preprocess::Pipeline;
use std::io::{Read, Write};

/// Hard cap on one frame's payload size (16 MiB): a corrupt length
/// prefix must not make a worker allocate unbounded memory.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// The evaluation context a request addresses: which dataset (by
/// registry name) at which generation scale, evaluated under which
/// [`EvalConfig`]. A worker keeps one evaluator + cache per distinct
/// context.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalContext {
    /// Registry dataset name (see `autofp_data::registry`).
    pub dataset: String,
    /// Row-count generation scale in `(0, 1]`.
    pub scale: f64,
    /// Downstream model family.
    pub model: ModelKind,
    /// Train fraction for the split (paper: 0.8).
    pub train_fraction: f64,
    /// Split / training seed.
    pub seed: u64,
    /// Optional stratified training-row cap.
    pub train_subsample: Option<u64>,
}

impl EvalContext {
    /// The [`EvalConfig`] this context evaluates under.
    pub fn eval_config(&self) -> EvalConfig {
        EvalConfig {
            model: self.model,
            train_fraction: self.train_fraction,
            seed: self.seed,
            train_subsample: self.train_subsample.map(|v| v as usize),
        }
    }

    /// Canonical string identity (the worker's context-map key): a pure
    /// function of the context's value, float fields by bit pattern.
    pub fn canonical(&self) -> String {
        format!(
            "ds={};scale={};m={};tf={};seed={};sub={}",
            self.dataset,
            self.scale.to_bits(),
            self.model.name(),
            self.train_fraction.to_bits(),
            self.seed,
            self.train_subsample.map_or(-1_i64, |v| v as i64),
        )
    }
}

/// Cumulative counters a worker reports: requests served, distinct
/// contexts built, and its cache counters folded over every context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Evaluation requests handled (cache hits included).
    pub served: u64,
    /// Distinct evaluation contexts materialized.
    pub contexts: u64,
    /// Cache hits over all contexts.
    pub hits: u64,
    /// Cache misses over all contexts.
    pub misses: u64,
    /// Live memoized trials over all contexts.
    pub entries: u64,
    /// Prep + Train wall-clock the hits avoided, in nanoseconds.
    pub saved_nanos: u64,
    /// Prefix-transform cache hits over all contexts.
    pub prefix_hits: u64,
    /// Prefix-transform cache misses over all contexts.
    pub prefix_misses: u64,
    /// Prefix-transform cache evictions (LRU + oversize rejects).
    pub prefix_evictions: u64,
    /// Transform invocations the prefix hits skipped.
    pub prefix_steps_saved: u64,
    /// Trials preloaded from the durable trial store
    /// ([`autofp_core::TrialStore`]) into context caches at
    /// materialization; 0 when the worker runs without `--trial-store`.
    pub preloaded: u64,
}

/// A client-to-worker message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Ask for the context's baseline accuracy and training-row count
    /// (materializes the context on the worker).
    Describe(EvalContext),
    /// Evaluate one pipeline at a training-budget fraction.
    Eval {
        /// The evaluation context.
        ctx: EvalContext,
        /// The pipeline to evaluate (kinds and parameters).
        pipeline: Pipeline,
        /// Training-budget fraction in `[0, 1]`.
        fraction: f64,
    },
    /// Ask for the worker's cumulative [`WorkerStats`].
    Stats,
    /// Ask the worker to stop accepting connections and exit.
    Shutdown,
}

/// A worker-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// Answer to [`Request::Describe`].
    Described {
        /// Validation accuracy of the empty pipeline (no-FP baseline).
        baseline_accuracy: f64,
        /// Training rows the context's evaluator fits on.
        train_rows: u64,
    },
    /// Answer to [`Request::Eval`]: the finished trial (worst-error
    /// trials included — their [`autofp_core::FailureKind`] rides on
    /// the trial).
    Trial(Trial),
    /// Answer to [`Request::Stats`].
    Stats(WorkerStats),
    /// The request could not be served (unknown dataset, malformed
    /// frame reflected back, ...).
    Error(EvalError),
}

fn transport(detail: impl Into<String>) -> EvalError {
    EvalError::Transport { detail: detail.into() }
}

// ---------------------------------------------------------------- frames

/// Write one frame (`u32` LE length + payload).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), EvalError> {
    if payload.len() as u64 > MAX_FRAME as u64 {
        return Err(transport(format!("frame of {} bytes exceeds MAX_FRAME", payload.len())));
    }
    let len = (payload.len() as u32).to_le_bytes();
    w.write_all(&len).map_err(|e| transport(format!("write frame length: {e}")))?;
    w.write_all(payload).map_err(|e| transport(format!("write frame payload: {e}")))?;
    w.flush().map_err(|e| transport(format!("flush frame: {e}")))?;
    Ok(())
}

/// Read one frame. `Ok(None)` on a clean end-of-stream (no bytes at a
/// frame boundary); [`EvalError::Transport`] on a torn or oversized
/// frame.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, EvalError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        // lint:allow(panic-reach): `got < 4` loop guard bounds the range start within the 4-byte array
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(transport("connection closed inside a frame length")),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                if got == 0 {
                    return Err(transport(format!("read frame length: {e}")));
                }
                return Err(transport(format!("read frame length (torn): {e}")));
            }
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(transport(format!("frame length {len} exceeds MAX_FRAME")));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| transport(format!("read frame payload: {e}")))?;
    Ok(Some(payload))
}

// --------------------------------------------------------- field codecs

fn enc_context(e: &mut Enc, ctx: &EvalContext) {
    e.string(&ctx.dataset);
    e.f64(ctx.scale);
    e.u8(ctx.model.code());
    e.f64(ctx.train_fraction);
    e.u64(ctx.seed);
    e.opt_u64(ctx.train_subsample);
}

fn dec_context(d: &mut Dec) -> Result<EvalContext, EvalError> {
    let dataset = d.string()?;
    let scale = d.f64()?;
    let code = d.u8()?;
    let model =
        ModelKind::from_code(code).ok_or_else(|| transport(format!("bad model code {code}")))?;
    Ok(EvalContext {
        dataset,
        scale,
        model,
        train_fraction: d.f64()?,
        seed: d.u64()?,
        train_subsample: d.opt_u64()?,
    })
}

fn enc_stats(e: &mut Enc, s: &WorkerStats) {
    e.u64(s.served);
    e.u64(s.contexts);
    e.u64(s.hits);
    e.u64(s.misses);
    e.u64(s.entries);
    e.u64(s.saved_nanos);
    e.u64(s.prefix_hits);
    e.u64(s.prefix_misses);
    e.u64(s.prefix_evictions);
    e.u64(s.prefix_steps_saved);
    e.u64(s.preloaded);
}

fn dec_stats(d: &mut Dec) -> Result<WorkerStats, EvalError> {
    Ok(WorkerStats {
        served: d.u64()?,
        contexts: d.u64()?,
        hits: d.u64()?,
        misses: d.u64()?,
        entries: d.u64()?,
        saved_nanos: d.u64()?,
        prefix_hits: d.u64()?,
        prefix_misses: d.u64()?,
        prefix_evictions: d.u64()?,
        prefix_steps_saved: d.u64()?,
        preloaded: d.u64()?,
    })
}

fn enc_error(e: &mut Enc, err: &EvalError) {
    match err {
        EvalError::NonFiniteTransform { detail } => {
            e.u8(0);
            e.string(detail);
        }
        EvalError::DegenerateMatrix { detail } => {
            e.u8(1);
            e.string(detail);
        }
        EvalError::TrainerDiverged { detail } => {
            e.u8(2);
            e.string(detail);
        }
        EvalError::Panic { message } => {
            e.u8(3);
            e.string(message);
        }
        EvalError::DeadlineExceeded => e.u8(4),
        EvalError::Transport { detail } => {
            e.u8(5);
            e.string(detail);
        }
    }
}

fn dec_error(d: &mut Dec) -> Result<EvalError, EvalError> {
    Ok(match d.u8()? {
        0 => EvalError::NonFiniteTransform { detail: d.string()? },
        1 => EvalError::DegenerateMatrix { detail: d.string()? },
        2 => EvalError::TrainerDiverged { detail: d.string()? },
        3 => EvalError::Panic { message: d.string()? },
        4 => EvalError::DeadlineExceeded,
        5 => EvalError::Transport { detail: d.string()? },
        tag => return Err(transport(format!("bad error tag {tag}"))),
    })
}

// ------------------------------------------------------------- messages

const REQ_PING: u8 = 0;
const REQ_DESCRIBE: u8 = 1;
const REQ_EVAL: u8 = 2;
const REQ_STATS: u8 = 3;
const REQ_SHUTDOWN: u8 = 4;

const RESP_PONG: u8 = 0;
const RESP_DESCRIBED: u8 = 1;
const RESP_TRIAL: u8 = 2;
const RESP_STATS: u8 = 3;
const RESP_ERROR: u8 = 4;

/// Canonical bytes of a [`Request`].
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Ping => Enc::tagged(REQ_PING).into_bytes(),
        Request::Describe(ctx) => {
            let mut e = Enc::tagged(REQ_DESCRIBE);
            enc_context(&mut e, ctx);
            e.into_bytes()
        }
        Request::Eval { ctx, pipeline, fraction } => {
            let mut e = Enc::tagged(REQ_EVAL);
            enc_context(&mut e, ctx);
            enc_pipeline(&mut e, pipeline);
            e.f64(*fraction);
            e.into_bytes()
        }
        Request::Stats => Enc::tagged(REQ_STATS).into_bytes(),
        Request::Shutdown => Enc::tagged(REQ_SHUTDOWN).into_bytes(),
    }
}

/// Decode a [`Request`] payload (total: corrupt input is an `Err`).
pub fn decode_request(payload: &[u8]) -> Result<Request, EvalError> {
    let mut d = Dec::new(payload);
    let req = match d.u8()? {
        REQ_PING => Request::Ping,
        REQ_DESCRIBE => Request::Describe(dec_context(&mut d)?),
        REQ_EVAL => {
            let ctx = dec_context(&mut d)?;
            let pipeline = dec_pipeline(&mut d)?;
            let fraction = d.f64()?;
            Request::Eval { ctx, pipeline, fraction }
        }
        REQ_STATS => Request::Stats,
        REQ_SHUTDOWN => Request::Shutdown,
        tag => return Err(transport(format!("bad request tag {tag}"))),
    };
    d.finish()?;
    Ok(req)
}

/// Canonical bytes of a [`Response`].
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Pong => Enc::tagged(RESP_PONG).into_bytes(),
        Response::Described { baseline_accuracy, train_rows } => {
            let mut e = Enc::tagged(RESP_DESCRIBED);
            e.f64(*baseline_accuracy);
            e.u64(*train_rows);
            e.into_bytes()
        }
        Response::Trial(trial) => {
            let mut e = Enc::tagged(RESP_TRIAL);
            enc_trial(&mut e, trial);
            e.into_bytes()
        }
        Response::Stats(stats) => {
            let mut e = Enc::tagged(RESP_STATS);
            enc_stats(&mut e, stats);
            e.into_bytes()
        }
        Response::Error(err) => {
            let mut e = Enc::tagged(RESP_ERROR);
            enc_error(&mut e, err);
            e.into_bytes()
        }
    }
}

/// Decode a [`Response`] payload (total: corrupt input is an `Err`).
pub fn decode_response(payload: &[u8]) -> Result<Response, EvalError> {
    let mut d = Dec::new(payload);
    let resp = match d.u8()? {
        RESP_PONG => Response::Pong,
        RESP_DESCRIBED => Response::Described {
            baseline_accuracy: d.f64()?,
            train_rows: d.u64()?,
        },
        RESP_TRIAL => Response::Trial(dec_trial(&mut d)?),
        RESP_STATS => Response::Stats(dec_stats(&mut d)?),
        RESP_ERROR => Response::Error(dec_error(&mut d)?),
        tag => return Err(transport(format!("bad response tag {tag}"))),
    };
    d.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofp_core::FailureKind;
    use autofp_preprocess::{Norm, OutputDist, Preproc, PreprocKind};
    use std::time::Duration;

    fn ctx() -> EvalContext {
        EvalContext {
            dataset: "heart".to_string(),
            scale: 0.05,
            model: ModelKind::Xgb,
            train_fraction: 0.8,
            seed: 11,
            train_subsample: Some(64),
        }
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

    fn trial() -> Trial {
        Trial {
            pipeline: every_step_pipeline(),
            accuracy: 0.8125,
            error: 0.1875,
            prep_time: Duration::from_nanos(123_456_789),
            train_time: Duration::from_nanos(987_654_321),
            train_fraction: 0.5,
            failure: Some(FailureKind::Transport),
        }
    }

    fn stats() -> WorkerStats {
        WorkerStats {
            served: 10,
            contexts: 2,
            hits: 4,
            misses: 6,
            entries: 6,
            saved_nanos: 42_000,
            prefix_hits: 9,
            prefix_misses: 3,
            prefix_evictions: 2,
            prefix_steps_saved: 17,
            preloaded: 5,
        }
    }

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Describe(ctx()),
            Request::Eval { ctx: ctx(), pipeline: every_step_pipeline(), fraction: 0.25 },
            Request::Stats,
            Request::Shutdown,
        ]
    }

    fn all_responses() -> Vec<Response> {
        let mut errors: Vec<EvalError> = vec![
            EvalError::NonFiniteTransform { detail: "a".into() },
            EvalError::DegenerateMatrix { detail: "b".into() },
            EvalError::TrainerDiverged { detail: "c".into() },
            EvalError::Panic { message: "d".into() },
            EvalError::DeadlineExceeded,
            EvalError::Transport { detail: "e".into() },
        ];
        let mut out = vec![
            Response::Pong,
            Response::Described { baseline_accuracy: 0.5, train_rows: 193 },
            Response::Trial(trial()),
            Response::Stats(stats()),
        ];
        out.extend(errors.drain(..).map(Response::Error));
        out
    }

    #[test]
    fn every_request_round_trips_bit_exactly() {
        for req in all_requests() {
            let bytes = encode_request(&req);
            let back = decode_request(&bytes).expect("decode");
            assert_eq!(back, req);
            // Canonical: re-encoding the decoded value reproduces the
            // exact bytes.
            assert_eq!(encode_request(&back), bytes);
        }
    }

    #[test]
    fn every_response_round_trips_bit_exactly() {
        for resp in all_responses() {
            let bytes = encode_response(&resp);
            let back = decode_response(&bytes).expect("decode");
            assert_eq!(back, resp);
            assert_eq!(encode_response(&back), bytes);
        }
    }

    /// Golden bytes: the wire format is a compatibility surface — a
    /// silent encoding change would strand every deployed worker.
    /// These constants were transcribed from known-good encodings.
    #[test]
    fn golden_bytes_are_locked() {
        assert_eq!(encode_request(&Request::Ping), vec![0u8]);
        assert_eq!(encode_request(&Request::Stats), vec![3u8]);
        assert_eq!(encode_request(&Request::Shutdown), vec![4u8]);
        assert_eq!(encode_response(&Response::Pong), vec![0u8]);

        // Describe(heart, scale 0.05, XGB, tf 0.8, seed 11, sub 64):
        let describe = encode_request(&Request::Describe(ctx()));
        let mut expect: Vec<u8> = vec![1];
        expect.extend_from_slice(&5u32.to_le_bytes());
        expect.extend_from_slice(b"heart");
        expect.extend_from_slice(&0.05f64.to_bits().to_le_bytes());
        expect.push(1); // XGB = ModelKind::ALL[1]
        expect.extend_from_slice(&0.8f64.to_bits().to_le_bytes());
        expect.extend_from_slice(&11u64.to_le_bytes());
        expect.push(1);
        expect.extend_from_slice(&64u64.to_le_bytes());
        assert_eq!(describe, expect);

        // A one-step Eval: StandardScaler(with_mean=true) @ 1.0.
        let eval = encode_request(&Request::Eval {
            ctx: ctx(),
            pipeline: Pipeline::from_kinds(&[PreprocKind::StandardScaler]),
            fraction: 1.0,
        });
        let mut expect: Vec<u8> = vec![2];
        expect.extend_from_slice(&describe[1..]); // same context bytes
        expect.extend_from_slice(&1u32.to_le_bytes()); // 1 step
        expect.push(6); // StandardScaler = PreprocKind::ALL[6]
        expect.push(1); // with_mean = true
        expect.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        assert_eq!(eval, expect);

        // Error response carrying a Transport error.
        let err = encode_response(&Response::Error(EvalError::Transport { detail: "x".into() }));
        assert_eq!(err, vec![4, 5, 1, 0, 0, 0, b'x']);
    }

    /// Golden bytes of the `Stats` response: a tag, then eleven
    /// little-endian `u64` counters in declaration order.
    #[test]
    fn golden_stats_response_bytes_are_locked() {
        let mut expect: Vec<u8> = vec![3]; // Stats response tag
        for v in [10u64, 2, 4, 6, 6, 42_000, 9, 3, 2, 17, 5] {
            expect.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(expect.len(), 1 + 11 * 8);
        assert_eq!(encode_response(&Response::Stats(stats())), expect);
    }

    /// Golden bytes of the full trial layout: every step kind with a
    /// non-default parameter, and a failure flag carrying a kind code.
    #[test]
    fn golden_trial_response_bytes_are_locked() {
        let mut expect: Vec<u8> = vec![2]; // Trial response tag
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
        assert_eq!(encode_response(&Response::Trial(trial())), expect);
    }

    #[test]
    fn truncated_and_corrupt_frames_error_without_panic() {
        // Every prefix of every valid message must decode to an error
        // (or, for proper prefixes that happen to parse, at least not
        // panic — the `finish` check rejects trailing bytes instead).
        for req in all_requests() {
            let bytes = encode_request(&req);
            for cut in 0..bytes.len() {
                assert!(
                    decode_request(&bytes[..cut]).is_err(),
                    "prefix of {req:?} at {cut} decoded"
                );
            }
        }
        for resp in all_responses() {
            let bytes = encode_response(&resp);
            for cut in 0..bytes.len() {
                assert!(
                    decode_response(&bytes[..cut]).is_err(),
                    "prefix of {resp:?} at {cut} decoded"
                );
            }
        }
        // Corrupt tags and fields; 5 and 6 are unassigned on both sides.
        for tag in [5, 6, 99] {
            assert!(decode_request(&[tag]).is_err(), "request tag {tag}");
            assert!(decode_response(&[tag]).is_err(), "response tag {tag}");
        }
        assert!(decode_request(&[]).is_err());
        // Bad model code inside Describe.
        let mut bytes = encode_request(&Request::Describe(ctx()));
        bytes[1 + 4 + 5 + 8] = 250; // model byte
        assert!(decode_request(&bytes).is_err());
        // Trailing garbage is rejected.
        let mut bytes = encode_request(&Request::Ping);
        bytes.push(0);
        assert!(decode_request(&bytes).is_err());
        // A string length pointing past the buffer.
        let mut bytes = encode_request(&Request::Describe(ctx()));
        bytes[1] = 255; // dataset length LSB
        assert!(decode_request(&bytes).is_err());
    }

    #[test]
    fn corrupt_bytes_never_panic_exhaustively() {
        // Flip every byte of a rich message to a handful of values; the
        // decoder must return (Ok or Err), never panic.
        let bytes = encode_response(&Response::Trial(trial()));
        for i in 0..bytes.len() {
            for v in [0u8, 1, 2, 127, 255] {
                let mut mutated = bytes.clone();
                mutated[i] = v;
                let _ = decode_response(&mutated);
            }
        }
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let payload = encode_request(&Request::Eval {
            ctx: ctx(),
            pipeline: every_step_pipeline(),
            fraction: 0.75,
        });
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).expect("write");
        write_frame(&mut buf, &encode_request(&Request::Ping)).expect("write");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).expect("frame 1"), Some(payload));
        assert_eq!(read_frame(&mut r).expect("frame 2"), Some(vec![0u8]));
        assert_eq!(read_frame(&mut r).expect("eof"), None);

        // Oversized length prefix is rejected before allocation.
        let huge = (MAX_FRAME + 1).to_le_bytes();
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err());
        // A torn length prefix is an error, not EOF.
        let torn = [1u8, 0];
        let mut r = &torn[..];
        assert!(read_frame(&mut r).is_err());
        // A torn payload is an error.
        let mut torn_payload = Vec::new();
        write_frame(&mut torn_payload, &[1, 2, 3, 4]).expect("write");
        torn_payload.pop();
        let mut r = &torn_payload[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn context_canonical_distinguishes_every_field() {
        let base = ctx();
        let variants = [
            EvalContext { dataset: "pd".into(), ..base.clone() },
            EvalContext { scale: 0.1, ..base.clone() },
            EvalContext { model: ModelKind::Lr, ..base.clone() },
            EvalContext { train_fraction: 0.7, ..base.clone() },
            EvalContext { seed: 12, ..base.clone() },
            EvalContext { train_subsample: None, ..base.clone() },
        ];
        for v in &variants {
            assert_ne!(v.canonical(), base.canonical(), "{v:?}");
        }
        assert_eq!(base.canonical(), ctx().canonical());
    }
}
