//! The serve wire protocol: `Predict`/`PredictAck` over evald framing.
//!
//! Messages ride the same `[u32 LE length][payload]` frames as the
//! evaluation service (`evald::wire::read_frame`/`write_frame` are
//! reused directly), with the same conventions: a one-byte tag, then
//! fields in the shared [`autofp_linalg::codec`] encoding — canonical
//! encoding, and total decoding: a malformed payload is an
//! `EvalError::Transport`, never a panic.

use crate::engine::{EngineStats, RowOutcome};
use autofp_core::codec::{dec_failure, Dec, Enc};
use autofp_core::EvalError;
use std::io::{Read, Write};

pub use autofp_evald::wire::{read_frame, write_frame, MAX_FRAME};

/// Cap on rows per `Predict` request (the 16 MiB frame cap bounds the
/// payload anyway; this bounds the row-vector allocation up front).
pub const MAX_BATCH: u32 = 1 << 20;

const REQ_PING: u8 = 0;
const REQ_INFO: u8 = 1;
const REQ_PREDICT: u8 = 2;
const REQ_STATS: u8 = 3;
const REQ_SHUTDOWN: u8 = 4;

const RESP_PONG: u8 = 0;
const RESP_INFO: u8 = 1;
const RESP_PREDICT_ACK: u8 = 2;
const RESP_STATS: u8 = 3;
const RESP_SHUTDOWN_ACK: u8 = 4;
const RESP_ERROR: u8 = 5;

/// What the artifact behind a serve endpoint looks like.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeInfo {
    /// Dataset the artifact was fitted on.
    pub dataset: String,
    /// Human-readable pipeline description.
    pub pipeline_key: String,
    /// Model family report name ("LR", "XGB", "MLP").
    pub model: String,
    /// Feature arity every row must match.
    pub n_features: u64,
    /// Classes the model predicts over.
    pub n_classes: u64,
    /// Validation accuracy recorded at export time.
    pub accuracy: f64,
}

/// A client request to the serve endpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeRequest {
    /// Liveness probe.
    Ping,
    /// Describe the loaded artifact.
    Info,
    /// Predict a batch of feature rows.
    Predict {
        /// Feature rows; arity is validated per row (quarantine path).
        rows: Vec<Vec<f64>>,
    },
    /// Snapshot the lifetime serving counters.
    Stats,
    /// Stop the server loop.
    Shutdown,
}

/// The server's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeResponse {
    /// Ping acknowledged.
    Pong,
    /// Artifact description.
    Info(ServeInfo),
    /// Per-row outcomes (input order) plus post-batch counters.
    PredictAck {
        /// One outcome per request row, in input order.
        outcomes: Vec<RowOutcome>,
        /// Lifetime counters after absorbing this batch.
        stats: EngineStats,
    },
    /// Counter snapshot.
    Stats(EngineStats),
    /// Shutdown acknowledged.
    ShutdownAck,
    /// The request failed server-side.
    Error(EvalError),
}

fn transport(detail: impl Into<String>) -> EvalError {
    EvalError::Transport { detail: detail.into() }
}

// ---------------------------------------------------------------------------
// Fields
// ---------------------------------------------------------------------------

fn enc_stats(e: &mut Enc, s: &EngineStats) {
    e.u64(s.rows);
    e.u64(s.predicted);
    e.u64(s.rejected_non_finite);
    e.u64(s.rejected_arity);
}

fn dec_stats(d: &mut Dec<'_>) -> Result<EngineStats, EvalError> {
    Ok(EngineStats {
        rows: d.u64()?,
        predicted: d.u64()?,
        rejected_non_finite: d.u64()?,
        rejected_arity: d.u64()?,
    })
}

fn enc_rows(e: &mut Enc, rows: &[Vec<f64>]) {
    e.u32(rows.len() as u32);
    for row in rows {
        e.f64_vec(row);
    }
}

fn dec_rows(d: &mut Dec<'_>) -> Result<Vec<Vec<f64>>, EvalError> {
    let n = d.u32()?;
    if n > MAX_BATCH {
        return Err(transport(format!("batch of {n} rows exceeds cap {MAX_BATCH}")));
    }
    let mut rows = Vec::with_capacity(n as usize);
    for _ in 0..n {
        rows.push(d.f64_vec()?);
    }
    Ok(rows)
}

fn enc_outcomes(e: &mut Enc, outcomes: &[RowOutcome]) {
    e.u32(outcomes.len() as u32);
    for o in outcomes {
        match o {
            RowOutcome::Predicted(class) => {
                e.u8(0);
                e.u32(*class as u32);
            }
            RowOutcome::Rejected(kind) => {
                e.u8(1);
                e.u8(kind.index() as u8);
            }
        }
    }
}

fn dec_outcomes(d: &mut Dec<'_>) -> Result<Vec<RowOutcome>, EvalError> {
    let n = d.u32()?;
    if n > MAX_BATCH {
        return Err(transport(format!("ack of {n} outcomes exceeds cap {MAX_BATCH}")));
    }
    // Each outcome is at least 2 bytes.
    if n as usize > d.remaining() / 2 + 1 {
        return Err(transport("outcome count exceeds payload"));
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        match d.u8()? {
            0 => out.push(RowOutcome::Predicted(d.u32()? as usize)),
            1 => out.push(RowOutcome::Rejected(dec_failure(d.u8()?)?)),
            t => return Err(transport(format!("bad outcome tag {t}"))),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Encode a request payload (framing is the caller's concern).
pub fn encode_request(req: &ServeRequest) -> Vec<u8> {
    match req {
        ServeRequest::Ping => Enc::tagged(REQ_PING).into_bytes(),
        ServeRequest::Info => Enc::tagged(REQ_INFO).into_bytes(),
        ServeRequest::Predict { rows } => {
            let mut e = Enc::tagged(REQ_PREDICT);
            enc_rows(&mut e, rows);
            e.into_bytes()
        }
        ServeRequest::Stats => Enc::tagged(REQ_STATS).into_bytes(),
        ServeRequest::Shutdown => Enc::tagged(REQ_SHUTDOWN).into_bytes(),
    }
}

/// Decode a request payload. Total; rejects trailing bytes.
pub fn decode_request(payload: &[u8]) -> Result<ServeRequest, EvalError> {
    let mut d = Dec::new(payload);
    let req = match d.u8()? {
        REQ_PING => ServeRequest::Ping,
        REQ_INFO => ServeRequest::Info,
        REQ_PREDICT => ServeRequest::Predict { rows: dec_rows(&mut d)? },
        REQ_STATS => ServeRequest::Stats,
        REQ_SHUTDOWN => ServeRequest::Shutdown,
        tag => return Err(transport(format!("bad request tag {tag}"))),
    };
    d.finish()?;
    Ok(req)
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Encode a response payload.
pub fn encode_response(resp: &ServeResponse) -> Vec<u8> {
    match resp {
        ServeResponse::Pong => Enc::tagged(RESP_PONG).into_bytes(),
        ServeResponse::Info(info) => {
            let mut e = Enc::tagged(RESP_INFO);
            e.string(&info.dataset);
            e.string(&info.pipeline_key);
            e.string(&info.model);
            e.u64(info.n_features);
            e.u64(info.n_classes);
            e.f64(info.accuracy);
            e.into_bytes()
        }
        ServeResponse::PredictAck { outcomes, stats } => {
            let mut e = Enc::tagged(RESP_PREDICT_ACK);
            enc_outcomes(&mut e, outcomes);
            enc_stats(&mut e, stats);
            e.into_bytes()
        }
        ServeResponse::Stats(stats) => {
            let mut e = Enc::tagged(RESP_STATS);
            enc_stats(&mut e, stats);
            e.into_bytes()
        }
        ServeResponse::ShutdownAck => Enc::tagged(RESP_SHUTDOWN_ACK).into_bytes(),
        ServeResponse::Error(err) => {
            let mut e = Enc::tagged(RESP_ERROR);
            e.string(&format!("{err}"));
            e.into_bytes()
        }
    }
}

/// Decode a response payload. Total; rejects trailing bytes.
pub fn decode_response(payload: &[u8]) -> Result<ServeResponse, EvalError> {
    let mut d = Dec::new(payload);
    let resp = match d.u8()? {
        RESP_PONG => ServeResponse::Pong,
        RESP_INFO => ServeResponse::Info(ServeInfo {
            dataset: d.string()?,
            pipeline_key: d.string()?,
            model: d.string()?,
            n_features: d.u64()?,
            n_classes: d.u64()?,
            accuracy: d.f64()?,
        }),
        RESP_PREDICT_ACK => {
            let outcomes = dec_outcomes(&mut d)?;
            let stats = dec_stats(&mut d)?;
            ServeResponse::PredictAck { outcomes, stats }
        }
        RESP_STATS => ServeResponse::Stats(dec_stats(&mut d)?),
        RESP_SHUTDOWN_ACK => ServeResponse::ShutdownAck,
        RESP_ERROR => ServeResponse::Error(transport(d.string()?)),
        tag => return Err(transport(format!("bad response tag {tag}"))),
    };
    d.finish()?;
    Ok(resp)
}

/// Write one framed request.
pub fn send_request(w: &mut impl Write, req: &ServeRequest) -> Result<(), EvalError> {
    write_frame(w, &encode_request(req))
}

/// Read one framed response (`None` on clean EOF).
pub fn recv_response(r: &mut impl Read) -> Result<Option<ServeResponse>, EvalError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(payload) => Ok(Some(decode_response(&payload)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofp_core::FailureKind;

    fn all_requests() -> Vec<ServeRequest> {
        vec![
            ServeRequest::Ping,
            ServeRequest::Info,
            ServeRequest::Predict {
                rows: vec![vec![1.0, f64::NAN, -3.5], vec![], vec![f64::INFINITY]],
            },
            ServeRequest::Stats,
            ServeRequest::Shutdown,
        ]
    }

    fn all_responses() -> Vec<ServeResponse> {
        let stats = EngineStats {
            rows: 10,
            predicted: 7,
            rejected_non_finite: 2,
            rejected_arity: 1,
        };
        vec![
            ServeResponse::Pong,
            ServeResponse::Info(ServeInfo {
                dataset: "ds".into(),
                pipeline_key: "StandardScaler".into(),
                model: "LR".into(),
                n_features: 5,
                n_classes: 3,
                accuracy: 0.875,
            }),
            ServeResponse::PredictAck {
                outcomes: vec![
                    RowOutcome::Predicted(2),
                    RowOutcome::Rejected(FailureKind::NonFinite),
                    RowOutcome::Rejected(FailureKind::Degenerate),
                ],
                stats,
            },
            ServeResponse::Stats(stats),
            ServeResponse::ShutdownAck,
            ServeResponse::Error(transport("boom")),
        ]
    }

    #[test]
    fn round_trips_are_canonical() {
        for req in all_requests() {
            let bytes = encode_request(&req);
            let back = decode_request(&bytes).expect("request");
            // Byte-level round trip is the canonical property: it is
            // bit-exact even through the NaN payloads `PartialEq`
            // cannot compare.
            assert_eq!(encode_request(&back), bytes);
        }
        for resp in all_responses() {
            let bytes = encode_response(&resp);
            let back = decode_response(&bytes).expect("response");
            // An `Error` decodes to Transport carrying the display
            // text, so only the non-error responses re-encode to the
            // original bytes.
            if !matches!(resp, ServeResponse::Error(_)) {
                assert_eq!(back, resp);
                assert_eq!(encode_response(&back), bytes);
            }
        }
    }

    #[test]
    fn golden_bytes_are_locked() {
        assert_eq!(encode_request(&ServeRequest::Ping), vec![0]);
        let mut want = vec![2u8]; // Predict tag
        want.extend_from_slice(&1u32.to_le_bytes()); // one row
        want.extend_from_slice(&2u32.to_le_bytes()); // two values
        want.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        want.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert_eq!(
            encode_request(&ServeRequest::Predict { rows: vec![vec![1.5, f64::NAN]] }),
            want
        );
        let mut want = vec![2u8]; // PredictAck tag
        want.extend_from_slice(&2u32.to_le_bytes()); // two outcomes
        want.push(0); // predicted
        want.extend_from_slice(&4u32.to_le_bytes());
        want.push(1); // rejected
        want.push(0); // NonFinite code
        for v in [9u64, 8, 0, 1] {
            want.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(
            encode_response(&ServeResponse::PredictAck {
                outcomes: vec![
                    RowOutcome::Predicted(4),
                    RowOutcome::Rejected(FailureKind::NonFinite),
                ],
                stats: EngineStats {
                    rows: 9,
                    predicted: 8,
                    rejected_non_finite: 0,
                    rejected_arity: 1,
                },
            }),
            want
        );
    }

    #[test]
    fn truncations_and_trailing_bytes_error() {
        for req in all_requests() {
            let bytes = encode_request(&req);
            for len in 0..bytes.len() {
                assert!(decode_request(&bytes[..len]).is_err(), "{req:?} prefix {len}");
            }
            let mut trailing = bytes.clone();
            trailing.push(0);
            assert!(decode_request(&trailing).is_err());
        }
        for resp in all_responses() {
            let bytes = encode_response(&resp);
            for len in 0..bytes.len() {
                assert!(decode_response(&bytes[..len]).is_err(), "prefix {len}");
            }
        }
    }

    #[test]
    fn byte_flips_never_panic() {
        for bytes in all_requests()
            .iter()
            .map(encode_request)
            .chain(all_responses().iter().map(encode_response))
        {
            for i in 0..bytes.len() {
                for v in [0u8, 1, 2, 127, 255] {
                    let mut m = bytes.clone();
                    if m[i] == v {
                        continue;
                    }
                    m[i] = v;
                    let _ = decode_request(&m);
                    let _ = decode_response(&m);
                }
            }
        }
    }

    #[test]
    fn oversized_batch_rejected() {
        let mut e = vec![2u8];
        e.extend_from_slice(&(MAX_BATCH + 1).to_le_bytes());
        assert!(decode_request(&e).is_err());
    }
}
