//! The inference daemon: the serve protocol on the shared frame server
//! ([`autofp_evald::server::serve_frames`]) — one thread per
//! connection, cooperative shutdown on [`ServeRequest::Shutdown`], and
//! a malformed frame answered with [`ServeResponse::Error`] before the
//! connection is dropped, so a hostile or torn client never takes the
//! daemon down.

use crate::engine::ServeEngine;
use crate::wire::{decode_request, encode_response, ServeInfo, ServeRequest, ServeResponse};
use autofp_evald::server::{serve_frames, Next};
use std::io;
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::Arc;

/// A bound, not-yet-running inference server.
pub struct ServeServer {
    listener: TcpListener,
    engine: Arc<ServeEngine>,
    threads: usize,
}

impl ServeServer {
    /// Bind to `addr` (use port 0 to let the OS pick a free port).
    /// `threads` is the per-batch prediction parallelism.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: Arc<ServeEngine>,
        threads: usize,
    ) -> io::Result<ServeServer> {
        Ok(ServeServer { listener: TcpListener::bind(addr)?, engine, threads: threads.max(1) })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a `Shutdown` request, which stops the accept loop
    /// after it is answered.
    pub fn run(self) -> io::Result<()> {
        let ServeServer { listener, engine, threads } = self;
        serve_frames(listener, move |payload| handle_frame(&engine, threads, payload))
    }
}

/// Answer one decoded request against the engine.
pub fn handle_request(engine: &ServeEngine, threads: usize, req: &ServeRequest) -> ServeResponse {
    match req {
        ServeRequest::Ping => ServeResponse::Pong,
        ServeRequest::Info => {
            let meta = &engine.artifact().meta;
            ServeResponse::Info(ServeInfo {
                dataset: meta.dataset.clone(),
                pipeline_key: meta.pipeline_key.clone(),
                model: meta.model.name().to_string(),
                n_features: meta.n_features,
                n_classes: meta.n_classes,
                accuracy: meta.accuracy,
            })
        }
        ServeRequest::Predict { rows } => {
            let report = engine.predict_batch(rows, threads);
            ServeResponse::PredictAck { outcomes: report.outcomes, stats: engine.stats() }
        }
        ServeRequest::Stats => ServeResponse::Stats(engine.stats()),
        ServeRequest::Shutdown => ServeResponse::ShutdownAck,
    }
}

/// Answer one serve-protocol frame. A frame that does not decode is
/// reflected back as [`ServeResponse::Error`] and closes the connection.
fn handle_frame(engine: &ServeEngine, threads: usize, payload: &[u8]) -> (Vec<u8>, Next) {
    match decode_request(payload) {
        Ok(req) => {
            let next = match req {
                ServeRequest::Shutdown => Next::Shutdown,
                _ => Next::Continue,
            };
            (encode_response(&handle_request(engine, threads, &req)), next)
        }
        Err(err) => (encode_response(&ServeResponse::Error(err)), Next::Close),
    }
}
