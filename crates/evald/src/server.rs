//! The thread-per-connection frame server both daemons run on.
//!
//! [`serve_frames`] is the one accept loop: one thread per connection,
//! frames in / frames out, cooperative shutdown. A handler turns each
//! request payload into reply bytes plus a [`Next`] step; on
//! [`Next::Shutdown`] the loop stops accepting (poked awake by a
//! self-connection so it observes the stop flag). Each protocol
//! answers a malformed frame with its error response and
//! [`Next::Close`] — a hostile or torn client never takes the daemon
//! down. [`Server`] runs the evald worker protocol on it; the serve
//! daemon (`autofp_serve::ServeServer`) runs its `Predict` protocol.

use crate::service::WorkerService;
use crate::wire::{decode_request, encode_response, read_frame, write_frame, Request, Response};
use std::io;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the connection loop does after writing a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Read the next request on this connection.
    Continue,
    /// Drop the connection (its framing can no longer be trusted).
    Close,
    /// Drop the connection and stop the accept loop.
    Shutdown,
}

/// Serve `listener` until a handler answers [`Next::Shutdown`]. Each
/// connection gets its own detached thread that feeds every request
/// payload to `handler` and writes back the reply it returns.
pub fn serve_frames<H>(listener: TcpListener, handler: H) -> io::Result<()>
where
    H: Fn(&[u8]) -> (Vec<u8>, Next) + Send + Sync + 'static,
{
    let local = listener.local_addr()?;
    let handler = Arc::new(handler);
    let stop = Arc::new(AtomicBool::new(false));
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            // A single torn accept is not fatal to the daemon.
            Err(_) => continue,
        };
        let handler = Arc::clone(&handler);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            if serve_connection(stream, &*handler) {
                stop.store(true, Ordering::SeqCst);
                // Poke the accept loop awake so it observes `stop`.
                let _ = TcpStream::connect_timeout(&local, Duration::from_secs(1));
            }
        });
    }
    Ok(())
}

/// Serve one connection to completion; returns whether the handler
/// asked for shutdown.
fn serve_connection(mut stream: TcpStream, handler: &dyn Fn(&[u8]) -> (Vec<u8>, Next)) -> bool {
    let _ = stream.set_nodelay(true);
    // A clean EOF means the client is done; a torn frame leaves nothing
    // sane to answer on this stream. Both end the connection.
    while let Ok(Some(payload)) = read_frame(&mut stream) {
        let (reply, next) = handler(&payload);
        let written = write_frame(&mut stream, &reply).is_ok();
        match next {
            Next::Continue if written => {}
            Next::Continue | Next::Close => return false,
            Next::Shutdown => return true,
        }
    }
    false
}

/// A bound, not-yet-running worker server.
pub struct Server {
    listener: TcpListener,
    service: Arc<WorkerService>,
}

impl Server {
    /// Bind to `addr` (use port 0 to let the OS pick a free port).
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<WorkerService>) -> io::Result<Server> {
        Ok(Server { listener: TcpListener::bind(addr)?, service })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a `Shutdown` request, which stops the accept loop
    /// after it is answered.
    pub fn run(self) -> io::Result<()> {
        let service = self.service;
        serve_frames(self.listener, move |payload| handle_frame(&service, payload))
    }
}

/// Answer one worker-protocol frame. A frame that does not decode is
/// reflected back as [`Response::Error`] and closes the connection.
fn handle_frame(service: &WorkerService, payload: &[u8]) -> (Vec<u8>, Next) {
    match decode_request(payload) {
        Ok(req) => {
            let next = match req {
                Request::Shutdown => Next::Shutdown,
                _ => Next::Continue,
            };
            (encode_response(&service.handle(&req)), next)
        }
        Err(err) => (encode_response(&Response::Error(err)), Next::Close),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_request;

    fn start_server() -> (std::net::SocketAddr, std::thread::JoinHandle<io::Result<()>>) {
        let server =
            Server::bind("127.0.0.1:0", Arc::new(WorkerService::new())).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let handle = std::thread::spawn(move || server.run());
        (addr, handle)
    }

    fn roundtrip(stream: &mut TcpStream, req: &Request) -> Response {
        write_frame(stream, &encode_request(req)).expect("write");
        let payload = read_frame(stream).expect("read").expect("response frame");
        crate::wire::decode_response(&payload).expect("decode")
    }

    #[test]
    fn ping_stats_and_shutdown_over_real_tcp() {
        let (addr, handle) = start_server();
        let mut stream = TcpStream::connect(addr).expect("connect");
        assert_eq!(roundtrip(&mut stream, &Request::Ping), Response::Pong);
        let Response::Stats(stats) = roundtrip(&mut stream, &Request::Stats) else {
            panic!("expected Stats");
        };
        assert_eq!(stats.served, 0);
        assert_eq!(roundtrip(&mut stream, &Request::Shutdown), Response::Pong);
        drop(stream);
        handle.join().expect("server thread").expect("server run");
    }

    #[test]
    fn corrupt_frame_gets_an_error_response_and_server_survives() {
        let (addr, handle) = start_server();
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            write_frame(&mut stream, &[99, 1, 2, 3]).expect("write corrupt");
            let payload = read_frame(&mut stream).expect("read").expect("error frame");
            let resp = crate::wire::decode_response(&payload).expect("decode");
            assert!(matches!(resp, Response::Error(_)), "{resp:?}");
        }
        // The daemon still answers fresh connections afterwards.
        let mut stream = TcpStream::connect(addr).expect("reconnect");
        assert_eq!(roundtrip(&mut stream, &Request::Ping), Response::Pong);
        assert_eq!(roundtrip(&mut stream, &Request::Shutdown), Response::Pong);
        drop(stream);
        handle.join().expect("server thread").expect("server run");
    }
}
