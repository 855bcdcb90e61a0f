#![warn(missing_docs)]
//! `autofp-evald` — the sharded multi-process evaluation service.
//!
//! The bench harness's Table 4 matrix re-evaluates heavily overlapping
//! pipeline sets across 15 algorithms; this crate turns that workload
//! into a service: worker daemons own a process-local
//! [`autofp_core::EvalCache`] and execute evaluation requests
//! over a dependency-free wire protocol, while
//! [`autofp_core::RemoteEvaluator`] on the client side shards requests
//! across the fleet by the stable `CacheKey` fingerprint.
//!
//! Module map:
//!
//! * [`wire`] — length-prefixed frames with hand-rolled canonical
//!   serialization for every request/response; malformed input decodes
//!   to [`autofp_core::EvalError::Transport`], never a panic.
//! * [`service`] — [`service::WorkerService`], the transport-agnostic
//!   request handler: one evaluator + cache per evaluation context,
//!   built lazily from the dataset registry.
//! * [`server`] — [`server::serve_frames`], the thread-per-connection
//!   frame server with cooperative shutdown that both `evald serve` and
//!   `autofp serve` run on, and [`server::Server`], the worker protocol
//!   on top of it.
//! * [`fleet`] — fleet membership ([`fleet::SharedFleetSpec`], the one
//!   copy of the epoch-stamped [`fleet::FleetSpec`]: the supervisor
//!   publishes it and every backend routes over it; workers hold no
//!   membership) and per-worker [`fleet::CircuitBreaker`]s.
//! * [`client`] — [`client::TcpBackend`] (persistent pooled
//!   connections with reconnect-on-failure and per-slot circuit
//!   breakers, shared through [`client::TcpPool`]) and
//!   [`client::LoopbackBackend`] (in-process transport that still
//!   round-trips every byte through [`wire`]), both implementing
//!   [`autofp_core::RemoteBackend`].
//! * [`launch`] — spawning and supervising local worker processes:
//!   [`launch::FleetSupervisor`] (health-checked respawn with capped
//!   restarts and seeded-jitter backoff; left unsupervised, a fixed
//!   fleet), used by the bench harness's `--workers N` flag and the
//!   distributed test suite.
//! * [`cli`] — the `evald` binary's command surface
//!   (`serve`/`ping`/`stats`/`shutdown`).

pub mod cli;
pub mod client;
pub mod fleet;
pub mod launch;
pub mod server;
pub mod service;
pub mod wire;

pub use client::{ping, shutdown, stats, LoopbackBackend, TcpBackend, TcpPool};
pub use fleet::{CircuitBreaker, FleetSpec, SharedFleetSpec};
pub use launch::{FleetSupervisor, SupervisorConfig};
pub use server::Server;
pub use service::WorkerService;
pub use wire::{EvalContext, Request, Response, WorkerStats};
