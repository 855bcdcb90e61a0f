//! The `evald` binary's command surface.
//!
//! * `evald serve [--bind ADDR] [--port P]` — run a worker daemon
//!   (default `127.0.0.1`, port 0 = OS-assigned) and print `evald
//!   listening on <addr>` once bound, which supervisors parse. Each
//!   context gets an unbounded in-memory trial cache and a 256 MiB
//!   prefix-transform cache. Durability lives on the harness side
//!   (`--trial-store`), which persists remote trials too.
//! * `evald ping <addr>` / `evald stats <addr>` / `evald shutdown
//!   <addr>` — operator utilities against a running worker.

use crate::client;
use crate::launch::READY_PREFIX;
use crate::server::Server;
use crate::service::WorkerService;
use autofp_core::Flags;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
usage: evald <command>

commands:
  serve [--bind ADDR] [--port P]     run a worker daemon (bind defaults to
                                     127.0.0.1; port 0 = OS-assigned)
  ping <addr>                        check a worker is alive
  stats <addr>                       print a worker's cumulative counters
  shutdown <addr>                    ask a worker to exit
";

const RPC_TIMEOUT: Duration = Duration::from_secs(10);

/// Run the CLI on `args` (binary name already stripped); returns the
/// process exit code.
pub fn run(args: Vec<String>) -> i32 {
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("ping") => rpc(&args[1..], "ping", |addr| {
            client::ping(addr, RPC_TIMEOUT)?;
            println!("{addr}: alive");
            Ok(())
        }),
        Some("stats") => rpc(&args[1..], "stats", |addr| {
            let s = client::stats(addr, RPC_TIMEOUT)?;
            println!(
                "{addr}: served={} contexts={} hits={} misses={} entries={} saved={:?} \
                 prefix_hits={} prefix_misses={} prefix_evictions={} prefix_steps_saved={}",
                s.served,
                s.contexts,
                s.hits,
                s.misses,
                s.entries,
                Duration::from_nanos(s.saved_nanos),
                s.prefix_hits,
                s.prefix_misses,
                s.prefix_evictions,
                s.prefix_steps_saved,
            );
            Ok(())
        }),
        Some("shutdown") => rpc(&args[1..], "shutdown", |addr| {
            client::shutdown(addr, RPC_TIMEOUT)?;
            println!("{addr}: shutting down");
            Ok(())
        }),
        Some("--help") | Some("-h") | Some("help") => {
            print!("{USAGE}");
            0
        }
        Some(other) => {
            eprintln!("evald: unknown command `{other}`\n{USAGE}");
            2
        }
        None => {
            eprint!("{USAGE}");
            2
        }
    }
}

fn serve(args: &[String]) -> i32 {
    let mut bind: std::net::IpAddr = std::net::Ipv4Addr::LOCALHOST.into();
    let mut port: u16 = 0;
    let parsed = Flags::walk(args, |flag, flags| {
        match flag {
            "--bind" => bind = flags.parse("an IP address (e.g. 127.0.0.1 or ::1)")?,
            "--port" => port = flags.parse("an integer in 0..=65535")?,
            other => return Err(format!("unknown serve flag `{other}`")),
        }
        Ok(())
    });
    if let Err(e) = parsed {
        eprintln!("evald: {e}\n{USAGE}");
        return 2;
    }
    let server = match Server::bind((bind, port), Arc::new(WorkerService::new())) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
            eprintln!(
                "evald: port {port} is already in use on {bind} — pick another \
                 --port or use 0 for an OS-assigned one"
            );
            return 1;
        }
        Err(e) => {
            eprintln!("evald: bind {bind}:{port}: {e}");
            return 1;
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("evald: local_addr: {e}");
            return 1;
        }
    };
    // Supervisors block on this exact line; flush so a piped stdout
    // delivers it before the first request arrives.
    println!("{READY_PREFIX}{addr}");
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("evald: serve: {e}");
            1
        }
    }
}

fn rpc(
    args: &[String],
    name: &str,
    f: impl Fn(&str) -> Result<(), autofp_core::EvalError>,
) -> i32 {
    let Some(addr) = args.first() else {
        eprintln!("evald: {name} needs a worker address\n{USAGE}");
        return 2;
    };
    match f(addr) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("evald: {name} {addr}: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_command_and_missing_args_exit_nonzero() {
        assert_eq!(run(argv(&["frobnicate"])), 2);
        assert_eq!(run(argv(&[])), 2);
        assert_eq!(run(argv(&["ping"])), 2);
        assert_eq!(run(argv(&["stats"])), 2);
        assert_eq!(run(argv(&["serve", "--port", "notanumber"])), 2);
        // The worker keeps no durable store: `--trial-store` is unknown.
        assert_eq!(run(argv(&["serve", "--trial-store", "x"])), 2);
        assert_eq!(run(argv(&["serve", "--bogus"])), 2);
    }

    #[test]
    fn serve_bind_rejects_malformed_addresses() {
        assert_eq!(run(argv(&["serve", "--bind"])), 2);
        assert_eq!(run(argv(&["serve", "--bind", ""])), 2);
        assert_eq!(run(argv(&["serve", "--bind", "localhost"])), 2);
        assert_eq!(run(argv(&["serve", "--bind", "256.0.0.1"])), 2);
        assert_eq!(run(argv(&["serve", "--bind", "127.0.0.1:9"])), 2);
        assert_eq!(run(argv(&["serve", "--bind", "not an ip"])), 2);
    }

    #[test]
    fn serve_bind_accepts_a_valid_address() {
        // Bind to loopback with an OS-assigned port, then shut the
        // daemon down over its own protocol.
        let holder = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        let port = holder.local_addr().expect("addr").port();
        drop(holder);
        let handle = std::thread::spawn(move || {
            run(argv(&["serve", "--bind", "127.0.0.1", "--port", &port.to_string()]))
        });
        let addr = format!("127.0.0.1:{port}");
        // The daemon needs a beat to bind; retry until it answers.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            if client::ping(&addr, Duration::from_millis(200)).is_ok() {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "daemon never came up");
            std::thread::sleep(Duration::from_millis(20));
        }
        client::shutdown(&addr, RPC_TIMEOUT).expect("shutdown");
        assert_eq!(handle.join().expect("serve thread"), 0);
    }

    #[test]
    fn help_exits_zero() {
        assert_eq!(run(argv(&["--help"])), 0);
        assert_eq!(run(argv(&["help"])), 0);
    }

    #[test]
    fn rpc_against_a_dead_address_exits_one() {
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        };
        // Quick failure: connect to a closed port is immediate on loopback.
        assert_eq!(run(argv(&["ping", &addr])), 1);
        assert_eq!(run(argv(&["stats", &addr])), 1);
    }

    #[test]
    fn serve_on_an_already_bound_port_exits_one() {
        let holder = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let port = holder.local_addr().expect("addr").port();
        assert_eq!(run(argv(&["serve", "--port", &port.to_string()])), 1);
    }
}
