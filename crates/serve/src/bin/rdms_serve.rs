//! The `rdms-serve` binary: flags → [`ServerConfig`] → blocking accept loop.
//!
//! See `docs/OPERATIONS.md` for the operator guide and `docs/PROTOCOL.md` for what to
//! send it. Exits 0 after a graceful drain (remote `Shutdown` with
//! `--allow-remote-shutdown`), non-zero on startup errors.

use rdms_serve::{Server, ServerConfig};
use std::time::Duration;

const USAGE: &str = "\
rdms-serve — online incremental verification service (see docs/OPERATIONS.md)

USAGE: rdms-serve [OPTIONS]

OPTIONS:
      --addr <ADDR>               bind address [default: 127.0.0.1:7464]; port 0 = ephemeral
      --port-file <PATH>          after binding, write the actual port to this file
      --max-sessions <N>          concurrent-connection cap [default: 64]
      --queue-depth <N>           per-session inbound queue bound [default: 32]
      --idle-timeout-ms <MS>      evict sessions idle this long [default: 300000]
      --max-frame-len <BYTES>     frame payload cap [default: 16777216]
      --max-transactions <N>      per-session accepted-transaction cap [default: unlimited]
      --handler-delay-ms <MS>     artificial per-request delay (test/load knob) [default: 0]
      --io-timeout-ms <MS>        close connections stalled mid-frame this long (slow-loris
                                  defence); 0 disables [default: 30000]
      --check-deadline-ms <MS>    per-Check time budget, rejected with `deadline-exceeded`
                                  past it; 0 disables [default: 0]
      --journal-dir <DIR>         crash-safe session journals: log accepted transactions
                                  here, recover sessions at boot (clients re-attach with
                                  Resume) [default: off]
      --journal-fsync-every <N>   fsync journals every N appended records [default: 8]
      --memory-budget-mb <MB>     soft cap on estimated session memory: new Opens are
                                  shed with `overloaded` and the largest idle session
                                  is evicted under pressure; 0 disables [default: 0]
      --allow-remote-shutdown     honour the wire Shutdown request
  -h, --help                      print this help
";

fn fail(message: &str) -> ! {
    eprintln!("rdms-serve: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:7464".to_string();
    let mut port_file: Option<String> = None;
    let mut config = ServerConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr"),
            "--port-file" => port_file = Some(value("--port-file")),
            "--max-sessions" => config.max_sessions = parse(&value("--max-sessions")),
            "--queue-depth" => config.queue_depth = parse(&value("--queue-depth")),
            "--idle-timeout-ms" => {
                config.idle_timeout = Duration::from_millis(parse(&value("--idle-timeout-ms")));
            }
            "--max-frame-len" => config.max_frame_len = parse(&value("--max-frame-len")),
            "--max-transactions" => {
                config.max_transactions = Some(parse(&value("--max-transactions")));
            }
            "--handler-delay-ms" => {
                config.handler_delay = Duration::from_millis(parse(&value("--handler-delay-ms")));
            }
            "--io-timeout-ms" => {
                let ms: u64 = parse(&value("--io-timeout-ms"));
                config.io_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--check-deadline-ms" => {
                let ms: u64 = parse(&value("--check-deadline-ms"));
                config.check_deadline = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--journal-dir" => {
                config.journal_dir = Some(std::path::PathBuf::from(value("--journal-dir")));
            }
            "--journal-fsync-every" => {
                config.journal_fsync_every = parse(&value("--journal-fsync-every"));
            }
            "--memory-budget-mb" => {
                let mb: usize = parse(&value("--memory-budget-mb"));
                config.memory_budget_bytes = (mb > 0).then(|| mb * 1024 * 1024);
            }
            "--allow-remote-shutdown" => config.allow_remote_shutdown = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown flag `{other}`")),
        }
    }

    let server = match Server::bind(&addr, config) {
        Ok(server) => server,
        Err(e) => fail(&format!("cannot bind {addr}: {e}")),
    };
    let local = server.local_addr().expect("bound listener has an address");
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, format!("{}\n", local.port())) {
            fail(&format!("cannot write port file {path}: {e}"));
        }
    }
    eprintln!("rdms-serve: listening on {local}");
    match server.run() {
        Ok(()) => eprintln!("rdms-serve: drained, bye"),
        Err(e) => {
            eprintln!("rdms-serve: accept loop failed: {e}");
            std::process::exit(1);
        }
    }
}

fn parse<T: std::str::FromStr>(value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| fail(&format!("cannot parse `{value}`")))
}
