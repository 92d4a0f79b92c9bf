//! Shard worker process, in two modes:
//!
//! - **stdin mode** (no arguments): reads one `ShardDescriptor` as JSON
//!   on stdin, writes one canonical `ShardResult` (or a shard error
//!   envelope) on stdout. Spawned by
//!   `xai::core::backend::ProcessPoolBackend`; see DESIGN.md §11.
//! - **daemon mode** (`--listen addr:port`): serves descriptors over the
//!   length-prefixed TCP shard transport, a persistent session per
//!   connection, until killed. Driven by
//!   `xai::core::backend::ClusterBackend`. Use port `0` for an ephemeral
//!   port; the bound address is announced as `listening on {addr}` on
//!   stdout. See DESIGN.md §13.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.as_slice() {
        [] => xai::shard::run_worker(),
        [flag, addr] if flag == "--listen" => xai::transport::run_daemon(addr),
        _ => {
            eprintln!("usage: xai-shard-worker [--listen addr:port]");
            2
        }
    };
    std::process::exit(code);
}
