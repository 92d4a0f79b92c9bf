//! Shard worker daemon: `xai-shard-worker --listen addr:port` serves
//! `ShardDescriptor`s over the length-prefixed TCP shard transport, a
//! persistent session per connection, until killed, answering each with
//! a canonical `ShardResult` or a shard error envelope. Use port `0` for
//! an ephemeral port; the bound address is announced as
//! `listening on {addr}` on stdout. Driven by
//! `xai::core::backend::ClusterBackend` at given addresses and by
//! `xai::core::backend::ProcessPoolBackend`, which spawns its own
//! daemons on this machine; see DESIGN.md §13–14. Any other command line
//! prints the usage and exits 2.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.as_slice() {
        [flag, addr] if flag == "--listen" => xai::transport::run_daemon(addr),
        _ => {
            eprintln!("usage: xai-shard-worker --listen addr:port");
            2
        }
    };
    std::process::exit(code);
}
