//! Stand-alone policy server: binds a TCP listener and serves NDJSON
//! [`icoil_serve::Request`] lines until killed.
//!
//! ```text
//! cargo run --release -p icoil-serve --bin serve
//! ```
//!
//! Environment:
//!
//! * `ICOIL_SERVE_ADDR` — bind address (default `127.0.0.1:7333`);
//! * `ICOIL_MODEL` — path to a trained IL model JSON; when unset an
//!   untrained network is served (every session then leans on the CO
//!   lane, which is the interesting load anyway);
//! * `ICOIL_CO_WORKERS` — CO lane worker threads (default 2);
//! * `ICOIL_SHARDS` — engine shard threads (default 1); sessions are
//!   consistent-hashed across shards by id.

use icoil_il::IlModel;
use icoil_perception::BevConfig;
use icoil_serve::{run_server, Serve, ServeConfig};
use icoil_vehicle::ActionCodec;
use std::net::TcpListener;

fn main() -> std::io::Result<()> {
    let addr = std::env::var("ICOIL_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:7333".to_string());
    let mut config = ServeConfig::default();
    if let Ok(workers) = std::env::var("ICOIL_CO_WORKERS") {
        config.co_workers = workers
            .parse()
            .expect("ICOIL_CO_WORKERS must be a positive integer");
    }
    if let Ok(shards) = std::env::var("ICOIL_SHARDS") {
        config.shards = shards
            .parse()
            .expect("ICOIL_SHARDS must be a positive integer");
    }
    let model = match std::env::var("ICOIL_MODEL") {
        Ok(path) => {
            let json = std::fs::read_to_string(&path)?;
            IlModel::from_json(&json)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
        }
        Err(_) => IlModel::untrained(ActionCodec::default(), BevConfig::default(), 1),
    };
    let listener = TcpListener::bind(&addr)?;
    eprintln!(
        "icoil-serve listening on {addr} ({} shards, {} CO workers, queue {})",
        config.shards.max(1),
        config.co_workers,
        config.queue_capacity
    );
    let server = Serve::start(config, model);
    let result = run_server(listener, server.handle());
    server.shutdown();
    result
}
