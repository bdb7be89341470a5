//! The three deployments: the engine linked in-process, one
//! `sqlem-server` over a durable database, and a coordinator over two
//! shard servers. Servers run in this process on loopback, so the
//! benchmark starts, stops and joins everything it uses.

use std::path::Path;
use std::thread::JoinHandle;
use std::time::Duration;

use sqlengine::{Database, DurabilityOptions, EngineConfig, SharedDatabase};
use sqlwire::{ClientConfig, RemoteConnection, Server, ServerConfig, ServerHandle};

/// Engine configuration for every engine the benchmark starts: one
/// worker thread per statement, so load stays at one client process
/// with at most two busy engines.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    }
}

/// One `sqlem-server` serving on an ephemeral loopback port.
pub struct ServerProc {
    /// `host:port` it listens on.
    pub addr: String,
    /// The database it serves (shared with the benchmark for WAL and
    /// statement counters).
    pub db: SharedDatabase,
    handle: ServerHandle,
    thread: JoinHandle<sqlengine::Result<()>>,
}

impl ServerProc {
    /// Bind and start serving `db`.
    pub fn start(db: Database) -> Result<ServerProc, String> {
        let db = SharedDatabase::new(db);
        let config = ServerConfig {
            drain_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", db.clone(), config)
            .map_err(|e| format!("bind server: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("server address: {e}"))?
            .to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(ServerProc {
            addr,
            db,
            handle,
            thread,
        })
    }

    /// Dial this server with a fresh session.
    pub fn dial(&self) -> Result<RemoteConnection, String> {
        RemoteConnection::connect(&self.addr, ClientConfig::default())
            .map_err(|e| format!("dial {}: {e}", self.addr))
    }

    /// Stop accepting, wait for live sessions to drain and join the
    /// accept loop. Close every connection to the server first.
    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        let served = self
            .thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        served.map_err(|e| format!("server: {e}"))?;
        // Sessions end on their own threads once their peer hangs up;
        // give the last one a moment to release its database handle.
        for _ in 0..200 {
            if self.handle.active_sessions() == 0 {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("server sessions did not drain".into())
    }
}

/// Open (or create) the durable database under `dir` with the default
/// flush policy: fsync per commit, auto-compaction past 8 MiB of log.
pub fn open_durable(dir: &Path) -> Result<Database, String> {
    Database::open_durable_with(dir, engine_config(), DurabilityOptions::default())
        .map_err(|e| format!("open durable database at {}: {e}", dir.display()))
}

/// Statements the engines behind `servers` have executed so far.
pub fn server_statements(servers: &[ServerProc]) -> u64 {
    servers
        .iter()
        .map(|s| s.db.with(|d| d.stats().statements()))
        .sum()
}
