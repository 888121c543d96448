//! Background snapshot exporter: periodic JSONL emission plus a localhost
//! Prometheus text endpoint, with zero dependencies beyond std.
//!
//! [`spawn`] starts up to two threads. The *emitter* takes a
//! [`crate::Snapshot`] every `interval` and writes it as one JSON line to
//! the configured sink. The *listener* accepts loopback TCP connections and
//! answers every request with the latest snapshot rendered by
//! [`crate::Snapshot::to_prometheus`] — a deliberately minimal HTTP/1.0
//! server (read until blank line or EOF, write one response, close) that a
//! real Prometheus scraper, `curl`, or a test can hit.
//!
//! Neither thread can perturb a released answer: they only *read* the
//! registry's atomics, never touch an RNG or a budget cell, and never take a
//! lock a serving path holds (`tests/obs_differential.rs` pins this
//! bit-for-bit). Shutdown is cooperative: [`ExporterHandle::shutdown`] sets
//! a flag, unparks the emitter, and pokes the listener with a dummy
//! connection so `accept` returns.

use crate::Snapshot;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration for [`spawn`].
#[derive(Debug, Clone)]
pub struct ExporterConfig {
    /// Interval between JSONL snapshot emissions.
    pub interval: Duration,
    /// Write snapshots as JSON lines to this file. The file is truncated at
    /// spawn: one exporter session is one JSONL stream, so `seq` is strictly
    /// increasing and counters never decrease *within a file* — the
    /// invariants `obs-check` validates. `None` disables the emitter thread.
    pub jsonl_path: Option<PathBuf>,
    /// Serve Prometheus text on this loopback address (e.g.
    /// `127.0.0.1:9492`, or port 0 to let the OS pick — see
    /// [`ExporterHandle::local_addr`]). `None` disables the listener.
    pub listen: Option<SocketAddr>,
}

impl Default for ExporterConfig {
    fn default() -> Self {
        ExporterConfig { interval: Duration::from_millis(1000), jsonl_path: None, listen: None }
    }
}

/// Handle to a running exporter; keeps the threads joinable and shuts them
/// down on [`ExporterHandle::shutdown`] (or on drop, detached).
pub struct ExporterHandle {
    stop: Arc<AtomicBool>,
    local_addr: Option<SocketAddr>,
    emitter: Option<JoinHandle<()>>,
    listener: Option<JoinHandle<()>>,
}

impl ExporterHandle {
    /// The bound address of the Prometheus listener, if one was configured
    /// (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Stops both threads and joins them. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.emitter.take() {
            h.thread().unpark();
            let _ = h.join();
        }
        if let Some(h) = self.listener.take() {
            // accept() blocks; a throwaway connection wakes it to observe
            // the stop flag.
            if let Some(addr) = self.local_addr {
                let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
            }
            let _ = h.join();
        }
    }
}

impl Drop for ExporterHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts the exporter threads per `config`. Returns an error, with no
/// thread started, if the JSONL file cannot be opened or the listen address
/// cannot be bound: both sinks are opened before either thread spawns. With
/// obs compiled out ([`crate::COMPILED`] false) the threads still run but
/// every snapshot is empty.
pub fn spawn(config: ExporterConfig) -> std::io::Result<ExporterHandle> {
    // Bind first, so a taken port leaves an existing JSONL file untouched.
    let sock = config.listen.map(TcpListener::bind).transpose()?;
    let local_addr = sock.as_ref().map(TcpListener::local_addr).transpose()?;
    let file = config.jsonl_path.as_ref().map(std::fs::File::create).transpose()?;
    let stop = Arc::new(AtomicBool::new(false));

    let emitter = file.map(|file| {
        let file = Mutex::new(std::io::BufWriter::new(file));
        let stop = Arc::clone(&stop);
        let interval = config.interval;
        std::thread::Builder::new()
            .name("r2t-obs-jsonl".to_string())
            .spawn(move || emit_loop(&stop, interval, &file))
            .expect("spawn r2t-obs-jsonl")
    });
    let listener = sock.map(|sock| {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("r2t-obs-http".to_string())
            .spawn(move || serve_loop(&stop, &sock))
            .expect("spawn r2t-obs-http")
    });

    Ok(ExporterHandle { stop, local_addr, emitter, listener })
}

/// Reads the exporter configuration from the environment and spawns it:
///
/// - `R2T_OBS_JSONL=<path>` — write JSONL snapshots to `<path>` (truncated
///   at start: one run, one stream).
/// - `R2T_OBS_LISTEN=<addr>` — serve Prometheus text on `<addr>` (e.g.
///   `127.0.0.1:9492`).
/// - `R2T_OBS_INTERVAL_MS=<n>` — emission interval (default 1000).
///
/// Returns `None` (starting nothing) when neither sink is configured; logs
/// to stderr and returns `None` when a value is malformed or a sink cannot
/// be opened, so a bad operator knob never takes the workload down.
pub fn spawn_from_env() -> Option<ExporterHandle> {
    let jsonl_path =
        std::env::var("R2T_OBS_JSONL").ok().filter(|s| !s.is_empty()).map(PathBuf::from);
    let listen = match std::env::var("R2T_OBS_LISTEN") {
        Ok(s) if !s.is_empty() => match s.parse::<SocketAddr>() {
            Ok(addr) => Some(addr),
            Err(_) => {
                eprintln!(
                    "r2t-obs: invalid R2T_OBS_LISTEN {s:?} (expected e.g. 127.0.0.1:9492); \
                     exporter disabled"
                );
                return None;
            }
        },
        _ => None,
    };
    if jsonl_path.is_none() && listen.is_none() {
        return None;
    }
    let interval = match std::env::var("R2T_OBS_INTERVAL_MS") {
        Ok(s) if !s.is_empty() => match s.parse::<u64>() {
            Ok(ms) => Duration::from_millis(ms.max(1)),
            Err(_) => {
                eprintln!(
                    "r2t-obs: invalid R2T_OBS_INTERVAL_MS {s:?} (expected milliseconds); \
                     exporter disabled"
                );
                return None;
            }
        },
        _ => Duration::from_millis(1000),
    };
    match spawn(ExporterConfig { interval, jsonl_path, listen }) {
        Ok(handle) => Some(handle),
        Err(e) => {
            eprintln!("r2t-obs: failed to start exporter: {e}; exporter disabled");
            None
        }
    }
}

fn emit_loop(
    stop: &AtomicBool,
    interval: Duration,
    file: &Mutex<std::io::BufWriter<std::fs::File>>,
) {
    let mut last: Option<Snapshot> = None;
    loop {
        std::thread::park_timeout(interval);
        let stopping = stop.load(Ordering::SeqCst);
        let snap = crate::snapshot();
        // Skip idle intervals (no new data) unless this is the final flush.
        // Comparing the folds directly keeps the emitter off the event log.
        let changed = last.as_ref().is_none_or(|l| {
            snap.counters != l.counters || snap.hists != l.hists || snap.spans != l.spans
        });
        if changed || stopping {
            let mut w = file.lock().expect("jsonl writer poisoned");
            let _ = writeln!(w, "{}", snap.to_json());
            let _ = w.flush();
        }
        last = Some(snap);
        if stopping {
            return;
        }
    }
}

fn serve_loop(stop: &AtomicBool, sock: &TcpListener) {
    loop {
        let conn = sock.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _)) = conn else { continue };
        // One request per connection, served inline: scrapes are rare
        // (seconds apart) and the body is small, so no handler pool.
        let _ = serve_one(stream);
    }
}

fn serve_one(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read the request head (until CRLFCRLF or EOF); the path is ignored —
    // every route returns the metrics page.
    let mut buf = [0u8; 1024];
    let mut head: Vec<u8> = Vec::with_capacity(256);
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 16 * 1024 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let body = crate::snapshot().to_prometheus();
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}
