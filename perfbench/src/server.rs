//! The `repro serve --tcp` child process: spawn, readiness, `/proc` counters
//! and shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::Duration;

use prob_consensus::json::JsonValue;

/// How long a client waits on one reply line before counting it missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running server. Dropping it kills the process and waits for it.
pub struct ServerProcess {
    child: Child,
    /// Kept open so the server never writes into a closed pipe.
    _stderr: BufReader<ChildStderr>,
    /// The loopback address the server listens on.
    addr: SocketAddr,
}

impl ServerProcess {
    /// Spawns `repro serve --tcp 127.0.0.1:0` and reads the bound address
    /// from its first stderr line.
    pub fn spawn(repro: &Path) -> Result<ServerProcess, String> {
        let mut child = Command::new(repro)
            .args(["serve", "--tcp", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", repro.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let read = stderr.read_line(&mut line);
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProcess {
                child,
                _stderr: stderr,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not report its address: {line:?}"))
            }
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Opens one client connection.
    pub fn connect(&self) -> Result<Connection, String> {
        Connection::open(self.addr)
    }

    /// CPU time the server has used so far, in nanoseconds: the sum of every
    /// live thread's `schedstat` run time (user + system, nanosecond
    /// resolution), or `utime + stime` from `stat` where schedstat is missing.
    pub fn cpu_ns(&self) -> u64 {
        let pid = self.pid();
        if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
            let mut total = 0u64;
            let mut any = false;
            for task in tasks.flatten() {
                let path = task.path().join("schedstat");
                if let Some(ns) = std::fs::read_to_string(path)
                    .ok()
                    .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
                {
                    total += ns;
                    any = true;
                }
            }
            if any {
                return total;
            }
        }
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime are the
        // 14th and 15th fields of the line, in clock ticks of 10 ms.
        let rest = stat.rsplit(')').next().unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0)
        };
        (ticks(11) + ticks(12)) * 10_000_000
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Sends `shutdown` on `conn` (every other connection must already be
    /// closed), waits for the acknowledgement and for the process to exit.
    pub fn shutdown(mut self, mut conn: Connection) -> Result<(), String> {
        conn.send("{\"id\":\"bye\",\"op\":\"shutdown\"}")?;
        while let Some(line) = conn.recv()? {
            if line.contains("\"event\":\"shutdown\"") {
                break;
            }
        }
        drop(conn);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One NDJSON client connection.
pub struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    fn open(addr: SocketAddr) -> Result<Connection, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Connection {
            writer: stream,
            reader,
        })
    }

    /// Writes one request line.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes).map_err(|e| e.to_string())
    }

    /// Reads one event line; `None` at end of stream.
    pub fn recv(&mut self) -> Result<Option<String>, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Ok(None),
            Ok(_) => {
                line.truncate(line.trim_end().len());
                Ok(Some(line))
            }
            Err(e) => Err(e.to_string()),
        }
    }

    /// Sends every line, then reads until each has its `done` (or `error`)
    /// event. Returns the number of `error` events.
    pub fn exchange_all(&mut self, lines: &[String]) -> Result<usize, String> {
        for line in lines {
            self.send(line)?;
        }
        let mut open = lines.len();
        let mut errors = 0;
        while open > 0 {
            let line = self.recv()?.ok_or("server closed the connection")?;
            if line.contains("\"event\":\"done\"") {
                open -= 1;
            } else if line.contains("\"event\":\"error\"") {
                errors += 1;
                open -= 1;
            }
        }
        Ok(errors)
    }

    /// One `stats` request over the wire.
    pub fn stats(&mut self) -> Result<JsonValue, String> {
        self.send("{\"id\":\"stats\",\"op\":\"stats\"}")?;
        let line = self.recv()?.ok_or("server closed the connection")?;
        JsonValue::parse(&line).map_err(|e| format!("bad stats reply: {e}"))
    }
}
