//! The measured server: the release `maxrs serve` as a child process, so
//! its peak RSS is its own, driven over one keep-alive connection.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

use mrs_server::{Client, Json};

pub struct Server {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Boots `maxrs serve --threads 2 --seed SEED` on an ephemeral loopback
    /// port and waits for its "listening on" line.
    pub fn boot(binary: &Path, seed: u64) -> Result<Server, String> {
        let mut child = Command::new(binary)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2", "--seed"])
            .arg(seed.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            if lines.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("the server exited before listening".into());
            }
            addr = line
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .map(str::to_string);
        }
        // Keep draining the server's stderr so it can never block on a
        // full pipe; its lines are of no use to the measurement.
        let stderr = std::thread::spawn(move || {
            let mut sink = String::new();
            while lines.read_line(&mut sink).unwrap_or(0) > 0 {
                sink.clear();
            }
        });
        Ok(Server { child, addr: addr.expect("loop ends with an address"), stderr: Some(stderr) })
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr.as_str()).map_err(|e| format!("cannot connect: {e}"))
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the server's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM line in /proc status".into())
    }
}

impl Drop for Server {
    /// Kills the server and waits for it.  A graceful `POST /shutdown` can
    /// spend seconds draining connections, which would only lengthen runs.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(stderr) = self.stderr.take() {
            let _ = stderr.join();
        }
    }
}

/// `GET /stats`, parsed.
pub fn stats(client: &mut Client) -> Result<Json, String> {
    let (status, body) = client.get("/stats").map_err(|e| format!("/stats: {e}"))?;
    if status != 200 {
        return Err(format!("/stats answered {status}"));
    }
    Json::parse(&body).map_err(|e| format!("/stats: {e}"))
}

/// A numeric field at `path` of a parsed object (0 when absent).
pub fn field(json: &Json, path: &[&str]) -> f64 {
    let mut node = Some(json);
    for key in path {
        node = node.and_then(|n| n.get(key));
    }
    node.and_then(Json::as_f64).unwrap_or(0.0)
}

/// Sums a numeric field over the `/stats` dataset summaries.
pub fn dataset_sum(stats: &Json, key: &str) -> f64 {
    stats
        .get("datasets")
        .and_then(Json::as_arr)
        .map(|ds| ds.iter().map(|d| d.get(key).and_then(Json::as_f64).unwrap_or(0.0)).sum())
        .unwrap_or(0.0)
}
