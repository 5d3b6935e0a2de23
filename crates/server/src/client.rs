//! A tiny blocking HTTP/1.1 client for the service's own tests and the
//! `serve_loadgen` gate driver.  Keep-alive by default: one [`Client`]
//! holds one connection and issues requests sequentially on it, which is
//! exactly the shape a closed-loop driver needs.

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A persistent connection to one server.  The request head, response
/// line, and response body all go through connection-owned scratch buffers
/// reused across requests, so a long-lived client (the load generator's
/// shape) allocates per response body, not per protocol step.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Request serialization scratch: the whole head (+ body) is built
    /// here and written with one `write` syscall.
    scratch: String,
    /// Response status/header line scratch.
    line: String,
    /// Response body scratch; the returned `String` is the only per-body
    /// allocation.
    body_buf: Vec<u8>,
}

/// One request of a pipelined burst (see [`Client::pipeline`]).
#[derive(Clone, Copy, Debug)]
pub struct PipelineRequest<'a> {
    /// The HTTP method.
    pub method: &'a str,
    /// The request target.
    pub path: &'a str,
    /// The request body (`Content-Length` is derived).
    pub body: &'a str,
}

impl<'a> PipelineRequest<'a> {
    /// A `GET` with an empty body.
    pub fn get(path: &'a str) -> Self {
        Self { method: "GET", path, body: "" }
    }

    /// A `POST` carrying `body`.
    pub fn post(path: &'a str, body: &'a str) -> Self {
        Self { method: "POST", path, body }
    }
}

/// A full response: status code, headers (lowercased names, trimmed
/// values), and the body as text.
pub type FullResponse = (u16, Vec<(String, String)>, String);

impl Client {
    /// Connects to the address (e.g. `127.0.0.1:7070` or a `SocketAddr`).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let addr: SocketAddr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved empty"))?;
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: stream,
            scratch: String::new(),
            line: String::new(),
            body_buf: Vec::new(),
        })
    }

    /// Issues one request and reads the full response.  Returns the status
    /// code and the body as text.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let (status, _, text) = self.request_with(method, path, &[], body)?;
        Ok((status, text))
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        self.request("GET", path, "")
    }

    /// `POST path` with a body.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<(u16, String)> {
        self.request("POST", path, body)
    }

    /// Issues one request and returns the status code, the response
    /// headers (lowercased names, trimmed values) and the body — the
    /// variant observability tests use to read `X-Request-Id`.
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> io::Result<FullResponse> {
        self.request_with(method, path, &[], body)
    }

    /// Issues one request carrying extra headers (e.g. `X-Deadline-Ms`)
    /// and returns the full response.
    pub fn request_with(
        &mut self,
        method: &str,
        path: &str,
        extra_headers: &[(&str, &str)],
        body: &str,
    ) -> io::Result<FullResponse> {
        self.scratch.clear();
        let _ = write!(self.scratch, "{method} {path} HTTP/1.1\r\nHost: mrs\r\n");
        for (name, value) in extra_headers {
            let _ = write!(self.scratch, "{name}: {value}\r\n");
        }
        let _ = write!(self.scratch, "Content-Length: {}\r\n\r\n", body.len());
        self.scratch.push_str(body);
        self.writer.write_all(self.scratch.as_bytes())?;
        self.writer.flush()?;
        self.read_response_with_headers()
    }

    /// Writes every request back-to-back as one coalesced burst (a single
    /// `write` syscall), then reads the responses in order.  HTTP/1.1
    /// answers pipelined requests strictly in request order, so response
    /// `i` belongs to request `i`.
    pub fn pipeline(&mut self, requests: &[PipelineRequest<'_>]) -> io::Result<Vec<FullResponse>> {
        self.scratch.clear();
        for request in requests {
            let _ = write!(
                self.scratch,
                "{} {} HTTP/1.1\r\nHost: mrs\r\nContent-Length: {}\r\n\r\n",
                request.method,
                request.path,
                request.body.len()
            );
            self.scratch.push_str(request.body);
        }
        self.writer.write_all(self.scratch.as_bytes())?;
        self.writer.flush()?;
        requests.iter().map(|_| self.read_response_with_headers()).collect()
    }

    /// Reads the next `\r\n`-terminated line into the connection-owned
    /// scratch and returns it trimmed.
    fn read_line(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
        }
        Ok(self.line.trim_end_matches(['\r', '\n']))
    }

    fn read_response_with_headers(&mut self) -> io::Result<FullResponse> {
        let status_line = self.read_line()?;
        let status: u16 = match status_line.split_whitespace().nth(1).and_then(|s| s.parse().ok()) {
            Some(status) => status,
            None => {
                let bad = format!("bad status: {status_line}");
                return Err(io::Error::new(io::ErrorKind::InvalidData, bad));
            }
        };
        let mut length = 0usize;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                    })?;
                }
                headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        self.body_buf.resize(length, 0);
        self.reader.read_exact(&mut self.body_buf)?;
        let body = std::str::from_utf8(&self.body_buf)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?
            .to_string();
        Ok((status, headers, body))
    }
}

/// Retry policy for [`RetryingClient`]: jittered exponential backoff on
/// transport errors, server-directed waits (`Retry-After`) on `503` sheds,
/// and a hard cap on the total time a client will spend sleeping between
/// retries so a flooded server cannot hold its clients hostage.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Retries per request (on top of the first attempt).
    pub max_retries: u32,
    /// First backoff; attempt `n` waits `base_backoff * 2^(n-1)`, jittered.
    pub base_backoff: Duration,
    /// Upper bound on any single wait, including server-directed ones.
    pub max_backoff: Duration,
    /// Total sleep budget across the client's lifetime; a wait that would
    /// exceed it is not taken and the last outcome is returned as-is.
    pub retry_budget: Duration,
    /// Seed for the backoff jitter (deterministic for tests).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            retry_budget: Duration::from_secs(10),
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// What a [`RetryingClient`] did so far, surfaced so load generators and
/// operators can see retry pressure instead of silently absorbed sheds.
#[derive(Clone, Copy, Debug, Default)]
pub struct RetryCounters {
    /// Requests attempted (every try, including retries).
    pub attempts: u64,
    /// Attempts that were retried (after a shed or a transport error).
    pub retries: u64,
    /// Waits taken from a `503`'s `Retry-After` header.
    pub retry_after_honored: u64,
    /// Requests abandoned because the retry budget ran dry.
    pub budget_exhausted: u64,
}

/// A [`Client`] wrapper with admission-control-aware retries: `503` sheds
/// wait the server-directed `Retry-After`, transport errors reconnect under
/// jittered exponential backoff, and both are bounded per request
/// (`max_retries`) and across the client's lifetime (`retry_budget`).
pub struct RetryingClient {
    addr: SocketAddr,
    client: Option<Client>,
    policy: RetryPolicy,
    rng: u64,
    slept: Duration,
    counters: RetryCounters,
}

impl RetryingClient {
    /// A retrying client for the address; the connection is established
    /// lazily on the first request (and re-established after failures).
    pub fn new(addr: impl ToSocketAddrs, policy: RetryPolicy) -> io::Result<Self> {
        let addr: SocketAddr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved empty"))?;
        let rng = policy.seed | 1; // xorshift must not start at 0
        Ok(Self {
            addr,
            client: None,
            policy,
            rng,
            slept: Duration::ZERO,
            counters: RetryCounters::default(),
        })
    }

    /// The retry counters accumulated so far.
    pub fn counters(&self) -> RetryCounters {
        self.counters
    }

    /// `GET path`, with retries.
    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        self.request("GET", path, "")
    }

    /// `POST path` with a body, with retries.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<(u16, String)> {
        self.request("POST", path, body)
    }

    /// Issues one request, retrying sheds and transport errors under the
    /// policy.  Returns the last status/body (or error) when retries or the
    /// budget run out — a shed is then the caller's to observe, never
    /// silently swallowed.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            self.counters.attempts += 1;
            match self.try_once(method, path, body) {
                Ok((503, headers, text)) if attempt <= self.policy.max_retries => {
                    let retry_after = headers
                        .iter()
                        .find(|(name, _)| name == "retry-after")
                        .and_then(|(_, value)| value.parse::<u64>().ok());
                    let wait = match retry_after {
                        Some(secs) => {
                            self.counters.retry_after_honored += 1;
                            Duration::from_secs(secs).min(self.policy.max_backoff)
                        }
                        None => self.backoff(attempt),
                    };
                    if !self.sleep_within_budget(wait) {
                        self.counters.budget_exhausted += 1;
                        return Ok((503, text));
                    }
                    self.counters.retries += 1;
                }
                Ok((status, _, text)) => return Ok((status, text)),
                Err(e) if attempt <= self.policy.max_retries => {
                    // The connection is suspect (reset, EOF, stall): drop it
                    // and reconnect on the next attempt.
                    self.client = None;
                    let wait = self.backoff(attempt);
                    if !self.sleep_within_budget(wait) {
                        self.counters.budget_exhausted += 1;
                        return Err(e);
                    }
                    self.counters.retries += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn try_once(&mut self, method: &str, path: &str, body: &str) -> io::Result<FullResponse> {
        if self.client.is_none() {
            self.client = Some(Client::connect(self.addr)?);
        }
        let result =
            self.client.as_mut().expect("just connected").request_with_headers(method, path, body);
        if result.is_err() {
            self.client = None;
        }
        result
    }

    /// The jittered exponential backoff for the `attempt`-th try:
    /// `base * 2^(attempt-1)`, scaled by a factor in `[0.5, 1.5)`, capped.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = self.policy.base_backoff.saturating_mul(1u32 << (attempt - 1).min(16));
        let jitter = 0.5 + self.next_unit();
        exp.mul_f64(jitter).min(self.policy.max_backoff)
    }

    /// The next xorshift64 draw in `[0, 1)` (std-only, deterministic).
    fn next_unit(&mut self) -> f64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Sleeps `wait` if the lifetime budget allows it; `false` means the
    /// budget is exhausted and the caller must stop retrying.
    fn sleep_within_budget(&mut self, wait: Duration) -> bool {
        if self.slept + wait > self.policy.retry_budget {
            return false;
        }
        self.slept += wait;
        std::thread::sleep(wait);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serves the canned responses in order on one keep-alive connection,
    /// reading (and discarding) one request before each.
    fn canned_server(responses: Vec<String>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for canned in responses {
                let mut length = 0usize;
                loop {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        return;
                    }
                    let line = line.trim_end();
                    if line.is_empty() {
                        break;
                    }
                    if let Some((name, value)) = line.split_once(':') {
                        if name.eq_ignore_ascii_case("content-length") {
                            length = value.trim().parse().unwrap_or(0);
                        }
                    }
                }
                let mut body = vec![0u8; length];
                let _ = reader.read_exact(&mut body);
                writer.write_all(canned.as_bytes()).unwrap();
                writer.flush().unwrap();
            }
        });
        addr
    }

    fn response(status: u16, reason: &str, extra: &str, body: &str) -> String {
        format!("HTTP/1.1 {status} {reason}\r\nContent-Length: {}\r\n{extra}\r\n{body}", body.len())
    }

    #[test]
    fn sheds_are_retried_after_the_server_directed_wait() {
        let addr = canned_server(vec![
            response(503, "Service Unavailable", "Retry-After: 1\r\n", "{\"error\":\"shed\"}"),
            response(200, "OK", "", "{\"ok\":true}"),
        ]);
        let policy = RetryPolicy {
            // Keep the honored wait short so the test stays fast: the
            // server says 1 s, the cap trims it to 20 ms.
            max_backoff: Duration::from_millis(20),
            ..RetryPolicy::default()
        };
        let mut client = RetryingClient::new(addr, policy).unwrap();
        let (status, body) = client.get("/query").unwrap();
        assert_eq!(status, 200, "{body}");
        let counters = client.counters();
        assert_eq!(counters.attempts, 2);
        assert_eq!(counters.retries, 1);
        assert_eq!(counters.retry_after_honored, 1);
        assert_eq!(counters.budget_exhausted, 0);
    }

    #[test]
    fn the_retry_budget_caps_how_long_a_client_waits() {
        let addr = canned_server(vec![response(
            503,
            "Service Unavailable",
            "Retry-After: 60\r\n",
            "{\"error\":\"shed\"}",
        )]);
        let policy = RetryPolicy {
            max_backoff: Duration::from_secs(120),
            retry_budget: Duration::from_millis(50),
            ..RetryPolicy::default()
        };
        let mut client = RetryingClient::new(addr, policy).unwrap();
        let started = std::time::Instant::now();
        let (status, _) = client.get("/query").unwrap();
        assert_eq!(status, 503, "the shed is surfaced, not swallowed");
        assert!(started.elapsed() < Duration::from_secs(5), "no 60 s sleep was taken");
        let counters = client.counters();
        assert_eq!(counters.budget_exhausted, 1);
        assert_eq!(counters.retries, 0);
    }

    #[test]
    fn pipelined_bursts_read_responses_in_order() {
        let addr = canned_server(vec![
            response(200, "OK", "", "{\"n\":1}"),
            response(404, "Not Found", "", "{\"n\":2}"),
            response(200, "OK", "", "{\"n\":3}"),
        ]);
        let mut client = Client::connect(addr).unwrap();
        let burst = [
            PipelineRequest::get("/healthz"),
            PipelineRequest::get("/nope"),
            PipelineRequest::post("/query", "{\"q\":1}"),
        ];
        let responses = client.pipeline(&burst).unwrap();
        let seen: Vec<(u16, &str)> =
            responses.iter().map(|(status, _, body)| (*status, body.as_str())).collect();
        assert_eq!(seen, [(200, "{\"n\":1}"), (404, "{\"n\":2}"), (200, "{\"n\":3}")]);
    }

    #[test]
    fn transport_errors_reconnect_with_backoff() {
        // The canned server hangs up after its one response: the second
        // request hits EOF, reconnects, and fails cleanly once retries run
        // out (nothing is listening anymore).
        let addr = canned_server(vec![response(200, "OK", "", "{\"ok\":true}")]);
        let policy = RetryPolicy {
            max_retries: 1,
            base_backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        let mut client = RetryingClient::new(addr, policy).unwrap();
        assert_eq!(client.get("/healthz").unwrap().0, 200);
        let result = client.request("GET", "/healthz", "");
        assert!(result.is_err(), "a dead server fails after bounded retries");
        assert!(client.counters().retries >= 1);
    }
}
