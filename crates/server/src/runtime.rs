//! The serving runtime: bind, drive connection I/O, and shut down
//! gracefully.
//!
//! Connection I/O runs on the epoll reactor in `crate::reactor`: one
//! event-loop thread drives every connection with edge-triggered
//! nonblocking sockets, incremental in-place parsing
//! ([`Parser`](crate::http::Parser)), HTTP/1.1 pipelining, and coalesced
//! writes, and hands parsed requests to a fixed worker pool that calls
//! [`Service::handle`](crate::service::Service::handle) for admission,
//! deadlines, panic isolation, stats, and compute.  The reactor needs
//! epoll, so the server runs on Linux only: elsewhere [`serve_with`]
//! returns [`io::ErrorKind::Unsupported`].  The solvers, the batch
//! executor, and the rest of the workspace stay portable.
//!
//! Shutdown: [`ServerHandle::shutdown`] (or `POST /shutdown`) flips the
//! service's flag and pokes the listener with a throwaway connection so
//! `epoll_wait` returns at once.  In-flight requests complete and flush;
//! idle connections are closed.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::service::{ServerConfig, Service};

/// A running server: its bound address, its shared service state, and the
/// threads behind it.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    reactor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service state (catalog, cache, stats).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Requests shutdown and waits for every thread to finish.  In-flight
    /// requests complete; idle kept-alive connections are abandoned.
    pub fn shutdown(self) {
        self.service.request_shutdown();
        self.join();
    }

    /// Blocks until every server thread exits (e.g. after a remote
    /// `POST /shutdown`).  This is what `maxrs serve` parks on.
    pub fn join(self) {
        let _ = self.reactor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// Binds the configured address and starts the reactor plus worker pool.
/// Returns once the socket is bound and the service is ready; the returned
/// handle owns the threads.
pub fn serve(config: ServerConfig) -> io::Result<ServerHandle> {
    serve_with(Arc::new(Service::new(config)))
}

/// Like [`serve`], over an externally constructed (possibly pre-loaded)
/// service.
#[cfg(target_os = "linux")]
pub fn serve_with(service: Arc<Service>) -> io::Result<ServerHandle> {
    let listener = std::net::TcpListener::bind(&service.config().addr)?;
    let addr = listener.local_addr()?;
    service.set_local_addr(addr);
    let (reactor, workers) = crate::reactor::spawn(listener, Arc::clone(&service))?;
    Ok(ServerHandle { addr, service, reactor, workers })
}

/// Like [`serve`], over an externally constructed (possibly pre-loaded)
/// service.  Off Linux there is no epoll reactor, so this always fails.
#[cfg(not(target_os = "linux"))]
pub fn serve_with(_service: Arc<Service>) -> io::Result<ServerHandle> {
    Err(io::Error::new(io::ErrorKind::Unsupported, "the server needs Linux epoll"))
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::json::Json;
    use crate::metrics::{Counter, Endpoint};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    fn start() -> ServerHandle {
        serve(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            seed: Some(7),
            ..ServerConfig::default()
        })
        .expect("bind an ephemeral port")
    }

    fn read_to_string_until(stream: &mut TcpStream, done: impl Fn(&str) -> bool) -> String {
        let mut text = String::new();
        let mut buf = [0u8; 4096];
        loop {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    text.push_str(&String::from_utf8_lossy(&buf[..n]));
                    if done(&text) {
                        break;
                    }
                }
            }
        }
        text
    }

    #[test]
    fn round_trips_requests_over_tcp() {
        let server = start();
        let mut client = Client::connect(server.addr()).unwrap();
        let (status, body) = client.get("/healthz").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\""), "{body}");
        // Keep-alive: the same connection serves a second request.
        let (status, body) = client.get("/solvers").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("exact-disk-2d"), "{body}");
        let (status, _) = client.get("/no-such-route").unwrap();
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn idle_connections_do_not_starve_new_clients() {
        // Open as many idle connections as there are workers; a fresh
        // client must still be served promptly (the reactor never pins a
        // thread on an idle connection).
        let server = start(); // 2 workers
        let _idle_a = TcpStream::connect(server.addr()).unwrap();
        let _idle_b = TcpStream::connect(server.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(300)); // the reactor registers them
        let started = Instant::now();
        let mut client = Client::connect(server.addr()).unwrap();
        let (status, _) = client.get("/healthz").unwrap();
        assert_eq!(status, 200);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "a new client waited {:?} behind idle connections",
            started.elapsed()
        );
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_evicted_at_the_keep_alive_window() {
        let server = serve(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            seed: Some(7),
            keep_alive: Duration::from_millis(400),
            ..ServerConfig::default()
        })
        .expect("bind an ephemeral port");
        // A connection that stays within the window keeps serving...
        let mut client = Client::connect(server.addr()).unwrap();
        assert_eq!(client.get("/healthz").unwrap().0, 200);
        std::thread::sleep(Duration::from_millis(250));
        assert_eq!(client.get("/healthz").unwrap().0, 200, "idle resets on every request");
        // ...while one idle past it is dropped by the server.
        let mut idle = TcpStream::connect(server.addr()).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        std::thread::sleep(Duration::from_millis(1500));
        let mut buf = [0u8; 16];
        let dead = match idle.read(&mut buf) {
            Ok(0) => true,  // clean EOF
            Ok(_) => false, // the server sent data?!
            // A reset is fine; a read timeout means it was never dropped.
            Err(e) => !matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut),
        };
        assert!(dead, "an idle connection past the keep-alive window must be dropped");
        server.shutdown();
    }

    #[test]
    fn oversized_bodies_are_rejected_before_the_body_is_read() {
        let server = start();
        // Announce a body far past MAX_BODY with `Expect: 100-continue`
        // and send none of it: the server must answer 413 *without*
        // inviting the upload with an interim `100 Continue`.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream
            .write_all(
                b"POST /datasets/x HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 999999999999\r\n\r\n",
            )
            .unwrap();
        let response = read_to_string_until(&mut stream, |text| text.contains("\r\n\r\n"));
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        assert!(!response.contains("100 Continue"), "no interim response invites the body");
        server.shutdown();
    }

    #[test]
    fn expect_continue_is_answered_with_an_interim_response() {
        let server = start();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream
            .write_all(
                b"POST /datasets/t HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 8\r\n\r\n",
            )
            .unwrap();
        let interim =
            read_to_string_until(&mut stream, |text| text.contains("100 Continue\r\n\r\n"));
        assert!(interim.starts_with("HTTP/1.1 100 Continue"), "{interim}");
        stream.write_all(b"0,0\n1,1\n").unwrap();
        let rest = read_to_string_until(&mut stream, |text| text.contains("HTTP/1.1 2"));
        assert!(rest.contains("HTTP/1.1 200"), "{rest}");
        // Behind a pipelined request, the interim waits for that request's
        // response so responses stay in order.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream
            .write_all(
                b"GET /healthz HTTP/1.1\r\n\r\n\
                  POST /datasets/u HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 8\r\n\r\n",
            )
            .unwrap();
        let text = read_to_string_until(&mut stream, |text| text.contains("100 Continue\r\n\r\n"));
        assert!(text.starts_with("HTTP/1.1 200"), "the earlier response comes first: {text}");
        stream.write_all(b"0,0\n1,1\n").unwrap();
        let rest = read_to_string_until(&mut stream, |text| text.contains("HTTP/1.1 2"));
        assert!(rest.contains("HTTP/1.1 200"), "{rest}");
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let server = start();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream
            .write_all(
                b"GET /healthz HTTP/1.1\r\n\r\n\
                  GET /solvers HTTP/1.1\r\n\r\n\
                  GET /no-such-route HTTP/1.1\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
        // `Connection: close` on the last request ends the stream.
        let text = read_to_string_until(&mut stream, |_| false);
        // Bodies are not newline-terminated, so the next status line begins
        // mid-line: scan by substring, not by line.
        let statuses: Vec<&str> = text
            .match_indices("HTTP/1.1 ")
            .filter_map(|(pos, needle)| text[pos + needle.len()..].split_whitespace().next())
            .collect();
        assert_eq!(statuses, ["200", "200", "404"], "{text}");
        let rids: Vec<&str> =
            text.lines().filter_map(|line| line.strip_prefix("X-Request-Id: ")).collect();
        assert_eq!(rids.len(), 3, "{text}");
        assert!(
            rids.windows(2).all(|pair| pair[0] < pair[1]),
            "pipelined responses out of order: {rids:?}"
        );
        server.shutdown();
    }

    #[test]
    fn a_client_that_never_reads_stops_being_served() {
        // Pipeline `GET /solvers` without ever reading a response.  Once
        // the server's unflushed output passes its cap it must stop reading
        // and dispatching this connection, so the client's writes end up
        // blocked for good and the request count stops growing.
        let server = start();
        let solvers = || server.service().metrics().endpoint_latency(Endpoint::Solvers).count();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nonblocking(true).unwrap();
        let burst = b"GET /solvers HTTP/1.1\r\n\r\n".repeat(64);
        let deadline = Instant::now() + Duration::from_secs(15);
        let mut blocked_since: Option<Instant> = None;
        // A second of blocked writes: the server stopped reading, so any
        // job it had in flight has long since finished.
        while blocked_since.is_none_or(|since| since.elapsed() < Duration::from_secs(1)) {
            assert!(
                Instant::now() < deadline,
                "the client's writes never stayed blocked: the server kept reading \
                 ({} responses handled)",
                solvers()
            );
            match stream.write(&burst) {
                Ok(_) => blocked_since = None,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    blocked_since.get_or_insert_with(Instant::now);
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("the server dropped the connection early: {e}"),
            }
        }
        let before = solvers();
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(solvers(), before, "the server kept dispatching for a client that never reads");
        server.shutdown();
    }

    #[test]
    fn at_capacity_arrivals_are_shed_with_retry_after() {
        let server = serve(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            seed: Some(7),
            queue_capacity: 1,
            ..ServerConfig::default()
        })
        .expect("bind an ephemeral port");
        let mut first = Client::connect(server.addr()).unwrap();
        assert_eq!(first.get("/healthz").unwrap().0, 200);
        // The only slot is held by a live keep-alive: the next arrival is
        // shed at the door.
        let mut second = TcpStream::connect(server.addr()).unwrap();
        second.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let text = read_to_string_until(&mut second, |_| false);
        assert!(text.starts_with("HTTP/1.1 503"), "{text}");
        assert!(text.contains("Retry-After:"), "{text}");
        assert!(server.service().metrics().get(Counter::Shed) >= 1);
        assert_eq!(first.get("/healthz").unwrap().0, 200, "the live connection is unharmed");
        server.shutdown();
    }

    #[test]
    fn reactor_counters_reach_both_views() {
        let server = start();
        let idle_a = TcpStream::connect(server.addr()).unwrap();
        let idle_b = TcpStream::connect(server.addr()).unwrap();
        let mut piped = TcpStream::connect(server.addr()).unwrap();
        piped.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        piped.write_all(&b"GET /healthz HTTP/1.1\r\n\r\n".repeat(8)).unwrap();
        let text = read_to_string_until(&mut piped, |text| text.matches("\"ok\"").count() == 8);
        assert_eq!(text.matches("HTTP/1.1 200").count(), 8, "{text}");
        drop((idle_a, idle_b, piped));

        // The three closes land asynchronously: poll until the reactor saw
        // them (the poller's own connection stays open).
        let mut client = Client::connect(server.addr()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let reactor = loop {
            let (status, body) = client.get("/stats").unwrap();
            assert_eq!(status, 200);
            let reactor = Json::parse(&body).unwrap().get("reactor").unwrap().clone();
            if reactor.get("closed").and_then(Json::as_f64) == Some(3.0) {
                break reactor;
            }
            assert!(Instant::now() < deadline, "the reactor never counted the closes: {body}");
            std::thread::sleep(Duration::from_millis(20));
        };
        let stat = |key: &str| reactor.get(key).and_then(Json::as_f64).unwrap();
        assert_eq!(stat("accepted"), 4.0, "three test connections plus the poller");
        assert!(stat("max_pipeline_depth") >= 2.0);
        assert!(stat("wakeups") > 0.0);
        assert!(stat("readiness_events") >= stat("wakeups"));
        assert!(stat("coalesced_write_bytes") > 0.0, "eight pipelined responses coalesce");

        // A scrape on the same connection moves wakeups and readiness
        // events, but none of these.
        let (_, metrics) = client.get("/metrics").unwrap();
        for (family, key) in [
            ("maxrs_reactor_connections_accepted_total", "accepted"),
            ("maxrs_reactor_connections_closed_total", "closed"),
            ("maxrs_reactor_max_pipeline_depth", "max_pipeline_depth"),
            ("maxrs_reactor_coalesced_write_bytes_total", "coalesced_write_bytes"),
        ] {
            let sample = metrics
                .lines()
                .find_map(|line| line.strip_prefix(family)?.strip_prefix(' '))
                .unwrap_or_else(|| panic!("{family} missing from /metrics"));
            assert_eq!(sample.parse::<f64>().unwrap(), stat(key), "{family} vs reactor.{key}");
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_endpoint_stops_the_server() {
        let server = start();
        let addr = server.addr();
        let mut client = Client::connect(addr).unwrap();
        let (status, _) = client.post("/shutdown", "").unwrap();
        assert_eq!(status, 200);
        // join() returns because the reactor observed the flag.
        server.join();
        assert!(
            Client::connect(addr).is_err() || {
                // The OS may accept into the backlog of the closed
                // listener briefly; a request must at least fail.
                let mut c = Client::connect(addr).unwrap();
                c.get("/healthz").is_err()
            },
            "a shut-down server must not answer"
        );
    }
}
