//! A hand-rolled HTTP/1.1 subset: enough to parse the requests the service
//! routes and to write well-formed responses, with hard limits on header and
//! body sizes so a misbehaving client cannot balloon memory.
//!
//! Supported: request line + headers + `Content-Length` bodies, keep-alive
//! (the HTTP/1.1 default) and `Connection: close`.  Not supported (and
//! rejected cleanly): chunked transfer encoding, upgrades, HTTP/2.
//!
//! [`Parser`] is an incremental, zero-copy state machine: the epoll
//! reactor feeds it a connection's growing read buffer, it resumes across
//! arbitrary split points (mid-header, mid-body, between pipelined
//! requests), borrows every slice in place (header names are lowercased
//! and the method uppercased *inside* the buffer) and only materializes an
//! owned [`Request`] once a frame is complete.  Protocol violations come
//! back as typed [`ParseError`]s.  Property tests hold the parser to an
//! independent one-shot reference reader at every split point of
//! pipelined, truncated, mutated, and random streams.

use std::io::{self, Write};
use std::ops::Range;

/// Longest accepted request line or header line, in bytes.
const MAX_LINE: usize = 16 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 100;
/// Largest accepted request body (dataset uploads are CSV text; 64 MB is
/// roughly twenty million points).
pub const MAX_BODY: usize = 64 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The request method (`GET`, `POST`, ...), uppercased by the client.
    pub method: String,
    /// The request target path, e.g. `/datasets/taxi`.
    pub target: String,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The value of the named header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }

    /// `true` if the client asked to close the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The body as UTF-8 text, if it is valid UTF-8.
    pub fn body_text(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// Why a request could not be parsed.  Carries the HTTP status the server
/// should answer with before closing the connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// The status code to respond with (400, 413 or 431).
    pub status: u16,
    /// A short human-readable reason.
    pub message: &'static str,
}

/// One parsing step of the incremental [`Parser`].
#[derive(Debug)]
pub enum ParseStep {
    /// The buffer does not yet hold a complete request; read more bytes and
    /// call [`Parser::advance`] again.
    NeedMore,
    /// A complete request occupies the first [`RequestFrame::end`] bytes of
    /// the buffer.  Drain them; the parser has already reset itself for the
    /// next pipelined request.
    Complete(RequestFrame),
    /// The bytes are not an acceptable request: answer with the error's
    /// status and close the connection.
    Bad(ParseError),
}

/// What a connection should do when the peer closes with an incomplete
/// parse in flight.
#[derive(Debug, PartialEq, Eq)]
pub enum EofOutcome {
    /// EOF between requests: a clean close, nothing to answer.
    Clean,
    /// EOF mid-head: answer the typed `400` before closing.
    Error(ParseError),
    /// EOF mid-body: drop the connection without a response.
    Drop,
}

/// A complete request located inside a connection's read buffer: every
/// field is a byte range into that buffer, nothing is copied until
/// [`RequestFrame::to_request`] materializes the owned [`Request`] handed
/// to the worker pool.  Header names have been lowercased and the method
/// uppercased *in place* by the parser.
#[derive(Debug)]
pub struct RequestFrame {
    /// Total bytes the request occupies at the front of the buffer
    /// (head + body): the caller drains exactly this many.
    pub end: usize,
    /// Whether the head carried `Expect: 100-continue` (and passed the
    /// body-size check, so an interim `100 Continue` is owed).
    pub expect_continue: bool,
    method: Range<usize>,
    target: Range<usize>,
    headers: Vec<(Range<usize>, Range<usize>)>,
    body: Range<usize>,
}

impl RequestFrame {
    /// The method as a borrowed slice of `buf` (already uppercased).
    pub fn method<'a>(&self, buf: &'a [u8]) -> &'a str {
        str_range(buf, &self.method)
    }

    /// The target as a borrowed slice of `buf`.
    pub fn target<'a>(&self, buf: &'a [u8]) -> &'a str {
        str_range(buf, &self.target)
    }

    /// The body as a borrowed slice of `buf`.
    pub fn body<'a>(&self, buf: &'a [u8]) -> &'a [u8] {
        &buf[self.body.clone()]
    }

    /// Materializes the owned [`Request`] (the one allocation point of the
    /// zero-copy path: the dispatch to a worker thread must outlive the
    /// connection buffer the frame borrows).
    pub fn to_request(&self, buf: &[u8]) -> Request {
        Request {
            method: self.method(buf).to_string(),
            target: self.target(buf).to_string(),
            headers: self
                .headers
                .iter()
                .map(|(name, value)| {
                    (str_range(buf, name).to_string(), str_range(buf, value).to_string())
                })
                .collect(),
            body: self.body(buf).to_vec(),
        }
    }
}

/// The range as `&str`.  Only called on ranges the parser validated as
/// UTF-8 line content, so the unwrap cannot fire.
fn str_range<'a>(buf: &'a [u8], range: &Range<usize>) -> &'a str {
    std::str::from_utf8(&buf[range.clone()]).expect("parser validated this range as UTF-8")
}

/// Head-scanning state: how far the terminator search got and what the
/// completed lines parsed into.  All offsets are absolute positions in the
/// connection buffer, which only ever grows between frames (the caller
/// drains it exactly at frame boundaries).
#[derive(Debug, Default)]
struct HeadScan {
    /// Resume position of the byte scan.
    pos: usize,
    /// First byte of the current (incomplete) line.
    line_start: usize,
    /// Completed lines so far (the request line is line 0).
    lines: usize,
    method: Range<usize>,
    target: Range<usize>,
    headers: Vec<(Range<usize>, Range<usize>)>,
}

#[derive(Debug)]
enum ParserState {
    /// Scanning the head (request line + headers) for the blank line.
    Head(HeadScan),
    /// Head parsed; waiting for `length` body bytes after `body_start`.
    Body { frame: RequestFrame, body_start: usize, length: usize },
}

/// The incremental, resumable request parser behind the epoll reactor: feed
/// it a connection's growing read buffer and it picks up exactly where the
/// previous call stopped — mid-header, mid-body, or between pipelined
/// requests.  It enforces `MAX_LINE`, `MAX_HEADERS` and [`MAX_BODY`] with
/// typed [`ParseError`]s at fixed byte positions, whatever the split: an
/// over-long line is rejected as soon as its `MAX_LINE+1`-th byte arrives,
/// without waiting for a terminator, and an oversized `Content-Length` is
/// rejected at the head — before any body byte — so
/// `Expect: 100-continue` probes are refused with `413` and no interim
/// response.
#[derive(Debug)]
pub struct Parser {
    state: ParserState,
    /// Latched when a head completes carrying `Expect: 100-continue`; the
    /// caller collects it via [`Parser::take_continue`] and owes the peer
    /// an interim `100 Continue` before the real response.
    continue_latch: bool,
}

impl Default for Parser {
    fn default() -> Self {
        Self::new()
    }
}

impl Parser {
    /// A parser at the start of a request.
    pub fn new() -> Self {
        Self { state: ParserState::Head(HeadScan::default()), continue_latch: false }
    }

    /// `true` exactly once after a head carrying `Expect: 100-continue`
    /// completed: the connection owes the peer `HTTP/1.1 100 Continue`.
    pub fn take_continue(&mut self) -> bool {
        std::mem::take(&mut self.continue_latch)
    }

    /// Drives parsing as far as the buffer allows.  `buf` is the
    /// connection's unconsumed read buffer; it is mutated in place (header
    /// names lowercased, the method uppercased) but never truncated or
    /// reordered.  After [`ParseStep::Complete`] the caller drains
    /// `frame.end` bytes and the parser is already reset; after
    /// [`ParseStep::Bad`] the connection must answer and close.
    pub fn advance(&mut self, buf: &mut [u8]) -> ParseStep {
        loop {
            match &mut self.state {
                ParserState::Head(scan) => match scan_head(scan, buf) {
                    Err(error) => return ParseStep::Bad(error),
                    Ok(false) => return ParseStep::NeedMore,
                    Ok(true) => {
                        let scan = std::mem::take(scan);
                        match finish_head(scan, buf) {
                            Err(error) => return ParseStep::Bad(error),
                            Ok((frame, body_start, length, expect)) => {
                                self.continue_latch = expect;
                                self.state = ParserState::Body { frame, body_start, length };
                            }
                        }
                    }
                },
                ParserState::Body { body_start, length, .. } => {
                    if buf.len() < *body_start + *length {
                        return ParseStep::NeedMore;
                    }
                    let frame = match std::mem::replace(
                        &mut self.state,
                        ParserState::Head(HeadScan::default()),
                    ) {
                        ParserState::Body { frame, .. } => frame,
                        ParserState::Head(_) => unreachable!("state checked above"),
                    };
                    return ParseStep::Complete(frame);
                }
            }
        }
    }

    /// Classifies a peer close given `buffered` unconsumed bytes: clean
    /// between requests, a typed `400` mid-head, or a silent drop mid-body.
    pub fn eof_outcome(&self, buffered: usize) -> EofOutcome {
        match &self.state {
            ParserState::Head(scan) => {
                if buffered == 0 && scan.lines == 0 {
                    EofOutcome::Clean
                } else if scan.line_start < buffered {
                    // EOF mid-line, whichever line of the head it is.
                    EofOutcome::Error(ParseError { status: 400, message: "truncated request line" })
                } else {
                    EofOutcome::Error(ParseError { status: 400, message: "truncated headers" })
                }
            }
            ParserState::Body { .. } => EofOutcome::Drop,
        }
    }

    /// `true` while a request is partially transferred (any head byte seen
    /// or a body pending): the reactor's slow-loris sweep uses this to
    /// distinguish a stalled transfer from an idle keep-alive.
    pub fn mid_request(&self, buffered: usize) -> bool {
        match &self.state {
            ParserState::Head(scan) => buffered > 0 || scan.lines > 0,
            ParserState::Body { .. } => true,
        }
    }
}

/// Scans for the head terminator (the first empty line), parsing each line
/// as it completes so errors fire at the line that caused them.
/// `Ok(true)` means the head is complete (`scan.pos` is the first body
/// byte).
fn scan_head(scan: &mut HeadScan, buf: &mut [u8]) -> Result<bool, ParseError> {
    while scan.pos < buf.len() {
        let byte = buf[scan.pos];
        if byte != b'\n' {
            // The MAX_LINE+1-th byte of a line is rejected without waiting
            // for the terminator; `\r` counts (it is only stripped when the
            // `\n` lands).
            if scan.pos - scan.line_start >= MAX_LINE {
                return Err(ParseError { status: 431, message: "header line too long" });
            }
            scan.pos += 1;
            continue;
        }
        let start = scan.line_start;
        let mut content_end = scan.pos;
        if content_end > start && buf[content_end - 1] == b'\r' {
            content_end -= 1;
        }
        let line_index = scan.lines;
        scan.pos += 1;
        scan.line_start = scan.pos;
        scan.lines += 1;
        let head_done = process_line(scan, buf, start, content_end, line_index)?;
        if head_done {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Handles one completed head line: request line, header, or the blank
/// terminator.  Returns `Ok(true)` when the head is complete.
fn process_line(
    scan: &mut HeadScan,
    buf: &mut [u8],
    start: usize,
    content_end: usize,
    line_index: usize,
) -> Result<bool, ParseError> {
    let line = std::str::from_utf8(&buf[start..content_end])
        .map_err(|_| ParseError { status: 400, message: "request line is not valid UTF-8" })?;
    if line_index == 0 {
        // The request line: METHOD TARGET VERSION (split on whitespace,
        // extra tokens ignored — exactly `split_whitespace` semantics).
        let mut tokens = token_ranges(line, start).into_iter();
        let (Some(method), Some(target), Some(version)) =
            (tokens.next(), tokens.next(), tokens.next())
        else {
            return Err(ParseError { status: 400, message: "malformed request line" });
        };
        if !str_range(buf, &version).starts_with("HTTP/1.") {
            return Err(ParseError { status: 400, message: "unsupported HTTP version" });
        }
        buf[method.clone()].make_ascii_uppercase();
        scan.method = method;
        scan.target = target;
        return Ok(false);
    }
    if line.is_empty() {
        return Ok(true);
    }
    if scan.headers.len() >= MAX_HEADERS {
        return Err(ParseError { status: 431, message: "too many headers" });
    }
    let Some(colon) = line.find(':') else {
        return Err(ParseError { status: 400, message: "malformed header" });
    };
    let name = trimmed_range(&line[..colon], start);
    let value = trimmed_range(&line[colon + 1..], start + colon + 1);
    buf[name.clone()].make_ascii_lowercase();
    scan.headers.push((name, value));
    Ok(false)
}

/// Whitespace-separated token ranges of `line`, absolute (offset by
/// `base`).  Unicode whitespace, like `split_whitespace`.
fn token_ranges(line: &str, base: usize) -> Vec<Range<usize>> {
    let mut tokens = Vec::new();
    let mut token_start: Option<usize> = None;
    for (i, c) in line.char_indices() {
        if c.is_whitespace() {
            if let Some(s) = token_start.take() {
                tokens.push(base + s..base + i);
            }
        } else if token_start.is_none() {
            token_start = Some(i);
        }
    }
    if let Some(s) = token_start {
        tokens.push(base + s..base + line.len());
    }
    tokens
}

/// The absolute range of `piece` with surrounding whitespace trimmed
/// (Unicode trim, like `str::trim`).
fn trimmed_range(piece: &str, base: usize) -> Range<usize> {
    let trimmed = piece.trim_start();
    let lead = piece.len() - trimmed.len();
    let trimmed = trimmed.trim_end();
    base + lead..base + lead + trimmed.len()
}

/// Runs the post-head checks in order — transfer encoding,
/// `Content-Length`, then `Expect` — and builds the frame skeleton.  Returns `(frame, body_start, length, expect_continue)`.
fn finish_head(
    scan: HeadScan,
    buf: &[u8],
) -> Result<(RequestFrame, usize, usize, bool), ParseError> {
    let header = |name: &str| {
        scan.headers
            .iter()
            .find(|(n, _)| &buf[n.clone()] == name.as_bytes())
            .map(|(_, v)| str_range(buf, v))
    };
    let chunked = scan.headers.iter().any(|(n, v)| {
        &buf[n.clone()] == b"transfer-encoding"
            && !str_range(buf, v).eq_ignore_ascii_case("identity")
    });
    if chunked {
        return Err(ParseError {
            status: 400,
            message: "chunked transfer encoding is not supported",
        });
    }
    let length = match header("content-length") {
        None => 0,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n <= MAX_BODY => n,
            Ok(_) => return Err(ParseError { status: 413, message: "request body too large" }),
            Err(_) => return Err(ParseError { status: 400, message: "malformed Content-Length" }),
        },
    };
    let expect = scan.headers.iter().any(|(n, v)| {
        &buf[n.clone()] == b"expect" && str_range(buf, v).eq_ignore_ascii_case("100-continue")
    });
    let body_start = scan.pos;
    let frame = RequestFrame {
        end: body_start + length,
        expect_continue: expect,
        method: scan.method,
        target: scan.target,
        headers: scan.headers,
        body: body_start..body_start + length,
    };
    Ok((frame, body_start, length, expect))
}

/// An HTTP response ready to be written.
#[derive(Clone, Debug)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers (name, value), written verbatim after
    /// `Content-Type` — the request-id stamp rides here.
    pub headers: Vec<(&'static str, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// Adds one response header (builder style).  The value must not
    /// contain CR or LF; this is asserted, since a header value is written
    /// to the wire verbatim.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        let value = value.into();
        assert!(!value.contains(['\r', '\n']), "header values must be single-line");
        self.headers.push((name, value));
        self
    }

    /// `true` for 2xx statuses.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// The standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
    }
}

/// Writes the response, flagging whether the connection will stay open.
pub fn write_response(
    writer: &mut impl Write,
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    for (name, value) in &response.headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    writer.write_all(b"\r\n")?;
    writer.write_all(&response.body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `raw` to a fresh [`Parser`] in two chunks split at `split`,
    /// collecting every completed request and the terminal error, if any.
    fn drive_split(raw: &[u8], split: usize) -> (Vec<Request>, Option<ParseError>) {
        let mut parser = Parser::new();
        let mut buf: Vec<u8> = Vec::new();
        let mut requests = Vec::new();
        for chunk in [&raw[..split], &raw[split..]] {
            buf.extend_from_slice(chunk);
            loop {
                match parser.advance(&mut buf) {
                    ParseStep::NeedMore => break,
                    ParseStep::Bad(e) => return (requests, Some(e)),
                    ParseStep::Complete(frame) => {
                        requests.push(frame.to_request(&buf));
                        buf.drain(..frame.end);
                    }
                }
            }
        }
        (requests, None)
    }

    /// The one request `raw` holds, parsed in one chunk.
    fn parse(raw: &str) -> Request {
        let (mut requests, error) = drive_split(raw.as_bytes(), raw.len());
        assert!(error.is_none() && requests.len() == 1, "{raw:?}: {error:?}");
        requests.remove(0)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world");
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/query");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body_text(), Some("hello world"));
        assert!(!req.wants_close());
    }

    #[test]
    fn detects_connection_close_and_eof() {
        let req = parse("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(req.wants_close());
        assert_eq!(Parser::new().eof_outcome(0), EofOutcome::Clean);
    }

    #[test]
    fn parses_pipelined_requests_identically_at_every_split() {
        let raw = b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world\
                    GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        let header = |name: &str, value: &str| (name.to_string(), value.to_string());
        for split in 0..=raw.len() {
            let (requests, error) = drive_split(raw, split);
            assert!(error.is_none(), "split {split}: {error:?}");
            assert_eq!(requests.len(), 2, "split {split}");
            let (post, get) = (&requests[0], &requests[1]);
            assert_eq!((post.method.as_str(), post.target.as_str()), ("POST", "/query"));
            assert_eq!(post.headers, [header("host", "x"), header("content-length", "11")]);
            assert_eq!(post.body, b"hello world", "split {split}");
            assert_eq!((get.method.as_str(), get.target.as_str()), ("GET", "/healthz"));
            assert_eq!(get.headers, [header("connection", "close")], "split {split}");
            assert!(get.body.is_empty(), "split {split}");
        }
    }

    #[test]
    fn rejects_malformed_requests_with_the_same_typed_error_at_every_split() {
        let cases: [(&[u8], u16); 7] = [
            (b"FROB\r\n\r\n", 400),
            (b"GET / SPDY/3\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nbad header\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nContent-Length: pony\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n", 413),
            (b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nHost: \xff\xfe\r\n\r\n", 400),
        ];
        for (raw, status) in cases {
            let (_, whole) = drive_split(raw, raw.len());
            let whole = whole.unwrap_or_else(|| panic!("{raw:?} must fail"));
            assert_eq!(whole.status, status, "{raw:?}");
            for split in 0..raw.len() {
                let (_, error) = drive_split(raw, split);
                assert_eq!(error.as_ref(), Some(&whole), "{raw:?} split {split}");
            }
        }
    }

    #[test]
    fn expect_100_continue_is_acknowledged() {
        let mut parser = Parser::new();
        let mut buf =
            b"POST /datasets/x HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\nhello"
                .to_vec();
        let ParseStep::Complete(frame) = parser.advance(&mut buf) else {
            panic!("expected a request")
        };
        assert!(parser.take_continue(), "an interim 100 Continue is owed");
        assert!(frame.expect_continue);
        assert_eq!(frame.to_request(&buf).body_text(), Some("hello"));
    }

    #[test]
    fn oversized_lines_are_rejected_before_the_terminator_arrives() {
        // MAX_LINE+1 bytes of a single line, no newline in sight: the
        // parser must refuse immediately instead of buffering unboundedly.
        let mut parser = Parser::new();
        let mut buf = vec![b'A'; MAX_LINE + 1];
        match parser.advance(&mut buf) {
            ParseStep::Bad(e) => assert_eq!(e.status, 431),
            other => panic!("expected Bad(431), got {other:?}"),
        }
    }

    #[test]
    fn expect_continue_latches_at_head_completion_before_the_body() {
        let mut parser = Parser::new();
        let mut buf =
            b"POST /x HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\n".to_vec();
        assert!(matches!(parser.advance(&mut buf), ParseStep::NeedMore));
        assert!(parser.take_continue(), "interim owed once the head completes");
        assert!(!parser.take_continue(), "the latch reads once");
        buf.extend_from_slice(b"hello");
        match parser.advance(&mut buf) {
            ParseStep::Complete(frame) => {
                assert!(frame.expect_continue);
                assert_eq!(frame.to_request(&buf).body_text(), Some("hello"));
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn oversized_declared_bodies_refuse_without_an_interim_continue() {
        let mut parser = Parser::new();
        let mut buf =
            b"POST /x HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 999999999999\r\n\r\n"
                .to_vec();
        match parser.advance(&mut buf) {
            ParseStep::Bad(e) => assert_eq!(e.status, 413),
            other => panic!("expected Bad(413), got {other:?}"),
        }
        assert!(!parser.take_continue(), "no interim invites a refused body");
    }

    #[test]
    fn eof_outcomes_classify_where_the_peer_closed() {
        // Clean close between requests.
        let parser = Parser::new();
        assert_eq!(parser.eof_outcome(0), EofOutcome::Clean);
        assert!(!parser.mid_request(0));
        // Mid-line: truncated request line.
        let mut parser = Parser::new();
        let mut buf = b"GET /he".to_vec();
        assert!(matches!(parser.advance(&mut buf), ParseStep::NeedMore));
        assert!(parser.mid_request(buf.len()));
        match parser.eof_outcome(buf.len()) {
            EofOutcome::Error(e) => assert_eq!(e.message, "truncated request line"),
            other => panic!("expected Error, got {other:?}"),
        }
        // At a line boundary mid-head: truncated headers.
        let mut parser = Parser::new();
        let mut buf = b"GET / HTTP/1.1\r\n".to_vec();
        assert!(matches!(parser.advance(&mut buf), ParseStep::NeedMore));
        match parser.eof_outcome(buf.len()) {
            EofOutcome::Error(e) => assert_eq!(e.message, "truncated headers"),
            other => panic!("expected Error, got {other:?}"),
        }
        // Mid-body: a silent drop.
        let mut parser = Parser::new();
        let mut buf = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhe".to_vec();
        assert!(matches!(parser.advance(&mut buf), ParseStep::NeedMore));
        assert_eq!(parser.eof_outcome(buf.len()), EofOutcome::Drop);
        assert!(parser.mid_request(buf.len()));
    }

    #[test]
    fn writes_parseable_responses() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{\"ok\":true}"), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("{\"ok\":true}"), "{text}");
        assert!(Response::json(200, "").is_success());
        assert!(!Response::text(404, "nope").is_success());
    }

    #[test]
    fn writes_extra_headers_before_the_body() {
        let mut out = Vec::new();
        let response = Response::json(200, "{}").with_header("X-Request-Id", "r-000042");
        write_response(&mut out, &response, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("X-Request-Id: r-000042\r\n"), "{text}");
        let (head, body) = text.split_once("\r\n\r\n").expect("header/body separator");
        assert!(head.contains("X-Request-Id"));
        assert_eq!(body, "{}");
    }
}
