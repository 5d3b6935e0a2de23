//! Properties of the HTTP parser: the incremental zero-copy [`Parser`]
//! behind the epoll reactor must produce byte-identical requests and the
//! same typed [`ParseError`]s as an independent one-shot reference reader
//! (below), no matter where a pipelined stream is split — mid-request-line,
//! mid-header, mid-body, or between requests.  Every test replays the same
//! byte stream through the reference and through the incremental parser at
//! *every* two-chunk split point (plus byte-at-a-time); a seeded fuzz loop
//! adds mutated, truncated, and random streams at random split points.

use mrs_server::http::{EofOutcome, ParseError, ParseStep, Parser, Request, MAX_BODY};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Longest accepted request line or header line, in bytes.
const MAX_LINE: usize = 16 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 100;

/// How one reader's run of a stream ended.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// The peer closed cleanly between requests.
    Clean,
    /// A typed protocol error (answer it, then close).
    Error(ParseError),
    /// EOF mid-body: dropped without a response.
    Dropped,
}

/// One parsed request flattened into comparable owned fields.
type Flat = (String, String, Vec<(String, String)>, Vec<u8>);

/// Everything observable about a run: the requests parsed before the end,
/// each request's `Expect: 100-continue` flag, and how the stream ended.
type Run = (Vec<Flat>, Vec<bool>, Outcome);

fn flat(request: &Request) -> Flat {
    (request.method.clone(), request.target.clone(), request.headers.clone(), request.body.clone())
}

fn error(status: u16, message: &'static str) -> Outcome {
    Outcome::Error(ParseError { status, message })
}

/// The reference reader's line: one CRLF- (or bare-LF-) terminated line off
/// the front of `rest`, enforcing `MAX_LINE`.  `Ok(None)` means the stream
/// ended before any byte of the line.
fn read_line(rest: &mut &[u8]) -> Result<Option<String>, Outcome> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let Some((&byte, tail)) = rest.split_first() else {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(error(400, "truncated request line"))
            };
        };
        *rest = tail;
        if byte == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map(Some)
                .map_err(|_| error(400, "request line is not valid UTF-8"));
        }
        if line.len() >= MAX_LINE {
            return Err(error(431, "header line too long"));
        }
        line.push(byte);
    }
}

/// The reference reader: one request off the front of `rest`, read line by
/// line with owned strings, and its `Expect: 100-continue` flag.  `Ok(None)`
/// is a clean end of stream between requests; `Err` ends the stream.
fn read_request(rest: &mut &[u8]) -> Result<Option<(Flat, bool)>, Outcome> {
    let Some(request_line) = read_line(rest)? else { return Ok(None) };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(error(400, "malformed request line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(error(400, "unsupported HTTP version"));
    }
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let Some(line) = read_line(rest)? else { return Err(error(400, "truncated headers")) };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(error(431, "too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(error(400, "malformed header"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    if headers.iter().any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(error(400, "chunked transfer encoding is not supported"));
    }
    let length = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0,
        Some((_, v)) => match v.parse::<usize>() {
            Ok(n) if n <= MAX_BODY => n,
            Ok(_) => return Err(error(413, "request body too large")),
            Err(_) => return Err(error(400, "malformed Content-Length")),
        },
    };
    let expect =
        headers.iter().any(|(k, v)| k == "expect" && v.eq_ignore_ascii_case("100-continue"));
    if rest.len() < length {
        return Err(Outcome::Dropped);
    }
    let (body, tail) = rest.split_at(length);
    *rest = tail;
    Ok(Some(((method.to_ascii_uppercase(), target.to_string(), headers, body.to_vec()), expect)))
}

/// Replays the whole stream through the one-shot reference reader.
fn one_shot(stream: &[u8]) -> Run {
    let mut rest = stream;
    let mut requests = Vec::new();
    let mut expects = Vec::new();
    loop {
        match read_request(&mut rest) {
            Ok(Some((request, expect))) => {
                requests.push(request);
                expects.push(expect);
            }
            Ok(None) => return (requests, expects, Outcome::Clean),
            Err(outcome) => return (requests, expects, outcome),
        }
    }
}

/// Feeds the stream to the incremental parser one chunk at a time, exactly
/// the way the reactor does: append to the connection buffer, advance until
/// `NeedMore`, drain completed frames, classify EOF when the chunks run out.
fn incremental(chunks: &[&[u8]]) -> Run {
    let mut parser = Parser::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut requests = Vec::new();
    let mut expects = Vec::new();
    for chunk in chunks {
        buf.extend_from_slice(chunk);
        loop {
            match parser.advance(&mut buf) {
                ParseStep::NeedMore => break,
                ParseStep::Complete(frame) => {
                    assert!(
                        frame.end <= buf.len(),
                        "frame end {} past {} bytes",
                        frame.end,
                        buf.len()
                    );
                    requests.push(flat(&frame.to_request(&buf)));
                    expects.push(frame.expect_continue);
                    buf.drain(..frame.end);
                }
                ParseStep::Bad(error) => return (requests, expects, Outcome::Error(error)),
            }
        }
    }
    let outcome = match parser.eof_outcome(buf.len()) {
        EofOutcome::Clean => Outcome::Clean,
        EofOutcome::Error(error) => Outcome::Error(error),
        EofOutcome::Drop => Outcome::Dropped,
    };
    (requests, expects, outcome)
}

/// Asserts the incremental parser matches `expected` at every two-chunk
/// split of `stream`, and when fed one byte at a time.
fn assert_every_split_matches(stream: &[u8], expected: &Run, context: &str) {
    for split in 0..=stream.len() {
        let got = incremental(&[&stream[..split], &stream[split..]]);
        assert_eq!(&got, expected, "{context}: two-chunk split at byte {split}");
    }
    let bytes: Vec<&[u8]> = stream.chunks(1).collect();
    assert_eq!(&incremental(&bytes), expected, "{context}: byte-at-a-time");
}

const PATHS: [&str; 4] = ["/healthz", "/stats", "/query", "/datasets/demo/insert"];

/// Builds a pipelined stream from `(path, body_len, flags)` specs.  Flag
/// bits: 1 = `Expect: 100-continue`, 2 = lowercase method spelling (the
/// parser must uppercase it), 4 = bare-LF line endings.
fn build(specs: &[(u64, usize, u64)]) -> Vec<u8> {
    let mut out = Vec::new();
    for &(path, body_len, flags) in specs {
        let method = if flags & 2 != 0 { "post" } else { "POST" };
        let eol = if flags & 4 != 0 { "\n" } else { "\r\n" };
        let path = PATHS[(path as usize) % PATHS.len()];
        let body: Vec<u8> = (0..body_len).map(|i| b'a' + (i % 23) as u8).collect();
        out.extend_from_slice(format!("{method} {path} HTTP/1.1{eol}Host: t{eol}").as_bytes());
        if flags & 1 != 0 {
            out.extend_from_slice(format!("Expect: 100-continue{eol}").as_bytes());
        }
        // Mixed-case name and padded value: both readers must lowercase
        // the name and trim the value identically.
        out.extend_from_slice(
            format!("X-Mixed-CASE:  padded value {eol}content-length: {}{eol}{eol}", body.len())
                .as_bytes(),
        );
        out.extend(body);
    }
    out
}

proptest! {
    /// Well-formed pipelined streams: the incremental parser yields the
    /// same requests (methods uppercased, header names lowercased, values
    /// trimmed, bodies byte-identical), the same `Expect` latches, and the
    /// same clean close, at every split point.
    #[test]
    fn every_split_of_a_pipelined_stream_parses_identically(
        specs in proptest::collection::vec((0u64..4, 0usize..40, 0u64..8), 1..5),
    ) {
        let stream = build(&specs);
        let expected = one_shot(&stream);
        prop_assert_eq!(expected.0.len(), specs.len(), "one-shot parsed every request");
        prop_assert_eq!(&expected.2, &Outcome::Clean);
        assert_every_split_matches(&stream, &expected, "well-formed");
    }

    /// Truncated streams: cutting a well-formed stream anywhere — inside
    /// the request line, the headers, or the body — makes both readers
    /// report the same typed outcome (clean close, `400` truncation error,
    /// or a silent drop) after the same parsed prefix.
    #[test]
    fn truncated_streams_report_the_same_typed_outcome(
        specs in proptest::collection::vec((0u64..4, 0usize..40, 0u64..8), 1..4),
        cut_permille in 0u64..1000,
    ) {
        let full = build(&specs);
        let cut = (full.len() as u64 * cut_permille / 1000) as usize;
        let stream = &full[..cut];
        let expected = one_shot(stream);
        assert_every_split_matches(stream, &expected, "truncated");
    }
}

/// Malformed heads: a fixed enumeration of protocol violations, each held
/// to the same typed error (status *and* message) at every split point.
#[test]
fn malformed_streams_fail_identically_at_every_split() {
    let mut too_many_headers = b"GET /x HTTP/1.1\r\n".to_vec();
    for i in 0..101 {
        too_many_headers.extend_from_slice(format!("H{i}: v\r\n").as_bytes());
    }
    too_many_headers.extend_from_slice(b"\r\n");
    let cases: Vec<(Vec<u8>, u16)> = vec![
        (b"GARBAGE\r\n\r\n".to_vec(), 400),
        (b"GET /x SPDY/3\r\n\r\n".to_vec(), 400),
        (b"GET /\xff HTTP/1.1\r\n\r\n".to_vec(), 400),
        (b"GET /x HTTP/1.1\r\nno-colon-header\r\n\r\n".to_vec(), 400),
        (b"GET /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n".to_vec(), 400),
        (b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(), 400),
        (
            format!(
                "POST /x HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY + 1
            )
            .into_bytes(),
            413,
        ),
        (too_many_headers, 431),
    ];
    for (stream, status) in cases {
        let expected = one_shot(&stream);
        match &expected.2 {
            Outcome::Error(error) => assert_eq!(error.status, status, "{stream:?}"),
            other => panic!("expected a {status} for {stream:?}, got {other:?}"),
        }
        assert!(expected.1.is_empty(), "no interim 100 Continue for a rejected head");
        assert_every_split_matches(&stream, &expected, "malformed");
    }
}

/// An over-long line is rejected as soon as its `MAX_LINE+1`-th byte
/// arrives — no terminator needed — by both readers.  Splits are sampled
/// (the stream is 17 KB; every split would be quadratic) but include every
/// boundary around the limit itself.
#[test]
fn overlong_lines_are_rejected_at_the_same_byte() {
    let mut stream = b"GET /".to_vec();
    stream.resize(MAX_LINE + 1024, b'a');
    let expected = one_shot(&stream);
    assert_eq!(
        expected.2,
        Outcome::Error(ParseError { status: 431, message: "header line too long" })
    );
    let splits = (0..=stream.len()).step_by(1021).chain([
        MAX_LINE - 1,
        MAX_LINE,
        MAX_LINE + 1,
        stream.len(),
    ]);
    for split in splits {
        let got = incremental(&[&stream[..split], &stream[split..]]);
        assert_eq!(got, expected, "over-long line, split at byte {split}");
    }
    // The truncated prefix (one byte under the limit, no terminator) is a
    // 400 truncation on both sides, not a 431.
    let prefix = &stream[..MAX_LINE];
    let expected = one_shot(prefix);
    assert_eq!(
        expected.2,
        Outcome::Error(ParseError { status: 400, message: "truncated request line" })
    );
    assert_eq!(incremental(&[prefix, b""]), expected);
}

/// Streams the seeded fuzz loop runs.
const FUZZ_STREAMS: u64 = 4000;

/// Bytes the fuzzer plants: line terminators, the header separator, an
/// invalid UTF-8 byte, and a digit.
fn fuzz_token(rng: &mut StdRng) -> u8 {
    match rng.gen_range(0..5) {
        0 => b'\r',
        1 => b'\n',
        2 => b':',
        3 => 0xff,
        _ => b'0' + rng.gen_range(0..10u8),
    }
}

/// One fuzz stream: raw random bytes, or a well-formed pipelined stream with
/// a few byte flips and insertions (including extra digits inside a
/// `content-length` value) and, sometimes, a random truncation.
fn fuzz_stream(rng: &mut StdRng) -> Vec<u8> {
    if rng.gen_range(0..4) == 0 {
        return (0..rng.gen_range(0..200)).map(|_| rng.gen_range(0..=255u8)).collect();
    }
    let specs: Vec<(u64, usize, u64)> = (0..rng.gen_range(1..4))
        .map(|_| (rng.gen_range(0..4), rng.gen_range(0..40), rng.gen_range(0..8)))
        .collect();
    let mut stream = build(&specs);
    for _ in 0..rng.gen_range(0..4) {
        let at = rng.gen_range(0..stream.len());
        match rng.gen_range(0..3) {
            0 => stream[at] = fuzz_token(rng),
            1 => stream.insert(at, fuzz_token(rng)),
            _ => {
                let needle = b"content-length: ";
                let values: Vec<usize> = stream
                    .windows(needle.len())
                    .enumerate()
                    .filter(|(_, window)| window == needle)
                    .map(|(i, _)| i + needle.len())
                    .collect();
                if !values.is_empty() {
                    let value = values[rng.gen_range(0..values.len())];
                    let digit = b'0' + rng.gen_range(0..10u8);
                    stream.insert(value + rng.gen_range(0..3), digit);
                }
            }
        }
    }
    if rng.gen_range(0..3) == 0 {
        stream.truncate(rng.gen_range(0..=stream.len()));
    }
    stream
}

/// One seeded fuzz case: the stream parsed in one chunk must match the
/// reference reader, and the same stream fed at 2–8 random split points
/// must match the one-chunk run.
fn fuzz_one(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let stream = fuzz_stream(&mut rng);
    let whole = incremental(&[&stream]);
    assert_eq!(whole, one_shot(&stream), "one chunk vs the reference, stream {stream:?}");
    let mut cuts: Vec<usize> =
        (0..rng.gen_range(2..=8)).map(|_| rng.gen_range(0..=stream.len())).collect();
    cuts.sort_unstable();
    let mut chunks: Vec<&[u8]> = Vec::new();
    let mut from = 0;
    for &cut in &cuts {
        chunks.push(&stream[from..cut]);
        from = cut;
    }
    chunks.push(&stream[from..]);
    assert_eq!(incremental(&chunks), whole, "splits at {cuts:?}, stream {stream:?}");
}

/// Seeded fuzzing at arbitrary splits.  A plain loop rather than
/// `proptest!`: the vendored stand-in neither shrinks nor prints its
/// inputs, so every failure (a panic in the parser included) names its
/// seed, and `fuzz_one(seed)` replays it.
#[test]
fn fuzzed_streams_parse_identically_at_random_splits() {
    for seed in 0..FUZZ_STREAMS {
        let outcome = std::panic::catch_unwind(|| fuzz_one(seed));
        assert!(
            outcome.is_ok(),
            "fuzz seed {seed} failed (panic above); replay with fuzz_one({seed})"
        );
    }
}
