//! Byte-mutation fuzz for the service's request parser (fixed seeds,
//! `DetRng`).
//!
//! `xqa_service::http::read_request` reads straight off a client socket,
//! so whatever bytes arrive must come back `Ok` or `Err`, never a panic.
//! An `Ok` must also be framed the way the parser promises: its body is
//! exactly `Content-Length` bytes (none without the header), and it
//! consumed exactly its header section plus that body, so the next
//! pipelined request starts where the bytes say it does.

use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

use xqa_service::http::{read_request, Request, RequestError};
use xqa_workload::DetRng;

/// Valid requests (and one the parser refuses by design): a GET, a POST
/// with a body, a pipelined POST + GET pair, and a chunked POST.
const SEEDS: [&str; 4] = [
    "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
    "POST /query?profile=true HTTP/1.1\r\nHost: t\r\nX-Request-Id: fuzz-1\r\n\
     Content-Length: 8\r\n\r\nsum(//v)",
    "POST /query HTTP/1.1\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\n1 + 1\
     GET /metrics HTTP/1.0\r\n\r\n",
    "POST /query HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n3\r\n1+1\r\n0\r\n\r\n",
];

/// Bytes a mutation inserts: line ends, the header separator, digits for
/// lengths, and a few bytes that are not UTF-8 on their own.
const INTERESTING: &[u8] = b"\r\n: \t0123456789-/?=,aZ\x00\x7f\xc3\xa9\xff";

fn mutate(rng: &mut DetRng, bytes: &mut Vec<u8>) {
    let at = |rng: &mut DetRng, len: usize| rng.gen_range(0..len.max(1));
    match rng.gen_range(0..5u32) {
        // Flip one bit.
        0 if !bytes.is_empty() => {
            let i = at(rng, bytes.len());
            bytes[i] ^= 1 << rng.gen_range(0..8u32);
        }
        // Overwrite one byte.
        1 if !bytes.is_empty() => {
            let i = at(rng, bytes.len());
            bytes[i] = INTERESTING[at(rng, INTERESTING.len())];
        }
        // Delete a short range.
        2 if !bytes.is_empty() => {
            let i = at(rng, bytes.len());
            let n = rng.gen_range(1..=8usize).min(bytes.len() - i);
            bytes.drain(i..i + n);
        }
        // Truncate.
        3 if !bytes.is_empty() => bytes.truncate(at(rng, bytes.len())),
        // Insert a few bytes.
        _ => {
            let i = at(rng, bytes.len() + 1);
            for _ in 0..rng.gen_range(1..=4u32) {
                bytes.insert(i, INTERESTING[at(rng, INTERESTING.len())]);
            }
        }
    }
}

/// Length of the header section at the start of `bytes`: every line up
/// to and including the first empty one after the request line. A line
/// ends at `\n` (its `\r` before it is part of the ending) or at the end
/// of the input.
fn head_len(bytes: &[u8]) -> usize {
    let mut at = 0;
    let mut request_line = true;
    loop {
        let end = bytes[at..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |i| at + i);
        let line = &bytes[at..end];
        at = (end + 1).min(bytes.len());
        if !request_line && (line.is_empty() || line == b"\r") {
            return at;
        }
        assert!(end < bytes.len(), "an accepted request has no blank line");
        request_line = false;
    }
}

/// Parse requests off `bytes` one after another, as a keep-alive
/// connection does, until the parser returns an error. Panics (failing
/// the test with the input) if the parser panics or an accepted request
/// is framed wrongly. Returns the requests and the error that ended the
/// stream.
fn parse_all(bytes: &[u8]) -> (Vec<Request>, RequestError) {
    let mut cursor = Cursor::new(bytes);
    let mut requests = Vec::new();
    loop {
        let start = cursor.position() as usize;
        let outcome = catch_unwind(AssertUnwindSafe(|| read_request(&mut cursor)));
        let Ok(parsed) = outcome else {
            panic!(
                "read_request panicked at byte {start} of {:?}",
                String::from_utf8_lossy(bytes)
            );
        };
        let request = match parsed {
            Ok(request) => request,
            Err(e) => return (requests, e),
        };
        let length = request.header("content-length").map_or(0, |v| {
            v.parse::<usize>()
                .unwrap_or_else(|_| panic!("accepted a bad length {v:?}"))
        });
        let input = String::from_utf8_lossy(&bytes[start..]);
        assert_eq!(request.body.len(), length, "body of {input:?}");
        assert_eq!(
            cursor.position() as usize - start,
            head_len(&bytes[start..]) + length,
            "bytes consumed by {input:?}"
        );
        requests.push(request);
    }
}

#[test]
fn unmutated_seeds_parse_as_sent() {
    let (requests, end) = parse_all(SEEDS[0].as_bytes());
    assert_eq!((requests.len(), end), (1, RequestError::Closed));
    assert_eq!(requests[0].target, "/healthz");

    let (requests, end) = parse_all(SEEDS[1].as_bytes());
    assert_eq!((requests.len(), end), (1, RequestError::Closed));
    assert_eq!(requests[0].body, b"sum(//v)");
    assert_eq!(requests[0].header("x-request-id"), Some("fuzz-1"));

    let (requests, end) = parse_all(SEEDS[2].as_bytes());
    assert_eq!(end, RequestError::Closed);
    let shape: Vec<(&str, &[u8])> = requests
        .iter()
        .map(|r| (r.method.as_str(), r.body.as_slice()))
        .collect();
    assert_eq!(shape, [("POST", &b"1 + 1"[..]), ("GET", b"")]);

    // The parser frames bodies by length alone and refuses the rest.
    let (requests, end) = parse_all(SEEDS[3].as_bytes());
    assert!(requests.is_empty());
    assert_eq!(end, RequestError::Malformed("transfer-encoding"));
}

#[test]
fn every_truncation_of_the_seeds_is_ok_or_err() {
    for seed in SEEDS {
        for len in 0..seed.len() {
            parse_all(&seed.as_bytes()[..len]);
        }
    }
}

#[test]
fn mutated_seeds_never_panic_and_frame_exactly() {
    let mut accepted = 0;
    for (n, seed) in SEEDS.iter().enumerate() {
        let mut rng = DetRng::seed_from_u64(0x4854_5450 + n as u64);
        for _ in 0..5_000 {
            let mut bytes = seed.as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..=4u32) {
                mutate(&mut rng, &mut bytes);
            }
            accepted += parse_all(&bytes).0.len();
        }
    }
    // Not vacuous: many mutants still parse (4 332 at these seeds), so
    // the framing checks ran.
    assert!(accepted > 4_000, "only {accepted} requests parsed");
}
