//! A deliberately minimal HTTP/1.1 layer over `std::io`.
//!
//! Parses just enough of a request for the service's endpoints —
//! request line (with HTTP version), headers, `Content-Length`, body —
//! and writes responses either whole (with `Content-Length`) or as
//! `Transfer-Encoding: chunked` streams. Connection lifetime is the
//! caller's business: the parser reports whether the client asked for
//! keep-alive and the writers take an explicit close/keep-alive flag.
//! Hard limits on header and body size keep a misbehaving client from
//! pinning a worker.

use std::io::{BufRead, Read, Write};

/// Maximum accepted header-section size (request line included).
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Maximum accepted request-body size.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed request: method, target, headers and raw body.
#[derive(Debug, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// The request target (path plus any query string).
    pub target: String,
    /// Minor HTTP/1.x version from the request line (0 or 1).
    pub minor_version: u8,
    /// Header `(name, value)` pairs in arrival order, names lowercased,
    /// values trimmed. Bounded by [`MAX_HEADER_BYTES`] like the rest of
    /// the header section.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of header `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether this request asks to reuse the connection, per HTTP/1.x
    /// semantics: an explicit `Connection: close` always wins; HTTP/1.1
    /// defaults to keep-alive, HTTP/1.0 defaults to close unless the
    /// client sent `Connection: keep-alive`.
    pub fn keep_alive_requested(&self) -> bool {
        let tokens =
            |v: &str, needle: &str| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(needle));
        match self.header("connection") {
            Some(v) if tokens(v, "close") => false,
            Some(v) if tokens(v, "keep-alive") => true,
            _ => self.minor_version >= 1,
        }
    }
}

/// Why a request could not be parsed.
#[derive(Debug, PartialEq, Eq)]
pub enum RequestError {
    /// Malformed request line, header or length field.
    Malformed(&'static str),
    /// Headers or body exceeded the size limits.
    TooLarge,
    /// The client closed the connection cleanly before sending any
    /// byte of a request — the normal end of a keep-alive session.
    Closed,
    /// A read deadline expired mid-request (slow or stalled client).
    Timeout,
    /// The connection dropped mid-request.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Malformed(what) => write!(f, "malformed request: {what}"),
            RequestError::TooLarge => write!(f, "request too large"),
            RequestError::Closed => write!(f, "connection closed"),
            RequestError::Timeout => write!(f, "request read timed out"),
            RequestError::Io(kind) => write!(f, "i/o error: {kind:?}"),
        }
    }
}

impl From<std::io::Error> for RequestError {
    fn from(e: std::io::Error) -> RequestError {
        match e.kind() {
            // Both kinds occur for an expired socket read deadline,
            // depending on platform.
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => RequestError::Timeout,
            kind => RequestError::Io(kind),
        }
    }
}

/// Read one line terminated by `\n`, stripping the `\r\n`/`\n` ending,
/// bounding the running header total. `Ok(None)` is clean EOF before
/// any byte of this line. A carriage return anywhere else in the line
/// (CR-only endings, doubled CRs) is malformed.
fn read_line(
    reader: &mut impl BufRead,
    budget: &mut usize,
) -> Result<Option<String>, RequestError> {
    let mut line = Vec::new();
    // Cap the read so a newline-free flood cannot grow unboundedly.
    let mut limited = reader.take(*budget as u64 + 1);
    let n = limited.read_until(b'\n', &mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if n > *budget {
        return Err(RequestError::TooLarge);
    }
    *budget -= n;
    if line.last() == Some(&b'\n') {
        line.pop();
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    if line.iter().any(|&b| b == b'\r' || b == b'\n') {
        return Err(RequestError::Malformed("bare carriage return"));
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| RequestError::Malformed("non-UTF-8 header"))
}

/// Parse one HTTP/1.x request from `reader`.
///
/// Distinguishes the ways a keep-alive connection ends: a clean EOF
/// before the first byte is [`RequestError::Closed`] (close silently),
/// an expired read deadline is [`RequestError::Timeout`] (respond 408),
/// and anything else mid-request is malformed or an I/O error.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, RequestError> {
    let mut budget = MAX_HEADER_BYTES;
    let request_line = match read_line(reader, &mut budget)? {
        Some(line) => line,
        None => return Err(RequestError::Closed),
    };
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().map(str::to_string);
    let version = parts.next();
    let (target, version) = match (target, version, parts.next()) {
        (Some(t), Some(v), None) if !method.is_empty() && !t.is_empty() => (t, v),
        _ => return Err(RequestError::Malformed("request line")),
    };
    let minor_version = match version {
        "HTTP/1.0" => 0,
        "HTTP/1.1" => 1,
        _ => return Err(RequestError::Malformed("unsupported HTTP version")),
    };

    let mut content_length: Option<usize> = None;
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = match read_line(reader, &mut budget)? {
            Some(line) => line,
            None => return Err(RequestError::Malformed("unexpected end of stream")),
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Malformed("header line"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            let parsed = value
                .parse()
                .map_err(|_| RequestError::Malformed("content-length"))?;
            // A request smuggling vector if ever proxied: reject
            // instead of silently taking either value.
            if content_length.replace(parsed).is_some() {
                return Err(RequestError::Malformed("duplicate content-length"));
            }
        }
        headers.push((name, value));
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(RequestError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| {
        match RequestError::from(e) {
            // A deadline mid-body is still a timeout; a clean EOF
            // mid-body is a dropped connection, not `Closed`.
            RequestError::Timeout => RequestError::Timeout,
            other => other,
        }
    })?;
    Ok(Request {
        method,
        target,
        minor_version,
        headers,
        body,
    })
}

/// The canonical reason phrase for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete `Connection: close` response.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write_response_with_headers(writer, status, content_type, &[], body, false)
}

/// Write a complete response with extra headers (e.g. `X-Request-Id`)
/// and an explicit connection disposition. Header values must be ASCII
/// without CR/LF.
pub fn write_response_with_headers(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        writer,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        connection,
    )?;
    for (name, value) in extra_headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    writer.write_all(b"\r\n")?;
    writer.write_all(body)?;
    writer.flush()
}

/// Write the head of a `Transfer-Encoding: chunked` response. Body
/// bytes follow via [`write_chunk`]; a complete response ends with
/// [`finish_chunked`], and an aborted one simply never does (closing
/// the socket without the terminal chunk is how HTTP signals a
/// truncated chunked body).
pub fn write_chunked_head(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        writer,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: {}\r\n",
        status,
        reason(status),
        content_type,
        connection,
    )?;
    for (name, value) in extra_headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    writer.write_all(b"\r\n")
}

/// Write one chunk of a chunked response body. Empty input writes
/// nothing (a zero-length chunk would terminate the body).
pub fn write_chunk(writer: &mut impl Write, data: &[u8]) -> std::io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    // One buffered write per chunk: size line + payload + CRLF.
    let mut framed = Vec::with_capacity(data.len() + 16);
    framed.extend_from_slice(format!("{:x}\r\n", data.len()).as_bytes());
    framed.extend_from_slice(data);
    framed.extend_from_slice(b"\r\n");
    writer.write_all(&framed)
}

/// Write the terminal chunk of a chunked response and flush.
pub fn finish_chunked(writer: &mut impl Write) -> std::io::Result<()> {
    writer.write_all(b"0\r\n\r\n")?;
    writer.flush()
}

/// The value of query parameter `key` in a request target, if present
/// (`/query?profile=true` → `Some("true")`). No percent-decoding; the
/// server's parameters are plain tokens.
pub fn query_param<'a>(target: &'a str, key: &str) -> Option<&'a str> {
    let (_, params) = target.split_once('?')?;
    params.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        (k == key).then_some(v)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, RequestError> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse(b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\nsum(1)\n").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/query");
        assert_eq!(req.minor_version, 1);
        assert_eq!(req.body, b"sum(1)\n");
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn header_names_are_case_insensitive() {
        let req = parse(b"POST /q HTTP/1.1\r\ncOnTeNt-LeNgTh: 2\r\n\r\nhi").unwrap();
        assert_eq!(req.body, b"hi");
    }

    #[test]
    fn headers_are_retained_and_looked_up_case_insensitively() {
        let req =
            parse(b"POST /q HTTP/1.1\r\nX-Request-Id:  abc-123 \r\nContent-Length: 2\r\n\r\nhi")
                .unwrap();
        assert_eq!(req.header("x-request-id"), Some("abc-123"));
        assert_eq!(req.header("X-REQUEST-ID"), Some("abc-123"));
        assert_eq!(req.header("content-length"), Some("2"));
        assert_eq!(req.header("absent"), None);
        assert_eq!(
            req.headers,
            vec![
                ("x-request-id".to_string(), "abc-123".to_string()),
                ("content-length".to_string(), "2".to_string()),
            ]
        );
    }

    #[test]
    fn connection_semantics_by_version() {
        // HTTP/1.1 defaults to keep-alive; explicit close wins.
        assert!(parse(b"GET / HTTP/1.1\r\n\r\n")
            .unwrap()
            .keep_alive_requested());
        assert!(!parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .keep_alive_requested());
        assert!(!parse(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n")
            .unwrap()
            .keep_alive_requested());
        // Token lists: `close` anywhere in the list still closes.
        assert!(!parse(b"GET / HTTP/1.1\r\nConnection: TE, close\r\n\r\n")
            .unwrap()
            .keep_alive_requested());
        // HTTP/1.0 defaults to close; explicit keep-alive opts in.
        assert!(!parse(b"GET / HTTP/1.0\r\n\r\n")
            .unwrap()
            .keep_alive_requested());
        assert!(parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .keep_alive_requested());
        // An unrelated Connection value falls back to the version default.
        assert!(parse(b"GET / HTTP/1.1\r\nConnection: TE\r\n\r\n")
            .unwrap()
            .keep_alive_requested());
    }

    #[test]
    fn clean_eof_before_any_byte_is_closed() {
        assert_eq!(parse(b""), Err(RequestError::Closed));
    }

    #[test]
    fn eof_mid_headers_is_malformed_not_closed() {
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nHost: x\r\n"),
            Err(RequestError::Malformed("unexpected end of stream"))
        );
    }

    #[test]
    fn rejects_garbage_request_line() {
        assert_eq!(
            parse(b"NONSENSE\r\n\r\n"),
            Err(RequestError::Malformed("request line"))
        );
        assert_eq!(
            parse(b"GET / SPDY/3\r\n\r\n"),
            Err(RequestError::Malformed("unsupported HTTP version"))
        );
        // Truncated request line: method only, no target/version.
        assert_eq!(
            parse(b"GET\r\n\r\n"),
            Err(RequestError::Malformed("request line"))
        );
        assert_eq!(
            parse(b"GET /x\r\n\r\n"),
            Err(RequestError::Malformed("request line"))
        );
        // HTTP/2-style or fractional versions are refused outright.
        assert_eq!(
            parse(b"GET / HTTP/1.2\r\n\r\n"),
            Err(RequestError::Malformed("unsupported HTTP version"))
        );
    }

    #[test]
    fn rejects_header_without_colon() {
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n"),
            Err(RequestError::Malformed("header line"))
        );
    }

    #[test]
    fn rejects_duplicate_content_length() {
        assert_eq!(
            parse(b"POST /q HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nhi"),
            Err(RequestError::Malformed("duplicate content-length"))
        );
        // Even duplicates that agree are refused.
        assert_eq!(
            parse(b"POST /q HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi"),
            Err(RequestError::Malformed("duplicate content-length"))
        );
    }

    #[test]
    fn rejects_non_numeric_content_length() {
        assert_eq!(
            parse(b"POST /q HTTP/1.1\r\nContent-Length: two\r\n\r\nhi"),
            Err(RequestError::Malformed("content-length"))
        );
    }

    #[test]
    fn rejects_cr_only_line_endings() {
        assert_eq!(
            parse(b"GET / HTTP/1.1\rHost: x\r\r\n"),
            Err(RequestError::Malformed("bare carriage return"))
        );
        // Doubled CR before the LF is not a valid line ending either.
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\r\n\r\n"),
            Err(RequestError::Malformed("bare carriage return"))
        );
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let raw = format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse(raw.as_bytes()), Err(RequestError::TooLarge));
    }

    #[test]
    fn rejects_unbounded_headers() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEADER_BYTES + 10));
        assert_eq!(parse(&raw), Err(RequestError::TooLarge));
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        let err = parse(b"POST /q HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort").unwrap_err();
        assert!(matches!(err, RequestError::Io(_)));
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "text/plain", b"ok\n").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));
    }

    #[test]
    fn keep_alive_responses_say_so() {
        let mut out = Vec::new();
        write_response_with_headers(&mut out, 200, "text/plain", &[], b"ok", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
    }

    #[test]
    fn chunked_response_framing() {
        let mut out = Vec::new();
        write_chunked_head(
            &mut out,
            200,
            "application/xml",
            &[("X-Request-Id", "7")],
            true,
        )
        .unwrap();
        write_chunk(&mut out, b"<a/>").unwrap();
        write_chunk(&mut out, b"").unwrap(); // ignored, not terminal
        write_chunk(&mut out, &[b'x'; 16]).unwrap();
        finish_chunked(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"), "{text}");
        assert!(text.contains("X-Request-Id: 7\r\n"), "{text}");
        assert!(
            text.ends_with("\r\n\r\n4\r\n<a/>\r\n10\r\nxxxxxxxxxxxxxxxx\r\n0\r\n\r\n"),
            "{text}"
        );
    }

    #[test]
    fn extra_headers_land_before_the_body() {
        let mut out = Vec::new();
        write_response_with_headers(
            &mut out,
            200,
            "application/json",
            &[("X-Request-Id", "42")],
            b"{}",
            false,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("X-Request-Id: 42\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }

    #[test]
    fn timeout_reason_phrases_exist() {
        assert_eq!(reason(408), "Request Timeout");
        assert_eq!(reason(429), "Too Many Requests");
        assert_eq!(reason(503), "Service Unavailable");
    }

    #[test]
    fn query_params_parse_from_the_target() {
        assert_eq!(query_param("/query?profile=true", "profile"), Some("true"));
        assert_eq!(
            query_param("/query?a=1&profile=yes&b=2", "profile"),
            Some("yes")
        );
        assert_eq!(query_param("/query?profile", "profile"), Some(""));
        assert_eq!(query_param("/query", "profile"), None);
        assert_eq!(query_param("/query?other=1", "profile"), None);
    }
}
