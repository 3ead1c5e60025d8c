//! A minimal, dependency-free HTTP/1.1 subset.
//!
//! Exactly what the control plane needs and nothing more: one request
//! per connection (`Connection: close` on every response), line-parsed
//! headers with hard size caps, `Content-Length` bodies, fixed-length
//! responses, and chunked transfer encoding for the live event stream.
//! Both caps are **per-request memory bounds**: a request that exceeds
//! them is answered (431/413) and the connection dropped before the
//! oversized bytes are ever buffered.

use std::io::{self, BufRead, Write};

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path, query string stripped (`/campaigns/c1`).
    pub path: String,
    /// Query parameters in order of appearance (no percent-decoding;
    /// ids and run names are plain `[A-Za-z0-9._-]`).
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First query parameter named `key`.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Path split on `/`, empty segments removed.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header or framing → 400.
    BadRequest(String),
    /// Request head exceeded the cap → 431.
    HeadTooLarge {
        /// The configured cap in bytes.
        limit: usize,
    },
    /// Declared body exceeded the cap → 413.
    BodyTooLarge {
        /// The configured cap in bytes.
        limit: usize,
    },
    /// The socket failed mid-read.
    Io(io::Error),
}

/// Read one request. `Ok(None)` means the peer closed before sending
/// anything (a clean no-request connection, not an error).
pub fn read_request(
    stream: &mut impl BufRead,
    max_head: usize,
    max_body: usize,
) -> Result<Option<Request>, HttpError> {
    let mut head_used = 0usize;
    let request_line = match read_line(stream, max_head, &mut head_used)? {
        None => return Ok(None),
        Some(line) if line.is_empty() => return Ok(None),
        Some(line) => line,
    };
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::BadRequest("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("request line has no target".into()))?;
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        other => {
            return Err(HttpError::BadRequest(format!(
                "expected HTTP/1.x version, got {other:?}"
            )))
        }
    }
    let (path, query) = parse_target(target)?;

    let mut headers = Vec::new();
    loop {
        let line = read_line(stream, max_head, &mut head_used)?
            .ok_or_else(|| HttpError::BadRequest("connection closed mid-headers".into()))?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::BadRequest(
            "chunked request bodies are not supported; send Content-Length".into(),
        ));
    }
    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest(format!("bad Content-Length {v:?}")))?,
    };
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge { limit: max_body });
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).map_err(HttpError::Io)?;

    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
    }))
}

fn parse_target(target: &str) -> Result<(String, Vec<(String, String)>), HttpError> {
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest(format!(
            "request target must be an absolute path, got {target:?}"
        )));
    }
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();
    Ok((path.to_string(), query))
}

/// Read one CRLF (or bare-LF) terminated line, charging its bytes
/// against the shared head budget.
fn read_line(
    stream: &mut impl BufRead,
    max_head: usize,
    used: &mut usize,
) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match stream.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::BadRequest("connection closed mid-line".into()));
            }
            Ok(_) => {
                *used += 1;
                if *used > max_head {
                    return Err(HttpError::HeadTooLarge { limit: max_head });
                }
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let text = String::from_utf8(line)
                        .map_err(|_| HttpError::BadRequest("request head is not UTF-8".into()))?;
                    return Ok(Some(text));
                }
                line.push(byte[0]);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Reason phrase for the status codes the control plane emits.
pub fn status_reason(code: u16) -> &'static str {
    match code {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete fixed-length response (always `Connection: close`).
pub fn respond(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        status_reason(status),
        body.len(),
    )?;
    for (name, value) in extra_headers {
        write!(stream, "{name}: {value}\r\n")?;
    }
    stream.write_all(b"\r\n")?;
    stream.write_all(body)?;
    stream.flush()
}

/// Shorthand for a JSON response.
pub fn respond_json(stream: &mut impl Write, status: u16, json: &str) -> io::Result<()> {
    respond(stream, status, "application/json", &[], json.as_bytes())
}

/// Shorthand for the uniform error document
/// `{"error": "...", "status": N}`.
pub fn respond_error(stream: &mut impl Write, status: u16, message: &str) -> io::Result<()> {
    let doc = format!(
        "{{\"error\":{},\"status\":{status}}}",
        serde_json::to_string(&message.to_string()).expect("string serialization is infallible")
    );
    respond_json(stream, status, &doc)
}

/// Incremental chunked-transfer response writer for the event stream.
pub struct ChunkedWriter<'a, W: Write> {
    stream: &'a mut W,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Write the response head and switch the connection to chunked
    /// transfer encoding.
    pub fn begin(stream: &'a mut W, status: u16, content_type: &str) -> io::Result<Self> {
        write!(
            stream,
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status_reason(status),
        )?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Send one chunk (empty input is skipped — an empty chunk would
    /// terminate the stream).
    pub fn write_chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Send the terminating zero-length chunk.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 8192, 1 << 20)
    }

    #[test]
    fn parses_request_line_query_headers_and_body() {
        let req = parse(
            "POST /campaigns/c1/cancel?mode=drain&obs=1 HTTP/1.1\r\n\
             Host: localhost\r\nContent-Length: 4\r\n\r\nbody",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.segments(), vec!["campaigns", "c1", "cancel"]);
        assert_eq!(req.query_param("mode"), Some("drain"));
        assert_eq!(req.query_param("obs"), Some("1"));
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn clean_eof_is_not_an_error() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn oversized_body_is_rejected_before_buffering() {
        let err = read_request(
            &mut BufReader::new(
                "POST /campaigns HTTP/1.1\r\nContent-Length: 99\r\n\r\n".as_bytes(),
            ),
            8192,
            10,
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge { limit: 10 }));
    }

    #[test]
    fn oversized_head_is_rejected() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(100));
        let err = read_request(&mut BufReader::new(raw.as_bytes()), 64, 1024).unwrap_err();
        assert!(matches!(err, HttpError::HeadTooLarge { limit: 64 }));
    }

    #[test]
    fn garbage_is_a_bad_request() {
        assert!(matches!(
            parse("NOT-HTTP\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET relative-path HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn chunked_writer_frames_correctly() {
        let mut buf = Vec::new();
        let mut w = ChunkedWriter::begin(&mut buf, 200, "application/jsonl").unwrap();
        w.write_chunk(b"hello\n").unwrap();
        w.write_chunk(b"").unwrap();
        w.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked"), "{text}");
        assert!(text.ends_with("6\r\nhello\n\r\n0\r\n\r\n"), "{text}");
    }
}
