//! Property tests for the HTTP/1.1 request parser: whatever bytes a
//! peer sends, `read_request` returns a typed result and never panics.
//! A parsed request's body is exactly its declared `Content-Length`,
//! within the body cap, and a head longer than the head cap is always
//! refused as `HeadTooLarge`.

use electrifi_serve::http::{read_request, HttpError, Request};
use proptest::prelude::*;
use std::io::Cursor;

/// Fragments the token fuzzer splices together: enough HTTP grammar to
/// reach every parser branch, plus the edge cases each branch checks.
const TOKENS: &[&[u8]] = &[
    b"GET",
    b"POST",
    b" ",
    b"/",
    b"/campaigns/c1",
    b"?obs=1&x",
    b"HTTP/1.1",
    b"HTTP/2",
    b"\r\n",
    b"\n",
    b"\r",
    b":",
    b"Content-Length: ",
    b"content-length:3",
    b"Transfer-Encoding: chunked",
    b"Host: x",
    b"0",
    b"7",
    b"+2",
    b"-1",
    b"18446744073709551616",
    b"body",
    b"\xff\xfe",
    b"GET / HTTP/1.1\r\n",
    b"\r\n\r\n",
];

/// Decode `(selector, raw)` pairs into bytes: most pairs pick a grammar
/// fragment, the rest contribute one arbitrary byte.
fn splice(parts: &[(u8, u8)]) -> Vec<u8> {
    let mut out = Vec::new();
    for &(sel, raw) in parts {
        match TOKENS.get(sel as usize % (TOKENS.len() + 4)) {
            Some(tok) => out.extend_from_slice(tok),
            None => out.push(raw),
        }
    }
    out
}

fn parse(bytes: &[u8], max_head: usize, max_body: usize) -> Result<Option<Request>, HttpError> {
    read_request(&mut Cursor::new(bytes), max_head, max_body)
}

/// The invariants every successful parse must satisfy.
fn check_parsed(result: &Result<Option<Request>, HttpError>, max_body: usize) {
    if let Ok(Some(req)) = result {
        let declared = req.header("content-length").map_or(0, |v| {
            v.parse::<usize>()
                .expect("a parsed request has a valid length")
        });
        assert_eq!(req.body.len(), declared, "body length vs Content-Length");
        assert!(req.body.len() <= max_body, "body exceeds the cap");
        assert!(req.path.starts_with('/'), "path {:?}", req.path);
    }
}

/// A well-formed request: its head bytes and its body.
fn well_formed(method: u8, headers: usize, body_len: usize) -> (Vec<u8>, Vec<u8>) {
    let method = ["GET", "POST", "DELETE"][method as usize % 3];
    let mut head = format!("{method} /campaigns/c1?obs=1 HTTP/1.1\r\n");
    for i in 0..headers {
        head.push_str(&format!("X-Pad-{i}: {}\r\n", "v".repeat(i)));
    }
    head.push_str(&format!("Content-Length: {body_len}\r\n\r\n"));
    let body = (0..body_len).map(|i| i as u8).collect();
    (head.into_bytes(), body)
}

proptest! {
    /// Arbitrary bytes under small caps never panic.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in collection::vec(any::<u8>(), 0..256),
        max_head in 0usize..96,
        max_body in 0usize..32,
    ) {
        check_parsed(&parse(&bytes, max_head, max_body), max_body);
    }

    /// Spliced grammar fragments reach the header, length and body
    /// branches; none of them panics, and every parsed request keeps
    /// the body invariants.
    #[test]
    fn spliced_requests_never_panic(
        parts in collection::vec((any::<u8>(), any::<u8>()), 0..40),
        max_head in 0usize..160,
        max_body in 0usize..16,
    ) {
        let bytes = splice(&parts);
        check_parsed(&parse(&bytes, max_head, max_body), max_body);
    }

    /// A well-formed request parses to its own body when both caps
    /// hold; a head longer than `max_head` is always `HeadTooLarge`,
    /// and an over-cap body within a fitting head is `BodyTooLarge`.
    #[test]
    fn caps_decide_well_formed_requests(
        method in any::<u8>(),
        headers in 0usize..6,
        body_len in 0usize..24,
        caps in (16usize..192, 0usize..24),
    ) {
        let (max_head, max_body) = caps;
        let (head, body) = well_formed(method, headers, body_len);
        let mut bytes = head.clone();
        bytes.extend_from_slice(&body);
        let result = parse(&bytes, max_head, max_body);
        check_parsed(&result, max_body);
        if head.len() > max_head {
            prop_assert!(
                matches!(result, Err(HttpError::HeadTooLarge { limit }) if limit == max_head),
                "{}-byte head over a {max_head}-byte cap: {result:?}",
                head.len()
            );
        } else if body_len > max_body {
            prop_assert!(
                matches!(result, Err(HttpError::BodyTooLarge { limit }) if limit == max_body),
                "{result:?}"
            );
        } else {
            let req = result.expect("well-formed request").expect("a request");
            prop_assert_eq!(req.body, body);
        }
    }

    /// Bytes with no line end never complete a head: beyond the cap
    /// they are `HeadTooLarge`, whatever they contain.
    #[test]
    fn unterminated_head_over_the_cap_is_too_large(
        bytes in collection::vec(any::<u8>(), 1..200),
        max_head in 0usize..64,
    ) {
        let bytes: Vec<u8> = bytes.into_iter().filter(|&b| b != b'\n').collect();
        prop_assume!(bytes.len() > max_head);
        prop_assert!(matches!(
            parse(&bytes, max_head, 0),
            Err(HttpError::HeadTooLarge { .. })
        ));
    }
}
