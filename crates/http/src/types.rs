//! Basic HTTP protocol types: methods, status codes, versions.

use std::fmt;
use std::str::FromStr;

/// An HTTP request method (the subset the consistency protocol uses, plus
/// an escape hatch for anything else).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Method {
    /// `GET` — fetches and polls (`If-Modified-Since`) use this.
    Get,
    /// `HEAD` — metadata-only polls.
    Head,
    /// `POST`.
    Post,
    /// `PUT` — the live origin accepts updates through this.
    Put,
    /// Any other token.
    Other(String),
}

impl Method {
    /// The method token as it appears on the wire.
    pub fn as_str(&self) -> &str {
        match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Other(s) => s,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Method {
    type Err = InvalidToken;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() || !s.bytes().all(is_token_byte) {
            return Err(InvalidToken);
        }
        Ok(match s {
            "GET" => Method::Get,
            "HEAD" => Method::Head,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            other => Method::Other(other.to_owned()),
        })
    }
}

/// Error returned when a string is not a valid HTTP token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidToken;

impl fmt::Display for InvalidToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid HTTP token")
    }
}

impl std::error::Error for InvalidToken {}

const LOW: u64 = 0x0101_0101_0101_0101;
const HIGH: u64 = 0x8080_8080_8080_8080;

/// The high bit of each byte of `word` (eight bytes) that is `\n`. A
/// head is searched for line ends three times — for its end, for its
/// line count, then line by line — so the search goes a word a step.
fn lf_bits(word: &[u8]) -> u64 {
    // Zero exactly where the word holds `\n`; then, per byte and with no
    // carry crossing bytes, the high bit is set iff any bit is.
    let x = u64::from_le_bytes(word.try_into().expect("chunks of eight")) ^ (LOW * 0x0a);
    !(((x & !HIGH) + !HIGH) | x) & HIGH
}

fn find_lf(bytes: &[u8]) -> Option<usize> {
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let bits = lf_bits(word);
        if bits != 0 {
            return Some(i * 8 + bits.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    Some(bytes.len() - tail.len() + tail.iter().position(|&b| b == b'\n')?)
}

/// Offset of the first `\r\n` that starts at or after `from`.
pub(crate) fn find_crlf(bytes: &[u8], mut from: usize) -> Option<usize> {
    loop {
        let lf = from + find_lf(bytes.get(from..)?)?;
        if lf > from && bytes[lf - 1] == b'\r' {
            return Some(lf - 1);
        }
        from = lf + 1;
    }
}

/// How many `\n` `bytes` holds.
pub(crate) fn count_lf(bytes: &[u8]) -> usize {
    let mut words = bytes.chunks_exact(8);
    let in_words: u32 = words.by_ref().map(|word| lf_bits(word).count_ones()).sum();
    in_words as usize + words.remainder().iter().filter(|&&b| b == b'\n').count()
}

/// RFC 7230 `tchar`.
const fn tchar(b: u8) -> bool {
    matches!(b,
        b'!' | b'#' | b'$' | b'%' | b'&' | b'\'' | b'*' | b'+' | b'-' | b'.'
        | b'^' | b'_' | b'`' | b'|' | b'~'
        | b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z')
}

/// [`tchar`] of every byte: names are checked a byte at a time, and one
/// load is cheaper than the chain of range tests.
static TCHAR: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = tchar(b as u8);
        b += 1;
    }
    table
};

/// Whether `b` may appear in a token (method, header name).
pub(crate) fn is_token_byte(b: u8) -> bool {
    TCHAR[usize::from(b)]
}

/// An HTTP status code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StatusCode(u16);

impl StatusCode {
    /// `200 OK`.
    pub const OK: StatusCode = StatusCode(200);
    /// `304 Not Modified` — the backbone of `If-Modified-Since` polling.
    pub const NOT_MODIFIED: StatusCode = StatusCode(304);
    /// `400 Bad Request`.
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// `401 Unauthorized` — the admin plane's bearer-token gate.
    pub const UNAUTHORIZED: StatusCode = StatusCode(401);
    /// `404 Not Found`.
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// `405 Method Not Allowed`.
    pub const METHOD_NOT_ALLOWED: StatusCode = StatusCode(405);
    /// `408 Request Timeout`.
    pub const REQUEST_TIMEOUT: StatusCode = StatusCode(408);
    /// `413 Payload Too Large`.
    pub const PAYLOAD_TOO_LARGE: StatusCode = StatusCode(413);
    /// `429 Too Many Requests` — overload admission shedding.
    pub const TOO_MANY_REQUESTS: StatusCode = StatusCode(429);
    /// `500 Internal Server Error`.
    pub const INTERNAL_SERVER_ERROR: StatusCode = StatusCode(500);
    /// `503 Service Unavailable` — parked past the accept deadline.
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);

    /// Creates a status code, rejecting values outside `100..=599`.
    pub fn new(code: u16) -> Option<StatusCode> {
        (100..=599).contains(&code).then_some(StatusCode(code))
    }

    /// The numeric code.
    pub const fn as_u16(self) -> u16 {
        self.0
    }

    /// `true` for `2xx`.
    pub const fn is_success(self) -> bool {
        self.0 >= 200 && self.0 < 300
    }

    /// The canonical reason phrase for the codes this crate uses.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            304 => "Not Modified",
            400 => "Bad Request",
            401 => "Unauthorized",
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
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.0, self.reason())
    }
}

/// The HTTP protocol version; only 1.0 and 1.1 are representable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HttpVersion {
    /// HTTP/1.0.
    V10,
    /// HTTP/1.1 (default).
    #[default]
    V11,
}

impl HttpVersion {
    /// The version string as it appears on the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            HttpVersion::V10 => "HTTP/1.0",
            HttpVersion::V11 => "HTTP/1.1",
        }
    }
}

impl fmt::Display for HttpVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for HttpVersion {
    type Err = InvalidToken;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "HTTP/1.0" => Ok(HttpVersion::V10),
            "HTTP/1.1" => Ok(HttpVersion::V11),
            _ => Err(InvalidToken),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_round_trips() {
        for (s, m) in [
            ("GET", Method::Get),
            ("HEAD", Method::Head),
            ("POST", Method::Post),
            ("PUT", Method::Put),
        ] {
            assert_eq!(s.parse::<Method>().unwrap(), m);
            assert_eq!(m.as_str(), s);
            assert_eq!(m.to_string(), s);
        }
        let custom = "PATCH".parse::<Method>().unwrap();
        assert_eq!(custom, Method::Other("PATCH".into()));
    }

    #[test]
    fn method_rejects_invalid_tokens() {
        assert!("".parse::<Method>().is_err());
        assert!("GE T".parse::<Method>().is_err());
        assert!("GET\r".parse::<Method>().is_err());
    }

    #[test]
    fn status_codes() {
        assert_eq!(StatusCode::OK.as_u16(), 200);
        assert!(StatusCode::OK.is_success());
        assert!(!StatusCode::NOT_MODIFIED.is_success());
        assert_eq!(StatusCode::NOT_MODIFIED.reason(), "Not Modified");
        assert_eq!(StatusCode::new(299).unwrap().reason(), "Unknown");
        assert!(StatusCode::new(42).is_none());
        assert!(StatusCode::new(600).is_none());
        assert_eq!(StatusCode::OK.to_string(), "200 OK");
    }

    #[test]
    fn versions() {
        assert_eq!("HTTP/1.1".parse::<HttpVersion>().unwrap(), HttpVersion::V11);
        assert_eq!("HTTP/1.0".parse::<HttpVersion>().unwrap(), HttpVersion::V10);
        assert!("HTTP/2".parse::<HttpVersion>().is_err());
        assert_eq!(HttpVersion::default(), HttpVersion::V11);
        assert_eq!(HttpVersion::V10.to_string(), "HTTP/1.0");
    }

    #[test]
    fn errors_display() {
        assert!(!InvalidToken.to_string().is_empty());
    }
}
