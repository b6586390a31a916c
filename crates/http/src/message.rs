//! HTTP request and response messages, with builders and wire
//! serialization.

use bytes::Bytes;

use mutcon_core::time::Timestamp;

use crate::date::format_http_date;
use crate::headers::{HeaderMap, HeaderName};
use crate::types::{HttpVersion, Method, StatusCode};

/// An HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    method: Method,
    version: HttpVersion,
    /// The fields, and the target as the map's lead: a parsed request is
    /// one copy of its head.
    headers: HeaderMap,
    body: Bytes,
}

impl Request {
    /// Starts building a `GET` request for `target`.
    pub fn get(target: impl AsRef<str>) -> RequestBuilder {
        RequestBuilder::new(Method::Get, target)
    }

    /// Starts building a request with an arbitrary method.
    pub fn builder(method: Method, target: impl AsRef<str>) -> RequestBuilder {
        RequestBuilder::new(method, target)
    }

    /// Assembles a request from already-parsed parts (used by the
    /// parser); the target is `headers`' lead.
    pub(crate) fn from_parts(
        method: Method,
        version: HttpVersion,
        headers: HeaderMap,
        body: Bytes,
    ) -> Request {
        Request {
            method,
            version,
            headers,
            body,
        }
    }

    /// The request method.
    pub fn method(&self) -> &Method {
        &self.method
    }

    /// The request target (path).
    pub fn target(&self) -> &str {
        self.headers.lead()
    }

    /// The protocol version.
    pub fn version(&self) -> HttpVersion {
        self.version
    }

    /// The headers.
    pub fn headers(&self) -> &HeaderMap {
        &self.headers
    }

    /// Mutable access to the headers. The map also carries the target:
    /// edit it, do not replace it.
    pub fn headers_mut(&mut self) -> &mut HeaderMap {
        &mut self.headers
    }

    /// The body.
    pub fn body(&self) -> &Bytes {
        &self.body
    }

    /// Whether the sender will keep the connection open for another
    /// request (see [`crate::connection::wants_keep_alive`]).
    pub fn wants_keep_alive(&self) -> bool {
        crate::connection::wants_keep_alive(self.version, &self.headers)
    }

    /// Serializes the request to its wire form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        out.extend_from_slice(self.method.as_str().as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.target().as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.version.as_str().as_bytes());
        out.extend_from_slice(b"\r\n");
        write_headers_and_body(&mut out, &self.headers, &self.body);
        out
    }
}

/// Builder for [`Request`].
#[derive(Debug, Clone)]
pub struct RequestBuilder {
    method: Method,
    version: HttpVersion,
    headers: HeaderMap,
    body: Bytes,
}

impl RequestBuilder {
    fn new(method: Method, target: impl AsRef<str>) -> Self {
        RequestBuilder {
            method,
            version: HttpVersion::V11,
            headers: HeaderMap::with_lead(target.as_ref()),
            body: Bytes::new(),
        }
    }

    /// Sets the protocol version (defaults to HTTP/1.1).
    pub fn version(mut self, version: HttpVersion) -> Self {
        self.version = version;
        self
    }

    /// Sets (replacing) a header.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid header token.
    pub fn header(mut self, name: &str, value: impl AsRef<str>) -> Self {
        self.headers.insert(name, value);
        self
    }

    /// Sets the `Host` header.
    pub fn host(self, host: impl AsRef<str>) -> Self {
        self.header(HeaderName::HOST, host)
    }

    /// Sets `If-Modified-Since` from a timestamp — the conditional poll at
    /// the heart of the consistency protocol (§5).
    pub fn if_modified_since(self, t: Timestamp) -> Self {
        self.header(HeaderName::IF_MODIFIED_SINCE, format_http_date(t))
    }

    /// Advertises `Connection: keep-alive` (persistent-connection
    /// clients, e.g. the proxy's origin pool).
    pub fn keep_alive(mut self) -> Self {
        crate::connection::set_keep_alive(&mut self.headers);
        self
    }

    /// Advertises `Connection: close` (last request on the connection).
    pub fn connection_close(mut self) -> Self {
        crate::connection::set_close(&mut self.headers);
        self
    }

    /// Sets the body.
    pub fn body(mut self, body: impl Into<Bytes>) -> Self {
        self.body = body.into();
        self
    }

    /// Finishes the request.
    pub fn build(self) -> Request {
        Request {
            method: self.method,
            version: self.version,
            headers: self.headers,
            body: self.body,
        }
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    version: HttpVersion,
    status: StatusCode,
    headers: HeaderMap,
    body: Bytes,
}

impl Response {
    /// Starts building a response with the given status.
    pub fn builder(status: StatusCode) -> ResponseBuilder {
        ResponseBuilder {
            version: HttpVersion::V11,
            status,
            headers: HeaderMap::new(),
            body: Bytes::new(),
        }
    }

    /// A ready-made `200 OK` builder.
    pub fn ok() -> ResponseBuilder {
        Response::builder(StatusCode::OK)
    }

    /// A ready-made `304 Not Modified` builder.
    pub fn not_modified() -> ResponseBuilder {
        Response::builder(StatusCode::NOT_MODIFIED)
    }

    /// Assembles a response from already-parsed parts (used by the
    /// parser).
    pub(crate) fn from_parts(
        version: HttpVersion,
        status: StatusCode,
        headers: HeaderMap,
        body: Bytes,
    ) -> Response {
        Response {
            version,
            status,
            headers,
            body,
        }
    }

    /// The protocol version.
    pub fn version(&self) -> HttpVersion {
        self.version
    }

    /// The status code.
    pub fn status(&self) -> StatusCode {
        self.status
    }

    /// The headers.
    pub fn headers(&self) -> &HeaderMap {
        &self.headers
    }

    /// Mutable access to the headers.
    pub fn headers_mut(&mut self) -> &mut HeaderMap {
        &mut self.headers
    }

    /// The body.
    pub fn body(&self) -> &Bytes {
        &self.body
    }

    /// Whether the sender will keep the connection open for another
    /// exchange (see [`crate::connection::wants_keep_alive`]).
    pub fn wants_keep_alive(&self) -> bool {
        crate::connection::wants_keep_alive(self.version, &self.headers)
    }

    /// The parsed `Last-Modified` header, if present and valid.
    pub fn last_modified(&self) -> Option<Timestamp> {
        crate::date::parse_http_date(self.headers.get(HeaderName::LAST_MODIFIED)?).ok()
    }

    /// Serializes the response to its wire form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        self.write_head(&mut out);
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    /// Serializes just the head — status line and headers (including the
    /// auto-derived `content-length`), *without* the terminating blank
    /// line or body.
    ///
    /// This is the zero-copy serving hook: a server can append further
    /// per-response headers, the blank line, and then hand the shared
    /// body slice to `writev` untouched. `write_head` + `"\r\n"` + body
    /// is byte-identical to [`Response::to_bytes`].
    pub fn write_head(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.version.as_str().as_bytes());
        out.push(b' ');
        push_decimal(out, u64::from(self.status.as_u16()));
        out.push(b' ');
        out.extend_from_slice(self.status.reason().as_bytes());
        out.extend_from_slice(b"\r\n");
        write_headers(out, &self.headers, self.body.len());
    }

    /// [`Response::write_head`] into a fresh buffer.
    pub fn head_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        self.write_head(&mut out);
        out
    }
}

/// Builder for [`Response`].
#[derive(Debug, Clone)]
pub struct ResponseBuilder {
    version: HttpVersion,
    status: StatusCode,
    headers: HeaderMap,
    body: Bytes,
}

impl ResponseBuilder {
    /// Sets the protocol version (defaults to HTTP/1.1).
    pub fn version(mut self, version: HttpVersion) -> Self {
        self.version = version;
        self
    }

    /// Sets (replacing) a header.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid header token.
    pub fn header(mut self, name: &str, value: impl AsRef<str>) -> Self {
        self.headers.insert(name, value);
        self
    }

    /// Sets `Last-Modified` from a timestamp.
    pub fn last_modified(self, t: Timestamp) -> Self {
        self.header(HeaderName::LAST_MODIFIED, format_http_date(t))
    }

    /// Advertises `Connection: keep-alive`.
    pub fn keep_alive(mut self) -> Self {
        crate::connection::set_keep_alive(&mut self.headers);
        self
    }

    /// Advertises `Connection: close` (the connection ends after this
    /// response).
    pub fn connection_close(mut self) -> Self {
        crate::connection::set_close(&mut self.headers);
        self
    }

    /// Sets the body.
    pub fn body(mut self, body: impl Into<Bytes>) -> Self {
        self.body = body.into();
        self
    }

    /// Finishes the response.
    pub fn build(self) -> Response {
        Response {
            version: self.version,
            status: self.status,
            headers: self.headers,
            body: self.body,
        }
    }
}

/// Writes headers (adding `Content-Length` when absent), the blank line,
/// and the body.
fn write_headers_and_body(out: &mut Vec<u8>, headers: &HeaderMap, body: &Bytes) {
    write_headers(out, headers, body.len());
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// Writes the header block, adding `content-length: body_len` when the
/// headers don't carry one and the body is non-empty. No terminating
/// blank line: callers may append more headers first.
fn write_headers(out: &mut Vec<u8>, headers: &HeaderMap, body_len: usize) {
    let mut wrote_length = false;
    for (name, value) in headers.iter() {
        wrote_length |= name == HeaderName::CONTENT_LENGTH;
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    if !wrote_length && body_len > 0 {
        out.extend_from_slice(b"content-length: ");
        push_decimal(out, body_len as u64);
        out.extend_from_slice(b"\r\n");
    }
}

/// Appends `n` in decimal — what `to_string` would, without the `String`.
pub fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder_and_accessors() {
        let req = Request::get("/a/b")
            .host("example.org")
            .if_modified_since(Timestamp::from_secs(784_111_777))
            .build();
        assert_eq!(req.method(), &Method::Get);
        assert_eq!(req.target(), "/a/b");
        assert_eq!(req.version(), HttpVersion::V11);
        assert_eq!(req.headers().get("host"), Some("example.org"));
        assert_eq!(
            req.headers().get("if-modified-since"),
            Some("Sun, 06 Nov 1994 08:49:37 GMT")
        );
        assert!(req.body().is_empty());
    }

    #[test]
    fn request_wire_format() {
        let req = Request::get("/x").host("h").build();
        let wire = String::from_utf8(req.to_bytes()).unwrap();
        assert!(wire.starts_with("GET /x HTTP/1.1\r\n"));
        assert!(wire.contains("host: h\r\n"));
        assert!(wire.ends_with("\r\n\r\n"));
    }

    #[test]
    fn body_gets_content_length() {
        let req = Request::builder(Method::Put, "/obj")
            .body(&b"hello"[..])
            .build();
        let wire = String::from_utf8(req.to_bytes()).unwrap();
        assert!(wire.contains("content-length: 5\r\n"));
        assert!(wire.ends_with("\r\n\r\nhello"));
    }

    #[test]
    fn explicit_content_length_not_duplicated() {
        let resp = Response::ok()
            .header("Content-Length", "3")
            .body(&b"abc"[..])
            .build();
        let wire = String::from_utf8(resp.to_bytes()).unwrap();
        assert_eq!(wire.matches("content-length").count(), 1);
    }

    #[test]
    fn response_builder_and_accessors() {
        let t = Timestamp::from_secs(784_111_777);
        let resp = Response::ok()
            .last_modified(t)
            .body(&b"data"[..])
            .build();
        assert_eq!(resp.status(), StatusCode::OK);
        assert_eq!(resp.last_modified(), Some(t));
        assert_eq!(&resp.body()[..], b"data");
        let wire = String::from_utf8(resp.to_bytes()).unwrap();
        assert!(wire.starts_with("HTTP/1.1 200 OK\r\n"));
    }

    #[test]
    fn not_modified_is_bodyless() {
        let resp = Response::not_modified().build();
        assert_eq!(resp.status(), StatusCode::NOT_MODIFIED);
        let wire = String::from_utf8(resp.to_bytes()).unwrap();
        assert!(wire.starts_with("HTTP/1.1 304 Not Modified\r\n"));
        assert!(!wire.contains("content-length"));
    }

    #[test]
    fn last_modified_absent_or_invalid() {
        let resp = Response::ok().build();
        assert_eq!(resp.last_modified(), None);
        let resp = Response::ok().header("Last-Modified", "garbage").build();
        assert_eq!(resp.last_modified(), None);
    }

    #[test]
    fn head_plus_body_matches_to_bytes() {
        let resp = Response::ok()
            .last_modified(Timestamp::from_secs(784_111_777))
            .header("x-object-value", "2.5")
            .body(&b"payload"[..])
            .build();
        let mut rebuilt = resp.head_bytes();
        rebuilt.extend_from_slice(b"\r\n");
        rebuilt.extend_from_slice(resp.body());
        assert_eq!(rebuilt, resp.to_bytes());
        // The head carries the derived content-length but no terminator.
        let head = String::from_utf8(resp.head_bytes()).unwrap();
        assert!(head.contains("content-length: 7\r\n"));
        assert!(!head.ends_with("\r\n\r\n"));
    }

    #[test]
    fn head_of_bodyless_response_omits_length() {
        let head = String::from_utf8(Response::not_modified().build().head_bytes()).unwrap();
        assert_eq!(head, "HTTP/1.1 304 Not Modified\r\n");
    }

    #[test]
    fn headers_mut_allows_in_place_edits() {
        let mut req = Request::get("/").build();
        req.headers_mut().insert("x-extra", "1");
        assert_eq!(req.headers().get("x-extra"), Some("1"));
        let mut resp = Response::ok().build();
        resp.headers_mut().insert("x-extra", "2");
        assert_eq!(resp.headers().get("x-extra"), Some("2"));
    }
}
