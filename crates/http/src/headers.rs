//! Case-insensitive HTTP header storage.
//!
//! [`HeaderMap`] is an insertion-ordered multi-map: repeated `append`s of
//! the same name are preserved (as HTTP allows), `insert` replaces all
//! occurrences, and lookups are case-insensitive via the normalized
//! [`HeaderName`].

use std::fmt;
use std::str::FromStr;

use crate::types::is_token_byte;

/// A validated, lowercase-normalized header name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HeaderName(String);

impl HeaderName {
    /// Standard names used throughout the workspace.
    pub const HOST: &'static str = "host";
    /// `Last-Modified`.
    pub const LAST_MODIFIED: &'static str = "last-modified";
    /// `If-Modified-Since`.
    pub const IF_MODIFIED_SINCE: &'static str = "if-modified-since";
    /// `Content-Length`.
    pub const CONTENT_LENGTH: &'static str = "content-length";
    /// `Content-Type`.
    pub const CONTENT_TYPE: &'static str = "content-type";
    /// `Transfer-Encoding`.
    pub const TRANSFER_ENCODING: &'static str = "transfer-encoding";
    /// `Cache-Control`.
    pub const CACHE_CONTROL: &'static str = "cache-control";
    /// `Date`.
    pub const DATE: &'static str = "date";
    /// `Connection`.
    pub const CONNECTION: &'static str = "connection";
    /// The paper's §5.1 modification-history extension header.
    pub const X_MODIFICATION_HISTORY: &'static str = "x-modification-history";
    /// Extension header carrying the object's numeric value (for
    /// value-domain objects served by the live origin).
    pub const X_OBJECT_VALUE: &'static str = "x-object-value";
    /// Extension header carrying the origin's version counter.
    pub const X_OBJECT_VERSION: &'static str = "x-object-version";

    /// Creates a header name, validating RFC 7230 token syntax and
    /// normalizing to lowercase.
    pub fn new(name: &str) -> Result<HeaderName, InvalidHeaderName> {
        if name.is_empty() || !name.bytes().all(is_token_byte) {
            return Err(InvalidHeaderName(name.to_owned()));
        }
        Ok(HeaderName(name.to_ascii_lowercase()))
    }

    /// The normalized (lowercase) name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for HeaderName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl FromStr for HeaderName {
    type Err = InvalidHeaderName;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        HeaderName::new(s)
    }
}

/// Error returned for malformed header names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidHeaderName(String);

impl fmt::Display for InvalidHeaderName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid header name: {:?}", self.0)
    }
}

impl std::error::Error for InvalidHeaderName {}

/// An insertion-ordered, case-insensitive header multi-map.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HeaderMap {
    entries: Vec<(HeaderName, String)>,
}

impl HeaderMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        HeaderMap::default()
    }

    /// Number of header fields (counting repeats).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds no fields.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// First value for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.entries
            .iter()
            .find(|(n, _)| n.0 == name)
            .map(|(_, v)| v.as_str())
    }

    /// All values for `name`, in insertion order.
    pub fn get_all<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a str> + 'a {
        let name = name.to_ascii_lowercase();
        self.entries
            .iter()
            .filter(move |(n, _)| n.0 == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether any field named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Replaces all occurrences of `name` with a single field.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid header token; use
    /// [`HeaderName::new`] + [`HeaderMap::insert_name`] for fallible
    /// insertion of untrusted names.
    pub fn insert(&mut self, name: &str, value: impl Into<String>) {
        let name = HeaderName::new(name)
            .unwrap_or_else(|e| panic!("{e} (use insert_name for untrusted input)"));
        self.insert_name(name, value);
    }

    /// Replaces all occurrences of a pre-validated name.
    pub fn insert_name(&mut self, name: HeaderName, value: impl Into<String>) {
        self.entries.retain(|(n, _)| *n != name);
        self.entries.push((name, value.into()));
    }

    /// Appends a field without touching existing ones with the same name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid header token.
    pub fn append(&mut self, name: &str, value: impl Into<String>) {
        let name = HeaderName::new(name)
            .unwrap_or_else(|e| panic!("{e} (use append_name for untrusted input)"));
        self.append_name(name, value);
    }

    /// Appends a field with a pre-validated name.
    pub fn append_name(&mut self, name: HeaderName, value: impl Into<String>) {
        self.entries.push((name, value.into()));
    }

    /// Removes all occurrences of `name`; returns how many were removed.
    pub fn remove(&mut self, name: &str) -> usize {
        let name = name.to_ascii_lowercase();
        let before = self.entries.len();
        self.entries.retain(|(n, _)| n.0 != name);
        before - self.entries.len()
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&HeaderName, &str)> + '_ {
        self.entries.iter().map(|(n, v)| (n, v.as_str()))
    }
}

impl<'a> IntoIterator for &'a HeaderMap {
    type Item = (&'a HeaderName, &'a str);
    type IntoIter = std::vec::IntoIter<(&'a HeaderName, &'a str)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter().collect::<Vec<_>>().into_iter()
    }
}

impl FromIterator<(HeaderName, String)> for HeaderMap {
    fn from_iter<I: IntoIterator<Item = (HeaderName, String)>>(iter: I) -> Self {
        HeaderMap {
            entries: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_normalize_case() {
        let a = HeaderName::new("Last-Modified").unwrap();
        let b = HeaderName::new("LAST-MODIFIED").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "last-modified");
        assert_eq!(a.to_string(), "last-modified");
        assert_eq!("X-Foo".parse::<HeaderName>().unwrap().as_str(), "x-foo");
    }

    #[test]
    fn names_reject_invalid() {
        assert!(HeaderName::new("").is_err());
        assert!(HeaderName::new("bad header").is_err());
        assert!(HeaderName::new("bad:header").is_err());
        assert!(HeaderName::new("bad\r\nheader").is_err());
        let e = HeaderName::new("no good").unwrap_err();
        assert!(e.to_string().contains("no good"));
    }

    #[test]
    fn insert_replaces_append_accumulates() {
        let mut h = HeaderMap::new();
        h.append("Set-Thing", "a");
        h.append("set-thing", "b");
        assert_eq!(h.get_all("SET-THING").collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(h.len(), 2);
        h.insert("Set-Thing", "c");
        assert_eq!(h.get_all("set-thing").collect::<Vec<_>>(), vec!["c"]);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn get_is_case_insensitive() {
        let mut h = HeaderMap::new();
        h.insert("Content-Length", "42");
        assert_eq!(h.get("content-length"), Some("42"));
        assert_eq!(h.get("CONTENT-LENGTH"), Some("42"));
        assert_eq!(h.get("missing"), None);
        assert!(h.contains("Content-Length"));
        assert!(!h.contains("nope"));
    }

    #[test]
    fn remove_reports_count() {
        let mut h = HeaderMap::new();
        h.append("a", "1");
        h.append("A", "2");
        h.append("b", "3");
        assert_eq!(h.remove("a"), 2);
        assert_eq!(h.remove("a"), 0);
        assert_eq!(h.len(), 1);
        assert!(!h.is_empty());
    }

    #[test]
    fn iteration_preserves_order() {
        let mut h = HeaderMap::new();
        h.append("b", "2");
        h.append("a", "1");
        let names: Vec<_> = h.iter().map(|(n, _)| n.as_str().to_owned()).collect();
        assert_eq!(names, vec!["b", "a"]);
        let pairs: Vec<_> = (&h).into_iter().collect();
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid header name")]
    fn insert_panics_on_bad_name() {
        let mut h = HeaderMap::new();
        h.insert("bad name", "v");
    }

    #[test]
    fn collect_from_pairs() {
        let h: HeaderMap = [(HeaderName::new("x").unwrap(), String::from("1"))]
            .into_iter()
            .collect();
        assert_eq!(h.get("x"), Some("1"));
    }
}
