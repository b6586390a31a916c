//! Case-insensitive HTTP header storage.
//!
//! [`HeaderMap`] is an insertion-ordered multi-map: repeated `append`s of
//! the same name are preserved (as HTTP allows), `insert` replaces all
//! occurrences, and lookups compare names case-insensitively in place —
//! no look-up, insert or removal allocates for a name. Names are stored
//! lowercase; [`HeaderName`] holds the ones the workspace uses.

use crate::types::{count_lf, find_crlf, is_token_byte};

/// The header names used throughout the workspace, lowercase as the map
/// stores them.
#[derive(Debug)]
pub enum HeaderName {}

impl HeaderName {
    /// `Host`.
    pub(crate) const HOST: &'static str = "host";
    /// `Last-Modified`.
    pub const LAST_MODIFIED: &'static str = "last-modified";
    /// `If-Modified-Since`.
    pub const IF_MODIFIED_SINCE: &'static str = "if-modified-since";
    /// `Content-Length`.
    pub(crate) const CONTENT_LENGTH: &'static str = "content-length";
    /// `Content-Type`.
    pub const CONTENT_TYPE: &'static str = "content-type";
    /// `Transfer-Encoding`.
    pub(crate) const TRANSFER_ENCODING: &'static str = "transfer-encoding";
    /// `Connection`.
    pub const CONNECTION: &'static str = "connection";
    /// The paper's §5.1 modification-history extension header.
    pub(crate) const X_MODIFICATION_HISTORY: &'static str = "x-modification-history";
    /// Extension header carrying the object's numeric value (for
    /// value-domain objects served by the live origin).
    pub const X_OBJECT_VALUE: &'static str = "x-object-value";
    /// Extension header carrying the origin's version counter.
    pub const X_OBJECT_VERSION: &'static str = "x-object-version";
}

/// An insertion-ordered, case-insensitive header multi-map.
///
/// The map is one text buffer plus an index into it: every name (stored
/// lowercase) and value lives in `text`, and `fields` says where. `text`
/// only ever grows — `remove` drops index entries, `insert` appends — so
/// the index never needs fixing up, and a parsed message costs two
/// allocations however many headers it carries. A request keeps its
/// target in the same buffer (the *lead*), which is how the parser gets
/// away with copying a head exactly once.
#[derive(Debug, Clone, Default)]
pub struct HeaderMap {
    text: String,
    /// Where in `text` the owning message's lead sits (empty for
    /// responses and bare maps).
    lead: (usize, usize),
    fields: Vec<Field>,
}

/// One header field as offsets into [`HeaderMap::text`].
#[derive(Debug, Clone, Copy)]
struct Field {
    name: (usize, usize),
    value: (usize, usize),
}

impl HeaderMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        HeaderMap::default()
    }

    /// An empty map carrying `lead` (a request's target).
    pub(crate) fn with_lead(lead: &str) -> Self {
        HeaderMap {
            text: lead.to_owned(),
            lead: (0, lead.len()),
            fields: Vec::new(),
        }
    }

    /// Indexes a received header section. `head` is the section as it
    /// arrived, every line (the start line too) still ending in CRLF and
    /// the blank line dropped; header lines start at `fields_from`, and
    /// `lead` is the part of the start line the message keeps. `None` if
    /// a line has no colon or its name is not a token.
    pub(crate) fn from_head(head: &str, fields_from: usize, lead: (usize, usize)) -> Option<Self> {
        let mut map = HeaderMap {
            text: head.to_owned(),
            lead,
            fields: Vec::with_capacity(count_lf(&head.as_bytes()[fields_from..])),
        };
        let mut pos = fields_from;
        while pos < head.len() {
            let line = &head[pos..find_crlf(head.as_bytes(), pos)?];
            if !line.is_empty() {
                // `:` is not a token byte, so the first byte that is not
                // one must be the colon.
                let colon = line.bytes().position(|b| !is_token_byte(b))?;
                if colon == 0 || line.as_bytes()[colon] != b':' {
                    return None;
                }
                let raw = &line[colon + 1..];
                let value = raw.trim();
                let value_at = pos + colon + 1 + (raw.len() - raw.trim_start().len());
                map.text[pos..pos + colon].make_ascii_lowercase();
                map.fields.push(Field {
                    name: (pos, pos + colon),
                    value: (value_at, value_at + value.len()),
                });
            }
            pos += line.len() + 2;
        }
        Some(map)
    }

    /// The text the owning message keeps beside its fields.
    pub(crate) fn lead(&self) -> &str {
        &self.text[self.lead.0..self.lead.1]
    }

    /// First value for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.get_all(name).next()
    }

    /// All values for `name`, in insertion order.
    pub fn get_all<'a, 'n>(&'a self, name: &'n str) -> impl Iterator<Item = &'a str> + use<'a, 'n> {
        self.iter()
            .filter(move |(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// Whether any field named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Replaces all occurrences of `name` with a single field.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid header token. (Names that come
    /// from outside the program arrive through the parser, which refuses
    /// a bad one instead.)
    pub fn insert(&mut self, name: &str, value: impl AsRef<str>) {
        self.remove(name);
        self.append(name, value);
    }

    /// Appends a field without touching existing ones with the same name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid header token.
    pub fn append(&mut self, name: &str, value: impl AsRef<str>) {
        let value = value.as_ref();
        assert!(
            !name.is_empty() && name.bytes().all(is_token_byte),
            "invalid header name: {name:?}"
        );
        let at = self.text.len();
        self.text.push_str(name);
        self.text[at..].make_ascii_lowercase();
        self.text.push_str(value);
        let mid = at + name.len();
        self.fields.push(Field {
            name: (at, mid),
            value: (mid, mid + value.len()),
        });
    }

    /// Removes all occurrences of `name`; returns how many were removed.
    pub fn remove(&mut self, name: &str) -> usize {
        let before = self.fields.len();
        let text = &self.text;
        self.fields
            .retain(|f| !text[f.name.0..f.name.1].eq_ignore_ascii_case(name));
        before - self.fields.len()
    }

    /// Iterates over `(name, value)` pairs in insertion order; names are
    /// lowercase.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        let text = &self.text;
        self.fields
            .iter()
            .map(move |f| (&text[f.name.0..f.name.1], &text[f.value.0..f.value.1]))
    }
}

/// Two maps are equal when they hold the same fields in the same order
/// (and the same lead), wherever those sit in their buffers.
impl PartialEq for HeaderMap {
    fn eq(&self, other: &HeaderMap) -> bool {
        self.lead() == other.lead() && self.iter().eq(other.iter())
    }
}

impl Eq for HeaderMap {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_replaces_append_accumulates() {
        let mut h = HeaderMap::new();
        h.append("Set-Thing", "a");
        h.append("set-thing", "b");
        assert_eq!(h.get_all("SET-THING").collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(h.fields.len(), 2);
        h.insert("Set-Thing", "c");
        assert_eq!(h.get_all("set-thing").collect::<Vec<_>>(), vec!["c"]);
        assert_eq!(h.fields.len(), 1);
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
        assert_eq!(h.fields.len(), 1);
    }

    #[test]
    fn iteration_preserves_order() {
        let mut h = HeaderMap::new();
        h.append("b", "2");
        h.append("a", "1");
        let names: Vec<_> = h.iter().map(|(n, _)| n.to_owned()).collect();
        assert_eq!(names, vec!["b", "a"]);
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid header name")]
    fn insert_panics_on_bad_name() {
        let mut h = HeaderMap::new();
        h.insert("bad name", "v");
    }
}
