//! Identities of cached web objects.
//!
//! The paper models each web object `a` as a sequence of *versions* created
//! by updates at the origin server: the version number starts at zero when
//! the object is created and increments on every update (§2). A proxy's
//! cached copy `P_a(t)` is always some (possibly stale) server version
//! `S_a(t')`. An update trace numbers the versions it holds by index
//! (`UpdateTrace::version_index_at` in `mutcon-traces`); the instant a
//! version came into existence is the time of the update that created it.
//!
//! ```
//! use mutcon_core::object::ObjectId;
//!
//! let story = ObjectId::new("cnn/breaking-news");
//! assert_eq!(story.as_str(), "cnn/breaking-news");
//! ```

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// A cheap-to-clone, hashable identifier for a web object (e.g. a URL path).
///
/// Internally an `Arc<str>`, so cloning an id shared between the cache, the
/// scheduler and group registries never copies the text.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(Arc<str>);

impl ObjectId {
    /// Creates an identifier from anything string-like.
    pub fn new(id: impl AsRef<str>) -> Self {
        ObjectId(Arc::from(id.as_ref()))
    }

    /// The identifier text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ObjectId {
    fn from(s: &str) -> Self {
        ObjectId::new(s)
    }
}

impl From<String> for ObjectId {
    fn from(s: String) -> Self {
        ObjectId(Arc::from(s))
    }
}

impl AsRef<str> for ObjectId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for ObjectId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_id_round_trips() {
        let id = ObjectId::new("nyt/ap");
        assert_eq!(id.as_str(), "nyt/ap");
        assert_eq!(id.to_string(), "nyt/ap");
        assert_eq!(ObjectId::from("nyt/ap"), id);
        assert_eq!(ObjectId::from(String::from("nyt/ap")), id);
        let clone = id.clone();
        assert_eq!(clone, id);
    }

    #[test]
    fn object_id_borrows_as_str() {
        use std::collections::HashMap;
        let mut map: HashMap<ObjectId, u32> = HashMap::new();
        map.insert(ObjectId::new("a"), 1);
        assert_eq!(map.get("a"), Some(&1));
    }
}
