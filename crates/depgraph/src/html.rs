//! A small, dependency-free HTML link extractor.
//!
//! This is not a general HTML parser — it is the subset a proxy needs to
//! deduce syntactic relationships (§5.2): scan a document for tags that
//! reference other web objects and classify each reference as *embedded*
//! (fetched automatically as part of rendering: images, scripts,
//! stylesheets, frames, media) or a plain *anchor* (navigation link).
//! Embedded references are what make a page and its sub-objects a
//! mutual-consistency group.
//!
//! The tokenizer handles attribute quoting styles (double, single,
//! unquoted), is case-insensitive in tag/attribute names, and skips
//! comments and CDATA-free script bodies well enough for real-world news
//! pages of the paper's era.

use std::fmt;

/// How a link participates in the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Fetched automatically when rendering the page (`img`, `script`,
    /// `link rel=stylesheet`, `iframe`, `frame`, `embed`, `source`,
    /// `audio`, `video`, `object data=`).
    Embedded,
    /// A navigation link (`a href`, `area href`).
    Anchor,
}

/// One reference extracted from a document.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ExtractedLink {
    /// The raw attribute value (un-resolved URL).
    pub url: String,
    /// Embedded object or navigation anchor.
    pub kind: LinkKind,
    /// The tag it came from, lowercased (`"img"`, `"a"`, …).
    pub tag: String,
}

/// Extracts all object references from an HTML document, in document
/// order. Duplicate URLs are preserved (callers dedup as needed).
pub fn extract_links(html: &str) -> Vec<ExtractedLink> {
    Scanner::new(html).run()
}

struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
    out: Vec<ExtractedLink>,
}

impl<'a> Scanner<'a> {
    fn new(html: &'a str) -> Self {
        Scanner {
            bytes: html.as_bytes(),
            pos: 0,
            out: Vec::new(),
        }
    }

    fn run(mut self) -> Vec<ExtractedLink> {
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos] != b'<' {
                self.pos += 1;
                continue;
            }
            if self.starts_with("<!--") {
                self.skip_comment();
                continue;
            }
            self.scan_tag();
        }
        self.out
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_comment(&mut self) {
        // Skip past "-->"; unterminated comments swallow the rest.
        match find_sub(&self.bytes[self.pos + 4..], b"-->") {
            Some(rel) => self.pos += 4 + rel + 3,
            None => self.pos = self.bytes.len(),
        }
    }

    fn scan_tag(&mut self) {
        let start = self.pos + 1;
        let Some(rel_end) = self.bytes[start..].iter().position(|&b| b == b'>') else {
            self.pos = self.bytes.len();
            return;
        };
        let inner = &self.bytes[start..start + rel_end];
        self.pos = start + rel_end + 1;

        // Closing tags, doctype and processing instructions carry no links.
        if inner.first().is_some_and(|&b| b == b'/' || b == b'!' || b == b'?') {
            return;
        }
        let Ok(inner) = std::str::from_utf8(inner) else {
            return;
        };
        let mut parts = TagParts::parse(inner);
        let tag = parts.name.to_ascii_lowercase();

        let (attr, kind): (&str, LinkKind) = match tag.as_str() {
            "img" | "script" | "iframe" | "frame" | "embed" | "source" | "audio" | "video"
            | "input" => ("src", LinkKind::Embedded),
            "link" => {
                // Only resource-ish rels count as embedded.
                let rel = parts.attr("rel").unwrap_or_default().to_ascii_lowercase();
                if rel.is_empty()
                    || rel.contains("stylesheet")
                    || rel.contains("icon")
                    || rel.contains("preload")
                {
                    ("href", LinkKind::Embedded)
                } else {
                    return;
                }
            }
            "object" => ("data", LinkKind::Embedded),
            "a" | "area" => ("href", LinkKind::Anchor),
            _ => return,
        };

        if let Some(url) = parts.attr(attr) {
            let url = url.trim();
            if !url.is_empty() {
                self.out.push(ExtractedLink {
                    url: url.to_owned(),
                    kind,
                    tag,
                });
            }
        }
    }
}

fn find_sub(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The name and attributes of one tag's interior text.
struct TagParts<'a> {
    name: &'a str,
    rest: &'a str,
}

impl<'a> TagParts<'a> {
    fn parse(inner: &'a str) -> Self {
        let inner = inner.trim_end_matches('/');
        let name_end = inner
            .find(|c: char| c.is_ascii_whitespace())
            .unwrap_or(inner.len());
        TagParts {
            name: &inner[..name_end],
            rest: &inner[name_end..],
        }
    }

    /// Finds an attribute value, handling `key="v"`, `key='v'`, `key=v`
    /// and valueless attributes. Attribute names are case-insensitive.
    fn attr(&mut self, want: &str) -> Option<&'a str> {
        let mut rest = self.rest;
        loop {
            rest = rest.trim_start();
            if rest.is_empty() {
                return None;
            }
            // Attribute name.
            let name_end = rest
                .find(|c: char| c.is_ascii_whitespace() || c == '=')
                .unwrap_or(rest.len());
            let (name, after) = rest.split_at(name_end);
            let after = after.trim_start();
            let Some(after_eq) = after.strip_prefix('=') else {
                // Valueless attribute; move on.
                rest = after;
                continue;
            };
            let after_eq = after_eq.trim_start();
            let (value, remaining) = if let Some(q) = after_eq.strip_prefix('"') {
                match q.find('"') {
                    Some(end) => (&q[..end], &q[end + 1..]),
                    None => (q, ""),
                }
            } else if let Some(q) = after_eq.strip_prefix('\'') {
                match q.find('\'') {
                    Some(end) => (&q[..end], &q[end + 1..]),
                    None => (q, ""),
                }
            } else {
                let end = after_eq
                    .find(|c: char| c.is_ascii_whitespace())
                    .unwrap_or(after_eq.len());
                (&after_eq[..end], &after_eq[end..])
            };
            if name.eq_ignore_ascii_case(want) {
                return Some(value);
            }
            rest = remaining;
        }
    }
}

impl fmt::Display for ExtractedLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{} {:?}>", self.tag, self.url)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutcon_sim::rng::SimRng;

    fn urls(html: &str, kind: LinkKind) -> Vec<String> {
        extract_links(html)
            .into_iter()
            .filter(|l| l.kind == kind)
            .map(|l| l.url)
            .collect()
    }

    #[test]
    fn extracts_images_and_scripts() {
        let html = r#"<html><body>
            <img src="photo.jpg" alt="x">
            <script src='/js/app.js'></script>
            <IMG SRC=banner.gif>
        </body></html>"#;
        assert_eq!(
            urls(html, LinkKind::Embedded),
            vec!["photo.jpg", "/js/app.js", "banner.gif"]
        );
    }

    #[test]
    fn extracts_anchors_separately() {
        let html = r#"<a href="/other.html">go</a> <area href="map.html">"#;
        assert_eq!(urls(html, LinkKind::Anchor), vec!["/other.html", "map.html"]);
        assert!(urls(html, LinkKind::Embedded).is_empty());
    }

    #[test]
    fn link_rel_filtering() {
        let html = r#"
            <link rel="stylesheet" href="style.css">
            <link rel="icon" href="fav.ico">
            <link rel="canonical" href="http://example.org/page">
            <link href="bare.css">
        "#;
        assert_eq!(
            urls(html, LinkKind::Embedded),
            vec!["style.css", "fav.ico", "bare.css"]
        );
    }

    #[test]
    fn media_and_frames() {
        let html = r#"
            <iframe src="inner.html"></iframe>
            <video src="clip.mov"></video>
            <audio src="news.au"></audio>
            <embed src="anim.swf">
            <object data="applet.class"></object>
            <source src="clip.webm">
        "#;
        assert_eq!(
            urls(html, LinkKind::Embedded),
            vec!["inner.html", "clip.mov", "news.au", "anim.swf", "applet.class", "clip.webm"]
        );
    }

    #[test]
    fn skips_comments() {
        let html = r#"<!-- <img src="ghost.png"> --><img src="real.png">"#;
        assert_eq!(urls(html, LinkKind::Embedded), vec!["real.png"]);
    }

    #[test]
    fn handles_attribute_order_and_noise() {
        let html = r#"<img width="10" data-x="src" src="pic.png" height="20">"#;
        assert_eq!(urls(html, LinkKind::Embedded), vec!["pic.png"]);
    }

    #[test]
    fn valueless_attributes_do_not_confuse() {
        let html = r#"<script async src="a.js"></script><img hidden src=b.png>"#;
        assert_eq!(urls(html, LinkKind::Embedded), vec!["a.js", "b.png"]);
    }

    #[test]
    fn self_closing_and_empty_urls() {
        let html = r#"<img src="x.png"/><img src="">  <img src="  ">"#;
        assert_eq!(urls(html, LinkKind::Embedded), vec!["x.png"]);
    }

    #[test]
    fn ignores_closing_and_doctype_tags() {
        let html = "<!DOCTYPE html><html></html><?xml version=\"1.0\"?>";
        assert!(extract_links(html).is_empty());
    }

    #[test]
    fn survives_malformed_input() {
        for html in [
            "<",
            "<img src=\"unterminated",
            "<img src='x.png'",
            "<!-- never closed",
            "<a href=>",
            "text only",
            "",
        ] {
            let _ = extract_links(html); // must not panic
        }
    }

    #[test]
    fn preserves_document_order_and_duplicates() {
        let html = r#"<img src="a.png"><img src="b.png"><img src="a.png">"#;
        assert_eq!(urls(html, LinkKind::Embedded), vec!["a.png", "b.png", "a.png"]);
    }

    #[test]
    fn display_form() {
        let l = ExtractedLink {
            url: "x.png".into(),
            kind: LinkKind::Embedded,
            tag: "img".into(),
        };
        assert_eq!(l.to_string(), "<img \"x.png\">");
    }

    /// Up to `max` (at least one) bytes of `alphabet`, as text.
    fn word(rng: &mut SimRng, max: u64, alphabet: &[u8]) -> String {
        (0..rng.uniform_u64(1, max + 1))
            .map(|_| *rng.pick(alphabet) as char)
            .collect()
    }

    /// Neither random text (any non-control character, with the ones
    /// markup hangs on over-drawn) nor random tag soup panics the
    /// tokenizer, and no extracted URL is blank.
    #[test]
    fn random_text_and_tag_soup_never_panic() {
        const MARKUP: &[char] = &[
            '<', '>', '"', '\'', '=', '/', '!', '-', ' ', 's', 'r', 'c', '\n',
        ];
        const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
        for seed in 0..10_000 {
            let mut rng = SimRng::seed_from_u64(seed);
            let text: String = (0..rng.uniform_u64(0, 600))
                .map(|_| {
                    if rng.chance(0.5) {
                        *rng.pick(MARKUP)
                    } else {
                        char::from_u32(rng.uniform_u64(0x20, 0x3_0000) as u32)
                            .filter(|c| !c.is_control())
                            .unwrap_or('<')
                    }
                })
                .collect();
            // Tags like `<img src="a/b.png">`, any part of them missing.
            let mut soup = String::new();
            for _ in 0..rng.uniform_u64(0, 40) {
                soup += &format!("<{}", word(&mut rng, 6, LOWER));
                if rng.chance(0.5) {
                    let name = word(&mut rng, 4, LOWER);
                    let value = if rng.chance(0.2) {
                        String::new()
                    } else {
                        word(&mut rng, 10, b"abcdefghijklmnopqrstuvwxyz./")
                    };
                    let [open, close] = [(); 2].map(|_| if rng.chance(0.5) { "\"" } else { "" });
                    soup += &format!(" {name}={open}{value}{close}");
                }
                if rng.chance(0.5) {
                    soup.push('>');
                }
            }
            for html in [text, soup] {
                for link in extract_links(&html) {
                    assert!(
                        !link.url.trim().is_empty(),
                        "seed {seed}: blank URL from {html:?}"
                    );
                }
            }
        }
    }
}
