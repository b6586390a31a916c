//! The paper's proposed HTTP/1.1 modification history (§5.1).
//!
//! Plain HTTP reports only the *most recent* modification time, which
//! makes the Figure 1(b) violation (several updates between polls, the
//! first of them too old) undetectable at the proxy. §5.1 proposes that
//! the origin attach `X-Modification-History`, the recent update instants
//! of the object, letting the proxy compute violations exactly and feed
//! its rate estimators with real inter-update gaps. It is implemented
//! here over a standard user-defined header.
//!
//! History timestamps travel as integer milliseconds since the Unix epoch:
//! unambiguous, compact, and — unlike IMF-fixdate — free of the one-second
//! truncation that would blur closely spaced updates.

use mutcon_core::time::Timestamp;

use crate::headers::{HeaderMap, HeaderName};

/// Encodes update instants (milliseconds since the epoch) as an
/// `X-Modification-History` value: `"t1, t2, t3"`, oldest first.
pub(crate) fn encode_modification_history(history: &[Timestamp]) -> String {
    let mut out = String::with_capacity(history.len() * 14);
    for (i, t) in history.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&t.as_millis().to_string());
    }
    out
}

/// Decodes an `X-Modification-History` value. Returns `None` if any entry
/// is not a valid integer.
pub(crate) fn decode_modification_history(value: &str) -> Option<Vec<Timestamp>> {
    let trimmed = value.trim();
    if trimmed.is_empty() {
        return Some(Vec::new());
    }
    trimmed
        .split(',')
        .map(|part| part.trim().parse::<u64>().ok().map(Timestamp::from_millis))
        .collect()
}

/// Attaches a modification history to a header map.
pub fn set_modification_history(headers: &mut HeaderMap, history: &[Timestamp]) {
    headers.insert(
        HeaderName::X_MODIFICATION_HISTORY,
        encode_modification_history(history),
    );
}

/// Reads a modification history from a header map, if present and valid.
pub fn modification_history(headers: &HeaderMap) -> Option<Vec<Timestamp>> {
    decode_modification_history(headers.get(HeaderName::X_MODIFICATION_HISTORY)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Timestamp {
        Timestamp::from_millis(v)
    }

    #[test]
    fn history_round_trips() {
        let history = vec![ms(1_000), ms(2_500), ms(99_999_999_999)];
        let encoded = encode_modification_history(&history);
        assert_eq!(encoded, "1000, 2500, 99999999999");
        assert_eq!(decode_modification_history(&encoded).unwrap(), history);
    }

    #[test]
    fn empty_history() {
        assert_eq!(encode_modification_history(&[]), "");
        assert_eq!(decode_modification_history("").unwrap(), Vec::new());
        assert_eq!(decode_modification_history("  ").unwrap(), Vec::new());
    }

    #[test]
    fn bad_history_is_none() {
        assert_eq!(decode_modification_history("12, abc"), None);
        assert_eq!(decode_modification_history("12,,14"), None);
        assert_eq!(decode_modification_history("-5"), None);
    }

    #[test]
    fn history_via_headers() {
        let mut headers = HeaderMap::new();
        assert_eq!(modification_history(&headers), None);
        set_modification_history(&mut headers, &[ms(5), ms(10)]);
        assert_eq!(modification_history(&headers), Some(vec![ms(5), ms(10)]));
    }
}
