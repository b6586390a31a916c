//! Trace persistence: a from-scratch TSV codec, the dependency-light
//! interchange format (what the paper's `wget`-style collection scripts
//! would have written):
//!
//! ```text
//! # mutcon-trace v1
//! # name: AT&T
//! # start_ms: 0
//! # end_ms: 10800000
//! 0\t36.1500
//! 9858\t36.1621
//! ```
//!
//! One line per event: milliseconds-since-start, then the value or `-`
//! for temporal (value-less) events.

use std::fmt;

use mutcon_core::time::Timestamp;
use mutcon_core::value::Value;

use crate::model::{TraceError, UpdateEvent, UpdateTrace};

/// Error returned when trace text cannot be decoded.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceIoError {
    /// The `# mutcon-trace v1` magic line is missing or wrong.
    BadMagic,
    /// A required header (`name`, `start_ms`, `end_ms`) is missing.
    MissingHeader(&'static str),
    /// A line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
    },
    /// The decoded events violate trace invariants.
    Invalid(TraceError),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::BadMagic => f.write_str("missing `# mutcon-trace v1` magic line"),
            TraceIoError::MissingHeader(h) => write!(f, "missing header `{h}`"),
            TraceIoError::BadLine { line } => write!(f, "cannot parse line {line}"),
            TraceIoError::Invalid(e) => write!(f, "invalid trace: {e}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for TraceIoError {
    fn from(e: TraceError) -> Self {
        TraceIoError::Invalid(e)
    }
}

/// Encodes a trace as TSV text.
pub fn to_tsv(trace: &UpdateTrace) -> String {
    let mut out = String::with_capacity(64 + trace.events().len() * 16);
    out.push_str("# mutcon-trace v1\n");
    out.push_str(&format!("# name: {}\n", trace.name()));
    out.push_str(&format!("# start_ms: {}\n", trace.start().as_millis()));
    out.push_str(&format!("# end_ms: {}\n", trace.end().as_millis()));
    for e in trace.events() {
        let rel = e.at.as_millis() - trace.start().as_millis();
        match e.value {
            // f64's Display emits the shortest string that parses back to
            // the same bits, so valued traces round-trip exactly.
            Some(v) => out.push_str(&format!("{rel}\t{}\n", v.as_f64())),
            None => out.push_str(&format!("{rel}\t-\n")),
        }
    }
    out
}

/// Decodes a trace from TSV text.
///
/// # Errors
///
/// Returns [`TraceIoError`] on malformed text or invariant violations.
pub fn from_tsv(text: &str) -> Result<UpdateTrace, TraceIoError> {
    let mut lines = text.lines().enumerate();
    let (_, magic) = lines.next().ok_or(TraceIoError::BadMagic)?;
    if magic.trim() != "# mutcon-trace v1" {
        return Err(TraceIoError::BadMagic);
    }

    let mut name: Option<String> = None;
    let mut start: Option<u64> = None;
    let mut end: Option<u64> = None;
    let mut events: Vec<UpdateEvent> = Vec::new();

    for (idx, raw) in lines {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('#') {
            let header = header.trim();
            if let Some(v) = header.strip_prefix("name:") {
                name = Some(v.trim().to_owned());
            } else if let Some(v) = header.strip_prefix("start_ms:") {
                start = v.trim().parse().ok();
            } else if let Some(v) = header.strip_prefix("end_ms:") {
                end = v.trim().parse().ok();
            }
            continue;
        }
        let base = start.ok_or(TraceIoError::MissingHeader("start_ms"))?;
        let bad = || TraceIoError::BadLine { line: idx + 1 };
        let (at_str, val_str) = line.split_once('\t').ok_or_else(bad)?;
        let rel: u64 = at_str.trim().parse().map_err(|_| bad())?;
        let at = Timestamp::from_millis(base + rel);
        let value = match val_str.trim() {
            "-" => None,
            v => Some(
                v.parse::<f64>()
                    .ok()
                    .and_then(Value::checked_new)
                    .ok_or_else(bad)?,
            ),
        };
        events.push(UpdateEvent { at, value });
    }

    let name = name.ok_or(TraceIoError::MissingHeader("name"))?;
    let start = Timestamp::from_millis(start.ok_or(TraceIoError::MissingHeader("start_ms"))?);
    let end = Timestamp::from_millis(end.ok_or(TraceIoError::MissingHeader("end_ms"))?);
    Ok(UpdateTrace::new(name, start, end, events)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::NamedTrace;
    use crate::model::UpdateEvent;
    use mutcon_core::time::Duration;

    fn secs(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn valued_trace() -> UpdateTrace {
        UpdateTrace::new(
            "AT&T",
            secs(0),
            secs(100),
            vec![
                UpdateEvent::valued(secs(0), Value::new(36.15)),
                UpdateEvent::valued(secs(10), Value::new(36.25)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn tsv_round_trips_valued() {
        let t = valued_trace();
        let text = to_tsv(&t);
        assert!(text.starts_with("# mutcon-trace v1\n"));
        let back = from_tsv(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn tsv_round_trips_temporal() {
        let t = UpdateTrace::new(
            "news",
            secs(5),
            secs(50),
            vec![
                UpdateEvent::temporal(secs(5)),
                UpdateEvent::temporal(secs(20)),
            ],
        )
        .unwrap();
        let back = from_tsv(&to_tsv(&t)).unwrap();
        assert_eq!(back, t);
        assert!(!back.is_valued());
    }

    #[test]
    fn tsv_round_trips_catalog_trace() {
        let t = NamedTrace::Att.generate();
        let back = from_tsv(&to_tsv(&t)).unwrap();
        assert_eq!(back.update_count(), t.update_count());
        assert_eq!(back.value_at(secs(3_000)), t.value_at(secs(3_000)));
    }

    #[test]
    fn tsv_rejects_bad_input() {
        assert!(matches!(from_tsv(""), Err(TraceIoError::BadMagic)));
        assert!(matches!(from_tsv("garbage\n"), Err(TraceIoError::BadMagic)));
        let no_name = "# mutcon-trace v1\n# start_ms: 0\n# end_ms: 10\n";
        assert!(matches!(
            from_tsv(no_name),
            Err(TraceIoError::MissingHeader("name"))
        ));
        let bad_line =
            "# mutcon-trace v1\n# name: x\n# start_ms: 0\n# end_ms: 10\nnot-a-number\t-\n";
        assert!(matches!(
            from_tsv(bad_line),
            Err(TraceIoError::BadLine { line: 5 })
        ));
        let bad_value = "# mutcon-trace v1\n# name: x\n# start_ms: 0\n# end_ms: 10\n0\tNaN\n";
        assert!(matches!(
            from_tsv(bad_value),
            Err(TraceIoError::BadLine { .. })
        ));
        let event_before_header =
            "# mutcon-trace v1\n0\t-\n# name: x\n# start_ms: 0\n# end_ms: 10\n";
        assert!(matches!(
            from_tsv(event_before_header),
            Err(TraceIoError::MissingHeader("start_ms"))
        ));
    }

    #[test]
    fn tsv_rejects_invalid_trace_structure() {
        let out_of_order =
            "# mutcon-trace v1\n# name: x\n# start_ms: 0\n# end_ms: 10000\n5000\t-\n1000\t-\n";
        assert!(matches!(
            from_tsv(out_of_order),
            Err(TraceIoError::Invalid(_))
        ));
    }

    #[test]
    fn error_display() {
        assert!(TraceIoError::BadMagic.to_string().contains("magic"));
        assert!(TraceIoError::MissingHeader("name")
            .to_string()
            .contains("name"));
        assert!(TraceIoError::BadLine { line: 3 }.to_string().contains('3'));
    }

    /// TSV is lossless for generated valued traces of any size.
    #[test]
    fn tsv_round_trips_generated_traces() {
        for seed in 0..256 {
            let mut rng = mutcon_sim::rng::SimRng::seed_from_u64(seed);
            let updates = rng.uniform_u64(1, 100) as usize;
            let t = crate::generator::StockTraceBuilder::new(
                "codec",
                Duration::from_mins(30),
                updates,
                30.0,
                40.0,
            )
            .seed(rng.uniform_u64(0, u64::MAX))
            .build()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let back = from_tsv(&to_tsv(&t)).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(back, t, "seed {seed}");
        }
    }
}
