//! HTTP-date (IMF-fixdate) handling, built from scratch.
//!
//! `Last-Modified` and `If-Modified-Since` carry timestamps in the
//! RFC 7231 IMF-fixdate format — `Sun, 06 Nov 1994 08:49:37 GMT` — with
//! one-second resolution. This module converts between that format and
//! the workspace's millisecond [`Timestamp`] (interpreted as milliseconds
//! since the Unix epoch), using Howard Hinnant's `civil_from_days` /
//! `days_from_civil` algorithms for the calendar math.
//!
//! ```
//! use mutcon_http::date::{format_http_date, parse_http_date};
//! use mutcon_core::time::Timestamp;
//!
//! let t = Timestamp::from_secs(784_111_777);
//! let s = format_http_date(t);
//! assert_eq!(s, "Sun, 06 Nov 1994 08:49:37 GMT");
//! assert_eq!(parse_http_date(&s).unwrap(), t);
//! ```

use std::fmt;

use mutcon_core::time::Timestamp;

use crate::message::push_decimal;

const DAY_NAMES: [&str; 7] = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"];
const MONTH_NAMES: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// Error returned when a string is not a valid IMF-fixdate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidHttpDate(String);

impl fmt::Display for InvalidHttpDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid HTTP date: {:?}", self.0)
    }
}

impl std::error::Error for InvalidHttpDate {}

/// Days since 1970-01-01 for a civil date (Hinnant's `days_from_civil`).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64; // [0, 399]
    let mp = ((m + 9) % 12) as u64; // Mar = 0
    let doy = (153 * mp + 2) / 5 + (d as u64 - 1); // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe as i64 - 719_468
}

/// Civil date `(year, month, day)` for days since 1970-01-01
/// (Hinnant's `civil_from_days`).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64; // [0, 146096]
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Formats a timestamp (milliseconds since the Unix epoch) as an
/// IMF-fixdate. Sub-second precision is truncated, matching the format's
/// resolution.
pub fn format_http_date(t: Timestamp) -> String {
    let mut out = Vec::with_capacity(29);
    write_http_date(&mut out, t);
    String::from_utf8(out).expect("an IMF-fixdate is ASCII")
}

/// [`format_http_date`] appended to a wire buffer, no `String` between.
pub fn write_http_date(out: &mut Vec<u8>, t: Timestamp) {
    let secs = t.as_secs() as i64;
    let days = secs.div_euclid(86_400);
    let tod = secs.rem_euclid(86_400) as u64;
    let (year, month, day) = civil_from_days(days);
    // 1970-01-01 was a Thursday; DAY_NAMES starts at Monday.
    let weekday = (days + 3).rem_euclid(7) as usize;
    let two = |out: &mut Vec<u8>, n: u64| {
        out.extend_from_slice(&[b'0' + (n / 10) as u8, b'0' + (n % 10) as u8])
    };
    out.extend_from_slice(DAY_NAMES[weekday].as_bytes());
    out.extend_from_slice(b", ");
    two(out, u64::from(day));
    out.push(b' ');
    out.extend_from_slice(MONTH_NAMES[(month - 1) as usize].as_bytes());
    out.push(b' ');
    // Never before 1970, so at least the four digits the format asks for.
    push_decimal(out, year as u64);
    out.push(b' ');
    two(out, tod / 3_600);
    out.push(b':');
    two(out, (tod / 60) % 60);
    out.push(b':');
    two(out, tod % 60);
    out.extend_from_slice(b" GMT");
}

/// Parses an IMF-fixdate into a timestamp (milliseconds since the Unix
/// epoch).
///
/// # Errors
///
/// Returns [`InvalidHttpDate`] for anything that is not a well-formed
/// IMF-fixdate with a GMT zone and a date on or after the Unix epoch.
pub fn parse_http_date(s: &str) -> Result<Timestamp, InvalidHttpDate> {
    let err = || InvalidHttpDate(s.to_owned());
    // "Sun, 06 Nov 1994 08:49:37 GMT"
    let rest = s.strip_suffix(" GMT").ok_or_else(err)?;
    let (dayname, rest) = rest.split_once(", ").ok_or_else(err)?;
    if !DAY_NAMES.contains(&dayname) {
        return Err(err());
    }
    let mut parts = rest.split(' ');
    let day: u32 = parse_fixed_int(parts.next().ok_or_else(err)?, 2).ok_or_else(err)?;
    let month_name = parts.next().ok_or_else(err)?;
    let month = MONTH_NAMES
        .iter()
        .position(|m| *m == month_name)
        .ok_or_else(err)? as u32
        + 1;
    let year: i64 = parse_fixed_int(parts.next().ok_or_else(err)?, 4).ok_or_else(err)? as i64;
    let time = parts.next().ok_or_else(err)?;
    if parts.next().is_some() {
        return Err(err());
    }
    let mut hms = time.split(':');
    let h: u32 = parse_fixed_int(hms.next().ok_or_else(err)?, 2).ok_or_else(err)?;
    let m: u32 = parse_fixed_int(hms.next().ok_or_else(err)?, 2).ok_or_else(err)?;
    let sec: u32 = parse_fixed_int(hms.next().ok_or_else(err)?, 2).ok_or_else(err)?;
    if hms.next().is_some() || h > 23 || m > 59 || sec > 60 || day == 0 {
        return Err(err());
    }
    if !valid_day(year, month, day) {
        return Err(err());
    }
    // Verify the weekday actually matches the date (RFC says recipients
    // SHOULD ignore it, but round-trip correctness is worth asserting for
    // the dates we emit; tolerate mismatches from other producers).
    let days = days_from_civil(year, month, day);
    let total = days
        .checked_mul(86_400)
        .and_then(|d| d.checked_add((h * 3_600 + m * 60 + sec) as i64))
        .ok_or_else(err)?;
    if total < 0 {
        return Err(err());
    }
    Ok(Timestamp::from_secs(total as u64))
}

fn parse_fixed_int(s: &str, width: usize) -> Option<u32> {
    if s.len() != width || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

fn valid_day(year: i64, month: u32, day: u32) -> bool {
    let leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
    let dim = match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 if leap => 29,
        2 => 28,
        _ => return false,
    };
    (1..=dim).contains(&day)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutcon_core::time::Duration;

    #[test]
    fn formats_rfc_example() {
        // The canonical RFC 7231 example.
        let t = Timestamp::from_secs(784_111_777);
        assert_eq!(format_http_date(t), "Sun, 06 Nov 1994 08:49:37 GMT");
    }

    #[test]
    fn epoch_is_thursday() {
        assert_eq!(format_http_date(Timestamp::ZERO), "Thu, 01 Jan 1970 00:00:00 GMT");
    }

    #[test]
    fn truncates_milliseconds() {
        let t = Timestamp::from_millis(1_500);
        assert_eq!(format_http_date(t), format_http_date(Timestamp::from_secs(1)));
    }

    #[test]
    fn parse_round_trips_many_instants() {
        // Sweep across years, leap days, DST-irrelevant boundaries.
        let starts = [
            0u64,
            951_782_400,   // 2000-02-29
            1_078_012_800, // 2004-02-29
            1_609_459_199, // 2020-12-31 23:59:59
            4_102_444_800, // 2100-01-01 (non-leap century)
        ];
        for s in starts {
            for off in [0u64, 1, 59, 3_600, 86_399, 86_400, 12_345_678] {
                let t = Timestamp::from_secs(s + off);
                let text = format_http_date(t);
                assert_eq!(parse_http_date(&text).unwrap(), t, "failed for {text}");
            }
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "Sun, 06 Nov 1994 08:49:37",       // no zone
            "Sun, 06 Nov 1994 08:49:37 UTC",   // wrong zone
            "Xxx, 06 Nov 1994 08:49:37 GMT",   // bad weekday
            "Sun, 6 Nov 1994 08:49:37 GMT",    // day not 2 digits
            "Sun, 06 Foo 1994 08:49:37 GMT",   // bad month
            "Sun, 06 Nov 94 08:49:37 GMT",     // 2-digit year
            "Sun, 06 Nov 1994 08:49 GMT",      // missing seconds
            "Sun, 06 Nov 1994 24:00:00 GMT",   // hour out of range
            "Sun, 06 Nov 1994 08:49:37 GMT x", // trailing junk
            "Sun, 31 Feb 1994 08:49:37 GMT",   // impossible day
            "Sun, 00 Nov 1994 08:49:37 GMT",   // zero day
        ] {
            assert!(parse_http_date(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn leap_year_rules() {
        assert!(parse_http_date("Tue, 29 Feb 2000 00:00:00 GMT").is_ok()); // 400-year leap
        assert!(parse_http_date("Thu, 29 Feb 1900 00:00:00 GMT").is_err()); // century non-leap
        assert!(parse_http_date("Sun, 29 Feb 2004 00:00:00 GMT").is_ok());
        assert!(parse_http_date("Tue, 29 Feb 2005 00:00:00 GMT").is_err());
    }

    #[test]
    fn weekday_names_follow_calendar() {
        // A full known week: 2023-01-02 (Monday) through 2023-01-08.
        let monday = Timestamp::from_secs(1_672_617_600);
        for (i, name) in DAY_NAMES.iter().enumerate() {
            let t = monday + Duration::from_hours(24 * i as u64);
            assert!(format_http_date(t).starts_with(name), "day {i}");
        }
    }

    #[test]
    fn error_display() {
        let e = parse_http_date("nonsense").unwrap_err();
        assert!(e.to_string().contains("nonsense"));
    }
}
