//! A seeded corpus for the parsers: each test loops over inputs drawn
//! from a fixed seed, and a failure names the input.
//!
//! Valid requests and responses are mutated — bytes flipped, ranges cut,
//! duplicated or overwritten with the bytes a head is made of — and every
//! mutant goes through the one-shot and the resumable parser. Neither may
//! panic, and feeding the bytes one at a time must end exactly where the
//! one-shot parse does: same message, same length, same error. Formatted
//! HTTP-dates are mutated the same way and must not panic the date
//! parser. Further tests round-trip random header sets through
//! `to_bytes` and back, and random instants through the date format.

use std::fmt::Debug;

use mutcon_core::time::Timestamp;
use mutcon_http::date::{format_http_date, parse_http_date};
use mutcon_http::message::{Request, Response};
use mutcon_http::parse::{ParseError, RequestParser, ResponseParser};
use mutcon_http::types::Method;
use mutcon_sim::rng::SimRng;

const SEED: u64 = 0x5eed_c0de;
const MUTANTS_PER_STREAM: usize = 400;

fn request_streams() -> Vec<Vec<u8>> {
    vec![
        Request::get("/x").build().to_bytes(),
        b"GET /obj/000017 HTTP/1.1\r\nhost: bench\r\n\r\n".to_vec(),
        Request::get("/obj")
            .host("127.0.0.1:8080")
            .if_modified_since(Timestamp::from_secs(784_111_777))
            .header("x-last-modified-ms", "784111777123")
            .keep_alive()
            .build()
            .to_bytes(),
        Request::builder(Method::Put, "/admin/rules")
            .header("Content-Type", "application/json")
            .connection_close()
            .body(&br#"{"rules": []}"#[..])
            .build()
            .to_bytes(),
        b"POST /o HTTP/1.0\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabcGET /next HTTP/1.1\r\n\r\n"
            .to_vec(),
    ]
}

fn response_streams() -> Vec<Vec<u8>> {
    vec![
        Response::not_modified().keep_alive().build().to_bytes(),
        Response::ok()
            .last_modified(Timestamp::from_secs(784_111_777))
            .header("x-last-modified-ms", "784111777123")
            .header("x-object-version", "17")
            .header("x-object-value", "36.25")
            .keep_alive()
            .body(&b"object=/x version=17\n"[..])
            .build()
            .to_bytes(),
        b"HTTP/1.1 200\r\nContent-Length: 2\r\nConnection: close\r\n\r\nokHTTP/1.1 304 Not Modified\r\n\r\n"
            .to_vec(),
        b"HTTP/1.0 404 Not Found\r\ncontent-length: 0\r\n\r\n".to_vec(),
    ]
}

/// One random edit of `wire`.
fn mutate(rng: &mut SimRng, wire: &[u8]) -> Vec<u8> {
    // The bytes a head's structure hangs on, plus two that are not text.
    const SPECIAL: &[u8] = b"\r\n: /.0123456789-\0\xff\x80";
    let mut out = wire.to_vec();
    let at = rng.uniform_u64(0, out.len() as u64) as usize;
    let span = (rng.uniform_u64(1, 9) as usize).min(out.len() - at);
    match rng.uniform_u64(0, 6) {
        0 => out[at] ^= 1 << rng.uniform_u64(0, 8),
        1 => out[at] = *rng.pick(SPECIAL),
        2 => drop(out.drain(at..at + span)),
        3 => {
            let copy = out[at..at + span].to_vec();
            out.splice(at..at, copy);
        }
        4 => out.insert(at, *rng.pick(SPECIAL)),
        _ => out.truncate(at),
    }
    out
}

/// The outcome of parsing `wire` a byte at a time: the first message or
/// error the growing prefix produces, or `Ok(None)` if it never does.
fn byte_at_a_time<M>(
    wire: &[u8],
    mut advance: impl FnMut(&[u8]) -> Result<Option<(M, usize)>, ParseError>,
) -> Result<Option<(M, usize)>, ParseError> {
    for end in 0..=wire.len() {
        match advance(&wire[..end]) {
            Ok(None) => {}
            done => return done,
        }
    }
    Ok(None)
}

fn check_mutants<M: PartialEq + Debug>(
    streams: &[Vec<u8>],
    one_shot: impl Fn(&[u8]) -> Result<Option<(M, usize)>, ParseError>,
    resumable: impl Fn() -> Box<dyn FnMut(&[u8]) -> Result<Option<(M, usize)>, ParseError>>,
) {
    let mut rng = SimRng::seed_from_u64(SEED);
    for stream in streams {
        // The valid stream itself, then its mutants (some mutated twice).
        let mut corpus = vec![stream.clone()];
        for _ in 0..MUTANTS_PER_STREAM {
            let mut mutant = mutate(&mut rng, stream);
            if rng.chance(0.3) && !mutant.is_empty() {
                mutant = mutate(&mut rng, &mutant);
            }
            corpus.push(mutant);
        }
        for wire in corpus {
            let whole = one_shot(&wire);
            let trickled = byte_at_a_time(&wire, resumable());
            assert_eq!(
                trickled,
                whole,
                "byte-at-a-time and one-shot disagree on {:?}",
                String::from_utf8_lossy(&wire)
            );
            if let Ok(Some((_, consumed))) = whole {
                assert!(consumed <= wire.len());
            }
        }
    }
}

#[test]
fn mutated_requests_never_panic_and_parse_the_same_however_fragmented() {
    check_mutants(
        &request_streams(),
        |wire| RequestParser::new().advance(wire),
        || {
            let mut parser = RequestParser::new();
            Box::new(move |prefix| parser.advance(prefix))
        },
    );
}

#[test]
fn mutated_responses_never_panic_and_parse_the_same_however_fragmented() {
    check_mutants(
        &response_streams(),
        |wire| ResponseParser::new().advance(wire),
        || {
            let mut parser = ResponseParser::new();
            Box::new(move |prefix| parser.advance(prefix))
        },
    );
}

/// An instant in `[0, 11e9)` s: 1970 to past 2318, the years the
/// format's four digits hold with room to spare.
fn random_instant(rng: &mut SimRng) -> Timestamp {
    Timestamp::from_secs(rng.uniform_u64(0, 11_000_000_000))
}

#[test]
fn mutated_dates_never_panic_and_what_parses_round_trips() {
    let mut rng = SimRng::seed_from_u64(SEED ^ 2);
    for _ in 0..20_000 {
        let date = format_http_date(random_instant(&mut rng));
        let mut mutant = mutate(&mut rng, date.as_bytes());
        if rng.chance(0.3) && !mutant.is_empty() {
            mutant = mutate(&mut rng, &mutant);
        }
        let text = String::from_utf8_lossy(&mutant);
        if let Ok(t) = parse_http_date(&text) {
            assert_eq!(
                parse_http_date(&format_http_date(t)),
                Ok(t),
                "{text:?} parsed to {t}"
            );
        }
    }
}

#[test]
fn http_dates_round_trip_at_random_instants() {
    let mut rng = SimRng::seed_from_u64(SEED ^ 3);
    for _ in 0..20_000 {
        let t = random_instant(&mut rng);
        let text = format_http_date(t);
        assert_eq!(parse_http_date(&text), Ok(t), "{text}");
    }
}

/// `name` with each letter's case flipped at random.
fn random_case(rng: &mut SimRng, name: &str) -> String {
    name.chars()
        .map(|c| {
            if rng.chance(0.5) {
                c.to_ascii_uppercase()
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect()
}

/// `to_bytes` → parse keeps every field, in order, repeats included, and
/// finds each under any spelling of its name.
#[test]
fn serialized_headers_round_trip_in_order_with_repeats() {
    const NAMES: &[&str] = &[
        "host",
        "x-thing",
        "set-cookie",
        "cache-control",
        "via",
        "x-a.b_c~1",
    ];
    const ALPHABET: &[u8] = b"abcXYZ019 ,;=:\"/()-_\t";
    let mut rng = SimRng::seed_from_u64(SEED ^ 1);
    for _ in 0..300 {
        let fields: Vec<(String, String)> = (0..rng.uniform_u64(0, 9))
            .map(|_| {
                let value: String = (0..rng.uniform_u64(0, 24))
                    .map(|_| *rng.pick(ALPHABET) as char)
                    .collect();
                let name = *rng.pick(NAMES);
                (random_case(&mut rng, name), value.trim().to_owned())
            })
            .collect();
        let expected: Vec<(String, &str)> = fields
            .iter()
            .map(|(name, value)| (name.to_ascii_lowercase(), value.as_str()))
            .collect();

        let mut request = Request::get("/round/trip").build();
        let mut response = Response::ok().build();
        for (name, value) in &fields {
            request.headers_mut().append(name, value);
            response.headers_mut().append(name, value);
        }
        let (request, _) = RequestParser::new()
            .advance(&request.to_bytes())
            .expect("own output parses")
            .expect("complete");
        let (response, _) = ResponseParser::new()
            .advance(&response.to_bytes())
            .expect("own output parses")
            .expect("complete");
        assert_eq!(request.target(), "/round/trip");

        for headers in [request.headers(), response.headers()] {
            let got: Vec<(String, &str)> = headers.iter().map(|(n, v)| (n.to_owned(), v)).collect();
            assert_eq!(got, expected, "order or repeats lost");
            for name in NAMES {
                let wanted: Vec<&str> = expected
                    .iter()
                    .filter(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .collect();
                let spelled = random_case(&mut rng, name);
                assert_eq!(headers.get_all(&spelled).collect::<Vec<_>>(), wanted);
                assert_eq!(headers.get(&spelled), wanted.first().copied());
                assert_eq!(headers.contains(&spelled), !wanted.is_empty());
            }
        }
    }
}
