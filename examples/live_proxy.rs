//! The live mode: a real origin server and a real caching proxy on
//! localhost TCP, replaying the CNN/FN trace at 100 000× speed while the
//! proxy's LIMD refresher and triggered polls keep its cache consistent.
//!
//! ```sh
//! cargo run --example live_proxy
//! ```

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration as StdDuration;

use mutcon::core::mutual::temporal::MtPolicy;
use mutcon::core::time::Duration;
use mutcon::http::message::{Request, Response};
use mutcon::http::parse::parse_response;
use mutcon::live::client::last_modified_ms;
use mutcon::live::origin::LiveOrigin;
use mutcon::live::proxy::{GroupRule, LiveProxy, ProxyConfig, RefreshRule};
use mutcon::traces::transform::scale_time;
use mutcon::traces::NamedTrace;

/// One `GET` over a plain socket: the request asks the proxy to close
/// the connection after answering, so the response is everything read.
fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(StdDuration::from_secs(5)))?;
    let request = Request::get(path)
        .host(addr.to_string())
        .connection_close()
        .build();
    stream.write_all(&request.to_bytes())?;
    let mut wire = Vec::new();
    stream.read_to_end(&mut wire)?;
    match parse_response(&wire) {
        Ok(Some((response, _))) => Ok(response),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "no whole response",
        )),
    }
}

fn main() -> std::io::Result<()> {
    // Compress ~49.5 h of CNN/FN and ~45 h of NYT/AP into a few seconds.
    let story = scale_time(&NamedTrace::CnnFn.generate(), 1e-5).expect("positive factor");
    let wire = scale_time(&NamedTrace::NytAp.generate(), 1e-5).expect("positive factor");
    println!(
        "replaying {} ({} updates) and {} ({} updates) at 100000x",
        story.name(),
        story.update_count(),
        wire.name(),
        wire.update_count()
    );

    let origin = LiveOrigin::builder()
        .object("/news/cnn-fn.html", story)
        .object("/news/nyt-ap.html", wire)
        .with_history(true)
        .start()?;
    println!("origin  listening on {}", origin.local_addr());

    // Δ = 10 min of trace time = 6 ms of wall time at this compression;
    // use a slightly larger wall-clock Δ so the refresher isn't saturated.
    let delta = Duration::from_millis(60);
    let proxy = LiveProxy::start(ProxyConfig {
        rules: vec![
            RefreshRule::new("/news/cnn-fn.html", delta),
            RefreshRule::new("/news/nyt-ap.html", delta),
        ],
        group: Some(GroupRule {
            delta: Duration::from_millis(30),
            policy: MtPolicy::TriggeredPolls,
        }),
        ..ProxyConfig::new(origin.local_addr())
    })?;
    println!("proxy   listening on {}\n", proxy.local_addr());

    // A client hitting the proxy once per "hour" of trace time.
    for tick in 0..8 {
        std::thread::sleep(StdDuration::from_millis(250));
        let resp = get(proxy.local_addr(), "/news/cnn-fn.html")?;
        let stamp = last_modified_ms(&resp)
            .map(|t| t.as_millis().to_string())
            .unwrap_or_else(|| "?".into());
        println!(
            "t+{:>4}ms  GET /news/cnn-fn.html -> {} ({}, last-modified-ms {})",
            (tick + 1) * 250,
            resp.status(),
            resp.headers().get("x-cache").unwrap_or("-"),
            stamp
        );
    }

    let stats = proxy.stats();
    println!(
        "\nproxy stats: {} polls ({} triggered by the Mt coordinator), \
         {} refreshes, {} hits, {} misses, {} errors",
        stats.polls, stats.triggered, stats.refreshes, stats.hits, stats.misses, stats.errors
    );
    println!(
        "origin served {} requests; every consistency decision above ran\n\
         over real HTTP/TCP with the same algorithms as the simulator.",
        origin.request_count()
    );
    Ok(())
}
