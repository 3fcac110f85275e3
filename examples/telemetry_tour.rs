//! A tour of the telemetry layer over the wire: run a job, then pull
//! the server's full metrics exposition (`METRICS`) and the job's
//! lifecycle trace (`TRACE <id>`) through [`ServiceClient`].
//!
//! By default the example embeds the whole service in-process on an
//! ephemeral port and shuts it down at the end.  When `CTORI_SERVE_ADDR`
//! is set (the CI smoke job points it at a live `ctori-serve` process),
//! the example connects there and leaves the server running — observing
//! shared infrastructure must never kill it.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example telemetry_tour
//! ```

use colored_tori::prelude::*;
use colored_tori::service::{Server, ServiceClient, ServiceConfig};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // Either connect to an externally started ctori-serve, or embed one.
    let (addr, embedded) = match std::env::var("CTORI_SERVE_ADDR") {
        Ok(addr) => {
            println!("connecting to external ctori-serve at {addr}");
            (addr, None)
        }
        Err(_) => {
            let server = Server::bind(ServiceConfig::default())?;
            let addr = server.local_addr()?.to_string();
            println!("embedded ctori-serve listening on {addr}");
            // Deliberate spawn: the embedded server outlives this scope
            // and is joined after SHUTDOWN below.
            #[allow(clippy::disallowed_methods)]
            let thread = std::thread::spawn(move || server.serve());
            (addr, Some(thread))
        }
    };
    let mut client = ServiceClient::connect(addr.as_str())?;

    // A spec salted with the process id, so a warm server (CI re-runs
    // the smoke against one ctori-serve) still executes it fresh — the
    // trace below must show a real claimed→running lifecycle, not a
    // cache hit.
    let salt = std::process::id() as usize % (40 * 40);
    let growth = RunSpec::new(
        TopologySpec::toroidal_mesh(40, 40),
        RuleSpec::parse("threshold(2,1)").expect("registry rule"),
        SeedSpec::nodes(Color::new(2), Color::new(1), [salt]),
    );
    let id = client.submit(&growth)?;
    let outcome = client.result(id)?;
    println!(
        "\njob {id}: {:?} after {} rounds",
        outcome.termination, outcome.rounds
    );

    // TRACE <id>: the job's trace, one monotone timestamp per
    // lifecycle edge plus sampled per-round progress.
    let trace = client.trace(id)?;
    assert!(trace.is_monotone(), "span timestamps must be monotone");
    let base = trace.spans().first().map(|s| s.at_nanos).unwrap_or(0);
    println!("\nTRACE {id} ({} spans):", trace.len());
    for span in trace.spans() {
        println!(
            "  +{:>9.3} ms  {:?}",
            (span.at_nanos - base) as f64 / 1e6,
            span.kind
        );
    }
    let terminal = trace.terminal().expect("finished job has a terminal span");
    assert_eq!(terminal.kind, SpanKind::Done, "the job finished cleanly");
    let queue_wait = trace.queue_wait_nanos().expect("queued and claimed");
    let run = trace.run_nanos().expect("ran and finished");
    println!(
        "  queue wait {:.3} ms, run time {:.3} ms",
        queue_wait as f64 / 1e6,
        run as f64 / 1e6
    );

    // METRICS: the server's whole registry — executor instruments plus
    // the wire layer's per-verb counters — as one parseable exposition.
    let metrics = client.metrics()?;
    println!("\nMETRICS ({} instruments):", metrics.len());
    print!("{}", metrics.to_text());
    assert!(
        metrics.counter("server.requests.SUBMIT").unwrap_or(0) >= 1,
        "the SUBMIT above must be counted"
    );
    assert!(
        metrics.counter("exec.jobs.submitted").unwrap_or(0) >= 1,
        "the executor must have admitted the job"
    );
    let run_hist = metrics
        .histogram("exec.job.run-us")
        .expect("run-time histogram registered");
    assert!(run_hist.count >= 1, "the job's run time must be recorded");
    println!(
        "\njob-latency histogram: {} recorded, p50 {} us, p99 {} us",
        run_hist.count,
        run_hist.quantile(0.5),
        run_hist.quantile(0.99)
    );

    // Shut down only the server we own; an external one keeps serving.
    if let Some(handle) = embedded {
        client.shutdown()?;
        handle.join().expect("server thread panicked")?;
        println!("\nembedded server drained cleanly");
    }
    println!("telemetry tour complete");
    Ok(())
}
