//! End-to-end fleet behaviour over real loopback backends: the
//! acceptance criteria of the fleet layer.
//!
//! - **Cache-preserving routing**: identical specs resubmitted under
//!   stable membership land on the same backend and are served from its
//!   result cache (asserted via the aggregated STATS hit counters).
//! - **Failure survival**: one of three backends killed mid-sweep, the
//!   sweep still completes with outcomes equal to a single-threaded
//!   reference run, and the fleet metrics record the eviction and the
//!   reroutes.
//! - **Work stealing**: a sweep job queued behind a long run on a busy
//!   backend is re-dispatched to an idle one.
//! - **Waits without polling**: a waiting handle lets the backend hold
//!   its reply, so a long wait costs about one request per slice of the
//!   wait, not one per tick (counted through the backend's
//!   `server.requests.<VERB>` metrics), and bounded waits still time
//!   out on every backend.

use ctori_coloring::Color;
use ctori_engine::{
    ExecError, Executor, LocalExecutor, LocalExecutorConfig, RuleSpec, RunSpec, Runner, SeedSpec,
    SubmitOptions, TopologySpec,
};
use ctori_fleet::{FleetConfig, FleetExecutor};
use ctori_service::{
    RemoteExecutor, SchedulerConfig, Server, ServiceClient, ServiceConfig, ServiceStats,
};
use std::time::{Duration, Instant};

type ServerHandle = std::thread::JoinHandle<std::io::Result<ServiceStats>>;

fn start_server(workers: usize) -> (String, ServerHandle) {
    let server = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        scheduler: SchedulerConfig {
            workers,
            queue_capacity: 128,
            cache_capacity: 64,
            ..SchedulerConfig::default()
        },
    })
    .expect("bind ephemeral loopback port");
    let addr = server.local_addr().expect("local addr").to_string();
    #[allow(clippy::disallowed_methods)]
    let handle = std::thread::spawn(move || server.serve());
    (addr, handle)
}

/// A quick deterministic spec, distinct per `salt`.
fn quick_spec(salt: u64) -> RunSpec {
    RunSpec::new(
        TopologySpec::toroidal_mesh(12, 12),
        RuleSpec::parse("smp").expect("registry rule"),
        SeedSpec::Density {
            color: Color::new(1),
            palette: 3,
            fraction: 0.4,
            rng_seed: salt,
        },
    )
}

/// A long-running spec: threshold-1 growth floods the torus row by row,
/// so the run spans ~2·n rounds of genuine work.
fn slow_spec(n: usize) -> RunSpec {
    RunSpec::new(
        TopologySpec::toroidal_mesh(n, n),
        RuleSpec::parse("threshold(2,1)").expect("registry rule"),
        SeedSpec::nodes(Color::new(2), Color::new(1), [0usize]),
    )
}

#[test]
fn identical_specs_route_to_the_same_backend_and_hit_its_cache() {
    let (addrs, servers): (Vec<String>, Vec<ServerHandle>) =
        (0..3).map(|_| start_server(2)).unzip();
    let fleet = FleetExecutor::connect(FleetConfig::new(addrs.iter().cloned())).expect("fleet");

    let spec = quick_spec(42);
    let reference = Runner::with_threads(1).execute(&spec);
    let mut first = fleet
        .submit(&spec, SubmitOptions::default())
        .expect("submit");
    assert_eq!(*first.wait().expect("first run"), reference);
    let mut second = fleet
        .submit(&spec, SubmitOptions::default())
        .expect("resubmit");
    assert_eq!(*second.wait().expect("second run"), reference);

    let stats = fleet.stats();
    // Consistent hashing sent both submissions to one backend…
    let loaded: Vec<&u64> = stats.local.jobs_routed.iter().filter(|&&n| n > 0).collect();
    assert_eq!(loaded, vec![&2], "both submissions routed to one backend");
    // …and the second was served from that backend's result cache.
    assert_eq!(stats.aggregate.cache.misses, 1, "{:?}", stats.local);
    assert_eq!(stats.aggregate.cache.hits, 1, "{:?}", stats.local);
    assert_eq!(stats.aggregate.done, 2);

    fleet.drain();
    for (addr, server) in addrs.iter().zip(servers) {
        ServiceClient::connect(addr.as_str())
            .expect("connect for shutdown")
            .shutdown()
            .expect("shutdown");
        server.join().expect("server thread").expect("serve");
    }
}

#[test]
fn killing_one_of_three_backends_mid_sweep_is_survived() {
    let (addrs, servers): (Vec<String>, Vec<ServerHandle>) =
        (0..3).map(|_| start_server(1)).unzip();
    let mut config = FleetConfig::new(addrs.iter().cloned());
    // Aggressive detection so the test converges quickly.
    config.probe_interval = Duration::from_millis(50);
    config.probe_timeout = Duration::from_millis(250);
    config.failure_threshold = 1;
    config.request_timeout = Duration::from_millis(500);
    // Stealing is exercised by its own test; keep it quiet here.
    config.steal_patience = Duration::from_secs(30);
    let fleet = FleetExecutor::connect(config).expect("fleet");

    let grid: Vec<RunSpec> = (0..9).map(quick_spec).collect();
    let reference: Vec<_> = grid
        .iter()
        .map(|s| Runner::with_threads(1).execute(s))
        .collect();
    let handles = fleet
        .submit_sweep(&grid, SubmitOptions::default())
        .expect("sweep admitted");

    // Kill the middle backend before any result is fetched: its chunk's
    // results become unreachable, so those handles must re-route.
    ServiceClient::connect(addrs[1].as_str())
        .expect("connect for kill")
        .shutdown()
        .expect("shutdown");

    let outcomes: Vec<_> = handles
        .into_iter()
        .map(|mut h| (*h.wait().expect("job survives the kill")).clone())
        .collect();
    assert_eq!(
        outcomes, reference,
        "every grid point completes with the single-backend reference outcome"
    );

    let local = fleet.local();
    assert!(local.evictions >= 1, "the kill was recorded: {local:?}");
    assert!(local.reroutes >= 1, "orphaned jobs re-routed: {local:?}");
    assert!(
        local.jobs_routed[0] + local.jobs_routed[2] >= local.reroutes,
        "re-routed work landed on the survivors: {local:?}"
    );
    assert_eq!(fleet.healthy_backends(), 2, "{local:?}");

    // The merged telemetry exposes the same counters.
    let metrics = fleet.metrics();
    assert!(metrics.counter("fleet.evictions").unwrap_or(0) >= 1);
    assert!(metrics.counter("fleet.reroutes").unwrap_or(0) >= 1);
    assert_eq!(metrics.gauge("fleet.backends.healthy"), Some(2));

    fleet.drain();
    for (index, (addr, server)) in addrs.iter().zip(servers).enumerate() {
        if index != 1 {
            ServiceClient::connect(addr.as_str())
                .expect("connect for shutdown")
                .shutdown()
                .expect("shutdown");
        }
        server.join().expect("server thread").expect("serve");
    }
}

#[test]
fn a_lagging_backend_is_stolen_from() {
    let (addrs, servers): (Vec<String>, Vec<ServerHandle>) =
        (0..2).map(|_| start_server(1)).unzip();
    let mut config = FleetConfig::new(addrs.iter().cloned());
    config.steal_patience = Duration::from_millis(10);
    let fleet = FleetExecutor::connect(config).expect("fleet");

    // Equal idle hints split 3 specs [2, 1]: the first backend gets two
    // long runs back to back, the second one quick run.  The long runs
    // take hundreds of milliseconds each (threshold growth sweeps the
    // whole torus once per round), so the second sits queued far longer
    // than the steal patience.
    let grid = vec![slow_spec(512), slow_spec(576), quick_spec(7)];
    let reference: Vec<_> = grid
        .iter()
        .map(|s| Runner::with_threads(1).execute(s))
        .collect();
    let mut handles = fleet
        .submit_sweep(&grid, SubmitOptions::default())
        .expect("sweep admitted");

    // Finish the idle backend's share first so its pending count drops
    // to zero — that is what makes it a legal steal target.
    let quick = handles.pop().expect("three handles");
    let mut outcomes = vec![None, None, None];
    let mut wait = |index: usize, mut handle: ctori_engine::JobHandle| {
        outcomes[index] = Some((*handle.wait().expect("job finishes")).clone());
    };
    wait(2, quick);
    // The second slow run is queued behind the first on the busy
    // backend; after the patience window its handle re-dispatches it to
    // the now-idle backend.
    for (index, handle) in handles.into_iter().enumerate().rev() {
        wait(index, handle);
    }
    let outcomes: Vec<_> = outcomes
        .into_iter()
        .map(|o| o.expect("all waited"))
        .collect();
    assert_eq!(outcomes, reference, "stolen runs still agree");

    let local = fleet.local();
    assert!(local.steals >= 1, "the lagging tail was stolen: {local:?}");

    fleet.drain();
    for (addr, server) in addrs.iter().zip(servers) {
        ServiceClient::connect(addr.as_str())
            .expect("connect for shutdown")
            .shutdown()
            .expect("shutdown");
        server.join().expect("server thread").expect("serve");
    }
}

/// How many requests of `verb` a backend has served so far.
fn served(addr: &str, verb: &str) -> u64 {
    let mut client = ServiceClient::connect(addr).expect("connect for metrics");
    let metrics = client.metrics().expect("metrics");
    metrics
        .counter(&format!("server.requests.{verb}"))
        .expect("per-verb counter")
}

fn stop(addr: &str, server: ServerHandle) {
    ServiceClient::connect(addr)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown");
    server.join().expect("server thread").expect("serve");
}

#[test]
fn a_fleet_drops_without_waiting_out_its_probe_interval() {
    let (addr, server) = start_server(1);
    let mut config = FleetConfig::new([addr.clone()]);
    config.probe_interval = Duration::from_secs(30);
    let fleet = FleetExecutor::connect(config).expect("fleet");
    // Let the prober start and enter its first 30 s pause (a prober
    // that has not started yet would see the stop before pausing).
    std::thread::sleep(Duration::from_millis(100));
    // Dropping joins the prober, which must wake from its pause at once.
    #[allow(clippy::disallowed_methods)]
    let started = Instant::now();
    drop(fleet);
    let took = started.elapsed();
    assert!(took < Duration::from_secs(2), "drop took {took:?}");
    stop(&addr, server);
}

/// Asserts that a wait of `elapsed` sent few enough RESULT requests to
/// be held ones: one per `slice` it lasted, plus two for the partial
/// slices at its ends.  A wait that polled every 10 ms fails this.
fn assert_held(results: u64, elapsed: Duration, slice: Duration) {
    let bound = (elapsed.as_secs_f64() / slice.as_secs_f64()) as u64 + 2;
    assert!(
        results <= bound,
        "{results} RESULT requests for a {elapsed:?} wait (at most {bound})"
    );
}

#[test]
fn a_fleet_wait_is_a_few_held_results_not_a_poll_per_tick() {
    let (addr, server) = start_server(1);
    let config = FleetConfig::new([addr.clone()]);
    // Each RESULT is held server-side for up to half the request timeout.
    let slice = config.request_timeout / 2;
    let fleet = FleetExecutor::connect(config).expect("fleet");
    let spec = slow_spec(512);
    let mut handle = fleet
        .submit(&spec, SubmitOptions::default())
        .expect("submit");
    let before = served(&addr, "RESULT");
    #[allow(clippy::disallowed_methods)]
    let started = Instant::now();
    let outcome = handle.wait().expect("job finishes");
    let elapsed = started.elapsed();
    assert_held(served(&addr, "RESULT") - before, elapsed, slice);
    assert_eq!(*outcome, Runner::with_threads(1).execute(&spec));
    drop(fleet);
    stop(&addr, server);
}

#[test]
fn a_remote_bounded_wait_is_a_few_held_results() {
    let (addr, server) = start_server(1);
    let remote = RemoteExecutor::connect(addr.as_str()).expect("connect");
    let spec = slow_spec(512);
    let mut handle = remote
        .submit(&spec, SubmitOptions::default())
        .expect("submit");
    let before = served(&addr, "RESULT");
    #[allow(clippy::disallowed_methods)]
    let started = Instant::now();
    let outcome = handle
        .wait_timeout(Duration::from_secs(5))
        .expect("job finishes inside 5 s");
    let elapsed = started.elapsed();
    // A client without a read timeout holds each RESULT up to 1 s.
    assert_held(
        served(&addr, "RESULT") - before,
        elapsed,
        Duration::from_secs(1),
    );
    assert_eq!(*outcome, Runner::with_threads(1).execute(&spec));
    drop(remote);
    stop(&addr, server);
}

#[test]
fn bounded_waits_time_out_then_finish_on_every_backend() {
    let (addr, server) = start_server(1);
    let spec = slow_spec(512);
    // Every backend's run of the spec outlasts a tenth of a
    // single-threaded one, so that (at least 1 ms) bounds the first wait
    // in debug and release builds alike.
    #[allow(clippy::disallowed_methods)]
    let started = Instant::now();
    let reference = Runner::with_threads(1).execute(&spec);
    let bound = (started.elapsed() / 10).max(Duration::from_millis(1));
    let local = LocalExecutor::start(LocalExecutorConfig {
        workers: 1,
        ..LocalExecutorConfig::default()
    });
    let remote = RemoteExecutor::connect(addr.as_str()).expect("connect");
    // Its own backend, so its job is not a cache hit on the first one.
    let (fleet_addr, fleet_server) = start_server(1);
    let fleet = FleetExecutor::connect(FleetConfig::new([fleet_addr.clone()])).expect("fleet");
    let backends: [(&str, &dyn Executor); 3] =
        [("local", &local), ("remote", &remote), ("fleet", &fleet)];
    for (name, executor) in backends {
        let mut handle = executor
            .submit(&spec, SubmitOptions::default())
            .expect("submit");
        match handle.wait_timeout(bound) {
            Err(ExecError::NotFinished) => {}
            other => panic!("{name}: expected NotFinished after {bound:?}, got {other:?}"),
        }
        assert_eq!(*handle.wait().expect("job finishes"), reference, "{name}");
    }
    local.shutdown();
    drop(remote);
    drop(fleet);
    stop(&addr, server);
    stop(&fleet_addr, fleet_server);
}
