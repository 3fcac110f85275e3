//! The system under test, stood up from outside: embedded `ctori-serve`
//! backends on loopback, the fleet in front of them, reference outcomes,
//! and what the process can say about its machine.

use ctori_engine::{RunOutcome, RunSpec, Runner};
use ctori_fleet::{FleetConfig, FleetExecutor};
use ctori_service::{
    RemoteExecutor, SchedulerConfig, Server, ServiceClient, ServiceConfig, ServiceStats,
};
use std::thread::JoinHandle;

/// Embedded single-worker servers, each serving on its own thread.
pub struct Backends {
    addrs: Vec<String>,
    servers: Vec<JoinHandle<std::io::Result<ServiceStats>>>,
}

impl Backends {
    /// Binds `count` servers on ephemeral loopback ports.  One worker
    /// each, so the backend count is the only server-side parallelism;
    /// every other setting is the service default.
    ///
    /// Returns once every server thread runs.  A server polls for new
    /// connections between short sleeps; had its thread not started yet,
    /// the first client would sometimes be accepted at once and sometimes
    /// one poll later, and set-up times would scatter between the two.
    pub fn start(count: usize) -> Backends {
        let mut addrs = Vec::with_capacity(count);
        let mut servers = Vec::with_capacity(count);
        let (running, started) = std::sync::mpsc::channel();
        for _ in 0..count {
            let server = Server::bind(ServiceConfig {
                addr: "127.0.0.1:0".into(),
                scheduler: SchedulerConfig {
                    workers: 1,
                    ..SchedulerConfig::default()
                },
            })
            .expect("bind a loopback backend");
            addrs.push(server.local_addr().expect("bound address").to_string());
            let running = running.clone();
            servers.push(std::thread::spawn(move || {
                // The receiver outlives every send: `start` waits below.
                let _ = running.send(());
                server.serve()
            }));
        }
        for _ in 0..count {
            started.recv().expect("a backend thread starts");
        }
        Backends { addrs, servers }
    }

    /// A fleet over every backend, with the default fleet tuning.
    pub fn fleet(&self) -> FleetExecutor {
        FleetExecutor::connect(FleetConfig::new(self.addrs.iter().cloned()))
            .expect("connect the fleet")
    }

    /// A remote executor connected to the first backend.
    pub fn remote(&self) -> RemoteExecutor {
        RemoteExecutor::connect(self.addrs[0].as_str()).expect("connect a remote executor")
    }

    /// One backend's service counters.
    pub fn stats(&self, index: usize) -> ServiceStats {
        ServiceClient::connect(self.addrs[index].as_str())
            .and_then(|mut client| client.stats())
            .expect("backend stats")
    }

    /// Shuts every backend down and joins its thread.  Drop every
    /// executor connected to the backends first: a server drains its
    /// open connections before it returns.
    pub fn stop(self) {
        for addr in &self.addrs {
            ServiceClient::connect(addr.as_str())
                .and_then(ServiceClient::shutdown)
                .expect("shut a backend down");
        }
        for server in self.servers {
            server
                .join()
                .expect("backend thread")
                .expect("backend exits cleanly");
        }
    }
}

/// Reference outcomes: every spec run to completion with
/// [`reference`], one after another, so the process's peak memory does
/// not depend on how two reference runs happened to overlap.
pub fn references(specs: &[RunSpec]) -> Vec<RunOutcome> {
    specs.iter().map(reference).collect()
}

/// The reference outcome of one spec: `Runner::with_threads(1)`.
pub fn reference(spec: &RunSpec) -> RunOutcome {
    Runner::with_threads(1).execute(spec)
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The `machine` provenance block as one JSON object.
pub fn machine_json(seed: u64) -> String {
    use crate::report::json_string;
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"machine\": {{\"cores\": {cores}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \
         \"profile\": {}, \"seed\": {seed}}}}}",
        json_string(&cpu),
        json_string(env!("E2EBENCH_RUSTC")),
        json_string(&git_commit().unwrap_or_else(|| "unknown".into())),
        json_string(env!("E2EBENCH_PROFILE")),
    )
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `None` outside a git checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
