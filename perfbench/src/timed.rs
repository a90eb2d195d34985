//! The timed run: an in-process server driven from one client
//! connection in a closed loop. The only benchmark timer is the
//! client's, around each request; set-up, server restarts and checks
//! between passes are outside it.

use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

use pwcet_cache::GeometryLattice;
use pwcet_core::{ReusePlaneStats, ReuseTier};
use pwcet_serve::{Client, Request, Response, Server, ServerConfig, ServiceStats};

use crate::golden::Golden;
use crate::measure::{cpu_ticks, median, peak_rss_mib, process_cpu, quantile};
use crate::{pass_order, Metric, Stores, Suite, Tally, Workload, SETUP_REPEATS};

/// A server started with `ServerConfig::default()` plus one client
/// connection to it.
pub struct Node {
    /// Declared first so it closes before the server drains.
    client: Option<Client>,
    server: Server,
}

impl Node {
    pub fn start(disk: Option<&Path>) -> Result<Self, String> {
        let mut config = ServerConfig::default();
        if let Some(dir) = disk {
            config = config.with_disk_dir(dir);
        }
        let server =
            Server::bind("127.0.0.1:0", config).map_err(|e| format!("server start: {e}"))?;
        let client =
            Client::connect(server.local_addr()).map_err(|e| format!("client connect: {e}"))?;
        Ok(Self {
            client: Some(client),
            server,
        })
    }

    /// One request on the node's connection. A transport error drops
    /// the connection; the next request opens a new one.
    pub fn send(&mut self, request: &Request) -> Result<Response, String> {
        let client = match &mut self.client {
            Some(client) => client,
            None => self.client.insert(
                Client::connect(self.server.local_addr())
                    .map_err(|e| format!("client reconnect: {e}"))?,
            ),
        };
        match client.request(request) {
            Ok(response) => Ok(response),
            Err(e) => {
                self.client = None;
                Err(format!("transport: {e}"))
            }
        }
    }

    pub fn plane_stats(&self) -> ReusePlaneStats {
        self.server.reuse_plane().stats()
    }

    /// Closes the connection, drains the server and returns its final
    /// counters.
    pub fn finish(mut self) -> ServiceStats {
        self.client = None;
        self.server.shutdown()
    }
}

/// Server-side histogram totals, read in-process from the server's
/// metrics table at untimed points of a traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerTotals {
    pub requests: u64,
    pub latency_us: u64,
    pub queue_wait_us: u64,
    pub service_us: u64,
}

impl ServerTotals {
    fn read(server: &Server) -> Self {
        let table = server.metrics_table();
        let get = |name: &str| table.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
        Self {
            requests: get("request_latency_us_count"),
            latency_us: get("request_latency_us_sum"),
            queue_wait_us: get("queue_wait_us_sum"),
            service_us: get("service_us_sum"),
        }
    }

    fn add_since(&mut self, now: Self, earlier: Self) {
        self.requests += now.requests - earlier.requests;
        self.latency_us += now.latency_us - earlier.latency_us;
        self.queue_wait_us += now.queue_wait_us - earlier.queue_wait_us;
        self.service_us += now.service_us - earlier.service_us;
    }
}

/// Measured time per steal window: long enough for the 10 ms ticks of
/// `/proc/stat` to resolve the window's steal share.
const WINDOW: Duration = Duration::from_millis(500);
/// The share of windows, least stolen first, the kept figures are
/// computed over. A window in which the hypervisor took the CPU away
/// measures the neighbours, not the program; a stall the program causes
/// itself lands in every window alike and stays measured.
const KEPT_WINDOWS: f64 = 0.5;

#[derive(Debug)]
struct Pass {
    /// Its requests' indices into [`Run::latencies_us`].
    requests: Range<usize>,
    wall: Duration,
    cpu: Duration,
}

/// Consecutive passes with the machine's CPU steal over their span.
#[derive(Debug)]
struct Window {
    passes: Range<usize>,
    steal: u64,
    busy: u64,
}

impl Window {
    fn steal_pct(&self) -> f64 {
        100.0 * self.steal as f64 / self.busy.max(1) as f64
    }
}

/// The request figures over a set of passes.
struct Figures {
    requests: usize,
    /// Completed requests ÷ the passes' summed wall time.
    rps: f64,
    /// The median over the passes of 25 requests ÷ pass wall time.
    pass_rps: f64,
    p50: f64,
    p99: f64,
    cpu_us: f64,
}

impl Figures {
    fn of(latencies_us: &[f64], passes: &[&Pass]) -> Self {
        let mut pass_rps: Vec<f64> = passes
            .iter()
            .map(|p| p.requests.len() as f64 / p.wall.as_secs_f64())
            .collect();
        let mut latencies: Vec<f64> = passes
            .iter()
            .flat_map(|p| latencies_us[p.requests.clone()].iter().copied())
            .collect();
        let wall: Duration = passes.iter().map(|p| p.wall).sum();
        let cpu: Duration = passes.iter().map(|p| p.cpu).sum();
        Self {
            requests: latencies.len(),
            rps: latencies.len() as f64 / wall.as_secs_f64(),
            pass_rps: median(&mut pass_rps),
            p50: median(&mut latencies),
            p99: quantile(&mut latencies, 0.99),
            cpu_us: cpu.as_secs_f64() * 1e6 / latencies.len() as f64,
        }
    }
}

/// What one timed run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// `(wall, CPU)` time of each set-up.
    setups: Vec<(Duration, Duration)>,
    latencies_us: Vec<f64>,
    passes: Vec<Pass>,
    windows: Vec<Window>,
    /// The open window: `/proc/stat` ticks at its start and its first
    /// pass.
    open: Option<((u64, u64), usize)>,
    store_bytes: Option<u64>,
    /// Filled in traced runs only.
    pub server: ServerTotals,
}

impl Run {
    pub fn client_mean_us(&self) -> f64 {
        self.latencies_us.iter().sum::<f64>() / self.latencies_us.len() as f64
    }

    fn measured(&self) -> Duration {
        self.passes.iter().map(|p| p.wall).sum()
    }

    fn close_window(&mut self) {
        if let Some((before, first)) = self.open.take() {
            let (steal, busy) = cpu_ticks();
            self.windows.push(Window {
                passes: first..self.passes.len(),
                steal: steal.saturating_sub(before.0),
                busy: busy.saturating_sub(before.1),
            });
        }
    }

    /// The least-stolen [`KEPT_WINDOWS`] of the windows, least stolen
    /// first.
    fn kept_windows(&self) -> Vec<&Window> {
        let mut windows: Vec<&Window> = self.windows.iter().collect();
        windows.sort_by(|a, b| a.steal_pct().total_cmp(&b.steal_pct()));
        windows.truncate(((windows.len() as f64 * KEPT_WINDOWS).ceil() as usize).max(1));
        windows
    }

    fn kept(&self) -> Figures {
        let passes: Vec<&Pass> = self
            .kept_windows()
            .iter()
            .flat_map(|w| &self.passes[w.passes.clone()])
            .collect();
        Figures::of(&self.latencies_us, &passes)
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        vec![
            Metric {
                name: "cpu_us_per_request",
                value: self.kept().cpu_us,
                unit: "us",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mib(),
                unit: "MiB",
            },
            Metric {
                name: "setup_s",
                value: median(
                    &mut self
                        .setups
                        .iter()
                        .map(|(_, cpu)| cpu.as_secs_f64())
                        .collect::<Vec<_>>(),
                ),
                unit: "s",
            },
        ]
    }

    /// The human-readable report: the end-to-end metrics, and the
    /// request figures over the kept windows and over all of them.
    pub fn report(&self, workload: Workload, seed: u64) {
        let steal: u64 = self.windows.iter().map(|w| w.steal).sum();
        let busy: u64 = self.windows.iter().map(|w| w.busy).sum();
        let windows = self.kept_windows();
        eprintln!(
            "[{} seed {seed}] {} timed requests in {} passes, {:.2} s measured, \
             CPU steal {:.1}% of busy time; {} of {} windows kept, steal up to {:.1}%",
            workload.name(),
            self.latencies_us.len(),
            self.passes.len(),
            self.measured().as_secs_f64(),
            100.0 * steal as f64 / busy.max(1) as f64,
            windows.len(),
            self.windows.len(),
            windows.last().map_or(0.0, |w| w.steal_pct()),
        );
        for m in self.end_to_end() {
            eprintln!("  {:<20} {:>14.3} {}", m.name, m.value, m.unit);
        }
        let kept = self.kept();
        let all = Figures::of(&self.latencies_us, &self.passes.iter().collect::<Vec<_>>());
        eprintln!("  {:<20} {:>14} {:>14}", "", "kept windows", "all windows");
        for (name, kept, all) in [
            ("requests", kept.requests as f64, all.requests as f64),
            ("throughput_rps", kept.rps, all.rps),
            ("median_pass_rps", kept.pass_rps, all.pass_rps),
            ("request_p50_us", kept.p50, all.p50),
            ("request_p99_us", kept.p99, all.p99),
            ("cpu_us_per_request", kept.cpu_us, all.cpu_us),
        ] {
            eprintln!("  {name:<20} {kept:>14.1} {all:>14.1}");
        }
        for (what, pick) in [("set-up wall", 0), ("set-up CPU", 1)] {
            let times: Vec<String> = self
                .setups
                .iter()
                .map(|&(wall, cpu)| format!("{:.3}", [wall, cpu][pick].as_secs_f64()))
                .collect();
            eprintln!("  {what:<20} {:>14} s", times.join(" "));
        }
        if let Some(bytes) = self.store_bytes {
            eprintln!(
                "  {:<20} {:>14.3} MiB",
                "store_mb",
                bytes as f64 / (1024.0 * 1024.0)
            );
        }
    }
}

struct Ctx<'a> {
    workload: Workload,
    suite: &'a Suite,
    golden: &'a Golden,
    stores: &'a Stores,
    seed: u64,
    seconds: Duration,
    trace: bool,
    tally: &'a mut Tally,
    requests: Vec<Request>,
    run: Run,
}

impl Ctx<'_> {
    fn n(&self) -> u64 {
        self.suite.names.len() as u64
    }

    /// Set-up traffic: sent and checked, not timed.
    fn untimed(
        &mut self,
        node: &mut Node,
        order: impl IntoIterator<Item = usize>,
        tier: ReuseTier,
    ) {
        for i in order {
            let outcome = node.send(&self.requests[i]);
            let checked = outcome.and_then(|r| self.golden.check(self.suite.names[i], tier, &r));
            self.tally.record(checked);
        }
    }

    /// One measured pass; each request is timed from its frame going
    /// out to its response decoded.
    fn pass(&mut self, node: &mut Node, pass: u64) {
        if self.run.open.is_none() {
            self.run.open = Some((cpu_ticks(), self.run.passes.len()));
        }
        let tier = self.workload.tier();
        let first = self.run.latencies_us.len();
        let cpu = process_cpu();
        let started = Instant::now();
        for i in pass_order(self.seed, pass, self.suite.names.len()) {
            let sent = Instant::now();
            let outcome = node.send(&self.requests[i]);
            self.run
                .latencies_us
                .push(sent.elapsed().as_secs_f64() * 1e6);
            let checked = outcome.and_then(|r| self.golden.check(self.suite.names[i], tier, &r));
            self.tally.record(checked);
        }
        let wall = started.elapsed();
        self.run.passes.push(Pass {
            requests: first..self.run.latencies_us.len(),
            wall,
            cpu: process_cpu() - cpu,
        });
        let (_, window_first) = self.run.open.expect("opened above");
        let window: Duration = self.run.passes[window_first..].iter().map(|p| p.wall).sum();
        if window >= WINDOW {
            self.run.close_window();
        }
    }

    fn measured_enough(&self) -> bool {
        self.run.measured() >= self.seconds
    }

    fn server_totals(&self, node: &Node) -> Option<ServerTotals> {
        self.trace.then(|| ServerTotals::read(&node.server))
    }

    fn add_server_totals(&mut self, node: &Node, before: Option<ServerTotals>) {
        if let Some(before) = before {
            let now = ServerTotals::read(&node.server);
            self.run.server.add_since(now, before);
        }
    }

    /// Every `cold_sweep` pass builds each program cold once, derives
    /// the narrower lattice points and writes every point to the store.
    fn check_sweep_counts(&mut self, node: &Node) {
        let n = self.n();
        let points = GeometryLattice::paper_default().len() as u64;
        let s = node.plane_stats();
        let got = (s.cold_builds, s.derived, s.disk_writes);
        let want = (n, n * (points - 1), n * points);
        if got != want {
            self.tally.fail(
                n,
                format!("cold_sweep pass: (cold builds, derived, disk writes) {got:?}, expected {want:?}"),
            );
        }
    }

    /// A `restart_read` server answers every program from disk, writes
    /// nothing (its drain included) and leaves the store as it was.
    fn check_read_only(&mut self, node: Node, store_bytes: u64) {
        let n = self.n();
        let disk_hits = node.plane_stats().disk_hits;
        let last = node.finish();
        let got = (disk_hits, last.disk_writes, last.store_bytes);
        let want = (n, 0, store_bytes);
        if got != want {
            self.tally.fail(
                n,
                format!("restart_read pass: (disk hits, disk writes, store bytes) {got:?}, expected {want:?}"),
            );
        }
    }
}

/// Runs one set-up, recording its wall time for the report and its CPU
/// time for `setup_s`: the CPU time is the set-up's work, which is what
/// must not grow; the wall time also counts whatever the hypervisor
/// steals.
fn set_up<T>(cx: &mut Ctx, f: impl FnOnce(&mut Ctx) -> Result<T, String>) -> Result<T, String> {
    let (started, cpu) = (Instant::now(), process_cpu());
    let out = f(cx)?;
    cx.run.setups.push((started.elapsed(), process_cpu() - cpu));
    Ok(out)
}

fn remove_store(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

#[allow(clippy::too_many_arguments)]
pub fn run(
    workload: Workload,
    suite: &Suite,
    golden: &Golden,
    stores: &Stores,
    seed: u64,
    seconds: Duration,
    trace: bool,
    tally: &mut Tally,
) -> Result<Run, String> {
    let mut cx = Ctx {
        workload,
        suite,
        golden,
        stores,
        seed,
        seconds,
        trace,
        tally,
        requests: (0..suite.names.len())
            .map(|i| suite.request(workload, i))
            .collect(),
        run: Run::default(),
    };
    match workload {
        Workload::WarmRepeat => warm_repeat(&mut cx)?,
        Workload::ColdSweep => cold_sweep(&mut cx)?,
        Workload::RestartRead => restart_read(&mut cx)?,
    }
    cx.run.close_window();
    Ok(cx.run)
}

/// Set-up: start the server, answer each program once (cold), run one
/// discarded pass. Passes: the same long-lived server, every answer from
/// the memory tier.
fn warm_repeat(cx: &mut Ctx) -> Result<(), String> {
    let n = cx.suite.names.len();
    let mut kept: Option<Node> = None;
    for _ in 0..SETUP_REPEATS {
        let node = set_up(cx, |cx| {
            let mut node = Node::start(None)?;
            cx.untimed(&mut node, 0..n, ReuseTier::Cold);
            cx.untimed(&mut node, pass_order(cx.seed, 0, n), ReuseTier::Memory);
            Ok(node)
        })?;
        if let Some(previous) = kept.replace(node) {
            previous.finish();
        }
    }
    let mut node = kept.expect("at least one set-up");
    let before = cx.server_totals(&node);
    for pass in 1.. {
        cx.pass(&mut node, pass);
        if cx.measured_enough() {
            break;
        }
    }
    cx.add_server_totals(&node, before);
    node.finish();
    Ok(())
}

/// Set-up: one discarded pass. Passes: a fresh server over a new empty
/// store, one geometry sweep per program (first point cold, the rest
/// derived, every point written through).
fn cold_sweep(cx: &mut Ctx) -> Result<(), String> {
    let n = cx.suite.names.len();
    for _ in 0..SETUP_REPEATS {
        let dir = cx.stores.fresh_dir();
        let node = set_up(cx, |cx| {
            let mut node = Node::start(Some(&dir))?;
            cx.untimed(&mut node, pass_order(cx.seed, 0, n), ReuseTier::Cold);
            Ok(node)
        })?;
        cx.check_sweep_counts(&node);
        node.finish();
        remove_store(&dir);
    }
    for pass in 1.. {
        let dir = cx.stores.fresh_dir();
        let mut node = Node::start(Some(&dir))?;
        let before = cx.server_totals(&node);
        cx.pass(&mut node, pass);
        cx.check_sweep_counts(&node);
        cx.run.store_bytes = node.server.reuse_plane().disk_store_bytes();
        cx.add_server_totals(&node, before);
        node.finish();
        remove_store(&dir);
        if cx.measured_enough() {
            break;
        }
    }
    Ok(())
}

/// Set-up: build a store with one analysis per program on a disk-backed
/// server, drain it, then one discarded restarted pass. Passes: a new
/// server over that store, every answer from the disk tier.
fn restart_read(cx: &mut Ctx) -> Result<(), String> {
    let n = cx.suite.names.len();
    let mut store: Option<(std::path::PathBuf, u64)> = None;
    for _ in 0..SETUP_REPEATS {
        let dir = cx.stores.fresh_dir();
        let (node, built) = set_up(cx, |cx| {
            let mut node = Node::start(Some(&dir))?;
            cx.untimed(&mut node, 0..n, ReuseTier::Cold);
            let built = node.finish().store_bytes;
            let mut node = Node::start(Some(&dir))?;
            cx.untimed(&mut node, pass_order(cx.seed, 0, n), ReuseTier::Disk);
            Ok((node, built))
        })?;
        cx.check_read_only(node, built);
        if let Some((previous, _)) = store.replace((dir, built)) {
            remove_store(&previous);
        }
    }
    let (dir, built) = store.expect("at least one set-up");
    for pass in 1.. {
        let mut node = Node::start(Some(&dir))?;
        let before = cx.server_totals(&node);
        cx.pass(&mut node, pass);
        cx.add_server_totals(&node, before);
        cx.check_read_only(node, built);
        if cx.measured_enough() {
            break;
        }
    }
    cx.run.store_bytes = Some(built);
    remove_store(&dir);
    Ok(())
}
