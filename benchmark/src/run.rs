//! One session against a set-up stack, the timed (untraced) phases, and
//! the end-to-end metrics computed from them.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eie_core::nn::zoo::BenchLayer;
use eie_serve::protocol::StatsReport;
use eie_serve::{Client, ModelServer};

use crate::drive::{self, Load, Phase, Tally};
use crate::estimators::{
    median, percentile, quiet_quarter, segment_stats, Better, SegmentStats, Spread,
};
use crate::metrics::Report;
use crate::stack::{self, Prepared, Stack, Workload};

/// A timed phase is split into as many equal segments as give each
/// about this many samples, within these limits. A load metric is
/// computed per segment and reported as the quiet quarter of its
/// segments: short segments find the quiet windows of a loud host,
/// and a segment still has enough samples for its p90.
const SAMPLES_PER_SEGMENT: usize = 80;
const MIN_SEGMENTS: usize = 3;
const MAX_SEGMENTS: usize = 25;
/// How often `rss_mb` samples `VmRSS` during the timed phases.
const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(50);
/// Unmeasured head of every timed phase: the pipeline fills and the
/// throughput estimator gets a completion to measure from.
pub const LEAD_IN: Duration = Duration::from_millis(250);
/// The system is set up at least this often in an end-to-end run, and
/// again (up to the cap) until the set-ups have taken this long in
/// all: `setup_s` is their median, and a 12 ms set-up needs more than
/// three samples to hold still.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);
/// Outstanding submissions of `srv_alexfc_w16`.
pub const OUTSTANDING: usize = 16;
/// Arrival rate of each `net_tiny` open-loop connection.
const OPEN_RATE_PER_S: f64 = 400.0;

pub struct Session<'a> {
    pub prepared: &'a Prepared,
    pub stack: Stack,
    /// Loopback connections of the network workloads.
    pub clients: Vec<Client>,
    /// The in-process workload's lease on its model's server.
    pub lease: Option<Arc<ModelServer>>,
    /// How long the first warm-up request took: a request to a model
    /// that was registered but not yet resident.
    pub first_request_ms: f64,
    pub setup_s: f64,
}

impl<'a> Session<'a> {
    /// Sets the system up and answers the warm-up requests: everything
    /// between "the weights are in memory" and "the next request is a
    /// steady-state one".
    pub fn open(prepared: &'a Prepared, weights: &[Vec<BenchLayer>], dir: &Path) -> Session<'a> {
        let started = Instant::now();
        let workload = prepared.workload;
        let stack = stack::set_up(prepared, weights, dir);
        let warm = workload.warm_up_requests();
        let (mut clients, mut lease) = (Vec::new(), None);
        let first = Instant::now();
        let first_request_ms;
        if workload == Workload::SrvAlexfcW16 {
            let registry = stack.net.registry();
            let server = registry
                .acquire(&prepared.specs[0].name)
                .expect("load the model");
            let mut tally = Tally::default();
            let mut answer = |i: usize| {
                let result = server
                    .submit(&prepared.inputs[i])
                    .map(|handle| handle.wait())
                    .expect("warm-up submission")
                    .expect("warm-up request");
                let words = result.outputs.iter().map(|v| v.raw());
                tally.check(&prepared.name, i as u64, &prepared.goldens[0][i], words);
            };
            answer(0);
            first_request_ms = first.elapsed().as_secs_f64() * 1e3;
            (1..warm).for_each(&mut answer);
            assert_eq!(tally.failed, 0, "a warm-up request failed");
            lease = Some(server);
        } else {
            let conns = if workload == Workload::NetTiny { 2 } else { 1 };
            clients = drive::connect(stack.net.local_addr(), conns);
            let load = Load {
                prepared,
                seed: 0,
                total: Duration::ZERO,
                first_model: 0,
            };
            drive::warm(&mut clients, &load, 0..1);
            first_request_ms = first.elapsed().as_secs_f64() * 1e3;
            drive::warm(&mut clients, &load, 1..warm as u64);
        }
        Session {
            prepared,
            stack,
            clients,
            lease,
            first_request_ms,
            setup_s: started.elapsed().as_secs_f64(),
        }
    }

    /// A generator's view of this session for `measured_s` seconds.
    /// Its first request goes to a model that is not resident (model 0
    /// on the single-model workloads).
    pub fn load(&self, seed: u64, measured_s: f64) -> Load<'a> {
        let registry = self.stack.net.registry();
        let first_model = self
            .prepared
            .specs
            .iter()
            .position(|spec| !registry.is_resident(&spec.name))
            .unwrap_or(0);
        Load {
            prepared: self.prepared,
            seed,
            total: LEAD_IN + Duration::from_secs_f64(measured_s),
            first_model,
        }
    }

    /// Runs the workload's timed phases, `seconds` of measured time in
    /// all, and returns them by name.
    pub fn timed(&mut self, seconds: f64, seed: u64) -> Vec<TimedPhase> {
        // A `Load` borrows the prepared inputs, not the session, so the
        // generators can hold the clients mutably beside it.
        let (main, half) = (self.load(seed, seconds), self.load(seed, seconds / 2.0));
        let timed = |name, measured_s, phase| TimedPhase {
            name,
            measured_s,
            phase,
        };
        let clients = &mut self.clients;
        match self.prepared.workload {
            Workload::SrvAlexfcW16 => {
                let server = self
                    .lease
                    .as_ref()
                    .expect("the in-process workload holds a lease");
                let phase = drive::submit_loop(server, main, OUTSTANDING);
                vec![timed("main", seconds, phase)]
            }
            Workload::NetTiny => {
                let closed = drive::closed_loop(clients, half);
                let open = drive::open_loop(clients, half, OPEN_RATE_PER_S);
                vec![
                    timed("closed", seconds / 2.0, closed),
                    timed("open", seconds / 2.0, open),
                ]
            }
            Workload::NetAlexfcC1 | Workload::Cold(_) => {
                let phase = drive::closed_loop(clients, main);
                vec![timed("main", seconds, phase)]
            }
        }
    }

    /// Reads the server's STATS frame the way an operator would.
    pub fn server_stats(&self) -> StatsReport {
        Client::connect(self.stack.net.local_addr())
            .expect("connect for STATS")
            .stats()
            .expect("STATS answer")
    }

    /// Disconnects, drains and stops the server.
    pub fn close(self) {
        drop(self.clients);
        drop(self.lease);
        self.stack.net.stop();
    }
}

pub struct TimedPhase {
    pub name: &'static str,
    /// Seconds measured after the lead-in.
    pub measured_s: f64,
    pub phase: Phase,
}

impl TimedPhase {
    /// Per-segment statistics of the measured part, and how many
    /// segments completed nothing. A shared host that takes the
    /// processor away for a whole segment (200–300 ms on `net_tiny`) is
    /// noise like any other, not a reason to end the run without a
    /// result: the quiet quarter ranks such a segment last.
    pub fn segments(&self) -> (Vec<SegmentStats>, usize) {
        let segments =
            (self.measured().count() / SAMPLES_PER_SEGMENT).clamp(MIN_SEGMENTS, MAX_SEGMENTS);
        let stats: Vec<SegmentStats> = segment_stats(
            &self.phase.samples,
            LEAD_IN.as_secs_f64(),
            self.measured_s / segments as f64,
            segments,
        )
        .into_iter()
        .flatten()
        .collect();
        let stalled = segments - stats.len();
        (stats, stalled)
    }

    /// Samples that completed inside the measured part.
    pub fn measured(&self) -> impl Iterator<Item = &crate::estimators::Sample> {
        let lead = LEAD_IN.as_secs_f64();
        let end = lead + self.measured_s;
        self.phase
            .samples
            .iter()
            .filter(move |s| s.end_s >= lead && s.end_s < end)
    }
}

/// The phase the end-to-end load metrics are read from, and the phase
/// arrival-time latency is read from. The same one, except on
/// `net_tiny`: closed loop first, then the open loop. The open loop's
/// latency is reported per layer and not gated: at 2 x 400 requests/s
/// every request finds the processors idle, so it mostly times how long
/// the hypervisor takes to wake them, and ten identical runs spread
/// 0.22 (p50) and 0.31 (p90) where the closed loop spread 0.11.
pub fn gated_and_arrival_phases(phases: &[TimedPhase]) -> (&TimedPhase, &TimedPhase) {
    let first = phases.first().expect("a workload has a timed phase");
    let last = phases.last().expect("a workload has a timed phase");
    (first, last)
}

type Statistic = fn(&SegmentStats) -> f64;

/// The quiet quarter of a phase's segments for one statistic, with the
/// remark printed beside it (segments, stalled ones, median, worst,
/// samples).
///
/// Exits with code 1 if the phase completed nothing at all in its
/// measured part: its first request failed (and was printed), or the
/// run is far too short for the workload; there is no value to report.
fn quiet_quarter_of(phase: &TimedPhase, better: Better, statistic: Statistic) -> (f64, String) {
    let (segments, stalled) = phase.segments();
    if segments.is_empty() {
        println!("FAIL phase {} completed no request", phase.name);
        std::process::exit(1);
    }
    let values: Vec<f64> = segments.iter().map(statistic).collect();
    let samples: usize = segments.iter().map(|s| s.samples).sum();
    let spread = Spread::of(&values);
    let worst = match better {
        Better::Lower => spread.max,
        Better::Higher => spread.min,
    };
    let remark = format!(
        "quiet quarter of {} segments ({stalled} stalled; median {:.4}, worst {worst:.4}), {samples} samples",
        values.len() + stalled,
        spread.median
    );
    (quiet_quarter(&values, stalled, better), remark)
}

/// Computes throughput and latency per segment of the gated phase and
/// reports the quiet quarter of the segments; prints the same for a
/// separate arrival phase.
pub fn record_load_metrics(report: &mut Report, phases: &[TimedPhase]) {
    let (gated, arrival) = gated_and_arrival_phases(phases);
    let statistics: [(&'static str, Better, Statistic); 3] = [
        ("throughput_rps", Better::Higher, |s| s.throughput_rps),
        ("latency_p50_us", Better::Lower, |s| s.p50_us),
        ("latency_p90_us", Better::Lower, |s| s.p90_us),
    ];
    for (name, better, statistic) in statistics {
        let (value, remark) = quiet_quarter_of(gated, better, statistic);
        report.note(name, value, remark);
        if !std::ptr::eq(gated, arrival) {
            let (value, remark) = quiet_quarter_of(arrival, better, statistic);
            println!("# phase {} {name} {value:.4} {remark}", arrival.name);
        }
    }
}

/// Returns the heap's freed pages to the system, so that `rss_mb` reads
/// what the serving stack holds and not what the harness's own
/// preparation (weight generation, compile, goldens) left behind in the
/// allocator: 87 MB of 160 on `net_alexfc_c1`.
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointer, takes the
        // allocator's own locks, and only hands back pages that hold no
        // live allocation; it may be called at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Runs `f` while a sampler thread reads `VmRSS`, and returns the peak
/// it saw: the memory an operator has to provision. A single reading at
/// the end of the phase moved by 30 % between identical cold runs,
/// depending on where in a load-and-evict cycle it fell.
fn peak_rss_during<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = stack::rss_mb();
            while !done.load(Ordering::SeqCst) {
                std::thread::sleep(RSS_SAMPLE_EVERY);
                peak = peak.max(stack::rss_mb());
            }
            peak
        });
        let out = f();
        done.store(true, Ordering::SeqCst);
        (out, sampler.join().expect("the RSS sampler panicked"))
    })
}

/// An end-to-end run: prepare, set up, measure for `seconds`, verify the
/// accounting, then set up a few more times for the `setup_s` median.
///
/// The measured stack is the first set-up of the process on purpose.
/// Threads of an earlier set-up leave their malloc arenas behind, which
/// thread of the next set-up inherits which is a matter of timing, and
/// `rss_mb` of identical `net_alexfc_c1` runs read 143 or 192 MB with
/// it.
pub fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
    dir: &Path,
) -> (Report, Tally, bool) {
    let (prepared, sources) = stack::prepare(workload, seed, quick);
    println!(
        "# harness.prepare_s {:.4} s (weights, inputs, goldens)",
        prepared.prepare_s
    );
    let mut session = Session::open(&prepared, &sources.weights, dir);
    let mut setups = vec![session.setup_s];
    drop(sources);
    release_freed_memory();

    let (phases, rss) = peak_rss_during(|| session.timed(seconds, seed));
    let stats = session.server_stats();
    session.close();

    let weights = stack::generate(&prepared.specs);
    let setting_up = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setting_up.elapsed() < SETUP_BUDGET)
    {
        let again = Session::open(&prepared, &weights, dir);
        setups.push(again.setup_s);
        again.close();
    }
    let warm_total = (setups.len() * workload.warm_up_requests()) as u64;

    let mut report = Report::default();
    let setup = Spread::of(&setups);
    report.note(
        "setup_s",
        setup.median,
        format!(
            "{} set-ups min {:.4} max {:.4}",
            setups.len(),
            setup.min,
            setup.max
        ),
    );
    record_load_metrics(&mut report, &phases);
    report.set("rss_mb", rss);

    let mut tally = Tally {
        attempted: warm_total,
        failed: 0,
    };
    for timed in &phases {
        tally.absorb(timed.phase.tally);
    }
    let (gated, _) = gated_and_arrival_phases(&phases);
    let all: Vec<f64> = gated.measured().map(|s| s.latency_us).collect();
    println!(
        "# latency over the whole phase: p50 {:.1} us, p99 {:.1} us, max {:.1} us, {} samples",
        median(&all),
        percentile(&all, 99.0),
        percentile(&all, 100.0),
        all.len()
    );
    let sent = phases.iter().map(|t| t.phase.tally.attempted).sum();
    let correct = tally.failed == 0 && accounting_holds(workload, &stats, sent);
    (report, tally, correct)
}

/// The server's own books must agree with what the harness sent: no
/// request shed, expired or failed, and on a cold workload every one of
/// the `sent` requests (and each warm-up) loaded its model and evicted
/// the other.
pub fn accounting_holds(workload: Workload, stats: &StatsReport, sent: u64) -> bool {
    let mut holds = true;
    let faults = stats.shed + stats.expired + stats.failed + stats.worker_restarts;
    if faults != 0 {
        println!(
            "FAIL workload={}: server counted {faults} shed/expired/failed/restarts",
            workload.name()
        );
        holds = false;
    }
    let loads_expected = match workload {
        Workload::Cold(_) => sent + workload.warm_up_requests() as u64,
        _ => 1,
    };
    if stats.loads != loads_expected || stats.evictions != loads_expected - 1 {
        println!(
            "FAIL workload={}: registry counted {} loads and {} evictions, expected {} and {}",
            workload.name(),
            stats.loads,
            stats.evictions,
            loads_expected,
            loads_expected - 1
        );
        holds = false;
    }
    holds
}
