//! `live_dashboard`: open-loop epoch delivery into a WAL-attached monitor
//! behind a live lens, one session polling alerts between epochs and a
//! second following the live edge.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use batchlens::stream::{BatchSequencer, StreamConfig, StreamMonitor};
use batchlens::trace::{DatasetQuery, Timestamp};

use crate::api::{HttpSession, SessionApi, TracedSession};
use crate::report::Report;
use crate::scrub_render::{set_up, visit, Mode, SessionLog};
use crate::spans::Tracer;
use crate::system::{expected_frame_body, serve, wal_monitor, Ctx, SETUP_REPS};

/// Epochs delivered per second of wall time. The lens shows one trace
/// day, so a run can deliver at most its 1,440 epochs; this rate spreads
/// them over a 20 s run. It is about a ninth of what `ingest_replay`
/// sustains on a 2-core host (≈640 epochs/s).
pub const EPOCHS_PER_S: f64 = 70.0;
/// How often the first session polls `/alerts` between epochs.
pub const POLL_EVERY: Duration = Duration::from_millis(2);
/// Every `SAMPLE`-th live-edge visit keeps its `/frame` body for the check.
const SAMPLE: usize = 8;

/// The generator's side: epochs on a schedule, alert polls in between.
#[derive(Default)]
pub struct Generator {
    /// Epoch commit (structure plus `ingest_batch`) measured from the
    /// epoch's due time, and from when delivery began, in ms.
    pub commit_from_due_ms: Vec<f64>,
    pub commit_ms: Vec<f64>,
    /// Per alert: from its epoch's due time to the first `/alerts`
    /// response that carried it, in ms.
    pub alert_lag_ms: Vec<f64>,
    /// How late the generator began each epoch, in ms.
    pub late_ms: Vec<f64>,
    /// Epochs due but not finished, half-way through and at the end.
    pub backlog_mid: usize,
    pub backlog_end: usize,
    pub delivered: usize,
    /// `(first alert seq after the epoch, epoch)`, ascending.
    fired: Vec<(u64, usize)>,
    next_seq: u64,
    pub polls: u64,
    non_200: u64,
    gaps: Vec<String>,
}

impl Generator {
    fn poll(&mut self, api: &mut impl SessionApi, due: &impl Fn(usize) -> Instant) {
        let (reply, payload) = api.alerts();
        let seen = Instant::now();
        self.polls += 1;
        let Some(payload) = payload.filter(|_| reply.ok) else {
            self.non_200 += 1;
            return;
        };
        for alert in &payload.alerts {
            if alert.seq != self.next_seq {
                self.gaps
                    .push(format!("alert seq {} after {}", alert.seq, self.next_seq));
            }
            self.next_seq = alert.seq + 1;
            let epoch = self.fired[self.fired.partition_point(|&(end, _)| end <= alert.seq)].1;
            self.alert_lag_ms
                .push(seen.saturating_duration_since(due(epoch)).as_secs_f64() * 1e3);
        }
        if payload.missed != 0 {
            self.gaps
                .push(format!("cursor missed {} alerts", payload.missed));
        }
    }
}

pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub open_s: Vec<f64>,
    pub lens_new_s: Vec<f64>,
    pub gen: Generator,
    pub edge: SessionLog,
    pub live_requests_per_s: f64,
    pub tracers: Vec<Tracer>,
    /// Peak RSS when the sessions ended, before the output checks.
    pub peak_rss_mb: f64,
}

pub fn run(ctx: &Ctx, report: &mut Report, mode: Mode) -> Outcome {
    let reps = if mode == Mode::Http { SETUP_REPS } else { 1 };
    let mut monitors = Vec::new();
    let (served, [setup_s, open_s, lens_new_s]) = set_up(ctx, reps, |store, rep| {
        let monitor = wal_monitor(&ctx.work.join(format!("wal-live-{rep}")));
        monitors.push(Arc::clone(&monitor));
        serve(store, Some(monitor))
    });
    let monitor = monitors.pop().expect("at least one set-up");
    drop(monitors);
    let server = Arc::clone(&served.server);
    let manager = Arc::clone(server.manager());
    let addr = server.local_addr();
    let handle = server.handle();
    let epochs = &ctx.feed.epochs;
    let planned = ((ctx.seconds.as_secs_f64() * EPOCHS_PER_S) as usize).min(epochs.len());
    let latest = AtomicI64::new(i64::MIN);
    let origin = Instant::now();
    let traced = mode == Mode::InProcess { traced: true };
    let tracer = || {
        if traced {
            Tracer::new(origin)
        } else {
            Tracer::off()
        }
    };

    let (gen, edge, edge_wall, tracers) = thread::scope(|s| {
        let serving = (mode == Mode::Http).then(|| s.spawn(|| server.serve()));
        let start = Instant::now() + Duration::from_millis(20);
        let due = move |e: usize| start + Duration::from_secs_f64(e as f64 / EPOCHS_PER_S);
        let end = due(planned);
        let latest = &latest;
        let follow = move |api: &mut dyn FnMut(Timestamp, &mut SessionLog, bool)| {
            let mut log = SessionLog::default();
            while latest.load(Ordering::Acquire) == i64::MIN {
                thread::sleep(Duration::from_micros(200));
            }
            let t0 = Instant::now();
            let mut v = 0;
            while Instant::now() < end {
                api(
                    Timestamp::new(latest.load(Ordering::Acquire)),
                    &mut log,
                    v % SAMPLE == 0,
                );
                v += 1;
            }
            (log, t0.elapsed().as_secs_f64())
        };
        let (gen, (edge, wall), tracers) = match mode {
            Mode::Http => {
                let mut poller = HttpSession::open(addr);
                let mut edge_api = HttpSession::open(addr);
                let id = edge_api.id();
                let edge = s.spawn(move || {
                    let (mut log, wall) = follow(&mut |t, l, smp| visit(&mut edge_api, l, t, smp));
                    log.id = id;
                    (log, wall)
                });
                let gen = generate(
                    ctx,
                    &monitor,
                    planned,
                    &due,
                    latest,
                    &mut poller,
                    &mut Tracer::off(),
                );
                (gen, edge.join().expect("live-edge session"), Vec::new())
            }
            Mode::InProcess { .. } => {
                let mut poller = TracedSession::open(Arc::clone(&manager), tracer());
                let mut edge_api = TracedSession::open(Arc::clone(&manager), tracer());
                let id = edge_api.id();
                let edge = s.spawn(move || {
                    let (mut log, wall) = follow(&mut |t, l, smp| visit(&mut edge_api, l, t, smp));
                    log.id = id;
                    ((log, wall), edge_api.tracer)
                });
                let mut gen_tracer = tracer();
                let gen = generate(
                    ctx,
                    &monitor,
                    planned,
                    &due,
                    latest,
                    &mut poller,
                    &mut gen_tracer,
                );
                let (edge, edge_tracer) = edge.join().expect("live-edge session");
                (gen, edge, vec![gen_tracer, poller.tracer, edge_tracer])
            }
        };
        handle.shutdown();
        if let Some(serving) = serving {
            serving.join().expect("server thread");
        }
        (gen, edge, wall, tracers)
    });

    let peak_rss_mb = crate::host::peak_rss_mb();
    check(ctx, report, &monitor, &manager, &gen, &edge);
    Outcome {
        setup_s,
        open_s,
        lens_new_s,
        live_requests_per_s: edge.requests() as f64 / edge_wall,
        gen,
        edge,
        tracers,
        peak_rss_mb,
    }
}

/// Thread 1: delivers epoch `e` when it falls due, and polls alerts on a
/// fixed interval while waiting.
fn generate(
    ctx: &Ctx,
    monitor: &StreamMonitor,
    planned: usize,
    due: &impl Fn(usize) -> Instant,
    latest: &AtomicI64,
    api: &mut impl SessionApi,
    tracer: &mut Tracer,
) -> Generator {
    let mut gen = Generator::default();
    let sequencer = BatchSequencer::new();
    let mut next_poll = due(0);
    let mut finished = Vec::with_capacity(planned);
    for (e, epoch) in ctx.feed.epochs.iter().enumerate().take(planned) {
        loop {
            let now = Instant::now();
            if now >= due(e) {
                break;
            }
            if now >= next_poll {
                gen.poll(api, due);
                next_poll = (next_poll + POLL_EVERY).max(Instant::now());
                continue;
            }
            thread::sleep(due(e).min(next_poll) - now);
        }
        let batch = epoch.seal(&sequencer);
        let began = Instant::now();
        gen.late_ms.push((began - due(e)).as_secs_f64() * 1e3);
        tracer.span("epoch.commit", e as u64, |t| {
            t.span("stream.structure", e as u64, |_| {
                epoch.deliver_structure(monitor)
            });
            t.span("stream.ingest_batch", e as u64, |_| {
                monitor.ingest_batch(&batch)
            });
        });
        let done = Instant::now();
        finished.push(done);
        gen.commit_ms.push((done - began).as_secs_f64() * 1e3);
        gen.commit_from_due_ms
            .push((done - due(e)).as_secs_f64() * 1e3);
        gen.fired.push((monitor.next_alert_seq(), e));
        gen.delivered = e + 1;
        latest.store(ctx.feed.minute_of(e).seconds(), Ordering::Release);
    }
    // Epochs due by `at` that had not finished by then.
    let backlog = |at: Instant| {
        let due_by = (0..planned).take_while(|&e| due(e) <= at).count();
        due_by - finished.iter().filter(|&&f| f <= at).count().min(due_by)
    };
    gen.backlog_mid = backlog(due(planned / 2));
    gen.backlog_end = backlog(due(planned));
    // Every fired alert must reach the cursor.
    let drain_deadline = Instant::now() + Duration::from_secs(10);
    while gen.next_seq < monitor.next_alert_seq() && Instant::now() < drain_deadline {
        gen.poll(api, due);
        thread::sleep(POLL_EVERY);
    }
    gen
}

/// Output checks, outside the timed region.
fn check(
    ctx: &Ctx,
    report: &mut Report,
    monitor: &StreamMonitor,
    manager: &batchlens_serve::SessionManager,
    gen: &Generator,
    edge: &SessionLog,
) {
    let (hits, misses) = manager.lens().frame_cache_stats();
    println!(
        "  frame cache: {hits} hits, {misses} misses (hit rate {:.3}); {} alert polls",
        hits as f64 / (hits + misses).max(1) as f64,
        gen.polls
    );
    report.attempted += gen.polls + gen.delivered as u64 + edge.requests() as u64;
    report.failures("stale frames served", manager.stale_served_total());
    report.failures("non-200 alert polls", gen.non_200);
    report.failures("non-200 live-edge responses", edge.non_200);
    report.failures("stale live-edge responses", edge.stale);
    report.failures("wal appends", monitor.wal_errors());
    for gap in &gen.gaps {
        report.problem(gap.clone());
    }
    let (ref_alerts, ref_version, _) = ctx.feed.reference[gen.delivered - 1];
    report.attempted += 1;
    if gen.next_seq != ref_alerts || monitor.state_version() != ref_version {
        report.problem(format!(
            "cursor saw {} alerts at version {}; the WAL-less reference fired {} at version {}",
            gen.next_seq,
            monitor.state_version(),
            ref_alerts,
            ref_version
        ));
    }
    check_live_frames(ctx, report, edge, gen.delivered);
}

/// Each sampled live `/frame` body must equal the frame a WAL-less
/// reference monitor gives at the same state version and instant.
fn check_live_frames(ctx: &Ctx, report: &mut Report, edge: &SessionLog, delivered: usize) {
    let mut samples: Vec<(u64, Timestamp, &str)> = Vec::new();
    for (at, body) in &edge.frames {
        match version_of(body) {
            Some(v) => samples.push((v, *at, body)),
            None => report.problem(format!("unparsable /frame body at {}", at.seconds())),
        }
    }
    samples.sort_by_key(|&(v, at, _)| (v, at));
    let reference = StreamMonitor::new(StreamConfig::default()).expect("default config is valid");
    let sequencer = BatchSequencer::new();
    let mut next = samples.iter().peekable();
    let mut checked = 0;
    let mut compare = |monitor: &StreamMonitor, report: &mut Report| {
        while let Some(&&(v, at, body)) = next.peek() {
            if v > monitor.state_version() {
                break;
            }
            next.next();
            report.attempted += 1;
            checked += 1;
            let want = expected_frame_body(edge.id, &monitor.live_view().frame(at));
            if v != monitor.state_version() || body != want {
                report.problem(format!(
                    "live /frame at {} v{v} differs from the reference",
                    at.seconds()
                ));
            }
        }
    };
    for epoch in &ctx.feed.epochs[..delivered] {
        for d in &epoch.structure {
            d.deliver(&reference);
            compare(&reference, report);
        }
        reference.ingest_batch(&epoch.seal(&sequencer));
        compare(&reference, report);
    }
    println!(
        "  live frames checked against the reference = {checked} of {}",
        samples.len()
    );
    if checked != samples.len() {
        report.problem(format!(
            "{} live frames had no matching reference state",
            samples.len() - checked
        ));
    }
}

fn version_of(body: &str) -> Option<u64> {
    let rest = &body[body.find("\"version\":")? + "\"version\":".len()..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}
