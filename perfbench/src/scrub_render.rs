//! `scrub_render`: two keep-alive dashboard sessions drag across the day
//! against a lens reopened from the segment store; no ingest.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use batchlens::trace::{DatasetQuery, TimeDelta, Timestamp, TraceDataset};
use batchlens_serve::SessionManager;

use crate::api::{HttpSession, SessionApi, TracedSession};
use crate::http::fnv64;
use crate::report::Report;
use crate::spans::Tracer;
use crate::system::{expected_frame_body, serve, Ctx, Served, SETUP_REPS};

/// How far the drag moves per step, in trace seconds.
const STEP: i64 = 60;
/// Every `WIGGLE`-th step drags back one step and returns.
const WIGGLE: usize = 8;
/// How many visits the second session trails the first.
const TRAIL: usize = 3;
/// Every `SAMPLE`-th visit's `/frame` body is kept for the output check.
const SAMPLE: usize = 16;

/// How the sessions reach the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Over loopback HTTP: the untraced run.
    Http,
    /// In-process through the router's functions, traced or not.
    InProcess { traced: bool },
}

/// The instants one session visits, in order: a drag across the day with
/// a back-and-return wiggle every [`WIGGLE`] steps, wrapping at the end.
pub fn walk(ds: &TraceDataset) -> impl Fn(usize) -> Timestamp {
    let span = ds.span().expect("paper_day is not empty");
    let steps = (span.duration().as_seconds() / STEP).max(1) as usize;
    let start = span.start();
    move |visit: usize| {
        // Each group of WIGGLE steps holds WIGGLE + 2 visits.
        let (group, k) = (visit / (WIGGLE + 2), visit % (WIGGLE + 2));
        let step = group * WIGGLE
            + match k {
                k if k < WIGGLE => k,
                k if k == WIGGLE => WIGGLE - 2,
                _ => WIGGLE - 1,
            };
        start + TimeDelta::seconds((step % steps) as i64 * STEP)
    }
}

/// What one session measured.
#[derive(Default)]
pub struct SessionLog {
    pub id: u64,
    pub event_ms: Vec<f64>,
    pub frame_ms: Vec<f64>,
    pub render_ms: Vec<f64>,
    /// Per visit: the SVG body's hash.
    pub svg: Vec<u64>,
    pub svg_bytes: Vec<f64>,
    /// Sampled `(instant, /frame body)` pairs.
    pub frames: Vec<(Timestamp, String)>,
    pub non_200: u64,
    pub stale: u64,
}

impl SessionLog {
    pub fn requests(&self) -> usize {
        self.event_ms.len() + self.frame_ms.len() + self.render_ms.len()
    }
}

/// One visit: select the instant, fetch the frame, render the dashboard.
pub fn visit(api: &mut impl SessionApi, log: &mut SessionLog, at: Timestamp, sample: bool) {
    let mut tally = |ok: bool, stale: bool| {
        log.non_200 += u64::from(!ok);
        log.stale += u64::from(stale);
    };
    let r = api.select(at);
    tally(r.ok, r.stale);
    log.event_ms.push(r.rtt.as_secs_f64() * 1e3);
    let r = api.frame();
    tally(r.ok, r.stale);
    log.frame_ms.push(r.rtt.as_secs_f64() * 1e3);
    if sample {
        log.frames
            .push((at, String::from_utf8_lossy(&r.body).into_owned()));
    }
    let r = api.render();
    tally(r.ok, r.stale);
    log.render_ms.push(r.rtt.as_secs_f64() * 1e3);
    log.svg.push(fnv64(&r.body));
    log.svg_bytes.push(r.body.len() as f64);
}

pub struct Outcome {
    /// Per set-up: the whole set-up, `TraceDataset::open` and
    /// `BatchLens::new`, in seconds.
    pub setup_s: Vec<f64>,
    pub open_s: Vec<f64>,
    pub lens_new_s: Vec<f64>,
    pub requests_per_s: f64,
    pub sessions: [SessionLog; 2],
    pub tracers: Vec<Tracer>,
    /// Peak RSS when the sessions ended, before the output checks.
    pub peak_rss_mb: f64,
}

/// Dumps the day to a segment store once per run, then sets the serving
/// stack up `reps` times from it, keeping the last.
pub fn set_up(
    ctx: &Ctx,
    reps: usize,
    mut make: impl FnMut(&std::path::Path, usize) -> Served,
) -> (Served, [Vec<f64>; 3]) {
    let store = ctx.work.join("store");
    if !store.exists() {
        batchlens::trace::store::dump_dataset(&store, ctx.ds).expect("segment dump");
    }
    let mut times: [Vec<f64>; 3] = Default::default();
    let mut served = None;
    for rep in 0..reps {
        drop(served.take());
        let t = Instant::now();
        let s = make(&store, rep);
        times[0].push(t.elapsed().as_secs_f64());
        times[1].push(s.open_s);
        times[2].push(s.lens_new_s);
        served = Some(s);
    }
    (served.expect("at least one set-up"), times)
}

/// Runs the two dragging sessions for `seconds`.
pub fn run(ctx: &Ctx, report: &mut Report, mode: Mode, seconds: Duration) -> Outcome {
    let reps = if mode == Mode::Http { SETUP_REPS } else { 1 };
    let (served, [setup_s, open_s, lens_new_s]) = set_up(ctx, reps, |store, _| serve(store, None));
    let server = Arc::clone(&served.server);
    let manager = Arc::clone(server.manager());
    let addr = server.local_addr();
    let handle = server.handle();
    let at = walk(ctx.ds);
    let progress = AtomicUsize::new(0);
    let origin = Instant::now();

    let ((lead, trail, tracers), wall) = thread::scope(|s| {
        let serving = (mode == Mode::Http).then(|| s.spawn(|| server.serve()));
        let start = Instant::now();
        let deadline = start + seconds;
        let (at, progress) = (&at, &progress);
        let lead = move |api: &mut dyn FnMut(Timestamp, &mut SessionLog, bool)| {
            let mut log = SessionLog::default();
            let mut v = 0;
            while Instant::now() < deadline {
                api(at(v), &mut log, v % SAMPLE == 0);
                v += 1;
                progress.store(v, Ordering::Release);
            }
            log
        };
        let trail = move |api: &mut dyn FnMut(Timestamp, &mut SessionLog, bool)| {
            let mut log = SessionLog::default();
            let mut v = 0;
            'walk: while Instant::now() < deadline {
                while progress.load(Ordering::Acquire) < v + TRAIL {
                    if Instant::now() >= deadline {
                        break 'walk;
                    }
                    thread::sleep(Duration::from_micros(200));
                }
                api(at(v), &mut log, v % SAMPLE == SAMPLE / 2);
                v += 1;
            }
            log
        };
        let out = match mode {
            Mode::Http => {
                let (mut a, mut b) = (HttpSession::open(addr), HttpSession::open(addr));
                let (ia, ib) = (a.id(), b.id());
                let ta = s.spawn(move || lead(&mut |t, l, smp| visit(&mut a, l, t, smp)));
                let tb = s.spawn(move || trail(&mut |t, l, smp| visit(&mut b, l, t, smp)));
                let (mut la, mut lb) = (ta.join().expect("lead"), tb.join().expect("trail"));
                (la.id, lb.id) = (ia, ib);
                (la, lb, Vec::new())
            }
            Mode::InProcess { traced } => {
                let tracer = || {
                    if traced {
                        Tracer::new(origin)
                    } else {
                        Tracer::off()
                    }
                };
                let mut a = TracedSession::open(Arc::clone(&manager), tracer());
                let mut b = TracedSession::open(Arc::clone(&manager), tracer());
                let (ia, ib) = (a.id(), b.id());
                let ta = s.spawn(move || {
                    let log = lead(&mut |t, l, smp| visit(&mut a, l, t, smp));
                    (log, a.tracer)
                });
                let tb = s.spawn(move || {
                    let log = trail(&mut |t, l, smp| visit(&mut b, l, t, smp));
                    (log, b.tracer)
                });
                let ((mut la, ra), (mut lb, rb)) =
                    (ta.join().expect("lead"), tb.join().expect("trail"));
                (la.id, lb.id) = (ia, ib);
                (la, lb, vec![ra, rb])
            }
        };
        let wall = start.elapsed().as_secs_f64();
        handle.shutdown();
        if let Some(serving) = serving {
            serving.join().expect("server thread");
        }
        (out, wall)
    });

    let sessions = [lead, trail];
    let peak_rss_mb = crate::host::peak_rss_mb();
    check(ctx, report, &manager, &sessions);
    let requests: usize = sessions.iter().map(SessionLog::requests).sum();
    Outcome {
        setup_s,
        open_s,
        lens_new_s,
        requests_per_s: requests as f64 / wall,
        sessions,
        tracers,
        peak_rss_mb,
    }
}

/// Output checks, outside the timed region.
fn check(ctx: &Ctx, report: &mut Report, manager: &SessionManager, sessions: &[SessionLog; 2]) {
    let (hits, misses) = manager.lens().frame_cache_stats();
    println!(
        "  frame cache: {hits} hits, {misses} misses (hit rate {:.3})",
        hits as f64 / (hits + misses).max(1) as f64
    );
    report.failures("stale frames served", manager.stale_served_total());
    for log in sessions {
        report.attempted += log.requests() as u64;
        report.failures("non-200 responses", log.non_200);
        report.failures("stale responses", log.stale);
        for (at, body) in &log.frames {
            report.attempted += 1;
            if *body != expected_frame_body(log.id, &ctx.ds.frame(*at)) {
                report.problem(format!(
                    "session {} /frame at {} differs from the dataset frame",
                    log.id,
                    at.seconds()
                ));
            }
        }
    }
    let [lead, trail] = sessions;
    for (v, (a, b)) in lead.svg.iter().zip(&trail.svg).enumerate() {
        report.attempted += 1;
        if a != b {
            report.problem(format!(
                "visit {v}: the two sessions got different SVG bytes"
            ));
        }
    }
}
