//! End-to-end benchmark of BatchLens: record→alert and request→bytes on
//! workloads generated from `paper_day(seed)`.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest_replay --seed 7 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! runs the same workload untraced, then replays it through the public
//! functions of each layer with a span around every call, and reports the
//! per-layer metrics and the tracing overhead. The last line of standard
//! output is the result object.

mod api;
mod feed;
mod host;
mod http;
mod ingest_replay;
mod layers;
mod live_dashboard;
mod report;
mod scrub_render;
mod spans;
mod stats;
mod system;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use batchlens::sim::scenario;

use crate::feed::Feed;
use crate::ingest_replay::Until;
use crate::layers::Bases;
use crate::report::Report;
use crate::scrub_render::{Mode, SessionLog};
use crate::spans::{Span, Tracer};
use crate::stats::{median, quartiles};
use crate::system::Ctx;

const WORKLOADS: [&str; 3] = ["ingest_replay", "scrub_render", "live_dashboard"];

/// How long the short dashboard probe of `ingest_replay`'s traced run lasts.
const PROBE: Duration = Duration::from_secs(2);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(".perfbench");
    let work = root.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("work dir is creatable");
    let rate = format!(
        ", \"live_epochs_per_s\": {}, \"seconds\": {}, \"trace\": {}",
        live_dashboard::EPOCHS_PER_S,
        args.seconds,
        args.trace
    );
    println!("host: {}", host::stamp(args.seed, &rate));

    let t = Instant::now();
    let ds = scenario::paper_day(args.seed)
        .run()
        .expect("paper_day simulates");
    let feed = Feed::build(&ds);
    // `peak_rss_mb` covers set-up and the run, not generating the load.
    host::reset_peak_rss();
    println!(
        "load: paper_day({}) = {} machines, {} instances, {} usage records in {} epochs, \
         {} alerts per day; generated in {:.2} s (not set-up)",
        args.seed,
        ds.machine_count(),
        ds.instance_count(),
        feed.usage_records(),
        feed.epochs.len(),
        feed.reference.last().map_or(0, |r| r.0),
        t.elapsed().as_secs_f64()
    );
    let ctx = Ctx {
        seconds: Duration::from_secs(args.seconds),
        work: work.clone(),
        ds: &ds,
        feed: &feed,
    };
    let mut report = Report::default();
    let spans = match args.workload.as_str() {
        "ingest_replay" => ingest_replay_workload(&ctx, &mut report, args.trace),
        "scrub_render" => scrub_render_workload(&ctx, &mut report, args.trace),
        "live_dashboard" => live_dashboard_workload(&ctx, &mut report, args.trace),
        _ => unreachable!("workload validated"),
    };
    let _ = std::fs::remove_dir_all(&work);
    if !spans.is_empty() {
        let path = root.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        match spans::write_tsv(&path, &spans) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written: {e}"),
        }
    }
    let _ = std::fs::remove_dir(root);
    println!(
        "failed_op_ratio = {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Process CPU time over wall time while `f` runs.
fn with_cpu<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let (cpu, wall) = (host::cpu_seconds(), Instant::now());
    let out = f();
    (
        out,
        (host::cpu_seconds() - cpu) / wall.elapsed().as_secs_f64(),
    )
}

fn setup_metric(report: &mut Report, setups: &[f64]) {
    let (q1, q3) = quartiles(setups);
    println!(
        "  set-up: {} samples, quartiles {q1} .. {q3} s",
        setups.len()
    );
    report.metric("setup_s", median(setups), "s");
}

/// The end-to-end metrics every workload reports: set-up, throughput, and
/// the median and tail of its primary latency, which fails the run when
/// it has too few samples.
fn end_to_end(
    report: &mut Report,
    setups: &[f64],
    per_s: f64,
    primary: Option<stats::Summary>,
    peak_rss_mb: f64,
) {
    println!("end-to-end metrics:");
    setup_metric(report, setups);
    report.metric("throughput_per_s", per_s, "1/s");
    let (p50, tail) = primary.map_or((f64::NAN, f64::NAN), |p| (p.p50, p.tail));
    report.metric("primary_p50_ms", p50, "ms");
    report.metric("primary_tail_ms", tail, "ms");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
}

fn all(logs: &[SessionLog], f: impl Fn(&SessionLog) -> &Vec<f64>) -> Vec<f64> {
    logs.iter().flat_map(|l| f(l).iter().copied()).collect()
}

/// A day's replay with the extras, for the WAL and stream layers of a
/// workload whose own path does not replay epochs.
fn epoch_probe(
    ctx: &Ctx,
    report: &mut Report,
    origin: Instant,
) -> (Vec<Span>, ingest_replay::Outcome) {
    println!("layer probe: one traced day of epochs (WAL and stream layers):");
    let mut tracer = Tracer::new(origin);
    let o = ingest_replay::run(ctx, report, &mut tracer, true, Until::OneDay);
    (Tracer::merge(vec![tracer]), o)
}

fn ingest_replay_workload(ctx: &Ctx, report: &mut Report, trace: bool) -> Vec<Span> {
    println!("workload ingest_replay (untraced):");
    let (o, cpu_per_wall) = with_cpu(|| {
        ingest_replay::run(
            ctx,
            report,
            &mut Tracer::off(),
            false,
            Until::Elapsed(ctx.seconds),
        )
    });
    let commit = report.latency("epoch_commit_ms", &o.commit_ms, "ms", 95.0);
    report.latency("alert_visible_ms", &o.visible_ms, "ms", 90.0);
    report.note("ingest_records_per_s", o.records_per_s, "1/s");
    report.note("proc.cpu_per_wall", cpu_per_wall, "ratio");
    if !trace {
        end_to_end(report, &o.setup_s, o.records_per_s, commit, o.peak_rss_mb);
        return Vec::new();
    }
    let origin = Instant::now();
    println!("traced replay of the same epochs:");
    let mut tracer = Tracer::new(origin);
    let traced = ingest_replay::run(ctx, report, &mut tracer, true, Until::Elapsed(ctx.seconds));
    let epochs = Tracer::merge(vec![tracer]);
    println!("layer probe: dashboard sessions over HTTP, then traced in-process:");
    let http = scrub_render::run(ctx, report, Mode::Http, PROBE);
    let inproc = scrub_render::run(ctx, report, Mode::InProcess { traced: true }, PROBE);
    let requests = Tracer::merge(inproc.tracers);
    let bases = Bases {
        scratch_wal: traced.scratch_wal,
        day_end: traced.day_end.unwrap_or_default(),
        alerts_per_day: ctx.feed.reference.last().map_or(0, |r| r.0),
        open_s: median(&http.open_s),
        lens_new_s: median(&http.lens_new_s),
        svg_bytes: median(&all(&inproc.sessions, |l| &l.svg_bytes)),
        http_frame_ms: median(&all(&http.sessions, |l| &l.frame_ms)),
        inproc_frame_ms: median(&all(&inproc.sessions, |l| &l.frame_ms)),
        cpu_per_wall,
        shared: (
            median(&o.commit_ms),
            median(&traced.commit_ms),
            "epoch commit",
        ),
    };
    layers::report_layers(report, &epochs, &requests, &bases);
    let mut spans = epochs;
    spans.extend(requests);
    layers::print_self_times(&spans);
    spans
}

fn scrub_render_workload(ctx: &Ctx, report: &mut Report, trace: bool) -> Vec<Span> {
    println!("workload scrub_render (untraced):");
    let (o, cpu_per_wall) = with_cpu(|| scrub_render::run(ctx, report, Mode::Http, ctx.seconds));
    report.latency("frame_ms", &all(&o.sessions, |l| &l.frame_ms), "ms", 95.0);
    let render = report.latency("render_ms", &all(&o.sessions, |l| &l.render_ms), "ms", 95.0);
    report.latency("event_ms", &all(&o.sessions, |l| &l.event_ms), "ms", 95.0);
    report.note("requests_per_s", o.requests_per_s, "1/s");
    report.note("proc.cpu_per_wall", cpu_per_wall, "ratio");
    if !trace {
        end_to_end(report, &o.setup_s, o.requests_per_s, render, o.peak_rss_mb);
        return Vec::new();
    }
    let origin = Instant::now();
    let half = ctx.seconds / 2;
    println!("in-process replay of the same sessions, untraced then traced:");
    let off = scrub_render::run(ctx, report, Mode::InProcess { traced: false }, half);
    let on = scrub_render::run(ctx, report, Mode::InProcess { traced: true }, half);
    let requests = Tracer::merge(on.tracers);
    let (epochs, probe) = epoch_probe(ctx, report, origin);
    let bases = Bases {
        scratch_wal: probe.scratch_wal,
        day_end: probe.day_end.unwrap_or_default(),
        alerts_per_day: ctx.feed.reference.last().map_or(0, |r| r.0),
        open_s: median(&o.open_s),
        lens_new_s: median(&o.lens_new_s),
        svg_bytes: median(&all(&o.sessions, |l| &l.svg_bytes)),
        http_frame_ms: median(&all(&o.sessions, |l| &l.frame_ms)),
        inproc_frame_ms: median(&all(&off.sessions, |l| &l.frame_ms)),
        cpu_per_wall,
        shared: (
            median(&all(&off.sessions, |l| &l.render_ms)),
            median(&all(&on.sessions, |l| &l.render_ms)),
            "in-process render request",
        ),
    };
    layers::report_layers(report, &epochs, &requests, &bases);
    let mut spans = requests;
    spans.extend(epochs);
    layers::print_self_times(&spans);
    spans
}

fn live_dashboard_workload(ctx: &Ctx, report: &mut Report, trace: bool) -> Vec<Span> {
    println!("workload live_dashboard (untraced):");
    let (o, cpu_per_wall) = with_cpu(|| live_dashboard::run(ctx, report, Mode::Http));
    let gen = &o.gen;
    println!(
        "  rate = {} epochs/s open loop, alerts polled every {:?}; {} epochs delivered",
        live_dashboard::EPOCHS_PER_S,
        live_dashboard::POLL_EVERY,
        gen.delivered
    );
    report.latency(
        "epoch_commit_from_due_ms",
        &gen.commit_from_due_ms,
        "ms",
        95.0,
    );
    report.latency("alert_lag_ms", &gen.alert_lag_ms, "ms", 95.0);
    report.latency("frame_ms", &o.edge.frame_ms, "ms", 95.0);
    let render = report.latency("render_ms", &o.edge.render_ms, "ms", 95.0);
    report.latency("gen.late_ms", &gen.late_ms, "ms", 99.0);
    report.note("gen.backlog_mid", gen.backlog_mid as f64, "epochs");
    report.note("gen.backlog_end", gen.backlog_end as f64, "epochs");
    if gen.backlog_end > gen.backlog_mid.max(1) {
        println!("  FLAG: the backlog grew; the rate is above what this host sustains");
    }
    report.note("live_requests_per_s", o.live_requests_per_s, "1/s");
    report.note("proc.cpu_per_wall", cpu_per_wall, "ratio");
    if !trace {
        end_to_end(
            report,
            &o.setup_s,
            o.live_requests_per_s,
            render,
            o.peak_rss_mb,
        );
        return Vec::new();
    }
    let origin = Instant::now();
    println!("traced in-process replay of the same schedule:");
    let traced = live_dashboard::run(ctx, report, Mode::InProcess { traced: true });
    let requests = Tracer::merge(traced.tracers);
    let (epochs, probe) = epoch_probe(ctx, report, origin);
    let bases = Bases {
        scratch_wal: probe.scratch_wal,
        day_end: probe.day_end.unwrap_or_default(),
        alerts_per_day: ctx.feed.reference.last().map_or(0, |r| r.0),
        open_s: median(&o.open_s),
        lens_new_s: median(&o.lens_new_s),
        svg_bytes: median(&o.edge.svg_bytes),
        http_frame_ms: median(&o.edge.frame_ms),
        inproc_frame_ms: median(&traced.edge.frame_ms),
        cpu_per_wall,
        shared: (
            median(&gen.commit_ms),
            median(&traced.gen.commit_ms),
            "live epoch commit",
        ),
    };
    layers::report_layers(report, &epochs, &requests, &bases);
    let mut spans = requests;
    spans.extend(epochs);
    layers::print_self_times(&spans);
    spans
}
