//! `ingest_replay`: closed-loop catch-up replay of the day into one
//! WAL-attached monitor, one generator thread, no HTTP.

use std::path::Path;
use std::time::{Duration, Instant};

use batchlens::stream::{BatchSequencer, StreamConfig, StreamMonitor};
use batchlens::trace::wal::{WalConfig, WalWriter};
use batchlens_serve::AlertCursor;

use crate::api::poll_cursor;
use crate::host::peak_rss_mb;
use crate::report::Report;
use crate::spans::Tracer;
use crate::system::{wal_monitor, Ctx};

/// Set-ups timed before each replay pass, besides the pass's own. A set-up
/// takes tens of microseconds of file-system calls, so `setup_s` is the
/// median of many, spread over the run.
const SETUPS_PER_PASS: usize = 25;

/// How long to replay.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Whole and partial passes over the day until the time is up.
    Elapsed(Duration),
    /// Exactly one pass over the day.
    OneDay,
}

#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub records_per_s: f64,
    /// Epoch commit: structural deliveries plus `ingest_batch`, in ms.
    pub commit_ms: Vec<f64>,
    /// For epochs that fired alerts: commit plus the cursor poll that
    /// makes them visible, in ms.
    pub visible_ms: Vec<f64>,
    /// With `extras`: bytes and records appended to the scratch log.
    pub scratch_wal: (u64, u64),
    /// `live_instances()` and `stale_dropped()` after the first whole day.
    pub day_end: Option<(usize, u64)>,
    /// Peak RSS when the replay ended, before the recovery check.
    pub peak_rss_mb: f64,
}

/// Replays the day. With `extras`, each epoch is also applied to a
/// WAL-less monitor (`stream.ingest_batch_nowal`) and its log records are
/// appended to a scratch log of the same configuration (`wal.append`),
/// outside the timed commit.
pub fn run(
    ctx: &Ctx,
    report: &mut Report,
    tracer: &mut Tracer,
    extras: bool,
    until: Until,
) -> Outcome {
    let mut out = Outcome::default();
    let deadline = match until {
        Until::Elapsed(d) => Some(Instant::now() + d),
        Until::OneDay => None,
    };
    let time_up = || deadline.is_some_and(|d| Instant::now() >= d);
    let (mut records, mut busy_s) = (0usize, 0.0);
    let mut pass = 0;
    let mut id = 0u64;
    loop {
        for i in 0..SETUPS_PER_PASS {
            let dir = ctx.work.join(format!("wal-setup-{i}"));
            let t = Instant::now();
            let monitor = wal_monitor(&dir);
            out.setup_s.push(t.elapsed().as_secs_f64());
            drop(monitor);
            std::fs::remove_dir_all(&dir).expect("scratch wal removed");
        }
        let dir = ctx.work.join(format!("wal-pass-{pass}"));
        let t = Instant::now();
        let monitor = wal_monitor(&dir);
        out.setup_s.push(t.elapsed().as_secs_f64());
        let scratch_dir = ctx.work.join(format!("wal-scratch-{pass}"));
        let mut extra = extras.then(|| {
            let plain =
                StreamMonitor::new(StreamConfig::default()).expect("default config is valid");
            let scratch =
                WalWriter::open(&scratch_dir, WalConfig::default()).expect("scratch wal opens");
            (plain, scratch)
        });
        let sequencer = BatchSequencer::new();
        let mut cursor = AlertCursor::new();
        let mut done = 0;
        let start = Instant::now();
        for epoch in &ctx.feed.epochs {
            if time_up() {
                break;
            }
            let batch = epoch.seal(&sequencer);
            let t0 = Instant::now();
            let fired = tracer.span("epoch.commit", id, |t| {
                t.span("stream.structure", id, |_| {
                    epoch.deliver_structure(&monitor)
                });
                t.span("stream.ingest_batch", id, |_| monitor.ingest_batch(&batch))
            });
            let committed = t0.elapsed();
            let polled = poll_cursor(tracer, &mut cursor, &monitor, id);
            let visible = t0.elapsed();
            out.commit_ms.push(committed.as_secs_f64() * 1e3);
            if !fired.is_empty() {
                out.visible_ms.push(visible.as_secs_f64() * 1e3);
            }
            report.attempted += 1;
            if polled.alerts.len() != fired.len() || polled.missed != 0 {
                report.problem(format!(
                    "epoch {done}: fired {} alerts, cursor saw {} (missed {})",
                    fired.len(),
                    polled.alerts.len(),
                    polled.missed
                ));
            }
            if let Some((plain, scratch)) = extra.as_mut() {
                epoch.deliver_structure(plain);
                tracer.span("stream.ingest_batch_nowal", id, |_| {
                    plain.ingest_batch(&batch)
                });
                let logged = epoch.wal_records(batch.version);
                tracer.span("wal.append", id, |_| {
                    for r in &logged {
                        scratch.append(r).expect("scratch wal append");
                    }
                });
                out.scratch_wal.1 += logged.len() as u64;
            }
            records += batch.records.len();
            done += 1;
            id += 1;
        }
        busy_s += start.elapsed().as_secs_f64();
        if done == ctx.feed.epochs.len() && out.day_end.is_none() {
            out.day_end = Some((monitor.live_instances(), monitor.stale_dropped()));
        }
        if done > 0 {
            check_against_reference(ctx, report, &monitor, done, pass);
        }
        let last = deadline.is_none() || time_up();
        if last {
            out.peak_rss_mb = peak_rss_mb();
            check_recovery(report, &monitor, &dir);
        }
        drop(monitor);
        if extra.take().is_some() {
            out.scratch_wal.0 += dir_bytes(&scratch_dir);
            std::fs::remove_dir_all(&scratch_dir).expect("scratch wal removed");
        }
        std::fs::remove_dir_all(&dir).expect("pass wal removed");
        pass += 1;
        if last {
            break;
        }
    }
    println!("  replay passes = {pass} (fresh monitor and WAL each)");
    out.records_per_s = records as f64 / busy_s;
    out
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("scratch wal listable")
        .map(|e| e.expect("dir entry").metadata().expect("metadata").len())
        .sum()
}

/// The replayed monitor must match the WAL-less reference replay of the
/// same epoch prefix.
fn check_against_reference(
    ctx: &Ctx,
    report: &mut Report,
    monitor: &StreamMonitor,
    done: usize,
    pass: usize,
) {
    let want = ctx.feed.reference[done - 1];
    let got = (
        monitor.total_alerts(),
        monitor.state_version(),
        monitor.ingested(),
    );
    report.attempted += 2;
    if got != want {
        report.problem(format!(
            "pass {pass}: (alerts, version, ingested) = {got:?}, reference {want:?}"
        ));
    }
    report.failures("wal appends", monitor.wal_errors());
}

/// Recovering from the pass's WAL must reproduce the live monitor.
fn check_recovery(report: &mut Report, monitor: &StreamMonitor, dir: &Path) {
    let want = (monitor.ingested(), monitor.state_version());
    drop(monitor.detach_wal());
    report.attempted += 1;
    match StreamMonitor::recover(dir, StreamConfig::default()) {
        Ok((recovered, _)) => {
            let got = (recovered.ingested(), recovered.state_version());
            if got != want {
                report.problem(format!(
                    "recovered (ingested, version) = {got:?}, live {want:?}"
                ));
            }
        }
        Err(e) => report.problem(format!("recovery failed: {e}")),
    }
}
