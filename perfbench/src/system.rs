//! Set-up of the system under test, shared by the workloads.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use batchlens::stream::{StreamConfig, StreamMonitor};
use batchlens::trace::wal::{WalConfig, WalWriter};
use batchlens::trace::{QueryFrame, TraceDataset};
use batchlens::BatchLens;
use batchlens_serve::session::FrameInfo;
use batchlens_serve::{ServeConfig, Server, SessionManager};

use crate::feed::Feed;

/// What every workload run gets: its length, a scratch directory and the
/// generated load.
pub struct Ctx<'a> {
    pub seconds: Duration,
    /// A scratch directory inside the checkout, removed after the run.
    pub work: PathBuf,
    pub ds: &'a TraceDataset,
    pub feed: &'a Feed,
}

/// Set-ups per run; the median is reported as `setup_s`.
pub const SETUP_REPS: usize = 3;

/// Path and query of every render request: a 1280×800 SVG dashboard.
pub const RENDER_TARGET: &str = "render?format=svg&width=1280&height=800";

/// A WAL-attached monitor with the default stream and log configuration.
pub fn wal_monitor(dir: &Path) -> Arc<StreamMonitor> {
    let monitor = StreamMonitor::new(StreamConfig::default()).expect("default config is valid");
    let writer = WalWriter::open(dir, WalConfig::default()).expect("wal opens in the work dir");
    monitor.attach_wal(writer);
    Arc::new(monitor)
}

/// A serving stack over a lens whose dataset is reopened from the segment
/// store in `store`, optionally live-backed by `monitor`.
pub struct Served {
    pub server: Arc<Server>,
    pub open_s: f64,
    pub lens_new_s: f64,
}

pub fn serve(store: &Path, monitor: Option<Arc<StreamMonitor>>) -> Served {
    let t = Instant::now();
    let ds = TraceDataset::open(store).expect("segment store reopens");
    let open_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut lens = BatchLens::new(ds);
    let lens_new_s = t.elapsed().as_secs_f64();
    if let Some(monitor) = monitor {
        lens.attach_live_monitor(monitor);
    }
    let manager = Arc::new(SessionManager::new(Arc::new(lens)));
    let cfg = ServeConfig {
        workers: 2,
        ..Default::default()
    };
    let server = Server::bind(("127.0.0.1", 0), manager, cfg).expect("loopback bind");
    Served {
        server: Arc::new(server),
        open_s,
        lens_new_s,
    }
}

/// The `/frame` body the server must send for `frame`: the JSON form of
/// [`FrameInfo`] exactly as the session layer builds it.
pub fn expected_frame_body(session: u64, frame: &QueryFrame) -> String {
    let mean = frame.mean_utilization();
    let info = FrameInfo {
        session,
        at: frame.at(),
        version: frame.version(),
        jobs_running: frame.jobs_running(),
        running_instances: frame.running_instance_count(),
        machines_active: frame.machines_active(),
        machines_known: frame.machine_ids().len(),
        mean_cpu: mean.map(|u| u.cpu.fraction()),
        mean_mem: mean.map(|u| u.mem.fraction()),
        stale: false,
    };
    serde_json::to_string(&info).expect("frame info serializes")
}
