//! One dashboard session's requests, spoken either over HTTP (the
//! untraced run) or in-process through the public functions the router
//! calls, with a span around each call (the traced run).

use std::sync::Arc;
use std::time::{Duration, Instant};

use batchlens::interaction::Event;
use batchlens::render::dashboard::Dashboard;
use batchlens::render::svg::to_svg;
use batchlens::stream::StreamMonitor;
use batchlens::trace::{DatasetQuery, QueryFrame, Timestamp};
use batchlens::ViewState;
use batchlens_serve::codec::{read_request, Response};
use batchlens_serve::session::{AlertsPayload, SessionCreated};
use batchlens_serve::{AlertCursor, SessionManager};

use crate::http::Client;
use crate::spans::Tracer;
use crate::system::{expected_frame_body, RENDER_TARGET};

/// What one request returned.
pub struct Reply {
    pub ok: bool,
    pub stale: bool,
    pub rtt: Duration,
    pub body: Vec<u8>,
}

pub trait SessionApi {
    fn id(&self) -> u64;
    /// `POST /sessions/{id}/events` with `SelectTimestamp(at)`.
    fn select(&mut self, at: Timestamp) -> Reply;
    /// `GET /sessions/{id}/frame`.
    fn frame(&mut self) -> Reply;
    /// `GET /sessions/{id}/render?format=svg&width=1280&height=800`.
    fn render(&mut self) -> Reply;
    /// `GET /sessions/{id}/alerts`.
    fn alerts(&mut self) -> (Reply, Option<AlertsPayload>);
}

pub struct HttpSession {
    client: Client,
    id: u64,
}

impl HttpSession {
    pub fn open(addr: std::net::SocketAddr) -> HttpSession {
        let mut client = Client::connect(addr).expect("loopback connect");
        let (resp, _) = client
            .call("POST", "/sessions", "")
            .expect("session created");
        let created: SessionCreated = serde_json::from_str(&resp.text()).expect("session payload");
        HttpSession {
            client,
            id: created.session,
        }
    }

    fn call(&mut self, method: &str, target: &str, body: &str) -> Reply {
        let (resp, rtt) = self
            .client
            .call(method, target, body)
            .expect("loopback request");
        Reply {
            ok: resp.status == 200,
            stale: resp.header("x-batchlens-stale").is_some(),
            rtt,
            body: resp.body,
        }
    }
}

impl SessionApi for HttpSession {
    fn id(&self) -> u64 {
        self.id
    }

    fn select(&mut self, at: Timestamp) -> Reply {
        let body = format!("{{\"SelectTimestamp\": {}}}", at.seconds());
        self.call("POST", &format!("/sessions/{}/events", self.id), &body)
    }

    fn frame(&mut self) -> Reply {
        self.call("GET", &format!("/sessions/{}/frame", self.id), "")
    }

    fn render(&mut self) -> Reply {
        self.call("GET", &format!("/sessions/{}/{RENDER_TARGET}", self.id), "")
    }

    fn alerts(&mut self) -> (Reply, Option<AlertsPayload>) {
        let reply = self.call("GET", &format!("/sessions/{}/alerts", self.id), "");
        let payload = serde_json::from_str::<AlertsPayload>(&String::from_utf8_lossy(&reply.body));
        (reply, payload.ok())
    }
}

/// The in-process twin of [`HttpSession`]: the same request, parsed by the
/// codec, answered through the lens, session, render and cursor functions
/// the router reaches, and written by the codec into a buffer.
pub struct TracedSession {
    manager: Arc<SessionManager>,
    id: u64,
    at: Timestamp,
    next_request: u64,
    /// An instant whose frame missed the cache, captured after the request.
    capture_after: Option<Timestamp>,
    /// A cursor of the benchmark's own, to time `AlertCursor::poll`.
    cursor: AlertCursor,
    pub tracer: Tracer,
}

impl TracedSession {
    pub fn open(manager: Arc<SessionManager>, tracer: Tracer) -> TracedSession {
        let created = manager.create();
        TracedSession {
            id: created.session,
            at: created.at,
            next_request: 0,
            capture_after: None,
            cursor: AlertCursor::at(created.cursor),
            manager,
            tracer,
        }
    }

    /// Runs one request as a `request.<kind>` span: parse, answer, write.
    fn request(
        &mut self,
        kind: &'static str,
        method: &str,
        target: &str,
        body: &str,
        answer: impl FnOnce(&mut Self, u64) -> Response,
    ) -> Reply {
        let raw = format!(
            "{method} {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        let id = (self.id << 40) | self.next_request;
        self.next_request += 1;
        let start = Instant::now();
        self.tracer.enter(kind, id);
        let req = self
            .tracer
            .span("codec.parse", id, |_| read_request(&mut raw.as_bytes()));
        assert!(
            matches!(req, Ok(Some(_))),
            "the codec parses its own request"
        );
        let resp = answer(self, id);
        let mut out = Vec::with_capacity(resp.body.len() + 128);
        self.tracer
            .span("codec.write", id, |_| resp.write_to(&mut out))
            .expect("writing to a buffer cannot fail");
        self.tracer.exit();
        let rtt = start.elapsed();
        if let Some(at) = self.capture_after.take() {
            self.capture(id, at);
        }
        Reply {
            ok: resp.status == 200 && !out.is_empty(),
            stale: false,
            rtt,
            body: resp.body,
        }
    }

    /// `BatchLens::frame_at` at the session's instant, classified as a
    /// cache hit or miss. A miss is followed, after the request, by a
    /// direct capture of the same instant, to split capture from waiting.
    fn frame_at(&mut self, id: u64) -> Arc<QueryFrame> {
        let lens = Arc::clone(self.manager.lens());
        let at = self.at;
        let before = lens.frame_cache_stats();
        let frame = self.tracer.span("app.frame_at", id, |_| lens.frame_at(at));
        let after = lens.frame_cache_stats();
        match (after.0 - before.0, after.1 - before.1) {
            (1, 0) => self.tracer.rename_last("app.frame_at_hit"),
            (0, 1) => {
                self.tracer.rename_last("app.frame_at_miss");
                self.capture_after = Some(at);
            }
            // Another session's lookup landed in between: unclassified.
            _ => {}
        }
        frame
    }

    fn capture(&mut self, id: u64, at: Timestamp) {
        let lens = Arc::clone(self.manager.lens());
        self.tracer
            .span("app.frame_capture", id, |_| match lens.live_monitor() {
                Some(monitor) => monitor.live_view().frame(at),
                None => lens.dataset().frame(at),
            });
    }
}

impl SessionApi for TracedSession {
    fn id(&self) -> u64 {
        self.id
    }

    fn select(&mut self, at: Timestamp) -> Reply {
        let body = format!("{{\"SelectTimestamp\": {}}}", at.seconds());
        let target = format!("/sessions/{}/events", self.id);
        self.request("request.event", "POST", &target, &body, |s, id| {
            let (manager, session) = (Arc::clone(&s.manager), s.id);
            let summary = s
                .tracer
                .span("session.interact", id, |_| {
                    manager.interact(session, Event::SelectTimestamp(at))
                })
                .expect("traced session exists");
            s.at = summary.at;
            Response::ok_json(serde_json::to_string(&summary).expect("summary serializes"))
        })
    }

    fn frame(&mut self) -> Reply {
        let target = format!("/sessions/{}/frame", self.id);
        self.request("request.frame", "GET", &target, "", |s, id| {
            let frame = s.frame_at(id);
            Response::ok_json(expected_frame_body(s.id, &frame))
        })
    }

    fn render(&mut self) -> Reply {
        let target = format!("/sessions/{}/{RENDER_TARGET}", self.id);
        self.request("request.render", "GET", &target, "", |s, id| {
            let frame = s.frame_at(id);
            let lens = Arc::clone(s.manager.lens());
            let metric = ViewState::new(lens.view().extent()).detail_metric();
            let scene = s.tracer.span("render.layout", id, |_| {
                Dashboard::new(1280.0, 800.0)
                    .detail_metric(metric)
                    .render_from_frame(&frame, lens.timeline())
            });
            let svg = s.tracer.span("render.svg_emit", id, |_| to_svg(&scene));
            Response::ok_svg(svg)
        })
    }

    fn alerts(&mut self) -> (Reply, Option<AlertsPayload>) {
        let target = format!("/sessions/{}/alerts", self.id);
        let mut payload = None;
        let reply = self.request("request.alerts", "GET", &target, "", |s, id| {
            let (manager, session) = (Arc::clone(&s.manager), s.id);
            let p = s
                .tracer
                .span("session.poll_alerts", id, |_| manager.poll_alerts(session))
                .expect("traced session exists");
            let json = serde_json::to_string(&p).expect("alerts serialize");
            payload = Some(p);
            Response::ok_json(json)
        });
        if let Some(monitor) = self.manager.lens().live_monitor().cloned() {
            let id = (self.id << 40) | (self.next_request - 1);
            poll_cursor(&mut self.tracer, &mut self.cursor, &monitor, id);
        }
        (reply, payload)
    }
}

/// `AlertCursor::poll` on `monitor`, as a `cursor.poll` span.
pub fn poll_cursor(
    tracer: &mut Tracer,
    cursor: &mut AlertCursor,
    monitor: &StreamMonitor,
    id: u64,
) -> batchlens::stream::AlertBatch {
    tracer.span("cursor.poll", id, |_| cursor.poll(monitor))
}
