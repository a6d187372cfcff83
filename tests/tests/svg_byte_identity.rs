//! Pins the exact bytes `to_svg` emits.
//!
//! The digests below were computed from the `String`-per-number emitter
//! that preceded the single-buffer one; any change to number, colour,
//! label or path formatting shows up here as a digest mismatch.

use batchlens::analytics::aggregate::ClusterTimeline;
use batchlens::layout::Color;
use batchlens::render::dashboard::Dashboard;
use batchlens::render::scene::{Align, Node, Scene, Stroke, Style};
use batchlens::render::svg::to_svg;
use batchlens::sim::{scenario, Simulation};
use batchlens::trace::{DatasetQuery, Timestamp};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn assert_digest(name: &str, svg: &str, len: usize, digest: u64) {
    let got = (svg.len(), fnv1a64(svg.as_bytes()));
    assert_eq!(
        got,
        (len, digest),
        "{name}: (len, fnv1a64) = ({}, {:#018x})",
        got.0,
        got.1
    );
}

fn frame_dashboard_svg(sim: Simulation, at: Timestamp, width: f64, height: f64) -> String {
    let ds = sim.run().unwrap();
    let timeline = ClusterTimeline::build(&ds);
    let scene = Dashboard::new(width, height).render_from_frame(&ds.frame(at), &timeline);
    to_svg(&scene)
}

#[test]
fn fig3_frame_dashboards_are_byte_stable() {
    let cases = [
        (
            "fig3a",
            scenario::fig3a(7),
            scenario::T_FIG3A,
            (1280.0, 800.0),
            (146_542, 0xe37a_80d7_7180_e596),
        ),
        (
            "fig3b",
            scenario::fig3b(7),
            scenario::T_FIG3B,
            (1400.0, 880.0),
            (95_345, 0x02a0_9b87_31ff_9c0a),
        ),
        (
            "fig3c",
            scenario::fig3c(7),
            scenario::T_FIG3C,
            (1000.5, 640.25),
            (113_019, 0xcdc1_924f_9fee_770c),
        ),
    ];
    for (name, sim, at, (w, h), (len, digest)) in cases {
        assert_digest(name, &frame_dashboard_svg(sim, at, w, h), len, digest);
    }
}

/// A scene touching every `Node` kind and every style branch, with numbers
/// chosen at the edges of the number format.
fn every_node_scene() -> Scene {
    let alpha = Color::rgba(18, 52, 86, 120);
    let mut scene = Scene::new(640.5, 480.0).background(Color::rgb(250, 249, 248));
    scene.push(Node::Group {
        label: Some("job <7901> & \"tasks\" 'x'".into()),
        translate: (12.0625, -3.0005),
        children: vec![
            Node::Circle {
                cx: 0.0625,
                cy: -0.0004,
                r: 2.0 / 3.0,
                style: Style::filled(alpha).with_opacity(0.5),
                label: Some("m_<1>".into()),
            },
            Node::Circle {
                cx: 1e15,
                cy: -1e15 - 2.0,
                r: 123_456_789.123_456,
                style: Style::stroked(alpha, 0.35).dash(Stroke::Dotted),
                label: None,
            },
            Node::Group {
                label: None,
                translate: (0.0, 0.0),
                children: vec![Node::Rect {
                    x: -0.0,
                    y: f64::NAN,
                    width: f64::INFINITY,
                    height: 1.0005,
                    style: Style::stroked(Color::rgb(1, 2, 3), 1.5)
                        .dash(Stroke::Dashed)
                        .with_fill(Color::rgba(200, 100, 50, 1)),
                }],
            },
        ],
    });
    scene.push(Node::AnnulusSector {
        cx: 320.0,
        cy: 240.0,
        inner: 30.0,
        outer: 45.5,
        start_angle: 0.1,
        end_angle: 0.1 + 1.5 * std::f64::consts::PI,
        style: Style::filled(Color::rgb(0, 128, 0)),
    });
    scene.push(Node::AnnulusSector {
        cx: 10.0,
        cy: 10.0,
        inner: 0.0,
        outer: 9.999_95,
        start_angle: -0.5,
        end_angle: 0.25,
        style: Style::default().with_opacity(0.125),
    });
    scene.push(Node::Polyline {
        points: vec![(0.0, 0.0), (1.5, -2.25), (1e-9, -1e-9), (0.0005, 0.0015)],
        style: Style::stroked(Color::BLACK, 1.0),
    });
    scene.push(Node::Line {
        from: (-7.9995, 4.4445),
        to: (99_999.999_5, std::f64::consts::PI),
        style: Style::stroked(Color::rgba(255, 255, 255, 0), 0.001),
    });
    for (i, align) in [Align::Start, Align::Middle, Align::End]
        .into_iter()
        .enumerate()
    {
        scene.push(Node::Text {
            x: 5.0 + i as f64 * 0.1,
            y: 16.0,
            text: format!("<b>\"{i}\" & 'ü' ✓</b>"),
            size: 13.0,
            align,
            color: Color::rgb(30, 30, 30),
        });
    }
    scene
}

#[test]
fn every_node_kind_is_byte_stable() {
    assert_digest(
        "every_node",
        &to_svg(&every_node_scene()),
        1_792,
        0x0a9d_7152_ccf7_23fc,
    );
}
