//! SVG serialization of a [`crate::scene::Scene`].

use std::fmt::Write as _;

use batchlens_layout::Color;

use crate::scene::{Align, Node, Scene, Stroke, Style};

/// Serializes a scene into a standalone SVG document string.
///
/// The output is deterministic and self-contained (no external refs), so
/// figures are byte-stable across runs and diffable in tests. The whole
/// document is written into the one returned `String`: numbers, colours,
/// labels and paths are appended in place, never formatted into
/// intermediate strings.
///
/// Every number follows one contract:
///
/// * an integer below `1e15` in magnitude prints as its digits (`5`, `-3`;
///   `-0.0` prints `0`);
/// * any other finite value prints exactly as `format!("{v:.3}")` with
///   trailing zeros and then a trailing `.` trimmed (`5.5`, `5.123`,
///   `1000000000000000`); so a negative value that rounds to zero prints
///   `-0`;
/// * NaN and ±∞ print `0`.
///
/// Colours print as [`Color::to_hex`] does. `tests/tests/svg_byte_identity.rs`
/// pins the exact bytes, with digests taken from the emitter that formatted
/// one `String` per number, colour and label; writing in place changed none.
pub fn to_svg(scene: &Scene) -> String {
    let mut s = String::with_capacity(4096);
    s.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    s.push_str("<svg xmlns=\"http://www.w3.org/2000/svg\"");
    push_attr(&mut s, " width=\"", scene.width);
    push_attr(&mut s, " height=\"", scene.height);
    s.push_str(" viewBox=\"0 0 ");
    push_point(&mut s, scene.width, scene.height);
    s.push_str("\">\n");
    // Background.
    s.push_str("<rect x=\"0\" y=\"0\"");
    push_attr(&mut s, " width=\"", scene.width);
    push_attr(&mut s, " height=\"", scene.height);
    push_color_attr(&mut s, " fill=\"", scene.background);
    s.push_str("/>\n");
    for node in &scene.root {
        write_node(&mut s, node);
    }
    s.push_str("</svg>\n");
    s
}

fn write_node(s: &mut String, node: &Node) {
    match node {
        Node::Group {
            label,
            translate,
            children,
        } => {
            let (tx, ty) = *translate;
            s.push_str("<g");
            if tx != 0.0 || ty != 0.0 {
                s.push_str(" transform=\"translate(");
                push_point(s, tx, ty);
                s.push_str(")\"");
            }
            if let Some(l) = label {
                s.push_str(" data-label=\"");
                push_escaped(s, l);
                s.push('"');
            }
            s.push_str(">\n");
            if let Some(l) = label {
                push_title(s, l);
                s.push('\n');
            }
            for child in children {
                write_node(s, child);
            }
            s.push_str("</g>\n");
        }
        Node::Circle {
            cx,
            cy,
            r,
            style,
            label,
        } => {
            s.push_str("<circle");
            push_attr(s, " cx=\"", *cx);
            push_attr(s, " cy=\"", *cy);
            push_attr(s, " r=\"", *r);
            write_style(s, style);
            match label {
                Some(l) => {
                    s.push('>');
                    push_title(s, l);
                    s.push_str("</circle>\n");
                }
                None => s.push_str("/>\n"),
            }
        }
        Node::AnnulusSector {
            cx,
            cy,
            inner,
            outer,
            start_angle,
            end_angle,
            style,
        } => {
            s.push_str("<path d=\"");
            push_annulus_path(s, (*cx, *cy), (*inner, *outer), (*start_angle, *end_angle));
            s.push('"');
            write_style(s, style);
            s.push_str("/>\n");
        }
        Node::Polyline { points, style } => {
            s.push_str("<polyline points=\"");
            for (i, (x, y)) in points.iter().enumerate() {
                if i > 0 {
                    s.push(' ');
                }
                push_num(s, *x);
                s.push(',');
                push_num(s, *y);
            }
            s.push('"');
            write_style(s, style);
            s.push_str("/>\n");
        }
        Node::Line { from, to, style } => {
            s.push_str("<line");
            push_attr(s, " x1=\"", from.0);
            push_attr(s, " y1=\"", from.1);
            push_attr(s, " x2=\"", to.0);
            push_attr(s, " y2=\"", to.1);
            write_style(s, style);
            s.push_str("/>\n");
        }
        Node::Rect {
            x,
            y,
            width,
            height,
            style,
        } => {
            s.push_str("<rect");
            push_attr(s, " x=\"", *x);
            push_attr(s, " y=\"", *y);
            push_attr(s, " width=\"", *width);
            push_attr(s, " height=\"", *height);
            write_style(s, style);
            s.push_str("/>\n");
        }
        Node::Text {
            x,
            y,
            text,
            size,
            align,
            color,
        } => {
            s.push_str("<text");
            push_attr(s, " x=\"", *x);
            push_attr(s, " y=\"", *y);
            push_attr(s, " font-size=\"", *size);
            s.push_str(match align {
                Align::Start => " text-anchor=\"start\"",
                Align::Middle => " text-anchor=\"middle\"",
                Align::End => " text-anchor=\"end\"",
            });
            s.push_str(" font-family=\"sans-serif\"");
            push_color_attr(s, " fill=\"", *color);
            s.push('>');
            push_escaped(s, text);
            s.push_str("</text>\n");
        }
    }
}

fn write_style(s: &mut String, style: &Style) {
    match style.fill {
        Some(c) => {
            push_color_attr(s, " fill=\"", c);
            if c.a != 255 {
                push_attr(s, " fill-opacity=\"", c.a as f64 / 255.0);
            }
        }
        None => s.push_str(" fill=\"none\""),
    }
    if style.opacity < 1.0 {
        push_attr(s, " opacity=\"", style.opacity);
    }
    if let Some(c) = style.stroke {
        push_color_attr(s, " stroke=\"", c);
        push_attr(s, " stroke-width=\"", style.stroke_width);
        if c.a != 255 {
            push_attr(s, " stroke-opacity=\"", c.a as f64 / 255.0);
        }
        let dash = match style.dash {
            Stroke::Solid => None,
            Stroke::Dotted => Some((style.stroke_width, style.stroke_width * 2.0)),
            Stroke::Dashed => Some((style.stroke_width * 4.0, style.stroke_width * 2.0)),
        };
        if let Some((on, off)) = dash {
            s.push_str(" stroke-dasharray=\"");
            push_point(s, on, off);
            s.push('"');
        }
    }
}

/// Appends the SVG path for an annulus sector (ring wedge).
fn push_annulus_path(
    s: &mut String,
    (cx, cy): (f64, f64),
    (inner, outer): (f64, f64),
    (start, end): (f64, f64),
) {
    let large = (end - start).abs() > std::f64::consts::PI;
    // Outer arc sweeps positive (1), inner arc sweeps back (0).
    s.push_str("M ");
    push_point(s, cx + outer * start.cos(), cy + outer * start.sin());
    push_arc(s, outer, large, '1');
    push_point(s, cx + outer * end.cos(), cy + outer * end.sin());
    s.push_str(" L ");
    push_point(s, cx + inner * end.cos(), cy + inner * end.sin());
    push_arc(s, inner, large, '0');
    push_point(s, cx + inner * start.cos(), cy + inner * start.sin());
    s.push_str(" Z");
}

/// Appends ` A r r 0 <large> <sweep> `, the arc command up to its end point.
fn push_arc(s: &mut String, r: f64, large: bool, sweep: char) {
    s.push_str(" A ");
    push_point(s, r, r);
    s.push_str(if large { " 0 1 " } else { " 0 0 " });
    s.push(sweep);
    s.push(' ');
}

/// Appends two numbers separated by a space.
fn push_point(s: &mut String, x: f64, y: f64) {
    push_num(s, x);
    s.push(' ');
    push_num(s, y);
}

/// Appends `name` (which ends in `="`), the number and the closing quote.
fn push_attr(s: &mut String, name: &str, v: f64) {
    s.push_str(name);
    push_num(s, v);
    s.push('"');
}

/// Appends `name` (which ends in `="`), the colour and the closing quote.
fn push_color_attr(s: &mut String, name: &str, c: Color) {
    s.push_str(name);
    let _ = c.write_hex(s);
    s.push('"');
}

fn push_title(s: &mut String, label: &str) {
    s.push_str("<title>");
    push_escaped(s, label);
    s.push_str("</title>");
}

/// Bound on `|v|·1000` for the rounding fast path of [`push_num`]. Below it
/// (< 2^50) the product's fractional part is exact and every half-integer
/// is representable.
const FAST_SCALED_LIMIT: f64 = 1e15;

/// Appends a number in the format [`to_svg`] documents: integers as their
/// digits, other finite values as `{v:.3}` with trailing zeros trimmed,
/// non-finite values as `0`.
fn push_num(s: &mut String, v: f64) {
    if !v.is_finite() {
        s.push('0');
        return;
    }
    let mag = v.abs();
    if v.fract() == 0.0 && mag < 1e15 {
        // `-0.0` is an integer that prints without its sign.
        if v < 0.0 {
            s.push('-');
        }
        push_u64(s, mag as u64);
        return;
    }
    // `{:.3}` rounds the exact product |v|·1000 to an integer. The float
    // product is that value correctly rounded, and every half below the
    // limit is representable, so both lie on the same side of any half;
    // only a product at a half is ambiguous (a true tie, or a value rounded
    // onto one). Products within a few ulps of a half take the exact
    // formatter; everything else rounds here.
    let scaled = mag * 1000.0;
    let half_gap = (scaled.fract() - 0.5).abs();
    if scaled < FAST_SCALED_LIMIT && half_gap > 4.0 * f64::EPSILON * scaled {
        let n = scaled.round() as u64;
        if v < 0.0 {
            s.push('-');
        }
        push_u64(s, n / 1000);
        let milli = n % 1000;
        if milli != 0 {
            s.push('.');
            let digits = [milli / 100, milli / 10 % 10, milli % 10];
            let trailing_zeros = digits.iter().rev().take_while(|&&d| d == 0).count();
            for d in &digits[..3 - trailing_zeros] {
                s.push(char::from(b'0' + *d as u8));
            }
        }
        return;
    }
    let start = s.len();
    let _ = write!(s, "{v:.3}");
    // `{:.3}` always writes a '.', so trimming stays inside what was appended.
    let kept = s[start..].trim_end_matches('0').trim_end_matches('.').len();
    s.truncate(start + kept);
}

/// Appends the decimal digits of `n`.
fn push_u64(s: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &b in &buf[i..] {
        s.push(char::from(b));
    }
}

/// Appends `text` with the five XML special characters escaped.
fn push_escaped(s: &mut String, text: &str) {
    let mut run = 0;
    for (i, b) in text.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            b'\'' => "&#39;",
            _ => continue,
        };
        s.push_str(&text[run..i]);
        s.push_str(entity);
        run = i + 1;
    }
    s.push_str(&text[run..]);
}

/// Estimates the text color (black or white) with the best contrast against
/// a background — used by renderers to label colored glyphs.
pub fn contrasting_text(background: Color) -> Color {
    if background.luminance() > 0.55 {
        Color::BLACK
    } else {
        Color::WHITE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::Scene;

    #[test]
    fn empty_scene_is_valid_svg() {
        let svg = to_svg(&Scene::new(100.0, 50.0));
        assert!(svg.starts_with("<?xml"));
        assert!(svg.contains("width=\"100\" height=\"50\""));
        assert!(svg.contains("viewBox=\"0 0 100 50\""));
        assert!(svg.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn circle_emits_attributes() {
        let mut scene = Scene::new(10.0, 10.0);
        scene.push(Node::Circle {
            cx: 5.0,
            cy: 5.0,
            r: 3.0,
            style: Style::filled(Color::rgb(255, 0, 0)),
            label: Some("node".into()),
        });
        let svg = to_svg(&scene);
        assert!(svg.contains("<circle cx=\"5\" cy=\"5\" r=\"3\""));
        assert!(svg.contains("fill=\"#ff0000\""));
        assert!(svg.contains("<title>node</title>"));
    }

    /// What [`push_num`] appends for `v`.
    fn num(v: f64) -> String {
        let mut s = String::new();
        push_num(&mut s, v);
        s
    }

    /// The number format as first specified: integers below 1e15 through
    /// `i64`, everything else through `{v:.3}` with trailing zeros and a
    /// trailing `.` trimmed, non-finite as `0`.
    fn oracle(v: f64) -> String {
        if !v.is_finite() {
            return "0".to_string();
        }
        if v.fract() == 0.0 && v.abs() < 1e15 {
            return format!("{}", v as i64);
        }
        let mut s = format!("{v:.3}");
        while s.ends_with('0') {
            s.pop();
        }
        if s.ends_with('.') {
            s.pop();
        }
        s
    }

    #[test]
    fn number_formatting() {
        assert_eq!(num(5.0), "5");
        assert_eq!(num(5.5), "5.5");
        assert_eq!(num(5.12345), "5.123");
        assert_eq!(num(5.100), "5.1");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(-3.0), "-3");
        assert_eq!(num(-0.0), "0");
        assert_eq!(num(-0.0004), "-0");
        assert_eq!(num(0.9996), "1");
        assert_eq!(num(-1234.5678), "-1234.568");
    }

    /// Deterministic xorshift64* stream for the property sweeps.
    fn rng(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    #[test]
    fn number_writer_matches_the_oracle() {
        let check = |v: f64| assert_eq!(num(v), oracle(v), "v = {v:e} ({:#x})", v.to_bits());
        let ulp_neighbours = |v: f64| {
            [
                f64::from_bits(v.to_bits().wrapping_sub(1)),
                v,
                f64::from_bits(v.to_bits() + 1),
            ]
        };
        // Every k/2000 (the ties of three-decimal rounding) and its ±1 ulp
        // neighbours, both signs.
        for k in 0..=200_000u64 {
            for v in ulp_neighbours(k as f64 / 2000.0) {
                check(v);
                check(-v);
            }
        }
        // Ties and neighbours at magnitudes up to and past the fast-path
        // limit, where the scaled value loses its fractional bits.
        for e in 3..=16 {
            let base = 10f64.powi(e);
            for k in 0..200u64 {
                for v in ulp_neighbours(base + k as f64 / 2000.0 + 0.0005) {
                    check(v);
                    check(-v);
                }
            }
        }
        let limit = FAST_SCALED_LIMIT / 1000.0;
        for v in [
            limit,
            1e15,
            2f64.powi(50),
            2f64.powi(52),
            2f64.powi(53),
            1e300,
            f64::MAX,
        ] {
            for w in ulp_neighbours(v) {
                check(w);
                check(-w);
                check(w + 0.5);
            }
        }
        // Negatives that round to zero, and other tiny magnitudes.
        for v in [
            1e-300,
            f64::MIN_POSITIVE,
            5e-324,
            1e-9,
            0.0001,
            0.00049999,
            0.0004999999999999999,
        ] {
            check(v);
            check(-v);
        }
        // Non-finite values.
        for v in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            check(v);
        }
        // Binary fractions and thirds (long repeating expansions).
        for k in -50_000i64..=50_000 {
            check(k as f64 / 16.0);
            check(k as f64 / 3.0);
        }
        // Random magnitudes across the scale, and random bit patterns.
        let mut next = rng(0x9e37_79b9_7f4a_7c15);
        for _ in 0..100_000 {
            let mantissa = (next() >> 11) as f64 / (1u64 << 53) as f64;
            let exp = (next() % 40) as i32 - 20;
            let v = mantissa * 10f64.powi(exp);
            check(v);
            check(-v);
            check(f64::from_bits(next()));
        }
    }

    #[test]
    fn escaping() {
        let mut escaped = String::new();
        push_escaped(&mut escaped, "a & b < c > d \" 'é' ✓");
        assert_eq!(escaped, "a &amp; b &lt; c &gt; d &quot; &#39;é&#39; ✓");
        let mut scene = Scene::new(10.0, 10.0);
        scene.push(Node::Text {
            x: 0.0,
            y: 0.0,
            text: "job <1> & \"x\"".into(),
            size: 10.0,
            align: Align::Start,
            color: Color::BLACK,
        });
        let svg = to_svg(&scene);
        assert!(svg.contains("job &lt;1&gt; &amp; &quot;x&quot;"));
        assert!(!svg.contains("job <1>"));
    }

    #[test]
    fn dotted_stroke_has_dasharray() {
        let mut scene = Scene::new(10.0, 10.0);
        scene.push(Node::Circle {
            cx: 5.0,
            cy: 5.0,
            r: 3.0,
            style: Style::stroked(Color::BLACK, 2.0).dash(Stroke::Dotted),
            label: None,
        });
        let svg = to_svg(&scene);
        assert!(svg.contains("stroke-dasharray"));
    }

    #[test]
    fn polyline_points_are_ordered() {
        let mut scene = Scene::new(10.0, 10.0);
        scene.push(Node::Polyline {
            points: vec![(0.0, 0.0), (1.0, 2.0), (3.0, 1.0)],
            style: Style::stroked(Color::BLACK, 1.0),
        });
        let svg = to_svg(&scene);
        assert!(svg.contains("points=\"0,0 1,2 3,1\""));
        assert!(svg.contains("fill=\"none\""));
    }

    #[test]
    fn annulus_sector_is_a_path() {
        let mut scene = Scene::new(100.0, 100.0);
        scene.push(Node::AnnulusSector {
            cx: 50.0,
            cy: 50.0,
            inner: 10.0,
            outer: 20.0,
            start_angle: 0.0,
            end_angle: std::f64::consts::FRAC_PI_2,
            style: Style::filled(Color::rgb(0, 128, 0)),
        });
        let svg = to_svg(&scene);
        assert!(svg.contains("<path d=\"M "));
        assert!(svg.contains(" A 20 20 0 "));
        assert!(svg.contains(" A 10 10 0 "));
        assert!(svg.contains('Z'));
    }

    #[test]
    fn contrast_picks_readable_color() {
        assert_eq!(contrasting_text(Color::WHITE), Color::BLACK);
        assert_eq!(contrasting_text(Color::BLACK), Color::WHITE);
    }
}
