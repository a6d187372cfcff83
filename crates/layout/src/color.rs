//! Colors and the BatchLens color scales.
//!
//! Two scales matter in the paper:
//!
//! * the **utilization colormap** of Fig 1's legend (0 % → cool/light,
//!   100 % → hot/dark), painting the three annuli of every node glyph —
//!   implemented as a light-yellow → orange → dark-red ramp
//!   (YlOrRd-style, the standard sequential "heat" map);
//! * the **categorical task palette** coloring per-task lines and end
//!   annotations in the detail charts — the classic 10-hue wheel.

use serde::{Deserialize, Serialize};

/// An sRGB color with alpha, each channel in `0..=255`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Color {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
    /// Alpha channel (255 = opaque).
    pub a: u8,
}

impl Color {
    /// Opaque black.
    pub const BLACK: Color = Color::rgb(0, 0, 0);
    /// Opaque white.
    pub const WHITE: Color = Color::rgb(255, 255, 255);
    /// Fully transparent.
    pub const TRANSPARENT: Color = Color {
        r: 0,
        g: 0,
        b: 0,
        a: 0,
    };

    /// Opaque color from channels.
    pub const fn rgb(r: u8, g: u8, b: u8) -> Color {
        Color { r, g, b, a: 255 }
    }

    /// Color with alpha.
    pub const fn rgba(r: u8, g: u8, b: u8, a: u8) -> Color {
        Color { r, g, b, a }
    }

    /// Parses `#rrggbb` or `#rrggbbaa`.
    pub fn from_hex(s: &str) -> Option<Color> {
        let s = s.strip_prefix('#')?;
        let parse = |i: usize| u8::from_str_radix(s.get(i..i + 2)?, 16).ok();
        match s.len() {
            6 => Some(Color::rgb(parse(0)?, parse(2)?, parse(4)?)),
            8 => Some(Color::rgba(parse(0)?, parse(2)?, parse(4)?, parse(6)?)),
            _ => None,
        }
    }

    /// Renders as `#rrggbb` (alpha omitted when opaque) or `#rrggbbaa`.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(9);
        let _ = self.write_hex(&mut s);
        s
    }

    /// Appends the [`Color::to_hex`] form to `out` without allocating; the
    /// one hex encoder behind `to_hex`, `Display` and the SVG emitter.
    pub fn write_hex(&self, out: &mut impl std::fmt::Write) -> std::fmt::Result {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let channels = [self.r, self.g, self.b, self.a];
        let n = if self.a == 255 { 3 } else { 4 };
        out.write_char('#')?;
        for &c in &channels[..n] {
            out.write_char(char::from(DIGITS[usize::from(c >> 4)]))?;
            out.write_char(char::from(DIGITS[usize::from(c & 0xf)]))?;
        }
        Ok(())
    }

    /// Linear interpolation in sRGB space at `t ∈ [0, 1]`.
    #[must_use]
    pub fn lerp(&self, other: &Color, t: f64) -> Color {
        let t = t.clamp(0.0, 1.0);
        let ch = |a: u8, b: u8| -> u8 {
            (a as f64 + (b as f64 - a as f64) * t)
                .round()
                .clamp(0.0, 255.0) as u8
        };
        Color {
            r: ch(self.r, other.r),
            g: ch(self.g, other.g),
            b: ch(self.b, other.b),
            a: ch(self.a, other.a),
        }
    }

    /// Returns the color with a new alpha.
    #[must_use]
    pub fn with_alpha(mut self, a: u8) -> Color {
        self.a = a;
        self
    }

    /// Relative luminance in `[0, 1]` (for choosing label contrast).
    pub fn luminance(&self) -> f64 {
        (0.2126 * self.r as f64 + 0.7152 * self.g as f64 + 0.0722 * self.b as f64) / 255.0
    }
}

/// Formats as [`Color::to_hex`] does, writing straight into the formatter
/// (no allocation).
impl std::fmt::Display for Color {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.write_hex(f)
    }
}

/// A multi-stop linear gradient evaluated at `t ∈ [0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gradient {
    /// `(position, color)` stops, positions ascending in `[0, 1]`.
    stops: Vec<(f64, Color)>,
}

impl Gradient {
    /// Builds a gradient from stops; positions are sorted and clamped.
    ///
    /// # Panics
    ///
    /// Panics when `stops` is empty.
    pub fn new(mut stops: Vec<(f64, Color)>) -> Gradient {
        assert!(!stops.is_empty(), "gradient needs at least one stop");
        for s in &mut stops {
            s.0 = s.0.clamp(0.0, 1.0);
        }
        stops.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        Gradient { stops }
    }

    /// Samples the gradient.
    pub fn at(&self, t: f64) -> Color {
        let t = if t.is_nan() { 0.0 } else { t.clamp(0.0, 1.0) };
        let first = self.stops[0];
        if t <= first.0 {
            return first.1;
        }
        for w in self.stops.windows(2) {
            let (p0, c0) = w[0];
            let (p1, c1) = w[1];
            if t <= p1 {
                let span = (p1 - p0).max(f64::EPSILON);
                return c0.lerp(&c1, (t - p0) / span);
            }
        }
        self.stops.last().expect("non-empty").1
    }
}

/// The utilization colormap of Fig 1's legend: 0 % light yellow → 50 %
/// orange → 100 % dark red.
pub fn utilization_colormap() -> Gradient {
    Gradient::new(vec![
        (0.0, Color::from_hex("#ffffcc").expect("static hex")),
        (0.25, Color::from_hex("#fed976").expect("static hex")),
        (0.5, Color::from_hex("#fd8d3c").expect("static hex")),
        (0.75, Color::from_hex("#e31a1c").expect("static hex")),
        (1.0, Color::from_hex("#800026").expect("static hex")),
    ])
}

/// The categorical palette for per-task lines (d3 `schemeCategory10`).
pub const TASK_PALETTE: [&str; 10] = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
    "#bcbd22", "#17becf",
];

/// The color for the `i`-th task (wraps past 10).
pub fn task_color(i: usize) -> Color {
    Color::from_hex(TASK_PALETTE[i % TASK_PALETTE.len()]).expect("static hex")
}

/// The paper's fixed annotation colors: job-start lines are green.
pub fn start_annotation_color() -> Color {
    Color::from_hex("#2ca02c").expect("static hex")
}

/// Job-bubble outline (blue dotted in Fig 1).
pub fn job_outline_color() -> Color {
    Color::from_hex("#4477cc").expect("static hex")
}

/// Task-bubble outline (purple dotted in Fig 1).
pub fn task_outline_color() -> Color {
    Color::from_hex("#9467bd").expect("static hex")
}

/// Link colors for co-allocation dotted lines (green, orange, purple — the
/// colors called out in Fig 3(b)).
pub fn link_color(i: usize) -> Color {
    const LINKS: [&str; 3] = ["#2ca02c", "#ff7f0e", "#9467bd"];
    Color::from_hex(LINKS[i % LINKS.len()]).expect("static hex")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_encoder_matches_format_for_every_channel_value() {
        for v in 0..=255u8 {
            let c = Color::rgb(v, v.wrapping_mul(7), 255 - v);
            assert_eq!(c.to_hex(), format!("#{:02x}{:02x}{:02x}", c.r, c.g, c.b));
            assert_eq!(c.to_string(), c.to_hex());
            let t = c.with_alpha(v.min(254));
            let want = format!("#{:02x}{:02x}{:02x}{:02x}", t.r, t.g, t.b, t.a);
            assert_eq!(t.to_hex(), want);
            assert_eq!(t.to_string(), want);
            let mut appended = String::from("fill=");
            t.write_hex(&mut appended).unwrap();
            assert_eq!(appended, format!("fill={want}"));
        }
    }

    #[test]
    fn hex_round_trip() {
        let c = Color::rgb(0x12, 0xab, 0xef);
        assert_eq!(Color::from_hex(&c.to_hex()), Some(c));
        let t = Color::rgba(1, 2, 3, 128);
        assert_eq!(t.to_hex(), "#01020380");
        assert_eq!(Color::from_hex("#01020380"), Some(t));
        assert_eq!(Color::from_hex("nope"), None);
        assert_eq!(Color::from_hex("#12345"), None);
    }

    #[test]
    fn lerp_endpoints() {
        let a = Color::rgb(0, 0, 0);
        let b = Color::rgb(200, 100, 50);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.lerp(&b, 0.5), Color::rgb(100, 50, 25));
        // Clamps out-of-range t.
        assert_eq!(a.lerp(&b, 2.0), b);
    }

    #[test]
    fn gradient_interpolates_between_stops() {
        let g = Gradient::new(vec![
            (0.0, Color::rgb(0, 0, 0)),
            (1.0, Color::rgb(100, 100, 100)),
        ]);
        assert_eq!(g.at(0.5), Color::rgb(50, 50, 50));
        assert_eq!(g.at(-1.0), Color::rgb(0, 0, 0));
        assert_eq!(g.at(2.0), Color::rgb(100, 100, 100));
        assert_eq!(g.at(f64::NAN), Color::rgb(0, 0, 0));
    }

    #[test]
    fn utilization_map_gets_hotter() {
        let map = utilization_colormap();
        let cold = map.at(0.0);
        let mid = map.at(0.5);
        let hot = map.at(1.0);
        // Luminance strictly decreases: light → dark.
        assert!(cold.luminance() > mid.luminance());
        assert!(mid.luminance() > hot.luminance());
        // Hot end is red-dominated.
        assert!(hot.r > hot.g && hot.r > hot.b);
    }

    #[test]
    fn task_palette_wraps_and_is_distinct() {
        assert_eq!(task_color(0), task_color(10));
        let unique: std::collections::HashSet<String> =
            (0..10).map(|i| task_color(i).to_hex()).collect();
        assert_eq!(unique.len(), 10);
    }

    #[test]
    fn fixed_role_colors_parse() {
        // Exercise every static color path (panics would fail the test).
        let _ = start_annotation_color();
        let _ = job_outline_color();
        let _ = task_outline_color();
        assert_ne!(link_color(0), link_color(1));
        assert_eq!(link_color(0), link_color(3));
    }

    #[test]
    #[should_panic(expected = "at least one stop")]
    fn empty_gradient_panics() {
        Gradient::new(vec![]);
    }
}
