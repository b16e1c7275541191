//! Planar geometry and color primitives shared by every layer of the STRG
//! pipeline.
//!
//! Region nodes carry a centroid ([`Point2`]) and a mean color ([`Rgb`]);
//! spatial and temporal edge attributes are derived from them (Definitions 1
//! and 2 of the paper).

use std::ops::{Add, Div, Mul, Sub};

/// A point (or displacement vector) in the image plane, in pixel units.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Point2 {
    /// Horizontal coordinate (column), growing rightwards.
    pub x: f64,
    /// Vertical coordinate (row), growing downwards.
    pub y: f64,
}

impl Point2 {
    /// Creates a point from its coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ZERO: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Euclidean norm of the vector from the origin to this point — the
    /// one definition of a point distance in the workspace.
    ///
    /// Two multiplies, an add and a square root, each correctly rounded by
    /// IEEE 754: the same bits on every platform and in every SIMD lane
    /// width (libm's overflow-safe variant is only accurate to < 1 ulp and
    /// differs between libms). Never fuse the multiply-add — one rounding
    /// instead of two would split FMA hardware from the rest. Coordinates
    /// beyond ~1e154 square to `+inf`; the result is then `+inf`, never NaN.
    #[inline]
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(self, other: Point2) -> f64 {
        (self - other).norm()
    }

    /// Angle of the vector from the origin to this point, in radians in
    /// `(-pi, pi]`, measured from the positive x axis.
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Point2, t: f64) -> Point2 {
        self + (other - self) * t
    }
}

impl Add for Point2 {
    type Output = Point2;
    #[inline]
    fn add(self, rhs: Point2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point2 {
    type Output = Point2;
    #[inline]
    fn sub(self, rhs: Point2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point2 {
    type Output = Point2;
    #[inline]
    fn mul(self, rhs: f64) -> Point2 {
        Point2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point2 {
    type Output = Point2;
    #[inline]
    fn div(self, rhs: f64) -> Point2 {
        Point2::new(self.x / rhs, self.y / rhs)
    }
}

/// An RGB color with components in `[0, 255]`, stored as `f64` so that
/// region means and cluster centroids can be represented exactly.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Rgb {
    /// Red component in `[0, 255]`.
    pub r: f64,
    /// Green component in `[0, 255]`.
    pub g: f64,
    /// Blue component in `[0, 255]`.
    pub b: f64,
}

impl Rgb {
    /// Creates a color from its components.
    pub const fn new(r: f64, g: f64, b: f64) -> Self {
        Self { r, g, b }
    }

    /// Pure black.
    pub const BLACK: Rgb = Rgb::new(0.0, 0.0, 0.0);
    /// Pure white.
    pub const WHITE: Rgb = Rgb::new(255.0, 255.0, 255.0);

    /// Euclidean distance between two colors in RGB space.
    ///
    /// The maximum possible value is `255 * sqrt(3) ~= 441.7`.
    pub fn dist(self, other: Rgb) -> f64 {
        let dr = self.r - other.r;
        let dg = self.g - other.g;
        let db = self.b - other.b;
        (dr * dr + dg * dg + db * db).sqrt()
    }

    /// Clamps all components into `[0, 255]`.
    pub fn clamp(self) -> Rgb {
        Rgb::new(
            self.r.clamp(0.0, 255.0),
            self.g.clamp(0.0, 255.0),
            self.b.clamp(0.0, 255.0),
        )
    }
}

/// Smallest absolute difference between two angles, in radians in `[0, pi]`.
///
/// Used when comparing spatial-edge orientations and temporal-edge moving
/// directions, both of which live on the circle.
pub fn angle_diff(a: f64, b: f64) -> f64 {
    let two_pi = std::f64::consts::TAU;
    let mut d = (a - b) % two_pi;
    if d < 0.0 {
        d += two_pi;
    }
    if d > std::f64::consts::PI {
        d = two_pi - d;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn point_arithmetic() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(4.0, 6.0);
        assert_eq!(a + b, Point2::new(5.0, 8.0));
        assert_eq!(b - a, Point2::new(3.0, 4.0));
        assert_eq!((b - a).norm(), 5.0);
        assert_eq!(a.dist(b), 5.0);
        assert_eq!(a * 2.0, Point2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point2::new(2.0, 3.0));
    }

    #[test]
    fn point_lerp() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(10.0, -4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.25), Point2::new(2.5, -1.0));
    }

    #[test]
    fn point_angle() {
        assert!((Point2::new(1.0, 0.0).angle() - 0.0).abs() < 1e-12);
        assert!((Point2::new(0.0, 1.0).angle() - FRAC_PI_2).abs() < 1e-12);
        assert!((Point2::new(-1.0, 0.0).angle() - PI).abs() < 1e-12);
    }

    #[test]
    fn color_distance() {
        assert_eq!(Rgb::BLACK.dist(Rgb::BLACK), 0.0);
        let expected = 255.0 * 3.0_f64.sqrt();
        assert!((Rgb::BLACK.dist(Rgb::WHITE) - expected).abs() < 1e-9);
        // Symmetry.
        let a = Rgb::new(10.0, 20.0, 30.0);
        let b = Rgb::new(200.0, 10.0, 90.0);
        assert_eq!(a.dist(b), b.dist(a));
    }

    #[test]
    fn color_clamp() {
        let c = Rgb::new(-5.0, 300.0, 128.0).clamp();
        assert_eq!(c, Rgb::new(0.0, 255.0, 128.0));
    }

    #[test]
    fn angle_difference_wraps() {
        assert!((angle_diff(0.1, -0.1) - 0.2).abs() < 1e-12);
        assert!((angle_diff(PI - 0.05, -PI + 0.05) - 0.1).abs() < 1e-12);
        assert!((angle_diff(0.0, PI) - PI).abs() < 1e-12);
        assert!(angle_diff(3.0 * PI, PI) < 1e-12);
    }
}
