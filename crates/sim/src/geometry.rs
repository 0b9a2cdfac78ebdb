//! Planar geometry primitives used across the simulator.
//!
//! Everything here is deliberately small and allocation-free: [`Vec2`],
//! [`Pose`], and oriented bounding boxes ([`Obb`]) with a separating-axis
//! intersection test. These are the building blocks of vehicle kinematics,
//! collision detection, and sensor rendering.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 2-D vector / point in meters.
///
/// ```
/// use drive_sim::geometry::Vec2;
/// let v = Vec2::new(3.0, 4.0);
/// assert_eq!(v.norm(), 5.0);
/// assert_eq!(v.dot(Vec2::new(1.0, 0.0)), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec2 {
    /// x component (longitudinal along the road by convention).
    pub x: f64,
    /// y component (lateral, positive to the left of travel direction).
    pub y: f64,
}

impl Vec2 {
    /// Creates a vector from components.
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Unit vector pointing along `angle` radians (measured from +x, CCW).
    pub fn from_angle(angle: f64) -> Self {
        Vec2::new(angle.cos(), angle.sin())
    }

    /// Dot product.
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z component of the 3-D cross product).
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean length.
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean length (cheaper than [`Vec2::norm`]).
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Returns the unit vector in the same direction, or `None` for a
    /// (near-)zero vector.
    pub fn try_normalize(self) -> Option<Vec2> {
        let n = self.norm();
        if n < 1e-12 {
            None
        } else {
            Some(self / n)
        }
    }

    /// Unit vector in the same direction; the zero vector normalizes to +x.
    ///
    /// Use [`Vec2::try_normalize`] when the degenerate case must be handled
    /// explicitly.
    pub fn normalize_or_x(self) -> Vec2 {
        self.try_normalize().unwrap_or(Vec2::new(1.0, 0.0))
    }

    /// Rotates the vector by `angle` radians counter-clockwise.
    pub fn rotate(self, angle: f64) -> Vec2 {
        let (s, c) = angle.sin_cos();
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// The vector rotated +90 degrees (left-hand perpendicular).
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// Angle of the vector from the +x axis, in `(-pi, pi]`.
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x + o.x, self.y + o.y)
    }
}

impl AddAssign for Vec2 {
    fn add_assign(&mut self, o: Vec2) {
        *self = *self + o;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x - o.x, self.y - o.y)
    }
}

impl SubAssign for Vec2 {
    fn sub_assign(&mut self, o: Vec2) {
        *self = *self - o;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, k: f64) -> Vec2 {
        Vec2::new(self.x * k, self.y * k)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    fn div(self, k: f64) -> Vec2 {
        Vec2::new(self.x / k, self.y / k)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

/// Normalizes an angle to the half-open interval `[-pi, pi)`.
///
/// ```
/// use drive_sim::geometry::normalize_angle;
/// use std::f64::consts::PI;
/// assert!((normalize_angle(3.0 * PI) - (-PI)).abs() < 1e-12);
/// assert_eq!(normalize_angle(0.5), 0.5);
/// ```
pub fn normalize_angle(a: f64) -> f64 {
    let two_pi = std::f64::consts::TAU;
    // `fmod` is exact, so for |a| < 2π it returns `a` unchanged; skipping
    // the libm call on that (overwhelmingly common) range is bit-identical
    // and keeps it off the per-substep integration path.
    let mut r = if a > -two_pi && a < two_pi {
        a
    } else {
        a % two_pi
    };
    if r >= std::f64::consts::PI {
        r -= two_pi;
    } else if r < -std::f64::consts::PI {
        r += two_pi;
    }
    r
}

/// Smallest signed difference `a - b` between two angles, in `[-pi, pi)`.
pub fn angle_diff(a: f64, b: f64) -> f64 {
    normalize_angle(a - b)
}

/// A position plus heading: the configuration of a rigid body in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Pose {
    /// World-frame position of the body origin, meters.
    pub position: Vec2,
    /// Heading angle in radians, measured CCW from the +x axis.
    pub heading: f64,
}

impl Pose {
    /// Creates a pose from position components and heading.
    pub fn new(x: f64, y: f64, heading: f64) -> Self {
        Pose {
            position: Vec2::new(x, y),
            heading,
        }
    }

    /// Transforms a point given in this pose's local frame into world frame.
    pub fn local_to_world(&self, local: Vec2) -> Vec2 {
        self.position + local.rotate(self.heading)
    }

    /// Transforms a world-frame point into this pose's local frame.
    ///
    /// Local +x points along the heading, +y to the left.
    pub fn world_to_local(&self, world: Vec2) -> Vec2 {
        (world - self.position).rotate(-self.heading)
    }

    /// Unit vector pointing along the heading.
    pub fn forward(&self) -> Vec2 {
        Vec2::from_angle(self.heading)
    }

    /// Unit vector pointing 90 degrees left of the heading.
    #[cfg(test)]
    pub fn left(&self) -> Vec2 {
        self.forward().perp()
    }
}

/// An oriented bounding box: rectangle with arbitrary heading.
///
/// Used as the collision footprint of every vehicle and road barrier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Obb {
    /// Center of the box in world frame.
    pub center: Vec2,
    /// Half of (length, width): extents along the local x / y axes.
    pub half_extents: Vec2,
    /// Heading of the local +x axis, radians CCW from world +x.
    pub heading: f64,
}

impl Obb {
    /// Creates an OBB from its center, full length, full width and heading.
    ///
    /// # Panics
    ///
    /// Panics if `length` or `width` is not strictly positive and finite.
    pub fn new(center: Vec2, length: f64, width: f64, heading: f64) -> Self {
        assert!(
            length > 0.0 && width > 0.0 && length.is_finite() && width.is_finite(),
            "OBB dimensions must be positive and finite (length={length}, width={width})"
        );
        Obb {
            center,
            half_extents: Vec2::new(length / 2.0, width / 2.0),
            heading,
        }
    }

    /// The four corners in CCW order, world frame.
    pub fn corners(&self) -> [Vec2; 4] {
        let fwd = Vec2::from_angle(self.heading) * self.half_extents.x;
        let left = Vec2::from_angle(self.heading).perp() * self.half_extents.y;
        [
            self.center + fwd + left,
            self.center - fwd + left,
            self.center - fwd - left,
            self.center + fwd - left,
        ]
    }

    /// The two local axes (forward, left) as world-frame unit vectors.
    pub fn axes(&self) -> [Vec2; 2] {
        let fwd = Vec2::from_angle(self.heading);
        [fwd, fwd.perp()]
    }

    /// Projects the box onto a unit axis, returning `(min, max)` scalars.
    fn project(&self, axis: Vec2) -> (f64, f64) {
        let c = self.center.dot(axis);
        let [ax, ay] = self.axes();
        let r =
            (ax.dot(axis) * self.half_extents.x).abs() + (ay.dot(axis) * self.half_extents.y).abs();
        (c - r, c + r)
    }

    /// Tests intersection with another OBB using the separating-axis theorem.
    ///
    /// ```
    /// use drive_sim::geometry::{Obb, Vec2};
    /// let a = Obb::new(Vec2::default(), 4.0, 2.0, 0.0);
    /// let b = Obb::new(Vec2::new(3.0, 0.0), 4.0, 2.0, 0.0);
    /// assert!(a.intersects(&b));
    /// let c = Obb::new(Vec2::new(10.0, 0.0), 4.0, 2.0, 0.0);
    /// assert!(!a.intersects(&c));
    /// ```
    pub fn intersects(&self, other: &Obb) -> bool {
        self.penetration(other).is_some()
    }

    /// Returns the minimum translation depth if the boxes overlap, `None`
    /// otherwise. The depth is the smallest overlap across all four SAT axes.
    pub fn penetration(&self, other: &Obb) -> Option<f64> {
        let mut min_overlap = f64::INFINITY;
        for axis in self.axes().into_iter().chain(other.axes()) {
            let (amin, amax) = self.project(axis);
            let (bmin, bmax) = other.project(axis);
            let overlap = amax.min(bmax) - amin.max(bmin);
            if overlap <= 0.0 {
                return None;
            }
            min_overlap = min_overlap.min(overlap);
        }
        Some(min_overlap)
    }

    /// Whether a world-frame point lies inside (or on the edge of) the box.
    #[cfg(test)]
    pub fn contains(&self, point: Vec2) -> bool {
        let local = (point - self.center).rotate(-self.heading);
        local.x.abs() <= self.half_extents.x && local.y.abs() <= self.half_extents.y
    }

    /// Axis-aligned bounds `(min, max)` enclosing the box (cheap broad phase).
    pub fn aabb(&self) -> (Vec2, Vec2) {
        let cs = self.corners();
        let mut min = cs[0];
        let mut max = cs[0];
        for c in &cs[1..] {
            min.x = min.x.min(c.x);
            min.y = min.y.min(c.y);
            max.x = max.x.max(c.x);
            max.y = max.y.max(c.y);
        }
        (min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    #[test]
    fn vec2_basic_ops() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Vec2::new(1.5, -0.5));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
        assert_eq!(a.dot(b), 1.0);
        assert_eq!(a.cross(b), -7.0);
    }

    #[test]
    fn vec2_rotation_and_perp() {
        let v = Vec2::new(1.0, 0.0);
        let r = v.rotate(FRAC_PI_2);
        assert!((r.x).abs() < 1e-12 && (r.y - 1.0).abs() < 1e-12);
        assert_eq!(v.perp(), Vec2::new(0.0, 1.0));
        assert!((Vec2::from_angle(FRAC_PI_4).angle() - FRAC_PI_4).abs() < 1e-12);
    }

    #[test]
    fn vec2_normalize() {
        assert_eq!(Vec2::default().try_normalize(), None);
        assert_eq!(Vec2::default().normalize_or_x(), Vec2::new(1.0, 0.0));
        let n = Vec2::new(0.0, -3.0).try_normalize().unwrap();
        assert!((n.y + 1.0).abs() < 1e-12);
    }

    #[test]
    fn angle_normalization() {
        assert!((normalize_angle(2.0 * PI) - 0.0).abs() < 1e-12);
        assert!((normalize_angle(PI) - (-PI)).abs() < 1e-12);
        assert!((normalize_angle(-PI) - (-PI)).abs() < 1e-12);
        assert!((angle_diff(0.1, -0.1) - 0.2).abs() < 1e-12);
        assert!((angle_diff(-3.1, 3.1) - (2.0 * PI - 6.2)).abs() < 1e-9);
    }

    #[test]
    fn pose_round_trip() {
        let p = Pose::new(5.0, -2.0, 0.7);
        let local = Vec2::new(1.5, -0.5);
        let w = p.local_to_world(local);
        let back = p.world_to_local(w);
        assert!((back - local).norm() < 1e-12);
    }

    #[test]
    fn pose_axes() {
        let p = Pose::new(0.0, 0.0, FRAC_PI_2);
        assert!((p.forward() - Vec2::new(0.0, 1.0)).norm() < 1e-12);
        assert!((p.left() - Vec2::new(-1.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn obb_corners_axis_aligned() {
        let b = Obb::new(Vec2::new(1.0, 1.0), 4.0, 2.0, 0.0);
        let cs = b.corners();
        assert!(cs.contains(&Vec2::new(3.0, 2.0)));
        assert!(cs.contains(&Vec2::new(-1.0, 0.0)));
    }

    #[test]
    fn obb_intersection_rotated() {
        // Diamond overlapping a square only because of rotation.
        let a = Obb::new(Vec2::default(), 2.0, 2.0, 0.0);
        let b = Obb::new(Vec2::new(1.9, 0.0), 2.0, 2.0, FRAC_PI_4);
        assert!(a.intersects(&b));
        // Moved away along x, no longer overlapping.
        let c = Obb::new(Vec2::new(2.5, 0.0), 2.0, 2.0, FRAC_PI_4);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn obb_contains_point() {
        let b = Obb::new(Vec2::default(), 4.0, 2.0, FRAC_PI_2);
        // Rotated 90 degrees: length is now along y.
        assert!(b.contains(Vec2::new(0.0, 1.9)));
        assert!(!b.contains(Vec2::new(1.9, 0.0)));
    }

    #[test]
    fn obb_penetration_depth_monotone() {
        let a = Obb::new(Vec2::default(), 4.0, 2.0, 0.0);
        let close = Obb::new(Vec2::new(3.0, 0.0), 4.0, 2.0, 0.0);
        let closer = Obb::new(Vec2::new(2.0, 0.0), 4.0, 2.0, 0.0);
        let p1 = a.penetration(&close).unwrap();
        let p2 = a.penetration(&closer).unwrap();
        assert!(p2 > p1);
    }

    #[test]
    fn obb_aabb_encloses_corners() {
        let b = Obb::new(Vec2::new(2.0, -1.0), 5.0, 2.0, 0.3);
        let (min, max) = b.aabb();
        for c in b.corners() {
            assert!(c.x >= min.x - 1e-12 && c.x <= max.x + 1e-12);
            assert!(c.y >= min.y - 1e-12 && c.y <= max.y + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "OBB dimensions must be positive")]
    fn obb_rejects_zero_size() {
        let _ = Obb::new(Vec2::default(), 0.0, 1.0, 0.0);
    }
}
