//! Planar geometry helpers.
//!
//! Synthetic networks live in a local planar coordinate system measured in
//! metres, so Euclidean geometry is exact. The helpers here are shared by
//! the routing heuristics (A* lower bounds) and by the trajectory crate's
//! GPS simulation and HMM map matching (point-to-segment projections).

/// A point in the local planar coordinate system (metres).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Easting in metres.
    pub x: f64,
    /// Northing in metres.
    pub y: f64,
}

impl Point {
    /// Creates a point from easting/northing metres.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point, in metres.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared Euclidean distance (avoids the square root when comparing).
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Linear interpolation between `self` (t = 0) and `other` (t = 1).
    #[inline]
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point {
            x: self.x + (other.x - self.x) * t,
            y: self.y + (other.y - self.y) * t,
        }
    }
}

/// Result of projecting a point onto a segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projection {
    /// The closest point on the segment.
    pub point: Point,
    /// Distance from the query point to [`Projection::point`], in metres.
    pub distance: f64,
    /// Normalised position along the segment in `[0, 1]`
    /// (0 = segment start, 1 = segment end).
    pub t: f64,
}

/// Projects `p` onto the segment `a -> b`.
///
/// Degenerate (zero-length) segments project everything onto `a`.
pub fn project_onto_segment(p: &Point, a: &Point, b: &Point) -> Projection {
    let abx = b.x - a.x;
    let aby = b.y - a.y;
    let len_sq = abx * abx + aby * aby;
    if len_sq <= f64::EPSILON {
        return Projection {
            point: *a,
            distance: p.distance(a),
            t: 0.0,
        };
    }
    let t = (((p.x - a.x) * abx + (p.y - a.y) * aby) / len_sq).clamp(0.0, 1.0);
    let point = Point {
        x: a.x + t * abx,
        y: a.y + t * aby,
    };
    Projection {
        point,
        distance: p.distance(&point),
        t,
    }
}

/// Distance from point `p` to segment `a -> b`, in metres.
#[inline]
pub fn point_segment_distance(p: &Point, a: &Point, b: &Point) -> f64 {
    project_onto_segment(p, a, b).distance
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((a.distance_sq(&b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(-2.0, 7.5);
        let b = Point::new(11.0, -3.25);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 20.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let mid = a.lerp(&b, 0.5);
        assert!((mid.x - 5.0).abs() < 1e-12 && (mid.y - 10.0).abs() < 1e-12);
    }

    #[test]
    fn projection_interior() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        let p = Point::new(4.0, 3.0);
        let proj = project_onto_segment(&p, &a, &b);
        assert!((proj.t - 0.4).abs() < 1e-12);
        assert!((proj.distance - 3.0).abs() < 1e-12);
        assert!((proj.point.x - 4.0).abs() < 1e-12);
        assert!(proj.point.y.abs() < 1e-12);
    }

    #[test]
    fn projection_clamps_to_endpoints() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        let before = Point::new(-5.0, 1.0);
        let after = Point::new(15.0, -2.0);
        assert_eq!(project_onto_segment(&before, &a, &b).t, 0.0);
        assert_eq!(project_onto_segment(&after, &a, &b).t, 1.0);
    }

    #[test]
    fn projection_degenerate_segment() {
        let a = Point::new(2.0, 2.0);
        let p = Point::new(5.0, 6.0);
        let proj = project_onto_segment(&p, &a, &a);
        assert_eq!(proj.point, a);
        assert!((proj.distance - 5.0).abs() < 1e-12);
    }
}
