//! Geodesic geometry: great-circle distances and a local planar
//! projection for real (lat/lon) road networks.
//!
//! The synthetic [`crate::generators`] live in a planar metre grid where
//! Euclidean geometry is exact, and every downstream consumer — A*
//! heuristics, the map matcher's R-tree, GPS noise models — assumes
//! planar coordinates. Real OSM extracts come as WGS84 lat/lon instead,
//! where naive Euclidean arithmetic over degrees is wrong by a factor of
//! ~111 000 (and latitude-dependent). This module is the bridge:
//!
//! * [`haversine_m`] — the great-circle distance the importer uses for
//!   edge *lengths* (the quantity routing costs are built from);
//! * [`LocalProjection`] — an equirectangular projection centred on the
//!   extract that maps lat/lon into the crate's planar metre
//!   [`Point`]s, so the snapping R-tree, point-to-segment projections
//!   and Euclidean heuristic floors all keep working unchanged. At city
//!   scale (tens of km) the projection error is well below GPS noise;
//!   exactness of routing never depends on it because the engine derives
//!   its A* rate from per-edge `cost / span` minima
//!   ([`crate::algo::engine::safe_heuristic_bound`]), which absorbs any
//!   residual distortion.

use crate::geometry::Point;

/// Mean Earth radius in metres (IUGG arithmetic mean radius).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// Great-circle (haversine) distance between two WGS84 coordinates, in
/// metres. Inputs are degrees; the result is symmetric, non-negative and
/// satisfies the triangle inequality (it is a metric on the sphere).
pub fn haversine_m(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    let phi1 = lat1.to_radians();
    let phi2 = lat2.to_radians();
    let dphi = (lat2 - lat1).to_radians();
    let dlambda = (lon2 - lon1).to_radians();
    let s1 = (dphi / 2.0).sin();
    let s2 = (dlambda / 2.0).sin();
    let a = s1 * s1 + phi1.cos() * phi2.cos() * s2 * s2;
    // Clamp before the sqrt/asin: rounding can push `a` epsilon outside
    // [0, 1] for antipodal or coincident points.
    2.0 * EARTH_RADIUS_M * a.max(0.0).sqrt().min(1.0).asin()
}

/// Wraps a longitude difference (or longitude) into [-180, 180)
/// degrees.
#[inline]
pub fn wrap_degrees(deg: f64) -> f64 {
    let w = deg.rem_euclid(360.0);
    if w >= 180.0 {
        w - 360.0
    } else {
        w
    }
}

/// Whether `(lat, lon)` is a finite, in-range WGS84 coordinate.
pub fn valid_lat_lon(lat: f64, lon: f64) -> bool {
    lat.is_finite()
        && lon.is_finite()
        && (-90.0..=90.0).contains(&lat)
        && (-180.0..=180.0).contains(&lon)
}

/// An equirectangular projection centred on a reference coordinate:
/// `x = R · Δλ · cos φ₀`, `y = R · Δφ`. Exactly invertible (away from
/// the poles), metre-scaled on both axes, and accurate to a fraction of
/// a percent over the city-scale extents road-network extracts cover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalProjection {
    /// Reference latitude (degrees) — maps to `y = 0`.
    pub lat0: f64,
    /// Reference longitude (degrees) — maps to `x = 0`.
    pub lon0: f64,
    cos_lat0: f64,
}

impl LocalProjection {
    /// Creates a projection centred on `(lat0, lon0)`. The reference
    /// latitude is clamped into (-89.9°, 89.9°) so the inverse stays
    /// well-conditioned.
    pub fn new(lat0: f64, lon0: f64) -> Self {
        let lat0 = lat0.clamp(-89.9, 89.9);
        LocalProjection {
            lat0,
            lon0,
            cos_lat0: lat0.to_radians().cos(),
        }
    }

    /// A projection centred on the mean of the given coordinates
    /// (`None` for an empty iterator). Longitudes are averaged as
    /// *wrapped offsets from the first coordinate*, so an extract
    /// straddling the ±180° antimeridian centres on the extract — not
    /// on the far side of the planet.
    pub fn centred_on(coords: impl IntoIterator<Item = (f64, f64)>) -> Option<Self> {
        let (mut n, mut lat, mut dlon_sum) = (0usize, 0.0f64, 0.0f64);
        let mut lon_ref = 0.0f64;
        for (la, lo) in coords {
            if n == 0 {
                lon_ref = lo;
            }
            n += 1;
            lat += la;
            dlon_sum += wrap_degrees(lo - lon_ref);
        }
        if n == 0 {
            return None;
        }
        Some(Self::new(
            lat / n as f64,
            wrap_degrees(lon_ref + dlon_sum / n as f64),
        ))
    }

    /// Projects a WGS84 coordinate (degrees) into local planar metres.
    /// The longitude offset is wrapped into ±180°, so coordinates just
    /// across the antimeridian from the origin land next to it.
    #[inline]
    pub fn project(&self, lat: f64, lon: f64) -> Point {
        Point {
            x: wrap_degrees(lon - self.lon0).to_radians() * self.cos_lat0 * EARTH_RADIUS_M,
            y: (lat - self.lat0).to_radians() * EARTH_RADIUS_M,
        }
    }

    /// Inverse of [`LocalProjection::project`]; the returned longitude
    /// is wrapped into [-180, 180).
    #[inline]
    pub fn unproject(&self, p: Point) -> (f64, f64) {
        let lat = self.lat0 + (p.y / EARTH_RADIUS_M).to_degrees();
        let lon = wrap_degrees(self.lon0 + (p.x / (EARTH_RADIUS_M * self.cos_lat0)).to_degrees());
        (lat, lon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathrank_testkit::prelude::*;

    /// One degree of latitude (or of longitude at the equator):
    /// 2πR / 360.
    const DEGREE_M: f64 = 2.0 * std::f64::consts::PI * EARTH_RADIUS_M / 360.0;

    #[test]
    fn equator_degree_is_exact() {
        let d = haversine_m(0.0, 0.0, 0.0, 1.0);
        assert!((d - DEGREE_M).abs() < 1e-6, "{d} vs {DEGREE_M}");
        let d = haversine_m(0.0, 0.0, 1.0, 0.0);
        assert!((d - DEGREE_M).abs() < 1e-6, "meridian degree {d}");
    }

    #[test]
    fn known_city_pairs() {
        // Great-circle distances, checked against published figures.
        // Aalborg -> Copenhagen (the paper's network is Aalborg):
        let aal_cph = haversine_m(57.0488, 9.9217, 55.6761, 12.5683);
        assert!(
            (219_000.0..228_000.0).contains(&aal_cph),
            "Aalborg-Copenhagen {aal_cph}"
        );
        // London -> Paris (~343 km):
        let lon_par = haversine_m(51.5074, -0.1278, 48.8566, 2.3522);
        assert!(
            (339_000.0..349_000.0).contains(&lon_par),
            "London-Paris {lon_par}"
        );
        // New York -> Los Angeles (~3936 km):
        let nyc_la = haversine_m(40.7128, -74.0060, 34.0522, -118.2437);
        assert!(
            (3_920_000.0..3_955_000.0).contains(&nyc_la),
            "NYC-LA {nyc_la}"
        );
    }

    #[test]
    fn degenerate_and_extreme_inputs() {
        assert_eq!(haversine_m(57.0, 9.9, 57.0, 9.9), 0.0);
        // Antipodal points: half the circumference, no NaN from the
        // clamped asin.
        let half = std::f64::consts::PI * EARTH_RADIUS_M;
        let d = haversine_m(0.0, 0.0, 0.0, 180.0);
        assert!((d - half).abs() < 1.0, "{d} vs {half}");
        assert!(valid_lat_lon(90.0, 180.0));
        assert!(!valid_lat_lon(90.1, 0.0));
        assert!(!valid_lat_lon(0.0, -180.5));
        assert!(!valid_lat_lon(f64::NAN, 0.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn haversine_is_symmetric_and_nonnegative(
            a in (-80.0f64..80.0, -179.0f64..179.0),
            b in (-80.0f64..80.0, -179.0f64..179.0),
        ) {
            let ab = haversine_m(a.0, a.1, b.0, b.1);
            let ba = haversine_m(b.0, b.1, a.0, a.1);
            prop_assert!(ab >= 0.0);
            prop_assert!((ab - ba).abs() < 1e-6, "asymmetry {ab} vs {ba}");
        }

        #[test]
        fn haversine_triangle_inequality(
            a in (-80.0f64..80.0, -179.0f64..179.0),
            b in (-80.0f64..80.0, -179.0f64..179.0),
            c in (-80.0f64..80.0, -179.0f64..179.0),
        ) {
            let ab = haversine_m(a.0, a.1, b.0, b.1);
            let bc = haversine_m(b.0, b.1, c.0, c.1);
            let ac = haversine_m(a.0, a.1, c.0, c.1);
            prop_assert!(ac <= ab + bc + 1e-6, "triangle violated: {ac} > {ab} + {bc}");
        }

        #[test]
        fn projection_round_trips(
            lat0 in -70.0f64..70.0,
            lon0 in -170.0f64..170.0,
            dlat in -0.3f64..0.3,
            dlon in -0.3f64..0.3,
        ) {
            let proj = LocalProjection::new(lat0, lon0);
            let (lat, lon) = (lat0 + dlat, lon0 + dlon);
            let p = proj.project(lat, lon);
            let (la, lo) = proj.unproject(p);
            prop_assert!((la - lat).abs() < 1e-9, "lat {la} vs {lat}");
            prop_assert!((lo - lon).abs() < 1e-9, "lon {lo} vs {lon}");
        }

        #[test]
        fn projection_matches_haversine_at_city_scale(
            lat0 in -60.0f64..60.0,
            lon0 in -170.0f64..170.0,
            dlat in (-0.05f64..0.05),
            dlon in (-0.05f64..0.05),
            dlat2 in (-0.05f64..0.05),
            dlon2 in (-0.05f64..0.05),
        ) {
            // Within a ~10 km extent the planar distance between two
            // projected points tracks the geodesic to ≈0.1%: the planar
            // substrate (snapping radii, GPS noise, heuristic floors)
            // stays metrically faithful on imported networks.
            let proj = LocalProjection::new(lat0, lon0);
            let (a_lat, a_lon) = (lat0 + dlat, lon0 + dlon);
            let (b_lat, b_lon) = (lat0 + dlat2, lon0 + dlon2);
            let planar = proj.project(a_lat, a_lon).distance(&proj.project(b_lat, b_lon));
            let geodesic = haversine_m(a_lat, a_lon, b_lat, b_lon);
            let err = (planar - geodesic).abs();
            prop_assert!(
                err <= 0.002 * geodesic + 0.5,
                "planar {planar} vs geodesic {geodesic} (err {err})"
            );
        }
    }

    #[test]
    fn antimeridian_extracts_project_locally() {
        // A "city" straddling ±180° (Taveuni-style): the centre must be
        // on the extract, and both sides must land next to each other.
        let coords = [(-16.8, 179.95), (-16.8, -179.95), (-16.9, 179.98)];
        let proj = LocalProjection::centred_on(coords).unwrap();
        assert!(
            proj.lon0.abs() > 179.0,
            "centre must stay near the antimeridian, got {}",
            proj.lon0
        );
        for &(la, lo) in &coords {
            let p = proj.project(la, lo);
            assert!(
                p.x.abs() < 50_000.0 && p.y.abs() < 50_000.0,
                "({la}, {lo}) projected {} km away",
                (p.x.hypot(p.y) / 1000.0).round()
            );
            // Planar distance across the seam tracks the geodesic.
            let (la2, lo2) = proj.unproject(p);
            assert!(haversine_m(la, lo, la2, lo2) < 1.0);
        }
        let a = proj.project(-16.8, 179.95);
        let b = proj.project(-16.8, -179.95);
        let geodesic = haversine_m(-16.8, 179.95, -16.8, -179.95);
        assert!((a.distance(&b) - geodesic).abs() < 0.01 * geodesic);
        assert_eq!(wrap_degrees(190.0), -170.0);
        assert_eq!(wrap_degrees(-190.0), 170.0);
        assert_eq!(wrap_degrees(0.0), 0.0);
    }

    #[test]
    fn centred_on_means_coordinates() {
        let p = LocalProjection::centred_on([(56.0, 9.0), (58.0, 11.0)]).unwrap();
        assert!((p.lat0 - 57.0).abs() < 1e-12);
        assert!((p.lon0 - 10.0).abs() < 1e-12);
        assert!(LocalProjection::centred_on(std::iter::empty()).is_none());
        // The origin projects to (0, 0).
        let o = p.project(57.0, 10.0);
        assert!(o.x.abs() < 1e-9 && o.y.abs() < 1e-9);
    }
}
