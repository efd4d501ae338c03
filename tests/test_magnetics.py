import io
import math

import numpy as np
import pytest

from wireqls import magnetics

RING = magnetics.RingMagnet.saturated(r_in=5e-3, r_out=15e-3, height=5e-3)


class TestGeometryValidation:
    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            magnetics.RingMagnet(r_in=0.0, r_out=1e-2, height=1e-3, magnetization=1e6)
        with pytest.raises(ValueError):
            magnetics.RingMagnet(r_in=2e-2, r_out=1e-2, height=1e-3, magnetization=1e6)
        with pytest.raises(ValueError):
            magnetics.RingMagnet(r_in=1e-3, r_out=1e-2, height=0.0, magnetization=1e6)
        with pytest.raises(ValueError):
            magnetics.RingMagnet(
                r_in=1e-3, r_out=1e-2, height=1e-3, magnetization=math.inf
            )
        # an infinite outer radius gave B1 = B2 = nan on the axis
        with pytest.raises(ValueError, match="^r_out must be finite$"):
            magnetics.RingMagnet(r_in=1e-3, r_out=math.inf, height=1e-3, magnetization=1e6)

    def test_inner_radius_edge_where_the_face_field_overflows(self):
        # the least accepted r_in, found by bisection over the floats: at it
        # the field on and beside a face is finite, one float below it the
        # ring is rejected (inv**5 in the face term would overflow there)
        def accepted(r_in):
            try:
                magnetics.RingMagnet(r_in, 1e-3, 1e-3, 1e6)
            except ValueError:
                return False
            return True

        lo, hi = 1e-70, 1e-50
        assert not accepted(lo) and accepted(hi)
        while math.nextafter(lo, hi) < hi:
            mid = math.sqrt(lo * hi)
            mid = mid if lo < mid < hi else math.nextafter(lo, hi)
            lo, hi = (lo, mid) if accepted(mid) else (mid, hi)
        assert 1e-62 < hi < 1e-61 and not accepted(math.nextafter(hi, 0.0))
        for r_in in (hi, math.nextafter(hi, 1.0)):
            ring = magnetics.RingMagnet(r_in, 1e-3, 1e-3, 1e6)
            for face in (-0.5e-3, 0.5e-3):
                for z in (face, math.nextafter(face, -1.0), math.nextafter(face, 1.0)):
                    values = magnetics._derivatives(ring, z)
                    assert all(map(math.isfinite, values)), (r_in, z, values)

    def test_inner_radius_whose_square_overflows_rejected(self):
        # r_in**2 in the face terms overflows above ~1.3e154 m
        with pytest.raises(ValueError, match="r_in outside the float range"):
            magnetics.RingMagnet(1e200, 1e201, 1e-3, 1e6)


class TestFieldShape:
    def test_far_field_dipole_decay(self):
        # |z|^-3 falloff: doubling the distance cuts the field by ~8
        b1 = magnetics.on_axis_field(RING, 1.0)
        b2 = magnetics.on_axis_field(RING, 2.0)
        assert b1 / b2 == pytest.approx(8.0, rel=1e-3)
        assert abs(magnetics.on_axis_field(RING, 50.0)) < 1e-10

    def test_far_field_matches_dipole_moment(self):
        # B(z) -> mu0 * m / (2 pi z^3), m = M * pi (r_out^2 - r_in^2) h
        z = 3.0
        moment = RING.magnetization * math.pi * (RING.r_out**2 - RING.r_in**2) * RING.height
        expected = magnetics.MU_0 * moment / (2.0 * math.pi * z**3)
        assert magnetics.on_axis_field(RING, z) == pytest.approx(expected, rel=1e-4)

    def test_symmetry_about_midplane(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(1e-4, 0.1, size=24)
        b_plus, b_minus = magnetics.on_axis_field(RING, u), magnetics.on_axis_field(RING, -u)
        np.testing.assert_allclose(b_plus, b_minus, rtol=1e-12)
        b1p, b2p = magnetics.gradients(RING, u)
        b1m, b2m = magnetics.gradients(RING, -u)
        np.testing.assert_allclose(b1p, -b1m, rtol=1e-12)
        np.testing.assert_allclose(b2p, b2m, rtol=1e-12)

    def test_first_gradient_vanishes_at_center(self):
        b1, _ = magnetics.gradients(RING, RING.center_z)
        assert b1 == 0.0

    def test_offset_ring_center(self):
        moved = magnetics.RingMagnet(
            RING.r_in, RING.r_out, RING.height, RING.magnetization, center_z=0.02
        )
        assert magnetics.on_axis_field(moved, 0.02) == pytest.approx(
            magnetics.on_axis_field(RING, 0.0), rel=1e-14
        )


class TestLinearityAndSuperposition:
    def test_linear_in_magnetization(self):
        doubled = magnetics.RingMagnet(
            RING.r_in, RING.r_out, RING.height, 2.0 * RING.magnetization
        )
        z = np.linspace(-0.05, 0.08, 40)
        for f in (magnetics.on_axis_field,):
            np.testing.assert_allclose(f(doubled, z), 2.0 * f(RING, z), rtol=1e-14)
        b1a, b2a = magnetics.gradients(RING, z)
        b1b, b2b = magnetics.gradients(doubled, z)
        np.testing.assert_allclose(b1b, 2.0 * b1a, rtol=1e-14)
        np.testing.assert_allclose(b2b, 2.0 * b2a, rtol=1e-14)

    def test_ratios_magnetization_independent(self):
        weak = magnetics.RingMagnet(
            RING.r_in, RING.r_out, RING.height, RING.magnetization / 7.0
        )
        _, b2_strong = magnetics.gradients(RING, np.array([0.0, 0.05]))
        _, b2_weak = magnetics.gradients(weak, np.array([0.0, 0.05]))
        assert b2_strong[1] / b2_strong[0] == pytest.approx(
            b2_weak[1] / b2_weak[0], rel=1e-12
        )

    def test_superposition_of_stacked_rings(self):
        # contiguous stack: faces meet at z = 0
        lower = magnetics.RingMagnet(
            RING.r_in, RING.r_out, RING.height, RING.magnetization, center_z=-0.0025
        )
        upper = magnetics.RingMagnet(
            RING.r_in, RING.r_out, RING.height, RING.magnetization, center_z=0.0025
        )
        tall = magnetics.RingMagnet(
            RING.r_in, RING.r_out, 2.0 * RING.height, RING.magnetization, center_z=0.0
        )
        z = np.linspace(-0.06, 0.06, 60)
        np.testing.assert_allclose(
            magnetics.on_axis_field(lower, z) + magnetics.on_axis_field(upper, z),
            magnetics.on_axis_field(tall, z),
            rtol=1e-12,
            atol=1e-15,
        )


class TestCalibration:
    def test_calibrated_center_gradient(self):
        ring = RING.calibrated_to(9000.0)
        _, b2 = magnetics.gradients(ring, 0.0)
        assert b2 == pytest.approx(9000.0, rel=1e-12)

    def test_remote_gradient_geometry_ratio(self):
        ring = RING.calibrated_to(9000.0)
        _, b2_far = magnetics.gradients(ring, 0.05)
        assert 2.0 <= b2_far <= 8.0  # nominal profile value: 4 T/m^2

    def test_default_saturation_magnitude_reported(self):
        # absolute value with the saturation default; order of magnitude only
        _, b2 = magnetics.gradients(RING, 0.0)
        assert 1e3 < b2 < 1e6


class TestScalarPath:
    def test_float_argument_gives_floats(self):
        assert type(magnetics.on_axis_field(RING, 0.01)) is float
        b1, b2 = magnetics.gradients(RING, 0.01)
        assert type(b1) is float and type(b2) is float

    def test_profile_matches_array_evaluation(self):
        # the float path (plain Python pow) against the same closed form on
        # ndarrays (numpy pow): they may differ only in the last bits
        ring = RING.calibrated_to(9000.0)
        grid = [float(z) for z in np.linspace(-0.1, 0.1, 801)]
        grid += [float(z) for z in np.random.default_rng(5).uniform(-0.3, 0.3, 200)]
        z, b, b1_rows, b2_rows = zip(*magnetics.field_profile(ring, grid, background=6.0))
        zs = np.asarray(grid)
        b1, b2 = magnetics.gradients(ring, zs)
        assert z == tuple(grid)
        np.testing.assert_allclose(
            b, magnetics.on_axis_field(ring, zs) + 6.0, rtol=1e-12, atol=0
        )
        np.testing.assert_allclose(b1_rows, b1, rtol=1e-12, atol=0)
        np.testing.assert_allclose(b2_rows, b2, rtol=1e-12, atol=0)


class TestFiniteDifferenceOracle:
    def test_analytic_matches_fd_at_random_points(self):
        rng = np.random.default_rng(11)
        zs = rng.uniform(-0.08, 0.08, size=20)
        for z in zs:
            b1a, b2a = magnetics.gradients(RING, z)
            b1f, b2f = magnetics.fd_gradients(RING, z)
            assert abs(b1a - b1f) <= 1e-6 * abs(b1a)
            assert abs(b2a - b2f) <= 1e-6 * abs(b2a)

    def test_step_underflow_raises(self):
        with pytest.raises(ValueError):
            magnetics.fd_gradients(RING, 1.0, step=1e-300)


class TestProfileExport:
    def test_profile_background_only_shifts_field(self):
        z = np.linspace(-0.02, 0.08, 21)
        plain = np.array(list(magnetics.field_profile(RING, z)))
        shifted = np.array(list(magnetics.field_profile(RING, z, background=6.0)))
        np.testing.assert_allclose(
            shifted[:, 1] - plain[:, 1], 6.0, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(shifted[:, [0, 2, 3]], plain[:, [0, 2, 3]], rtol=0)

    def test_csv_markers_and_units_header(self):
        z = np.array([-0.01, 0.0, 0.05])
        rows = magnetics.field_profile(RING, z, background=6.0)
        buf = io.StringIO()
        magnetics.write_profile_csv(
            rows, buf, markers={"logic": 0.0, "spectroscopy": 0.05}
        )
        lines = buf.getvalue().splitlines()
        assert lines[0] == "z_m,B_T,B1_T_per_m,B2_T_per_m2,site"
        assert lines[2].endswith(",logic")
        assert lines[3].endswith(",spectroscopy")
        # B1 at the midplane is exactly zero in the exported row
        assert lines[2].split(",")[2] == "0.0"

    @pytest.mark.parametrize("second", [0.0, 1.0e-17])
    def test_csv_row_carries_every_matching_marker(self, second):
        rows = magnetics.field_profile(RING, [-0.01, 0.0, 1.0e-17, 0.05])
        buf = io.StringIO()
        magnetics.write_profile_csv(
            rows, buf, markers={"logic": 0.0, "spectroscopy": second}
        )
        sites = [line.rsplit(",", 1)[1] for line in buf.getvalue().splitlines()[1:]]
        assert sites == ["", "logic+spectroscopy", "logic+spectroscopy", ""]
