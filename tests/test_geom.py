import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cablerecon import imgproc
from cablerecon.errors import DegenerateGeometryError
from cablerecon.geom import (
    RULES,
    ReconParams,
    checked,
    frame_from_y_z,
    is_rotation,
    normalize,
    vector_norm,
    read,
    rotation_about_axis,
)

Z = np.array([0.0, 0.0, 1.0])


class TestRotationAboutAxis:
    def test_zero_angle_is_identity(self):
        assert np.allclose(rotation_about_axis(Z, 0.0), np.eye(3))

    def test_quarter_turn_about_z(self):
        r = rotation_about_axis(Z, 90.0)
        assert np.allclose(r @ np.array([1.0, 0, 0]), [0, 1, 0], atol=1e-12)

    def test_24_composed_15_degree_steps_close_the_circle(self):
        r = rotation_about_axis(Z, 15.0)
        acc = np.eye(3)
        for _ in range(24):
            acc = acc @ r
        assert np.abs(acc - np.eye(3)).max() < 1e-9

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError):
            rotation_about_axis(np.array([0.0, 0.0, 2.0]), 10.0)

    @given(
        st.floats(-360, 720),
        st.integers(0, 2),
    )
    def test_always_a_proper_rotation(self, angle, axis_index):
        axis = np.eye(3)[axis_index]
        assert is_rotation(rotation_about_axis(axis, angle))


def test_vector_norm_is_bit_equal_to_np_linalg_norm(rng):
    vectors = rng.normal(size=(5000, 3)) * rng.uniform(1e-12, 1e6, (5000, 1))
    for v in vectors:
        assert vector_norm(v) == np.linalg.norm(v)
    # a strided column and a 2-vector row take the same values as norm's copy
    for m in rng.normal(size=(200, 3, 3)):
        assert vector_norm(m[:, 1]) == np.linalg.norm(m[:, 1])
        assert vector_norm(m[0, :2]) == np.linalg.norm(m[0, :2])
    assert normalize([3, 4, 0]).tolist() == [0.6, 0.8, 0.0]


def frame_oracle(y_dir, z_dir):
    """`frame_from_y_z` with the 1-degree cosine taken per call and x from np.cross."""
    z = np.asarray(z_dir, dtype=float) / np.linalg.norm(z_dir)
    y_raw = np.asarray(y_dir, dtype=float)
    y_norm = np.linalg.norm(y_raw)
    if y_norm < 1e-9:
        raise DegenerateGeometryError("y direction is near zero")
    if abs(float(np.dot(y_raw / y_norm, z))) > np.cos(np.radians(1.0)):
        raise DegenerateGeometryError("y and z directions are within 1 degree of parallel")
    y = y_raw - np.dot(y_raw, z) * z
    y = y / np.linalg.norm(y)
    return np.column_stack([np.cross(y, z), y, z])


def frame_or_error(frame_fn, y, z):
    try:
        return frame_fn(y, z).tobytes()
    except DegenerateGeometryError:
        return "degenerate"


class TestFrameFromYZ:
    def test_bytes_equal_the_np_cross_formulation(self, rng):
        pairs = [(rng.normal(size=3), rng.normal(size=3)) for _ in range(500)]
        pairs += [(rng.normal(size=3) * 1e-6, rng.normal(size=3) * 1e6) for _ in range(50)]
        pairs += [(np.array([0.0, 1.0, 0.0]), Z), (np.array([1.0, 1.0, 0.0]), Z), ([0.3, -1, 0], [0, 0, 2])]
        for y, z in pairs:
            assert frame_or_error(frame_from_y_z, y, z) == frame_or_error(frame_oracle, y, z)
        frame = frame_from_y_z(*pairs[0])
        assert frame.flags.c_contiguous and frame.dtype == np.float64

    @pytest.mark.parametrize("axis", [Z, np.array([0.6, 0.0, 0.8]), np.array([0.0, -1.0, 0.0])])
    def test_y_and_z_exactly_one_degree_apart(self, axis):
        # rotations of z by 1 degree and by the neighbouring floats of 1
        # degree: each side of the bound rounds alike in both formulations
        outcomes = set()
        for angle in (np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.0 + 1e-9, 1.0 - 1e-9):
            turn = rotation_about_axis(normalize(np.cross(axis, [0.3, 0.5, 0.1])), angle)
            for y in (turn @ axis, -(turn @ axis)):
                got = frame_or_error(frame_from_y_z, y, axis)
                assert got == frame_or_error(frame_oracle, y, axis)
                outcomes.add(got == "degenerate")
        assert outcomes == {True, False}

    def test_axis_aligned(self):
        f = frame_from_y_z(np.array([0.0, 1, 0]), Z)
        assert np.allclose(f, np.eye(3))

    def test_gram_schmidt_removes_z_component(self):
        f = frame_from_y_z(np.array([0.0, 1.0, 0.5]), Z)
        assert np.allclose(f[:, 1], [0, 1, 0], atol=1e-12)

    def test_x_column_is_y_cross_z(self):
        y = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        f = frame_from_y_z(y, Z)
        assert np.allclose(f[:, 0], [1 / np.sqrt(2), -1 / np.sqrt(2), 0])

    def test_near_parallel_inputs_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            frame_from_y_z(np.array([1e-3, 0, 1.0]), Z)

    def test_scale_invariance(self):
        y = np.array([0.3, 1.0, 0.2])
        z = np.array([0.1, -0.2, 2.0])
        a = frame_from_y_z(y, z)
        b = frame_from_y_z(17.3 * y, 0.004 * z)
        assert np.abs(a - b).max() < 1e-12

    @given(
        st.lists(st.floats(-1, 1), min_size=3, max_size=3),
        st.lists(st.floats(-1, 1), min_size=3, max_size=3),
    )
    def test_result_is_orthonormal_right_handed(self, y, z):
        y = np.asarray(y)
        z = np.asarray(z)
        ny, nz = np.linalg.norm(y), np.linalg.norm(z)
        if ny < 1e-3 or nz < 1e-3:
            return
        cos = abs(np.dot(y / ny, z / nz))
        if cos > np.cos(np.radians(2.0)):
            return
        assert is_rotation(frame_from_y_z(y, z))


class TestReconParams:
    def test_published_defaults(self):
        p = ReconParams()
        assert p.d_min == 0.0150
        assert p.d_m == 0.0200
        assert p.t_p == 0.0080
        assert p.t_h == 0.0011
        assert p.delta_y == 0.0100
        assert p.delta_z == 0.0015
        assert p.theta_deg == 15.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ReconParams(d_m=0.0)

    def test_derived_values_follow_d_m_and_theta(self):
        assert ReconParams(d_m=0.03).r_search == 1.75 * 0.03
        assert ReconParams().r_search == 0.035
        assert ReconParams(theta_deg=30).max_rotation_attempts == 12
        assert type(ReconParams().max_rotation_attempts) is int

    @pytest.mark.parametrize("theta", [17.0, 720.0, 1e-320])
    def test_theta_must_divide_full_turn(self, theta):
        with pytest.raises(ValueError, match="theta_deg must divide 360 evenly"):
            ReconParams(theta_deg=theta)

    def test_replace_copies(self):
        p = ReconParams()
        q = dataclasses.replace(p, delta_y=0.02)
        assert q.delta_y == 0.02 and p.delta_y == 0.01

    FLOATS = [f.name for f in dataclasses.fields(ReconParams) if f.type == "float"]

    def test_every_field_is_checked(self):
        # __post_init__ holds every field to one rule, a float's
        names = [f.name for f in dataclasses.fields(ReconParams)]
        assert names == self.FLOATS

    def test_the_fields_are_the_seven_published_values(self):
        names = {f.name for f in dataclasses.fields(ReconParams)}
        assert names == {"d_min", "d_m", "t_p", "t_h", "delta_y", "delta_z", "theta_deg"}

    def test_imgproc_reads_no_run_parameter(self):
        tree = ast.parse(Path(imgproc.__file__).read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert "ReconParams" not in imported

    @pytest.mark.parametrize(
        "value", [0, 0.0, -1.0, np.nan, np.inf, 10**400, True, "abc", None, [1.0]]
    )
    def test_float_fields_take_positive_finite_numbers_only(self, value):
        for name in self.FLOATS:
            with pytest.raises(ValueError, match=name):
                ReconParams(**{name: value})

    def test_numpy_scalars_pass_and_are_stored_as_python_numbers(self):
        p = ReconParams(d_m=np.int64(2), delta_y=np.float32(0.5), d_min=7)
        assert p.d_m == 2.0 and type(p.d_m) is float
        assert p.delta_y == 0.5 and type(p.delta_y) is float
        assert p.d_min == 7.0 and type(p.d_min) is float


class TestRules:
    # the rules an empty list or an empty mapping passes
    TAKE_EMPTY = {
        "a list of finite numbers": [], "a list of points of 3 finite numbers": [],
        "a list of mappings": [], "a mapping": {},
    }

    @pytest.mark.parametrize("rule", sorted(RULES))
    @pytest.mark.parametrize("value", [True, None, "", [], {}])
    def test_no_rule_takes_a_bool_none_or_an_empty_value(self, rule, value):
        if rule in self.TAKE_EMPTY and type(value) is type(self.TAKE_EMPTY[rule]):
            assert len(checked(value, rule, "x")) == 0
            return
        with pytest.raises(ValueError, match=r"^x must be "):
            checked(value, rule, "x")

    def test_the_error_prints_the_rule_and_a_shallow_value(self):
        with pytest.raises(ValueError) as err:
            checked([{"d_min": 0.02}], "a mapping", "params file p.yaml")
        assert str(err.value) == "params file p.yaml must be a mapping, not [{...}]"

    def test_read_names_a_missing_key_and_takes_a_default(self):
        with pytest.raises(ValueError) as err:
            read({}, "seed", "scenario s.yaml", "an integer >= 0")
        assert str(err.value) == "scenario s.yaml is missing key 'seed'"
        assert read({}, "seed", "s", "an integer >= 0", 0) == 0
        with pytest.raises(ValueError, match="^s seed must be an integer >= 0, not 1.5$"):
            read({"seed": 1.5}, "seed", "s", "an integer >= 0", 0)

    @pytest.mark.parametrize(
        "value, rule, cast",
        [
            (np.int64(3), "an integer > 0", 3),
            (7, "a finite number >= 0", 7.0),
            ([1, 2, 3], "3 finite numbers", np.array([1.0, 2.0, 3.0])),
            ([[0, 0, 1]] * 4, "a list of at least 4 points of 3 finite numbers",
             np.array([[0.0, 0.0, 1.0]] * 4)),
            ([0, 255, 40.5], "3 numbers in [0, 255]", np.array([0.0, 255.0, 40.5])),
        ],
    )
    def test_a_value_that_passes_is_cast(self, value, rule, cast):
        out = checked(value, rule, "x")
        assert type(out) is type(cast) and np.array_equal(out, cast)

    @pytest.mark.parametrize(
        "color", [[0, 0, 255.5], [-1e-9, 0, 0], [0, float("nan"), 0], [0, True, 0], [0, 0]]
    )
    def test_a_color_outside_0_to_255_fails(self, color):
        with pytest.raises(ValueError, match=r"^x must be 3 numbers in \[0, 255\], not "):
            checked(color, "3 numbers in [0, 255]", "x")

    @pytest.mark.parametrize("path", ["cable_00", "images/color.ppm", "cable_00/spline_seg..x"])
    def test_relative_paths_pass(self, path):
        assert checked(path, "a relative path", "x") == path

    @pytest.mark.parametrize(
        "path",
        ["/abs", "a//b", "a/", "./a", "a/./b", "../a", "cable_00/spline_seg../../x", "a\0b", 3],
    )
    def test_escaping_or_empty_paths_fail(self, path):
        with pytest.raises(ValueError, match="^x must be a relative path, not "):
            checked(path, "a relative path", "x")

    @pytest.mark.parametrize("name", ["cable_00", "a.b", "..."])
    def test_one_path_component(self, name):
        assert checked(name, "one path component", "x") == name
        for bad in (f"{name}/x", f"x/{name}", "", ".", ".."):
            with pytest.raises(ValueError, match="one path component"):
                checked(bad, "one path component", "x")

    @pytest.mark.parametrize("normal", [[0, 0, 0], [1e-10, 0, 0], [0, 0, 1, 0], [0, 0, True]])
    def test_a_normal_is_three_numbers_not_all_zero(self, normal):
        with pytest.raises(ValueError, match="not all 0"):
            checked(normal, "3 finite numbers, not all 0", "x")
        assert checked([0, 0, 2], "3 finite numbers, not all 0", "x").tolist() == [0.0, 0.0, 2.0]


def _allclose_ref(m, tol):
    """The pose check as np.allclose states it."""
    return bool(np.allclose(m.T @ m, np.eye(3), atol=tol)) and bool(
        abs(np.linalg.det(m) - 1.0) <= tol
    )


def _diag_straddle(bound, sign):
    """diag(a, c, c) with a*a - 1 just inside and just outside sign*bound.

    c = 1/sqrt(a) keeps det within a few ulp of 1 and c*c well inside.
    """
    a = lo = hi = np.sqrt(1.0 + sign * bound)
    steps = [a]
    for _ in range(4):
        lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, 2.0)
        steps += [lo, hi]
    dev = {s: abs(s * s - 1.0) for s in steps}
    inside = max((s for s in steps if dev[s] <= bound), key=dev.get)
    outside = min((s for s in steps if dev[s] > bound), key=dev.get)
    return [np.diag([s, 1.0 / np.sqrt(s), 1.0 / np.sqrt(s)]) for s in (inside, outside)]


class TestIsRotationMatchesAllclose:
    @pytest.mark.parametrize("tol", [1e-9, 1e-8])
    def test_boundaries_and_non_finite(self, tol):
        cases = []
        for bound in (tol, tol + 1e-5):
            for e in (np.nextafter(bound, 0.0), bound, np.nextafter(bound, 1.0)):
                for sign in (1.0, -1.0):
                    m = np.eye(3)
                    m[0, 1] = sign * e  # (m.T @ m)[0, 1] is exactly this
                    cases.append(m)
            for sign in (1.0, -1.0):
                pair = _diag_straddle(bound, sign)
                # the diagonal allows tol + 1e-5 (allclose's default rtol)
                assert [_allclose_ref(m, tol) for m in pair] == [True, bound == tol]
                cases += pair
        for bad in (np.nan, np.inf, -np.inf):
            for i, j in ((0, 0), (1, 2)):
                m = np.eye(3)
                m[i, j] = bad
                cases.append(m)
        with np.errstate(all="ignore"):
            got = [is_rotation(m, tol) for m in cases]
            want = [_allclose_ref(m, tol) for m in cases]
        assert got == want
