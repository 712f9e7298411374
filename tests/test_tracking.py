import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vfzero import (
    Box,
    Expr,
    FalsificationError,
    NOT_TRACKING,
    POLY_TRACKING,
    RATIONAL_TRACKING,
    VectorField,
    bracket_closure_track,
    common_zero_blocks,
    dep_set,
    divide_exact,
    euler_field,
    isolate_zeros,
    lie_bracket,
    parse_expr,
    parse_field,
    track_check,
    wedge,
)
from vfzero.expr import DomainError, poly_gcd

from conftest import NO_SHRINK, pi_polys, plane_fields, plane_polys, rationals, torus_polys
from oracles import ref_poly_gcd, ref_track_check, same_expr

REGION = Box.from_corners(-1, -1, 1, 1)
SQUARING = parse_field("(x^2 - y^2, 2*x*y)")


class TestTrackCheck:
    def test_euler_tracks_squaring(self):
        rep = track_check(euler_field(), SQUARING)
        assert rep.status == POLY_TRACKING
        assert rep.cofactor == Expr.const(1, "plane")

    def test_shear_pair_not_tracking(self):
        rep = track_check(parse_field("(0, x)"), parse_field("(1, 0)"))
        assert rep.status == NOT_TRACKING
        assert rep.wedge_residual == parse_expr("1")

    def test_self_tracking_zero_cofactor(self):
        rep = track_check(SQUARING, SQUARING)
        assert rep.status == POLY_TRACKING
        assert rep.cofactor.is_zero

    def test_rational_cofactor(self):
        rep = track_check(parse_field("(y, 0)"), parse_field("(x^2, x*y)"))
        assert rep.status == RATIONAL_TRACKING
        assert rep.cofactor_num == parse_expr("y")
        assert rep.cofactor_den == parse_expr("x")
        assert rep.caveat is not None

    def test_zero_x_rejected(self):
        with pytest.raises(ValueError):
            track_check(euler_field(), VectorField.zero("plane"))

    def test_torus_scalar_multiple(self):
        base = parse_field("(sin2px, sin2py)", "torus")
        g = parse_expr("2 + cos2py", "torus")
        rep = track_check(base.scale(g), base)
        assert rep.status == POLY_TRACKING
        expected = -(base.cx * g.derive("x") + base.cy * g.derive("y"))
        assert rep.cofactor == expected

    @settings(max_examples=25, deadline=None)
    @given(torus_polys(max_deg=2), torus_polys(max_deg=2))
    def test_trig_quotient_reconstruction(self, a, b):
        if b.is_zero:
            return
        q = divide_exact(a * b, b)
        assert q is not None and q * b == a * b

    def test_high_degree_torus_tracker(self):
        # a bounded-support linear solve (oracles.ref_trig_quotient) would
        # set up 4418 candidate terms here and give up past 4000
        base = parse_field("(sin2px, sin2py)", "torus")
        g = parse_expr("sin2px^22*sin2py^22", "torus")
        rep = track_check(base.scale(g), base)
        assert rep.status == POLY_TRACKING
        assert rep.cofactor == -(base.cx * g.derive("x") + base.cy * g.derive("y"))

    @settings(max_examples=25, deadline=None)
    @given(plane_polys(max_deg=2, coeff=3))
    def test_multiple_of_x_always_polynomial(self, p):
        rep = track_check(SQUARING.scale(p), SQUARING)
        assert rep.status == POLY_TRACKING
        # reconstruction: bracket equals cofactor * X exactly
        assert rep.bracket.cx == rep.cofactor * SQUARING.cx
        assert rep.bracket.cy == rep.cofactor * SQUARING.cy

    @settings(max_examples=25, deadline=None)
    @given(plane_polys(max_deg=2, coeff=3), plane_polys(max_deg=2, coeff=3))
    def test_wedge_residual_iff_not_tracking(self, p, q):
        y = parse_field("(x, y)").scale(p) + SQUARING.scale(q)
        rep = track_check(y, SQUARING)
        assert (rep.status == NOT_TRACKING) == (not rep.wedge_residual.is_zero)
        if rep.status != NOT_TRACKING:
            assert wedge(rep.bracket, SQUARING).is_zero


def _torus_fields(max_deg: int = 1):
    return st.tuples(torus_polys(max_deg), torus_polys(max_deg)).map(lambda t: VectorField(*t))


class TestOneDivision:
    """``track_check`` against ``oracles.ref_track_check``, which tried both
    component pairs and re-proved the cofactor identities, on tracking
    pairs Y = p*V + r*X, X = q*V: [Y, X] is a multiple of V, and its
    cofactor is rational whenever q does not divide p*V(q) - q*V(p)."""

    @staticmethod
    def _check(y, x):
        assume(not x.is_zero)
        rep, ref = track_check(y, x), ref_track_check(y, x)
        assert rep == ref
        for name in ("cofactor", "cofactor_num", "cofactor_den"):
            assert same_expr(getattr(rep, name), getattr(ref, name)), name
        assert rep.status != NOT_TRACKING
        b = rep.bracket
        if rep.status == POLY_TRACKING:
            assert (b.cx, b.cy) == (rep.cofactor * x.cx, rep.cofactor * x.cy)
        elif x.domain == "plane":
            den, num = rep.cofactor_den, rep.cofactor_num
            assert (b.cx * den, b.cy * den) == (num * x.cx, num * x.cy)

    @settings(max_examples=200, deadline=None, derandomize=True, phases=NO_SHRINK)
    @given(plane_fields(max_deg=2, coeff=3), plane_polys(max_deg=1, coeff=3),
           plane_polys(max_deg=1, coeff=3), plane_polys(max_deg=1, coeff=3))
    def test_plane_multiples(self, v, p, q, r):
        x = v.scale(q)
        self._check(v.scale(p) + x.scale(r), x)

    @settings(max_examples=100, deadline=None, derandomize=True, phases=NO_SHRINK)
    @given(_torus_fields(), torus_polys(max_deg=1), torus_polys(max_deg=1), torus_polys(max_deg=1))
    def test_torus_multiples(self, v, p, q, r):
        x = v.scale(q)
        self._check(v.scale(p) + x.scale(r), x)


class TestBracketClosure:
    def test_scalar_multiple_trackers(self):
        rng = random.Random(5)
        for _ in range(5):
            p = Expr("plane", {(0, rng.randint(0, 2), rng.randint(0, 2), 0, 0, 0, 0): Fraction(rng.randint(-3, 3))})
            q = Expr("plane", {(0, rng.randint(0, 2), rng.randint(0, 2), 0, 0, 0, 0): Fraction(rng.randint(-3, 3))})
            rep = bracket_closure_track(SQUARING.scale(p), SQUARING.scale(q), SQUARING)
            assert rep.status != NOT_TRACKING

    def test_euler_and_field(self):
        rep = bracket_closure_track(euler_field(), SQUARING, SQUARING)
        assert rep.status == POLY_TRACKING

    def test_identical_trackers(self):
        rep = bracket_closure_track(euler_field(), euler_field(), SQUARING)
        assert rep.status == POLY_TRACKING
        assert rep.cofactor.is_zero

    def test_precondition_enforced(self):
        with pytest.raises(ValueError):
            bracket_closure_track(parse_field("(0, x)"), euler_field(), parse_field("(1, 0)"))


class TestDepSet:
    def test_rotation_pair_origin(self):
        res = dep_set(parse_field("(x, y)"), parse_field("(-y, x)"), REGION, 6)
        assert res.wedge == parse_expr("x^2 + y^2")
        assert len(res.blocks) == 1
        assert res.blocks[0].contains_point((Fraction(0), Fraction(0)))

    def test_scalar_multiple_identically_dependent(self):
        res = dep_set(SQUARING, SQUARING.scale(parse_expr("3 + x^2")), REGION, 4)
        assert res.identically_dependent
        assert res.wedge.is_zero

    def test_constant_frame_empty(self):
        res = dep_set(parse_field("(1, 0)"), parse_field("(0, 1)"), REGION, 4)
        assert res.wedge == parse_expr("1")
        assert res.blocks == ()

    def test_zero_set_inside_dep_set(self):
        # X wedge Y vanishes wherever X does, so every true zero of X sits
        # inside the dependency cover; the covers themselves need not nest
        # cell-by-cell (the expanded wedge evaluates tighter than its
        # factors), so the containment is checked at the zeros
        cases = [
            (SQUARING, euler_field(), [(Fraction(0), Fraction(0))]),
            (
                parse_field("(x^2 - y^2 - 1, 2*x*y)"),
                euler_field(),
                [(Fraction(-1), Fraction(0)), (Fraction(1), Fraction(0))],
            ),
        ]
        region = Box.from_corners(-2, -2, 2, 2)
        for x_field, y_field, zeros in cases:
            ds = dep_set(x_field, y_field, region, 6)
            if ds.identically_dependent:
                continue
            for z in zeros:
                assert any(blk.contains_point(z) for blk in ds.blocks)


class TestCommonZeros:
    def test_single_generator(self):
        blocks = common_zero_blocks([parse_field("(x, y)")], REGION, 6).blocks
        assert len(blocks) == 1
        assert blocks[0].contains_point((Fraction(0), Fraction(0)))

    def test_disjoint_zero_sets(self):
        fields = [parse_field("(x, y)"), parse_field("(x - 1, y)")]
        assert common_zero_blocks(fields, Box.from_corners(-2, -2, 2, 2), 6).blocks == ()

    def test_squaring_and_euler(self):
        blocks = common_zero_blocks([SQUARING, euler_field()], REGION, 6).blocks
        assert len(blocks) == 1
        assert blocks[0].contains_point((Fraction(0), Fraction(0)))

    @pytest.mark.parametrize("torus_first", [False, True])
    def test_mixed_domains_rejected(self, torus_first):
        fields = [parse_field("(x, y)"), parse_field("(sin2px, sin2py)", "torus")]
        if torus_first:
            fields.reverse()
        with pytest.raises(ValueError, match="generators live on different domains"):
            common_zero_blocks(fields, Box.from_corners(0, 0, 1, 1), 4)

    def test_no_generators_rejected(self):
        with pytest.raises(ValueError, match="no generators"):
            common_zero_blocks([], REGION, 4)

    def test_zero_generators_rejected(self):
        # nothing is left to certify a boundary with: every region edge was
        # bisected 42 levels down and its block reported coarse
        zero = VectorField.zero("plane")
        with pytest.raises(ValueError, match="every generator is the zero field"):
            common_zero_blocks([zero, zero], REGION, 4)
        (blk,) = common_zero_blocks([zero, parse_field("(x, y)")], REGION, 6).blocks
        assert not blk.coarse and blk.contains_point((Fraction(0), Fraction(0)))


class TestBackpropProperty:
    def test_generated_tracker_pairs_never_falsify(self):
        rng = random.Random(11)
        e = euler_field()
        for _ in range(25):
            def rnd_poly():
                terms = {}
                for _ in range(3):
                    key = (0, rng.randint(0, 2), rng.randint(0, 2), 0, 0, 0, 0)
                    terms[key] = terms.get(key, Fraction(0)) + rng.randint(-3, 3)
                return Expr("plane", {k: Fraction(c) for k, c in terms.items() if c})

            y = SQUARING.scale(rnd_poly()) + e.scale(Fraction(rng.randint(-2, 2)))
            z = SQUARING.scale(rnd_poly())
            if not (track_check(y, SQUARING).tracking and track_check(z, SQUARING).tracking):
                continue
            rep = bracket_closure_track(y, z, SQUARING)
            assert rep.status != NOT_TRACKING


@st.composite
def _one_variable_polys(draw, slot: int):
    """Nonconstant polynomials in pi alone (slot 0) or y alone (slot 2),
    with rational coefficients."""
    terms = {}
    for e, c in draw(st.lists(st.tuples(st.integers(0, 3), rationals(-3, 3, 6)),
                              min_size=1, max_size=3)):
        key = [0] * 7
        key[slot] = e
        terms[tuple(key)] = terms.get(tuple(key), 0) + c
    key = [0] * 7
    key[slot] = draw(st.integers(1, 2))
    terms[tuple(key)] = terms.get(tuple(key), 0) + draw(st.sampled_from([-2, 1, Fraction(3, 2)]))
    return Expr("plane", terms)


class TestIntegerGcd:
    """The cofactor gcd on integer numerators against sympy's ``Poly.gcd``
    (``oracles.ref_poly_gcd``): the same monic gcd, lex x > y > pi, with
    the same terms in the same order."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pi_polys(), pi_polys(), pi_polys())
    def test_common_factor(self, g, p, q):
        a, b = g * p, g * q
        assert same_expr(poly_gcd(a, b), ref_poly_gcd(a, b))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pi_polys(), pi_polys())
    def test_random_pairs(self, a, b):
        # mostly coprime: the gcd is 1
        assert same_expr(poly_gcd(a, b), ref_poly_gcd(a, b))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(pi_polys(), pi_polys())
    def test_one_divides_the_other(self, g, p):
        a = g * p
        assert same_expr(poly_gcd(a, g), ref_poly_gcd(a, g))
        assert same_expr(poly_gcd(g, a), ref_poly_gcd(g, a))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sampled_from([0, 2]).flatmap(_one_variable_polys), pi_polys(), pi_polys(),
           st.booleans())
    def test_pi_or_y_content(self, c, p, q, negate):
        a, b = c * p, c * q
        if negate:
            a = -a
        assert same_expr(poly_gcd(a, b), ref_poly_gcd(a, b))

    @pytest.mark.parametrize("a, b, gcd", [
        ("2*x*y + 4*y^2", "6*y*pi + 3*x*pi", "x + 2*y"),
        ("x + pi", "y - 1", "1"),
        ("x^2 - y^2", "-x^2 - 2*x*y - y^2", "x + y"),
        ("-3*x*y + pi", "6*x*y - 2*pi", "x*y - 1/3*pi"),
        ("-pi^2*x + pi^2", "2*pi*y - 2*pi*x*y", "pi*x - pi"),
        ("-5/2*y^2*x + y^2", "y^3*pi", "y^2"),
        ("(y^2 - 2)*(x + 1)", "(y^2 - 2)*(x - pi)", "y^2 - 2"),
        ("(pi^2 + 1)*x", "(pi^2 + 1)*(y + 3)", "pi^2 + 1"),
        ("0", "-4*x*y + 2", "x*y - 1/2"),
        ("0", "0", "0"),
    ])
    def test_hand_cases(self, a, b, gcd):
        a, b = parse_expr(a), parse_expr(b)
        got = poly_gcd(a, b)
        assert same_expr(got, ref_poly_gcd(a, b))
        assert got == parse_expr(gcd)

    @pytest.mark.parametrize("a, b", [
        ("sin2px*cos2py", "sin2px*cos2py"),
        ("2*pi", "sin2px"),
        ("cos2py", "pi"),
    ])
    def test_trig_input_raises(self, a, b):
        # the gcd runs in Z[pi][y][x]; track_check keeps trig cofactors
        # unreduced rather than call it
        with pytest.raises(DomainError, match="trig-free"):
            poly_gcd(parse_expr(a, "torus"), parse_expr(b, "torus"))


def _run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this vfzero."""
    import vfzero

    src = os.path.dirname(os.path.dirname(vfzero.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)


def test_import_loads_no_sympy():
    # sympy is not a runtime dependency: importing the package must not
    # load it (the tests use it only as an oracle)
    out = _run_python("import sys, vfzero; print('sympy' in sys.modules)")
    assert out.stdout.strip() == "False"


def test_rational_cofactor_without_sympy(tmp_path):
    # with the sympy import blocked, the rational cofactor is still reduced,
    # in track_check and through the command line
    code = (
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "from vfzero import parse_field, track_check\n"
        "from vfzero.cli import run_command\n"
        "rep = track_check(parse_field('(y, 0)'), parse_field('(x^2, x*y)'))\n"
        "print(rep.status, rep.cofactor_num, rep.cofactor_den)\n"
        "print(run_command(['track', '--y', '(y, 0)', '--x', '(x^2, x*y)', '--out', sys.argv[1]]))\n"
    )
    report = tmp_path / "track.json"
    out = _run_python(code, str(report))
    assert out.stdout.split() == [RATIONAL_TRACKING, "y", "x", "0"]
    results = json.loads(report.read_text())["results"]
    assert (results["cofactor_num"], results["cofactor_den"]) == ("y", "x")
