"""CLI: schemas, round trips, exit codes, determinism, golden outputs."""

import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from c2algebra.abelian import NotAComplex, integer_kernel
from c2algebra.algebra_json import parse_algebra
from c2algebra import chains
from c2algebra.chains import ChainComplex
from c2algebra.cli import run
from c2algebra.mackey_json import mackey_to_json, parse_mackey
from c2algebra.complexes import homology
from c2algebra.differentials import hkr_graded_piece
from c2algebra.mackey import box, zbar, zbar_c2
from c2algebra.polyring import BaseRing, PolyRing, RingInvolution
from c2algebra import trace as tr
from oracles import algebra_poly, burnside, fingerprint, hh_groups, zsign

import pytest


def run_cli(argv):
    buf = io.StringIO()
    code = run(argv, stdout=buf)
    return code, buf.getvalue()


ZBAR_JSON = '{"fixed": [0], "underlying": [0], "res": [[1]], "tr": [[2]], "sigma": [[1]]}'
ZSIGN_JSON = '{"fixed": [], "underlying": [0], "res": [[]], "tr": [], "sigma": [[-1]]}'
KX_JSON = '{"base": "Z", "gens": [{"name": "x", "sigma": "x"}], "rels": []}'
KXXS_JSON = ('{"base": "Z", "gens": [{"name": "x", "sigma": "x_s"}, '
             '{"name": "x_s", "sigma": "x"}], "rels": []}')
Q_JSON = '{"base": "Q", "gens": [], "rels": []}'
QX_JSON = '{"base": "Q", "gens": [{"name": "x", "sigma": "x"}], "rels": []}'
# y^2 = x^3 with x, y of weights 2, 3: its rule mixes variables, so hh runs
# the bar complex
CUSP_JSON = ('{"base": "Q", "gens": [{"name": "x", "sigma": "x"}, {"name": "y", "sigma": "-y"}], '
             '"rels": ["y^2 - x^3"], "weights": {"x": 2, "y": 3}}')
HYPER_JSON = ('{"base": "Q", "gens": [{"name": "x", "sigma": "x"}, '
              '{"name": "y", "sigma": "-y"}], "rels": ["y^2 - x^3 - 1"]}')


def test_parse_minimal_algebra():
    A = parse_algebra(json.loads(KX_JSON))
    assert isinstance(A, RingInvolution)
    assert A.ring.names == ["x"]


def test_parse_hyperelliptic():
    A = parse_algebra(json.loads(HYPER_JSON))
    assert A.ring.rules
    # omega(y) = -y survives the quotient
    img = A.images[1]
    assert A.ring.equal(img, A.ring.neg(A.ring.var(1)))


def test_parse_rejects_non_sigma_stable(capsys):
    bad = ('{"base": "Q", "gens": [{"name": "x", "sigma": "-x"}], '
           '"rels": ["x^2 - x"]}')
    code, _ = run_cli(["hh", "--algebra", bad, "--nmax", "1"])
    assert code == 1
    assert capsys.readouterr().err == ("error: relation ideal is not sigma-stable "
                                       "(offending relation: x^2 - x)\n")
    # sigma keeps x^2 but moves y^3 - x to -y^3 - x: the second relation is named
    bad = ('{"base": "Q", "gens": [{"name": "x"}, {"name": "y", "sigma": "-y"}], '
           '"rels": ["x^2", "y^3 - x"]}')
    code, out = run_cli(["hh", "--algebra", bad, "--nmax", "1"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == ("error: relation ideal is not sigma-stable "
                                       "(offending relation: y^3 - x)\n")


def test_parse_rejects_sigma_that_is_not_an_involution(capsys):
    # sigma(x) = 2x over Z: sigma^2(x) = 4x
    bad = '{"base": "Z", "gens": [{"name": "x", "sigma": "2*x"}]}'
    code, out = run_cli(["hh", "--algebra", bad, "--nmax", "1"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: sigma is not an involution\n"


def test_parse_rejects_unknown_fields():
    bad = '{"base": "Z", "gens": [], "rels": [], "bogus": 1}'
    code, _ = run_cli(["hh", "--algebra", bad, "--nmax", "1"])
    assert code == 2
    bad_complex = '{"kind": "sigma-sphere", "k": 1, "extra": true}'
    code, _ = run_cli(["slice-check", "--complex", bad_complex, "--n", "0"])
    assert code == 2


def test_mackey_roundtrip():
    for M in (zbar(), zsign(), zbar_c2(), burnside(), box(zbar(), zbar()),
              homology(hkr_graded_piece(algebra_poly(
                  BaseRing("Z"), ["x", "x_s"], [{(0, 1): 1}, {(1, 0): 1}]).omega, 2, 4), 2)):
        data = mackey_to_json(M)
        M2 = parse_mackey(json.loads(json.dumps(data)))
        assert fingerprint(M2) == fingerprint(M)
        assert mackey_to_json(M2) == data


def test_mackey_show_golden():
    code, out = run_cli(["mackey-show", "--input", ZBAR_JSON])
    assert code == 0
    assert out == ("C2-level : Z\n"
                   "e-level  : Z\n"
                   "res   = [[1]]\n"
                   "tr    = [[2]]\n"
                   "sigma = [[1]]\n")
    code, out = run_cli(["mackey-show", "--input", ZSIGN_JSON])
    assert code == 0
    assert out.splitlines()[0] == "C2-level : 0"
    assert out.splitlines()[1] == "e-level  : Z"
    assert "sigma = [[-1]]" in out


def test_mackey_show_invalid_diagram_exits_1():
    bad = '{"fixed": [0], "underlying": [0], "res": [[1]], "tr": [[3]], "sigma": [[1]]}'
    code, _ = run_cli(["mackey-show", "--input", bad])
    assert code == 1


def test_box_and_phi():
    code, out = run_cli(["phi", "--input", ZBAR_JSON])
    assert code == 0
    assert out.strip() == "Phi = Z/2"
    code, out = run_cli(["box", "--left", ZBAR_JSON, "--right", ZBAR_JSON,
                         "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["fixed"] == [0] and data["underlying"] == [0]


def test_slice_check_golden():
    job = '{"kind": "sigma-sphere", "k": -1}'
    code, out = run_cli(["slice-check", "--complex", job, "--n", "-1"])
    assert code == 0
    assert out.strip() == "regular-slice (-1)-connective: true"
    code, out = run_cli(["slice-check", "--complex", job, "--n", "0"])
    assert out.strip() == "regular-slice (0)-connective: false"


def test_slice_check_large_sign_spheres():
    # S^{k sigma} is regular-slice n-connective iff n <= min(k, 0)
    t0 = time.monotonic()
    for k in (40, -40):
        job = json.dumps({"kind": "sigma-sphere", "k": k})
        for n in (k, k + 1):
            verdict = "true" if n <= min(k, 0) else "false"
            assert run_cli(["slice-check", "--complex", job, "--n", str(n)]) == \
                (0, "regular-slice (%d)-connective: %s\n" % (n, verdict))
    assert time.monotonic() - t0 < 2.0


def test_slice_check_explicit_complex():
    job = json.dumps({
        "kind": "complex",
        "terms": {"1": ["ZbarC2"], "0": ["Zbar"]},
        "diffs": {"1": {"fixed": [[2]], "underlying": [[1, 1]]}},
    })
    code, out = run_cli(["slice-check", "--complex", job, "--n", "0"])
    assert code == 0
    assert out.strip() == "regular-slice (0)-connective: true"


# a dense 7 x 7 matrix of Smith form diag(1, 1, 1, 1, 1, 1, 16212170), and
# the complex of seven Zbar cells in degrees 0 and 1 it joins on both levels
DENSE_7X7 = [[2, 6, -9, 6, -8, 0, 9], [9, 3, -4, -4, 7, -2, -9], [-3, 8, 8, -2, 3, 7, 2],
             [9, 2, 5, -1, 8, -9, 3], [7, -5, 7, 8, -3, 4, -8], [6, 2, 9, 8, -3, 7, 4],
             [6, 2, 4, 2, -9, 8, 8]]
DENSE_7X7_COMPLEX_JSON = json.dumps(
    {"kind": "complex", "terms": {"0": ["Zbar"] * 7, "1": ["Zbar"] * 7},
     "diffs": {"1": {"fixed": DENSE_7X7, "underlying": DENSE_7X7}}})


def test_slice_check_of_a_dense_full_rank_differential_returns_at_once():
    # the kernel of the dense 7 x 7 matrix is 0, so H_1 = 0.  The min-pivot
    # Smith form with transforms blows up on this matrix; the kernel is read
    # from the Hermite form.
    assert integer_kernel(DENSE_7X7, 7) == []
    t0 = time.monotonic()
    assert run_cli(["slice-check", "--complex", DENSE_7X7_COMPLEX_JSON, "--n", "0",
                    "--coconnective"]) == \
        (0, "regular-slice (0)-coconnective: passes-necessary-conditions\n")
    assert time.monotonic() - t0 < 1.0


def test_a_large_power_in_sigma_returns_at_once():
    # (1)^100000000 is raised by squaring, not by 10^8 multiplications
    algebra = '{"base": "Q", "gens": [{"name": "x", "sigma": "(1)^100000000 * x"}]}'
    t0 = time.monotonic()
    assert run_cli(["cotangent", "--algebra", algebra]) == \
        (0, "cotangent generators: dx\nreduced generators: dx\n")
    assert time.monotonic() - t0 < 1.0


def test_slice_check_refuses_an_explicit_complex_that_is_not_one(capsys):
    # fixed x1 with underlying x2 breaks res o d = d o res: Zbar -> Zbar is
    # not a Mackey map; three Zbar cells joined by identities have d o d = 1.
    # A matrix of the wrong shape is a parse error, read before any map is
    # checked; ZbarC2 -> Zbar needs an even fixed entry; the identity of
    # ZbarC2 then the fold has d o d != 0; and a bad map at the degree
    # whose d o d != 0 is refused as the bad map, each degree of "diffs"
    # checked in turn
    one = {"fixed": [[1]], "underlying": [[1]]}
    minus = {"fixed": [[0]], "underlying": [[1, -1], [-1, 1]]}
    zbar3 = {"0": ["Zbar"], "1": ["Zbar"], "2": ["Zbar"]}
    for complex_json, code, err in (
            ({"kind": "complex", "terms": {"0": ["Zbar"], "1": ["Zbar"]},
              "diffs": {"1": {"fixed": [[1]], "underlying": [[2]]}}},
             1, "error: differential at degree 1 is not a Mackey map"),
            ({"kind": "complex", "terms": zbar3, "diffs": {"1": one, "2": one}},
             1, "error: d o d != 0 at degree 2"),
            ({"kind": "complex", "terms": {"0": ["Zbar"], "1": ["ZbarC2"]},
              "diffs": {"1": {"fixed": [[2], [2]], "underlying": [[1, 1]]}}},
             2, "parse error: malformed differential at 1: matrix has 2 rows, target has 1 "
                "generators"),
            ({"kind": "complex", "terms": {"0": ["Zbar"], "1": ["ZbarC2"]},
              "diffs": {"1": {"fixed": [[3]], "underlying": [[1, 1]]}}},
             1, "error: differential at degree 1 is not a Mackey map"),
            ({"kind": "complex", "terms": {"0": ["Zbar"], "1": ["ZbarC2"], "2": ["ZbarC2"]},
              "diffs": {"1": {"fixed": [[2]], "underlying": [[1, 1]]},
                        "2": {"fixed": [[1]], "underlying": [[1, 0], [0, 1]]}}},
             1, "error: d o d != 0 at degree 2"),
            ({"kind": "complex", "terms": zbar3,
              "diffs": {"1": one, "2": {"fixed": [[1]], "underlying": [[2]]}}},
             1, "error: differential at degree 2 is not a Mackey map"),
            # res fails where tr holds, tr fails where res holds, and 1 - sigma
            # twice, whose d o d is 0 on the fixed level alone
            ({"kind": "complex", "terms": {"0": ["ZbarC2"], "1": ["Zbar"]},
              "diffs": {"1": {"fixed": [[1]], "underlying": [[0], [2]]}}},
             1, "error: differential at degree 1 is not a Mackey map"),
            ({"kind": "complex", "terms": {"0": ["ZbarC2"], "1": ["ZbarC2"]},
              "diffs": {"1": {"fixed": [[1]], "underlying": [[2, -1], [0, 1]]}}},
             1, "error: differential at degree 1 is not a Mackey map"),
            ({"kind": "complex", "terms": {"0": ["ZbarC2"], "1": ["ZbarC2"], "2": ["ZbarC2"]},
              "diffs": {"1": minus, "2": minus}},
             1, "error: d o d != 0 at degree 2")):
        argv = ["slice-check", "--complex", json.dumps(complex_json), "--n", "0"]
        assert run_cli(argv) == (code, ""), err
        assert capsys.readouterr().err == err + "\n"


def test_tambara_free_command():
    code, out = run_cli(["tambara-free", "--kind", "free", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["cohomological"] is True
    assert all(r["holds"] for r in data["t_relations"])
    # --trunc T bounds the t_i listed (i <= T) and the relations checked
    # (j <= i <= min(4, T // 2)); the ring itself is not truncated
    for base in ("Z", "Q", "Z/6"):
        for trunc in (0, 1, 2, 3, 12):
            argv = ["tambara-free", "--base", base, "--trunc", str(trunc), "--format", "json"]
            want = {"base": base, "cohomological": True, "truncation": trunc}
            code, out = run_cli(argv + ["--kind", "trivial", "--names", "x,y"])
            assert code == 0
            assert json.loads(out) == dict(want, kind="trivial", underlying=["x", "y"],
                                           fixed_generators=["x", "y"])
            code, out = run_cli(argv + ["--kind", "free"])
            assert code == 0
            assert json.loads(out) == dict(
                want, kind="free", underlying=["x", "x_s"],
                fixed_generators=sorted(["t_%d" % i for i in range(1, trunc + 1)] + ["x_N"]),
                t_relations=[{"holds": True, "i": i, "j": j}
                             for i in range(1, min(4, trunc // 2) + 1) for j in range(1, i + 1)])


def test_tambara_free_multiplies_linearly_in_the_truncation(monkeypatch):
    # sigma applies through the power tables the involution keeps, so
    # sigma(t_i) reads x_s^i from its table instead of making i products
    calls = [0]
    real = PolyRing.mul

    def counting_mul(self, a, b):
        calls[0] += 1
        return real(self, a, b)

    monkeypatch.setattr(PolyRing, "mul", counting_mul)
    code, out = run_cli(["tambara-free", "--kind", "free", "--trunc", "400", "--format", "json"])
    assert code == 0 and json.loads(out)["cohomological"] is True
    assert calls[0] <= 20 * 400
    monkeypatch.undo()
    t0 = time.monotonic()
    code, out = run_cli(["tambara-free", "--kind", "free", "--trunc", "1000", "--format", "json"])
    assert code == 0 and json.loads(out)["truncation"] == 1000
    assert time.monotonic() - t0 < 1.0


def test_tambara_free_names_are_distinct_variable_names(capsys):
    code, out = run_cli(["tambara-free", "--kind", "trivial", "--names", "x,y"])
    assert code == 0 and "underlying generators: x, y" in out
    for names in ("x,x", "1", ",", "x y", ""):
        code, out = run_cli(["tambara-free", "--kind", "trivial", "--names", names])
        assert (code, out) == (2, ""), names
        assert capsys.readouterr().err.startswith("parse error: --names: "), names
    # the free kind has its own generators x, x_s: names are refused, not dropped
    assert run_cli(["tambara-free", "--kind", "free", "--names", "a,b"]) == (2, "")
    assert "--names" in capsys.readouterr().err


def test_hh_command():
    code, out = run_cli(["hh", "--algebra", QX_JSON, "--nmax", "3",
                         "--weight", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["rows"][0]["hh"] == [0]
    assert data["rows"][1]["hh"] == [0]
    assert data["rows"][2]["hh"] == []


def test_hh_builds_one_complex_without_omega_or_B(monkeypatch):
    builds, lazy = [], []
    init = tr.DihedralComplex.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(tr.DihedralComplex, "__init__", counting_init)
    for name in ("_omega_terms", "_B_terms"):
        monkeypatch.setattr(tr.DihedralComplex, name, lambda self, t: lazy.append(t) or ())
    code, out = run_cli(["hh", "--algebra", CUSP_JSON, "--weight", "6", "--nmax", "3"])
    assert code == 0 and out.count("HH_") == 4
    assert len(builds) == 1 and not lazy


def test_jobs_over_z_with_a_core_of_rows_print_the_same_bytes(monkeypatch):
    # cores that are not sums of cyclic groups: their ranks are read by
    # elimination, their divisors (over Z, and their odd part over Z[1/2])
    # from abelian.  The lines are those printed when the rank was the
    # Hermite row count.
    eliminated = []
    rank = chains._elimination_rank
    monkeypatch.setattr(chains, "_elimination_rank",
                        lambda rows: eliminated.append(rows) or rank(rows))
    for base in ("Z", "Z[1/2]"):
        cusp = CUSP_JSON.replace('"Q"', '"%s"' % base)
        assert run_cli(["hh", "--algebra", cusp, "--weight", "9", "--nmax", "3"]) == \
            (0, "HH_0 = Z\nHH_1 = Z\nHH_2 = Z/3\nHH_3 = 0\n")
        assert run_cli(["hh", "--algebra", cusp, "--weight", "6", "--nmax", "2"]) == \
            (0, "HH_0 = Z\nHH_1 = Z\nHH_2 = 0\n")
    assert eliminated
    eliminated.clear()
    # H_0 of the dense 7 x 7 complex is Z/16212170 on the underlying level
    assert run_cli(["slice-check", "--complex", DENSE_7X7_COMPLEX_JSON, "--n", "2",
                    "--format", "json"]) == (0, '{"connective":false,"n":2}\n')
    assert eliminated


def test_hh_builds_one_complex_per_sigma_orbit_of_blocks(monkeypatch):
    # the bar-complex route of hh: Q[x, x_s] at weight 5 has 6 exponent
    # vectors, paired by sigma into 3 orbits; omega and B are never built.
    # The hh command reads this rule-free algebra from the small complex of
    # koszul, which prints the same lines.
    builds, lazy = [], []
    init = tr.DihedralComplex.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(kwargs.get("key"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(tr.DihedralComplex, "__init__", counting_init)
    for name in ("_omega_terms", "_B_terms"):
        monkeypatch.setattr(tr.DihedralComplex, name, lambda self, t: lazy.append(t) or ())
    algebra = KXXS_JSON.replace('"Z"', '"Q"')
    A = tr.InvolutiveAlgebra(parse_algebra(json.loads(algebra)))
    groups = hh_groups(tr.hochschild_blocks(A, 4, 5), range(4))
    assert [G.invariant_factors() for G in groups[:3]] == [(0,) * 6, (0,) * 10, (0,) * 4]
    assert builds == [(0, 5), (1, 4), (2, 3)] and not lazy
    code, out = run_cli(["hh", "--algebra", algebra, "--weight", "5", "--nmax", "3"])
    assert code == 0 and out.splitlines()[:3] == ["HH_0 = " + " + ".join(["Z"] * 6),
                                                  "HH_1 = " + " + ".join(["Z"] * 10),
                                                  "HH_2 = " + " + ".join(["Z"] * 4)]
    assert len(builds) == 3


def test_hh_multiplies_each_pair_of_monomials_once(monkeypatch):
    # b reads each product of two basis monomials from the algebra's memo
    # table, filled by one ring.mul per pair; hh builds no omega, so no
    # sigma-image is ever computed.  The rule y^2 = x^3 sends hh to the bar
    # complex; the products taken while parsing it are not counted.
    algebras, pairs = [], []
    init, mul = tr.InvolutiveAlgebra.__init__, PolyRing.mul

    def recording_init(self, *args):
        algebras.append(self)
        pairs.clear()
        init(self, *args)

    def recording_mul(self, a, b):
        pairs.append((tuple(a.items()), tuple(b.items())))
        return mul(self, a, b)
    monkeypatch.setattr(tr.InvolutiveAlgebra, "__init__", recording_init)
    monkeypatch.setattr(PolyRing, "mul", recording_mul)
    code, _ = run_cli(["hh", "--algebra", CUSP_JSON, "--weight", "6", "--nmax", "3"])
    assert code == 0 and len(algebras) == 1
    assert pairs and len(set(pairs)) == len(pairs)
    assert len(algebras[0]._products) == len(pairs) and not algebras[0]._images


def _hh_rows(algebra, *opts):
    code, out = run_cli(["hh", "--algebra", algebra, "--format", "json", *opts])
    assert code == 0
    return [r["hh"] for r in json.loads(out)["rows"]]


DUAL_JSON = '{"base": "%s", "gens": [{"name": "x", "sigma": "%s"}], "rels": ["x^2"]}'


def test_a_leading_minus_negates_the_whole_power():
    # Q[x]/(x - 1)^2 is the dual numbers however its relation is signed;
    # reading -x^2 as x^2 made it Q[x]/(x^2 + 2x - 1), a product of fields
    algebra = '{"base": "Q", "gens": [{"name": "x"}], "rels": ["%s"]}'
    rows = [_hh_rows(algebra % rel, "--nmax", "2") for rel in ("-x^2 + 2x - 1", "x^2 - 2x + 1")]
    assert rows[0] == rows[1] == [[0, 0], [0], [0]]


def test_hh_over_the_base_ring():
    # HH of a field is the field; HH of k[x]/x^2 from its 2-periodic
    # resolution: HH_0 = A, HH_odd = A/(2x), HH_even>0 = Ann(2x)
    assert _hh_rows('{"base": "Z/3", "gens": [], "rels": []}', "--nmax", "2") == [[3], [], []]
    assert _hh_rows(DUAL_JSON % ("Z/2", "x"), "--nmax", "3") == [[2, 2]] * 4
    assert _hh_rows(DUAL_JSON % ("Q", "x"), "--nmax", "3") == [[0, 0], [0], [0], [0]]
    # over Z, HH_1 = Z/2 + Z; Z[1/2] inverts the 2
    assert _hh_rows(DUAL_JSON % ("Z", "x"), "--nmax", "1")[1] == [2, 0]
    assert _hh_rows(DUAL_JSON % ("Z[1/2]", "x"), "--nmax", "1")[1] == [0]


def test_hh_free_involutive_over_odd_primes():
    # HKR: HH_n of F_p[x, x_s] at weight w is (Z/p)^r, r the rank over Q
    for p in (3, 5):
        algebra = KXXS_JSON.replace('"Z"', '"Z/%d"' % p)
        for w, ranks in ((2, (3, 4, 1)), (3, (4, 6, 2))):
            rows = _hh_rows(algebra, "--weight", str(w), "--nmax", "2")
            assert rows == [[p] * r for r in ranks], (p, w)


def test_dihedral_splits_over_finite_fields():
    for base in ("Z/3", "Z/5"):
        code, out = run_cli(["dihedral", "--algebra", DUAL_JSON % (base, "-x"),
                             "--nmax", "3", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["hc"][0] == 2, base
        assert [a + b for a, b in zip(data["hd"], data["hd_prime"])] == data["hc"], base


def test_dihedral_golden_when_a_part_is_not_free():
    # sigma(x) = 4x on Z/15[x]/x^2: the + part of H_0 is Z/15 + Z/3, so the
    # free ranks over Z/15 of HD and HD' need not add up to that of HC
    code, out = run_cli(["dihedral", "--algebra", DUAL_JSON % ("Z/15", "4*x"), "--nmax", "2"])
    assert code == 0
    assert out.splitlines() == ["n=0: HC=2 HD=1 HD'=0", "n=1: HC=0 HD=0 HD'=0",
                                "n=2: HC=2 HD=0 HD'=1"]


XY2_JSON = ('{"base": "%s", "gens": [{"name": "x", "sigma": "x"}, {"name": "y", "sigma": "y"}], '
            '"rels": ["x^2", "y^2"]}')


def test_hh_torsion_golden():
    # Z[x, y]/(x^2, y^2) at weight 4: the 2-torsion over Z, and none over
    # Z[1/2]; the torsion is read from the elementary divisors of b
    def hh_lines(base):
        code, out = run_cli(["hh", "--algebra", XY2_JSON % base, "--weight", "4", "--nmax", "4"])
        assert code == 0
        return out.splitlines()
    assert hh_lines("Z") == ["HH_0 = 0", "HH_1 = 0", "HH_2 = Z/2 + Z + Z",
                             "HH_3 = Z/2 + Z/2 + Z/2 + Z + Z + Z + Z", "HH_4 = Z + Z"]
    assert hh_lines("Z[1/2]") == ["HH_0 = 0", "HH_1 = 0", "HH_2 = Z + Z",
                                  "HH_3 = Z + Z + Z + Z", "HH_4 = Z + Z"]


X3_JSON = '{"base": "%s", "gens": [{"name": "x"}], "rels": ["%s"]}'


def test_hh_golden_over_z_mod_m_where_the_lift_of_b_is_a_complex_only_mod_m():
    # the rules x^3 = 2x^2, 3x^2 + 2 and 2x^2 + x lift b to integer columns
    # with b o b = 0 only mod m, so invariants reads (b o b) / m as well
    cases = {
        ("Z/3", "x^3 - 2*x^2"): ["Z/3 + Z/3 + Z/3"] + ["Z/3"] * 4,
        ("Z/9", "x^3 - 3*x^2 - 2"): ["Z/9 + Z/9 + Z/9"] + ["Z/3 + Z/3 + Z/9"] * 4,
        ("Z/4", "x^3 - 2*x^2 - x"): ["Z/4 + Z/4 + Z/4"] + ["Z/2 + Z/4"] * 4,
    }
    for (base, rel), groups in cases.items():
        A = tr.InvolutiveAlgebra(parse_algebra(json.loads(X3_JSON % (base, rel))))
        (C,) = tr.hochschild_blocks(A, 5)
        lift = ChainComplex(tr.hochschild_chains(C).dims, C.b)
        with pytest.raises(NotAComplex):
            [lift.invariants(n) for n in range(5)]
        code, out = run_cli(["hh", "--algebra", X3_JSON % (base, rel), "--nmax", "4"])
        assert code == 0
        assert out.splitlines() == ["HH_%d = %s" % (n, g) for n, g in enumerate(groups)], base


def test_a_leading_minus_one_over_z_mod_m_is_monic():
    # over Z/m the coefficient -1 is stored as m - 1: -x^3 + 1 is the
    # relation x^3 - 1, as over Z and Q
    for base in ("Z/5", "Z/9"):
        answers = [run_cli(["hh", "--algebra", X3_JSON % (base, rel), "--nmax", "3"])
                   for rel in ("-x^3 + 1", "x^3 - 1")]
        assert answers[0] == answers[1] and answers[0][0] == 0, base


SIGMA_X_MINUS_Y_JSON = ('{"base": "%s", "gens": [{"name": "x", "sigma": "x"}, '
                        '{"name": "y", "sigma": "x - y"}]}')
# dihedral of Q[x, x_s] with sigma swapping the variables, at --weight 6 --nmax 2
SWAP_W6_ANSWER = "n=0: HC=7 HD=4 HD'=3\nn=1: HC=5 HD=3 HD'=2\nn=2: HC=0 HD=0 HD'=0\n"


def test_dihedral_of_a_sigma_that_is_no_signed_permutation_returns_at_once():
    # sigma(y) = x - y swaps y and x - y, so HC, HD and HD' are those of the
    # swap on Q[x, x_s]; its one block has a unit-free core on which the
    # min-pivot Smith form ran past 60 s
    argv = ["dihedral", "--algebra", SIGMA_X_MINUS_Y_JSON % "Q", "--weight", "6", "--nmax", "2"]
    t0 = time.monotonic()
    assert run_cli(argv) == (0, SWAP_W6_ANSWER)
    assert time.monotonic() - t0 < 2.0
    assert run_cli(["dihedral", "--algebra", KXXS_JSON.replace('"Z"', '"Q"'),
                    "--weight", "6", "--nmax", "2"]) == (0, SWAP_W6_ANSWER)


def test_hh_and_dihedral_over_q_run_no_smith_form(monkeypatch):
    # over Q only ranks are read, and a rank reads no Smith form
    import c2algebra.abelian as ab
    free = KXXS_JSON.replace('"Z"', '"Q"')
    argvs = [["hh", "--algebra", free, "--weight", "5", "--nmax", "5"],
             ["dihedral", "--algebra", free, "--weight", "5", "--nmax", "5"],
             ["dihedral", "--algebra", SIGMA_X_MINUS_Y_JSON % "Q", "--weight", "6", "--nmax", "2"]]

    def refuse(A):
        raise AssertionError("smith_normal_form(%r)" % (A,))
    monkeypatch.setattr(ab, "smith_normal_form", refuse)
    answers = [run_cli(argv) for argv in argvs]
    monkeypatch.undo()
    assert answers == [run_cli(argv) for argv in argvs]
    assert answers[0][1].count("HH_") == 6 and answers[1][1].count("HC=") == 6
    assert answers[2] == (0, SWAP_W6_ANSWER)


def test_the_smith_form_reads_only_hermite_forms(monkeypatch):
    # every Smith form the commands take is of a group's Hermite relations
    import c2algebra.abelian as ab
    real, seen = ab.smith_normal_form, []

    def hermite_only(A):
        assert A == ab.hermite_normal_form(A), A
        seen.append(A)
        return real(A)
    argvs = [["hh", "--algebra", XY2_JSON % "Z", "--weight", "4", "--nmax", "4"],
             ["hh", "--algebra", X3_JSON % ("Z/9", "x^3 - 3*x^2 - 2"), "--nmax", "3"],
             ["dihedral", "--algebra", SIGMA_X_MINUS_Y_JSON % "Z[1/2]", "--weight", "4",
              "--nmax", "2"],
             ["dihedral", "--algebra", DUAL_JSON % ("Z/15", "4*x"), "--nmax", "2"],
             ["dihedral", "--algebra", DUAL_JSON % ("Z/9", "-x"), "--nmax", "3"],
             ["derham", "--algebra", KX_JSON, "--imax", "1", "--maxweight", "6"],
             ["derham", "--algebra", KXXS_JSON.replace('"Z"', '"Z[1/2]"'), "--maxweight", "4"],
             ["derham", "--algebra", KX_JSON.replace('"Z"', '"Z/9"'), "--maxweight", "4"],
             ["hr-gr", "--algebra", KXXS_JSON, "--i", "2", "--weight", "4"],
             ["slice-check", "--complex", '{"kind": "sigma-sphere", "k": 3}', "--n", "3"],
             ["slice-check", "--complex", DENSE_7X7_COMPLEX_JSON, "--n", "0", "--coconnective"]]
    monkeypatch.setattr(ab, "smith_normal_form", hermite_only)
    answers = [run_cli(argv) for argv in argvs]
    monkeypatch.undo()
    assert answers == [run_cli(argv) for argv in argvs]
    assert all(code == 0 for code, _ in answers)
    assert any(not A == ab.identity(len(A)) for A in seen)


def test_dihedral_over_z_mod_15_is_the_smaller_of_its_prime_parts():
    # the Smith form of its 7 x 19 Hermite input grew entries past 80,000
    # bits before invariant factors were read mod delta; over Z/15 = Z/3 x Z/5
    # a free rank is the smaller of the two ranks
    algebra = ('{"base": "%s", "gens": [{"name": "x", "sigma": "x"}], '
               '"rels": ["x^4 + 3*x^3 + 2*x^2 + 3"]}')
    t0 = time.monotonic()
    code, out = run_cli(["dihedral", "--algebra", algebra % "Z/15", "--nmax", "2",
                         "--format", "json"])
    assert code == 0 and time.monotonic() - t0 < 10.0
    got = json.loads(out)
    parts = [json.loads(run_cli(["dihedral", "--algebra", algebra % b, "--nmax", "2",
                                 "--format", "json"])[1]) for b in ("Z/3", "Z/5")]
    assert got["hc"] == [min(a, b) for a, b in zip(parts[0]["hc"], parts[1]["hc"])]
    assert [a + b for a, b in zip(got["hd"], got["hd_prime"])] == got["hc"] == [4, 0, 4]


def test_hh_derham_and_dihedral_over_z_mod_m_build_no_homology(monkeypatch):
    import c2algebra.mackey as ab
    built = []
    real = ab.Homology.__init__
    monkeypatch.setattr(ab.Homology, "__init__",
                        lambda self, *args: built.append(args) or real(self, *args))
    finite = '{"base": "Z/%d", "gens": [{"name": "x", "sigma": "-x"}], "rels": ["x^3"]}'
    for argv in (["hh", "--algebra", finite % 3, "--nmax", "3"],
                 ["hh", "--algebra", X3_JSON % ("Z/4", "x^3 - 2*x^2 - x"), "--nmax", "2"],
                 ["dihedral", "--algebra", finite % 9, "--nmax", "3"],
                 ["derham", "--algebra", KX_JSON.replace('"Z"', '"Z/3"'), "--imax", "1",
                  "--maxweight", "3"]):
        code, _ = run_cli(argv)
        assert (code, built) == (0, []), argv


def test_hh_graded_needs_weight():
    code, _ = run_cli(["hh", "--algebra", QX_JSON, "--nmax", "2"])
    assert code == 1


def test_weight_needs_a_homogeneous_presentation(capsys):
    # x^2 - x^3 becomes the rule x^3 -> x^2, and x^3 - x the rule x^3 -> x:
    # neither ring is graded, so it has no weight blocks
    cases = [
        (["hh", "--nmax", "2", "--weight", "2"], "Z", "x", "x^2 - x^3", "x^3 = x^2"),
        (["dihedral", "--weight", "1"], "Q", "-x", "x^3 - x", "x^3 = x"),
        (["dihedral", "--weight", "1"], "Q", "1 - x", None, "sigma(x) = 1 - x"),
    ]
    for argv, base, sigma, rel, named in cases:
        algebra = json.dumps({"base": base, "gens": [{"name": "x", "sigma": sigma}],
                              "rels": [rel] if rel else []})
        code, out = run_cli(argv + ["--algebra", algebra])
        assert code == 1 and out == "", argv
        assert named in capsys.readouterr().err
    # the graded quotient k[x]/x^2 keeps its weight blocks
    code, _ = run_cli(["hh", "--algebra", DUAL_JSON % ("Q", "-x"), "--nmax", "2",
                       "--weight", "2"])
    assert code == 0


def test_dihedral_command_golden():
    code, out = run_cli(["dihedral", "--algebra", Q_JSON, "--nmax", "4",
                         "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"hc": [1, 0, 1, 0, 1], "hd": [1, 0, 0, 0, 1],
                               "hd_prime": [0, 0, 1, 0, 0]}
    code, out = run_cli(["dihedral", "--algebra", Q_JSON, "--nmax", "4"])
    assert out.splitlines()[0] == "n=0: HC=1 HD=1 HD'=0"


def test_hr_gr_command():
    code, out = run_cli(["hr-gr", "--algebra", KX_JSON, "--i", "1",
                         "--weight", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    (block,) = data["blocks"]
    # Sigma^sigma k[x] at weight 2: zsign in degree 1, (Z/2, 0) in degree 0
    assert block["homology"]["1"]["underlying"] == [0]
    assert block["homology"]["1"]["fixed"] == []
    assert block["homology"]["0"]["fixed"] == [2]


def test_hr_gr_refuses_a_base_other_than_z(capsys):
    # Mackey homology is taken over Z; over Q, Z[1/2] and Z/3 the answer
    # over Z used to be printed
    for base in ("Q", "Z[1/2]", "Z/3"):
        algebra = KX_JSON.replace('"Z"', '"%s"' % base)
        code, out = run_cli(["hr-gr", "--algebra", algebra, "--i", "1", "--weight", "2"])
        assert (code, out) == (1, ""), base
        assert base in capsys.readouterr().err, base


def test_hr_gr_weights_past_the_truncation_and_weighted_generators():
    # gr^0 of k[x] is k[x] at every weight, not only up to the truncation 8
    assert run_cli(["hr-gr", "--algebra", KX_JSON, "--i", "0", "--weight", "9"]) == (
        0, "gr^0 HR of the trivial algebra\nweight 9:\n  H_0: Z / Z\n")
    # x of weight 2: k[x] is 0 at weight 1 and Z x at weight 2
    weighted = KX_JSON[:-1] + ', "weights": {"x": 2}}'
    assert run_cli(["hr-gr", "--algebra", weighted, "--i", "0", "--weight", "1"]) == (
        0, "gr^0 HR of the trivial algebra\nweight 1:\n  0\n")
    assert run_cli(["hr-gr", "--algebra", weighted, "--i", "0", "--weight", "2"]) == (
        0, "gr^0 HR of the trivial algebra\nweight 2:\n  H_0: Z / Z\n")


ZBAR_C2_JSON = ('{"fixed": [0], "underlying": [0, 0], "res": [[1], [1]], '
                '"tr": [[1, 1]], "sigma": [[0, 1], [1, 0]]}')
BURNSIDE_JSON = ('{"fixed": [0, 0], "underlying": [0], "res": [[1, 2]], '
                 '"tr": [[0], [1]], "sigma": [[1]]}')
Z2_CONST_JSON = ('{"fixed": [2], "underlying": [2], "res": [[1]], "tr": [[0]], '
                 '"sigma": [[1]]}')
ZBAR_PLUS_SIGN_JSON = ('{"fixed": [0], "underlying": [0, 0], "res": [[1], [0]], '
                       '"tr": [[2, 0]], "sigma": [[1, 0], [0, -1]]}')


def test_basis_dependent_output_golden():
    # res, tr and sigma are written in the canonical bases, which come from
    # the V of the Smith normal form: any change to the SNF shows here
    code, out = run_cli(["hr-gr", "--algebra", KXXS_JSON, "--i", "2", "--weight", "4",
                         "--format", "json"])
    assert code == 0
    assert out == (
        '{"algebra":"free","blocks":[{"homology":{"1":{"fixed":[2],"res":[],"sigma":[],'
        '"tr":[[]],"underlying":[]},"2":{"fixed":[0],"res":[[-1],[0],[1]],'
        '"sigma":[[0,0,-1],[0,-1,0],[-1,0,0]],"tr":[[-1,0,1]],"underlying":[0,0,0]}},'
        '"weight":4}],"i":2}\n')
    code, out = run_cli(["box", "--left", ZBAR_C2_JSON, "--right", BURNSIDE_JSON,
                         "--format", "json"])
    assert code == 0
    assert out == ('{"fixed":[0],"res":[[1],[1]],"sigma":[[0,1],[1,0]],"tr":[[1,1]],'
                   '"underlying":[0,0]}\n')
    # constant Z/2 boxed with Z + Z_-: a fixed level with relations
    code, out = run_cli(["box", "--left", Z2_CONST_JSON, "--right", ZBAR_PLUS_SIGN_JSON,
                         "--format", "json"])
    assert code == 0
    assert out == ('{"fixed":[2],"res":[[1],[0]],"sigma":[[1,0],[0,1]],"tr":[[0,0]],'
                   '"underlying":[2,2]}\n')


def test_a_printed_group_is_factored_once(monkeypatch):
    # its canonical basis takes the exact Smith form, whose diagonal gives
    # the invariant factors too: no smith_orders of the same relations
    import c2algebra.abelian as ab
    factored = []
    real_orders, real_smith = ab.smith_orders, ab.smith_normal_form
    monkeypatch.setattr(ab, "smith_orders", lambda R, n: factored.append(R) or real_orders(R, n))
    monkeypatch.setattr(ab, "smith_normal_form", lambda A: factored.append(A) or real_smith(A))
    kxy = ('{"base": "Z", "gens": [{"name": "x", "sigma": "x_s"}, {"name": "x_s", "sigma": "x"}, '
           '{"name": "y", "sigma": "-y"}]}')
    for argv in (["hr-gr", "--algebra", KXXS_JSON, "--i", "2", "--weight", "4"],
                 ["hr-gr", "--algebra", kxy, "--i", "2"],
                 ["box", "--left", Z2_CONST_JSON, "--right", ZBAR_PLUS_SIGN_JSON]):
        factored.clear()
        assert run_cli(argv + ["--format", "json"])[0] == 0
        ids = [id(R) for R in factored]
        assert ids and len(set(ids)) == len(ids), argv


def test_cotangent_command_hyperelliptic():
    code, out = run_cli(["cotangent", "--algebra", HYPER_JSON, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["generators"] == ["dy", "dy_s", "dx"]
    dw = data["relations"]["dw"]
    assert dw["dy_s"] == "-y"
    assert dw["dy"] == "y"
    assert dw["dx"] == "-3*x^2"
    assert data["reduced_generators"] == ["dy", "dx"]


def test_cotangent_hyperelliptic_over_the_base_ring():
    # y^2 = x^3 - 1 over Z/3: the -3x^2 dx term of dw vanishes
    algebra = HYPER_Z_JSON.replace('"Z"', '"Z/3"')
    code, out = run_cli(["cotangent", "--algebra", algebra, "--format", "json"])
    assert code == 0
    assert json.loads(out)["reduced_relations"] == [{"dy": "2*y"}]


def test_cotangent_command_free():
    code, out = run_cli(["cotangent", "--algebra", KXXS_JSON, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["generators"] == ["dx", "dx_s"]
    assert data["sigma"]["dx"] == "(1)dx_s"


def test_one_route_from_an_algebra_to_its_cotangent_module(monkeypatch):
    """cotangent, derham and hr-gr build no Tambara presentation and check
    no Tambara axiom; tambara-free checks its presentation once."""
    from c2algebra import tambara as tb
    calls = {"validate_tambara": 0, "TambaraPresentation": 0}
    validate, init = tb.validate_tambara, tb.TambaraPresentation.__init__

    def counted_validate(*args, **kwargs):
        calls["validate_tambara"] += 1
        return validate(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        calls["TambaraPresentation"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(tb, "validate_tambara", counted_validate)
    monkeypatch.setattr(tb.TambaraPresentation, "__init__", counted_init)
    for argv in (["cotangent", "--algebra", KXXS_JSON],
                 ["derham", "--algebra", KXXS_JSON],
                 ["hr-gr", "--algebra", KXXS_JSON, "--i", "1", "--weight", "3"]):
        assert run_cli(argv)[0] == 0, argv
        assert calls == {"validate_tambara": 0, "TambaraPresentation": 0}, argv
    assert run_cli(["tambara-free", "--kind", "free"])[0] == 0
    assert calls == {"validate_tambara": 1, "TambaraPresentation": 1}


def test_derham_command():
    code, out = run_cli(["derham", "--algebra", QX_JSON, "--imax", "1",
                         "--maxweight", "3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["table"]["0"]["0"]["h"] == [0]
    for w in ("1", "2", "3"):
        assert data["table"][w]["0"]["h"] == []
        assert data["table"][w]["1"]["h"] == []


def test_derham_over_the_base_ring():
    # d x^w = w x^(w-1) dx, so H^1 at weight w is the base modulo w
    def h1(base, maxweight, sigma="x"):
        algebra = KX_JSON.replace('"Z"', '"%s"' % base).replace('"sigma": "x"',
                                                                '"sigma": "%s"' % sigma)
        code, out = run_cli(["derham", "--algebra", algebra,
                             "--imax", "1", "--maxweight", str(maxweight), "--format", "json"])
        assert code == 0
        table = json.loads(out)["table"]
        return [table[str(w)]["1"]["h"] for w in range(2, maxweight + 1)]
    assert h1("Z/3", 3) == [[], [3]]
    # sigma(x) = -x is lifted as m - 1; the checks compare mod m
    assert h1("Z/3", 3, "-x") == [[], [3]]
    # Z[1/2] drops only the 2-primary torsion of Z/w
    assert h1("Z[1/2]", 4) == [[], [3], []]


def test_derham_top_degree_is_cohomology():
    # H^imax is ker d / im d, not Omega^imax / im d: the --imax k table is
    # the first k + 1 degrees of the --imax k + 1 table
    def table(algebra, imax):
        code, out = run_cli(["derham", "--algebra", algebra, "--imax", str(imax),
                             "--maxweight", "3", "--format", "json"])
        assert code == 0
        return json.loads(out)["table"]

    for base in ("Z", "Q", "Z[1/2]", "Z/3", "Z/9"):
        for algebra in (KX_JSON, KXXS_JSON):
            algebra = algebra.replace('"Z"', '"%s"' % base)
            tables = [table(algebra, k) for k in range(0, 4)]
            for k in range(0, 3):
                cut = {w: {n: c for n, c in col.items() if int(n) <= k}
                       for w, col in tables[k + 1].items()}
                assert tables[k] == cut, (base, algebra, k)
    # Q[x] at --imax 0: H^0 = 0 above weight 0 (it printed Q at every weight)
    assert [col["0"]["h"] for _w, col in sorted(table(QX_JSON, 0).items())] == \
        [[0], [], [], []]
    # Z[x, x_s] at --imax 1, weight 2: Z/2 + Z/2 (it printed Z/2 + Z/2 + Z)
    assert table(KXXS_JSON, 1)["2"]["1"]["h"] == [2, 2]


def test_derham_checks_that_sigma_is_an_involution_once(monkeypatch):
    # cli.parse_algebra checks it; the de Rham presentation does not repeat it
    calls = []
    real = RingInvolution.is_involution
    monkeypatch.setattr(RingInvolution, "is_involution",
                        lambda self: calls.append(self) or real(self))
    code, _ = run_cli(["derham", "--algebra", KXXS_JSON, "--imax", "1", "--maxweight", "2"])
    assert code == 0 and len(calls) == 1


def test_derham_sigma_scaled_by_a_unit():
    # 3 is a unit mod 8 and 9 = 1, so sigma(x) = 3x is an involution of
    # Z/8[x]; the cohomology table does not see sigma
    def table(sigma):
        algebra = KX_JSON.replace('"Z"', '"Z/8"').replace('"sigma": "x"',
                                                           '"sigma": "%s"' % sigma)
        return run_cli(["derham", "--algebra", algebra, "--imax", "1", "--maxweight", "4"])
    code, out = table("3*x")
    assert code == 0
    assert (code, out) == table("x")


def test_derham_and_hr_gr_refuse_sigma_that_is_not_a_signed_permutation():
    # sigma(x) = 1 - x is an involution but moves the weight, and so does a
    # swap of generators of weights 1 and 2: both used to print a table
    affine = KX_JSON.replace('"sigma": "x"', '"sigma": "1 - x"')
    uneven = KXXS_JSON[:-1] + ', "weights": {"x_s": 2}}'
    for algebra in (affine, uneven):
        assert run_cli(["derham", "--algebra", algebra, "--imax", "1",
                        "--maxweight", "2"]) == (1, ""), algebra
        assert run_cli(["hr-gr", "--algebra", algebra, "--i", "1",
                        "--weight", "2"]) == (1, ""), algebra


HYPER_Z_JSON = ('{"base": "Z", "gens": [{"name": "x", "sigma": "x"}, '
                '{"name": "y", "sigma": "-y"}], "rels": ["y^2 - x^3 + 1"]}')
T_RELATIONS = ("t_1 * t_1 relation holds: True\nt_2 * t_1 relation holds: True\n"
               "t_2 * t_2 relation holds: True\nt_3 * t_1 relation holds: True\n"
               "t_3 * t_2 relation holds: True\nt_3 * t_3 relation holds: True\n"
               "t_4 * t_1 relation holds: True\nt_4 * t_2 relation holds: True\n"
               "t_4 * t_3 relation holds: True\nt_4 * t_4 relation holds: True\n")
T_RELATIONS_JSON = ('[{"holds":true,"i":1,"j":1},{"holds":true,"i":2,"j":1},'
                    '{"holds":true,"i":2,"j":2},{"holds":true,"i":3,"j":1},'
                    '{"holds":true,"i":3,"j":2},{"holds":true,"i":3,"j":3},'
                    '{"holds":true,"i":4,"j":1},{"holds":true,"i":4,"j":2},'
                    '{"holds":true,"i":4,"j":3},{"holds":true,"i":4,"j":4}]')


def test_polynomial_output_golden():
    # the commands whose work is all in the polynomial layer
    for base in ("Z", "Q"):
        argv = ["tambara-free", "--kind", "free", "--base", base, "--trunc", "8"]
        assert run_cli(argv) == (0, (
            "free free involutive algebra over %s, truncation 8\n"
            "underlying generators: x, x_s\n"
            "fixed generators: t_1, t_2, t_3, t_4, t_5, t_6, t_7, t_8, x_N\n"
            "cohomological: True\n" % base) + T_RELATIONS)
        assert run_cli(argv + ["--format", "json"]) == (0, (
            '{"base":"%s","cohomological":true,"fixed_generators":["t_1","t_2","t_3",'
            '"t_4","t_5","t_6","t_7","t_8","x_N"],"kind":"free","t_relations":%s,'
            '"truncation":8,"underlying":["x","x_s"]}\n' % (base, T_RELATIONS_JSON)))
    assert run_cli(["tambara-free", "--kind", "trivial", "--base", "Z/6"]) == (0, (
        "free trivial involutive algebra over Z/6, truncation 8\n"
        "underlying generators: x\nfixed generators: x\ncohomological: True\n"))
    assert run_cli(["cotangent", "--algebra", HYPER_Z_JSON]) == (0, (
        "cotangent generators: dy, dy_s, dx\n"
        "dw -> (-3*x^2)dx + (y)dy + (-y)dy_s\n"
        "dz -> (1)dy + (1)dy_s\n"
        "reduced generators: dy, dx\n"))
    assert run_cli(["cotangent", "--algebra", HYPER_Z_JSON, "--format", "json"]) == (0, (
        '{"generators":["dy","dy_s","dx"],"reduced_generators":["dy","dx"],'
        '"reduced_relations":[{"dx":"-3*x^2","dy":"2*y"}],"relations":{"dw":'
        '{"dx":"-3*x^2","dy":"y","dy_s":"-y"},"dz":{"dy":"1","dy_s":"1"}},'
        '"sigma":{"dx":"(1)dx","dy":"(1)dy_s","dy_s":"(1)dy"}}\n'))


def test_determinism_byte_identical():
    jobs = [
        ["mackey-show", "--input", ZBAR_JSON, "--format", "json"],
        ["dihedral", "--algebra", Q_JSON, "--nmax", "4", "--format", "json"],
        ["hr-gr", "--algebra", KX_JSON, "--i", "1", "--format", "json"],
        ["tambara-free", "--kind", "free", "--format", "json"],
        ["slice-check", "--complex", '{"kind": "sigma-sphere", "k": -2}',
         "--n", "-2", "--format", "json"],
    ]
    for job in jobs:
        c1, o1 = run_cli(job)
        c2, o2 = run_cli(job)
        assert c1 == c2 == 0
        assert o1 == o2
        assert o1.encode("utf-8") == o2.encode("utf-8")


def test_exit_code_1_on_domain_errors(capsys):
    # one "error:" line on stderr, no traceback
    for argv in (["slice-check", "--complex", '{"kind":"sigma-sphere","k":2}', "--n", "1",
                  "--coconnective"],
                 ["dihedral", "--algebra", DUAL_JSON % ("Z", "-x")],
                 ["hh", "--algebra", QX_JSON, "--nmax", "2"]):
        assert run_cli(argv) == (1, ""), argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_exit_code_2_on_bad_json():
    code, _ = run_cli(["mackey-show", "--input", '{"fixed": [0,'])
    assert code == 2
    code, _ = run_cli(["mackey-show", "--input", '{"fixed": [0], "underlying": [0], '
                       '"res": [["a"]], "tr": [[2]], "sigma": [[1]]}'])
    assert code == 2
    # levels that are not lists of invariant factors (integers >= 0), and a
    # matrix of the wrong shape
    for level in ('"fixed": "0"', '"fixed": [2.7]', '"fixed": [true]', '"underlying": [-1]',
                  '"underlying": null'):
        mackey = json.loads(ZBAR_JSON)
        mackey.update(json.loads("{%s}" % level))
        assert run_cli(["mackey-show", "--input", json.dumps(mackey)])[0] == 2, level
    assert run_cli(["mackey-show", "--input", ZBAR_JSON.replace("[[2]]", "[[2, 2]]")])[0] == 2
    # a differential whose fixed-level matrix has the wrong shape
    code, _ = run_cli(["slice-check", "--n", "0", "--complex",
                       '{"kind": "complex", "terms": {"0": ["Zbar"], "1": ["Zbar"]}, '
                       '"diffs": {"1": {"fixed": [[1, 2]], "underlying": [[1]]}}}'])
    assert code == 2
    # negative sizes are rejected by the argument parser
    for argv in (["hh", "--algebra", QX_JSON, "--nmax", "-1"],
                 ["hh", "--algebra", QX_JSON, "--weight", "-2"],
                 ["derham", "--algebra", KX_JSON, "--imax", "-1", "--maxweight", "-1"],
                 ["tambara-free", "--kind", "free", "--trunc", "-1"],
                 ["dihedral", "--algebra", Q_JSON, "--nmax", "-1"]):
        assert run_cli(argv)[0] == 2, argv
    # an unsupported base ring, given by --base or inside the algebra JSON
    for base in ("Z/x", "R", "Z/1"):
        assert run_cli(["tambara-free", "--kind", "free", "--base", base])[0] == 2, base
        algebra = KX_JSON.replace('"Z"', '"%s"' % base)
        assert run_cli(["derham", "--algebra", algebra])[0] == 2, base
    # malformed complexes: a non-integer k, non-integer or repeated degree
    # keys, terms or diffs that are not objects, cells that are not lists of
    # cell names, cells other than Zbar and ZbarC2 (levelwise Phi is exact
    # only on sums of these two)
    for complex_json in ('{"kind": "sigma-sphere", "k": "abc"}',
                         '{"kind": "sigma-sphere", "k": [1]}',
                         '{"kind": "sigma-sphere", "k": 1.5}',
                         '{"kind": "sigma-sphere", "k": true}',
                         '{"kind": "complex", "terms": {"x": ["Zbar"]}}',
                         '{"kind": "complex", "terms": {"0": ["Zbar"]}, "diffs": {"x": {}}}',
                         '{"kind": "complex", "terms": [1]}',
                         '{"kind": "complex", "terms": {"0": ["Zbar"]}, "diffs": [1]}',
                         '{"kind": "complex", "terms": {"0": 5}}',
                         '{"kind": "complex", "terms": {"0": {"Zbar": 1}}}',
                         '{"kind": "complex", "terms": {"0": [["Zbar"]]}}',
                         '{"kind": "complex", "terms": {"0": ["Zbar"], "00": ["ZbarC2"]}}',
                         '{"kind": "complex", "terms": {"0": ["Zsign"]}}',
                         '{"kind": "complex", "terms": {"0": ["Z"]}}'):
        argv = ["slice-check", "--n", "0", "--complex", complex_json]
        assert run_cli(argv)[0] == 2, complex_json
    # malformed algebras: fields of the wrong JSON type, weights that are not
    # integers >= 1 or that name no generator, unknown generator fields, no
    # "gens"
    x = '{"name": "x", "sigma": "x"}'
    for algebra_json in ('{"base": "Q", "gens": [%s], "weights": {"x": "abc"}}' % x,
                         '{"base": "Q", "gens": [%s], "weights": [1]}' % x,
                         '{"base": "Q", "gens": [%s], "weights": {"x": 1.5}}' % x,
                         '{"base": "Q", "gens": [%s], "weights": {"x": true}}' % x,
                         '{"base": "Q", "gens": [%s], "weights": {"x": 0}}' % x,
                         '{"base": "Q", "gens": [%s], "weights": {"y": 2}}' % x,
                         '{"base": "Q", "gens": [{"name": 1}]}',
                         '{"base": "Q", "gens": [{"name": "1"}]}',
                         '{"base": "Q", "gens": [{"name": "x", "sigma": 3}]}',
                         '{"base": "Q", "gens": [{"name": "x", "sgima": "x"}]}',
                         '{"base": "Q", "gens": [%s], "rels": [3]}' % x,
                         '{"base": "Q", "gens": [%s], "rels": "x^2"}' % x,
                         '{"base": "Q", "gens": {"x": "x"}}',
                         '{"base": 5, "gens": []}',
                         '{"base": null, "gens": []}',
                         '{"base": "Q", "gens": [%s], "rels": null}' % x,
                         '{"base": "Q", "rels": []}'):
        argv = ["hh", "--algebra", algebra_json, "--weight", "2"]
        assert run_cli(argv)[0] == 2, algebra_json
    # a zero weight is refused when the algebra is parsed, by every command
    assert run_cli(["cotangent", "--algebra",
                    KX_JSON[:-1] + ', "weights": {"x": 0}}'])[0] == 2


def test_render_zero_functor():
    zero = '{"fixed": [], "underlying": [], "res": [], "tr": [], "sigma": []}'
    code, out = run_cli(["mackey-show", "--input", zero])
    assert code == 0
    assert out.splitlines()[0] == "C2-level : 0"
    assert out.splitlines()[1] == "e-level  : 0"


def test_mackey_trunc_env_override(monkeypatch):
    monkeypatch.setenv("MACKEY_TRUNC", "5")
    code, out = run_cli(["tambara-free", "--kind", "free", "--format", "json"])
    assert code == 0
    assert json.loads(out)["truncation"] == 5
    for bad in ("bogus", "-3"):
        monkeypatch.setenv("MACKEY_TRUNC", bad)
        assert run_cli(["tambara-free", "--kind", "free"]) == (2, "")
        assert run_cli(["hr-gr", "--algebra", KX_JSON, "--i", "0"]) == (2, "")
    monkeypatch.setenv("MACKEY_TRUNC", "0")
    assert run_cli(["tambara-free", "--kind", "free"])[0] == 0


def test_a_closed_pipe_ends_quietly(tmp_path):
    # Z^150 with the constant structure prints about 200 kB, more than a pipe
    # holds, so the writer is still writing when the reader closes the pipe
    # after the first line
    n = 150
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"fixed": [0] * n, "underlying": [0] * n, "res": eye,
                                "tr": [[2 * x for x in row] for row in eye], "sigma": eye}))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "c2algebra.cli", "mackey-show",
                             "--input", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"C2-level : Z + Z")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


def _layers_loaded(statements):
    """The c2algebra modules a fresh interpreter holds after running
    statements (the pytest process has imported every layer already), and
    argparse, gettext or locale if it holds them."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    code = statements + (
        "\nimport sys"
        "\nprint(' '.join(sorted(m for m in sys.modules if m.startswith('c2algebra')"
        " or m in ('argparse', 'gettext', 'locale'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _layers_after(argv):
    return _layers_loaded("import io\nfrom c2algebra.cli import run\n"
                          "assert run(%r, stdout=io.StringIO()) == 0" % (argv,))


def _layers_under_python_m(argv):
    """_layers_loaded after argv runs as python -m c2algebra.cli runs it,
    with cli as __main__."""
    return _layers_loaded(
        "import io, runpy, sys\nsys.argv = ['c2algebra'] + %r\nsys.stdout = io.StringIO()\n"
        "try:\n"
        "    runpy.run_module('c2algebra.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as e:\n"
        "    assert e.code == 0, e.code\n"
        "else:\n"
        "    raise AssertionError('main did not exit')\n"
        "sys.stdout = sys.__stdout__" % (argv,))


# hr-gr reads the default truncation from the package, not from tambara; the
# parsed algebra is its RingInvolution, so only dihedral, and hh of a ring
# whose rules mix variables, load trace.  The Mackey commands load no chains,
# and hh, dihedral, derham and slice-check no mackey.  chains loads abelian
# only to read the elementary divisors of a boundary whose unit pivots leave
# a core that is not a sum of single rows and columns: the dense 7 x 7 matrix
# over Z leaves one, whose divisors H_0 reads (the connective check at n = 2)
# and whose rank alone H_1 reads (the coconnective check at n = 0); the bar
# complex of the cusp leaves some too, but over Q only ranks are read
LAYER_CASES = [
    (["cotangent", "--algebra", HYPER_JSON], "polyring algebra_json differentials"),
    (["derham", "--algebra", KXXS_JSON], "polyring algebra_json differentials chains"),
    (["hr-gr", "--algebra", KX_JSON, "--i", "1", "--weight", "2"],
     "abelian polyring algebra_json differentials chains slices mackey complexes "
     "mackey_json"),
    (["hh", "--algebra", QX_JSON, "--weight", "2", "--nmax", "2"],
     "polyring algebra_json chains koszul"),
    (["hh", "--algebra", CUSP_JSON, "--weight", "6", "--nmax", "2"],
     "polyring algebra_json chains trace"),
    (["dihedral", "--algebra", QX_JSON, "--weight", "2", "--nmax", "2"],
     "polyring algebra_json"),
    (["dihedral", "--algebra", DUAL_JSON % ("Q", "x"), "--nmax", "2"],
     "polyring algebra_json chains trace"),
    (["dihedral", "--algebra", QX_JSON.replace('"Q"', '"Z/3"'), "--weight", "2", "--nmax", "2"],
     "polyring algebra_json chains trace"),
    (["slice-check", "--complex", '{"kind":"sigma-sphere","k":2}', "--n", "2"], "chains slices"),
    (["slice-check", "--complex", '{"kind":"sigma-sphere","k":2}', "--n", "0", "--coconnective"],
     "chains slices"),
    (["slice-check", "--complex", DENSE_7X7_COMPLEX_JSON, "--n", "2"], "abelian chains slices"),
    (["slice-check", "--complex", DENSE_7X7_COMPLEX_JSON, "--n", "0", "--coconnective"],
     "chains slices"),
    (["mackey-show", "--input", ZBAR_JSON], "abelian mackey mackey_json"),
    (["box", "--left", ZBAR_JSON, "--right", ZSIGN_JSON], "abelian mackey mackey_json"),
    (["phi", "--input", ZBAR_JSON], "abelian mackey mackey_json"),
    (["tambara-free", "--kind", "free", "--trunc", "2"], "polyring tambara"),
]


def test_each_command_loads_only_the_layers_it_runs():
    # and no argument parser: argparse (with gettext and locale) costs about
    # 6 ms of every job
    package = {"c2algebra", "c2algebra.cli"}
    assert _layers_loaded("import c2algebra.cli") == package
    for argv, names in LAYER_CASES:
        assert _layers_after(argv) == package | {"c2algebra." + n for n in names.split()}, argv


def test_python_m_loads_only_the_layers_it_runs_and_cli_once():
    # the benchmark's invocation: cli runs as __main__, so c2algebra.cli in
    # sys.modules would be a second compile and run of cli.py, by an import
    # of it from some module
    assert _layers_under_python_m(["--help"]) == {"c2algebra"}
    for argv, names in LAYER_CASES:
        assert _layers_under_python_m(argv) == \
            {"c2algebra"} | {"c2algebra." + n for n in names.split()}, argv


def test_derham_and_hr_gr_build_no_cotangent_presentation(monkeypatch):
    # they read sigma itself; only cotangent presents the module
    from c2algebra import differentials as df
    argvs = (["derham", "--algebra", KXXS_JSON],
             ["hr-gr", "--algebra", KX_JSON, "--i", "1", "--weight", "2"])
    answers = [run_cli(argv) for argv in argvs]
    assert all(code == 0 for code, _ in answers)

    def refuse(*args):
        raise AssertionError("a cotangent presentation was built")
    monkeypatch.setattr(df, "CotangentPresentation", refuse)
    assert [run_cli(argv) for argv in argvs] == answers
    with pytest.raises(AssertionError, match="cotangent presentation"):
        run_cli(["cotangent", "--algebra", KX_JSON])


def test_the_de_rham_route_of_dihedral_builds_no_bar_complex(monkeypatch):
    # a rule-free signed permutation over Q or Z[1/2] reads the closed form;
    # rules, Z/m and any other sigma keep the bar complex
    from c2algebra import trace as tr
    closed = (["dihedral", "--algebra", QX_JSON, "--weight", "2", "--nmax", "2"],
              ["dihedral", "--algebra", KXXS_JSON.replace('"Z"', '"Z[1/2]"'), "--weight", "3"],
              ["dihedral", "--algebra", Q_JSON, "--nmax", "5", "--format", "json"])
    bar = (["dihedral", "--algebra", DUAL_JSON % ("Q", "x"), "--nmax", "2"],
           ["dihedral", "--algebra", QX_JSON.replace('"Q"', '"Z/3"'), "--weight", "2"],
           ["dihedral", "--algebra", SIGMA_X_MINUS_Y_JSON % "Q", "--weight", "2", "--nmax", "2"])
    answers = [run_cli(argv) for argv in closed + bar]
    assert all(code == 0 for code, _ in answers)

    def refuse(*args, **kwargs):
        raise AssertionError("a DihedralComplex was built")
    monkeypatch.setattr(tr, "DihedralComplex", refuse)
    assert [run_cli(argv) for argv in closed] == answers[:len(closed)]
    for argv in bar:
        with pytest.raises(AssertionError, match="DihedralComplex"):
            run_cli(argv)


@pytest.mark.parametrize("argv, err", [
    (["dihedral", "--algebra", KXXS_JSON, "--weight", "2"],
     "error: 2 is not invertible in the base\n"),
    (["dihedral", "--algebra", KX_JSON.replace('"Z"', '"Z/2"'), "--weight", "2"],
     "error: 2 is not invertible in the base\n"),
    (["dihedral", "--algebra", QX_JSON], "error: graded algebra: pass --weight\n"),
    (["dihedral", "--algebra", CUSP_JSON], "error: graded algebra: pass --weight\n"),
    # a graded ring without --weight is refused before the base is read
    (["dihedral", "--algebra", KX_JSON], "error: graded algebra: pass --weight\n"),
])
def test_dihedral_refusals_keep_their_bytes_on_either_route(argv, err, capsys):
    assert run_cli(argv) == (1, "")
    assert capsys.readouterr().err == err


def test_the_benchmark_algebra_jobs_load_no_fractions():
    # a coefficient that stays an integer needs no Fraction; one process runs
    # the jobs in turn, so the first job to load fractions is the one named
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from jobs import make_jobs
    finally:
        sys.path.pop(0)
    argvs = [job.argv for w in ("bar", "sweep") for job in make_jobs(w, 1)
             if "--algebra" in job.argv]
    assert len(argvs) > 10
    loaded = _layers_loaded(
        "import io, sys\nfrom c2algebra.cli import run\n"
        "for argv in %r:\n"
        "    run(argv, stdout=io.StringIO())\n"
        "    assert 'fractions' not in sys.modules, argv\n" % (argvs,))
    assert "c2algebra.koszul" in loaded and "c2algebra.trace" in loaded


# tr o res = 1 on Z, where the Lewis axioms ask for 2
LEWIS_INVALID_JSON = ('{"fixed": [0], "underlying": [0], "res": [[1]], "tr": [[1]], '
                      '"sigma": [[1]]}')


@pytest.mark.parametrize("argv, code, prefix", [
    (["mackey-show", "--input", '{"fixed": [0], "underlying": "Z"}'], 2, "parse error: "),
    (["hh", "--algebra", '{"base": "Q", "gens": "x"}'], 2, "parse error: "),
    (["slice-check", "--complex", '{"kind": "complex", "terms": []}', "--n", "0"], 2,
     "parse error: "),
    (["mackey-show", "--input", LEWIS_INVALID_JSON], 1, "error: Lewis axioms fail"),
    (["hh", "--algebra", '{"base": "Q", "gens": [{"name": "x", "sigma": "-x"}], '
      '"rels": ["x^2 - x"]}'], 1, "error: relation ideal is not sigma-stable"),
    # malformed argv: no command, an unknown command, an unknown option (an
    # abbreviation is one), a stray value, a value given to a flag, a missing
    # value or required option, a non-integer, a negative size, a bad format,
    # base ring or generator list
    ([], 2, "parse error: "),
    (["homology", "--algebra", QX_JSON], 2, "parse error: "),
    (["hh", "--algebra", QX_JSON, "--weigth", "2"], 2, "parse error: "),
    (["hh", "--alg", QX_JSON], 2, "parse error: "),
    (["hh", QX_JSON], 2, "parse error: "),
    (["slice-check", "--complex", '{"kind": "sigma-sphere", "k": 1}', "--n", "1",
      "--coconnective=yes"], 2, "parse error: "),
    (["hh", "--algebra", QX_JSON, "--nmax"], 2, "parse error: "),
    (["hh", "--nmax", "2"], 2, "parse error: "),
    (["slice-check", "--complex", '{"kind": "sigma-sphere", "k": 1}'], 2, "parse error: "),
    (["hr-gr", "--algebra", KX_JSON, "--i", "one"], 2, "parse error: "),
    (["hh", "--algebra", QX_JSON, "--weight", "2", "--nmax", "2.5"], 2, "parse error: "),
    (["hh", "--algebra", QX_JSON, "--nmax", "-1"], 2, "parse error: "),
    (["derham", "--algebra", KX_JSON, "--imax=-1"], 2, "parse error: "),
    (["tambara-free", "--kind", "free", "--format", "xml"], 2, "parse error: "),
    (["tambara-free", "--kind", "free", "--base", "Z/x"], 2, "parse error: "),
    (["tambara-free", "--kind", "trivial", "--names", "x,x"], 2, "parse error: "),
    # a JSON object of another kind than the command reads, valid or not in
    # its own kind
    (["slice-check", "--complex", LEWIS_INVALID_JSON, "--n", "0"], 2, "parse error: "),
    (["hh", "--algebra", LEWIS_INVALID_JSON], 2, "parse error: "),
    (["mackey-show", "--input", '{"base": "Q", "gens": [{"name": "x", "sigma": "x^2"}]}'], 2,
     "parse error: "),
    (["hh", "--algebra", '{"kind": "sigma-sphere", "k": 2}'], 2, "parse error: "),
    (["box", "--left", ZBAR_JSON, "--right", QX_JSON], 2, "parse error: "),
])
def test_python_m_reports_the_readers_errors(argv, code, prefix):
    # under python -m, cli is __main__: the readers and the argv reader raise
    # the package's ParseError and DomainError, which run catches there too
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "c2algebra.cli"] + argv,
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (code, ""), proc.stderr
    assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["hh", "--help"],
                                  ["slice-check", "--n", "2", "-h"]])
def test_help_prints_the_synopsis_of_the_readme(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "c2algebra.cli"] + argv,
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "hh --algebra A.json [--nmax N] [--weight W]\n" in proc.stdout
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert "```\n%s```\n" % proc.stdout in readme


def test_the_synopsis_lists_each_command_with_its_options():
    from c2algebra.cli import OPTIONS, USAGE
    lines = USAGE.split("\n\n", 1)[1].splitlines()
    assert {line.split()[0]: set(re.findall(r"--(\w+)", line)) for line in lines} == {
        command: set(options) for command, options in OPTIONS.items()}


def test_an_option_value_follows_a_space_or_an_equals_sign():
    # the next token is the value, also when it starts with a minus
    sphere = '{"kind": "sigma-sphere", "k": -4}'
    spaced = run_cli(["slice-check", "--complex", sphere, "--n", "-4", "--format", "json"])
    assert spaced == (0, '{"connective":true,"n":-4}\n')
    assert run_cli(["slice-check", "--complex=" + sphere, "--n=-4", "--format=json"]) == spaced
    # a repeated option keeps its last value
    assert run_cli(["slice-check", "--complex", sphere, "--n", "7", "--format", "pretty",
                    "--n", "-4", "--format", "json"]) == spaced


def test_every_domain_error_is_an_engine_error():
    from c2algebra import (EngineError, complexes, differentials, mackey, polyring, slices,
                           tambara)
    from c2algebra.abelian import AbelianError
    for cls in (tr.TraceError, tambara.TambaraError, differentials.DifferentialError,
                complexes.ComplexError, mackey.MackeyError, polyring.RingError,
                slices.SliceError):
        assert issubclass(cls, EngineError), cls
    assert not issubclass(AbelianError, EngineError)
