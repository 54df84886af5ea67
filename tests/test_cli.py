"""CLI: schemas, round trips, exit codes, determinism, golden outputs."""

import io
import json

from c2algebra.cli import (
    mackey_to_json,
    parse_input,
    parse_mackey,
    run,
)
from c2algebra.complexes import homology
from c2algebra.mackey import box, burnside, fingerprint, zbar, zbar_c2, zsign
from c2algebra import trace as tr


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
HYPER_JSON = ('{"base": "Q", "gens": [{"name": "x", "sigma": "x"}, '
              '{"name": "y", "sigma": "-y"}], "rels": ["y^2 - x^3 - 1"]}')


def test_parse_minimal_algebra():
    A = parse_input(json.loads(KX_JSON))
    assert isinstance(A, tr.InvolutiveAlgebra)
    assert A.ring.names == ["x"]


def test_parse_hyperelliptic():
    A = parse_input(json.loads(HYPER_JSON))
    assert A.ring.rules
    # omega(y) = -y survives the quotient
    img = A.omega.images[1]
    assert A.ring.equal(img, A.ring.neg(A.ring.var(1)))


def test_parse_rejects_non_sigma_stable():
    bad = ('{"base": "Q", "gens": [{"name": "x", "sigma": "-x"}], '
           '"rels": ["x^2 - x"]}')
    code, _ = run_cli(["hh", "--algebra", bad, "--nmax", "1"])
    assert code == 1


def test_parse_rejects_unknown_fields():
    bad = '{"base": "Z", "gens": [], "rels": [], "bogus": 1}'
    code, _ = run_cli(["hh", "--algebra", bad, "--nmax", "1"])
    assert code == 2
    bad_complex = '{"kind": "sigma-sphere", "k": 1, "extra": true}'
    code, _ = run_cli(["slice-check", "--complex", bad_complex, "--n", "0"])
    assert code == 2


def test_mackey_roundtrip():
    for M in (zbar(), zsign(), zbar_c2(), burnside(), box(zbar(), zbar()),
              homology(tr.hr_graded_pieces("free", 2, 4), 2)):
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


def test_slice_check_explicit_complex():
    job = json.dumps({
        "kind": "complex",
        "terms": {"1": ["ZbarC2"], "0": ["Zbar"]},
        "diffs": {"1": {"fixed": [[2]], "underlying": [[1, 1]]}},
    })
    code, out = run_cli(["slice-check", "--complex", job, "--n", "0"])
    assert code == 0
    assert out.strip() == "regular-slice (0)-connective: true"


def test_tambara_free_command():
    code, out = run_cli(["tambara-free", "--kind", "free", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["cohomological"] is True
    assert all(r["holds"] for r in data["t_relations"])


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
    monkeypatch.setattr(tr.DihedralComplex, "_omega_matrix", lambda self, n: lazy.append(n))
    monkeypatch.setattr(tr.DihedralComplex, "_B_matrix", lambda self, n: lazy.append(n))
    code, out = run_cli(["hh", "--algebra", QX_JSON, "--weight", "2", "--nmax", "3"])
    assert code == 0 and out.count("HH_") == 4
    assert len(builds) == 1 and not lazy


def _hh_rows(algebra, *opts):
    code, out = run_cli(["hh", "--algebra", algebra, "--format", "json", *opts])
    assert code == 0
    return [r["hh"] for r in json.loads(out)["rows"]]


DUAL_JSON = '{"base": "%s", "gens": [{"name": "x", "sigma": "%s"}], "rels": ["x^2"]}'


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


def test_hh_graded_needs_weight():
    code, _ = run_cli(["hh", "--algebra", QX_JSON, "--nmax", "2"])
    assert code == 1


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


def test_cotangent_command_free():
    code, out = run_cli(["cotangent", "--algebra", KXXS_JSON, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["generators"] == ["dx", "dx_s"]
    assert data["sigma"]["dx"] == "(1)dx_s"


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


def test_exit_code_2_on_bad_json():
    code, _ = run_cli(["mackey-show", "--input", '{"fixed": [0,'])
    assert code == 2
    code, _ = run_cli(["mackey-show", "--input", '{"fixed": [0], "underlying": [0], '
                       '"res": [["a"]], "tr": [[2]], "sigma": [[1]]}'])
    assert code == 2
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
    monkeypatch.setenv("MACKEY_TRUNC", "bogus")
    code, _ = run_cli(["tambara-free", "--kind", "free"])
    assert code == 2
