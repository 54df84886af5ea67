"""Seeded job lists for the three workloads, each job with its reference.

Every job is a c2algebra CLI argv plus a check of its stdout against a
reference that does not come from c2algebra: a closed form or table from the
literature or the project's acceptance criteria, named in ``Job.source``.
The seed picks cost-neutral variants (base ring among rings the job costs the
same on, output format, argv spelling, small parameters of short jobs) and the
job order; the jobs of a workload and their cost class are the same for every
seed.
"""

import json
import random
from dataclasses import dataclass
from typing import Callable, List

WORKLOADS = {
    "sphere": "slice-check on the sign-sphere models S^{k sigma}, k = -4..4: "
              "many small integer SNFs (abelian), no polynomial arithmetic",
    "bar": "hh and dihedral of the free involutive algebra k[x, x_s]: bar-complex "
           "builds (trace, polyring) then large-block SNF homology",
    "sweep": "28 small jobs over all ten commands and the four base-ring kinds: "
             "start-up, parsing, rewrite rules, truncation and Z/m",
}

# Jobs whose seed-commit answer is known to be wrong.  They stay in the job
# lists and are scored as failed; `correct` only turns false when some other
# job fails, so a fix to one of these shows as fewer failed jobs.
KNOWN_WRONG = {
    "sweep.hh.F3": "homology is taken over Z: HH_0 of F_3 printed as Z, not Z/3",
    "sweep.hh.F2-dual": "HH of F_2[x]/x^2 printed as the Z answer, not (Z/2)^2 in every degree",
    "sweep.hh.Q-dual": "HH of Q[x]/x^2 printed with Z/2 torsion over Q",
    "sweep.dihedral.F3-dual": "HD + HD' != HC for F_3[x]/x^2 with x -> -x (omega reduced mod 3)",
    "sweep.derham.F3": "de Rham of F_3[x] taken over Z: H^1 = Z/2 at weight 2 and Z at weight 3",
    "sweep.box.ZZ": "cli.mackey_to_json emits res=[[5]], tr=[[0]] for Zbar box Zbar: "
                    "res o tr != 1 + sigma",
    "sweep.hr-gr.free-i2": "cli.mackey_to_json again: the emitted degree-2 diagram breaks "
                           "tr o sigma = tr",
}


@dataclass
class Job:
    name: str
    argv: List[str]
    check: Callable[[str], str]   # stdout -> None if right, else the reason
    source: str


def _dump(obj):
    return json.dumps(obj, separators=(",", ":"))


def algebra(base, gens, rels=()):
    return _dump({"base": base, "gens": [{"name": n, "sigma": s} for n, s in gens],
                  "rels": list(rels)})


def _invariants(text):
    text = text.strip()
    if text == "0":
        return ()
    return tuple(0 if p == "Z" else int(p[2:]) for p in text.split(" + "))


def _lines(out, prefix):
    return [ln for ln in out.splitlines() if ln.startswith(prefix)]


def _expect(got, want):
    return None if got == want else "got %r, want %r" % (got, want)


def _cmd(rng, command, *opts, flags=(), fmt=None):
    """argv with the option pairs and flags in a seeded order and a seeded
    --format."""
    pairs = [opts[i:i + 2] for i in range(0, len(opts), 2)] + [(f,) for f in flags]
    rng.shuffle(pairs)
    argv = [command] + [x for p in pairs for x in p]
    fmt = fmt or rng.choice(("pretty", "json"))
    return argv + ["--format", fmt], fmt


# ---------------------------------------------------------------------------
# output parsers (pretty and json forms)

def parse_hh(out, fmt):
    if fmt == "json":
        return [tuple(r["hh"]) for r in json.loads(out)["rows"]]
    return [_invariants(ln.split(" = ", 1)[1]) for ln in _lines(out, "HH_")]


def parse_dihedral(out, fmt):
    if fmt == "json":
        d = json.loads(out)
        return d["hc"], d["hd"], d["hd_prime"]
    rows = [dict(kv.split("=") for kv in ln.split(": ", 1)[1].split())
            for ln in _lines(out, "n=")]
    return ([int(r["HC"]) for r in rows], [int(r["HD"]) for r in rows],
            [int(r["HD'"]) for r in rows])


def parse_slice(out, fmt):
    if fmt == "json":
        d = json.loads(out)
        return d["connective"] if "connective" in d else d["coconnective"]
    verdict = out.strip().rsplit(": ", 1)[1]
    return {"true": True, "false": False}.get(verdict, verdict)


def parse_lewis(out, fmt):
    if fmt == "json":
        d = json.loads(out)
        d["fixed"], d["underlying"] = tuple(d["fixed"]), tuple(d["underlying"])
        return d
    rows = out.strip().splitlines()
    val = {ln.split(" : ")[0].strip(): ln.split(" : ")[1] for ln in rows[:2]}
    mats = {ln.split("=")[0].strip(): json.loads(ln.split("=", 1)[1]) for ln in rows[2:]}
    return dict(mats, fixed=_invariants(val["C2-level"]),
                underlying=_invariants(val["e-level"]))


def parse_phi(out, fmt):
    if fmt == "json":
        return tuple(json.loads(out)["phi"])
    return _invariants(out.strip().split(" = ", 1)[1])


def parse_derham(out, fmt):
    """{(weight, degree): (H^degree invariants, dim Omega^degree)}"""
    if fmt == "json":
        table = json.loads(out)["table"]
        return {(int(w), int(n)): (tuple(c["h"]), c["dim"])
                for w, col in table.items() for n, c in col.items()}
    got, w = {}, None
    for ln in out.splitlines():
        if ln.startswith("weight "):
            w = int(ln[7:-1])
        else:
            head, h = ln.strip().split(", H^")
            n, dim = head[len("Omega^"):].split(" dim ")
            got[(w, int(n))] = (_invariants(h.split(" = ", 1)[1]), int(dim))
    return got


# ---------------------------------------------------------------------------
# Lewis axioms, checked on the emitted matrices


def _mul(A, B, inner):
    return [[sum(A[i][k] * B[k][j] for k in range(inner)) for j in range(len(B[0]) if B else 0)]
            for i in range(len(A))]


def _congruent(A, B, orders):
    """A == B entrywise, row r read modulo orders[r] (0 = exact)."""
    return all((a - b) % m == 0 if m else a == b
               for row_a, row_b, m in zip(A, B, orders) for a, b in zip(row_a, row_b))


def lewis_violation(M):
    """First failing axiom of an emitted Lewis diagram, or None.  Matrices
    are row-major, target generators by source generators."""
    F, U = M["fixed"], M["underlying"]
    nf, nu = len(F), len(U)

    def mat(key, rows, cols):
        A = M[key] or []
        if rows == 0:
            return []
        A = A if A else [[] for _ in range(rows)]
        if len(A) != rows or any(len(r) != cols for r in A):
            raise ValueError("%s has the wrong shape" % key)
        return A

    try:
        res, tr, sig = mat("res", nu, nf), mat("tr", nf, nu), mat("sigma", nu, nu)
    except ValueError as e:
        return str(e)
    one_u = [[int(i == j) for j in range(nu)] for i in range(nu)]
    for name, A, src, tgt in (("res", res, F, U), ("tr", tr, U, F), ("sigma", sig, U, U)):
        for j, d in enumerate(src):
            col = [[d * A[i][j]] for i in range(len(tgt))]
            if d and not _congruent(col, [[0]] * len(tgt), tgt):
                return "%s is not well defined" % name
    checks = (
        ("sigma^2 = 1", _mul(sig, sig, nu), one_u, U),
        ("sigma res = res", _mul(sig, res, nu), res, U),
        ("tr sigma = tr", _mul(tr, sig, nu), tr, F),
        ("res tr = 1 + sigma", _mul(res, tr, nf),
         [[one_u[i][j] + sig[i][j] for j in range(nu)] for i in range(nu)], U),
    )
    for axiom, lhs, rhs, orders in checks:
        if not _congruent(lhs, rhs, orders):
            return "Lewis axiom fails on the output: " + axiom
    return None


def hr_gr_check(want):
    """hr-gr json: the nonzero groups per degree, then the Lewis axioms of
    every emitted diagram."""
    def check(out):
        homology = json.loads(out)["blocks"][0]["homology"]
        got = {int(n): (tuple(h["fixed"]), tuple(h["underlying"]))
               for n, h in homology.items() if h["fixed"] or h["underlying"]}
        return _expect(got, want) or next(filter(None, map(lewis_violation,
                                                           homology.values())), None)
    return check


def lewis_check(want_fixed, want_und):
    def check(M):
        bad = _expect((M["fixed"], M["underlying"]), (tuple(want_fixed), tuple(want_und)))
        return bad or lewis_violation(M)
    return check


# ---------------------------------------------------------------------------
# references

def hkr_free_ranks(w, nmax):
    """HH_n of k[x, x_s] at weight w >= 1 (HKR: HH_n = Omega^n, free)."""
    return [(0,) * r for r in [w + 1, 2 * w, w - 1] + [0] * (nmax - 2)]


def dihedral_free_ref(w, nmax):
    """HC, HD, HD' of k[x, x_s] (sigma swaps x, x_s), weight w >= 1, 1/2 in k.

    HC_n = Omega^n_w / d Omega^{n-1}_w (char 0, positive weight), so HC_0 =
    w + 1, HC_1 = w - 1, HC_n = 0 above.  The involution acts on HC_n as
    e_n * sigma with e_n = (-1)^{n(n+1)/2}; HD_n = (HC_n + e_n tr sigma)/2
    where tr sigma is (w even) on Omega^0_w and 0 on Omega^1_w.
    """
    even = 1 if w % 2 == 0 else 0
    hc = [w + 1, w - 1] + [0] * (nmax - 1)
    tr = [even, -even] + [0] * (nmax - 1)
    sign = [(-1) ** (n * (n + 1) // 2) for n in range(nmax + 1)]
    hd = [(hc[n] + sign[n] * tr[n]) // 2 for n in range(nmax + 1)]
    return hc, hd, [c - d for c, d in zip(hc, hd)]


def slice_connective(k, n):
    """S^{k sigma} is regular-slice n-connective iff n <= min(k, 0)."""
    return n <= min(k, 0)


FREE_GENS = [("x", "x_s"), ("x_s", "x")]   # k[x, x_s], sigma swaps x and x_s


def _hh_job(rng, name, base, w, nmax):
    argv, fmt = _cmd(rng, "hh", "--algebra", algebra(base, FREE_GENS),
                     "--weight", str(w), "--nmax", str(nmax))
    want = hkr_free_ranks(w, nmax)
    return Job(name, argv, lambda out: _expect(parse_hh(out, fmt), want),
               "HKR: HH_n of k[x,x_s] at weight w is free of rank w+1, 2w, w-1, 0, ...")


def _dihedral_job(rng, name, base, w, nmax):
    argv, fmt = _cmd(rng, "dihedral", "--algebra", algebra(base, FREE_GENS),
                     "--weight", str(w), "--nmax", str(nmax))
    want = dihedral_free_ref(w, nmax)
    return Job(name, argv, lambda out: _expect(parse_dihedral(out, fmt), want),
               "HC_n = Omega^n_w/dOmega^{n-1}_w; HD from the trace of e_n*sigma; HD + HD' = HC")


# ---------------------------------------------------------------------------
# workloads

def sphere_jobs(rng):
    jobs = []
    for k in range(-4, 5):
        cplx = _dump({"kind": "sigma-sphere", "k": k})
        argv, fmt = _cmd(rng, "slice-check", "--complex", cplx, "--n", str(k))
        want = slice_connective(k, k)
        jobs.append(Job("sphere.conn.k%d" % k, argv,
                        lambda out, fmt=fmt, want=want: _expect(parse_slice(out, fmt), want),
                        "n-connective iff n <= min(k, 0) "
                        "(is_regular_slice_connective, criterion 4)"))
        if k <= 0:
            argv, fmt = _cmd(rng, "slice-check", "--complex", cplx, "--n", str(k),
                             flags=["--coconnective"])
            jobs.append(Job("sphere.cocon.k%d" % k, argv,
                            lambda out, fmt=fmt: _expect(parse_slice(out, fmt),
                                                         "passes-necessary-conditions"),
                            "S^{k sigma}, k <= 0, is a k-slice cell: k-coconnective"))
    return jobs


def bar_jobs(rng):
    # The two large jobs stay over Q, so every seed has the same slowest jobs;
    # the seed moves the small jobs between the rings with 1/2 or without.
    hh_rings = ["Q", "Z", "Z[1/2]"]
    rng.shuffle(hh_rings)
    half_rings = ["Q", "Z[1/2]"]
    rng.shuffle(half_rings)
    return [
        _hh_job(rng, "bar.hh.w5n5", "Q", 5, 5),
        _hh_job(rng, "bar.hh.w4n5", hh_rings[0], 4, 5),
        _hh_job(rng, "bar.hh.w3n4", hh_rings[1], 3, 4),
        _dihedral_job(rng, "bar.dihedral.w4n4", "Q", 4, 4),
        _dihedral_job(rng, "bar.dihedral.w3n5", half_rings[0], 3, 5),
        _dihedral_job(rng, "bar.dihedral.w3n4", half_rings[1], 3, 4),
    ]


ZBAR = {"fixed": [0], "underlying": [0], "res": [[1]], "tr": [[2]], "sigma": [[1]]}
MACKEY = {  # name -> (diagram, coker(tr) = geometric fixed points)
    "Zbar": (ZBAR, (2,)),
    "Zbar*": ({"fixed": [0], "underlying": [0], "res": [[2]], "tr": [[1]], "sigma": [[1]]}, ()),
    "Zbar[C2]": ({"fixed": [0], "underlying": [0, 0], "res": [[1], [1]], "tr": [[1, 1]],
                  "sigma": [[0, 1], [1, 0]]}, ()),
    "A": ({"fixed": [0, 0], "underlying": [0], "res": [[1, 2]], "tr": [[0], [1]],
           "sigma": [[1]]}, (0,)),
}


def sweep_jobs(rng):
    jobs = []

    def add(name, argv, check, source):
        jobs.append(Job(name, argv, check, source))

    # Lewis diagrams
    for tag in ("1", "2"):
        m = rng.choice(sorted(MACKEY))
        diagram, _ = MACKEY[m]
        argv, fmt = _cmd(rng, "mackey-show", "--input", _dump(diagram))
        add("sweep.mackey-show." + tag, argv,
            lambda out, fmt=fmt, d=diagram: lewis_check(d["fixed"], d["underlying"])(
                parse_lewis(out, fmt)),
            "groups of the input diagram; Lewis axioms checked on the output")
    m = rng.choice(sorted(MACKEY))
    argv, fmt = _cmd(rng, "phi", "--input", _dump(MACKEY[m][0]))
    add("sweep.phi", argv,
        lambda out, fmt=fmt, want=MACKEY[m][1]: _expect(parse_phi(out, fmt), want),
        "Phi = coker(tr): Zbar -> Z/2, Zbar* -> 0, Zbar[C2] -> 0, Burnside -> Z")
    argv, fmt = _cmd(rng, "box", "--left", _dump(ZBAR), "--right", _dump(ZBAR), fmt="json")
    add("sweep.box.ZZ", argv, lambda out: lewis_check([0], [0])(parse_lewis(out, "json")),
        "Zbar is the unit of the box product; Lewis axioms checked on the output")

    # slice checks on small spheres
    k = rng.choice((1, 2, -1, -2))
    n = k + rng.choice((0, 1))
    argv, fmt = _cmd(rng, "slice-check", "--complex", _dump({"kind": "sigma-sphere", "k": k}),
                     "--n", str(n))
    add("sweep.slice.conn", argv,
        lambda out, fmt=fmt, want=slice_connective(k, n): _expect(parse_slice(out, fmt), want),
        "n-connective iff n <= min(k, 0) (criterion 4)")
    k = rng.choice((-1, -2))
    argv, fmt = _cmd(rng, "slice-check", "--complex", _dump({"kind": "sigma-sphere", "k": k}),
                     "--n", str(k), flags=["--coconnective"])
    add("sweep.slice.cocon", argv,
        lambda out, fmt=fmt: _expect(parse_slice(out, fmt), "passes-necessary-conditions"),
        "S^{k sigma}, k <= 0, is a k-slice cell: k-coconnective")

    # Tambara functors (json: the pretty form repeats the same fields)
    for tag, kind, base, trunc in (("free", "free", rng.choice(("Z", "Q")), 8),
                                   ("free-trunc", "free", rng.choice(("Z", "Q")), 6),
                                   ("trivial-Zm", "trivial", rng.choice(("Z/4", "Z/6")), 6)):
        argv, _ = _cmd(rng, "tambara-free", "--kind", kind, "--base", base,
                       "--trunc", str(trunc), fmt="json")
        if kind == "free":
            want = {"underlying": ["x", "x_s"], "cohomological": True,
                    "fixed_generators": sorted(["t_%d" % i for i in range(1, trunc + 1)] + ["x_N"]),
                    "t_relations": [{"i": i, "j": j, "holds": True}
                                    for i in range(1, min(4, trunc // 2) + 1)
                                    for j in range(1, i + 1)]}
        else:
            want = {"underlying": ["x"], "cohomological": True, "fixed_generators": ["x"]}
        add("sweep.tambara." + tag, argv,
            lambda out, want=want: _expect({k: json.loads(out).get(k) for k in want}, want),
            "criterion 5: k[x,x_s]^C2 generated by t_i = x^i + x_s^i and x_N, "
            "t_i t_j = t_{i+j} + x_N^j t_{i-j}; fixed-point functors are cohomological")

    # cotangent complexes (criterion 6 tables)
    base = rng.choice(("Z", "Q"))
    argv, _ = _cmd(rng, "cotangent", "--algebra", algebra(base, [("x", "x")]), fmt="json")
    add("sweep.cotangent.trivial", argv,
        lambda out: _expect(json.loads(out), {"generators": ["dx"], "reduced_generators": ["dx"],
                                              "reduced_relations": [], "relations": {},
                                              "sigma": {"dx": "(1)dx"}}),
        "criterion 6: L(k[x]) = k[x]{dx}, sigma dx = dx")
    argv, _ = _cmd(rng, "cotangent", "--algebra",
                   algebra(rng.choice(("Z", "Q")), FREE_GENS), fmt="json")
    add("sweep.cotangent.free", argv,
        lambda out: _expect(json.loads(out), {"generators": ["dx", "dx_s"],
                                              "reduced_generators": ["dx", "dx_s"],
                                              "reduced_relations": [], "relations": {},
                                              "sigma": {"dx": "(1)dx_s", "dx_s": "(1)dx"}}),
        "criterion 6: L(k[x,x_s]) = k[x,x_s] (x) C2 on dx, dx_s")
    d, c = rng.choice(((3, "- 1"), (3, "+ 1"), (5, "- 1")))
    rel = "y^2 - x^%d %s" % (d, c)
    argv, _ = _cmd(rng, "cotangent", "--algebra",
                   algebra("Z", [("x", "x"), ("y", "-y")], [rel]), fmt="json")
    add("sweep.cotangent.hyperelliptic", argv,
        lambda out, d=d: _expect(
            {k: json.loads(out)[k] for k in ("reduced_generators", "reduced_relations")},
            {"reduced_generators": ["dy", "dx"],
             "reduced_relations": [{"dx": "-%d*x^%d" % (d, d - 1), "dy": "2*y"}]}),
        "criterion 6: y^2 = f(x) gives the relation 2y dy - f'(x) dx")

    # de Rham cohomology of k[x]
    W = rng.choice((4, 5))
    for tag, base in (("Z", "Z"), ("Q", "Q"), ("F3", "Z/3")):
        top = W if base != "Z/3" else 3
        argv, fmt = _cmd(rng, "derham", "--algebra", algebra(base, [("x", "x")]),
                         "--imax", "1", "--maxweight", str(top))
        want = {}
        for w in range(top + 1):
            if base == "Z":
                h0, h1 = ((0,) if w == 0 else ()), ((w,) if w >= 2 else ())
            elif base == "Q":
                h0, h1 = ((0,) if w == 0 else ()), ()
            else:
                h0 = (3,) if w % 3 == 0 else ()
                h1 = (3,) if w % 3 == 0 and w else ()
            want[(w, 0)] = (h0, 1)
            want[(w, 1)] = (h1, 1 if w else 0)
        add("sweep.derham." + tag, argv,
            lambda out, fmt=fmt, want=want: _expect(parse_derham(out, fmt), want),
            "d x^w = w x^{w-1} dx: H^0 = k at w = 0, H^1_w = k/w (Z/w over Z, 0 over Q, "
            "F_3 iff 3 | w over F_3)")

    # HR graded pieces (criterion 7), json so the matrices are checked too
    for kind, gens in (("trivial", [("x", "x")]), ("free", FREE_GENS)):
        i = rng.choice((0, 1))
        w = rng.choice((1, 2, 3))
        argv, _ = _cmd(rng, "hr-gr", "--algebra", algebra("Z", gens), "--i", str(i),
                       "--weight", str(w), fmt="json")
        if kind == "trivial":
            want = {0: ((0,), (0,))} if i == 0 else {1: ((), (0,)), 0: ((2,), ())}
        else:
            want = ({0: ((0,) * (w // 2 + 1), (0,) * (w + 1))} if i == 0
                    else {1: ((0,) * w, (0,) * (2 * w))})
        add("sweep.hr-gr." + kind, argv, hr_gr_check(want),
            "criterion 7 tables: gr^0 = the weight piece, gr^1 = Zsign + (Z/2 at C2) "
            "(trivial) or induced Z^w (free)")

    w = rng.choice((3, 4))
    argv, _ = _cmd(rng, "hr-gr", "--algebra", algebra("Z", FREE_GENS),
                   "--i", "2", "--weight", str(w), fmt="json")
    want = {2: ((0,), (0,) * (w - 1))}
    if w % 2 == 0:
        want[1] = ((2,), ())
    add("sweep.hr-gr.free-i2", argv, hr_gr_check(want),
        "criterion 7: gr^2 of k[x,x_s] at weight w is (w-1)//2 induced blocks plus Zsign "
        "when w is even in degree 2, and Z/2 at C2 in degree 1 when w is even")

    # Hochschild homology, rings with rewrite rules and Z/m
    def hh(name, base, gens, rels, nmax, want, source, weight=None):
        opts = ["--algebra", algebra(base, gens, rels), "--nmax", str(nmax)]
        if weight is not None:
            opts += ["--weight", str(weight)]
        argv, fmt = _cmd(rng, "hh", *opts)
        add(name, argv, lambda out, fmt=fmt: _expect(parse_hh(out, fmt), want), source)

    periodic = "2-periodic resolution of k[x]/(f): HH_0 = A, HH_odd = A/(f'), HH_even = Ann(f')"
    hh("sweep.hh.F3", "Z/3", [], [], 2, [(3,), (), ()], "HH of a field: HH_0 = k, HH_n = 0")
    hh("sweep.hh.F2-dual", "Z/2", [("x", "x")], ["x^2"], 3, [(2, 2)] * 4,
       periodic + "; f' = 2x = 0 in char 2")
    hh("sweep.hh.Q-dual", "Q", [("x", "x")], ["x^2"], 3, [(0, 0), (0,), (0,), (0,)],
       periodic + "; over Q: ranks 2, 1, 1, 1, no torsion")
    hh("sweep.hh.Z-dual", "Z", [("x", rng.choice(("x", "-x")))], ["x^2"], 3,
       [(0, 0), (2, 0), (0,), (2, 0)], periodic + "; over Z: A/(2x) = Z + Z/2, Ann(2x) = (x)")
    hh("sweep.hh.Z-gauss", "Z", [("x", "-x")], ["x^2 + 1"], 3,
       [(0, 0), (2, 2), (), (2, 2)], periodic + "; f' = 2x: A/(2x) = (Z/2)^2, Ann(2x) = 0")
    w = rng.choice((2, 3))
    hh("sweep.hh.kx", rng.choice(("Z", "Q", "Z[1/2]")), [("x", "x")], [], 3,
       [(0,), (0,), (), ()], "HKR: HH_*(k[x]) = Omega^*, one monomial per weight", weight=w)
    jobs.append(_hh_job(rng, "sweep.hh.Z12-free", "Z[1/2]", 2, 2))

    # dihedral homology
    nmax = rng.choice((4, 5))
    argv, fmt = _cmd(rng, "dihedral", "--algebra", algebra(rng.choice(("Q", "Z[1/2]")), []),
                     "--nmax", str(nmax))
    want = ([1 - n % 2 for n in range(nmax + 1)], [int(n % 4 == 0) for n in range(nmax + 1)],
            [int(n % 4 == 2) for n in range(nmax + 1)])
    add("sweep.dihedral.ground", argv,
        lambda out, fmt=fmt, want=want: _expect(parse_dihedral(out, fmt), want),
        "HC_*(k) = k[u], |u| = 2; the involution acts on u^i by (-1)^i (Loday, Cyclic Homology)")
    argv, fmt_f3 = _cmd(rng, "dihedral", "--algebra",
                        algebra("Z/3", [("x", "-x")], ["x^2"]), "--nmax", "3")

    def hd_sum(out):
        hc, hd, hdp = parse_dihedral(out, fmt_f3)
        bad = [n for n in range(len(hc)) if hd[n] + hdp[n] != hc[n]]
        return "HD + HD' != HC in degrees %s" % bad if bad else None
    add("sweep.dihedral.F3-dual", argv, hd_sum, "HD + HD' = HC when 1/2 is in k")
    w = rng.choice((2, 3))
    argv, fmt_kx = _cmd(rng, "dihedral", "--algebra", algebra("Q", [("x", "x")]),
                        "--weight", str(w), "--nmax", "3")
    add("sweep.dihedral.kx", argv,
        lambda out: _expect(parse_dihedral(out, fmt_kx),
                            ([1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0])),
        "HC of Q[x] in weight w >= 1 is x^w in degree 0 (d is onto), fixed by sigma")
    return jobs


def make_jobs(workload, seed):
    rng = random.Random("%s:%d" % (workload, seed))
    jobs = {"sphere": sphere_jobs, "bar": bar_jobs, "sweep": sweep_jobs}[workload](rng)
    rng.shuffle(jobs)
    return jobs
