"""Complexes of Zbar and ZbarC2 cells and their regular-slice checks, read
with no Mackey functor.

slice-check reads {"kind": "sigma-sphere", "k": -1} or {"kind": "complex",
"terms": {"0": ["Zbar", "ZbarC2"]}, "diffs": {"1": {"fixed": [[...]],
"underlying": [[...]]}}} with parse_complex into a CellComplex.  Each cell
is free on both levels: Zbar has one generator on each, ZbarC2 one fixed
generator and two underlying ones, e and sigma e, and a sum of cells has
them in cell order.  So each level of a complex of cells is a complex of
free abelian groups, a chains.ChainComplex over Z, and a Mackey map between
sums of cells is a pair of integer matrices (fixed, underlying) that
commute with res, tr and sigma as integer matrices.  The geometric fixed
points Phi C = coker(tr) are F_2 on each Zbar cell and 0 on each ZbarC2
cell, with boundaries the Zbar blocks of the fixed boundaries mod 2 (an
entry ZbarC2 -> Zbar is even, so they compose to 0 mod 2).

S^{k sigma} smashed with zbar is its reduced C2-CW chain complex (Hill-
Hopkins-Ravenel), |k| + 1 cells: Zbar in degree 0 and ZbarC2 in each degree
1..k (k > 0) or -1..k (k < 0).  Outward from degree 0 the differentials are
the fold ZbarC2 -> Zbar (fixed x2) for k > 0 or its dual, the diagonal
Zbar -> ZbarC2 (fixed x1) for k < 0; then 1 - sigma (fixed 0), 1 + sigma
(fixed x2), 1 - sigma, ... between the ZbarC2 cells.
complexes.sign_sphere builds its Mackey complex from these cells.
"""

from itertools import accumulate

from . import DomainError, EngineError, ParseError, int_matrix
from .chains import ChainComplex, elementary_divisors

# each cell has one fixed generator; its underlying rank, and tr on each of
# its underlying generators (e and sigma e on ZbarC2)
UNDERLYING = {"Zbar": 1, "ZbarC2": 2}
TRANSFER = {"Zbar": 2, "ZbarC2": 1}
LEVELS = ("fixed", "underlying")


class SliceError(EngineError):
    pass


class CellComplex:
    """cells: degree -> the names of its cells, in order; diffs: degree n ->
    (fixed, underlying), the integer matrices (lists of rows) of
    d_n : C_n -> C_{n-1} on the two levels.  A missing differential is 0."""

    def __init__(self, cells, diffs):
        self.cells = cells
        self.diffs = diffs
        self._zbar = {}
        self._phi_ranks = {}

    def degrees(self):
        return sorted(self.cells)

    def rank(self, n, which):
        """The rank of C_n on a level: which = 0 fixed, 1 underlying."""
        cells = self.cells.get(n, ())
        return sum(UNDERLYING[c] for c in cells) if which else len(cells)

    def level(self, which):
        """A level as a ChainComplex over Z: which = 0 fixed, 1 underlying."""
        return ChainComplex({n: self.rank(n, which) for n in self.cells},
                            {n: _columns(d[which]) for n, d in self.diffs.items()})

    def zbar_index(self, n):
        """The positions of the Zbar cells of degree n among its cells."""
        if n not in self._zbar:
            self._zbar[n] = [i for i, c in enumerate(self.cells.get(n, ())) if c == "Zbar"]
        return self._zbar[n]

    def phi_rank(self, n):
        """The rank over F_2 of Phi d_n, the Zbar block of the fixed d_n mod
        2: its odd elementary divisors, units included."""
        if n not in self._phi_ranks:
            fixed = self.diffs[n][0] if n in self.diffs else ()
            rows = self.zbar_index(n - 1)
            block = [{i: 1 for i, r in enumerate(rows) if fixed[r][j] % 2}
                     for j in self.zbar_index(n)] if fixed else ()
            rank, divisors = elementary_divisors(block)
            self._phi_ranks[n] = rank - sum(1 for d in divisors if d % 2 == 0)
        return self._phi_ranks[n]

    def phi_homology(self, k):
        """The dimension over F_2 of H_k(Phi C)."""
        return len(self.zbar_index(k)) - self.phi_rank(k) - self.phi_rank(k + 1)


def _columns(rows):
    """The sparse columns of a matrix given as its rows."""
    return [{i: r[j] for i, r in enumerate(rows) if r[j]}
            for j in range(len(rows[0]))] if rows else []


def sign_sphere(k):
    """S^{k sigma} smashed with zbar, k any integer (see the module
    docstring): the cells from degree max(k, 0) down, the differentials
    outward from degree 0."""
    cells = {n: ("ZbarC2",) if n else ("Zbar",)
             for n in range(max(k, 0), min(k, 0) - 1, -1)}
    diffs = {}
    for m in range(1, abs(k) + 1):  # joins the cells in degrees +-(m - 1), +-m
        if m == 1:
            d = ([[2]], [[1, 1]]) if k > 0 else ([[1]], [[1], [1]])
        elif m % 2 == 0:
            d = [[0]], [[1, -1], [-1, 1]]
        else:
            d = [[2]], [[1, 1], [1, 1]]
        diffs[m if k > 0 else 1 - m] = d
    return CellComplex(cells, diffs)


# ---------------------------------------------------------------------------
# the JSON reader

def parse_complex(data):
    """The CellComplex of a JSON complex.  Malformed input raises
    ParseError; a differential that is not a Mackey map, or d o d != 0,
    DomainError, checked degree by degree in the order of "diffs"."""
    unknown = set(data) - {"kind", "k", "terms", "diffs"}
    if unknown:
        raise ParseError("unknown fields in complex: %s" % sorted(unknown))
    kind = data.get("kind")
    if kind == "sigma-sphere":
        k = data.get("k", 0)
        if type(k) is not int:
            raise ParseError("k must be an integer, got %r" % (k,))
        return sign_sphere(k)
    if kind != "complex":
        raise ParseError("unknown complex kind %r" % kind)
    C = CellComplex({}, {})
    for deg, cells in _degree_items(data, "terms"):
        if not isinstance(cells, list):
            raise ParseError("cells at degree %d must be a list, got %r" % (deg, cells))
        for c in cells:
            if type(c) is not str or c not in UNDERLYING:
                raise ParseError("unknown cell %r (use Zbar or ZbarC2)" % (c,))
        C.cells[deg] = tuple(cells)
    for n, mats in _degree_items(data, "diffs"):
        if n not in C.cells or (n - 1) not in C.cells:
            raise ParseError("differential at %d has no source or target" % n)
        try:
            C.diffs[n] = tuple(_shaped(int_matrix(mats[name]), C.rank(n - 1, which),
                                       C.rank(n, which))
                               for which, name in enumerate(LEVELS))
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError("malformed differential at %d: %s" % (n, e))
    for n, (fixed, und) in C.diffs.items():
        if not _is_mackey_map(fixed, und, C.cells[n], C.cells[n - 1]):
            raise DomainError("differential at degree %d is not a Mackey map" % n)
        if n - 1 in C.diffs and not all(map(_composes_to_zero, C.diffs[n - 1], C.diffs[n])):
            raise DomainError("d o d != 0 at degree %d" % n)
    return C


def _degree_items(data, field):
    """The (degree, value) pairs of a complex's "terms" or "diffs" object."""
    obj = data.get(field, {})
    if not isinstance(obj, dict):
        raise ParseError("%s must be an object keyed by degree" % field)
    try:
        items = [(int(key), value) for key, value in obj.items()]
    except ValueError as e:
        raise ParseError("%s keys must be integer degrees: %s" % (field, e))
    if len({n for n, _ in items}) < len(items):
        raise ParseError("%s names a degree twice: %s" % (field, sorted(obj)))
    return items


def _shaped(rows, nrows, ncols):
    """rows, checked to have the shape nrows x ncols; [] is the zero map."""
    if not rows:
        return [[0] * ncols for _ in range(nrows)]
    if len(rows) != nrows:
        raise ValueError("matrix has %d rows, target has %d generators" % (len(rows), nrows))
    if any(len(r) != ncols for r in rows):
        raise ValueError("matrix column count != source generators")
    return rows


def _is_mackey_map(F, U, source, target):
    """Whether the fixed and underlying matrices F, U of a map between the
    sums of cells source and target commute with res and tr, block by
    block: res F = U res and F tr = tr U, res sending the fixed generator of
    a cell to the sum of its underlying ones and tr each of those to
    TRANSFER times the fixed one.  sigma U = U sigma follows on these cells."""
    gens_s, gens_t = _underlying_gens(source), _underlying_gens(target)
    for i, rows in enumerate(gens_t):
        for j, cols in enumerate(gens_s):
            a, t_s, t_t = F[i][j], TRANSFER[source[j]], TRANSFER[target[i]]
            if any(sum(U[r][c] for c in cols) != a for r in rows) or \
                    any(a * t_s != t_t * sum(U[r][c] for r in rows) for c in cols):
                return False
    return True


def _underlying_gens(cells):
    """The underlying generators of each cell of a sum of cells."""
    ends = accumulate(UNDERLYING[c] for c in cells)
    return [range(end - UNDERLYING[c], end) for c, end in zip(cells, ends)]


def _composes_to_zero(A, B):
    """Whether the integer matrices A B = 0."""
    return not any(sum(a * b for a, b in zip(row, col)) for row in A for col in zip(*B))


# ---------------------------------------------------------------------------
# regular-slice checks

def is_regular_slice_connective(C, n):
    """True iff H_k(C^e) = 0 for k < n and H_k(Phi C) = 0 for k < ceil(n/2).
    Phi is read only in the degrees it checks."""
    degs = C.degrees()
    if not degs:
        return True
    lo, hi = degs[0], degs[-1]
    und = C.level(1)
    if any(und.invariants(k) for k in range(lo, min(n, hi + 1))):
        return False
    return not any(C.phi_homology(k) for k in range(lo, min(-((-n) // 2), hi + 1)))  # ceil(n/2)


def is_regular_slice_coconnective(C, n):
    """Necessary conditions only: H_k(C^e) = 0 for k > n and
    H_k(C^{C2}) = 0 for k > floor(n/2).  Returns "passes-necessary-conditions"
    or "fails"."""
    if n > 0:
        raise SliceError("coconnectivity check is stated for n <= 0")
    degs = C.degrees()
    if not degs:
        return "passes-necessary-conditions"
    und, fixed = C.level(1), C.level(0)
    # below its lowest degree C has no homology; n <= 0, so n <= floor(n/2)
    for k in range(max(n + 1, degs[0]), degs[-1] + 2):
        if und.invariants(k) or (k > n // 2 and fixed.invariants(k)):
            return "fails"
    return "passes-necessary-conditions"
