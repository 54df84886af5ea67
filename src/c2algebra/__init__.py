"""Exact-arithmetic engine for C2-equivariant algebra.

Modules:
  abelian        Hermite and Smith normal forms, f.g. abelian groups
  chains         homology of complexes of free modules over a base ring
  polyring       presented polynomial rings over Z, Z[1/2], Q, Z/m, involutions
  mackey         C2-Mackey functors as Lewis diagrams, maps of presented groups
  slices         complexes of Zbar and ZbarC2 cells, regular-slice checks
  complexes      chain complexes of Mackey functors, sign-sphere shifts
  tambara        Green/Tambara structure, norms, free involutive algebras
  koszul         the small Hochschild complex of rings split by variable
  trace          real Hochschild homology at the chain level
  differentials  involutive cotangent modules and de Rham complexes
  mackey_json    JSON of Mackey functors
  algebra_json   JSON of algebras with involution
  cli            batch front end

The CLI reports an EngineError, the base of every domain error, with exit
code 1 and a ParseError with exit code 2; AbelianError, a malformed input to
the linear algebra, is neither.  They live here because cli runs as
__main__ under python -m, where classes of its own would be copies that the
readers' raises do not match.  AbelianError and NotAComplex live here too,
so that chains raises them without loading abelian, which re-exports them;
so do the two helpers that the JSON readers and the printers of several
commands share, int_matrix and render_invariants.
"""

__version__ = "0.1.0"

# The truncation of Mackey and Tambara computations (tambara-free, hr-gr)
# when MACKEY_TRUNC does not set one.
DEFAULT_TRUNCATION = 8


class EngineError(Exception):
    """A job the engine refuses: the input is well formed, the answer does
    not exist or is not computed."""


class DomainError(EngineError):
    """A refusal found by the front end or a JSON reader."""


class ParseError(Exception):
    """Input that is not well formed: bad JSON, a wrong type or shape."""


class AbelianError(Exception):
    """A malformed input to the linear algebra."""


class NotAComplex(AbelianError):
    """Boundaries whose composite is not zero."""


def int_matrix(rows):
    """A JSON matrix, checked to be a list of rows of integers."""
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)
            and all(type(x) is int for r in rows for x in r)):
        raise ParseError("matrix entries must be integers, got %r" % (rows,))
    return rows


def render_invariants(invs):
    """The printed form of a group given by its invariant factors (0 = Z)."""
    if not invs:
        return "0"
    return " + ".join("Z" if d == 0 else "Z/%d" % d for d in invs)
