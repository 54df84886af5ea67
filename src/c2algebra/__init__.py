"""Exact-arithmetic engine for C2-equivariant algebra.

Subpackages:
  abelian        exact integer linear algebra (SNF, homology)
  mackey         C2-Mackey functors as Lewis diagrams
  complexes      chain complexes of Mackey functors, sign-sphere shifts
  tambara        Green/Tambara structure, norms, free involutive algebras
  trace          real Hochschild homology at the chain level
  differentials  involutive cotangent modules and de Rham complexes
  cli            batch front end

EngineError is the base of every domain error the layers raise (RingError,
MackeyError, ComplexError, TambaraError, TraceError, DifferentialError); the
CLI reports any of them with exit code 1.  AbelianError, a malformed input to
the linear algebra, stays outside it.
"""

__version__ = "0.1.0"

# The truncation of Mackey and Tambara computations (tambara-free, hr-gr)
# when MACKEY_TRUNC does not set one.
DEFAULT_TRUNCATION = 8


class EngineError(Exception):
    """A job the engine refuses: the input is well formed, the answer does
    not exist or is not computed."""
