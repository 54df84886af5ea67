"""Exact polynomial arithmetic for presented commutative rings with involution.

Rings are presented as k[v_1, ..., v_n] / (rewrite rules), where each rule
replaces a pure power v_i^p by a polynomial of strictly smaller v_i-degree.
This covers every quotient the engine needs (x^p = 0, y^2 = f(x),
i^2 = -1, group rings of cyclic groups) without Groebner bases.

Base rings: Z, Z[1/2], Q and Z/m, all with exact, integer-first
arithmetic.  A coefficient is an int: in [0, m) over Z/m, and over Q and
Z[1/2] an int unless a denominator is left, when it is a Fraction;
fractions is imported only then.
BaseRing.coerce is the one conversion into the base.  Polynomials are dicts
monomial-exponent-tuple -> coefficient, kept in normal form; a dict built
outside the ring (parser output, involution images, {monomial: 1}) enters
through PolyRing.normal_form, which coerces each coefficient once.  add,
mul, scale and apply_map take polynomials in normal form and convert
nothing.  apply_map extends in place the tables [1, image, image^2, ...]
that a ring map keeps (RingInvolution, InvolutivePresentation.project), so
each power is computed once per map.  RingInvolution alone reads sigma as a
signed permutation of the variables, and refuses a weight request the
presentation cannot serve (require_weight).
"""

import operator
from math import gcd

from . import EngineError


class RingError(EngineError):
    pass


class UnsupportedPresentation(RingError):
    pass


class TwoNotInvertible(RingError):
    pass


def integer_lift(c):
    """The integer a base-ring coefficient stands for (its residue over Z/m);
    non-integral rationals are refused."""
    if c.denominator != 1:
        raise UnsupportedPresentation("non-integer structure constant %s" % c)
    return int(c.numerator)


class BaseRing:
    """Z, Z[1/2], Q or Z/m.

    An element is an int (in [0, m) over Z/m); over Q and Z[1/2] it is a
    Fraction only when a denominator is left.  coerce is the one conversion
    into the ring; add, mul and neg take elements and return elements."""

    def __init__(self, kind, modulus=None):
        if kind not in ("Z", "Z[1/2]", "Q", "Z/m"):
            raise UnsupportedPresentation("unknown base ring %r" % kind)
        self.kind = kind
        self.modulus = modulus
        if kind == "Z/m":
            if not modulus or modulus < 2:
                raise UnsupportedPresentation("Z/m needs a modulus >= 2")

    def coerce(self, x):
        if self.kind == "Z/m":
            if x.denominator != 1:
                raise RingError("fraction in Z/m")
            return x.numerator % self.modulus
        if type(x) is int:
            return x
        from fractions import Fraction
        x = Fraction(x)
        if x.denominator == 1:
            return x.numerator
        if self.kind == "Z":
            raise RingError("%s is not an integer" % x)
        if self.kind == "Z[1/2]" and not _is_power_of_two(x.denominator):
            raise RingError("%s is not in Z[1/2]" % x)
        return x

    def reduce(self, x):
        """x, a sum or product of elements, as an element: reduced mod m
        over Z/m, an integral Fraction as its int."""
        if self.kind == "Z/m":
            return x % self.modulus
        if type(x) is not int and x.denominator == 1:
            return x.numerator
        return x

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return self.reduce(a + b)

    def mul(self, a, b):
        return self.reduce(a * b)

    def neg(self, a):
        return self.reduce(-a)

    def is_unit(self, c):
        """Whether the element c is invertible: +-1 over Z, +-2^k over
        Z[1/2], c != 0 over Q, gcd(c, m) = 1 over Z/m."""
        if self.kind == "Z/m":
            return gcd(c, self.modulus) == 1
        if self.kind == "Q":
            return c != 0
        if self.kind == "Z":
            return c in (1, -1)
        return _is_power_of_two(abs(c.numerator))

    def inverse(self, c):
        if not self.is_unit(c):
            raise RingError("%s is not a unit in %r" % (_coeff_str(c), self))
        if self.kind == "Z/m":
            return pow(c, -1, self.modulus)
        if c in (1, -1):
            return c
        from fractions import Fraction
        return self.coerce(1 / Fraction(c))

    @property
    def two_invertible(self):
        if self.kind in ("Q", "Z[1/2]"):
            return True
        if self.kind == "Z/m":
            return self.modulus % 2 == 1
        return False

    def __str__(self):
        return self.kind if self.kind != "Z/m" else "Z/%d" % self.modulus

    def __repr__(self):
        return "BaseRing(%s)" % self

    def __eq__(self, other):
        return (isinstance(other, BaseRing) and self.kind == other.kind
                and self.modulus == other.modulus)

    @classmethod
    def parse(cls, text):
        text = text.strip()
        if text in ("Z", "ZZ"):
            return cls("Z")
        if text in ("Q", "QQ"):
            return cls("Q")
        if text in ("Z[1/2]", "Z1/2"):
            return cls("Z[1/2]")
        if text.startswith("Z/"):
            try:
                modulus = int(text[2:])
            except ValueError:
                raise UnsupportedPresentation("Z/m needs an integer modulus, got %r" % text)
            return cls("Z/m", modulus=modulus)
        raise UnsupportedPresentation("unsupported base ring %r" % text)


class PolyRing:
    """k[vars] with monic power rewrite rules.

    rules: {var_index: (power, replacement poly dict)}; the replacement must
    have v_i-degree < power, and rule dependencies must be acyclic.
    weights: per-variable positive weights for graded enumeration (None for
    ungraded variables).
    """

    def __init__(self, base, names, rules=None, weights=None):
        self.base = base
        self.names = list(names)
        self.n = len(self.names)
        self.rules = {i: (p, {m: base.coerce(c) for m, c in repl.items()})
                      for i, (p, repl) in (rules or {}).items()}
        self.weights = list(weights) if weights is not None else [1] * self.n
        for i, (p, repl) in self.rules.items():
            if p < 1:
                raise UnsupportedPresentation("rule power must be >= 1")
            for mono in repl:
                if mono[i] >= p:
                    raise UnsupportedPresentation(
                        "rule for %s does not lower its degree" % self.names[i])
        self._check_acyclic()

    def _check_acyclic(self):
        deps = {}
        for i, (_p, repl) in self.rules.items():
            deps[i] = set()
            for mono in repl:
                for j, e in enumerate(mono):
                    if e and j in self.rules and j != i:
                        deps[i].add(j)
        seen, stack = set(), set()

        def visit(i):
            if i in stack:
                raise UnsupportedPresentation("cyclic rewrite rules")
            if i in seen:
                return
            stack.add(i)
            for j in deps.get(i, ()):
                visit(j)
            stack.discard(i)
            seen.add(i)

        for i in deps:
            visit(i)

    # -- polynomial plumbing -------------------------------------------------

    def zero_poly(self):
        return {}

    def one_poly(self):
        return {(0,) * self.n: self.base.one()}

    def var(self, i):
        mono = [0] * self.n
        mono[i] = 1
        return {tuple(mono): self.base.one()}

    def var_named(self, name):
        return self.var(self.names.index(name))

    def const(self, c):
        c = self.base.coerce(c)
        return {(0,) * self.n: c} if c != 0 else {}

    def monomial_weight(self, mono):
        return sum(map(operator.mul, mono, self.weights))

    def normal_form(self, poly):
        """The element a dict monomial -> coefficient stands for: each
        coefficient coerced into the base and the rules applied.  The entry
        point for dicts built outside the ring; add, mul, scale and apply_map
        take elements."""
        base = self.base
        out = {}
        work = list(poly.items())
        while work:
            mono, coeff = work.pop()
            coeff = base.coerce(coeff)
            if coeff == 0:
                continue
            hit = None
            for i, (p, repl) in self.rules.items():
                if mono[i] >= p:
                    hit = (i, p, repl)
                    break
            if hit is None:
                c = base.add(out.get(mono, 0), coeff)
                if c == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = c
                continue
            i, p, repl = hit
            rest = list(mono)
            rest[i] -= p
            for rm, rc in repl.items():
                newmono = tuple(map(operator.add, rest, rm))
                work.append((newmono, base.mul(coeff, rc)))
        return out

    def _settle(self, raw):
        """Sums of products of coefficients, on monomials already in normal
        form, brought back into the base (mod m, integral Fractions as ints)
        without their zero terms."""
        reduce = self.base.reduce
        out = {}
        for m, c in raw.items():
            c = reduce(c)
            if c != 0:
                out[m] = c
        return out

    def add(self, a, b):
        out = dict(a)
        for m, c in b.items():
            s = self.base.add(out.get(m, 0), c)
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return out

    def scale(self, c, a):
        c = self.base.coerce(c)
        if c == 0:
            return {}
        return self._settle({m: c * x for m, x in a.items()})

    def neg(self, a):
        return {m: self.base.neg(c) for m, c in a.items()}

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(map(operator.add, m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return self.normal_form(out) if self.rules else self._settle(out)

    def pow(self, a, e):
        """a^e for an integer e >= 0, by repeated squaring."""
        out = self.one_poly()
        while e:
            if e & 1:
                out = self.mul(out, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return out

    def is_zero(self, a):
        return not self.normal_form(a)

    def equal(self, a, b):
        return self.is_zero(self.sub(a, b))

    def apply_map(self, poly, powers):
        """Ring map fixing the base, v_i -> powers[i][1] (polys in this ring).
        powers[i] is the table [1, image, image^2, ...] owned by the map,
        extended here in place, so each power is computed once per map; each
        monomial's image is the product of powers of the images."""
        out = {}
        for mono, coeff in poly.items():
            term = None
            for table, e in zip(powers, mono):
                if e:
                    while len(table) <= e:
                        table.append(self.mul(table[-1], table[1]))
                    term = table[e] if term is None else self.mul(term, table[e])
            out = self.add(out, self.const(coeff) if term is None else self.scale(coeff, term))
        return out

    # -- bases ---------------------------------------------------------------

    def is_finite_dimensional(self):
        return all(i in self.rules for i in range(self.n)) or self.n == 0

    def splits_by_variable(self):
        """Whether the ring is the tensor product over the base of its
        one-variable rings: every rule rewrites x_i^p into a polynomial in
        x_i alone."""
        return not any(e for i, (_p, repl) in self.rules.items()
                       for m in repl for j, e in enumerate(m) if j != i)

    def monomial_basis_all(self):
        """All normal-form monomials; requires every variable to be ruled."""
        if not self.is_finite_dimensional():
            raise UnsupportedPresentation("ring is not finite dimensional")
        out = [(0,) * self.n]
        for i in range(self.n):
            p = self.rules[i][0]
            out = [m[:i] + (e,) + m[i + 1:] for m in out for e in range(p)]
        return sorted(out)

    def monomial_basis_weight(self, w):
        """Normal-form monomials of weight w (positive weights required)."""
        if any(wt <= 0 for wt in self.weights):
            raise UnsupportedPresentation("weight enumeration needs positive weights")
        out = []

        def rec(i, rem, acc):
            if i == self.n:
                if rem == 0:
                    out.append(tuple(acc))
                return
            cap = rem // self.weights[i]
            if i in self.rules:
                cap = min(cap, self.rules[i][0] - 1)
            for e in range(cap + 1):
                rec(i + 1, rem - e * self.weights[i], acc + [e])

        rec(0, w, [])
        return sorted(out)

    def monomial_string(self, mono):
        parts = []
        for name, e in zip(self.names, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append("%s^%d" % (name, e))
        return "*".join(parts) if parts else "1"

    def poly_string(self, poly):
        if not poly:
            return "0"
        terms = []
        for mono in sorted(poly):
            c = poly[mono]
            ms = self.monomial_string(mono)
            if ms == "1":
                terms.append(_coeff_str(c))
            elif c == 1:
                terms.append(ms)
            elif c == -1:
                terms.append("-" + ms)
            else:
                terms.append("%s*%s" % (_coeff_str(c), ms))
        out = terms[0]
        for t in terms[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out


def _is_power_of_two(n):
    return n > 0 and n & (n - 1) == 0


def _coeff_str(c):
    if c.denominator == 1:
        return str(c.numerator)
    return str(c)


class RingInvolution:
    """Order <= 2 ring automorphism given by images of the variables: the one
    place where sigma is read (signed_permutation) and applied (__call__,
    through power tables of the images kept across calls)."""

    def __init__(self, ring, images):
        self.ring = ring
        self.images = [ring.normal_form(img) for img in images]
        if len(self.images) != ring.n:
            raise UnsupportedPresentation("involution needs one image per variable")
        self._powers = [[ring.one_poly(), img] for img in self.images]

    def __call__(self, poly):
        return self.ring.apply_map(poly, self._powers)

    def signed_permutation(self):
        """[(k, u) for each generator j with sigma(v_j) = u v_k, u a unit
        lifted by integer_lift, or None at a generator whose image is not a
        unit times one variable]."""
        out = []
        for img in self.images:
            mono, c = next(iter(img.items())) if len(img) == 1 else ((), 0)
            ok = sum(mono) == 1 and self.ring.base.is_unit(c)
            out.append((mono.index(1), integer_lift(c)) if ok else None)
        return out

    def require_weight(self, weight, halves=False):
        """Refuse a job at this weight (None: on the whole algebra) that the
        presentation cannot serve, in this order: a ring that is not finite
        dimensional needs a weight; a job that halves (the dihedral
        splitting) needs 2 invertible in the base; a weight needs a graded
        presentation, every rule replacement and every sigma-image
        homogeneous of the weight of what it replaces."""
        ring = self.ring
        if weight is None and not ring.is_finite_dimensional():
            raise UnsupportedPresentation("graded algebra: pass --weight")
        if halves and not ring.base.two_invertible:
            raise TwoNotInvertible("2 is not invertible in the base")
        if weight is None:
            return
        for i, (p, repl) in sorted(ring.rules.items()):
            if any(ring.monomial_weight(m) != p * ring.weights[i] for m in repl):
                raise UnsupportedPresentation(
                    "a weight needs a graded ring: the relation %s^%d = %s is not homogeneous"
                    % (ring.names[i], p, ring.poly_string(repl)))
        for i, img in enumerate(self.images):
            if any(ring.monomial_weight(m) != ring.weights[i] for m in img):
                raise UnsupportedPresentation(
                    "a weight needs a graded ring: sigma(%s) = %s is not homogeneous"
                    % (ring.names[i], ring.poly_string(img)))

    def is_involution(self):
        for i in range(self.ring.n):
            twice = self(self.images[i])
            if not self.ring.equal(twice, self.ring.var(i)):
                return False
        return True

    def broken_rule(self):
        """The position, in the order of ring.rules (the order of the
        relations of a parsed algebra), of the first rewrite relation that
        sigma does not carry into the ideal (to 0 after reduction); None when
        sigma preserves them all."""
        for k, (i, (p, repl)) in enumerate(self.ring.rules.items()):
            if not self.ring.equal(self.ring.pow(self.images[i], p), self(dict(repl))):
                return k
        return None

    @classmethod
    def identity(cls, ring):
        return cls(ring, [ring.var(i) for i in range(ring.n)])


# ---------------------------------------------------------------------------
# tiny polynomial expression parser (for CLI / JSON input)

def parse_poly(ring, text):
    """Parse '+', '-', '*', '^', integer constants, parens and variable names."""
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def eat(tok=None):
        t = peek()
        if tok is not None and t != tok:
            raise RingError("expected %r at %r" % (tok, t))
        pos[0] += 1
        return t

    def parse_expr():
        t = parse_term()
        while peek() in ("+", "-"):
            op = eat()
            u = parse_term()
            t = ring.add(t, u) if op == "+" else ring.sub(t, u)
        return t

    def parse_term():
        t = parse_factor()
        while True:
            nxt = peek()
            if nxt == "*":
                eat()
                t = ring.mul(t, parse_factor())
            elif isinstance(nxt, str) and (nxt.isidentifier() or nxt == "("):
                # implicit multiplication: 2x, x y, 3(x+1)
                t = ring.mul(t, parse_factor())
            else:
                return t

    def parse_factor():
        # a sign applies to the whole power: -x^2 is -(x^2)
        if peek() == "-":
            eat()
            return ring.neg(parse_factor())
        if peek() == "+":
            eat()
            return parse_factor()
        t = parse_atom()
        while peek() == "^":
            eat()
            e = eat()
            if not (isinstance(e, int) and e >= 0):
                raise RingError("exponent must be a nonnegative integer")
            t = ring.pow(t, e)
        return t

    def parse_atom():
        t = peek()
        if t == "(":
            eat()
            inner = parse_expr()
            eat(")")
            return inner
        if isinstance(t, int):
            eat()
            return ring.const(t)
        if isinstance(t, str) and t.isidentifier():
            eat()
            if t not in ring.names:
                raise RingError("unknown variable %r" % t)
            return ring.var_named(t)
        raise RingError("unexpected token %r" % t)

    out = parse_expr()
    if pos[0] != len(tokens):
        raise RingError("trailing input at %r" % tokens[pos[0]])
    return ring.normal_form(out)


def _tokenize(text):
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(int(text[i:j]))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(text[i:j])
            i = j
        elif c in "+-*^()":
            out.append(c)
            i += 1
        else:
            raise RingError("bad character %r in polynomial" % c)
    return out
