"""Operator sums (symbolic Hamiltonians).

An :class:`OpSum` is a list of weighted operator strings, mirroring ITensor's
``AutoMPO``/``OpSum`` interface that the paper uses to build its Hamiltonians
("we use exactly the same MPO ITensor generates by directly using their AutoMPO
functionality").  Terms are added ITensor-style::

    os = OpSum()
    os.add(0.5, "S+", i, "S-", j)
    os += (J2, "Sz", i, "Sz", j)

Fermionic bookkeeping (operator reordering signs and Jordan-Wigner strings) is
performed by :func:`normalize_term`, shared by the MPO builder and the exact
diagonalization cross-check consumers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

from .sites import SiteSet


@dataclass(frozen=True)
class OpFactor:
    """A single named operator acting on one site."""

    name: str
    site: int


@dataclass
class Term:
    """A weighted product of local operators."""

    coefficient: complex
    factors: Tuple[OpFactor, ...]

    def __repr__(self) -> str:  # pragma: no cover
        ops = " ".join(f"{f.name}[{f.site}]" for f in self.factors)
        return f"{self.coefficient} * {ops}"


class OpSum:
    """A sum of operator-string terms."""

    def __init__(self):
        self.terms: List[Term] = []

    def add(self, coefficient, *args) -> "OpSum":
        """Add ``coefficient * Op1[site1] * Op2[site2] * ...``.

        ``args`` alternates operator names (str) and site indices (int),
        exactly like ITensor's AutoMPO ``+=`` syntax.
        """
        if len(args) % 2 != 0:
            raise ValueError("expected alternating (opname, site) arguments")
        factors = []
        for k in range(0, len(args), 2):
            name, site = args[k], args[k + 1]
            if not isinstance(name, str):
                raise TypeError(f"operator name must be str, got {name!r}")
            factors.append(OpFactor(name, int(site)))
        if not factors:
            raise ValueError("a term needs at least one operator")
        self.terms.append(Term(complex(coefficient), tuple(factors)))
        return self

    def __iadd__(self, term: Sequence) -> "OpSum":
        self.add(term[0], *term[1:])
        return self

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __add__(self, other: "OpSum") -> "OpSum":
        out = OpSum()
        out.terms = list(self.terms) + list(other.terms)
        return out


@dataclass
class NormalizedTerm:
    """A term rewritten in site order with Jordan-Wigner strings resolved.

    ``site_ops`` lists ``(site, opname)`` pairs in strictly increasing site
    order; ``jw_sites`` lists the sites strictly between consecutive fermionic
    operators on which the string operator ``F`` must act.  ``coefficient``
    includes any fermionic reordering sign.
    """

    coefficient: complex
    site_ops: List[Tuple[int, str]] = field(default_factory=list)
    jw_sites: List[int] = field(default_factory=list)


def _fermionic_sort_sign(factors: Sequence[OpFactor], parities: Sequence[bool]) -> int:
    """Sign from stably sorting operator factors by site.

    Swapping two odd-parity operators contributes a factor ``-1``; swaps that
    involve an even operator are free.  We count inversions among odd factors
    under a stable sort by site index.
    """
    sign = 1
    order = sorted(range(len(factors)), key=lambda k: (factors[k].site, k))
    # count pairs (a, b) with a before b originally but after sorting b first
    for pos_b, orig_b in enumerate(order):
        for orig_a in order[pos_b + 1:]:
            if orig_a < orig_b and parities[orig_a] and parities[orig_b]:
                sign = -sign
    return sign


def normalize_term(term: Term, sites: SiteSet) -> NormalizedTerm:
    """Rewrite a term in site order, merging same-site factors and JW strings.

    Rules (standard Jordan-Wigner mapping, matching ITensor's AutoMPO):

    * factors are reordered by site; each transposition of two fermionic
      factors flips the sign of the coefficient;
    * factors on the same site are multiplied left-to-right into a composite
      operator name ``"A*B"``;
    * for a pair of fermionic operators at sites ``i < j``, the left operator
      is multiplied by the string on its own site (``"O*F"``) and every site
      strictly between ``i`` and ``j`` carries a string operator ``F``.
    """
    parities = [sites[f.site].is_fermionic(f.name) for f in term.factors]
    n_odd = sum(parities)
    if n_odd % 2 != 0:
        raise ValueError(f"term {term} has odd total fermion parity")
    sign = _fermionic_sort_sign(term.factors, parities)
    ordered = sorted(term.factors, key=lambda f: f.site)

    # merge same-site factors (left-to-right product)
    merged: List[Tuple[int, str, bool]] = []  # (site, opname, parity)
    for f in ordered:
        parity = sites[f.site].is_fermionic(f.name)
        if merged and merged[-1][0] == f.site:
            s, name, p = merged[-1]
            merged[-1] = (s, f"{name}*{f.name}", p ^ parity)
        else:
            merged.append((f.site, f.name, parity))

    # resolve Jordan-Wigner strings: walk left to right keeping track of
    # whether an odd-parity string is currently "open"
    site_ops: List[Tuple[int, str]] = []
    jw_sites: List[int] = []
    open_string = False
    prev_site: int | None = None
    for site, name, parity in merged:
        if open_string and prev_site is not None:
            jw_sites.extend(range(prev_site + 1, site))
        if parity:
            if not open_string:
                # leftmost operator of an odd pair picks up the on-site string
                name = f"{name}*F"
                open_string = True
            else:
                open_string = False
        elif open_string:
            # even operator inside an open string: the string passes through it
            name = f"F*{name}"
        site_ops.append((site, name))
        prev_site = site
    if open_string:
        raise ValueError(f"unbalanced fermionic string in term {term}")
    return NormalizedTerm(term.coefficient * sign, site_ops, jw_sites)


def normalize_opsum(opsum: OpSum, sites: SiteSet) -> List[NormalizedTerm]:
    """Normalize every term of an operator sum."""
    return [normalize_term(t, sites) for t in opsum.terms]


def combine_terms(terms: Iterable[NormalizedTerm], tol: float = 0.0
                  ) -> List[NormalizedTerm]:
    """Merge normalized terms with identical operator content.

    Coefficients of identical operator strings are summed; terms whose
    combined coefficient is smaller than ``tol`` in magnitude are dropped.
    """
    acc: dict[tuple, complex] = {}
    jw: dict[tuple, List[int]] = {}
    for t in terms:
        key = tuple(t.site_ops)
        acc[key] = acc.get(key, 0.0) + t.coefficient
        jw[key] = t.jw_sites
    out = []
    for key, coef in acc.items():
        if abs(coef) > tol:
            out.append(NormalizedTerm(coef, list(key), jw[key]))
    return out
