"""0/1-valued product polynomials used as boundary and collapse certificates.

A certificate is a product of factors, each either a coordinate x_c or its
complement 1 - x_c.  On 0/1 points every factor, hence the product, takes
value 0 or 1.  For tour ground sets the coordinates are the edges of K_n in
lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from tsppsd.cycles import Edge, all_edges, edge_index


@dataclass(frozen=True)
class CertificatePolynomial:
    kind: str  # monomial-product | one-minus-edge-product | zero-one-product
    factors: tuple[tuple[int, bool], ...]  # (coordinate, complemented)

    @property
    def degree(self) -> int:
        return len(self.factors)

    def evaluate(self, point: Sequence[Fraction | int]) -> Fraction:
        val = Fraction(1)
        for c, complemented in self.factors:
            x = point[c]
            val *= (1 - x) if complemented else x
            if val == 0:
                return Fraction(0)
        return val

    def factor_edges(self, n: int) -> tuple[tuple[Edge, bool], ...]:
        universe = all_edges(n)
        return tuple((universe[c], comp) for c, comp in self.factors)


def edge_monomial(n: int, edges: Iterable[Edge]) -> CertificatePolynomial:
    """Product of plain edge variables."""
    factors = tuple((edge_index(e, n), False) for e in edges)
    return CertificatePolynomial("monomial-product", factors)


def one_minus_edge(n: int, e: Edge) -> CertificatePolynomial:
    return CertificatePolynomial(
        "one-minus-edge-product", ((edge_index(e, n), True),)
    )
