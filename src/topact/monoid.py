"""Finite monoids and semigroup homomorphisms.

Elements are indexed 0..n-1 and carry stable user-supplied names; all
computation uses indices, the I/O layer translates names.  Values are
immutable after validation, so everything here is a pure function and safe
for concurrent use.  The package's one generating-set routine and its one
associativity scan live here.

A FiniteMonoid holds one mutable store, `r0s`: the least open congruences
found on it so far, one object per class map, which
congruences.least_open_congruence fills.  It holds only two-sided
congruences of this monoid, so it is bounded by their count, and it changes
no answer: a class map always gets an equal congruence, stored or not.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import InternalCheckError, TopactError
from .util import filled_once


class BadShape(TopactError):
    """Table or map is not total over the element range."""


class NonAssociative(TopactError):
    def __init__(self, a: int, b: int, c: int):
        super().__init__(f"(a·b)·c != a·(b·c) at indices ({a}, {b}, {c})")
        self.triple = (a, b, c)


class NoIdentity(TopactError):
    """The declared identity is not two-sided neutral."""


class NotMultiplicative(TopactError):
    def __init__(self, a: int, b: int):
        super().__init__(f"map(a·b) != map(a)·map(b) at indices ({a}, {b})")
        self.pair = (a, b)


class NotIdempotent(TopactError):
    def __init__(self, e: int):
        super().__init__(f"element {e} is not idempotent")
        self.element = e


class MismatchedHoms(TopactError):
    """Conjugations need two homs with a common source and target."""


@dataclass(frozen=True, eq=False)
class FiniteMonoid:
    """Named elements, a total multiplication table and an identity index.

    table[a][b] is the index of the product of elements a and b.  Equality
    compares all three fields; the hash is computed once, on first use, from
    the table and the identity, which equal monoids share.  So is the
    transposed table, columns[b][a] = table[a][b].
    """

    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    identity: int

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.identity == other.identity and self.elements == other.elements
                and self.table == other.table)

    def __hash__(self) -> int:
        # hand-written, not util.filled_once: CPython 3.11 does not specialise
        # a read that shadows a descriptor on the type, which slowed a filled
        # hash(m) by about a fifth; integers only, so the value does not
        # depend on string hashing
        try:
            return self._hash
        except AttributeError:
            value = hash((self.table, self.identity))
            object.__setattr__(self, "_hash", value)
            return value

    @filled_once
    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.table))

    @filled_once
    def dual(self) -> "FiniteMonoid":
        """The opposite monoid, built once: its table is these columns, its
        columns this table, and its own dual this monoid."""
        op = FiniteMonoid(self.elements, self.columns, self.identity)
        object.__setattr__(op, "columns", self.table)
        object.__setattr__(op, "dual", self)
        return op

    @filled_once
    def r0s(self) -> dict:
        """Class map -> the one stored least open congruence with it (see
        the module docstring)."""
        return {}

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def index(self, name: str) -> int:
        return self.elements.index(name)

    def is_commutative(self) -> bool:
        return self.table == self.columns

    def __repr__(self) -> str:
        return f"FiniteMonoid({'|'.join(self.elements)})"


@dataclass(frozen=True)
class SemigroupHom:
    """A multiplicative map between monoids; need not preserve the identity."""

    source: FiniteMonoid
    target: FiniteMonoid
    map: tuple[int, ...]
    preserves_identity: bool

    def __call__(self, a: int) -> int:
        return self.map[a]

    def then(self, other: "SemigroupHom") -> "SemigroupHom":
        """self followed by other, multiplicative as a composite of
        multiplicative maps."""
        if other.source is not self.target and other.source != self.target:
            raise MismatchedHoms("cannot compose: target/source mismatch")
        m = tuple(other.map[v] for v in self.map)
        return SemigroupHom(self.source, other.target, m,
                            m[self.source.identity] == other.target.identity)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{self.source.elements[a]}->{self.target.elements[v]}"
                          for a, v in enumerate(self.map))
        return f"SemigroupHom({pairs})"


def validate_monoid(elements: Sequence[str], table: Sequence[Sequence[int]],
                    identity: int) -> FiniteMonoid:
    """Check shape, neutrality and associativity; return the validated monoid.

    Raises BadShape, NoIdentity, or NonAssociative with the first failing
    triple, named by the full scan once Light's test (Clifford & Preston I,
    §1.2) fails: (a·g)·c = a·(g·c) is checked only for g in a generating
    set.  With a neutral identity, the g that pass include 1 and are closed
    under products, (a·(g1·g2))·c = ((a·g1)·g2)·c = (a·g1)·(g2·c)
    = a·(g1·(g2·c)) = a·((g1·g2)·c), so all of M passes."""
    names = tuple(elements)
    n = len(names)
    if len(set(names)) != n:
        raise BadShape("element names are not unique")
    if len(table) != n:
        raise BadShape(f"table has {len(table)} rows for {n} elements")
    for i, row in enumerate(table):
        if len(row) != n:
            raise BadShape(f"row {i} has length {len(row)}, expected {n}")
        for v in row:
            if not (0 <= v < n):
                raise BadShape(f"entry {v} in row {i} out of range")
    tab = tuple(tuple(row) for row in table)
    if not (0 <= identity < n):
        raise BadShape(f"identity index {identity} out of range")
    for a in range(n):
        if tab[identity][a] != a or tab[a][identity] != a:
            raise NoIdentity(f"element {identity} is not neutral at {a}")
    monoid = FiniteMonoid(names, tab, identity)
    for g in generating_set(monoid):
        # a·(g·c) over c is row a gathered at row g (n >= 2, so a tuple)
        gather = operator.itemgetter(*tab[g])
        if any(tab[row_a[g]] != gather(row_a) for row_a in tab):
            triple = first_nonassociative(tab)
            if triple is None:
                raise InternalCheckError("a generator fails Light's test but no triple fails")
            raise NonAssociative(*triple)
    return monoid


def generating_set(monoid: FiniteMonoid, weight: Optional[Sequence[int]] = None) -> list[int]:
    """Each element, in index order or by weight then index, that the
    identity's closure under right multiplication by the generators before
    it does not reach."""
    table, n, generators, reached = monoid.table, monoid.order, [], {monoid.identity}
    for g in range(n) if weight is None else sorted(range(n), key=weight.__getitem__):
        if g in reached:
            continue
        generators.append(g)
        # reached is closed under the earlier generators: only w·g is new
        fresh = {table[w][g] for w in reached} - reached
        while fresh:
            reached |= fresh
            fresh = {table[w][h] for w in fresh for h in generators} - reached
    return generators


def first_nonassociative(table: Sequence[Sequence[int]]) -> Optional[tuple[int, int, int]]:
    """The first triple (a, b, c) with (a·b)·c != a·(b·c), or None."""
    span = range(len(table))
    for a in span:
        row_a = table[a]
        for b in span:
            row_ab, row_b = table[row_a[b]], table[b]
            for c in span:
                if row_ab[c] != row_a[row_b[c]]:
                    return a, b, c
    return None


def validate_hom(source: FiniteMonoid, target: FiniteMonoid,
                 mapping: Sequence[int]) -> SemigroupHom:
    """Check totality and multiplicativity; the identity flag is computed,
    not required (semigroup homs are first-class)."""
    m = tuple(mapping)
    if len(m) != source.order:
        raise BadShape(f"map has {len(m)} entries for {source.order} elements")
    for v in m:
        if not (0 <= v < target.order):
            raise BadShape(f"map value {v} out of range")
    for a in range(source.order):
        for b in range(source.order):
            if m[source.table[a][b]] != target.table[m[a]][m[b]]:
                raise NotMultiplicative(a, b)
    return SemigroupHom(source, target, m,
                        m[source.identity] == target.identity)


def identity_hom(monoid: FiniteMonoid) -> SemigroupHom:
    return SemigroupHom(monoid, monoid, tuple(range(monoid.order)), True)


def opposite(monoid: FiniteMonoid) -> FiniteMonoid:
    """Same carrier with the transposed table, stored on the monoid, so
    opposite(opposite(m)) is m."""
    return monoid.dual


def idempotents(monoid: FiniteMonoid) -> tuple[int, ...]:
    return tuple(e for e in range(monoid.order) if monoid.table[e][e] == e)


def corner_monoid(monoid: FiniteMonoid, e: int) -> tuple[FiniteMonoid, SemigroupHom]:
    """The monoid on {e·m·e} with identity e, plus its subsemigroup inclusion.

    The inclusion preserves the ambient identity only when e is it.
    """
    if monoid.table[e][e] != e:
        raise NotIdempotent(e)
    carrier = sorted({monoid.table[monoid.table[e][m]][e] for m in range(monoid.order)})
    pos = {m: i for i, m in enumerate(carrier)}
    table = tuple(tuple(pos[monoid.table[a][b]] for b in carrier) for a in carrier)
    corner = FiniteMonoid(tuple(monoid.elements[m] for m in carrier), table, pos[e])
    inclusion = SemigroupHom(corner, monoid, tuple(carrier), e == monoid.identity)
    return corner, inclusion


def sub_monoid(monoid: FiniteMonoid, carrier: Iterable[int],
               identity: Optional[int] = None) -> FiniteMonoid:
    """Restrict the table to a multiplicatively closed subset."""
    members = sorted(set(carrier))
    pos = {m: i for i, m in enumerate(members)}
    for a in members:
        for b in members:
            if monoid.table[a][b] not in pos:
                raise BadShape(f"subset not closed: {a}·{b} escapes")
    ident = monoid.identity if identity is None else identity
    if ident not in pos:
        raise NoIdentity("subset does not contain the requested identity")
    table = tuple(tuple(pos[monoid.table[a][b]] for b in members) for a in members)
    return FiniteMonoid(tuple(monoid.elements[m] for m in members), table, pos[ident])


def unit_indices(monoid: FiniteMonoid) -> tuple[int, ...]:
    """Elements with a two-sided inverse: those whose row contains the
    identity.  In a finite monoid a right inverse is two-sided: m·k = 1
    makes x ↦ m·x surjective (m·(k·x) = x), hence injective, and
    m·(k·m) = (m·k)·m = m = m·1 gives k·m = 1."""
    one = monoid.identity
    return tuple(m for m, row in enumerate(monoid.table) if one in row)


def units_group(monoid: FiniteMonoid) -> FiniteMonoid:
    """The largest subgroup containing the identity, as a sub-monoid."""
    return sub_monoid(monoid, unit_indices(monoid))


def is_group(monoid: FiniteMonoid) -> bool:
    return len(unit_indices(monoid)) == monoid.order


def zero_element(monoid: FiniteMonoid) -> Optional[int]:
    """The unique two-sided absorbing element, if present."""
    for z in range(monoid.order):
        if all(monoid.table[m][z] == z and monoid.table[z][m] == z
               for m in range(monoid.order)):
            return z
    return None


def conjugations(phi: SemigroupHom, psi: SemigroupHom) -> tuple[int, ...]:
    """All alpha in the common target with alpha·phi(1) = alpha = psi(1)·alpha
    and alpha·phi(m) = psi(m)·alpha for every m."""
    if phi.source != psi.source or phi.target != psi.target:
        raise MismatchedHoms("conjugations need a common source and target")
    tgt = phi.target
    src = phi.source
    e_phi = phi.map[src.identity]
    e_psi = psi.map[src.identity]
    out = []
    for alpha in range(tgt.order):
        if tgt.table[alpha][e_phi] != alpha or tgt.table[e_psi][alpha] != alpha:
            continue
        if all(tgt.table[alpha][phi.map[m]] == tgt.table[psi.map[m]][alpha]
               for m in range(src.order)):
            out.append(alpha)
    return tuple(out)


def factor_surjection_inclusion(phi: SemigroupHom) -> tuple[SemigroupHom, SemigroupHom]:
    """Factor a semigroup hom as a monoid hom onto the corner at phi(1)
    followed by the corner's subsemigroup inclusion.  Each phi(m) =
    phi(1·m·1) = e·phi(m)·e lies in the corner at e = phi(1), and the
    inclusion is injective and multiplicative, so the first factor is a
    monoid hom: it is multiplicative with phi and sends 1 to e."""
    e = phi.map[phi.source.identity]
    corner, inclusion = corner_monoid(phi.target, e)
    lookup = {v: i for i, v in enumerate(inclusion.map)}
    first = SemigroupHom(phi.source, corner, tuple(lookup[v] for v in phi.map), True)
    return first, inclusion
