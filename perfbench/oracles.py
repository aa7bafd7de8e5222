"""Independent computations the benchmark checks topact's outputs against.

Nothing here calls topact.  Monoids are plain multiplication tables
(table[a][b] is a·b), topologies are given by the minimal open
neighbourhood of each point (every finite space is Alexandrov), and
congruences are canonical class maps (class ids in order of least member).
"""

from __future__ import annotations

import itertools


class CheckFailed(Exception):
    """An output of the program disagrees with its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def canonical(class_of) -> tuple[int, ...]:
    relabel: dict[int, int] = {}
    return tuple(relabel.setdefault(c, len(relabel)) for c in class_of)


def classes(class_of) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(max(class_of) + 1)]
    for m, c in enumerate(class_of):
        out[c].append(m)
    return out


def members(m: int) -> list[int]:
    return [i for i in range(m.bit_length()) if m >> i & 1]


def mask(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


# --- finite spaces ---------------------------------------------------------

def neighbourhoods(n: int, sets) -> tuple[int, ...]:
    """Minimal open neighbourhood of each point: the intersection of the
    given sets that hold it.  The sets may be all opens or any subbase of
    the topology."""
    full = (1 << n) - 1
    out = []
    for x in range(n):
        acc = full
        for u in sets:
            if u >> x & 1:
                acc &= u
        out.append(acc)
    return tuple(out)


def components(nb) -> tuple[int, ...]:
    """Connected components of a finite space: x and y are joined when one
    lies in the other's minimal neighbourhood."""
    n = len(nb)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x in range(n):
        for y in range(n):
            if nb[x] >> y & 1:
                parent[find(y)] = find(x)
    return canonical(find(x) for x in range(n))


def count_opens(nb) -> int:
    """Open sets are the up-sets of the specialization preorder; count them
    over the classes of points with equal neighbourhoods."""
    reps = sorted(set(nb))
    k = len(reps)
    above = [[j for j in range(k) if reps[j] & reps[i] == reps[j] and j != i]
             for i in range(k)]
    # reps[j] ⊆ reps[i] means every open around class i also holds class j
    count = 0
    for choice in range(1 << k):
        if all(choice >> j & 1 for i in range(k) if choice >> i & 1 for j in above[i]):
            count += 1
    return count


def is_t0(nb) -> bool:
    return len(set(nb)) == len(nb)


def has_clopen_base(nb) -> bool:
    """Every minimal neighbourhood is closed, i.e. the preorder is symmetric."""
    return all(nb[y] == nb[x] for x in range(len(nb)) for y in range(len(nb))
               if nb[x] >> y & 1)


def multiplication_continuous(table, nb) -> bool:
    """Alexandrov criterion: nb(a)·nb(b) ⊆ nb(a·b) for all a, b."""
    n = len(table)
    around = [members(nb[x]) for x in range(n)]
    for a in range(n):
        for b in range(n):
            target = nb[table[a][b]]
            for a2 in around[a]:
                row = table[a2]
                for b2 in around[b]:
                    if not target >> row[b2] & 1:
                        return False
    return True


# --- monoids and right congruences -----------------------------------------

def least_open_congruence(table, comp) -> tuple[int, ...]:
    """r0: the right congruence generated by the translates (q·a, q·b) of the
    pairs a, b in one component."""
    n = len(table)
    return generated_right_congruence(
        table, [(table[q][cls[0]], table[q][b])
                for cls in classes(comp) for b in cls[1:] for q in range(n)])


def generated_right_congruence(table, pairs) -> tuple[int, ...]:
    """Union-find closure of the pairs under right multiplication."""
    n = len(table)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = list(pairs)
    while queue:
        a, b = queue.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[rb] = ra
        for m in range(n):
            queue.append((table[a][m], table[b][m]))
    return canonical(find(x) for x in range(n))


def unions_of_classes(class_of) -> set[int]:
    masks = [mask(c) for c in classes(class_of)]
    out = set()
    for choice in range(1 << len(masks)):
        acc = 0
        for i, m in enumerate(masks):
            if choice >> i & 1:
                acc |= m
        out.add(acc)
    return out


def is_right_stable(table, class_of) -> bool:
    n = len(table)
    for cls in classes(class_of):
        for b in cls[1:]:
            for m in range(n):
                if class_of[table[cls[0]][m]] != class_of[table[b][m]]:
                    return False
    return True


def coarsens(fine, coarse) -> bool:
    image: dict[int, int] = {}
    return all(image.setdefault(f, c) == c for f, c in zip(fine, coarse))


def meet(r1, r2) -> tuple[int, ...]:
    return canonical(zip(r1, r2))


def join(r1, r2) -> tuple[int, ...]:
    n = len(r1)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r in (r1, r2):
        first: dict[int, int] = {}
        for m, c in enumerate(r):
            parent[find(m)] = find(first.setdefault(c, m))
    return canonical(find(x) for x in range(n))


def set_partitions(n: int):
    """All class maps on n points, as restricted growth strings."""
    def grow(prefix, top):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for c in range(top + 2):
            yield from grow(prefix + [c], max(top, c))
    yield from grow([], -1)


def count_right_congruences(table, above=None) -> int:
    """Brute force over set partitions (optionally only those coarsening
    `above`, enumerated as partitions of its classes)."""
    if above is None:
        return sum(1 for p in set_partitions(len(table)) if is_right_stable(table, p))
    blocks = classes(above)
    count = 0
    for p in set_partitions(len(blocks)):
        class_of = [0] * len(table)
        for b, block in enumerate(blocks):
            for m in block:
                class_of[m] = p[b]
        if is_right_stable(table, class_of):
            count += 1
    return count


def divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def is_associative(table) -> bool:
    n = len(table)
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


# --- M-sets ------------------------------------------------------------------

def is_equivariant(src_act, tgt_act, f, order: int) -> bool:
    return all(f[src_act[x][m]] == tgt_act[f[x]][m]
               for x in range(len(src_act)) for m in range(order))


def brute_homs(src_act, tgt_act, order: int) -> int:
    """Number of equivariant maps, by trying every function."""
    return sum(1 for f in itertools.product(range(len(tgt_act)), repeat=len(src_act))
               if is_equivariant(src_act, tgt_act, f, order))


def isomorphic(a_act, b_act, order: int) -> bool:
    if len(a_act) != len(b_act):
        return False
    return any(is_equivariant(a_act, b_act, perm, order)
               for perm in itertools.permutations(range(len(b_act))))
