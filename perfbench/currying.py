"""Workload `currying`: the exponentials of acceptance criterion 10.

Set-up computes every exponential Y^X over the principal actions (the
quotients by the open congruences) of each monoid of order at most 3 and
each of its action topologies, and Y^1 for every principal Y.  One item is
one test M-set Z: the product Z×X and the hom sets Hom(Z×X, Y) and
Hom(Z, Y^X).

A round pairs every exponential with a seeded SAMPLE_SHARE of its
continuous test M-sets of each carrier size (at most 4 points), or with all
of them when there are fewer than WHOLE_BELOW: the small groups hold the
heaviest items.  The share is taken from each isomorphism class of test
M-sets apart, so the seed picks which labelled copies are paired but not
how many of each kind: a plain sample of half a group moved the cost of a
round by a tenth from seed to seed.  A 4-point Z is paired only with
exponentials of at most MAX_TARGET_FOR_4 points: against the one
2187-point exponential such an item takes up to 8 s, longer than a whole
run's rounds.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

# module-qualified calls, so that the tracer's rebinding sees them
from topact import actions, catalog, congruences

import oracles
from oracles import expect

COLD_CACHES = False
SAMPLE_SHARE = 0.5
WHOLE_BELOW = 8
MAX_TARGET_FOR_4 = 128
BRUTE_FORCE_LIMIT = 256


@dataclass
class Exponential:
    x: object
    y: object
    expo: object
    index: dict = field(default_factory=dict)


@dataclass
class Inputs:
    exponentials: list
    units: list          # (Y, Y^1) pairs
    items: list          # (exponential index, Z)
    verified: dict = field(default_factory=dict)   # item key -> hash of its output


def setup(seed: int, tiny: bool) -> Inputs:
    rng = random.Random(seed)
    exponentials, units, items = [], [], []
    for order in range(1, 3 if tiny else 4):
        for monoid in catalog.all_monoids(order):
            for topology in catalog.action_topologies(monoid):
                flt = congruences.open_congruences(monoid, topology)
                principal = [actions.quotient_mset(monoid, r) for r in flt.members]
                tests = catalog.continuous_msets(monoid, topology, 4)
                one = actions.terminal_mset(monoid)
                units.extend((y, actions.exponential_mset(one, y, topology)) for y in principal)
                for x in principal:
                    for y in principal:
                        expo = actions.exponential_mset(x, y, topology)
                        e = len(exponentials)
                        exponentials.append(Exponential(x, y, expo))
                        items.extend((e, z) for z in _sample(rng, tests, expo.mset.size))
    return Inputs(exponentials, units, items)


def _sample(rng: random.Random, tests, target_size: int) -> list:
    by_size: dict[int, list] = {}
    for z in tests:
        if z.size < 4 or target_size <= MAX_TARGET_FOR_4:
            by_size.setdefault(z.size, []).append(z)
    picked = []
    for size in sorted(by_size):
        group = by_size[size]
        if len(group) < WHOLE_BELOW:
            picked.extend(group)
            continue
        classes: dict[tuple, list[int]] = {}
        for i, z in enumerate(group):
            classes.setdefault(_iso_key(z), []).append(i)
        keep = []
        for members in classes.values():
            keep.extend(rng.sample(members, math.ceil(SAMPLE_SHARE * len(members))))
        picked.extend(group[i] for i in sorted(keep))
    return picked


def _iso_key(z) -> tuple:
    """The least relabelling of Z's action table: equal for isomorphic Z."""
    best = None
    for perm in itertools.permutations(range(z.size)):
        rows = [()] * z.size
        for x, row in enumerate(z.act):
            rows[perm[x]] = tuple(perm[v] for v in row)
        rows = tuple(rows)
        if best is None or rows < best:
            best = rows
    return best


def round_items(inputs: Inputs):
    return inputs.items


def check_setup(inputs: Inputs) -> None:
    for y, expo in inputs.units:
        expect(oracles.isomorphic(expo.mset.act, y.act, y.monoid.order),
               f"Y^1 is not isomorphic to Y for {y!r}")
    for e in inputs.exponentials:
        e.index = {h: i for i, h in enumerate(e.expo.hom_maps)}
        expect(len(e.index) == len(e.expo.hom_maps), "Y^X lists a hom twice")
        expect(e.expo.mset.size == len(e.expo.hom_maps), "Y^X carrier and homs disagree")


def run_item(inputs: Inputs, item):
    e, z = item
    exp = inputs.exponentials[e]
    zx = actions.mset_product(z, exp.x)
    plain = actions.enumerate_mset_homs(zx, exp.y)
    curried = actions.enumerate_mset_homs(z, exp.expo.mset)
    return zx, plain, curried


def check_item(inputs: Inputs, item, out) -> None:
    e, z = item
    zx, plain, curried = out
    key, digest = (e, id(z)), hash((zx.act, plain, curried))
    if inputs.verified.get(key) == digest:
        return      # the same output as in an earlier round, already checked
    exp = inputs.exponentials[e]
    x, y, target = exp.x, exp.y, exp.expo.mset
    order = z.monoid.order
    expect(zx.size == z.size * x.size
           and all(zx.act[zi * x.size + p][m] == z.act[zi][m] * x.size + x.act[p][m]
                   for zi in range(z.size) for p in range(x.size) for m in range(order)),
           "Z×X is not the componentwise product")
    for homs, src, tgt in ((plain, zx, y), (curried, z, target)):
        expect(len(set(homs)) == len(homs), "a hom is listed twice")
        expect(all(oracles.is_equivariant(src.act, tgt.act, f, order) for f in homs),
               "a listed map is not equivariant")
        if tgt.size ** src.size <= BRUTE_FORCE_LIMIT:
            expect(oracles.brute_homs(src.act, tgt.act, order) == len(homs),
                   "hom count differs from the brute-force count")
    images = set()
    for f in plain:
        images.add(tuple(
            exp.index.get(tuple(f[z.act[zi][n] * x.size + p]
                                for n in range(order) for p in range(x.size)), -1)
            for zi in range(z.size)))
    expect(len(images) == len(plain) and images == set(curried),
           "currying is not a bijection Hom(Z×X, Y) -> Hom(Z, Y^X)")
    inputs.verified[key] = digest
