"""Input transformations shared by the workloads."""

from __future__ import annotations

import dataclasses
import random

from ncd_moduli import maptype as mp
from ncd_moduli.exactnum import ExactNonzeroComplex

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def remap_primes(mt: mp.MapType, rng: random.Random, rename=lambda x: x) -> mp.MapType:
    """The map type with its coefficients' primes sent through a random
    injection into small primes and its ids passed through ``rename``.

    The prime map is a group homomorphism on coefficients, so reciprocal
    pairs stay reciprocal and every validator's answer is unchanged.
    """
    used = sorted({p for c in mt.components for _, r in c.points for _, sl in r.slots
                   if sl.coeff is not None for p, _ in sl.coeff.mag})
    sigma = dict(zip(used, rng.sample(PRIMES, len(used))))

    def coeff(c):
        if c is None:
            return None
        return ExactNonzeroComplex.from_parts({sigma[p]: e for p, e in c.mag}, c.arg)

    comps = [
        dataclasses.replace(
            c,
            id=rename(c.id),
            points=tuple(
                (rename(pid), dataclasses.replace(
                    rec, slots=tuple((d, dataclasses.replace(sl, coeff=coeff(sl.coeff))) for d, sl in rec.slots)))
                for pid, rec in c.points
            ),
        )
        for c in mt.components
    ]
    nodes = [dataclasses.replace(nd, id=rename(nd.id), ends=tuple(rename(p) for p in nd.ends)) for nd in mt.nodes]
    return dataclasses.replace(mt, components=tuple(comps), nodes=tuple(nodes))
