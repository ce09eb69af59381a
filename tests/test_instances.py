"""Seeded instance generators: every instance is pinned bit for bit, so a
rewrite of a generator must keep the same draws in the same order."""

from __future__ import annotations

import hashlib

import pytest

from conftest import planted_near_bipartite, planted_two_cliques

from cycsets.bitgraph import to_graph6
from cycsets.instances import (
    bipartite_instance,
    dirac_instance,
    near_bipartite_instance,
    two_cliques_instance,
)


def _fields(result) -> list[str]:
    """graph6 of the graph, then the rest of the instance as text."""
    if not isinstance(result, tuple):
        return [to_graph6(result)]
    g, *rest = result
    out = [to_graph6(g)]
    for x in rest:
        if hasattr(x, "x"):  # Cut
            out += [hex(x.x.mask), hex(x.y.mask)]
        elif hasattr(x, "edges"):  # LinearForest
            out.append(repr(x.edges))
        elif hasattr(x, "mask"):  # VertexSet
            out.append(hex(x.mask))
        else:
            out.append(str(x))
    return out


def _digest(results) -> str:
    h = hashlib.sha256()
    for result in results:
        for field in _fields(result):
            h.update(field.encode() + b"\n")
    return h.hexdigest()


# sha256 over seeds 0..49 at m = 60, as the per-edge-tuple generators built them
PINNED_M60 = {
    two_cliques_instance: "4ecb059cc36b988c79f7dccf636f5fd6fc960893bcf53ceac40510c16203a500",
    near_bipartite_instance: "f3de519cf11b27441573fcb59233aa661824c2892bdbbec0d53713c420d3f509",
    dirac_instance: "f3536b8e5b443b40f4e9db63dfc7329e281bd3ad462563a90e2cf3a2ed070e2f",
    bipartite_instance: "b9fd42c5cc0f20407e10a8c84d2079a4676c0a0fe3cac7de15df88bfffdde71c",
    planted_two_cliques: "a9617c6cc4b05f34488a208c55a7ee8b841d7de2a832efd3c1413b1806a1be1f",
    planted_near_bipartite: "5546cf37b875155012772613306d676d89102295359e609826a27ca23e834315",
}


@pytest.mark.parametrize("gen", list(PINNED_M60), ids=lambda f: f.__name__)
def test_instances_pinned_at_m60(gen):
    assert _digest(gen(60, seed) for seed in range(50)) == PINNED_M60[gen]


# the m = 600 instances of the certify_dense benchmark for run seeds 1 and 2026
PINNED_M600 = [
    (two_cliques_instance, 2484195175, "066a05fb6a85683293b29b14debf35604789f0b4dbd4e9913cbf07583bcedb35"),
    (near_bipartite_instance, 2484195175, "33803e1865c9dbdd8689afd450df0735eb73c738d4c8e3fa45a860401fdfcdd2"),
    (two_cliques_instance, 3800690240, "e6120eb87201431bd8f205b32a8f47c3a9e499c030ca737144279964b404af80"),
    (near_bipartite_instance, 3800690240, "02183dd201c234eadc8cdfef6e802fdf68b3fdcfdf37cd841c281e944ff5c852"),
]


@pytest.mark.parametrize("gen,seed,want", PINNED_M600)
def test_instances_pinned_at_m600(gen, seed, want):
    assert _digest([gen(600, seed)]) == want
