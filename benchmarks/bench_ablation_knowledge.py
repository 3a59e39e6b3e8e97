"""[ABL-DY] Ablation: Dolev-Yao closure and synthesis scaling.

The attacker substrate closes heard messages under analysis and
synthesizes outputs bounded by depth.  This measures both directions as
the vocabulary grows — the synthesis bound of the most-general attacker
(:mod:`repro.analysis.environment`).
"""

from __future__ import annotations

import pytest

from repro.analysis.knowledge import Knowledge, synthesizable
from repro.core.terms import Name, Pair, SharedEnc


def layered_vocabulary(width: int) -> list:
    """``width`` keys, ``width`` nested ciphertexts, chained key release."""
    keys = [Name(f"k{i}") for i in range(width)]
    terms = []
    for i in range(width):
        body = Pair(Name(f"m{i}"), Name(f"n{i}"))
        terms.append(SharedEnc((body,), keys[i]))
        # each key arrives under the previous one; k0 is known outright
        if i > 0:
            terms.append(SharedEnc((keys[i],), keys[i - 1]))
    terms.append(keys[0])
    return terms


@pytest.mark.parametrize("width", [4, 8, 16])
def test_ablation_analysis_closure(benchmark, width):
    terms = layered_vocabulary(width)
    knowledge = benchmark(Knowledge.from_terms, terms)
    # the chained keys fully cascade: everything decrypts
    assert knowledge.can_derive(Name(f"m{width - 1}"))
    benchmark.extra_info["atoms"] = len(knowledge)


@pytest.mark.parametrize("depth", [1, 2])
def test_ablation_synthesis_enumeration(benchmark, depth):
    knowledge = Knowledge.from_terms([Name("a"), Name("b"), Name("k")])
    out = benchmark(lambda: list(synthesizable(knowledge, depth)))
    assert len(out) == len(set(out))
    benchmark.extra_info["messages"] = len(out)


def test_ablation_derivability_is_cheap_even_when_enumeration_is_not():
    knowledge = Knowledge.from_terms([Name("a"), Name("b"), Name("k")])
    goal = SharedEnc((Pair(Name("a"), Pair(Name("b"), Name("a"))),), Name("k"))
    # deep goal: decided structurally without enumerating level 3
    assert knowledge.can_derive(goal)
