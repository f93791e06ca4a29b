"""Seeded generator of finite S5 model documents with an exact state count.

`cogal.harness.random_model` draws the state count uniformly from
1..max_states, so it cannot produce a size series. This generator fixes the
state count and the number of equivalence classes per agent, and draws only
the assignment of states to classes and the valuation. Fixing the class
counts keeps the number of announcement choices, and so the cost of a job,
a function of the size: runs with different seeds then measure comparable
work. The output is a plain model document; the benchmark hands it to
`cogal.model.validate` like any model file.
"""

from __future__ import annotations

import random

AGENTS = ("a", "b", "c")
PROPS = ("p", "q", "r", "s")

# Equivalence classes of each agent at n states: ceil(n * share / 20).
# At 16 states that is 7, 5 and 6 classes; agent a and b jointly offer
# 2**6 * 2**4 announcement choices at a state.
BLOCK_SHARE = {"a": 8, "b": 6, "c": 7}


def block_count(n: int, agent: str) -> int:
    return max(1, -(-n * BLOCK_SHARE[agent] // 20))


def exact_model_doc(rng: random.Random, n: int) -> dict:
    """Model document with exactly n states over AGENTS and PROPS.

    Each agent's states are split into `block_count(n, agent)` non-empty
    classes; each proposition holds at each state with probability 1/2.
    """
    if n < 1:
        raise ValueError("a model needs at least one state")
    states = [f"s{i}" for i in range(n)]
    partitions = {}
    for agent in AGENTS:
        k = block_count(n, agent)
        labels = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
        rng.shuffle(labels)
        blocks: dict = {}
        for state, label in zip(states, labels):
            blocks.setdefault(label, []).append(state)
        partitions[agent] = list(blocks.values())
    valuation = {p: [s for s in states if rng.random() < 0.5] for p in PROPS}
    return {"agents": list(AGENTS), "props": list(PROPS), "states": states,
            "partitions": partitions, "valuation": valuation}
