"""The three benchmark workloads: `suite`, `scale` and `search`.

Each workload has the same shape:

* `setup(cg, seed)` builds every input from the seed (and the shipped model
  files) and returns them; it is timed as `setup_s`;
* `run_pass(cg, inputs)` is one pass of the closed loop, the timed unit;
  it does the same work whenever it is given the same inputs. It returns a
  `PassResult` whose outputs are checked right after timing and then
  released, so later passes do not run on a growing heap;
* `evaluate(cg, inputs, result, expected)` returns (ops, failed): the
  operations the pass completed and how many outputs are wrong, compared
  with `expected`, the digests recorded for the inputs' seed, when there
  are any, and with seed-independent oracles always;
* `reference(cg, inputs, result)` gives the digests to record for a seed;
* `describe(cg, inputs)` records what the inputs were.

`cg` is the namespace of freshly imported `cogal` modules (see
`import_cogal`); workloads reach the program only through it, so the traced
run sees every call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import modelgen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODELS = ROOT / "models"
COGAL_MODULES = ("formula", "model", "checker", "translate", "harness")


def import_cogal() -> SimpleNamespace:
    """Import the cogal package from the checkout afresh and return its
    modules. Earlier imports are dropped, so each call pays the import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "cogal" or n.startswith("cogal.")]:
        del sys.modules[name]
    importlib.import_module("cogal")
    return SimpleNamespace(**{m: sys.modules[f"cogal.{m}"] for m in COGAL_MODULES})


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class PassResult:
    outputs: list
    certificates_checked: int = 0
    certificates_mismatches: int = 0
    job_seconds: list = field(default_factory=list)  # scale: wall time per job


# --- suite --------------------------------------------------------------------

class Suite:
    """`cogal suite --seed S --models 100 --certify`: all 30 items on 100
    random models of at most 4 states. About 74k small evaluations on tiny
    models, so per-call overhead in `formula` dominates and choice
    enumeration and contraction are cheap."""

    name = "suite"
    MODELS = 100

    def setup(self, cg, seed):
        return SimpleNamespace(seed=seed)

    def run_pass(self, cg, inputs):
        params = cg.harness.GenParams(seed=inputs.seed, count=self.MODELS)
        report = cg.harness.axiom_suite(params, certify=True)
        return PassResult([report],
                          certificates_checked=report.certificates.checked,
                          certificates_mismatches=len(report.certificates.mismatches))

    def evaluate(self, cg, inputs, result, expected):
        # The canary item is FAIL unless its schema fails, so a passing
        # canary is counted here too.
        report = result.outputs[0]
        failed = sum(1 for item in report.items if item.status == "FAIL")
        failed += len(report.certificates.mismatches)
        if expected and expected["report"] != digest(report.to_doc()):
            failed += 1
        return sum(item.instances for item in report.items), failed

    def reference(self, cg, inputs, result):
        return {"report": digest(result.outputs[0].to_doc())}

    def describe(self, cg, inputs):
        return {"models_per_pass": self.MODELS, "max_states": 4}

    def extra_metrics(self, inputs, results):
        return {}


# --- scale --------------------------------------------------------------------

# Fixed formula list over agents a, b, c and props p, q, r, s: boxes and
# diamonds of every fragment. None is valid: on most generated models each is
# true at some states and false at others, so the translate oracle on the
# EL/PAL jobs compares mixed extensions, not all-true ones.
SCALE_FORMULAS = (
    "K a p -> K b p",
    "K a q | K b ~q",
    "K c (p | q)",
    "[p] K c q",
    "<~q> K b r",
    "[~K a p] K c s",
    "<{a,b}> K c p",
    "[{a}] ~K b q",
    "<[{a}]> (K b p & ~K c q)",
    "[<{b,c}>] ~K a s",
)

# The shipped models with the formulas the README and the suite run on them.
SHIPPED = (
    ("train.json", ("[~p] K c ~p",
                    "<[{a,c}]> (~K c ~p & ~K c p)",
                    "<{a,b}> ~K c ~p",
                    "<[{a,b}]> (~K c ~p & ~K c p)")),
    ("prop4.json", ("<[{a,b}]> (K b (p & q & r) & ~K a (p & q & r) & ~K c (p & q & r))",
                    "<[{a}]> <[{b}]> (K b (p & q & r) & ~K a (p & q & r) "
                    "& ~K c (p & q & r))")),
)

FRAGMENTS = ("EL", "PAL", "GAL", "COGAL")


@dataclass
class Job:
    id: str
    model: object
    formula: object
    fragment: str


class Scale:
    """Models with exactly n states, n = 4, 6, ..., 16 (3 agents, 4 props),
    plus the shipped models. A job is a fresh `Evaluator(model)` that calls
    `check` at every state, as `cogal check` does. Quantifiers force many
    restrictions, so `bisim_contract`, model construction and choice
    enumeration dominate; `formula` overhead is negligible."""

    name = "scale"
    SIZES = (4, 6, 8, 10, 12, 14, 16)
    MODELS_PER_SIZE = 4

    def setup(self, cg, seed):
        formulas = [cg.formula.parse(text) for text in SCALE_FORMULAS]
        jobs = []
        docs = []
        for n in self.SIZES:
            for i in range(self.MODELS_PER_SIZE):
                doc = modelgen.exact_model_doc(random.Random(f"scale:{seed}:{n}:{i}"), n)
                docs.append(doc)
                model = cg.model.validate(doc)
                for j, f in enumerate(formulas):
                    jobs.append(Job(f"n{n}.m{i}.f{j}", model, f,
                                    cg.formula.fragment(f).name))
        for file_name, texts in SHIPPED:
            model, _ = cg.model.load_model(MODELS / file_name)
            for j, text in enumerate(texts):
                f = cg.formula.parse(text)
                jobs.append(Job(f"{file_name}.f{j}", model, f,
                                cg.formula.fragment(f).name))
        return SimpleNamespace(seed=seed, jobs=jobs, docs=docs)

    def run_pass(self, cg, inputs):
        outputs, seconds = [], []
        certificates = [0, 0]
        clock = time.perf_counter
        for job in inputs.jobs:
            t0 = clock()
            try:
                ev = cg.checker.Evaluator(job.model)
                verdicts = [ev.check(s, job.formula) for s in job.model.states]
            except Exception as exc:  # a crash is a failed op, not a dead run
                verdicts = exc
            else:
                certificates[0] += ev.certificates.checked
                certificates[1] += len(ev.certificates.mismatches)
            seconds.append(clock() - t0)
            outputs.append(verdicts)
        return PassResult(outputs, certificates_checked=certificates[0],
                          certificates_mismatches=certificates[1],
                          job_seconds=seconds)

    @staticmethod
    def job_doc(verdicts):
        return [v.to_doc() for v in verdicts]

    def evaluate(self, cg, inputs, result, expected):
        expected = expected and expected["jobs"]
        failed = 0
        for job, verdicts in zip(inputs.jobs, result.outputs):
            if isinstance(verdicts, Exception):
                failed += 1
                continue
            bad = bool(expected) and expected.get(job.id) != digest(
                self.job_doc(verdicts))
            if job.fragment in ("EL", "PAL"):
                # Announcement-free oracle: translate(f) has the same extension.
                oracle = cg.checker.Evaluator(job.model).extension(
                    cg.translate.translate(job.formula))
                truth = frozenset(s for s, v in zip(job.model.states, verdicts)
                                  if v.truth)
                bad = bad or oracle != truth
            failed += bad
        return len(inputs.jobs), failed

    def reference(self, cg, inputs, result):
        return {"jobs": {job.id: digest(self.job_doc(verdicts))
                         for job, verdicts in zip(inputs.jobs, result.outputs)}}

    def describe(self, cg, inputs):
        """Block-count distribution and contracted size of each generated model."""
        blocks = {agent: Counter() for agent in modelgen.AGENTS}
        contracted = []
        for doc in inputs.docs:
            for agent in modelgen.AGENTS:
                blocks[agent][len(doc["partitions"][agent])] += 1
            model = cg.model.validate(doc)
            contracted.append([len(doc["states"]),
                               len(cg.model.bisim_contract(model).contracted.states)])
        return {"jobs": len(inputs.jobs),
                "block_counts": {a: dict(sorted(c.items())) for a, c in blocks.items()},
                "states_and_contracted_states": contracted}

    def extra_metrics(self, inputs, results):
        """Job latency percentiles over every job of every pass, and the
        summed job time of each fragment per pass (median over passes)."""
        latencies = [seconds for r in results for seconds in r.job_seconds]
        cuts = statistics.quantiles(latencies, n=10, method="inclusive")
        out = {"latency_p50_ms": (cuts[4] * 1e3, "ms"),
               "latency_p90_ms": (cuts[8] * 1e3, "ms"),
               "latency_samples": (len(latencies), "count")}
        for frag in FRAGMENTS:
            sums = [sum(seconds for job, seconds in zip(inputs.jobs, r.job_seconds)
                        if job.fragment == frag) for r in results]
            out[f"{frag.lower()}_s"] = (statistics.median(sums), "s")
        return out


# --- search -------------------------------------------------------------------

SEARCH_AGENTS = ("a", "b", "c")
SEARCH_PROPS = ("p", "q")
SEARCH_MAX_STATES = 3
# Valid schemas with their groups fixed; the seed draws the formulas put in
# for x and y from the pool's knowledge literals (K a p, K b ~q, ...), and
# one invalid formula.
VALID_SCHEMAS = (
    ("A11", "<[{{a}}]> ({x}) -> <{{a}}> [{{b,c}}] ({x})"),
    ("C4", "<[{{a,b}}]> (({x}) & ({y})) -> <[{{a,b}}]> ({x})"),
)
INVALID_FORMULAS = ("p -> K a p", "q -> K b q", "p -> K c p",
                    "K a p -> K b p", "~K c p -> K c ~p")

def candidate_count(n_agents: int, n_props: int, max_states: int) -> int:
    """Models `enumerate_models` yields: per state count n, every partition
    of n states for each agent (Bell numbers) times every valuation."""
    bell = [1, 1, 2, 5, 15, 52]
    return sum(bell[n] ** n_agents * 2 ** (n * n_props)
               for n in range(1, max_states + 1))


class Search:
    """Exhaustive `find_countermodel` over every model of up to 3 states
    (agents a, b, c; props p, q): 8,132 candidates per formula. A pass
    searches seed-drawn instances of the valid schemas A11 and C4 (None
    expected) and one seed-drawn invalid formula (a hit expected). Thousands
    of fresh root models and Evaluators, each evaluated briefly: the
    opposite of `scale`, where one evaluator builds many restrictions."""

    name = "search"

    def setup(self, cg, seed):
        rng = random.Random(f"search:{seed}")
        formula = cg.formula

        def is_literal(g):
            return isinstance(g, formula.Atom) or (
                isinstance(g, formula.Not) and isinstance(g.body, formula.Atom))

        literals = [formula.render(f)
                    for f in cg.harness.instantiation_pool(SEARCH_AGENTS, SEARCH_PROPS)
                    if isinstance(f, formula.Know) and is_literal(f.body)]
        texts = [schema.format(x=rng.choice(literals), y=rng.choice(literals))
                 for _, schema in VALID_SCHEMAS]
        texts.append(rng.choice(INVALID_FORMULAS))
        params = cg.harness.GenParams(max_states=SEARCH_MAX_STATES,
                                      agents=SEARCH_AGENTS, props=SEARCH_PROPS)
        return SimpleNamespace(seed=seed, texts=texts,
                               formulas=[formula.parse(t) for t in texts],
                               valid=[True] * len(VALID_SCHEMAS) + [False],
                               params=params, examined={})

    def run_pass(self, cg, inputs):
        outputs = []
        for f in inputs.formulas:
            try:
                outputs.append(cg.harness.find_countermodel(f, inputs.params))
            except Exception as exc:  # a crash is a failed op, not a dead run
                outputs.append(exc)
        return PassResult(outputs)

    def examined(self, cg, inputs, hit) -> int:
        """Candidates `find_countermodel` looked at: all of them when it
        found nothing, else up to and including the hit's model."""
        full = candidate_count(len(SEARCH_AGENTS), len(SEARCH_PROPS),
                               SEARCH_MAX_STATES)
        if hit is None or isinstance(hit, Exception):
            return full
        target = json.dumps(hit.pointed.model.to_doc())
        if target not in inputs.examined:
            models = cg.harness.enumerate_models(SEARCH_AGENTS, SEARCH_PROPS,
                                                 SEARCH_MAX_STATES)
            inputs.examined[target] = next(
                (i + 1 for i, m in enumerate(models)
                 if json.dumps(m.to_doc()) == target), full)
        return inputs.examined[target]

    @staticmethod
    def hit_doc(hit):
        if hit is None:
            return None
        return {"model": hit.pointed.model.to_doc(), "state": hit.pointed.point}

    def evaluate(self, cg, inputs, result, expected):
        expected = expected and expected["hits"]
        failed = 0
        for i, (f, valid, hit) in enumerate(zip(inputs.formulas, inputs.valid,
                                                result.outputs)):
            if isinstance(hit, Exception):
                failed += 1
                continue
            if valid:
                bad = hit is not None
            else:
                # A fresh evaluator must confirm the formula false at the hit.
                bad = hit is None or cg.checker.Evaluator(hit.pointed.model).check(
                    hit.pointed.point, f).truth
            if expected:
                bad = bad or expected[i] != digest(self.hit_doc(hit))
            failed += bool(bad)
        return sum(self.examined(cg, inputs, hit) for hit in result.outputs), failed

    def reference(self, cg, inputs, result):
        return {"hits": [digest(self.hit_doc(hit)) for hit in result.outputs]}

    def describe(self, cg, inputs):
        return {"formulas": inputs.texts,
                "expect_countermodel": [not v for v in inputs.valid],
                "candidates_per_formula": candidate_count(
                    len(SEARCH_AGENTS), len(SEARCH_PROPS), SEARCH_MAX_STATES)}

    def extra_metrics(self, inputs, results):
        return {}


WORKLOADS = {w.name: w for w in (Suite(), Scale(), Search())}
