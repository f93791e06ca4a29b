"""Tests of the benchmark itself (not of cogal).

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -v
"""

from __future__ import annotations

import random
import signal
import time
import unittest
from array import array
from unittest import mock

import modelgen
import run
import tracing
import workloads


class SelfTime(unittest.TestCase):
    def test_hand_built_span_tree(self):
        ids = {name: i for i, name in enumerate(tracing.LAYERS)}
        # bench [0, 10]
        #   checker.eval [1, 6]
        #     formula.binding [2, 3]
        #     model.contract [4, 5.5]
        #   checker.eval [7, 9]
        spans = [("bench", -1, 0.0, 10.0),
                 ("checker.eval", 0, 1.0, 6.0),
                 ("formula.binding", 1, 2.0, 3.0),
                 ("model.contract", 1, 4.0, 5.5),
                 ("checker.eval", 0, 7.0, 9.0)]
        totals = tracing.layer_totals(
            array("i", [ids[name] for name, *_ in spans]),
            array("i", [p for _, p, _, _ in spans]),
            array("d", [s for _, _, s, _ in spans]),
            array("d", [e for *_, e in spans]))
        self.assertEqual(totals["bench"], (1, 3.0))
        self.assertEqual(totals["checker.eval"], (2, 4.5))
        self.assertEqual(totals["formula.binding"], (1, 1.0))
        self.assertEqual(totals["model.contract"], (1, 1.5))
        self.assertEqual(totals["model.update"], (0, 0.0))
        # Counting only the second top-level subtree; self times still
        # subtract children outside the range.
        later = tracing.layer_totals(
            array("i", [ids[name] for name, *_ in spans]),
            array("i", [p for _, p, _, _ in spans]),
            array("d", [s for _, _, s, _ in spans]),
            array("d", [e for *_, e in spans]), first=4)
        self.assertEqual(later["checker.eval"], (1, 2.0))
        self.assertEqual(later["bench"], (0, 0.0))


class Patching(unittest.TestCase):
    def test_spans_cover_by_name_imports_and_unpatch(self):
        cg = workloads.import_cogal()
        original = cg.model.bisim_contract
        model, state = cg.model.load_model(workloads.MODELS / "train.json")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            # checker and harness bind bisim_contract under their own names.
            self.assertIsNot(cg.checker.bisim_contract, original)
            self.assertIsNot(cg.harness.bisim_contract, original)
            tracer.call(lambda: cg.checker.Evaluator(model).check(
                state, cg.formula.parse("<{a,b}> ~K c ~p")))
        finally:
            tracer.uninstall()
        self.assertIs(cg.checker.bisim_contract, original)
        self.assertIs(cg.harness.bisim_contract, original)
        totals = tracer.layer_totals()
        self.assertEqual(totals["checker.evaluator"][0], 1)
        self.assertEqual(totals["checker.check"][0], 1)
        self.assertGreaterEqual(totals["model.contract"][0], 1)
        self.assertEqual(totals["formula.binding"][0], 2)
        self.assertEqual(totals["formula.parse"][0], 1)
        durations = sum(e - s for e, s in zip(tracer.end, tracer.start))
        self.assertGreater(durations, 0.0)


class ReferenceClock(unittest.TestCase):
    def test_pass_is_counted_in_reference_slices(self):
        class Spin:
            def run_pass(self, cg, inputs):
                end = time.process_time() + 0.3
                while time.process_time() < end:
                    pass
                return workloads.PassResult([])

        result, timing = run.timed_pass(Spin(), None, None)
        self.assertEqual(result.outputs, [])
        self.assertGreater(timing.slice, 0.0)
        self.assertAlmostEqual(timing.refs, timing.cpu / timing.slice)
        # One slice when the pass starts, then one per REF_INTERVAL_S of CPU.
        self.assertTrue(4 <= timing.slices <= 10, timing.slices)
        self.assertEqual(signal.getitimer(signal.ITIMER_PROF), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGPROF), signal.SIG_DFL)


class Generator(unittest.TestCase):
    def test_same_seed_same_models_exact_size(self):
        for n in (1, 4, 9, 16):
            first = modelgen.exact_model_doc(random.Random(f"t:{n}"), n)
            again = modelgen.exact_model_doc(random.Random(f"t:{n}"), n)
            self.assertEqual(first, again)
            self.assertEqual(len(first["states"]), n)
            for agent in modelgen.AGENTS:
                blocks = first["partitions"][agent]
                self.assertEqual(len(blocks), modelgen.block_count(n, agent))
                self.assertEqual(sorted(s for b in blocks for s in b),
                                 sorted(first["states"]))
        cg = workloads.import_cogal()
        model = cg.model.validate(modelgen.exact_model_doc(random.Random(0), 16))
        self.assertEqual(len(model.states), 16)

    def test_different_seeds_differ(self):
        docs = {str(modelgen.exact_model_doc(random.Random(s), 12)) for s in range(5)}
        self.assertEqual(len(docs), 5)


class SmallScale(workloads.Scale):
    SIZES = (4, 6)
    MODELS_PER_SIZE = 1


class FailedOps(unittest.TestCase):
    def test_wrong_scale_verdict_is_a_failed_op(self):
        cg = workloads.import_cogal()
        scale = SmallScale()
        inputs = scale.setup(cg, 3)
        result = scale.run_pass(cg, inputs)
        reference = scale.reference(cg, inputs, result)
        self.assertEqual(scale.evaluate(cg, inputs, result, reference),
                         (len(inputs.jobs), 0))
        # Flip one verdict of an EL job and of a GAL job.
        for fragment in ("EL", "GAL"):
            j = next(i for i, job in enumerate(inputs.jobs) if job.fragment == fragment)
            verdicts = result.outputs[j]
            result.outputs[j] = [cg.checker.Verdict(not verdicts[0].truth)] + verdicts[1:]
        # The EL job fails the translate oracle without any reference; the
        # GAL job only differs from the recorded reference.
        self.assertEqual(scale.evaluate(cg, inputs, result, None)[1], 1)
        self.assertEqual(scale.evaluate(cg, inputs, result, reference)[1], 2)
        result.outputs[-1] = RuntimeError("boom")
        self.assertEqual(scale.evaluate(cg, inputs, result, None)[1], 2)

    def test_suite_canary_that_holds_is_a_failed_op(self):
        cg = workloads.import_cogal()
        report = cg.harness.axiom_suite(cg.harness.GenParams(seed=0, count=3),
                                        items=["A01", "canary"], certify=True)
        result = workloads.PassResult([report])
        suite = workloads.Suite()
        ops, failed = suite.evaluate(cg, None, result, None)
        self.assertEqual((ops, failed), (report.to_doc()["totals"]["instances"], 0))
        next(item for item in report.items if item.name == "canary").failures = 0
        self.assertEqual(suite.evaluate(cg, None, result, None)[1], 1)

    def test_search_hit_on_valid_formula_is_a_failed_op(self):
        cg = workloads.import_cogal()
        search = workloads.Search()
        inputs = search.setup(cg, 0)
        model, state = cg.model.load_model(workloads.MODELS / "train.json")
        fake = cg.harness.SearchHit(cg.model.PointedModel(model, state), {})
        wrong = workloads.PassResult([fake, None, None])
        # The valid formula got a hit and the invalid one got none.
        self.assertEqual(search.evaluate(cg, inputs, wrong, None)[1], 2)


class Candidates(unittest.TestCase):
    def test_candidate_count_matches_enumeration(self):
        cg = workloads.import_cogal()
        for agents, props, k in ((("a", "b", "c"), ("p", "q"), 2), (("a",), ("p",), 3)):
            self.assertEqual(
                workloads.candidate_count(len(agents), len(props), k),
                sum(1 for _ in cg.harness.enumerate_models(agents, props, k)))
        self.assertEqual(workloads.candidate_count(3, 2, 3), 8132)


class MissingProgram(unittest.TestCase):
    def test_exits_nonzero_without_the_program(self):
        absent = workloads.ROOT / "no-such-directory" / "src"
        with mock.patch.object(workloads, "SRC", absent), \
                mock.patch("sys.stdout") as out:
            code = run.main(["--workload", "scale", "--seconds", "1"])
        self.assertEqual(code, 2)
        out.write.assert_not_called()


if __name__ == "__main__":
    unittest.main()
