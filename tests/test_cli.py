import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cogal
from cogal.cli import main
from cogal.checker import Evaluator, eval_formula
from cogal.formula import ParseError, parse, render, substitute
from cogal.harness import random_formula, train_model
from cogal.model import save_model, validate


@pytest.fixture()
def train_file(tmp_path):
    model, point = train_model()
    path = tmp_path / "train.json"
    save_model(path, model, designated=point)
    return str(path)


class TestCheck:
    def test_true_formula_exits_zero(self, train_file, capsys):
        code = main(["check", train_file, "[~p] K c ~p", "--at", "w"])
        out = capsys.readouterr().out
        assert code == 0
        assert "truth: true" in out

    def test_false_formula_exits_one(self, train_file, capsys):
        code = main(["check", train_file,
                     "<[{a,c}]> (~K c ~p & ~K c p)", "--at", "w"])
        assert code == 1
        assert "truth: false" in capsys.readouterr().out

    def test_unbound_agent_exits_two(self, train_file, capsys):
        code = main(["check", train_file, "K d p", "--at", "w"])
        assert code == 2
        assert "unbound" in capsys.readouterr().err

    def test_designated_state_is_default_point(self, train_file, capsys):
        assert main(["check", train_file, "~p"]) == 0
        assert "point: w" in capsys.readouterr().out

    def test_missing_point_reported(self, tmp_path, capsys):
        model, _ = train_model()
        path = tmp_path / "nodesig.json"
        save_model(path, model)
        assert main(["check", str(path), "p"]) == 2
        assert "--at" in capsys.readouterr().err

    def test_json_verdict_round_trips(self, train_file, capsys):
        code = main(["check", train_file, "<{a,b}> (~K c ~p & ~K c p)",
                     "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["truth"] is True
        assert doc["point"] == "w"
        assert parse(doc["witness"]["formula"])  # reparses

    def test_formula_file(self, train_file, tmp_path, capsys):
        ffile = tmp_path / "f.cogal"
        ffile.write_text("[~p] K c ~p\n", encoding="utf-8")
        assert main(["check", train_file, "--formula-file", str(ffile)]) == 0

    @staticmethod
    def outcome(args, capsys) -> tuple:
        """(exit code, stdout, stderr) of `main`; a usage error exits."""
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("options", [["--json"], ["--at", "w"],
                                         ["--at", "w", "--json"]])
    @pytest.mark.parametrize("formula", ["[~p] K c ~p",
                                         "<[{a,c}]> (~K c ~p & ~K c p)"])
    def test_options_may_come_before_between_or_after_the_formula(
            self, train_file, capsys, options, formula):
        expected = self.outcome(["check", train_file, formula] + options,
                                capsys)
        assert expected[0] in (0, 1) and expected[2] == ""
        for args in (options + [train_file, formula],
                     [train_file] + options + [formula],
                     [train_file, formula] + options):
            assert self.outcome(["check"] + args, capsys) == expected

    @pytest.mark.parametrize("args", [["p", "q"], ["--json", "p", "q"],
                                      ["p", "--at", "w", "q"]])
    def test_two_formulas_are_a_usage_error(self, train_file, capsys, args):
        code, out, err = self.outcome(["check", train_file] + args, capsys)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: q" in err

    @pytest.mark.parametrize("args", [["--formula-file", "F", "p"],
                                      ["p", "--formula-file", "F"],
                                      ["--json", "p", "--formula-file", "F"]])
    def test_a_formula_and_a_formula_file_exit_two(
            self, train_file, tmp_path, capsys, args):
        ffile = tmp_path / "f.cogal"
        ffile.write_text("p\n", encoding="utf-8")
        args = [str(ffile) if arg == "F" else arg for arg in args]
        assert self.outcome(["check", train_file] + args, capsys) == (
            2, "", "error: provide exactly one of a formula argument or "
                   "--formula-file\n")

    def test_parse_error_exits_two(self, train_file, capsys):
        assert main(["check", train_file, "p ->"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_choices_are_named(self, train_file, capsys):
        # the grand coalition has no opponents, and the empty group has
        # one trivial choice; the JSON verdict keeps the empty mapping
        assert main(["check", train_file, "<[{a,b,c}]> p"]) == 1
        assert "refuting opponent choice: (empty group)\n" \
            in capsys.readouterr().out
        assert main(["check", train_file, "<{}> ~p"]) == 0
        assert "witness choice: (empty group)\n" in capsys.readouterr().out
        assert main(["check", train_file, "<{}> ~p", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["witness"]["choice"] == {}

    def test_missing_model_file_names_path_and_reason(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["check", str(missing), "p"]) == 2
        assert capsys.readouterr().err \
            == f"error: {missing}: No such file or directory\n"

    def test_missing_formula_file_names_path_and_reason(
            self, train_file, tmp_path, capsys):
        missing = tmp_path / "missing.cogal"
        assert main(["check", train_file, "--formula-file", str(missing)]) == 2
        assert capsys.readouterr().err \
            == f"error: {missing}: No such file or directory\n"


class TestSuite:
    ARGS = ["suite", "--seed", "5", "--models", "4", "--max-states", "3"]

    def test_default_run_passes(self, capsys):
        code = main(self.ARGS)
        out = capsys.readouterr().out
        assert code == 0
        assert "suite: PASS" in out

    def test_byte_identical_reports(self, capsys):
        main(self.ARGS + ["--items", "C1"])
        first = capsys.readouterr().out
        main(self.ARGS + ["--items", "C1"])
        second = capsys.readouterr().out
        assert first == second

    def test_prop4_item_reports_countermodel(self, capsys):
        code = main(self.ARGS + ["--items", "prop4", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        (item,) = doc["items"]
        assert item["name"] == "prop4"
        assert item["countermodel"] is not None
        model = validate(item["countermodel"]["model"])
        assert eval_formula(model, item["countermodel"]["state"],
                            parse(item["countermodel"]["formula"])) is False

    def test_bad_items_exit_two(self, capsys):
        assert main(self.ARGS + ["--items", "A99"]) == 2

    def test_bad_params_exit_two(self, capsys):
        assert main(["suite", "--max-states", "0"]) == 2

    def test_a_state_bound_past_the_limit_exits_two(self, capsys):
        assert main(["suite", "--max-states", "65", "--models", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: max_states must be between 1 and 64\n"
        assert captured.out == ""

    def test_no_items_exits_two(self, capsys):
        assert main(self.ARGS + ["--items", ","]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: no suite items to run\n"
        assert "suite:" not in captured.out

    def test_no_models_exits_two(self, capsys):
        assert main(["suite", "--models", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: the suite needs at least one model\n"
        assert "suite:" not in captured.out


class TestPinnedSuiteReports:
    """The full suite reports of seed 7 and of the benchmark's panel seed
    1000 over 100 models, byte for byte. With `--certify` every choice set
    is enumerated and certified (7,415 and 8,424 certificates); without it,
    quantifiers over positive and negative bodies are decided by one
    announcement. All four reports must stay the same."""

    @pytest.mark.parametrize("seed, flags, md5", [
        (7, ["--certify"], "45bc5bdd90c86c578562d37ccb9962d2"),
        (7, [], "98d8ba5993931a06e4b38a7ad6fe6420"),
        (1000, ["--certify"], "8f656add02d5f93a17f1aadc7de8211d"),
        (1000, [], "89c502cc3b234e2142f779d48ea9a50b"),
    ])
    def test_report_digest(self, capsys, seed, flags, md5):
        code = main(["suite", "--seed", str(seed), "--models", "100",
                     "--json"] + flags)
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == md5


class TestSearch:
    def test_finds_and_writes_countermodel(self, tmp_path, capsys):
        out = tmp_path / "cm.json"
        code = main(["search", "p -> K a p", "--max-states", "2",
                     "--agents", "a", "--props", "p", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        model = validate(doc)
        assert eval_formula(model, doc["designated"],
                            parse("p -> K a p")) is False

    def test_valid_formula_exits_one(self, tmp_path, capsys):
        code = main(["search", "K a p -> p", "--max-states", "3",
                     "--agents", "a", "--props", "p",
                     "--out", str(tmp_path / "cm.json")])
        assert code == 1
        assert "no countermodel" in capsys.readouterr().out

    def test_schematic_hit_names_each_instance(self, tmp_path, capsys):
        out = tmp_path / "cm.json"
        code = main(["search", "x -> K a x", "--schematic", "x",
                     "--max-states", "2", "--out", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"countermodel written to {out} ")
        assert len(lines) == 2 and lines[1].startswith("x := ")
        # the countermodel refutes the instance it names
        instance = parse(lines[1][len("x := "):])
        doc = json.loads(out.read_text(encoding="utf-8"))
        g = substitute(parse("x -> K a x"), {"x": instance})
        assert eval_formula(validate(doc), doc["designated"], g) is False

    def test_schematic_valid_schema_exits_one(self, tmp_path, capsys):
        code = main(["search", "<[{a}]> x -> <{a}> [{b,c}] x",
                     "--schematic", "x", "--max-states", "2",
                     "--out", str(tmp_path / "cm.json")])
        assert code == 1
        assert capsys.readouterr().out == "no countermodel within bounds\n"

    @pytest.mark.parametrize("atoms, message", [
        ("x,x", "schematic atoms must be distinct"),
        ("x,X1,y", "schematic atoms not in the formula: X1, y"),
    ])
    def test_bad_schematic_atoms_exit_two(self, tmp_path, capsys, atoms,
                                          message):
        # a repeated atom would multiply the instances by the pool's size,
        # and one missing from the formula would make it a proposition
        out = tmp_path / "x.json"
        assert main(["search", "x -> K a x", "--schematic", atoms,
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_parse_error_exits_two(self, tmp_path):
        assert main(["search", "p &", "--out", str(tmp_path / "x.json")]) == 2

    def test_a_state_bound_past_the_limit_exits_two(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["search", "p", "--max-states", "65", "--count", "1",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: max_states must be between 1 and 64\n"
        assert captured.out == ""
        assert not out.exists()

    def test_sampled_search_without_models_exits_two(self, tmp_path, capsys):
        code = main(["search", "<{a}> p", "--max-states", "4", "--count", "0",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err \
            == "error: the sampled search needs at least one model\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flags, message", [
        (["--agents", "1x"], "invalid agent name '1x': expected "
                             "[a-z][a-z0-9_]* other than the reserved words "
                             "'top' and 'bot'"),
        (["--props", "p,p"], "duplicate proposition identifiers"),
    ])
    def test_bad_vocabulary_exits_two(self, tmp_path, capsys, flags, message):
        # the exhaustive search validates only the models it builds; the
        # first candidate is always built
        out = tmp_path / "x.json"
        assert main(["search", "p", "--out", str(out)] + flags) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_unwritable_out_names_path_and_reason(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "cm.json"
        code = main(["search", "p -> K a p", "--max-states", "2",
                     "--agents", "a", "--props", "p", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err \
            == f"error: {out}: No such file or directory\n"


class TestContractDotTranslate:
    def test_contract_is_isomorphic_for_train(self, train_file, capsys):
        assert main(["contract", train_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["states"] == ["w", "v"]
        assert doc["designated"] == "w"

    def test_contract_merges_duplicates(self, tmp_path, capsys):
        model = validate({
            "agents": ["a"], "props": ["p"], "states": ["x", "y"],
            "partitions": {"a": [["x", "y"]]}, "valuation": {"p": []},
        })
        path = tmp_path / "dup.json"
        save_model(path, model, designated="y")
        assert main(["contract", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["states"] == ["x"]
        assert doc["designated"] == "x"

    def test_contract_of_a_contracted_model_is_the_same_document(
            self, tmp_path, capsys):
        model = validate({
            "agents": ["a", "b"], "props": ["p"], "states": ["x", "y", "z"],
            "partitions": {"a": [["x", "y"], ["z"]], "b": [["x"], ["y", "z"]]},
            "valuation": {"p": ["x", "y"]},
        })
        path = tmp_path / "m.json"
        save_model(path, model, designated="y")
        assert main(["contract", str(path)]) == 0
        first = capsys.readouterr().out
        again = tmp_path / "contracted.json"
        again.write_text(first, encoding="utf-8")
        assert main(["contract", str(again)]) == 0
        assert capsys.readouterr().out == first

    def test_dot_output(self, train_file, capsys):
        assert main(["dot", train_file]) == 0
        out = capsys.readouterr().out
        assert out.count("label=") == 3
        assert '"w" -- "v" [label="c"];' in out

    def test_translate_announced_knowledge(self, capsys):
        assert main(["translate", "[p] K a q"]) == 0
        assert capsys.readouterr().out.strip() == "p -> K a (p -> q)"

    def test_translate_rejects_quantifiers(self, capsys):
        assert main(["translate", "[{a}] p"]) == 2

    @pytest.mark.parametrize("args, code, out, err", [
        (["translate", "[p] K a q"], 0, "p -> K a (p -> q)\n", ""),
        (["translate", "[{a}] p"], 2, "", "error: translation is defined"),
    ])
    def test_package_runs_as_a_module(self, args, code, out, err):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cogal.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-m", "cogal"] + args,
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert done.returncode == code
        assert done.stdout == out
        assert done.stderr.startswith(err)


class TestClosedStdout:
    """A reader that closes stdout before the output is written changes no
    exit code, whatever the timing: the output is dropped, and nothing is
    written to stderr."""

    PROP4 = str(Path(__file__).resolve().parents[1] / "models" / "prop4.json")
    GOAL = "K b (p & q & r) & ~K a (p & q & r) & ~K c (p & q & r)"

    @pytest.mark.parametrize("args, code", [
        (["check", PROP4, f"<[{{a,b}}]> ({GOAL})"], 0),
        (["check", PROP4, f"<[{{a}}]> <[{{b}}]> ({GOAL})"], 1),
        (["suite", "--models", "3"], 0),
    ], ids=["check-true", "check-false", "suite"])
    def test_closed_stdout_keeps_the_exit_code(self, args, code):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cogal.__file__).resolve().parents[1]))
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, "-m", "cogal"] + args,
                                  stdout=write, stderr=subprocess.PIPE,
                                  env=env, timeout=120)
        finally:
            os.close(write)
        assert done.stderr == b""
        assert done.returncode == code


class TestMalformedModel:
    def test_unhashable_state_entries_exit_two(self, tmp_path, capsys):
        model, _ = train_model()
        doc = model.to_doc(designated="w")
        doc["partitions"]["a"] = [[["w"]], ["v"]]
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(path), "p"]) == 2
        assert "state ids" in capsys.readouterr().err

    def test_model_that_is_a_list_exits_two(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[]", encoding="utf-8")
        assert main(["check", str(path), "p"]) == 2
        assert capsys.readouterr().err \
            == "error: model document must be a JSON object\n"

    def test_model_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        # the decoder's own message, not its bare `args[0]` ("utf-8")
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"agents": ["\xe9"]}')
        assert main(["check", str(path), "p"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: model file {path}: 'utf-8' codec")

    def test_formula_file_that_is_not_utf8_exits_two(self, tmp_path,
                                                     train_file, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"p \xe9")
        assert main(["check", train_file, "--formula-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: formula file {path}: 'utf-8' codec "
                              "can't decode")

    def test_model_nested_too_deeply_exits_two(self, tmp_path, capsys):
        # the json decoder recurses once per level; the error names the
        # model file, not the formula
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        assert main(["check", str(path), "p"]) == 2
        assert capsys.readouterr().err \
            == f"error: model file {path}: nested too deeply\n"


class TestDeepFormula:
    """Deep nesting must end in a clean exit 2, never in a traceback and
    exit 1, which scripts read as "false"."""

    def run_check(self, train_file, tmp_path, depth, prefix="~"):
        ffile = tmp_path / "deep.cogal"
        ffile.write_text(prefix * depth + "p", encoding="utf-8")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cogal.__file__).resolve().parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "cogal.cli", "check", train_file,
             "--formula-file", str(ffile)],
            capture_output=True, text=True, env=env, timeout=60)

    def test_too_deep_to_parse(self, train_file, tmp_path):
        done = self.run_check(train_file, tmp_path, 3000)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: formula nested too deeply at line 1")

    def test_parses_but_too_deep_to_evaluate(self, train_file, tmp_path):
        # the parser keeps nesting on its own stack, and 400 levels are
        # within its limit; evaluation spends four frames per `<{a}>` (the
        # node, the quantifier rule, the scan, the body), so they overflow
        # evaluation; the message has no position, which tells it from the
        # parser's
        done = self.run_check(train_file, tmp_path, 400, prefix="<{a}> ")
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr == "error: formula nested too deeply\n"

    def test_deep_negation_chain_gets_a_verdict(self, train_file, tmp_path):
        # a negation is answered in its operand's frame
        done = self.run_check(train_file, tmp_path, 600)
        assert done.returncode == 1
        assert done.stderr == ""
        assert done.stdout.endswith("truth: false\n")

    def run_search(self, tmp_path, depth, prefix):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cogal.__file__).resolve().parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "cogal.cli", "search", prefix * depth + "p",
             "--out", str(tmp_path / "cm.json")],
            capture_output=True, text=True, env=env, timeout=120)

    def test_search_too_deep_to_evaluate(self, tmp_path):
        # the search reads each instance's extent (`Evaluator._where`); a
        # quantifier that no one set decides is read per block by `_eval`,
        # which overflows as `check` does
        done = self.run_search(tmp_path, 400, "<{a}> ")
        assert done.returncode == 2
        assert done.stderr == "error: formula nested too deeply\n"
        assert not (tmp_path / "cm.json").exists()

    @pytest.mark.parametrize("depth, prefix, code, last", [
        (400, "[p] ", 1, "no countermodel within bounds\n"),
        (600, "~", 0, "(false at state s0)\n"),
    ], ids=["announcements", "negations"])
    def test_deep_search_gets_a_verdict(self, tmp_path, depth, prefix, code,
                                        last):
        # one extent frame per announcement, and a negation is answered in
        # its operand's frame
        done = self.run_search(tmp_path, depth, prefix)
        assert done.returncode == code
        assert done.stderr == ""
        assert done.stdout.endswith(last)

    def test_deep_extensions_in_process(self):
        model, _ = train_model()
        everything = frozenset(model.states)
        ev = Evaluator(model)
        assert ev.extension(parse("[p] " * 400 + "p")) == everything
        assert ev.extension(parse("~" * 600 + "p")) == model.truth_set("p")
        assert ev.extension(parse("~" * 601 + "p")) \
            == everything - model.truth_set("p")
        with pytest.raises(RecursionError):
            Evaluator(model).extension(parse("<{a}> " * 400 + "p"))

    def test_parse_error_in_process(self):
        with pytest.raises(ParseError, match="formula nested too deeply"):
            parse("~" * 3000 + "p")

    @pytest.mark.parametrize("text, column", [
        ("(" * 2000 + "p" + ")" * 2000, 1001),
        ("~" * 3000 + "p", 1001),
        ("<{a}> " * 1500 + "p", 6001),
        ("p -> " * 1500 + "p", 5003),
    ], ids=["parentheses", "negations", "group-diamonds", "implications"])
    def test_depth_error_does_not_depend_on_the_callers_stack(self, text,
                                                              column):
        def error(extra):
            if extra:
                return error(extra - 1)
            with pytest.raises(ParseError,
                               match="formula nested too deeply") as caught:
                parse(text)
            return caught.value

        errors = [error(extra) for extra in (0, 20, 50)]
        assert len({str(e) for e in errors}) == 1
        assert errors[0].column == column


class TestInternalError:
    def test_unexpected_exception_exits_two_without_traceback(
            self, train_file, monkeypatch, capsys):
        import cogal.cli as cli

        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "check", broken)
        assert main(["check", train_file, "p"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: internal error: RuntimeError: boom\n"
        assert "Traceback" not in captured.err
        assert captured.out == ""


STATES = ("w", "v", "u")
TOKENS = ("p", "q", "r", "a", "b", "c", "K", "~", "&", "|", "->", "<->",
          "(", ")", "[", "]", "<", ">", "{", "}", ",", "[<", "<[", ">]", "]>",
          "top", "bot", "-", " ", "{a,b}", "{}", "K a", "<{a}>", "[{b,c}]")


@st.composite
def model_documents(draw):
    """A valid model document of at most three states over the agents
    a, b, c, so that every rendered formula is bound."""
    states = list(STATES[:draw(st.integers(1, 3))])
    agents = ["a", "b", "c"]
    partitions = {}
    for agent in agents:
        labels = draw(st.lists(st.integers(0, len(states) - 1),
                               min_size=len(states), max_size=len(states)))
        blocks = {}
        for s, label in zip(states, labels):
            blocks.setdefault(label, []).append(s)
        partitions[agent] = list(blocks.values())
    return {
        "agents": agents, "props": ["p", "q"], "states": states,
        "partitions": partitions,
        "valuation": {p: draw(st.lists(st.sampled_from(states), unique=True))
                      for p in ("p", "q")},
        "designated": draw(st.sampled_from(states)),
    }


def json_containers(inner):
    return (st.lists(inner, max_size=3)
            | st.dictionaries(st.sampled_from(("a", "p", "w")), inner,
                              max_size=3))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.sampled_from(STATES + ("a", "p", "", "zz", "1x")),
    json_containers, max_leaves=6)


@st.composite
def mutated_documents(draw):
    """A valid document with one value replaced or one key dropped, then
    up to three bytes of its text replaced, inserted or deleted."""
    doc = draw(model_documents())
    key = draw(st.sampled_from(sorted(doc)))
    if draw(st.booleans()):
        del doc[key]
    else:
        target, field = doc, key
        while isinstance(target[field], (dict, list)) and target[field] \
                and draw(st.booleans()):
            target = target[field]
            field = draw(st.sampled_from(sorted(target) if isinstance(
                target, dict) else range(len(target))))
        target[field] = draw(JSON_VALUES)
    text = bytearray(json.dumps(doc).encode())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        byte = draw(st.integers(0, 255))
        if edit == "insert":
            text[at:at] = bytes([byte])
        elif at < len(text):
            text[at:at + 1] = b"" if edit == "delete" else bytes([byte])
    return bytes(text)


# half the models and half the formulas are valid, so that about one
# `check` in four reaches a verdict
MODEL_BYTES = st.one_of(
    model_documents().map(lambda doc: json.dumps(doc).encode()),
    st.one_of(mutated_documents(), st.binary(max_size=64)),
)

@st.composite
def rendered_formulas(draw):
    """A random CoGAL formula over a, b, c and p, q, rendered, often under
    a top quantifier so that `check` reports evidence, with up to two
    tokens then dropped or inserted."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    prefix = draw(st.sampled_from(("", "<{}>", "<{a}>", "<{a,b}>",
                                   "<[{}]>", "<[{a}]>", "<[{a,b,c}]>")))
    tokens = (prefix + " (" + render(random_formula(
        rng, ("a", "b", "c"), ("p", "q"), max_depth=2)) + ")").split()
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(tokens)))
        if draw(st.booleans()):
            tokens[at:at + 1] = []
        else:
            tokens.insert(at, draw(st.sampled_from(TOKENS)))
    return " ".join(tokens)


FORMULAS = st.one_of(
    rendered_formulas(),
    st.one_of(st.lists(st.sampled_from(TOKENS), max_size=12).map(" ".join),
              st.lists(st.sampled_from(TOKENS), max_size=12).map("".join),
              st.text(max_size=16)),
)


class TestFuzz:
    """Any model bytes and any formula text end in a verdict or a clean
    exit 2: never a traceback, and never the internal-error report."""

    @settings(max_examples=400, deadline=None)
    @given(data=MODEL_BYTES, formula=FORMULAS,
           command=st.sampled_from(("check", "check --json", "contract",
                                    "dot")),
           at=st.none() | st.sampled_from(STATES + ("zz",)))
    def test_exit_codes_are_clean(self, tmp_path_factory, data, formula,
                                  command, at):
        path = tmp_path_factory.getbasetemp() / "fuzz-model.json"
        path.write_bytes(data)
        argv = command.split()[:1] + [str(path)]
        if command.startswith("check"):
            argv += [formula] + command.split()[1:]
            if at is not None:
                argv += ["--at", at]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                # argparse's usage error, e.g. for a formula starting "-"
                code = exc.code
        assert code in (0, 1, 2), (argv, data, err.getvalue())
        assert "internal error" not in err.getvalue()
        assert "Traceback" not in err.getvalue()
