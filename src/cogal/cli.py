"""Command-line front end.

Subcommands: check a formula on a model, run the axiom suite, search for a
countermodel, contract a model, export DOT, translate announcement formulas.
Exit codes: 0 success/true, 1 false or countermodel-dependent negative,
2 usage or input error, or an internal error (reported, never a traceback).
"""

from __future__ import annotations

import argparse
import json
import sys

from .checker import BindingError, Evaluator
from .formula import ParseError, parse, render, resugar
from .harness import (
    GenParams, axiom_suite, find_countermodel, suite_item_names,
)
from .model import ModelError, bisim_contract, load_model, save_model, to_dot
from .translate import translate

_EXIT_TRUE = 0
_EXIT_FALSE = 1
_EXIT_ERROR = 2


def _split_names(raw: str) -> tuple:
    return tuple(x.strip() for x in raw.split(",") if x.strip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogal",
        description="Model checker for coalition and group announcement "
                    "logic on finite S5 models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate a formula on a model")
    p_check.add_argument("model", help="model file (JSON)")
    p_check.add_argument("formula", nargs="?", help="formula text")
    p_check.add_argument("--formula-file", help="read the formula from a file")
    p_check.add_argument("--at", help="evaluation state (defaults to the "
                                      "model's designated state)")
    p_check.add_argument("--json", action="store_true",
                         help="emit the verdict as JSON")

    p_suite = sub.add_parser("suite", help="run the axiom/property suite")
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument("--models", type=int, default=100,
                         help="number of random models (default 100)")
    p_suite.add_argument("--max-states", type=int, default=4)
    p_suite.add_argument("--agents", default="a,b,c")
    p_suite.add_argument("--props", default="p,q")
    p_suite.add_argument("--items", help="comma-separated item names "
                                         f"(known: {', '.join(suite_item_names())})")
    p_suite.add_argument("--certify", action="store_true",
                         help="check every enumerated announcement choice "
                              "against its realizing formula")
    p_suite.add_argument("--json", action="store_true")

    p_search = sub.add_parser("search", help="search for a countermodel")
    p_search.add_argument("formula")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--count", type=int, default=500,
                          help="random models to try when max-states > 3")
    p_search.add_argument("--max-states", type=int, default=3,
                          help="exhaustive up to 3 states, sampled beyond")
    p_search.add_argument("--agents", default="a,b,c")
    p_search.add_argument("--props", default="p,q")
    p_search.add_argument("--out", default="countermodel.json",
                          help="where to write the countermodel (default "
                               "countermodel.json)")

    p_contract = sub.add_parser("contract",
                                help="print the bisimulation contraction")
    p_contract.add_argument("model")

    p_dot = sub.add_parser("dot", help="print the model as a DOT graph")
    p_dot.add_argument("model")

    p_translate = sub.add_parser("translate",
                                 help="translate an announcement formula into "
                                      "the epistemic language")
    p_translate.add_argument("formula")
    return parser


def _pick_point(args, designated) -> str:
    if args.at is not None:
        return args.at
    if designated is not None:
        return designated
    raise ModelError("model has no designated state; pass --at STATE")


def _cmd_check(args) -> int:
    model, designated = load_model(args.model)
    if (args.formula is None) == (args.formula_file is None):
        raise ValueError("provide exactly one of a formula argument or "
                         "--formula-file")
    if args.formula_file is not None:
        with open(args.formula_file, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = args.formula
    formula = parse(text)
    point = _pick_point(args, designated)
    verdict = Evaluator(model).check(point, formula)
    if args.json:
        doc = verdict.to_doc()
        doc["formula"] = render(formula)
        doc["point"] = point
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"formula: {render(formula)}")
        print(f"point: {point}")
        print(f"truth: {'true' if verdict.truth else 'false'}")
        if verdict.witness_choice is not None:
            print("witness choice: " + _choice_text(verdict.witness_choice))
            print(f"witness announcement: {render(verdict.witness_formula)}")
        if verdict.refutation_choice is not None:
            print("refuting opponent choice: "
                  + _choice_text(verdict.refutation_choice))
            print("refuting announcement: "
                  + render(verdict.refutation_formula))
    return _EXIT_TRUE if verdict.truth else _EXIT_FALSE


def _choice_text(choice) -> str:
    parts = [f"{agent}: {{{', '.join(sorted(states))}}}"
             for agent, states in sorted(choice.items())]
    return "; ".join(parts) if parts else "(empty group)"


def _cmd_suite(args) -> int:
    params = GenParams(max_states=args.max_states,
                       agents=_split_names(args.agents),
                       props=_split_names(args.props),
                       seed=args.seed, count=args.models)
    items = None if args.items is None else _split_names(args.items)
    report = axiom_suite(params, items=items, certify=args.certify)
    if args.json:
        print(json.dumps(report.to_doc(), indent=2, sort_keys=True))
    else:
        print(report.to_text(), end="")
    return _EXIT_TRUE if report.passed else _EXIT_FALSE


def _cmd_search(args) -> int:
    formula = parse(args.formula)
    params = GenParams(max_states=args.max_states,
                       agents=_split_names(args.agents),
                       props=_split_names(args.props),
                       seed=args.seed, count=args.count)
    hit = find_countermodel(formula, params)
    if hit is None:
        print("no countermodel within bounds")
        return _EXIT_FALSE
    save_model(args.out, hit.pointed.model, designated=hit.pointed.point)
    print(f"countermodel written to {args.out} (false at state "
          f"{hit.pointed.point})")
    return _EXIT_TRUE


def _cmd_contract(args) -> int:
    model, designated = load_model(args.model)
    cm = bisim_contract(model)
    mapped = cm.mapping[designated] if designated is not None else None
    print(json.dumps(cm.contracted.to_doc(designated=mapped), indent=2))
    return _EXIT_TRUE


def _cmd_dot(args) -> int:
    model, _ = load_model(args.model)
    print(to_dot(model), end="")
    return _EXIT_TRUE


def _cmd_translate(args) -> int:
    formula = parse(args.formula)
    print(render(resugar(translate(formula))))
    return _EXIT_TRUE


_COMMANDS = {
    "check": _cmd_check,
    "suite": _cmd_suite,
    "search": _cmd_search,
    "contract": _cmd_contract,
    "dot": _cmd_dot,
    "translate": _cmd_translate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except OSError as exc:
        # args[0] of an OSError is its errno; report the path and the reason
        reason = exc.strerror or str(exc)
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{reason}", file=sys.stderr)
        return _EXIT_ERROR
    except (ParseError, ModelError, BindingError, ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return _EXIT_ERROR
    except RecursionError:
        # parse reports its own overflow; evaluation and rendering recurse
        # once per nesting level too
        print("error: formula nested too deeply", file=sys.stderr)
        return _EXIT_ERROR
    except Exception as exc:
        # a fault of the program, not of the input; still never a traceback
        # or exit 1, which scripts read as "false"
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return _EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
