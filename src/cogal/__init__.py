"""Model checker and validity laboratory for coalition and group
announcement logic (CoGAL) on finite S5 epistemic models."""

from .formula import (
    And, Atom, Bot, CoalBox, CoalDia, Formula, Fragment, GroupBox, GroupDia,
    Hole, Iff, Imp, ImpCtx, Know, KnowCtx, NecessityForm, Not, Or, PaBox,
    PaCtx, PaDia, ParseError, Top, depth_ca, depth_pa, fragment, instantiate,
    is_group_announcement, order_lt, parse, render, resugar, size,
)
from .model import (
    ContractionMap, KripkeModel, ModelError, PointedModel, bisim_contract,
    char_formula, is_contracted, load_model, realize_choice, save_model,
    to_dot, validate,
)
from .checker import (
    AnnouncementChoice, BindingError, Evaluator, Verdict, check,
    eval_formula, extension,
)
from .translate import translate
from .harness import (
    GenParams, SearchHit, SuiteReport, axiom_suite, enumerate_models,
    find_countermodel, instantiation_pool, prop4_countermodel, prop4_formula,
    random_formula, random_model, train_model,
)

__version__ = "0.1.0"
