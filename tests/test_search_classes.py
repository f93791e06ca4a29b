"""Countermodel search evaluates one candidate per class of models whose
bisimulation quotients are isomorphic.

`model._bisim_key` names the class in the sampled search; these tests hold
it to a brute-force canonical form, and `find_countermodel` to the
candidate-by-candidate loop it replaced. The exhaustive search works on raw
candidates and computes no key: `search._classes` walks the agents' parts
first, drops relabellings of earlier candidates, refines once per parts and
level-0 partition, and yields only the contracted candidates. The tests
hold each step to the model-level form it stands for, the walk to the orbit
test it replaced (`_least_of_orbits` below, then the contracted test), and
the contracted test to the key: among the orbit-least candidates, the
contracted ones are exactly the first of each class. The candidates of one
(parts, level-0 partition) group are evaluated on one evaluator, which
swaps in each one's truth masks (`Evaluator._revalue`); the tests hold
every restriction it keeps to the candidate's own, and every verdict,
witness and characteristic formula it gives to those of a fresh evaluator
of the candidate's own model. Searches over one vocabulary share its walk
(`search._WALKS`, the last vocabulary's, of a bounded size); the tests hold
a sequence of searches sharing it to the same sequence run cold, and the
count pins each to a cold walk (`cold_walks`) or a warm one. A candidate
skips each instance that its group already held under the same values of
the instance's atoms (the held record of `find_countermodel`); the tests
hold the hits to the plain loop's over instances of every atom set, and
pin how many candidates read an instance."""

import gc
import hashlib
import itertools
import random
import weakref
from collections import Counter
from typing import Iterable, Iterator

import pytest

import cogal.search as search
from cogal.checker import BindingError, Evaluator
from cogal.formula import (
    Atom, CoalDia, Fragment, GroupDia, Know, agents_of, atoms, parse,
    substitute, _vocab_mask,
)
from cogal.model import (
    KripkeModel, ModelError, PointedModel, _Quotient, _bisim_key, _refine,
    _refine_masks, bisim_contract, char_formula, is_contracted,
    realize_choice, validate,
)
from cogal.search import (
    GenParams, _classes, _mask_partitions, enumerate_models, find_countermodel, instantiation_pool, random_formula,
    random_model, set_partitions,
)

AGENTS = ("a", "b", "c")
PROPS = ("p", "q")
EXHAUSTIVE = GenParams(max_states=3, agents=AGENTS, props=PROPS)


def brute_canonical(model: KripkeModel) -> tuple:
    """The least encoding of the contracted quotient over every renaming of
    its states to 0..n-1."""
    q = bisim_contract(model).contracted
    best = None
    for perm in itertools.permutations(range(len(q.states))):
        name = dict(zip(q.states, perm))
        code = (len(q.states),
                tuple(tuple(sorted(tuple(sorted(name[s] for s in block))
                                   for block in q.partitions[a]))
                      for a in q.agents),
                tuple(tuple(sorted(name[s] for s in q.valuation[p]))
                      for p in q.props))
        if best is None or code < best:
            best = code
    return best


def partition(keys) -> list:
    """The positions grouped by equal key, as a sorted list of lists."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return sorted(groups.values())


class TestKey:
    def test_exhaustive_classes_match_brute_force(self):
        models = list(enumerate_models(AGENTS, PROPS, 3))
        assert len(models) == 8132
        by_key = partition([_bisim_key(m) for m in models])
        assert by_key == partition([brute_canonical(m) for m in models])
        assert len(by_key) == 1140

    def test_random_classes_match_brute_force(self):
        # beyond the exhaustive bound: the random branch draws up to 4 states
        params = GenParams(max_states=4, agents=AGENTS, props=PROPS, seed=11)
        models = [random_model(params, i) for i in range(400)]
        assert partition([_bisim_key(m) for m in models]) \
            == partition([brute_canonical(m) for m in models])


def labelled_models(agents, props, max_states):
    """Every model of 1..max_states states built from frozensets of state
    names, in the order `enumerate_models` has always used."""
    for n in range(1, max_states + 1):
        states = tuple(f"s{i}" for i in range(n))
        partitions_all = [tuple(frozenset(b) for b in part)
                          for part in set_partitions(states)]
        for combo in itertools.product(partitions_all, repeat=len(agents)):
            for masks in itertools.product(range(2 ** n), repeat=len(props)):
                valuation = {p: frozenset(s for i, s in enumerate(states)
                                          if mask >> i & 1)
                             for p, mask in zip(props, masks)}
                yield KripkeModel(states, agents, props,
                                  dict(zip(agents, combo)), valuation)


def raw_models(agents, props, max_states):
    """Per state count n, (n, partitions, candidates): `partitions` is
    `_mask_partitions(n)`, `candidates` every raw (parts, masks) pair in the
    order of `enumerate_models`, `parts` holding each agent's partition as
    an index into `partitions`, `masks` each proposition's truth mask."""
    for n in range(1, max_states + 1):
        partitions = _mask_partitions(n)
        yield n, partitions, itertools.product(
            itertools.product(range(len(partitions)), repeat=len(agents)),
            itertools.product(range(1 << n), repeat=len(props)))


def raw_candidates(agents, props, max_states):
    """(n, partitions, parts, masks) for every raw candidate, in order."""
    for n, partitions, candidates in raw_models(agents, props, max_states):
        for parts, masks in candidates:
            yield n, partitions, parts, masks


def candidate_model(agents, props, n, parts, masks):
    """The validated model of a raw n-state candidate, built from its masks
    on a frame of its own, states named s0, s1, ... in order."""
    states = tuple(f"s{i}" for i in range(n))
    partitions = _mask_partitions(n)
    return KripkeModel._from_masks(
        states, agents, props,
        dict(zip(agents, [partitions[i] for i in parts])),
        dict(zip(props, masks)))


def bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def relabelling_canonical(n, partitions, parts, masks):
    """The least encoding of the labelled candidate over every permutation
    of its n states."""
    best = None
    for perm in itertools.permutations(range(n)):
        def moved(mask):
            return tuple(sorted(perm[i] for i in bits(mask)))

        code = (n,
                tuple(tuple(sorted(moved(b) for b in partitions[i]))
                      for i in parts),
                tuple(moved(m) for m in masks))
        if best is None or code < best:
            best = code
    return best


def general_refinement(class_masks, truth_masks, kept):
    """`model._refine_masks` without its one-state case: the general loop."""
    classes = [[cut for c in agent_classes if (cut := c & kept)]
               for agent_classes in class_masks]
    blocks = [kept]
    for truth in truth_masks:
        blocks = [part for b in blocks for part in (b & truth, b & ~truth)
                  if part]
    blocks.sort()
    levels = [blocks]
    while True:
        big = [b for b in blocks if b & (b - 1)]
        if not big:
            return levels, [tuple(agent_classes) for agent_classes in classes]
        saturated = []
        for agent_classes in classes:
            groups = {}
            for c in agent_classes:
                met = c
                for b in big:
                    if b & c:
                        met |= b
                groups[met] = groups.get(met, 0) | c
            saturated.append(groups)
        parts = big
        for groups in saturated:
            if len(groups) > 1:
                parts = [part for r in parts for g in groups.values()
                         if (part := r & g)]
        if len(parts) == len(big):
            return levels, [tuple(groups) for groups in saturated]
        blocks = [b for b in blocks if not b & (b - 1)] + parts
        levels.append(blocks)


def _least_of_orbits(n: int, partitions: list,
                     candidates: Iterable[tuple]) -> Iterator[tuple]:
    """The raw n-state candidates that no non-identity permutation of the
    states maps to a lexicographically smaller (parts, masks). The image is
    itself a candidate, and an isomorphic one, so these are exactly the first
    candidate of each relabelling class in enumeration order. The search ran
    this orbit test over every raw candidate before it walked parts first.

    A permutation that maps the agents' parts to smaller parts prunes every
    valuation of them; one that maps them to larger parts prunes none; the
    ones that fix them are then tried on the masks."""
    index = {frozenset(part): i for i, part in enumerate(partitions)}
    tables = []  # per non-identity permutation: partition and mask images
    for perm in itertools.islice(itertools.permutations(range(n)), 1, None):
        image = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << perm[low.bit_length() - 1]
        tables.append(([index[frozenset(image[b] for b in part)]
                        for part in partitions], image))
    last, fixing = None, None
    for parts, masks in candidates:
        if parts != last:
            last, fixing = parts, []
            for part_image, mask_image in tables:
                moved = tuple(part_image[i] for i in parts)
                if moved < parts:
                    fixing = None
                    break
                if moved == parts:
                    fixing.append(mask_image)
        if fixing is None or any(tuple(image[m] for m in masks) < masks
                                 for image in fixing):
            continue
        yield parts, masks


def orbit_walk(agents, props, max_states):
    """(n, parts, masks, refined) for each candidate the orbit test keeps,
    in order, with its refinement over all n states."""
    for n, partitions, candidates in raw_models(agents, props, max_states):
        for parts, masks in _least_of_orbits(n, partitions, candidates):
            yield n, parts, masks, _refine_masks(
                [partitions[i] for i in parts], masks, (1 << n) - 1)


def level0(n, masks):
    """The states grouped by valuation, as sorted block masks."""
    blocks = {}
    for i in range(n):
        key = tuple(m >> i & 1 for m in masks)
        blocks[key] = blocks.get(key, 0) | 1 << i
    return sorted(blocks.values())


class TestRawCandidates:
    def test_mask_and_name_built_models_agree(self):
        # `enumerate_models` builds each candidate from its masks,
        # `labelled_models` from frozensets of state names
        count = 0
        for by_masks, by_names in zip(enumerate_models(AGENTS, PROPS, 3),
                                      labelled_models(AGENTS, PROPS, 3)):
            assert by_masks.to_doc() == by_names.to_doc()
            for attr in ("states", "_position", "_class_masks", "_class_at",
                         "_truth_masks"):
                assert getattr(by_masks, attr) == getattr(by_names, attr)
            # the name views are derived only when read
            assert "partitions" not in vars(by_masks)
            assert "valuation" not in vars(by_masks)
            assert by_masks.partitions == by_names.partitions
            assert by_masks.valuation == by_names.valuation
            count += 1
        assert count == 8132

    def test_one_state_refinement_is_the_general_loops(self):
        count = 0
        for n, partitions, parts, masks in raw_candidates(AGENTS, PROPS, 3):
            classes = [partitions[i] for i in parts]
            for i in range(n):
                assert _refine_masks(classes, masks, 1 << i) \
                    == general_refinement(classes, masks, 1 << i)
                count += 1
        assert count == 4 + 2 * 128 + 3 * 8000

    def test_frame_built_models_are_the_validated_documents(self, frames):
        models = list(enumerate_models(AGENTS, PROPS, 3))
        assert len(models) == 8132
        # one frame per part triple: 1 + 2 ** 3 + 5 ** 3
        assert len(frames) == 134
        # each model on a shared frame equals a fresh validation of its
        # document, mask for mask, and reads no name-level view to get there
        vocab = _vocab_mask(AGENTS, PROPS)
        for model in models:
            fresh = validate(model.to_doc())
            assert model.to_doc() == fresh.to_doc()
            assert model._class_at == fresh._class_at
            assert model._truth_masks == fresh._truth_masks
            assert model._vocab == fresh._vocab == vocab
            assert "partitions" not in vars(model)
            assert "valuation" not in vars(model)

    def test_enumeration_order_is_unchanged(self):
        docs = [m.to_doc() for m in enumerate_models(AGENTS, PROPS, 3)]
        assert len(docs) == 8132
        assert docs == [m.to_doc() for m in labelled_models(AGENTS, PROPS, 3)]

    def test_refinement_matches_the_built_model(self):
        count = 0
        for n, partitions, parts, masks in raw_candidates(AGENTS, PROPS, 3):
            whole = (1 << n) - 1
            refined = _refine_masks([partitions[i] for i in parts], masks,
                                    whole)
            model = candidate_model(AGENTS, PROPS, n, parts, masks)
            assert refined == _refine(model, whole)
            count += 1
        assert count == 8132

    def test_refinement_reads_only_the_level0_partition(self):
        # the lemma of `_refine_masks`: the blocks of the partition the
        # truth masks induce, as truth masks, give the same refinement
        count = 0
        for n, partitions, parts, masks in raw_candidates(AGENTS, PROPS, 3):
            classes = [partitions[i] for i in parts]
            whole = (1 << n) - 1
            assert _refine_masks(classes, masks, whole) \
                == _refine_masks(classes, level0(n, masks), whole)
            count += 1
        assert count == 8132

    def test_contracted_orbit_least_candidates_are_the_classes(self):
        # the lemma of `find_countermodel`: among the orbit-least candidates,
        # a contracted one starts a new class, and any other one's class was
        # started by an earlier contracted one
        keys = set()
        count = 0
        for n, parts, masks, refined in orbit_walk(AGENTS, PROPS, 3):
            model = candidate_model(AGENTS, PROPS, n, parts, masks)
            contracted = len(refined[0][-1]) == n
            assert contracted == is_contracted(model)
            key = _bisim_key(model)
            assert (key not in keys) == contracted
            keys.add(key)
            count += 1
        assert count == 1644
        assert len(keys) == 1140

    def test_parts_first_walk_is_the_contracted_orbit_walk(self):
        # same candidates, same order, same refinements: the first hit of
        # the search is unchanged
        walked = [(n, parts, masks, refined) for n in range(1, 4)
                  for parts, masks, refined in _classes(
                      n, _mask_partitions(n), len(AGENTS), len(PROPS))]
        assert walked == [(n, parts, masks, refined)
                          for n, parts, masks, refined
                          in orbit_walk(AGENTS, PROPS, 3)
                          if len(refined[0][-1]) == n]
        assert len(walked) == 1140

    @pytest.mark.parametrize("n, count, digest", [
        (1, 4, "5fd1d595b46b235ebe7e46e3a1efc442c9720ac23028b5f59e334b3d42726c21"),
        (2, 48, "3cff92f7ae0448e918dc544b455499246d76d81ac8adc43dddb0a3aa3aa30592"),
        (3, 1088,
         "e8bf3b5537cd542689488a9637ff51b1038d1cd8cda631716380bbd34a6f52ef"),
        (4, 30105,
         "2ee8204de3c73da260ad53d196ea67acf69f286ec1a0fb4cafd3a2882329394b")],
        ids=["1-4", "2-48", "3-1088", "4-30105"])
    def test_classes_per_state_count(self, n, count, digest):
        # the walk's order is pinned candidate for candidate, as the sha256
        # of each candidate's `repr((parts, masks))` in order: a search's
        # first hit follows it, so a rewrite of `_classes` keeps it or
        # re-pins it with the reason recorded
        sha, walked = hashlib.sha256(), 0
        for parts, masks, _ in _classes(n, _mask_partitions(n), len(AGENTS),
                                        len(PROPS)):
            sha.update(repr((parts, masks)).encode())
            walked += 1
        assert walked == count
        assert sha.hexdigest() == digest

    def test_orbit_test_keeps_the_first_of_each_relabelling_class(self):
        first = {}
        for n, partitions, parts, masks in raw_candidates(AGENTS, PROPS, 3):
            code = relabelling_canonical(n, partitions, parts, masks)
            first.setdefault(code, (n, parts, masks))
        pruned = [(n, parts, masks)
                  for n, parts, masks, _ in orbit_walk(AGENTS, PROPS, 3)]
        assert pruned == list(first.values())
        assert len(pruned) == 1644


def plain_countermodel(f, params, *, schematic=(), pool=None):
    """Every candidate evaluated in turn: the search before it skipped
    candidates by class."""
    schematic = tuple(schematic)
    given = () if pool is None else tuple(pool)
    agents = tuple(params.agents) + tuple(sorted(
        set(agents_of(f)).union(*map(agents_of, given)) - set(params.agents)))
    concrete_atoms = set(atoms(f) - set(schematic)).union(*map(atoms, given))
    props = tuple(params.props) + tuple(sorted(concrete_atoms - set(params.props)))
    gen = GenParams(max_states=params.max_states, agents=agents, props=props,
                    seed=params.seed, count=params.count)
    if params.max_states <= 3:
        models = enumerate_models(agents, props, params.max_states)
    else:
        models = (random_model(gen, i) for i in range(params.count))
    pool = tuple(pool) if pool is not None else instantiation_pool(agents, props)
    assignments = ([{}] if not schematic else
                   [dict(zip(schematic, combo))
                    for combo in itertools.product(pool, repeat=len(schematic))])
    instances = [(a, substitute(f, a)) for a in assignments]
    for model in models:
        ev = Evaluator(model)
        for assignment, g in instances:
            for state in model.states:
                if not ev.eval(state, g):
                    return search.SearchHit(PointedModel(model, state),
                                             dict(assignment))
    return None


def hit_doc(hit):
    if hit is None:
        return None
    return (hit.pointed.model.to_doc(), hit.pointed.point, hit.assignment)


@pytest.fixture()
def cold_walks():
    """Clears the walks the searches share before and after the test, so a
    count it pins is the one of a cold walk, whatever ran before."""
    search._WALKS.clear()
    yield
    search._WALKS.clear()


@pytest.fixture()
def constructed(monkeypatch, cold_walks):
    """Counts the `KripkeModel`s constructed: from names, from masks or on a
    shared frame (`_from_frame`), each construction ends in `_init_masks`,
    the truth checks."""
    built = []
    init_masks = KripkeModel._init_masks

    def counting(self, frame, truth_masks, names):
        built.append(self)
        init_masks(self, frame, truth_masks, names)

    monkeypatch.setattr(KripkeModel, "_init_masks", counting)
    return built


@pytest.fixture()
def frames(monkeypatch, cold_walks):
    """Counts the frames validated (`KripkeModel._frame`), as the part
    triples they were validated for: (state count, class masks)."""
    checked = []
    frame = KripkeModel._frame

    def counting(states, agents, props, class_masks, names):
        checked.append((len(states), tuple(class_masks.values())))
        return frame(states, agents, props, class_masks, names)

    monkeypatch.setattr(KripkeModel, "_frame", staticmethod(counting))
    return checked


@pytest.fixture()
def truth_checks(monkeypatch):
    """Counts the truth-mask checks (`KripkeModel._checked_truth`): each
    model's, and each the search runs for a valuation."""
    checked = []
    check = KripkeModel._checked_truth

    def counting(props, n, truth_masks, names):
        checked.append((n, dict(truth_masks)))
        return check(props, n, truth_masks, names)

    monkeypatch.setattr(KripkeModel, "_checked_truth", staticmethod(counting))
    return checked


@pytest.fixture()
def evaluators(monkeypatch, cold_walks):
    """Keeps the evaluators `find_countermodel` builds."""
    built = []

    class Counting(Evaluator):
        def __init__(self, model, **kwargs):
            built.append(self)
            super().__init__(model, **kwargs)

    monkeypatch.setattr(search, "Evaluator", Counting)
    return built


@pytest.fixture()
def revalued(monkeypatch, cold_walks):
    """Records each candidate evaluated on a group's evaluator, as the
    (evaluator, truth masks) of its `Evaluator._revalue`."""
    swapped = []
    revalue = Evaluator._revalue

    def recording(self, truth):
        swapped.append((self, truth))
        revalue(self, truth)

    monkeypatch.setattr(Evaluator, "_revalue", recording)
    return swapped


def walked_candidates(max_states=3):
    """The search's candidates, as `_classes` yields them: (class masks,
    truth masks) in order."""
    out = []
    for n in range(1, max_states + 1):
        partitions = _mask_partitions(n)
        out += [(tuple(partitions[i] for i in parts), masks)
                for parts, masks, _ in _classes(n, partitions, len(AGENTS),
                                                len(PROPS))]
    return out


A11 = "<[{a}]> (K a p) -> <{a}> [{b,c}] (K a p)"
C4 = "<[{a,b}]> ((K a p) & (K b ~q)) -> <[{a,b}]> (K a p)"
# a's class must show three valuations: no model of fewer states refutes it
THREE_STATES = "~(~K a ~(p & q) & ~K a ~(p & ~q) & ~K a p)"
RANDOM = GenParams(max_states=4, agents=AGENTS, props=PROPS, seed=3, count=300)


@pytest.mark.usefixtures("cold_walks")
class TestAgainstPlainLoop:
    @pytest.mark.parametrize("text", [A11, C4])
    def test_valid_instances(self, text, evaluators, revalued):
        f = parse(text)
        assert find_countermodel(f, EXHAUSTIVE) is None
        # one evaluator per refinement group, and each of the 1,140 classes
        # of the 8,132 candidates evaluated on its group's, in the walk's
        # order
        assert len(evaluators) == 114
        assert len(revalued) == 1140
        assert {id(ev) for ev, _ in revalued} == set(map(id, evaluators))
        assert [(tuple(ev.model._class_masks.values()), tuple(truth.values()))
                for ev, truth in revalued] == walked_candidates()
        assert plain_countermodel(f, EXHAUSTIVE) is None

    def test_exhaustive_branch_computes_no_key(self, evaluators, monkeypatch):
        def refuse(model):
            raise AssertionError("the exhaustive search keyed a model")

        monkeypatch.setattr(search, "_bisim_key", refuse)
        assert find_countermodel(parse(A11), EXHAUSTIVE) is None
        assert len(evaluators) == 114

    def test_builds_a_model_only_per_group_and_hit(
            self, constructed, evaluators, truth_checks):
        assert find_countermodel(parse(A11), EXHAUSTIVE) is None
        assert len(constructed) == 114
        assert [ev.model for ev in evaluators] == constructed
        # each group's model's quotient holds the refinement its contracted
        # test was read from
        for model in constructed:
            levels, classes = _refine(model, (1 << len(model.states)) - 1)
            assert model._whole_quotient.levels == levels
            assert list(model._whole_quotient.classes.values()) == classes
        # the truth checks: once per valuation of 1, 2 and 3 states, and
        # once per model
        checked = Counter((n, tuple(t.values())) for n, t in truth_checks)
        checked.subtract((len(m.states), tuple(m._truth_masks.values()))
                         for m in constructed)
        assert checked == Counter(
            (n, masks) for n in range(1, 4)
            for masks in itertools.product(range(1 << n), repeat=2))
        assert len(truth_checks) == 4 + 16 + 64 + 114
        # a hit gets a model of its own, built after its group's
        del constructed[:], evaluators[:]
        hit = find_countermodel(parse(THREE_STATES), EXHAUSTIVE)
        assert len(constructed) == len(evaluators) + 1
        assert constructed[:-1] == [ev.model for ev in evaluators]
        assert constructed[-1] is hit.pointed.model

    def test_validates_a_frame_per_part_triple_with_a_class(
            self, constructed, frames):
        assert find_countermodel(parse(A11), EXHAUSTIVE) is None
        assert len(constructed) == 114
        # every part triple that yields a class, once, and no other
        triples = {(n, tuple(_mask_partitions(n)[i] for i in parts))
                   for n in range(1, 4)
                   for parts, *_ in _classes(n, _mask_partitions(n),
                                             len(AGENTS), len(PROPS))}
        assert len(triples) == 46
        assert sorted(frames) == sorted(triples)
        # the candidates of one triple share its frame's objects
        shared = {}
        for model in constructed:
            shared.setdefault(tuple(model._class_masks.values()),
                              set()).add(id(model._class_at))
        assert len(shared) == 46
        assert all(len(ids) == 1 for ids in shared.values())

    def test_candidates_derive_no_name_views(self, evaluators):
        assert find_countermodel(parse(A11), EXHAUSTIVE) is None
        assert len(evaluators) == 114
        for ev in evaluators:
            assert "partitions" not in vars(ev.model)
            assert "valuation" not in vars(ev.model)

    @pytest.mark.parametrize("text", ["p -> K a p", "K a p -> K b p",
                                      "~K c p -> K c ~p", THREE_STATES])
    def test_invalid_formulas(self, text):
        f = parse(text)
        hit = find_countermodel(f, EXHAUSTIVE)
        assert hit is not None
        assert hit_doc(hit) == hit_doc(plain_countermodel(f, EXHAUSTIVE))

    def test_first_hit_with_three_states(self, revalued):
        hit = find_countermodel(parse(THREE_STATES), EXHAUSTIVE)
        assert len(hit.pointed.model.states) == 3
        target = hit.pointed.model.to_doc()
        position = next(i for i, m in enumerate(enumerate_models(AGENTS, PROPS, 3))
                        if m.to_doc() == target)
        # candidates of a class that already held were skipped on the way;
        # the hit is the last candidate evaluated
        assert len(revalued) < position + 1
        ev, truth = revalued[-1]
        assert truth == hit.pointed.model._truth_masks
        assert ev.model._class_masks == hit.pointed.model._class_masks

    @pytest.mark.parametrize("text", ["K a x -> K b x", "K a x -> x"])
    def test_schematic_atoms_with_a_pool(self, text):
        f = parse(text)
        pool = (Atom("p"), Know("c", Atom("q")), parse("p & ~q"))
        kwargs = {"schematic": ("x",), "pool": pool}
        assert hit_doc(find_countermodel(f, EXHAUSTIVE, **kwargs)) \
            == hit_doc(plain_countermodel(f, EXHAUSTIVE, **kwargs))

    @pytest.mark.parametrize("text, refuted", [(A11, False), (THREE_STATES, True)])
    def test_random_branch(self, text, refuted, evaluators):
        f = parse(text)
        hit = find_countermodel(f, RANDOM)
        assert (hit is not None) == refuted
        assert hit_doc(hit) == hit_doc(plain_countermodel(f, RANDOM))
        assert 0 < len(evaluators) < RANDOM.count

    @pytest.mark.parametrize("name", ["q", "K b p"])
    def test_pool_names_widen_the_vocabulary(self, name):
        # a pool formula may name a proposition or an agent that the
        # parameters do not
        f = parse("x -> K a x")
        params = GenParams(agents=("a",), props=("p",), max_states=2)
        kwargs = {"schematic": ["x"], "pool": [parse(name)]}
        hit = find_countermodel(f, params, **kwargs)
        assert hit is not None
        assert hit_doc(hit) == hit_doc(plain_countermodel(f, params, **kwargs))
        g = substitute(f, hit.assignment)
        assert not Evaluator(hit.pointed.model).check(hit.pointed.point,
                                                      g).truth


def group_key(model):
    """A search candidate's (parts, level-0 partition) group."""
    return (tuple(model._class_masks.values()),
            tuple(level0(len(model.states), model._truth_masks.values())))


def group_candidates(agents=AGENTS, props=PROPS, max_states=3):
    """Every candidate of `_classes`, in order, as (ev, model): `ev` the
    evaluator of its refinement group with its truth masks swapped in
    (`search._groups` and `Evaluator._revalue`, as the search reads it),
    `model` the candidate's own validated model. Use each pair before the
    next: the next candidate may swap other truth masks into the same
    evaluator."""
    for n in range(1, max_states + 1):
        for parts, masks, ev, truth in search._groups(agents, props, n):
            ev._revalue(truth)
            yield ev, candidate_model(agents, props, n, parts, masks)


def unshared(pairs) -> int:
    """The (candidate, non-empty kept mask) pairs whose restriction, read
    through its evaluator, differs in some field from the one its own model
    refines. The `firsts` cache is compared by its entries: each table the
    evaluator's quotient holds must be the one its own model's builds."""
    count = 0
    for ev, model in pairs:
        for kept in range(1, 1 << len(model.states)):
            shared = ev._restriction(kept)
            own = _Quotient(model, kept, _refine(model, kept))
            count += any(getattr(shared, slot) != getattr(own, slot)
                         for slot in _Quotient.__slots__ if slot != "firsts")
            count += any(table != own.first_sets(group)
                         for group, table in shared.firsts.items())
    return count


def parts_grouped(agents, props, max_states):
    """(ev, model) per search candidate, as `group_candidates`, but with one
    evaluator per parts alone, not per (parts, level-0 partition): a
    grouping the lemma of `_refine_masks` does not allow."""
    for n in range(1, max_states + 1):
        evaluators = {}
        for parts, masks, _ in _classes(n, _mask_partitions(n), len(agents),
                                        len(props)):
            model = candidate_model(agents, props, n, parts, masks)
            ev = evaluators.get(parts)
            if ev is None:
                ev = evaluators[parts] = Evaluator(model)
            ev._revalue(model._truth_masks)
            yield ev, model


@pytest.fixture()
def quotients_built(monkeypatch):
    """Counts the `_Quotient`s built: whole ones and restrictions."""
    built = {"whole": 0, "restriction": 0}
    init = _Quotient.__init__

    def counting(self, model, kept, refined):
        whole = kept == (1 << len(model.states)) - 1
        built["whole" if whole else "restriction"] += 1
        init(self, model, kept, refined)

    monkeypatch.setattr(_Quotient, "__init__", counting)
    return built


# evidence formulas: witnesses and refutations, with certificates on
# restrictions under `certify`
EVIDENCE = ["<{a}> K b p", "<{a,b}> (K c q | K c ~q)", "<[{a}]> ~K b q",
            "<[{b,c}]> K a (p & q)", "<{c}> [{a}] (p -> K b p)",
            # no set wins, so every set is tried, and certified inside
            "<{a,b,c}> <{a}> bot", "<{a,b,c}> <{b,c}> bot"]


def evidence(model):
    """Everything the public API reads off a model's characteristic
    formulas and quotient."""
    out = {"contracted": bisim_contract(model).contracted.to_doc()}
    for state in model.states:
        out[state, "char"] = char_formula(model, state)
        for group in (("a",), ("b", "c")):
            choice = {a: model.class_of(a, state) for a in group}
            out[state, group] = realize_choice(model, state, group, choice)
    return out


def evidence_docs(ev):
    """`check`'s verdict documents of the evidence formulas at every
    state."""
    return [ev.check(state, parse(text)).to_doc()
            for state in ev.model.states for text in EVIDENCE]


@pytest.mark.usefixtures("cold_walks")
class TestSharedQuotients:
    def test_a_sweep_builds_a_quotient_per_group(
            self, constructed, evaluators, quotients_built):
        assert find_countermodel(parse(A11), EXHAUSTIVE) is None
        assert len(constructed) == 114
        assert [ev.model for ev in evaluators] == constructed
        # the consequent's `[{b,c}] (K a p)` is decided by the empty group,
        # whose first set is the restriction itself: its body is read on
        # a's first sets as they are, and no restriction is contracted
        assert quotients_built == {"whole": 114, "restriction": 0}

    def test_group_restrictions_are_each_candidates_own(self):
        # the lemma of `_refine_masks` for every kept mask: read through
        # its group's evaluator, each candidate's restriction is its own
        groups = {}
        pairs = []
        for ev, model in group_candidates():
            # the evaluators are kept, so their ids stay distinct
            groups.setdefault(group_key(model), {})[id(ev)] = ev
            pairs.append((tuple(model._class_masks.values()),
                          tuple(model._truth_masks.values())))
        assert pairs == walked_candidates()
        # one evaluator per group
        assert len(groups) == 114
        assert all(len(evs) == 1 for evs in groups.values())
        assert len(set().union(*groups.values())) == 114
        assert unshared(group_candidates()) == 0
        # grouping by parts alone breaks it
        assert unshared(parts_grouped(AGENTS, PROPS, 3)) > 0

    def test_shared_quotients_read_each_candidates_valuation(self):
        # every candidate's witnesses, refutations and the characteristic
        # formulas behind them, read on its group's evaluator, are those of
        # a fresh evaluator of its own model
        count = 0
        evaluators = []  # kept, so that their ids stay distinct
        tables = {}  # per group evaluator and kept mask: the first table
        differing = set()  # whether whole, for tables that differ later
        for ev, model in group_candidates():
            evaluators.append(ev)
            fresh = Evaluator(model)
            assert evidence_docs(ev) == evidence_docs(fresh)
            assert ev._char_tables == fresh._char_tables
            whole = (1 << len(model.states)) - 1
            assert ev._char_tables[whole] == model._chars
            # every restriction the group's evaluator holds reads this
            # candidate's valuation
            for kept, q in ev._quotients.items():
                chars = q.chars(ev._truth)
                own = _Quotient(model, kept, _refine(model, kept))
                assert chars == own.chars(model._truth_masks)
                if tables.setdefault((id(ev), kept), chars) != chars:
                    differing.add(kept == whole)
            count += 1
        assert count == 1140
        # some group's candidates have other characteristic formulas, on
        # the whole model and on a restriction
        assert differing == {False, True}
        # the public API's and a certifying evaluator's reading of a hit
        # are a fresh copy's
        hit = find_countermodel(parse(THREE_STATES), EXHAUSTIVE).pointed.model
        assert len(hit.states) == 3
        fresh = validate(hit.to_doc())
        assert evidence(hit) == evidence(fresh)
        on_hit = Evaluator(hit, certify=True)
        on_fresh = Evaluator(fresh, certify=True)
        assert evidence_docs(on_hit) == evidence_docs(on_fresh)
        assert on_hit.certificates.checked == on_fresh.certificates.checked > 0
        assert on_hit.certificates.mismatches == []
        assert on_fresh.certificates.mismatches == []
        assert on_hit._char_tables == on_fresh._char_tables


# quantifiers over bodies neither positive nor negated positive, which one
# set cannot decide, some under announcements whose restriction depends on
# the valuation
UNDECIDED = ["<{a}> (K b p & ~K c q)", "[{b}] (K a p | ~K c q)",
             "<[{a}]> (K b q & ~K c p)", "[<{b,c}>] (~K a p | K b q)",
             "[p | K a q] <{b}> (K c p & ~K a ~q)",
             "<~K b q> [{a,c}] (K b p | ~K a p)"]


def revalue_formulas() -> list:
    """Seeded random formulas of every fragment, then `UNDECIDED`."""
    rng = random.Random(2201)
    return ([random_formula(rng, AGENTS, PROPS, frag=frag)
             for frag in Fragment for _ in range(4)]
            + [parse(text) for text in UNDECIDED])


class TestRevalue:
    def test_group_evaluators_agree_with_fresh_ones(self):
        # every candidate: its group's evaluator, its truth masks swapped
        # in after the group's earlier candidates filled the memo and the
        # characteristic formulas, answers as a fresh evaluator of its own
        # model, at every state, and gives the same evidence on a sample
        formulas = revalue_formulas()
        evidence_formulas = [f for f in formulas
                             if isinstance(f, (GroupDia, CoalDia))]
        assert len(evidence_formulas) >= 2
        verdicts = {f: set() for f in formulas}
        count = 0
        for i, (ev, model) in enumerate(group_candidates()):
            fresh = Evaluator(model)
            for f in formulas:
                for state in model.states:
                    truth = ev.eval(state, f)
                    assert truth == fresh.eval(state, f), (f, model.to_doc())
                    verdicts[f].add(truth)
            if i % 5 == 0:
                for f in evidence_formulas:
                    for state in model.states:
                        assert ev.check(state, f).to_doc() \
                            == fresh.check(state, f).to_doc()
            count += 1
        assert count == 1140
        # the quantifiers that one set cannot decide take both values
        for text in UNDECIDED:
            assert verdicts[parse(text)] == {False, True}

    def test_candidates_read_their_own_extents_and_witnesses(self):
        # the announcement extents and realized announcements read the
        # valuation: within a group, one candidate's must not answer for
        # the next, which may give the announcement another extent and the
        # witness other characteristic formulas
        pal, dia = parse("[p] K a q"), parse("<{a,b}> K c p")
        varied = 0
        for ev, pairs in itertools.groupby(group_candidates(),
                                           key=lambda pair: pair[0]):
            extents, witnesses = set(), set()
            for _, model in pairs:
                fresh = Evaluator(model)
                for f in (pal, dia):
                    for state in model.states:
                        doc = fresh.check(state, f).to_doc()
                        assert ev.check(state, f).to_doc() == doc, (
                            f, state, model.to_doc())
                        if f is dia and doc["witness"]:
                            witnesses.add(doc["witness"]["formula"])
                extents.add(model.truth_set("p"))
            varied += len(extents) > 1 and len(witnesses) > 1
        assert varied > 0

    def test_a_certifying_evaluator_is_refused(self):
        model = next(enumerate_models(AGENTS, PROPS, 1))
        ev = Evaluator(model, certify=True)
        with pytest.raises(ValueError, match="certifying"):
            ev._revalue(dict(model._truth_masks))
        assert ev._truth is model._truth_masks

    @pytest.mark.parametrize("truth", [{"p": 0b100}, {"q": 0b1010},
                                       {"r": 1}])
    def test_bad_truth_masks_raise_the_models_error(self, truth):
        # the search checks each valuation as a model's construction does
        states = ("s0", "s1")
        with pytest.raises(ModelError) as by_model:
            KripkeModel._from_masks(states, AGENTS, PROPS,
                                    dict.fromkeys(AGENTS, (0b11,)), truth)
        with pytest.raises(ModelError) as by_search:
            KripkeModel._checked_truth(PROPS, 2, truth, states)
        assert str(by_search.value) == str(by_model.value)
        assert "unknown" in str(by_model.value)


def shared_walk_searches() -> list:
    """Searches over one vocabulary and two wider ones, as (formula, kwargs):
    valid instances, hits at 1, 2 and 3 states, a schematic search with a
    pool, and the first vocabulary again."""
    pool = (Atom("p"), Know("c", Atom("q")), parse("p & ~q"))
    return [(parse(A11), {}), (parse("p -> q"), {}),
            (parse("p -> K a p"), {}), (parse(THREE_STATES), {}),
            (parse("K a x -> K b x"), {"schematic": ("x",), "pool": pool}),
            (parse("r -> K a r"), {}), (parse("p -> K d p"), {}),
            (parse(C4), {}), (parse(A11), {})]


@pytest.mark.usefixtures("cold_walks")
class TestSharedWalk:
    @pytest.mark.parametrize("order", [1, -1])
    def test_shared_walks_give_the_cold_searches_hits(self, order):
        searches = shared_walk_searches()[::order]
        shared = [hit_doc(find_countermodel(f, EXHAUSTIVE, **kwargs))
                  for f, kwargs in searches]
        assert list(search._WALKS) == [(AGENTS, PROPS)]
        cold = []
        for f, kwargs in searches:
            search._WALKS.clear()
            cold.append(hit_doc(find_countermodel(f, EXHAUSTIVE, **kwargs)))
        assert shared == cold
        assert [doc is None for doc in cold] == [
            f in (parse(A11), parse(C4)) for f, _ in searches]
        assert {len(doc[0]["states"]) for doc in cold if doc} == {1, 2, 3}

    def test_a_warm_sweep_builds_nothing(self, constructed, evaluators,
                                         frames, quotients_built, revalued):
        assert find_countermodel(parse(A11), EXHAUSTIVE) is None
        assert len(evaluators) == 114
        cold = list(revalued)
        del constructed[:], evaluators[:], frames[:], revalued[:]
        quotients_built.update(whole=0, restriction=0)
        # the second sweep replays the first's walk: the same candidates on
        # the same evaluators, in the same order, and nothing built
        assert find_countermodel(parse(A11), EXHAUSTIVE) is None
        assert (constructed, evaluators, frames) == ([], [], [])
        assert quotients_built == {"whole": 0, "restriction": 0}
        assert len(revalued) == 1140
        assert revalued == cold

    def test_a_walk_cut_short_by_a_hit_is_resumed(self, evaluators):
        # the hit stops the 3-state walk partway; the next search replays
        # the candidates read and builds only the rest of the walk
        hit = hit_doc(find_countermodel(parse(THREE_STATES), EXHAUSTIVE))
        assert len(hit[0]["states"]) == 3
        assert len(evaluators) == 92
        # the hit candidate is dropped too: the kept walk holds no results
        assert not any(ev._memo or ev._extents or ev._char_tables
                       or ev._parts for ev in evaluators)
        assert find_countermodel(parse(A11), EXHAUSTIVE) is None
        assert len(evaluators) == 114
        assert hit_doc(find_countermodel(parse(THREE_STATES),
                                         EXHAUSTIVE)) == hit
        assert len(evaluators) == 114
        # the cold searches agree
        search._WALKS.clear()
        assert find_countermodel(parse(A11), EXHAUSTIVE) is None
        search._WALKS.clear()
        assert hit_doc(find_countermodel(parse(THREE_STATES),
                                         EXHAUSTIVE)) == hit

    def test_each_candidate_is_swapped_in_and_dropped_once(
            self, monkeypatch, revalued):
        # one `_revalue` and one `_forget` per candidate, in that order,
        # on a cold sweep and on a warm one
        forgotten = []
        forget = Evaluator._forget

        def counting(self):
            forgotten.append(self)
            forget(self)

        monkeypatch.setattr(Evaluator, "_forget", counting)
        for walk in ("cold", "warm"):
            del revalued[:], forgotten[:]
            assert find_countermodel(parse(A11), EXHAUSTIVE) is None, walk
            assert len(revalued) == len(forgotten) == 1140, walk
            assert [ev for ev, _ in revalued] == forgotten, walk

    def test_a_kept_walk_holds_no_formulas_results(self):
        pool = (Atom("p"), Know("c", Atom("q")), parse("p & ~q"))
        assert find_countermodel(parse("<[{a}]> x -> <{a}> [{b,c}] x"),
                                 EXHAUSTIVE, schematic=("x",),
                                 pool=pool) is None
        walks = search._WALKS[AGENTS, PROPS]
        kept = {ev for n in (1, 2, 3) for _, _, ev, _ in walks[n][0]}
        assert len(kept) == 114
        assert {len(ev._memo) + len(ev._extents) + len(ev._char_tables)
                + len(ev._parts) for ev in kept} == {0}
        # the structure stays: each whole quotient's first-set tables
        assert all(ev._root_quotient.firsts for ev in kept)

    def test_a_kept_walks_models_hold_only_their_own_realizations(self):
        # every candidate's evidence is read on its group's evaluator, under
        # the candidate's valuation, and a second sweep revalues each again;
        # each group model's shared tables then hold what a fresh evaluator
        # of a copy of it realizes, and the evaluators hold no results
        assert find_countermodel(parse(A11), EXHAUSTIVE) is None
        walks = search._WALKS[AGENTS, PROPS]
        candidates = [c for n in (1, 2, 3) for c in walks[n][0]]
        assert len(candidates) == 1140
        for _, _, ev, truth in candidates:
            ev._revalue(truth)
            evidence_docs(ev)
            ev._forget()
        assert find_countermodel(parse(A11), EXHAUSTIVE) is None
        kept = {ev for _, _, ev, _ in candidates}
        assert len(kept) == 114
        realized = 0
        for ev in kept:
            model, own = ev.model, validate(ev.model.to_doc())
            assert not ev._parts and not ev._char_tables
            assert evidence_docs(Evaluator(model)) == evidence_docs(
                Evaluator(own))
            assert model._parts == own._parts
            assert model._chars == own._chars
            # the option lists the group's candidates read on the shared
            # whole quotient are the copy's
            q, own_q = ev._root_quotient, own._whole_quotient
            fresh = Evaluator(own)
            for (agent, k), options in q.unions.items():
                rep = (q.classes[agent][k] & -q.classes[agent][k]
                       ).bit_length() - 1
                assert fresh._options(own_q, agent, rep) == options
            realized += len(model._parts)
        assert realized == 673

    def test_a_walk_that_raised_is_dropped(self, monkeypatch):
        # an early hit at 2 states leaves a partial walk; a search that
        # extends it and raises partway through the 3-state candidates
        # leaves no walk behind, so no later search reads a truncated one
        assert find_countermodel(parse("p -> K a p"), EXHAUSTIVE) is not None
        classes, raised = search._classes, []

        def failing(n, *args):
            for i, candidate in enumerate(classes(n, *args)):
                if n == 3 and i == 100 and not raised:
                    raised.append(n)
                    raise RuntimeError("walk failed")
                yield candidate

        monkeypatch.setattr(search, "_classes", failing)
        with pytest.raises(RuntimeError, match="walk failed"):
            find_countermodel(parse(A11), EXHAUSTIVE)
        assert raised == [3]
        assert (AGENTS, PROPS) not in search._WALKS
        later = hit_doc(find_countermodel(parse(THREE_STATES), EXHAUSTIVE))
        search._WALKS.clear()
        assert later == hit_doc(find_countermodel(parse(THREE_STATES),
                                                  EXHAUSTIVE))
        assert len(later[0]["states"]) == 3

    def test_a_search_running_at_once_walks_its_own_evaluators(
            self, monkeypatch):
        # a search started while another walks the vocabulary (here, from
        # inside the other's walk) finds the walk checked out, so no
        # evaluator is revalued by both
        assert find_countermodel(parse("p -> K a p"), EXHAUSTIVE) is not None
        outer, inner, nested = [], [], []
        revalue = Evaluator._revalue

        def recording(self, truth):
            (inner if len(nested) == 1 else outer).append(self)
            if len(outer) == 10 and not nested:
                nested.append(None)
                nested.append(find_countermodel(parse(THREE_STATES),
                                                EXHAUSTIVE))
            revalue(self, truth)

        monkeypatch.setattr(Evaluator, "_revalue", recording)
        assert find_countermodel(parse(A11), EXHAUSTIVE) is None
        assert len(outer) == 1140 and inner
        assert not set(map(id, outer)) & set(map(id, inner))
        monkeypatch.undo()
        search._WALKS.clear()
        assert hit_doc(nested[1]) == hit_doc(
            find_countermodel(parse(THREE_STATES), EXHAUSTIVE))

    def test_only_the_last_vocabularys_walks_are_kept(self, monkeypatch):
        held = []  # the vocabularies kept while a search walks
        revalue = Evaluator._revalue

        def recording(self, truth):
            held.append(list(search._WALKS))
            revalue(self, truth)

        monkeypatch.setattr(Evaluator, "_revalue", recording)
        for prop in ("p", "q", "p"):
            params = GenParams(max_states=2, agents=("a",), props=(prop,))
            assert find_countermodel(parse(f"K a {prop} -> {prop}"),
                                     params) is None
            assert list(search._WALKS) == [(("a",), (prop,))]
        assert held and not any(held)

    @pytest.mark.parametrize("candidates, evaluators, kept", [
        (1088, 105, {1, 2, 3}), (1087, 105, {1, 2}), (1088, 104, {1, 2})])
    def test_a_walk_past_a_bound_is_not_kept(self, monkeypatch, candidates,
                                             evaluators, kept):
        # the 3-state walk over a, b, c and p, q has 1,088 candidates on
        # 105 evaluators: at those bounds it is kept, below either it is
        # dropped as it passes the bound, and its evaluators go with it
        monkeypatch.setattr(search, "_KEPT_CANDIDATES", candidates)
        monkeypatch.setattr(search, "_KEPT_EVALUATORS", evaluators)
        built, order = [], []  # (state count, evaluator); candidates read

        class Tracked(Evaluator):
            def __init__(self, model, **kwargs):
                built.append((len(model.states), weakref.ref(self)))
                super().__init__(model, **kwargs)

        revalue = Evaluator._revalue

        def recording(self, truth):
            order.append((tuple(self.model._class_masks.values()),
                          tuple(truth.values())))
            revalue(self, truth)

        monkeypatch.setattr(search, "Evaluator", Tracked)
        monkeypatch.setattr(Evaluator, "_revalue", recording)
        assert find_countermodel(parse(A11), EXHAUSTIVE) is None
        assert set(search._WALKS[AGENTS, PROPS]) == kept
        assert Counter(n for n, _ in built) == {1: 1, 2: 8, 3: 105}
        gc.collect()
        assert {n for n, ev in built if ev() is not None} == kept
        # the next search replays the kept walks and walks the rest anew,
        # in the same order
        cold, walked = list(order), Counter(n for n, _ in built)
        del order[:], built[:]
        assert find_countermodel(parse(A11), EXHAUSTIVE) is None
        assert order == cold == walked_candidates()
        assert Counter(n for n, _ in built) == Counter(
            {n: walked[n] for n in {1, 2, 3} - kept})


# the `search` benchmark's A11 and C4 instances at its panel seed, 1000:
# the first mentions p alone, the second both propositions
PANEL_A11 = "<[{a}]> (K c ~p) -> <{a}> [{b,c}] (K c ~p)"
BOTH_C4 = "<[{a,b}]> ((K b q) & (K b p)) -> <[{a,b}]> (K b q)"
# instances over p alone, q alone, both and neither: valid ones, and ones
# refuted at 1, 2 and 3 states
HELD_RECORD_SEARCHES = [
    ("p", 1), ("p -> K a p", 2), ("K a p -> p", None), (PANEL_A11, None),
    ("~q", 1), ("q -> K b q", 2), ("<[{a}]> (K c ~q) -> <{a}> [{b,c}] (K c ~q)",
                                   None),
    (THREE_STATES, 3), ("K a p -> K b p", 2), (BOTH_C4, None),
    ("[{a}] bot", 1), ("K a top", None), ("<{a,b}> top", None),
]


@pytest.fixture()
def instance_reads(monkeypatch, cold_walks):
    """Counts, per formula, the reads of a formula's extent on the whole
    model (`Evaluator._where` at the root quotient's kept mask): the
    search reads each instance it evaluates there once per candidate."""
    reads = Counter()
    where = Evaluator._where

    def counting(self, kept, f):
        if kept == self._root_quotient.kept:
            reads[f] += 1
        return where(self, kept, f)

    monkeypatch.setattr(Evaluator, "_where", counting)
    return reads


@pytest.mark.usefixtures("cold_walks")
class TestHeldRecord:
    @pytest.mark.parametrize("text, states", HELD_RECORD_SEARCHES)
    def test_hits_are_the_plain_loops(self, text, states):
        f = parse(text)
        hit = find_countermodel(f, EXHAUSTIVE)
        assert hit_doc(hit) == hit_doc(plain_countermodel(f, EXHAUSTIVE))
        assert (None if hit is None else len(hit.pointed.model.states)) \
            == states

    @pytest.mark.parametrize("text, valid", [("K a x -> x", True),
                                             ("x -> K a x", False),
                                             ("K a x -> K b y", False)])
    def test_schematic_hits_over_a_mixed_pool_are_the_plain_loops(
            self, text, valid):
        # pool formulas over p, over q, over both and over neither
        pool = tuple(parse(t) for t in ("top", "p", "~q", "K c (p & ~q)",
                                        "K b p", "K a top", "p & q"))
        assert {frozenset(atoms(g)) for g in pool} == {
            frozenset(), frozenset("p"), frozenset("q"), frozenset("pq")}
        f = parse(text)
        schematic = tuple(name for name in ("x", "y") if name in atoms(f))
        kwargs = {"schematic": schematic, "pool": pool}
        hit = find_countermodel(f, EXHAUSTIVE, **kwargs)
        assert (hit is None) == valid
        assert hit_doc(hit) == hit_doc(plain_countermodel(f, EXHAUSTIVE,
                                                          **kwargs))

    @pytest.mark.parametrize("text, reads", [(PANEL_A11, 412),
                                             (BOTH_C4, 1140)])
    def test_a_cold_walk_reads_an_instance_once_per_new_atom_values(
            self, text, reads, instance_reads, revalued):
        # every candidate is revalued, but one whose group already held
        # the instance under the same values of its atoms skips it; an
        # instance over every proposition is read for every candidate
        f = parse(text)
        assert find_countermodel(f, EXHAUSTIVE) is None
        assert len(revalued) == 1140
        assert instance_reads[f] == reads

    def test_a_kept_walk_holds_no_record(self):
        pool = tuple(parse(t) for t in ("p", "~q", "K a top", "p & q"))
        assert find_countermodel(parse("K a x -> x"), EXHAUSTIVE,
                                 schematic=("x",), pool=pool) is None
        walks = search._WALKS[AGENTS, PROPS]
        kept = {ev for n in (1, 2, 3) for _, _, ev, _ in walks[n][0]}
        assert len(kept) == 114
        # the record belongs to the search: each evaluator holds what a
        # fresh one of its model holds, and no formula's results
        for ev in kept:
            assert set(vars(ev)) == set(vars(Evaluator(ev.model)))
            assert not (ev._memo or ev._extents or ev._char_tables
                        or ev._parts)

    def test_bindings_are_checked_once_per_instance(self, monkeypatch):
        checked = []
        check = search._check_names

        def counting(f, *args):
            checked.append(f)
            check(f, *args)

        monkeypatch.setattr(search, "_check_names", counting)
        pool = tuple(parse(t) for t in ("p", "~q", "K a top"))
        assert find_countermodel(parse("K a x -> K a K a x"), EXHAUSTIVE,
                                 schematic=("x",), pool=pool) is None
        assert checked == [parse(f"K a {t} -> K a K a {t}")
                           for t in ("p", "~q", "K a top")]

    @pytest.mark.parametrize("params", [EXHAUSTIVE, RANDOM])
    def test_an_unbound_instance_raises_in_both_branches(self, params,
                                                         monkeypatch):
        # the widened vocabulary holds every instance's names, so only a
        # broken substitution can mention another
        monkeypatch.setattr(search, "substitute",
                            lambda f, assignment: parse("K d z"))
        with pytest.raises(BindingError) as err:
            find_countermodel(parse("p"), params)
        assert str(err.value) == \
            "formula mentions unbound agents d and propositions z"
