import dataclasses
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from scipy import stats

from chaincover import InputError, InvariantError
from chaincover.rng import choice_weighted, randbelow, stream
from chaincover.samplers import (
    _child_terms,
    _group_terms,
    _walk_terms,
    build_group_table,
    build_tree_table,
    build_walk_table,
    sample_itinerary,
    sample_subtree,
    sample_walk,
)

from oracles import (
    child_step_reference,
    choice_weighted_reference,
    enum_itineraries,
    enum_subtrees,
    enum_walks,
    exact_draws,
    group_step_reference,
    itinerary_sample_reference,
    subtree_sample_reference,
    walk_sample_reference,
    walk_step_reference,
)

PATH = (0, 1, 2, 3)
FREE = ((0, 2), (1, 3))


def test_walk_counts_match_enumeration():
    for budget in (0, 1, 2, 3):
        table = build_walk_table(PATH, FREE, budget)
        walks = enum_walks(PATH, FREE, budget)
        assert table.partition == len(walks)
        by_cost = Counter(cost for _, _, cost in walks)
        for k in range(budget + 1):
            assert table.counts[(0, k)] == by_cost.get(k, 0)
        table.verify()


def test_walk_budget_one_frozen():
    # path itself plus three single-detour walks
    table = build_walk_table(PATH, FREE, 1)
    assert table.partition == 4
    assert table.counts[(0, 0)] == 1 and table.counts[(0, 1)] == 3


def test_walk_trivial_path():
    table = build_walk_table((0,), (), 2)
    assert table.partition == 1
    sample = sample_walk(table, stream(1))
    assert sample.vertices == (0,) and sample.cost == 0


def test_walk_samples_live_in_family():
    budget = 2
    table = build_walk_table(PATH, FREE, budget)
    family = {(v, e) for v, e, _ in enum_walks(PATH, FREE, budget)}
    gen = stream(5)
    for _ in range(60):
        s = sample_walk(table, gen)
        assert (s.vertices, s.edge_keys) in family
        assert s.cost <= budget


def test_walk_sampling_uniform():
    budget = 2
    table = build_walk_table(PATH, FREE, budget)
    gen = stream(6)
    # vertex sequence identifies the walk here: each adjacent pair is served
    # by exactly one edge
    draws = Counter(sample_walk(table, gen).vertices for _ in range(4000))
    observed = list(draws.values())
    assert len(observed) == table.partition
    p = stats.chisquare(observed).pvalue
    assert p > 1e-3


def test_walk_validation():
    with pytest.raises(InputError):
        build_walk_table((0, 1, 0), (), 1)  # revisiting reference
    with pytest.raises(InputError):
        build_walk_table((0, 1), ((2, 2),), 1)  # self-loop
    with pytest.raises(InputError):
        build_walk_table((0, 1), ((0, 2), (2, 0)), 1)  # same edge twice
    with pytest.raises(InputError):
        build_walk_table((0, 1), (), -1)


def test_walk_verify_detects_tampering():
    table = build_walk_table(PATH, FREE, 1)
    # the dict itself is reachable; corrupt a cell off the source, so that
    # the partition still agrees
    table.counts[(1, 1)] += 1
    with pytest.raises(InvariantError, match="counts"):
        table.verify()


def test_walk_verify_detects_tampered_moves():
    good = build_walk_table(PATH, FREE, 1)
    # the counts still match: only the edge key of vertex 0's free move is wrong
    moves = {**good.adjacency, 0: ((1, 0, ("path", 0)), (2, 1, ("free", 1)))}
    assert moves != good.adjacency
    with pytest.raises(InvariantError, match="adjacency"):
        dataclasses.replace(good, adjacency=moves).verify()


def test_group_counts_closed_form():
    # four groups of three: sum_j C(4,j) * 2^j up to the budget
    groups = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
    table = build_group_table(groups, (0, 3, 6, 9), 2)
    assert tuple(table.counts[0]) == (1, 8, 24)
    assert table.partition == 33
    table.verify()
    full = build_group_table(groups, (0, 3, 6, 9), 4)
    assert full.partition == 3**4


def test_group_counts_match_enumeration():
    groups = [(0, 1, 2), (3, 4), (5, 6, 7)]
    ref = (0, 3, 5)
    for budget in (0, 1, 2, 3):
        table = build_group_table(groups, ref, budget)
        assert table.partition == len(enum_itineraries(groups, ref, budget))


def test_group_samples_live_in_family_and_uniform():
    groups = [(0, 1, 2), (3, 4), (5, 6, 7)]
    ref = (0, 3, 5)
    table = build_group_table(groups, ref, 1)
    family = set(enum_itineraries(groups, ref, 1))
    gen = stream(7)
    draws = Counter(sample_itinerary(table, gen) for _ in range(3000))
    assert set(draws) == family
    assert stats.chisquare(list(draws.values())).pvalue > 1e-3


def test_group_validation():
    with pytest.raises(InputError):
        build_group_table([(0, 1)], (2,), 1)  # reference outside group
    with pytest.raises(InputError):
        build_group_table([(0, 0)], (0,), 1)  # repeated activity
    with pytest.raises(InputError):
        build_group_table([(0, 1), (2, 3)], (0,), 1)  # arity mismatch
    with pytest.raises(InputError):
        build_group_table([()], (0,), 1)
    with pytest.raises(InputError):
        build_group_table([(0, 1)], (0,), -1)


def test_group_verify_detects_tampering():
    good = build_group_table([(0, 1, 2)], (0,), 1)
    assert good.counts == ((1, 2), (1, 0))
    bad = dataclasses.replace(good, counts=((2, 1),) + good.counts[1:])  # same partition
    with pytest.raises(InvariantError, match="counts"):
        bad.verify()


TREE_PARENT = (0, 0, 1, 1, 0)
TREE_REF = (0, 1)


def test_tree_counts_frozen():
    table = build_tree_table(TREE_PARENT, 0, TREE_REF, 2)
    assert table.counts == ((2, 4, 3), (1, 2, 1), (0, 1, 0), (0, 1, 0), (0, 1, 0))
    assert table.partition == 9
    table.verify()


def test_tree_counts_match_enumeration():
    for budget in (0, 1, 2, 3, 4):
        table = build_tree_table(TREE_PARENT, 0, TREE_REF, budget)
        subtrees = enum_subtrees(TREE_PARENT, 0, TREE_REF, budget)
        assert table.partition == len(subtrees)
        by_cost = Counter(sum(1 for v in s if v not in set(TREE_REF)) for s in subtrees)
        for k in range(budget + 1):
            assert table.counts[0][k] == by_cost.get(k, 0)


def test_tree_samples_live_in_family_and_uniform():
    table = build_tree_table(TREE_PARENT, 0, TREE_REF, 2)
    family = set(enum_subtrees(TREE_PARENT, 0, TREE_REF, 2))
    gen = stream(8)
    draws = Counter(sample_subtree(table, gen) for _ in range(3600))
    assert set(draws) == family
    assert stats.chisquare(list(draws.values())).pvalue > 1e-3


def test_tree_deeper_instance_against_enumeration():
    parent = (0, 0, 0, 1, 1, 2, 5)  # root 0, a path hanging off vertex 2
    for ref in ((0,), (0, 2, 5)):
        for budget in (1, 3):
            table = build_tree_table(parent, 0, ref, budget)
            family = set(enum_subtrees(parent, 0, ref, budget))
            assert table.partition == len(family)
            gen = stream(9)
            seen = {sample_subtree(table, gen) for _ in range(300)}
            assert seen <= family


def test_tree_validation():
    with pytest.raises(InputError):
        build_tree_table((1, 0), 0, (0,), 1)  # root not self-parented
    with pytest.raises(InputError):
        build_tree_table(TREE_PARENT, 0, (1,), 1)  # reference without root
    with pytest.raises(InputError):
        build_tree_table(TREE_PARENT, 0, (0, 2), 1)  # reference disconnected
    with pytest.raises(InputError):
        build_tree_table((0, 0, 3, 2), 0, (0,), 1)  # 2<->3 cycle, not a tree
    with pytest.raises(InputError):
        build_tree_table(TREE_PARENT, 0, TREE_REF, -2)
    with pytest.raises(InputError):
        build_tree_table((0, 0, 1), 0, (0, 5), 1)  # reference id beyond the nodes
    with pytest.raises(InputError):
        build_tree_table((0, 0, 5), 0, (0,), 1)  # parent id beyond the nodes
    with pytest.raises(InputError):
        build_tree_table((0, 0, 1), 0, (0, 1, -1), 1)  # negative reference id


def test_deep_tree_draws_without_recursion():
    # a 3000-node path, all of it reference: the subtrees are its prefixes,
    # and most draws go deeper than the interpreter's recursion limit
    n = 3000
    table = build_tree_table([0] + list(range(n - 1)), 0, range(n), 0)
    assert table.partition == n
    for i in range(6):
        draw = sample_subtree(table, stream(1, i))
        assert draw == frozenset(range(len(draw)))


def test_tree_verify_detects_tampering():
    good = build_tree_table(TREE_PARENT, 0, TREE_REF, 2)
    assert good.counts[0] == (2, 4, 3) and good.factors[0] == (3, 4, 3)
    # a root row with the same total and its own matching factor: only the
    # re-derived row tells it apart
    bad = dataclasses.replace(
        good, counts=((3, 3, 3),) + good.counts[1:], factors=((4, 3, 3),) + good.factors[1:]
    )
    with pytest.raises(InvariantError, match="counts"):
        bad.verify()


def test_tree_verify_detects_tampered_factors():
    good = build_tree_table(TREE_PARENT, 0, TREE_REF, 2)
    # the root's factor enters no suffix product, so only the factor check sees it
    bad = dataclasses.replace(good, factors=((9, 9, 9),) + good.factors[1:])
    with pytest.raises(InvariantError, match="factors"):
        bad.verify()


def test_tree_verify_detects_tampered_suffixes():
    good = build_tree_table(TREE_PARENT, 0, TREE_REF, 2)
    assert good.children[0] == (1, 4) and good.suffixes[0][1] == (1, 1, 0)
    root_suffixes = (good.suffixes[0][0], (1, 0, 1), good.suffixes[0][2])
    bad = dataclasses.replace(good, suffixes=(root_suffixes,) + good.suffixes[1:])
    with pytest.raises(InvariantError, match="suffixes"):
        bad.verify()


def _walk_with_counts(free, budget, edit):
    table = build_walk_table(PATH, free, budget)
    counts = dict(table.counts)
    edit(counts)
    return dataclasses.replace(table, counts=counts)


def _inconsistent_tables():
    # each table below agrees with every recurrence over its own stored cells,
    # rows and children, but not with a rebuild from its input fields
    yield pytest.param(
        _walk_with_counts(FREE, 1, lambda c: c.update({(0, 2): 1})),  # the value the recurrence gives
        "counts", id="walk cell beyond the budget",
    )
    yield pytest.param(
        _walk_with_counts(FREE + ((2, 4),), 1, lambda c: c.pop((4, 1))),
        "counts", id="walk cell that no stored cell reads",
    )
    # with reference 7 outside the group, a draw would pick among all three at cost 1
    group = build_group_table([(0, 1, 2)], (0,), 1)
    yield pytest.param(
        dataclasses.replace(group, reference=(7,)), "do not build", id="group reference outside its group"
    )
    tree = build_tree_table(TREE_PARENT, 0, TREE_REF, 2)
    yield pytest.param(
        dataclasses.replace(tree, parent=(0, 0, 0, 1, 0)), "children", id="tree parent without its children"
    )
    for table in (build_walk_table(PATH, FREE, 1), group, tree):
        yield pytest.param(
            dataclasses.replace(table, budget=-1), "do not build",
            id=f"{type(table).__name__} with a negative budget",
        )


@pytest.mark.parametrize("table, message", list(_inconsistent_tables()))
def test_verify_rebuilds_from_the_input_fields(table, message):
    with pytest.raises(InvariantError, match=message):
        table.verify()


def test_sampling_deterministic_per_stream():
    table = build_tree_table(TREE_PARENT, 0, TREE_REF, 2)
    a = [sample_subtree(table, stream(11, i)) for i in range(20)]
    b = [sample_subtree(table, stream(11, i)) for i in range(20)]
    assert a == b


def test_draws_pinned_per_stream():
    walk = build_walk_table((0, 1, 2, 3, 4), ((0, 2), (1, 3), (2, 4), (0, 5), (5, 4)), 3)
    assert [sample_walk(walk, stream(31, i)).edge_keys for i in range(4)] == [
        (("path", 0), ("path", 1), ("path", 2), ("free", 1), ("path", 1), ("path", 2),
         ("free", 1), ("path", 1), ("free", 2)),
        (("free", 0), ("free", 0), ("path", 0), ("path", 1), ("free", 2)),
        (("path", 0), ("path", 1), ("free", 0), ("path", 0), ("path", 1), ("free", 2)),
        (("path", 0), ("path", 1), ("free", 0), ("path", 0), ("path", 1), ("path", 2),
         ("free", 1), ("path", 1), ("path", 2), ("path", 3)),
    ]
    groups = build_group_table(((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)), (0, 3, 6, 9), 2)
    assert [sample_itinerary(groups, stream(32, i)) for i in range(4)] == [
        (2, 5, 6, 9), (2, 3, 6, 11), (0, 3, 8, 10), (0, 3, 6, 11),
    ]
    tree = build_tree_table((0, 0, 1, 2, 3, 1, 5, 0, 7, 8), 0, (0, 1, 2), 4)
    assert [sorted(sample_subtree(tree, stream(33, i))) for i in range(4)] == [
        [0, 7], [0, 1, 5, 6, 7], [0, 1, 2, 5, 6], [0, 7],
    ]


# ------------------------------------------------ one term list per family


def _random_walk_table(rnd):
    path = tuple(rnd.sample(range(8), rnd.randint(1, 5)))
    pairs = [(a, b) for a in range(8) for b in range(a + 1, 8)]
    edges = [pair[::rnd.choice((1, -1))] for pair in rnd.sample(pairs, rnd.randint(0, 6))]
    return build_walk_table(path, edges, rnd.randint(0, 4))


def _random_group_table(rnd):
    groups, first = [], 0
    for _ in range(rnd.randint(1, 4)):
        size = rnd.randint(1, 4)
        groups.append(tuple(range(first, first + size)))
        first += size
    return build_group_table(groups, [rnd.choice(g) for g in groups], rnd.randint(0, 3))


def _random_tree_table(rnd):
    n = rnd.randint(1, 9)
    parent = [0] + [rnd.randrange(v) for v in range(1, n)]
    reference = {0}
    for v in range(1, n):
        if parent[v] in reference and rnd.random() < 0.5:
            reference.add(v)
    return build_tree_table(parent, 0, reference, rnd.randint(0, 4))


def test_step_terms_are_the_old_weights_and_draw_the_same():
    rnd = random.Random(23)
    for _ in range(80):
        walk = _random_walk_table(rnd)
        for u in walk.adjacency:
            for k in range(walk.budget + 1):
                moves, weights = _walk_terms(walk.counts, walk.adjacency, u, k)
                assert (moves, weights) == walk_step_reference(walk, u, k)
                assert walk.counts[(u, k)] == sum(weights)
        group = _random_group_table(rnd)
        for r, g in enumerate(group.groups):
            for k in range(group.budget + 1):
                terms = _group_terms(len(g), group.counts[r + 1], k)
                assert terms == group_step_reference(group, r, k)
                assert group.counts[r][k] == sum(terms)
        tree = _random_tree_table(rnd)
        for u, kids in enumerate(tree.children):
            for i, child in enumerate(kids):
                for k in range(tree.budget + 1):
                    terms = _child_terms(tree.factors[child], tree.suffixes[u][i + 1], k)
                    reference = child_step_reference(tree, u, i, k)
                    # the old list ran to the budget; its entries past k were zeros
                    assert terms == reference[: k + 1] and not any(reference[k + 1:])
                    assert tree.suffixes[u][i][k] == sum(terms)

    # choice_weighted picks the old loop's index and reads the same words
    seen = Counter()
    for case in range(600):
        weights = [rnd.choice((0, rnd.randint(1, 9), rnd.getrandbits(rnd.randint(33, 200))))
                   for _ in range(rnd.randint(1, 6))]
        if not any(weights):
            continue
        ours, old = stream(61, case), stream(61, case)
        assert choice_weighted(ours, weights) == choice_weighted_reference(old, weights)
        assert ours.bit_generator.random_raw() == old.bit_generator.random_raw()
        seen["zero"] += 0 in weights
        seen["big"] += max(weights) >= 2**64
        seen["single"] += len(weights) == 1
    assert min(seen.values()) >= 50, seen
    for weights in ([], [0], [0, 0, 0]):
        for draw in (choice_weighted, choice_weighted_reference):
            with pytest.raises(ValueError):
                draw(stream(61), weights)

    # the two uniform steps draw as choice_weighted over [1] * n and [1, c]
    for case in range(300):
        n = rnd.choice((1, 2, 3, rnd.randint(4, 300), 256, 257))
        c = rnd.choice((0, 1, rnd.randint(2, 10**6), 2**70 + rnd.randint(0, 9)))
        ours, old = stream(62, case), stream(62, case)
        assert randbelow(ours, n) == choice_weighted(old, [1] * n)
        assert (randbelow(ours, 1 + c) == 0) == (choice_weighted(old, [1, c]) == 0)
        assert ours.bit_generator.random_raw() == old.bit_generator.random_raw()


# ------------------------------------------------ each step scans its stored total


def _large_tables():
    """One table per family whose totals pass 2**64."""
    rnd = random.Random(64)
    path = (0, 1, 2, 3)
    free = [(a, b) for a in range(8) for b in range(a + 1, 8) if b != a + 1 or b > 3]
    walk = build_walk_table(path, free, 23)
    groups = [tuple(range(10 * g, 10 * g + 10)) for g in range(30)]
    group = build_group_table(groups, [rnd.choice(g) for g in groups], 20)
    parent = [0] + [rnd.randrange(v) for v in range(1, 160)]
    tree = build_tree_table(parent, 0, {0}, 40)
    return {"walk": walk, "group": group, "tree": tree}


SAMPLERS = {
    "walk": (_random_walk_table, lambda t, g: dataclasses.astuple(sample_walk(t, g)),
             walk_sample_reference),
    "group": (_random_group_table, sample_itinerary, itinerary_sample_reference),
    "tree": (_random_tree_table, sample_subtree, subtree_sample_reference),
}


@pytest.mark.parametrize("family", sorted(SAMPLERS))
def test_steps_draw_as_the_reference_samplers(family):
    # each output, and the word the generator gives next, is the old sampler's
    random_table, ours, reference = SAMPLERS[family]
    large = _large_tables()[family]
    assert large.partition > 2**64
    rnd = random.Random(29)
    for case in range(240):
        table = large if case % 3 == 0 else random_table(rnd)
        gen, ref = stream(63, case), stream(63, case)
        assert ours(table, gen) == reference(table, ref), case
        assert gen.bit_generator.random_raw() == ref.bit_generator.random_raw()


def _overdrawn_tables():
    # a stored total 2**70 above the sum of its terms: the draw lands past the
    # last term on all but a 2**-60 share of streams
    walk = build_walk_table(PATH, FREE, 2)
    counts = {**walk.counts, **{(0, k): walk.counts[(0, k)] + 2**70 for k in range(3)}}
    yield pytest.param(lambda g: sample_walk(dataclasses.replace(walk, counts=counts), g), id="walk")
    group = build_group_table([(0, 1, 2), (3, 4), (5, 6, 7)], (0, 3, 5), 2)
    rows = (tuple(c + 2**70 for c in group.counts[0]),) + group.counts[1:]
    yield pytest.param(lambda g: sample_itinerary(dataclasses.replace(group, counts=rows), g), id="group")
    tree = build_tree_table(TREE_PARENT, 0, TREE_REF, 2)
    root = (tuple(c + 2**70 for c in tree.suffixes[0][0]),) + tree.suffixes[0][1:]
    suffixes = (root,) + tree.suffixes[1:]
    yield pytest.param(lambda g: sample_subtree(dataclasses.replace(tree, suffixes=suffixes), g), id="tree")


@pytest.mark.parametrize("draw", list(_overdrawn_tables()))
def test_a_total_above_its_terms_is_an_invariant_error(draw):
    for i in range(20):
        with pytest.raises(InvariantError, match="exceeds the sum of its terms"):
            draw(stream(64, i))


# ------------------------------------------------ sizes go through the one int rule


BUILDS = {
    "walk": lambda budget: build_walk_table(PATH, FREE, budget),
    "group": lambda budget: build_group_table([(0, 1)], (0,), budget),
    "tree": lambda budget: build_tree_table(TREE_PARENT, 0, TREE_REF, budget),
}


@pytest.mark.parametrize("family", sorted(BUILDS))
@pytest.mark.parametrize("budget, message", [
    *((b, f"budget must be an int, got {b!r}") for b in (2.5, 2.0, True, "2", None)),
    (-1, "budget must be >= 0, got -1"),
])
def test_budget_must_be_a_non_negative_int(family, budget, message):
    with pytest.raises(InputError, match=re.escape(message)):
        BUILDS[family](budget)


@pytest.mark.parametrize("parent, root, reference, message", [
    ((0, 0.5), 0, (0,), "parent 0.5 of node 1 is not a node id"),
    ((0.0, 0), 0, (0,), "parent 0.0 of node 0 is not a node id"),
    ((0, True), 0, (0,), "parent True of node 1 is not a node id"),
    ((0, 0), 0.0, (0,), "root must be an int, got 0.0"),
    ((0, 0), False, (0,), "root must be an int, got False"),
    ((0, 0), 0, (0, 1.0), "reference node 1.0 is not a node id"),
    ((0, 0, 0), 0, (0, True), "reference node True is not a node id"),
])
def test_tree_ids_must_be_ints(parent, root, reference, message):
    with pytest.raises(InputError, match=re.escape(message)):
        build_tree_table(parent, root, reference, 1)


# ------------------------------------------------- exact uniformity, every draw walked


def _uniform_over(mass, family, partition):
    assert set(mass) == set(family)
    assert len(family) == partition
    assert set(mass.values()) == {Fraction(1, partition)}


@pytest.mark.parametrize("path, free, budget, size", [
    ((0, 1, 2), ((0, 3), (3, 2), (3, 4), (4, 2), (0, 4)), 2, 5),
    (PATH, FREE, 2, None),
])
def test_walk_draws_are_exactly_uniform(monkeypatch, path, free, budget, size):
    table = build_walk_table(path, free, budget)
    mass = exact_draws(monkeypatch, lambda: dataclasses.astuple(sample_walk(table, None)))
    family = enum_walks(path, free, budget)
    assert size is None or len(family) == size
    _uniform_over(mass, family, table.partition)


@pytest.mark.parametrize("groups, reference, budget, size", [
    ([[0, 1, 2], [3, 4], [5, 6, 7]], [0, 3, 5], 2, 14),
    ([[0, 1, 2, 3], [4], [5, 6, 7], [8, 9]], [3, 4, 5, 9], 3, None),
])
def test_itinerary_draws_are_exactly_uniform(monkeypatch, groups, reference, budget, size):
    table = build_group_table(groups, reference, budget)
    mass = exact_draws(monkeypatch, lambda: sample_itinerary(table, None))
    family = enum_itineraries(groups, reference, budget)
    assert size is None or len(family) == size
    _uniform_over(mass, family, table.partition)


@pytest.mark.parametrize("parent, root, reference, budget, size", [
    ([0, 0, 0, 1, 1, 2, 2], 0, {0, 1}, 2, 13),
    ([1, 1, 1, 0, 0, 2, 5, 5], 1, {1, 2, 5}, 3, None),
])
def test_subtree_draws_are_exactly_uniform(monkeypatch, parent, root, reference, budget, size):
    table = build_tree_table(parent, root, reference, budget)
    mass = exact_draws(monkeypatch, lambda: sample_subtree(table, None))
    family = enum_subtrees(parent, root, reference, budget)
    assert size is None or len(family) == size
    _uniform_over(mass, family, table.partition)
