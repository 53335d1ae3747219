"""Metamorphic checks: relabeling one player's questions, permuting the
players and adding a separable term sum_i theta_i(x_i) to f leave every
value and bound of a linear game unchanged.

The third holds by the linear structure: the term shifts each player's
answers, and it multiplies every game matrix by diagonal phases, which
keeps the singular values.  Witnesses may differ under a transformation
(ties break lexicographically), so each one is replayed on its own game
instead of being compared."""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from lingame.algebra import AbelianGroup
from lingame.diew import biseparable_bound
from lingame.errors import ValidationError
from lingame.games import make_game
from lingame.qbounds import quantum_bound
from lingame.tolerances import TIE_TOL
from lingame.values import classical_value, separability_check, svetlichny_value

GROUPS = [AbelianGroup((2,)), AbelianGroup((3,)), AbelianGroup((4,)),
          AbelianGroup((2, 2))]
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def _elements(draw, group, count):
    element = st.integers(0, group.size - 1).map(group.element)
    return draw(st.lists(element, min_size=count, max_size=count))


@st.composite
def games(draw):
    """2- and 3-player games with at most 3 questions per player, zero
    weights allowed; the predicate is constant, separable or arbitrary,
    and the distribution uniform or not, so every separability verdict
    occurs."""
    group = draw(st.sampled_from(GROUPS))
    n = draw(st.sampled_from((2, 3)))
    questions = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    size = math.prod(questions)
    kind = draw(st.sampled_from(("constant", "separable", "arbitrary")))
    if kind == "constant":
        predicate = _elements(draw, group, 1) * size
    elif kind == "separable":
        thetas = [_elements(draw, group, q) for q in questions]
        predicate = lambda x: _sum(group, [t[q] for t, q in zip(thetas, x)])
    else:
        predicate = _elements(draw, group, size)
    if draw(st.booleans()):
        distribution = "uniform"
    else:
        weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)
                       .filter(lambda w: sum(w) > 0))
        distribution = [Fraction(w, sum(weights)) for w in weights]
    return make_game(group, questions, predicate, distribution=distribution)


def _sum(group, elements):
    total = group.identity
    for a in elements:
        total = group.add(total, a)
    return total


def _rebuilt(game, questions, source, shift=lambda x: None):
    """The game with p'(x) = p(source(x)) and f'(x) = f(source(x)) plus
    shift(x) (nothing when shift returns None)."""
    def f(x):
        value = game.predicate_value(source(x))
        extra = shift(x)
        return value if extra is None else game.group.add(value, extra)
    grid = itertools.product(*(range(q) for q in questions))
    table = {x: game.probability(source(x)) for x in grid}
    return make_game(game.group, questions, f, distribution=table)


def _replay(game, outputs):
    """Exact winning probability of a deterministic strategy."""
    return sum((game.probability(x) for x in game.inputs()
                if _sum(game.group, [outputs[i][q] for i, q in enumerate(x)])
                == game.predicate_value(x)), Fraction(0))


def summary(game):
    """Every value and bound, after checking the witness and the order
    classical <= Svetlichny and classical <= biseparable <= quantum bound."""
    result = classical_value(game)
    assert _replay(game, result.strategy.outputs) == result.value
    try:
        separable = separability_check(game).separable
    except ValidationError:
        separable = None
    out = {"classical": result.value, "separable": separable,
           "quantum": quantum_bound(game).raw_bound,
           "svetlichny": (), "biseparable": ()}
    assert float(result.value) <= out["quantum"] + TIE_TOL
    if game.players == 3:
        out["svetlichny"] = tuple(svetlichny_value(game, lone=i) for i in range(3))
        assert svetlichny_value(game) == max(out["svetlichny"])
        assert result.value <= min(out["svetlichny"])
        report = biseparable_bound(game)
        out["biseparable"] = tuple(p.raw for p in report.partitions)
        assert float(result.value) <= report.raw_bound + TIE_TOL
        assert report.raw_bound <= out["quantum"] + TIE_TOL
    return out


def assert_same(before, after, order=(0, 1, 2)):
    """``after`` describes the game whose player j was player order[j]."""
    for key in ("classical", "separable"):
        assert after[key] == before[key]
    assert abs(after["quantum"] - before["quantum"]) <= TIE_TOL
    if before["svetlichny"]:
        assert after["svetlichny"] == tuple(before["svetlichny"][i] for i in order)
        for j, i in enumerate(order):
            assert abs(after["biseparable"][j] - before["biseparable"][i]) <= TIE_TOL


@SETTINGS
@given(games(), st.data())
def test_relabeling_questions_keeps_values(game, data):
    player = data.draw(st.integers(0, game.players - 1))
    perm = data.draw(st.permutations(range(game.question_counts[player])))

    def source(x):
        return x[:player] + (perm[x[player]],) + x[player + 1:]
    assert_same(summary(game), summary(_rebuilt(game, game.question_counts, source)))


@SETTINGS
@given(games(), st.data())
def test_permuting_players_keeps_values(game, data):
    order = data.draw(st.permutations(range(game.players)))
    questions = tuple(game.question_counts[i] for i in order)

    def source(x):
        old = [0] * game.players
        for j, i in enumerate(order):
            old[i] = x[j]
        return tuple(old)
    assert_same(summary(game), summary(_rebuilt(game, questions, source)),
                order if game.players == 3 else (0, 1, 2))


@SETTINGS
@given(games(), st.data())
def test_adding_a_separable_term_keeps_values(game, data):
    thetas = [_elements(data.draw, game.group, q) for q in game.question_counts]

    def shift(x):
        return _sum(game.group, [t[q] for t, q in zip(thetas, x)])
    assert_same(summary(game),
                summary(_rebuilt(game, game.question_counts, lambda x: x, shift)))
