"""The game tensor and the biseparable search against the slow path they
replaced: entry-by-entry game matrices, Jacobi norms, and a Python loop
over every partition and lone-player assignment; the search's pair
matrices, read off the game tensor, against the histogram fold that
built them before; the search that scores each phase vector once
against the one that took an SVD per table, and against a search that
sums each table's matrices alone, left to right, bit for bit at every
block size; and the norms of one matrix per conjugate pair of characters
against the kernel that took one complex SVD per character
(tests/oracles.py)."""

import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lingame import diew, qbounds, values
from lingame.algebra import AbelianGroup
from lingame.diew import (biseparable_bound, biseparable_bound_partition,
                          biseparable_matrix)
from lingame.games import chsh_game, make_game, mermin_ghz3_game
from lingame.errors import ResourceLimitError
from lingame.linalg import max_singular_value
from lingame.qbounds import (character_norms, first_optimum, game_matrix,
                             game_tensor, quantum_bound)
from lingame.tolerances import TIE_TOL

from oracles import (oracle_biseparable_bound, oracle_biseparable_matrix,
                     oracle_biseparable_search, oracle_bipartition_norms,
                     oracle_bipartition_stack, oracle_bound_report,
                     oracle_first_optimum, oracle_fold_pair_matrices,
                     oracle_game_matrix, oracle_left_to_right_matrices,
                     oracle_lone_tables,
                     oracle_max_singular_value, oracle_pair_norms,
                     oracle_quantum_bound, oracle_table_matrices,
                     oracle_table_search)

Z3 = AbelianGroup((3,))
SETTINGS = settings(max_examples=15, deadline=None, derandomize=True)


@st.composite
def z3_games(draw, questions):
    size = 1
    for q in questions:
        size *= q
    values = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    weights = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size)
                   .filter(lambda w: sum(w) > 0))
    dist = [Fraction(w, sum(weights)) for w in weights]
    return make_game(Z3, questions, [(v,) for v in values], distribution=dist)


def two_player_games():
    return st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(z3_games)


def assert_quantum_matches(game):
    report = quantum_bound(game)
    raw, best = oracle_quantum_bound(game)
    assert abs(report.raw_bound - raw) <= TIE_TOL
    assert report.best_partition == best


def assert_biseparable_matches(game):
    """Raw bound, best lone player and assignment as the oracle's, and the
    reported norms and matrices of that assignment as the oracle's."""
    report = biseparable_bound(game)
    raw, lone, assignment = oracle_biseparable_bound(game)
    assert abs(report.raw_bound - raw) <= TIE_TOL
    assert report.best_lone == lone
    part = report.partition(lone)
    assert part.assignment == assignment
    for k, norm in part.norms.items():
        expected = oracle_biseparable_matrix(game, lone, k, assignment)
        assert abs(biseparable_matrix(game, lone, k, assignment)
                   - expected).max() <= 1e-12
        assert abs(norm - oracle_max_singular_value(expected)) <= 1e-9


@st.composite
def tripartite_games(draw, groups=((2,), (4,), (2, 2), (2, 3))):
    """Three-player games over groups other than Z3, one to three
    questions a player, with zero-probability inputs and, one time in
    four, a constant predicate under which every table ties."""
    group = AbelianGroup(draw(st.sampled_from(groups)))
    questions = tuple(draw(st.lists(st.integers(1, 3), min_size=3,
                                    max_size=3)))
    size = questions[0] * questions[1] * questions[2]
    element = st.integers(0, group.size - 1).map(group.element)
    if draw(st.integers(0, 3)) == 0:
        predicate = [draw(element)] * size
    else:
        predicate = draw(st.lists(element, min_size=size, max_size=size))
    weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)
                   .filter(lambda w: sum(w) > 0))
    dist = [Fraction(w, sum(weights)) for w in weights]
    return make_game(group, questions, predicate, distribution=dist)


@pytest.mark.parametrize("game", [mermin_ghz3_game(), chsh_game(3, 3)],
                         ids=["ghz3", "chsh33"])
def test_builtin_bounds_match_oracles(game):
    assert_quantum_matches(game)
    assert_biseparable_matches(game)


@SETTINGS
@given(two_player_games())
def test_two_player_quantum_bound_matches_oracle(game):
    assert_quantum_matches(game)


@SETTINGS
@given(z3_games((3, 3, 3)))
def test_tripartite_bounds_match_oracles(game):
    assert_quantum_matches(game)
    assert_biseparable_matches(game)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tripartite_games(), st.sampled_from([1, 50, values._CHUNK_ENTRIES]))
def test_biseparable_search_matches_oracle_on_other_groups(game, entries):
    """Blocks from one table up to the default, so that tied tables fall
    in different blocks."""
    with mock.patch.object(values, "_CHUNK_ENTRIES", entries):
        assert_biseparable_matches(game)


Z2Z2 = AbelianGroup((2, 2))
BEYOND_2_TO_THE_53 = make_game(
    Z2Z2, (2, 3, 2),
    [Z2Z2.element(i) for i in (1, 0, 3, 0, 3, 3, 0, 3, 2, 1, 1, 0)],
    distribution=[Fraction(w, 2**80) for w in
                  (5, 2**80 - 17, 0, 3, 1, 0, 2, 6, 0, 0, 0, 0)])


@pytest.mark.parametrize("entries", [1, 50, values._CHUNK_ENTRIES])
def test_biseparable_search_beyond_2_to_the_53_matches_oracle(entries):
    """A denominator of 2^80 gives an object-dtype histogram."""
    assert BEYOND_2_TO_THE_53.histogram.dtype == object
    with mock.patch.object(values, "_CHUNK_ENTRIES", entries):
        assert_biseparable_matches(BEYOND_2_TO_THE_53)


TIED_Z3_GAME = make_game(Z3, (3, 3, 3), [(v,) for v in (
    1, 0, 0, 2, 1, 1, 1, 2, 1, 0, 2, 0, 0, 2, 1, 0, 0, 1, 2, 1, 2, 0, 0, 2, 2,
    0, 0)])


def assert_search_keeps_the_report(game, entries):
    """Every split reports, bit for bit, what the search that scored each
    table alone and kept the norms of every table reports."""
    with mock.patch.object(values, "_CHUNK_ENTRIES", entries):
        for lone in range(3):
            assert (biseparable_bound_partition(game, lone)
                    == oracle_biseparable_search(game, lone))


@pytest.mark.parametrize("entries", [1, 50, 260, values._CHUNK_ENTRIES])
@pytest.mark.parametrize("game", [TIED_Z3_GAME, mermin_ghz3_game(),
                                  chsh_game(3, 3), chsh_game(3, 4),
                                  chsh_game(3, 5)],
                         ids=["tied-z3", "ghz3", "chsh33", "chsh34", "chsh35"])
def test_search_near_the_maximum_keeps_the_builtin_reports(game, entries):
    assert_search_keeps_the_report(game, entries)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(z3_games((3, 3, 3)), tripartite_games(),
                 tripartite_games(groups=((3, 3), (2, 2, 3), (11,)))),
       st.sampled_from([1, 50, values._CHUNK_ENTRIES]))
def test_search_near_the_maximum_keeps_the_report(game, entries):
    """Groups of up to 12 elements: sums over 8 or more characters too."""
    assert_search_keeps_the_report(game, entries)


@pytest.mark.parametrize("entries", [1, 4, values._CHUNK_ENTRIES])
def test_tables_near_a_rising_maximum_are_kept_and_dropped(entries):
    """Scripted norms whose raw bounds climb by less than TIE_TOL at a
    time: a table near the maximum is dropped only once the maximum has
    moved more than TIE_TOL above it, and the first table near the final
    maximum is reported with its own norms."""
    steps = [0, 6, 12, 3, 18, 18, 25, 0, 22]  # tenths of TIE_TOL
    base = 0.5

    def scripted():
        norms = iter([(0.1 + 0.01 * t, base + s * TIE_TOL / 10 - 0.1 - 0.01 * t)
                      for t, s in enumerate(steps)])

        def character_norms(stack, group):
            return np.array([next(norms) for _ in range(stack.shape[1])]).T
        return mock.patch.object(diew, "character_norms", character_norms)

    with mock.patch.object(values, "_CHUNK_ENTRIES", entries):
        with scripted():
            part = biseparable_bound_partition(TIED_Z3_GAME, 0)
        with scripted():
            assert part == oracle_biseparable_search(TIED_Z3_GAME, 0)
    assert part.assignment == ((0,), (1,), (1,))  # table 4, the first 18
    assert list(part.norms.values()) == [0.1 + 0.01 * 4, base + 18 * TIE_TOL
                                         / 10 - 0.1 - 0.01 * 4]


@pytest.mark.parametrize("entries", [1, 50, values._CHUNK_ENTRIES])
def test_blocks_above_the_maximum_by_a_hair_are_scored(entries):
    """Scripted raws that climb by hundredths of TIE_TOL, in blocks of 1,
    3 and 9 tables: every block with a raw above the running maximum is
    scored, so the raw reported is the final maximum, and the table is
    the first, which is within TIE_TOL of it."""
    steps = [0, 2, 1, 3, 3, 5, 4, 9, 6]  # hundredths of TIE_TOL

    def scripted():
        norms = iter([(0.1, 0.4 + s * TIE_TOL / 100) for s in steps])

        def character_norms(stack, group):
            return np.array([next(norms) for _ in range(stack.shape[1])]).T
        return mock.patch.object(diew, "character_norms", character_norms)

    with mock.patch.object(values, "_CHUNK_ENTRIES", entries):
        with scripted():
            part = biseparable_bound_partition(TIED_Z3_GAME, 0)
        with scripted():
            assert part == oracle_biseparable_search(TIED_Z3_GAME, 0)
    assert part.assignment == ((0,), (0,), (0,))
    assert list(part.norms.values()) == [0.1, 0.4]
    assert part.raw == (1.0 + 3.0 * (0.1 + (0.4 + 9 * TIE_TOL / 100))) / 3


def test_blocks_bound_the_memory_of_the_biseparable_search():
    """Each block's character sums and singular values are dropped before
    the next block; about one block's worth of complex entries is alive."""
    game = chsh_game(3, 5)
    tracemalloc.start()
    try:
        part = biseparable_bound_partition(game, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert part.assignment == ((0,), (0,), (4,), (2,), (4,))
    assert peak < 3 * values._CHUNK_ENTRIES * 8


def phase_block_matrices(game, lone):
    """The matrices of every table, at [r, t, x_i, x_j], read from the
    blocks of ``diew._phase_blocks``: for each representative r, the
    matrix of the table's phase vector through the index of the character
    r stands for."""
    reps = game.group.character_pairs.reps
    out = []
    for stack, index in diew._phase_blocks(game, lone):
        vectors = index[reps - 1] - (reps - 1)[:, None] * stack.shape[1]
        out.append(stack[np.arange(len(reps))[:, None], vectors])
    return np.concatenate(out, axis=1)


@pytest.mark.parametrize("entries", [1, 260, 600, values._CHUNK_ENTRIES])
def test_blocks_hold_at_most_the_chunk_entries(entries):
    """chsh(3,5), lone player 0: a block varies the last s of the four
    free answers, s the largest with 2 * 5^s * 25 matrix entries plus
    5^(s+1) index entries at most ``values._CHUNK_ENTRIES``, or 0 (at
    260 entries the matrices of s = 1 fit, but not with their index); its
    stack holds the 2 * 5^s matrices of the suffix phase vectors, and the
    blocks cover the 625 tables in lexicographic order."""
    game = chsh_game(3, 5)
    with mock.patch.object(values, "_CHUNK_ENTRIES", entries):
        blocks = [(stack.shape, index.shape)
                  for stack, index in diew._phase_blocks(game, 0)]
        got = phase_block_matrices(game, 0)

    def fits(s):
        return 2 * 5**s * 25 + 5**(s + 1) <= entries

    s = round(math.log(blocks[0][1][1], 5))
    assert (s == 0 or fits(s)) and (s == 4 or not fits(s + 1))
    assert blocks == [((2, 5**s, 5, 5), (4, 5**s))] * 5**(4 - s)
    want = oracle_table_matrices(game, 0, oracle_lone_tables(game, 0))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_search_keeps_no_norms_per_table():
    """2^16 lone-player tables in blocks of 2^10 entries: only a block and
    the norms of the tables near the running maximum are alive, not the
    512 KiB of one norm per table."""
    z2 = AbelianGroup((2,))
    game = make_game(z2, (17, 1, 1), [z2.element(i % 2) for i in range(17)])
    game.histogram
    with mock.patch.object(values, "_CHUNK_ENTRIES", 2**10):
        tracemalloc.start()
        try:
            part = biseparable_bound_partition(game, 0, cap=2**17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert part.raw == 1.0
    assert peak < 256 * 2**10


KERNEL_GROUPS = ((2,), (3,), (4,), (2, 2), (3, 3), (6,))


@st.composite
def kernel_games(draw, players=st.integers(2, 3)):
    """Games of two or three players (drawn by ``players``) over groups
    whose nontrivial characters are all real (Z2, Z2xZ2), all complex (Z3,
    Z3xZ3) or both (Z4, Z6), with one to three questions a player and
    zero-probability inputs."""
    group = AbelianGroup(draw(st.sampled_from(KERNEL_GROUPS)))
    players = draw(players)
    questions = tuple(draw(st.lists(st.integers(1, 3), min_size=players,
                                    max_size=players)))
    size = math.prod(questions)
    element = st.integers(0, group.size - 1).map(group.element)
    predicate = draw(st.lists(element, min_size=size, max_size=size))
    weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)
                   .filter(lambda w: sum(w) > 0))
    dist = [Fraction(w, sum(weights)) for w in weights]
    return make_game(group, questions, predicate, distribution=dist)


def assert_pairs_match_kernel(stack, group, want, neg):
    """One real SVD call for the real representatives and one complex call
    for the others; norms within 1e-12 of the kernel's, relative to the
    largest norm of the stack, and those of k and -k equal exactly."""
    calls = []

    def recording(m):
        calls.append((len(m), m.dtype))
        return max_singular_value(m)

    with mock.patch.object(qbounds, "max_singular_value", recording):
        got = character_norms(stack, group)
    pairs = group.character_pairs
    assert calls == [(n, dtype) for n, dtype in (
        (pairs.real, np.float64), (len(pairs.reps) - pairs.real, np.complex128))
        if n]
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * want.max()
    assert np.array_equal(got, got[neg])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kernel_games(), st.data())
def test_character_norms_match_the_kernel_oracle(game, data):
    """Every bipartition from its cached layout, and for three players
    every lone player's tables and one drawn table: norms as the kernel's,
    and the matrices of -k the exact conjugates of those of k, each as the
    entry-by-entry oracle's, on both sides of the bipartition."""
    group = game.group
    ks = group.elements()[1:]
    neg = [ks.index(group.neg(k)) for k in ks]
    tensor = game_tensor(game)
    layouts = qbounds._split_layouts(game.players)
    assert [s for s, _ in layouts] == [
        tuple(i for i in range(game.players) if mask >> i & 1)
        for mask in range(1, 2**game.players - 1) if mask & 1]
    for s, axes in layouts:
        stack = qbounds._bipartition_stack(tensor, s, axes)
        assert np.array_equal(stack, oracle_bipartition_stack(tensor, game, s))
        assert_pairs_match_kernel(stack, group,
                                  oracle_bipartition_norms(game, s), neg)
        comp = tuple(i for i in range(game.players) if i not in s)
        for side, k in itertools.product((s, comp), ks):
            m = game_matrix(game, side, k)
            assert np.array_equal(game_matrix(game, side, group.neg(k)),
                                  m.conj())
            assert np.abs(m - oracle_game_matrix(game, side, k)).max() <= 1e-12
    if game.players != 3:
        return
    for lone in range(3):
        block, = values.fold_tables(game, (lone,), 10**4)
        assert_pairs_match_kernel(
            oracle_table_matrices(game, lone, oracle_lone_tables(game, lone)),
            group, oracle_pair_norms(game, lone, block), neg)
        table = data.draw(st.lists(st.sampled_from(group.elements()),
                                   min_size=game.question_counts[lone],
                                   max_size=game.question_counts[lone]))
        for k in ks:
            m = biseparable_matrix(game, lone, k, table)
            assert np.array_equal(biseparable_matrix(game, lone, group.neg(k),
                                                     table), m.conj())
            assert np.abs(m - oracle_biseparable_matrix(game, lone, k, table)
                          ).max() <= 1e-12


def test_game_matrix_lays_out_its_own_side_and_caches_nothing():
    """On 18 players of one question each, game_matrix builds no table of
    splits: after a cache_clear the first call leaves _split_layouts empty
    and gives the entry-by-entry oracle's matrix on either side."""
    game = make_game(AbelianGroup((2,)), (1,) * 18, [(1,)])
    qbounds._split_layouts.cache_clear()
    for side in ((0, 5, 17), (16, 3)):
        m = game_matrix(game, side, (1,))
        assert qbounds._split_layouts.cache_info().currsize == 0
        assert np.abs(m - oracle_game_matrix(game, side, (1,))).max() <= 1e-12


# The spectral workload's chsh games, then larger ones whose splits share
# stacks across more side sizes.
SPECTRAL_CHSH = ([(2, d) for d in (2, 3, 4, 5, 7, 8, 9, 11)]
                 + [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2)]
                 + [(3, 5), (5, 3), (6, 2), (8, 2)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kernel_games(players=st.integers(2, 5)))
def test_quantum_bound_matches_the_split_by_split_report(game):
    """The one report loop over the cached layouts reports what the loop
    building each split alone reported, partitions and norms included."""
    assert quantum_bound(game) == oracle_bound_report(game)


@pytest.mark.parametrize("game", [chsh_game(n, d) for n, d in SPECTRAL_CHSH]
                         + [mermin_ghz3_game()],
                         ids=[f"chsh{n}{d}" for n, d in SPECTRAL_CHSH] + ["ghz3"])
def test_builtin_quantum_bounds_match_the_split_by_split_report(game):
    assert quantum_bound(game) == oracle_bound_report(game)


@st.composite
def tied_raws(draw):
    """1 to 20 finite raws and ``largest``, with values planted at 0,
    within, at and just past TIE_TOL on either side of the optimum."""
    raws = draw(st.lists(st.floats(-4, 4), min_size=1, max_size=16))
    largest = draw(st.booleans())
    best = max(raws) if largest else min(raws)
    if draw(st.booleans()):  # an optimum of 0, from which offsets are exact
        raws, best = [raw - best for raw in raws], 0.0
    offsets = (0.0, TIE_TOL / 2, math.nextafter(TIE_TOL, 0), TIE_TOL,
               math.nextafter(TIE_TOL, 1), 2 * TIE_TOL)
    for _ in range(draw(st.integers(0, 4))):
        offset = draw(st.sampled_from(offsets)) * draw(st.sampled_from((-1, 1)))
        raws.insert(draw(st.integers(0, len(raws))), best + offset)
    return raws, largest


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tied_raws(), st.booleans())
def test_first_optimum_matches_the_numpy_rule(case, as_array):
    """The scan picks the index and optimum that numpy's argmax over the
    tie mask picked, from a list or an array, as an int and a float."""
    raws, largest = case
    got = first_optimum(np.array(raws) if as_array else raws, largest)
    assert got == oracle_first_optimum(raws, largest)
    assert (type(got[0]), type(got[1])) == (int, float)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kernel_games(players=st.just(3)))
@example(make_game(AbelianGroup((6,)), (1, 2, 3), [(v,) for v in range(6)]))
@example(BEYOND_2_TO_THE_53)
def test_pair_matrices_match_the_histogram_fold(game):
    """For every split and block size, the matrices of every table read
    off the game tensor, one per phase vector, are those of the histogram
    fold, within 1e-12 of the largest entry; a lone player with one
    question has the one table 0."""
    for lone in range(3):
        want = np.concatenate([oracle_fold_pair_matrices(game, lone, block)
                               for block in values.fold_tables(
                                   game, (lone,), 10**4)], axis=1)
        for entries in (1, 50, values._CHUNK_ENTRIES):
            with mock.patch.object(values, "_CHUNK_ENTRIES", entries):
                got = phase_block_matrices(game, lone)
            assert got.shape == want.shape == (
                (len(game.group.character_pairs.reps),
                 len(oracle_lone_tables(game, lone)))
                + tuple(q for i, q in enumerate(game.question_counts)
                        if i != lone))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


PHASE_GROUPS = ((2,), (3,), (4,), (6,), (2, 2), (2, 4), (3, 3))


@st.composite
def lone_games(draw):
    """(game, lone): three-player games over cyclic groups and groups of
    smaller exponent, a drawn lone player with one to four questions and
    one to three for the others, and zero-probability inputs."""
    group = AbelianGroup(draw(st.sampled_from(PHASE_GROUPS)))
    lone = draw(st.integers(0, 2))
    questions = [draw(st.integers(1, 3)) for _ in range(3)]
    questions[lone] = draw(st.integers(1, 4))
    size = math.prod(questions)
    element = st.integers(0, group.size - 1).map(group.element)
    predicate = draw(st.lists(element, min_size=size, max_size=size))
    weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)
                   .filter(lambda w: sum(w) > 0))
    dist = [Fraction(w, sum(weights)) for w in weights]
    return make_game(group, tuple(questions), predicate, distribution=dist), lone


Z2Z4 = AbelianGroup((2, 4))
ONE_LONE_QUESTION = make_game(Z2Z4, (1, 2, 3),
                              [Z2Z4.element(i) for i in (3, 0, 5, 7, 6, 1)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lone_games(), st.sampled_from([1, 50, values._CHUNK_ENTRIES]))
@example((ONE_LONE_QUESTION, 0), 1)
@example((ONE_LONE_QUESTION, 0), values._CHUNK_ENTRIES)
def test_phase_search_matches_the_table_search(case, entries):
    """Scoring each phase vector once reports the table that scoring each
    table reported, with raw and every norm within 1e-12, at block sizes
    from one table up to the default."""
    game, lone = case
    with mock.patch.object(values, "_CHUNK_ENTRIES", entries):
        got = biseparable_bound_partition(game, lone)
        want = oracle_table_search(game, lone)
    assert got.assignment == want.assignment
    assert abs(got.raw - want.raw) <= 1e-12
    assert list(got.norms) == list(want.norms)
    assert all(abs(got.norms[k] - want.norms[k]) <= 1e-12 for k in got.norms)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lone_games())
def test_biseparable_bound_is_below_the_split_quantum_bound(case):
    """Phi_k^B(c) = u^dagger Phi_k^{X|rest} with ||u|| = sqrt(Q_X), so each
    split's biseparable raw bound is at most the norm bound of X | rest,
    stored as the side that holds player 0."""
    game, _ = case
    report = quantum_bound(game)
    for lone, split in enumerate([(0,), (0, 2), (0, 1)]):
        assert (biseparable_bound_partition(game, lone).raw
                <= report.partition(split).raw + 1e-12)


def test_chsh38_lone_search_past_the_default_cap():
    """GF(8) has exponent 2: 2^7 phase vectors a character instead of 8^7
    tables.  The default cap still refuses the 8^8 unreduced tables."""
    game = chsh_game(3, 8)
    with pytest.raises(ResourceLimitError):
        biseparable_bound_partition(game, 0)
    part = biseparable_bound_partition(game, 0, cap=10**8)
    assert part.assignment == ((0, 0, 0),) * 5 + ((0, 1, 0), (0, 1, 1),
                                                  (1, 1, 1))
    assert abs(part.raw - 0.30841826379234155) <= 1e-12
    for k, norm in part.norms.items():
        matrix = biseparable_matrix(game, 0, k, part.assignment)
        assert abs(norm - max_singular_value(matrix)) <= 1e-12


@pytest.mark.parametrize("d, matrices", [(4, 24), (5, 1250)])
def test_one_svd_per_phase_vector(d, matrices):
    """chsh(3,4), lone player 0: 3 real characters of GF(4), exponent 2,
    and 2^3 phase vectors each, against 4^3 tables; Z5 is cyclic, so
    chsh(3,5) scores its 5^4 tables for each of its 2 pairs."""
    counted = []

    def recording(stack, group):
        counted.append(stack.shape[0] * stack.shape[1])
        return character_norms(stack, group)

    with mock.patch.object(diew, "character_norms", recording):
        biseparable_bound_partition(chsh_game(3, d), 0)
    assert sum(counted) == matrices


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lone_games())
@example((ONE_LONE_QUESTION, 0))
def test_reports_do_not_depend_on_the_block_size(case):
    """The same report, bit for bit, from blocks of one table up to the
    default: every matrix is summed in one order, whatever the block."""
    game, lone = case
    reports = []
    for entries in (1, 50, 260, values._CHUNK_ENTRIES):
        with mock.patch.object(values, "_CHUNK_ENTRIES", entries):
            reports.append(biseparable_bound_partition(game, lone))
    assert reports == [reports[0]] * 4


Z2 = AbelianGroup((2,))
FOUR_Z2_QUESTIONS = make_game(
    Z2, (4, 3, 4), [Z2.element(i * 7 % 5 % 2) for i in range(48)],
    distribution=[Fraction(i % 5 + 1, 141) for i in range(48)])


@pytest.mark.parametrize("entries", [1, 50, 260, values._CHUNK_ENTRIES])
@pytest.mark.parametrize("game, lone", [
    (ONE_LONE_QUESTION, 0), (chsh_game(3, 4), 1), (FOUR_Z2_QUESTIONS, 0),
    (FOUR_Z2_QUESTIONS, 2)], ids=["one-question", "gf4", "z2-0", "z2-2"])
def test_biseparable_matrix_is_the_matrix_the_search_scores(game, lone,
                                                            entries):
    """Bit for bit, for every table and representative: biseparable_matrix
    and diew._answer_sum give the oracle's left-to-right sum, and for the
    tables answering the identity on question 0 the matrix the search
    scored at this block size."""
    group = game.group
    with mock.patch.object(values, "_CHUNK_ENTRIES", entries):
        scored = phase_block_matrices(game, lone)
    slices = diew._lone_slices(game, lone)
    for t, table in enumerate(itertools.product(
            range(group.size), repeat=game.question_counts[lone])):
        want = oracle_left_to_right_matrices(game, lone, table)
        assert np.array_equal(diew._answer_sum(slices, group, table), want)
        for r, k in enumerate(group.character_pairs.reps):
            m = biseparable_matrix(game, lone, group.element(k),
                                   [group.element(a) for a in table])
            assert np.array_equal(m, want[r])
            if table[0] == 0:
                assert np.array_equal(m, scored[r, t])
