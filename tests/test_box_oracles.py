"""The batched box kernel of boxworld against the per-box loops it
replaced (tests/oracles.py): from one seed, protocol transcripts, batched
protocol runs and the `boxes run` report, simulated PR outputs and the
generator state left behind are equal, protocol totals closed by
linearity are those of the gathered kernel, reductions are the same order
and coefficients, a table checks each reduction once and refuses a wrong
one on every call, a reduction reads its fields as Python ints, additive
rows folded by Fermat are the values the pow loop reads, and box
behaviors are the same tables."""

import contextlib
import dataclasses
import io
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lingame import boxworld, cli
from lingame.boxworld import (FunctionTable, FunctionalBox, PRBox,
                              Reduction, box_behavior, cc_protocol,
                              protocol_runs, reduce_to_pr,
                              simulate_pr_from_functional, _additive_table,
                              _protocol_totals, _vandermonde,
                              _vandermonde_inverse)
from lingame.errors import ValidationError

from oracles import (modular_inverse_matrix, oracle_additive_table,
                     oracle_block_reduce_to_pr, oracle_box_behavior_table,
                     oracle_boxes_runs, oracle_cc_protocol,
                     oracle_check_reduction, oracle_protocol_totals,
                     oracle_reduce_to_pr, oracle_simulate_pr, parse_report,
                     serialize_function)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
PRIMES = (2, 3, 5)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_closed_form_vandermonde_inverse_matches_gauss_jordan(d):
    assert np.array_equal(_vandermonde_inverse(d),
                          modular_inverse_matrix(_vandermonde(d).tolist(), d))


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_newton_tables_change_basis_and_shift_on_differences(d):
    """B @ N is the inverse Vandermonde; B's column a, evaluated on Z_d, is
    C(x, a) mod d, which N inverts; and its forward difference on Z_d,
    wrapping at d, is C(x, a-1)."""
    forward, back = boxworld._newton(d)
    assert np.array_equal(back @ forward % d, _vandermonde_inverse(d))
    values = _vandermonde(d) @ back % d
    assert values.tolist() == [[math.comb(x, a) % d for a in range(d)]
                               for x in range(d)]
    assert np.array_equal(forward @ values % d, np.eye(d, dtype=int))
    assert np.array_equal((np.roll(values, -1, axis=0) - values)[:, 1:] % d,
                          values[:, :-1])


@st.composite
def protocol_tables(draw):
    """Random tables over Z_2, Z_3 or Z_5 for 2 to 4 parties with at most
    six variables and at most 625 boxes per run."""
    d = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(2, 4))
    top = 6 if d < 5 else 4
    owners = draw(st.lists(st.integers(0, n - 1), max_size=top - n))
    arities = [1 + owners.count(i) for i in range(n)]
    values = draw(st.lists(st.integers(0, d - 1), min_size=d**sum(arities),
                           max_size=d**sum(arities)))
    return FunctionTable(d, arities, values)


@st.composite
def three_party_tables(draw):
    """Random, pure-reducible (lambda*xyz + g(x) + h(y) + s(z)) and lifted
    tables of three single-dit parties, with their variables permuted.  A
    lifted table is a periodic antiderivative in x of a pure form, taken
    twice for d = 5, so that its reduction needs derivatives."""
    d = draw(st.sampled_from(PRIMES))
    kind = draw(st.sampled_from(("random", "pure", "lifted")))
    dits = st.integers(0, d - 1)
    if kind == "random":
        values = draw(st.lists(dits, min_size=d**3, max_size=d**3))
        return FunctionTable(d, (1, 1, 1), values)
    x = np.arange(d)
    lam = draw(st.integers(1, d - 1))
    g, h, s = (np.array(draw(st.lists(dits, min_size=d, max_size=d)))
               for _ in range(3))
    # sum_x g = sum_x x g(x) = 0 mod d: the lifts below stay periodic
    a, b = -g[:-2].sum(), -(x[:-2] * g[:-2]).sum()
    g[-2:] = (-a - b) % d, (2 * a + b) % d
    table = (lam * x[:, None, None] * x[None, :, None] * x[None, None, :]
             + g[:, None, None] + h[None, :, None] + s[None, None, :]) % d
    for _ in range(0 if kind == "pure" else 2 if d == 5 else 1):
        base = np.array(draw(st.lists(dits, min_size=d * d,
                                      max_size=d * d))).reshape(1, d, d)
        table = np.concatenate([base, base + np.cumsum(table, axis=0)[:-1]])
    table = np.transpose(table, draw(st.permutations(range(3))))
    return FunctionTable(d, (1, 1, 1), (table % d).reshape(-1).tolist())


@SETTINGS
@given(protocol_tables(), st.integers(0, 2**32 - 1))
def test_protocol_transcripts_match_the_box_loop(table, seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):
        inputs = tuple(int(v) for v in rng.integers(0, table.d,
                                                    table.variables))
        ref.integers(0, table.d, table.variables)
        assert cc_protocol(table, inputs, rng) == oracle_cc_protocol(
            table, inputs, ref)
    assert rng.integers(0, 2**62) == ref.integers(0, 2**62)


@SETTINGS
@given(protocol_tables(), st.integers(0, 10), st.integers(0, 2**32 - 1))
def test_protocol_runs_match_the_shot_loop(table, shots, seed):
    """One draw for all shots gives the inputs, totals and results of the
    shot-by-shot loop and leaves the generator where it does; the `boxes
    run` report built on it has the loop's runs and verdict."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    inputs, totals = protocol_runs(table, shots, rng)
    runs, correct = oracle_boxes_runs(table, shots, ref)
    assert inputs.tolist() == [run["inputs"] for run in runs]
    assert totals.tolist() == [run["local_outputs"] for run in runs]
    assert (totals.sum(axis=1) % table.d).tolist() == [
        run["result"] for run in runs]
    assert rng.integers(0, 2**62) == ref.integers(0, 2**62)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.function"
        path.write_text(serialize_function(table))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["boxes", "run", str(path), "--json", "--shots",
                             str(shots), "--seed", str(seed)]) == 0
    doc = parse_report(out.getvalue())
    assert doc["runs"] == runs
    assert doc["all_correct"] is correct
    assert (doc["boxes_per_run"], doc["dits_per_run"]) == (
        table.d**table.variables, table.players - 1)


@SETTINGS
@given(protocol_tables(), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_protocol_totals_match_the_gathered_kernel(table, shots, seed):
    """Outer-product targets and the last total closed by linearity give,
    with ==, the totals of the gather over the exponent grid that sums
    every box's n outputs; also for 0 shots."""
    rng = np.random.default_rng(seed)
    d, n, boxes = table.d, table.players, table.d**table.variables
    for k in (0, shots):
        inputs = rng.integers(0, d, size=(k, table.variables))
        draws = rng.integers(0, d, size=(k, boxes, n - 1))
        totals = _protocol_totals(table, inputs, draws)
        expected = oracle_protocol_totals(table, inputs, draws)
        assert totals.shape == expected.shape == (k, n)
        assert totals.dtype == expected.dtype
        assert (totals == expected).all()


@SETTINGS
@given(three_party_tables(), st.integers(0, 2**32 - 1))
def test_reductions_and_simulations_match_the_loops(table, seed):
    reduction = reduce_to_pr(table)
    assert reduction == oracle_reduce_to_pr(table)
    if reduction is None:
        return
    box = FunctionalBox(table)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        inputs = tuple(int(v) for v in rng.integers(0, table.d, 3))
        ref.integers(0, table.d, 3)
        outputs = simulate_pr_from_functional(box, reduction, inputs, rng)
        assert outputs == oracle_simulate_pr(box, reduction, inputs, ref)
        assert all(type(v) is int and 0 <= v < table.d for v in outputs)
        assert sum(outputs) % table.d == np.prod(inputs) % table.d
    assert rng.integers(0, 2**62) == ref.integers(0, 2**62)
    # A reduction that does not describe the table is refused by both.
    for wrong in (dataclasses.replace(reduction, g=((reduction.g[0] + 1)
                                                    % table.d,)
                                      + reduction.g[1:]),
                  dataclasses.replace(reduction, order=tuple(
                      (o + 1) % table.d for o in reduction.order))):
        try:
            oracle_check_reduction(box, wrong)
        except ValidationError:
            with pytest.raises(ValidationError):
                simulate_pr_from_functional(box, wrong, (0, 0, 0), rng)
        else:
            simulate_pr_from_functional(box, wrong, (0, 0, 0), rng)


@st.composite
def sparse_tables(draw):
    """Tables of three single-dit parties over Z_d, d in {2, 3, 5, 7}, that
    are 0 but at up to five points."""
    d = draw(st.sampled_from((2, 3, 5, 7)))
    values = [0] * d**3
    for point in draw(st.lists(st.integers(0, d**3 - 1), max_size=5)):
        values[point] = draw(st.integers(1, d - 1))
    return FunctionTable(d, (1, 1, 1), values)


@st.composite
def mixed_lift_tables(draw):
    """lambda*xyz + g(x) + h(y) + s(z) over Z_d, d in {2, 3, 5, 7}, lifted
    k_v times along each axis v, in a drawn order, to an antiderivative
    whose base is a constant.  g, h and s have degree at most d-1-k_v, so
    each variable's degree is below d-1 before each lift along it, and
    every lift is periodic: order (k_0, k_1, k_2) reduces the table."""
    d = draw(st.sampled_from((2, 3, 5, 7)))
    lifts = [draw(st.integers(0, d - 2)) for _ in range(3)]
    x = np.arange(d)
    parts = [sum(draw(st.integers(0, d - 1)) * x**e
                 for e in range(d - k)) % d for k in lifts]
    table = (draw(st.integers(1, d - 1)) * x[:, None, None] * x[None, :, None]
             * x[None, None, :] + parts[0][:, None, None]
             + parts[1][None, :, None] + parts[2][None, None, :]) % d
    for axis in draw(st.permutations([v for v, k in enumerate(lifts)
                                      for _ in range(k)])):
        table = _lift(table, axis, draw(st.integers(0, d - 1))) % d
    return FunctionTable(d, (1, 1, 1), table.reshape(-1).tolist()), lifts


def _lift(table, axis, base):
    """``base`` plus the sum of ``table`` below each index along ``axis``:
    an antiderivative, periodic when the table sums to 0 mod d along it."""
    moved = np.moveaxis(table, axis, 0)
    moved = np.concatenate([np.zeros_like(moved[:1]),
                            np.cumsum(moved, axis=0)[:-1]])
    return np.moveaxis(moved + base, 0, axis)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(sparse_tables())
def test_sparse_reductions_match_the_order_loop(table):
    assert reduce_to_pr(table) == oracle_reduce_to_pr(table)


@SETTINGS
@given(mixed_lift_tables())
def test_mixed_lift_reductions_match_the_order_loop(case):
    """The first valid order has a total no greater than the lifts', and
    it and its coefficients are the loop's."""
    table, lifts = case
    reduction = reduce_to_pr(table)
    assert reduction is not None and sum(reduction.order) <= sum(lifts)
    assert reduction == oracle_reduce_to_pr(table)


def _lifted_along(d, axes, seed):
    """x*y*z + g(x) over Z_d lifted once along each of ``axes`` with a
    constant base; g of degree below d-1-(lifts along x), from ``seed``."""
    rng, x = np.random.default_rng(seed), np.arange(d)
    g = rng.integers(0, d, d - 1 - axes.count(0)) @ x ** np.arange(
        d - 1 - axes.count(0))[:, None]
    table = (x[:, None, None] * x[None, :, None] * x[None, None, :]
             + g[:, None, None]) % d
    for axis in axes:
        table = _lift(table, axis, int(rng.integers(0, d))) % d
    return FunctionTable(d, (1, 1, 1), table.reshape(-1).tolist())


@pytest.mark.parametrize("d", [11, 13])
def test_newton_search_matches_the_block_search(d):
    """At d = 11 and 13, where the order loop is too slow: random tables
    have no reduction, and lifted ones the block search's order, such as
    (2, 1, 0), and coefficients."""
    for seed in range(3):
        table = FunctionTable(d, (1, 1, 1), np.random.default_rng(seed)
                              .integers(0, d, d**3).tolist())
        assert reduce_to_pr(table) is None
        assert oracle_block_reduce_to_pr(table) is None
    for axes, order in (((0, 0, 1), (2, 1, 0)), ((1, 2), (0, 1, 1)),
                        ((2, 0, 2, 1), (1, 1, 2))):
        table = _lifted_along(d, axes, seed=len(axes))
        reduction = reduce_to_pr(table)
        assert reduction == oracle_block_reduce_to_pr(table)
        assert reduction.order == order


@SETTINGS
@given(three_party_tables(), st.integers(2, 4))
def test_box_behaviors_match_the_target_loop(table, n):
    for box in (FunctionalBox(table), PRBox(n, table.d)):
        assert np.array_equal(box_behavior(box).table,
                              oracle_box_behavior_table(box))


@SETTINGS
@given(st.sampled_from(PRIMES + (7, 13)),
       st.lists(st.lists(st.integers(-2**90, 2**90), max_size=30),
                min_size=3, max_size=3))
def test_folded_additive_rows_match_the_pow_loop(d, rows):
    """Rows longer than d, with huge and negative coefficients, fold by
    Fermat to the values the pow loop reads."""
    assert np.array_equal(_additive_table(rows, d),
                          oracle_additive_table(rows, d))


def test_hand_built_reductions_are_read_as_written():
    """Short, over-long and oversized coefficients spell the same form:
    the check and the simulation read them as the per-cell loop does."""
    d = 5
    x = np.arange(d)
    form = (2 * x[:, None, None] * x[None, :, None] * x[None, None, :]
            + 3 + x[:, None, None] + 4 * x[None, None, :]**2) % d
    box = FunctionalBox(FunctionTable(d, (1, 1, 1), form.reshape(-1).tolist()))
    assert reduce_to_pr(box.table) == Reduction(
        d, (0, 0, 0), 2, (3, 1, 0, 0, 0), (0,) * d, (0, 0, 4, 0, 0))
    big = d * 2**70
    for reduction in (Reduction(d, (0, 0, 0), 2, (3, 1), (), (0, 0, 4)),
                      Reduction(d, (0, 0, 0), 2 + big, (3, 1, 0, 0, 0, d),
                                (0,) * 7, (big, 0, 4 - big))):
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        for inputs in ((1, 2, 3), (4, 0, 2), (0, 0, 0)):
            assert (simulate_pr_from_functional(box, reduction, inputs, rng)
                    == oracle_simulate_pr(box, reduction, inputs, ref))
    with pytest.raises(ValidationError):
        simulate_pr_from_functional(
            box, Reduction(d, (0, 0, 0), 2, (3,), (), (0, 0, 4)), (0, 0, 0),
            np.random.default_rng(7))


def _xyz_table(d, lifts=0):
    """x*y*z over Z_d, lifted ``lifts`` times to an antiderivative in x."""
    x = np.arange(d)
    table = x[:, None, None] * x[None, :, None] * x[None, None, :] % d
    for _ in range(lifts):
        table = np.concatenate([table[:1], table[:1]
                                + np.cumsum(table, axis=0)[:-1]]) % d
    return FunctionTable(d, (1, 1, 1), table.reshape(-1).tolist())


@pytest.mark.parametrize("d, lifts", [(11, 1), (31, 0)])
def test_large_d_reduction_runs_in_bounded_memory(d, lifts):
    """Every order is tested at once from one Newton transform, in O(d^3)
    memory with a small constant: at d = 31 the d^3 orders' own
    coefficients would need gigabytes."""
    table = _xyz_table(d, lifts)
    tracemalloc.start()
    try:
        reduction = reduce_to_pr(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reduction == oracle_reduce_to_pr(table)
    assert reduction.order == (lifts, 0, 0)
    assert peak < 64 * 2**20


def test_a_random_d31_table_has_no_reduction_in_bounded_memory():
    """No order reduces a random table at d = 31; testing all d^3 of them
    stays under the same bound."""
    table = FunctionTable(31, (1, 1, 1), np.random.default_rng(0).integers(
        0, 31, 31**3).tolist())
    tracemalloc.start()
    try:
        reduction = reduce_to_pr(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reduction is None
    assert peak < 64 * 2**20


@pytest.mark.parametrize("lam", [0, 5, -10, 5 * 2**70])
def test_a_lambda_divisible_by_d_is_refused_before_any_draw(lam):
    """An additive table matches the form of a reduction whose lambda is
    0 mod d, but that lambda has no inverse: the check refuses it with
    ValidationError, and the generator has not moved."""
    d = 5
    x = np.arange(d)
    form = (3 + x[:, None, None] + 2 * x[None, :, None]
            + 4 * x[None, None, :]**2) % d
    table = FunctionTable(d, (1, 1, 1), form.reshape(-1).tolist())
    reduction = Reduction(d, (0, 0, 0), lam, (3, 1), (0, 2), (0, 0, 4))
    oracle_check_reduction(FunctionalBox(table), reduction)
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(2):
        with pytest.raises(ValidationError, match="not invertible mod 5"):
            simulate_pr_from_functional(table, reduction, (1, 2, 3), rng)
    assert rng.integers(0, 2**62) == ref.integers(0, 2**62)


def test_an_equal_reduction_of_numpy_integers_simulates_alike():
    """A lambda given as a numpy integer makes a reduction equal to the
    one with its int: checked afresh or found in the table's slot, it
    simulates as the int one does."""
    valid = reduce_to_pr(_xyz_table(5, lifts=1))
    numpy_lam = dataclasses.replace(valid, lam=np.int64(valid.lam))
    for first, second in ((numpy_lam, valid), (valid, numpy_lam)):
        box = FunctionalBox(_xyz_table(5, lifts=1))
        rng, ref = np.random.default_rng(2), np.random.default_rng(2)
        for reduction in (first, second):
            assert (simulate_pr_from_functional(box, reduction, (1, 2, 3), rng)
                    == oracle_simulate_pr(box, valid, (1, 2, 3), ref))


def test_a_wrong_reduction_is_refused_on_every_call():
    """A failed check is never kept: a wrong reduction is refused before
    and right after a valid one was checked for the same table, and the
    refused calls leave the stream to the valid ones."""
    table = _xyz_table(5, lifts=1)
    valid = reduce_to_pr(table)
    wrong = dataclasses.replace(valid, g=(1,) + valid.g[1:])
    box = FunctionalBox(table)
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(3):
        with pytest.raises(ValidationError):
            simulate_pr_from_functional(box, wrong, (1, 2, 3), rng)
        for inputs in ((1, 2, 3), (4, 0, 2)):
            assert (simulate_pr_from_functional(box, valid, inputs, rng)
                    == oracle_simulate_pr(box, valid, inputs, ref))
        with pytest.raises(ValidationError):
            simulate_pr_from_functional(box, wrong, (1, 2, 3), rng)
    assert rng.integers(0, 2**62) == ref.integers(0, 2**62)


def _lifted_form_table(d=5):
    """2xyz + 3 + x + 4z^2 over Z_5, the form of the hand-built reductions."""
    x = np.arange(d)
    form = (2 * x[:, None, None] * x[None, :, None] * x[None, None, :]
            + 3 + x[:, None, None] + 4 * x[None, None, :]**2) % d
    return FunctionTable(d, (1, 1, 1), form.reshape(-1).tolist())


def _counted_checks(monkeypatch):
    """The (table, reduction) pairs ``_check_reduction`` is asked to
    check, in order."""
    checked = []
    check = boxworld._check_reduction

    def counted(table, reduction):
        checked.append((table, reduction))
        return check(table, reduction)

    monkeypatch.setattr(boxworld, "_check_reduction", counted)
    return checked


def test_a_reduction_built_from_lists_is_the_tuple_one(monkeypatch):
    """List fields are read into tuples when the reduction is built: it
    equals the tuple-built reduction and hits its slot, and a later
    change to the caller's lists changes nothing."""
    checked = _counted_checks(monkeypatch)
    box = FunctionalBox(_lifted_form_table())
    d, order, g, h, s = 5, [0, 0, 0], [3, 1], [], [0, 0, 4]
    tupled = Reduction(d, (0, 0, 0), 2, (3, 1), (), (0, 0, 4))
    listed = Reduction(d, order, 2, g, h, s)
    assert listed == tupled and hash(listed) == hash(tupled)
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    for reduction in (tupled, listed):
        for inputs in ((1, 2, 3), (4, 0, 2)):
            assert (simulate_pr_from_functional(box, reduction, inputs, rng)
                    == oracle_simulate_pr(box, tupled, inputs, ref))
            order[0], g[0] = 1, 4
    assert listed == tupled and listed.g == (3, 1)
    assert checked == [(box.table, tupled)]
    assert rng.integers(0, 2**62) == ref.integers(0, 2**62)


@pytest.mark.parametrize("first, then", [(int, np.int64), (np.int32, int)],
                         ids=["int-int64", "int32-int"])
def test_an_equal_reduction_of_other_integer_types_shares_the_slot(
        monkeypatch, first, then):
    """Reductions whose coefficients are Python or numpy integers of equal
    value are one reduction: the table checks the first only, and each
    call returns what a fresh table returns, Python ints in Z_d."""
    checked = _counted_checks(monkeypatch)
    box = FunctionalBox(_lifted_form_table())
    for kind in (first, then):
        reduction = Reduction(5, (0, 0, 0), kind(2), (kind(3), kind(1)), (),
                              (kind(0), kind(0), kind(4)))
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        got = simulate_pr_from_functional(box, reduction, (1, 2, 3), rng)
        fresh = simulate_pr_from_functional(
            _lifted_form_table(), reduction, (1, 2, 3), ref)
        assert got == fresh
        assert all(type(v) is int and 0 <= v < 5 for v in got)
    assert [r for t, r in checked if t is box.table] == [checked[0][1]]


def test_reduction_fields_are_read_as_python_ints():
    """Numpy integers, arrays and ints beyond int64 are read as written,
    each field a Python int or a tuple of them."""
    big = 5 * 2**70
    reduction = Reduction(np.int64(5), np.array([1, 0, 0]), 2 + big,
                          np.arange(3), [], (np.uint8(4), np.int32(-3)))
    assert reduction == Reduction(5, (1, 0, 0), 2 + big, (0, 1, 2), (),
                                  (4, -3))
    for value in (reduction.d, reduction.lam,
                  *reduction.order, *reduction.g, *reduction.s):
        assert type(value) is int
    assert all(type(v) is tuple for v in (reduction.order, reduction.g,
                                          reduction.h, reduction.s))


BAD_FIELDS = [
    ("d", 5.0), ("d", True), ("lam", 2.0), ("lam", True),
    ("order", (1.0, 0, 0)), ("order", (True, 0, 0)), ("order", (-1, 0, 0)),
    ("order", (0, 0)), ("order", (0, 0, 0, 0)), ("order", 0),
    ("order", (5, 0, 0)), ("order", (10**6, 0, 0)),
    ("g", (3.0, 1.0)), ("g", (3.5, 1)), ("h", (-0.5,)), ("h", 3),
    ("s", (0, False, 4)), ("s", ("0",))]


@pytest.mark.parametrize("field, value", BAD_FIELDS,
                         ids=[f"{f}={v!r}".replace(" ", "") for f, v in BAD_FIELDS])
def test_non_integer_reduction_fields_are_refused(field, value):
    """Floats (integral ones too), bools, strings, orders outside range(d)
    and orders of the wrong length raise ValidationError naming the field:
    every d-th difference on Z_d is 0, so an order of d or more could
    never match.  (4, 0, 0) is still a reduction at d = 5.
    g = (3.5, 1) and h = (-0.5,) sum to the g of 2xyz + 3 + x + 4z^2 on
    Z_5, but they are not integers."""
    fields = dict(d=5, order=(0, 0, 0), lam=2, g=(3, 1), h=(), s=(0, 0, 4))
    with pytest.raises(ValidationError, match=f"reduction {field}"):
        Reduction(**{**fields, field: value})
    assert Reduction(**{**fields, "order": (4, 0, 0)}).order == (4, 0, 0)


def test_each_reduction_is_checked_once_per_table(monkeypatch):
    """Over many interleaved calls on two tables, with equal but distinct
    copies of each reduction, every (table, reduction) pair is checked
    once, and the outputs and stream are the loop's."""
    checked = []
    check = boxworld._check_reduction

    def counted(table, reduction):
        checked.append((id(table), reduction))
        return check(table, reduction)

    monkeypatch.setattr(boxworld, "_check_reduction", counted)
    tables = (_xyz_table(3), _xyz_table(5, lifts=1))
    reductions = [reduce_to_pr(t) for t in tables]
    rng, ref = np.random.default_rng(13), np.random.default_rng(13)
    for _ in range(20):
        for table, reduction in zip(tables, reductions):
            inputs = tuple(int(v) for v in rng.integers(0, table.d, 3))
            ref.integers(0, table.d, 3)
            copy = dataclasses.replace(reduction)
            assert (simulate_pr_from_functional(table, copy, inputs, rng)
                    == oracle_simulate_pr(FunctionalBox(table), reduction,
                                          inputs, ref))
    assert rng.integers(0, 2**62) == ref.integers(0, 2**62)
    assert checked == [(id(t), r) for t, r in zip(tables, reductions)]
