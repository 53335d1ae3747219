"""Nonlocal boxes, polynomial interpolation, the communication protocol,
and PR-box simulation from functional boxes."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from scipy import stats

from lingame.algebra import AbelianGroup
from lingame.boxworld import (FunctionTable, FunctionalBox, PRBox,
                              box_behavior, box_sample, cc_protocol,
                              interpolate_polynomial, parse_function_file,
                              partial_derivative, reduce_to_pr,
                              simulate_pr_from_functional)
from lingame.errors import GameFormatError, ValidationError
from lingame.games import make_game, success_probability
from lingame.values import no_signaling_value

from oracles import evaluate_polynomial, polynomial_table, serialize_function

Z3 = AbelianGroup((3,))


class ScriptedGenerator:
    """Deterministic stand-in for a random generator: hands out a
    prescribed sequence of values, so box randomness can be enumerated.
    A draw of shape ``size`` takes prod(size) values in row-major order."""

    def __init__(self, sequence):
        self.sequence = list(sequence)
        self.position = 0

    def integers(self, low, high=None, size=None):
        low, high = (0, low) if high is None else (low, high)
        count = 1 if size is None else math.prod(np.atleast_1d(size))
        chunk = self.sequence[self.position:self.position + count]
        assert len(chunk) == count, "scripted sequence exhausted"
        assert all(low <= v < high for v in chunk)
        self.position += count
        return chunk[0] if size is None else np.array(chunk).reshape(size)


def _table(expr, d=3, variables=3):
    values = [expr(*x) % d
              for x in itertools.product(range(d), repeat=variables)]
    return FunctionTable(d, (1,) * variables, values)


XYZ = _table(lambda x, y, z: x * y * z)


# ---------------------------------------------------------------------------
# Function tables and files


def test_function_table_validation():
    with pytest.raises(ValidationError):
        FunctionTable(4, (1, 1), [0] * 16)  # composite d
    with pytest.raises(ValidationError):
        FunctionTable(3, (1, 1), [0] * 8)  # wrong length
    with pytest.raises(ValidationError):
        FunctionTable(3, (1, 1), [0] * 8 + [7])  # entry outside Z_3
    with pytest.raises(ValidationError):
        FunctionTable(3, (), [0])  # no parties


@pytest.mark.parametrize("values", [
    [1.7, 0.2], [1.0, 0], [True, 0], [0, np.True_], [None, 0], ["1", 0],
    [[1], 0], [0, np.float64(1)]])
def test_function_table_rejects_non_integer_entries(values):
    # Entries used to be truncated by int(): [1.7, 0.2] stored (1, 0).
    with pytest.raises(ValidationError, match="table entries must be integers"):
        FunctionTable(2, (1,), values)


def test_function_table_accepts_numpy_integers():
    table = FunctionTable(2, (1,), np.array([1, 0], dtype=np.int8))
    assert table.values == (1, 0) and type(table.values[0]) is int


def test_table_array_is_built_once_and_read_only():
    table = _table(lambda x, y, z: x + y * z)
    arr = table.as_array()
    assert arr is table.as_array() and not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0, 0, 0] = 1
    assert arr.shape == (3, 3, 3) and arr[1, 2, 2] == (1 + 4) % 3


def test_function_file_round_trip():
    text = serialize_function(XYZ)
    assert parse_function_file(text) == XYZ
    doc = json.loads(text)
    assert doc["d"] == 3 and doc["arities"] == [1, 1, 1]


@pytest.mark.parametrize("text, message", [
    ("", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[1, 2]", "document: expected an object"),
    ('{"d": 3, "arities": [1]}', "document: missing key(s) ['table']"),
    ('{"d": 3, "arities": [1], "table": [0, 1, 2], "x": 0}',
     "document: unknown key(s) ['x']"),
    ('{"d": 3, "arities": [], "table": [0, 1, 2]}',
     "arities: expected a non-empty array"),
    ('{"d": 3, "arities": [1], "table": [0, 1, true]}',
     "table[2]: expected an integer, got True"),
], ids=["json", "object", "missing", "unknown", "arities", "table"])
def test_function_file_error_messages(text, message):
    with pytest.raises(GameFormatError) as err:
        parse_function_file(text)
    assert str(err.value) == message


def test_function_file_rejects_bad_documents():
    with pytest.raises(GameFormatError):
        parse_function_file("[]")
    with pytest.raises(GameFormatError):
        parse_function_file('{"d": 3, "arities": [1]}')
    with pytest.raises(GameFormatError):
        parse_function_file(
            '{"d": 3, "arities": [1], "table": [0, 1, "x"]}')
    with pytest.raises(GameFormatError):
        parse_function_file('{"d": 6, "arities": [1], "table": [0,0,0,0,0,0]}')


# ---------------------------------------------------------------------------
# Box sampling


def test_pr22_constraint_always_holds():
    box = PRBox(2, 2)
    rng = np.random.default_rng(191)
    for _ in range(100):
        a, b = box_sample(box, (1, 1), rng)
        assert (a + b) % 2 == 1


def test_pr33_constraint_with_zero_product():
    box = PRBox(3, 3)
    rng = np.random.default_rng(193)
    for _ in range(100):
        outputs = box_sample(box, (1, 2, 0), rng)
        assert sum(outputs) % 3 == 0


def test_box_sample_exhaustive_over_randomness():
    # every lot gives the constraint; lots enumerate all valid tuples once
    for n, d in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        box = PRBox(n, d)
        for inputs in itertools.product(range(d), repeat=n):
            seen = set()
            for lot in itertools.product(range(d), repeat=n - 1):
                outputs = box_sample(box, inputs, ScriptedGenerator(lot))
                assert sum(outputs) % d == box.target(inputs)
                seen.add(outputs)
            assert len(seen) == d**(n - 1)


def test_box_sample_rejects_bad_inputs():
    box = PRBox(2, 3)
    rng = np.random.default_rng(197)
    with pytest.raises(ValidationError):
        box_sample(box, (0, 5), rng)
    with pytest.raises(ValidationError):
        box_sample(box, (0,), rng)


@pytest.mark.parametrize("inputs", [
    (1.9, 1, 1), (True, 1, 1), (1, np.float64(1), 0), (1, None, 1),
    ("1", 1, 1), ((1.7,), 1, 1), (1, (np.True_,), 1), 5, None])
def test_box_inputs_are_integers_or_rejected(inputs):
    # (1.9, 1, 1) used to be read as (1, 1, 1), and cc_protocol raised a
    # bare TypeError on (1.7, 1, 1); the boxes and cc_protocol raised one
    # on an input that is not a sequence, such as 5 or None.
    rng = np.random.default_rng(0)
    coeffs = interpolate_polynomial(XYZ)
    for call in (XYZ.value, FunctionalBox(XYZ).target, PRBox(3, 3).target,
                 lambda v: evaluate_polynomial(coeffs, v),
                 lambda v: cc_protocol(XYZ, v, rng)):
        with pytest.raises(ValidationError, match="must be integers"):
            call(inputs)


def test_box_inputs_take_numpy_integers_and_per_party_tuples():
    one = np.int8(1)
    assert XYZ.value((one, 1, 1)) == 1
    assert evaluate_polynomial(interpolate_polynomial(XYZ), (1, one, 2)) == 2
    rng = np.random.default_rng(0)
    assert cc_protocol(XYZ, (one, (1,), np.int64(2)), rng).result == 2


def test_box_sample_marginals_uniform():
    box = PRBox(3, 3)
    rng = np.random.default_rng(199)
    counts = np.zeros((3, 3))
    for _ in range(10_000):
        outputs = box_sample(box, (1, 1, 1), rng)
        for i, a in enumerate(outputs):
            counts[i, a] += 1
    for i in range(3):
        assert stats.chisquare(counts[i]).pvalue > 0.001


def test_box_behavior_matches_no_signaling_construction():
    box = FunctionalBox(XYZ)
    behavior = box_behavior(box)
    game = make_game(Z3, (3, 3, 3), list(XYZ.values))
    assert success_probability(game, behavior) == pytest.approx(1.0)
    _, reference = no_signaling_value(game)
    assert np.abs(behavior.table - reference.table).max() < 1e-15


def test_box_behavior_non_signaling_exact():
    box = PRBox(3, 3)
    probs = box_behavior(box).table.reshape((3,) * 6)
    for party in range(3):
        other_answers = tuple(3 + i for i in range(3) if i != party)
        marginal = probs.sum(axis=other_answers)
        # own input first, own answer last, foreign inputs in the middle
        marginal = np.moveaxis(marginal, party, 0).reshape(3, 9, 3)
        for x in range(3):
            slices = marginal[x]
            assert np.abs(slices - slices[0]).max() < 1e-15


# ---------------------------------------------------------------------------
# Interpolation


def test_interpolate_square():
    coeffs = interpolate_polynomial(_table(lambda x: x * x, variables=1))
    assert coeffs.monomials() == [((2,), 1)]


def test_interpolate_delta():
    # indicator of x = 0 over Z_3 equals 1 - x^2
    coeffs = interpolate_polynomial(FunctionTable(3, (1,), [1, 0, 0]))
    assert coeffs.monomials() == [((0,), 1), ((2,), 2)]


def test_interpolation_round_trip_exhaustive():
    rng = np.random.default_rng(211)
    for variables in (1, 2, 3):
        for _ in range(10):
            table = FunctionTable(
                3, (1,) * variables,
                [int(v) for v in rng.integers(0, 3, size=3**variables)])
            coeffs = interpolate_polynomial(table)
            assert polynomial_table(coeffs) == table
            for point in itertools.product(range(3), repeat=variables):
                assert evaluate_polynomial(coeffs, point) == table.value(point)


def test_interpolation_round_trip_d5():
    rng = np.random.default_rng(223)
    table = FunctionTable(5, (1, 1),
                          [int(v) for v in rng.integers(0, 5, size=25)])
    assert polynomial_table(interpolate_polynomial(table)) == table


# ---------------------------------------------------------------------------
# Derivatives


def test_derivative_of_xyz():
    coeffs = interpolate_polynomial(partial_derivative(XYZ, 0))
    assert coeffs.monomials() == [((0, 1, 1), 1)]


def test_derivative_of_square():
    der = partial_derivative(_table(lambda x: x * x, variables=1), 0)
    assert interpolate_polynomial(der).monomials() == [((0,), 1), ((1,), 2)]


def test_derivative_drops_degree():
    rng = np.random.default_rng(227)
    for _ in range(10):
        table = FunctionTable(3, (1, 1),
                              [int(v) for v in rng.integers(0, 3, size=9)])
        before = interpolate_polynomial(table)
        for var in range(2):
            after = interpolate_polynomial(partial_derivative(table, var))
            assert after.degree(var) <= max(before.degree(var) - 1, -1)


def test_two_derivatives_flatten_degree_two():
    # over Z_3 every monomial has degree <= 2 per variable
    for exponent in range(3):
        table = _table(lambda x, e=exponent: x**e, variables=1)
        der = partial_derivative(partial_derivative(table, 0), 0)
        assert interpolate_polynomial(der).degree(0) <= 0


def test_derivative_variable_index_checked():
    with pytest.raises(ValidationError):
        partial_derivative(XYZ, 3)


# ---------------------------------------------------------------------------
# Communication protocol


def test_protocol_computes_xyz_everywhere():
    rng = np.random.default_rng(229)
    for inputs in itertools.product(range(3), repeat=3):
        transcript = cc_protocol(XYZ, inputs, rng)
        assert transcript.result == XYZ.value(inputs)
        assert transcript.dits_communicated == 2
        assert transcript.boxes_used == 27
        assert sum(transcript.local_outputs) % 3 == transcript.result


def test_protocol_constant_function():
    rng = np.random.default_rng(233)
    table = FunctionTable(3, (1, 1, 1), [2] * 27)
    for inputs in itertools.product(range(3), repeat=3):
        transcript = cc_protocol(table, inputs, rng)
        assert transcript.result == 2
        assert transcript.dits_communicated == 2


def test_protocol_twenty_random_functions():
    rng = np.random.default_rng(239)
    for _ in range(20):
        table = FunctionTable(3, (1, 1, 1),
                              [int(v) for v in rng.integers(0, 3, size=27)])
        for inputs in itertools.product(range(3), repeat=3):
            transcript = cc_protocol(table, inputs, rng)
            assert transcript.result == table.value(inputs)


def test_protocol_multi_dit_parties():
    # two parties with two dits each: F(x1,x2,y1,y2) = x1*y1 + x2*y2
    rng = np.random.default_rng(241)
    values = [(x1 * y1 + x2 * y2) % 2
              for x1, x2, y1, y2 in itertools.product(range(2), repeat=4)]
    table = FunctionTable(2, (2, 2), values)
    for flat in itertools.product(range(2), repeat=4):
        transcript = cc_protocol(table, ((flat[0], flat[1]),
                                         (flat[2], flat[3])), rng)
        assert transcript.result == table.value(flat)
        assert transcript.dits_communicated == 1
        assert transcript.boxes_used == 16


def test_protocol_needs_two_parties():
    # A lone party has no box to share.
    with pytest.raises(ValidationError, match="at least 2 parties"):
        cc_protocol(FunctionTable(3, (2,), [0] * 9), (1, 2),
                    np.random.default_rng(0))


def test_transcript_serializable():
    rng = np.random.default_rng(251)
    doc = cc_protocol(XYZ, (1, 2, 1), rng).as_dict()
    text = json.dumps(doc)
    assert json.loads(text)["dits_communicated"] == 2


# ---------------------------------------------------------------------------
# Reduction to PR boxes


def test_xyz_reduces_trivially():
    reduction = reduce_to_pr(XYZ)
    assert reduction.order == (0, 0, 0)
    assert reduction.sequence == ()
    assert reduction.lam == 1
    assert reduction.g == reduction.h == reduction.s == (0, 0, 0)


def test_additive_function_not_reducible():
    assert reduce_to_pr(_table(lambda x, y, z: x + y + z)) is None


def test_x2yz_not_reducible():
    # every derivative order leaves a mixed non-xyz monomial or loses the
    # xyz term entirely, so the search reports no reduction
    assert reduce_to_pr(_table(lambda x, y, z: x * x * y * z)) is None


def test_affine_xyz_variant_reduces_in_place():
    table = _table(lambda x, y, z: 2 * x * y * z + x * x + 2 * y)
    reduction = reduce_to_pr(table)
    assert reduction.order == (0, 0, 0)
    assert reduction.lam == 2
    assert reduction.g == (0, 0, 1)
    assert reduction.h == (0, 2, 0)
    assert reduction.s == (0, 0, 0)


def test_antiderivative_reduces_after_one_step():
    # d/dx (2x^2yz + xyz) = xyz exactly, so the search needs one derivative
    table = _table(lambda x, y, z: 2 * x * x * y * z + x * y * z)
    reduction = reduce_to_pr(table)
    assert reduction.order == (1, 0, 0)
    assert reduction.sequence == (0,)
    assert reduction.lam == 1
    assert reduction.g == reduction.h == reduction.s == (0, 0, 0)


def test_search_prefers_the_lower_total_order():
    # Both (0, 2, 1) and (2, 0, 0) reduce C(x,3)yz + x C(y,3) C(z,2) over
    # Z_5 to xyz; the search ranks by total order before lexicographic.
    table = FunctionTable(5, (1, 1, 1), [
        (math.comb(x, 3) * y * z + x * math.comb(y, 3) * math.comb(z, 2)) % 5
        for x, y, z in itertools.product(range(5), repeat=3)])
    reduction = reduce_to_pr(table)
    assert reduction.order == (2, 0, 0)
    assert reduction.lam == 1
    simulate_pr_from_functional(  # (0, 2, 1) describes the table as well
        table, dataclasses.replace(reduction, order=(0, 2, 1)), (1, 1, 1),
        np.random.default_rng(0))


def test_reduce_requires_three_single_dit_parties():
    with pytest.raises(ValidationError):
        reduce_to_pr(FunctionTable(3, (1, 1), [0] * 9))
    with pytest.raises(ValidationError):
        reduce_to_pr(FunctionTable(2, (2, 1, 1), [0] * 16))


# ---------------------------------------------------------------------------
# PR simulation from functional boxes


def test_simulation_exhaustive_zero_order():
    table = _table(lambda x, y, z: 2 * x * y * z + x * x + 2 * y)
    reduction = reduce_to_pr(table)
    box = FunctionalBox(table)
    for inputs in itertools.product(range(3), repeat=3):
        target = (inputs[0] * inputs[1] * inputs[2]) % 3
        for lot in itertools.product(range(3), repeat=2):
            for k in range(3):
                gen = ScriptedGenerator(list(lot) + [k])
                a, b, c = simulate_pr_from_functional(box, reduction,
                                                      inputs, gen)
                assert (a + b + c) % 3 == target


def test_simulation_exhaustive_one_derivative():
    table = _table(lambda x, y, z: 2 * x * x * y * z + x * y * z)
    reduction = reduce_to_pr(table)
    box = FunctionalBox(table)
    for inputs in itertools.product(range(3), repeat=3):
        target = (inputs[0] * inputs[1] * inputs[2]) % 3
        # two box uses consume two lots; sample the k dit too
        for lot in itertools.product(range(3), repeat=4):
            gen = ScriptedGenerator(list(lot) + [1])
            a, b, c = simulate_pr_from_functional(box, reduction, inputs, gen)
            assert (a + b + c) % 3 == target


def test_simulation_rejects_inconsistent_reduction():
    other = reduce_to_pr(_table(lambda x, y, z: 2 * x * y * z + x * x + 2 * y))
    with pytest.raises(ValidationError):
        simulate_pr_from_functional(FunctionalBox(XYZ), other, (0, 0, 0),
                                    np.random.default_rng(0))


def test_simulation_joint_distribution_matches_pr():
    # (a, b) uniform over Z_3^2 and c pinned by the constraint
    rng = np.random.default_rng(257)
    box = FunctionalBox(XYZ)
    reduction = reduce_to_pr(XYZ)
    counts = np.zeros((3, 3))
    for _ in range(10_000):
        a, b, c = simulate_pr_from_functional(box, reduction, (1, 2, 1), rng)
        assert (a + b + c) % 3 == 2
        counts[a, b] += 1
    assert stats.chisquare(counts.reshape(-1)).pvalue > 0.001


def test_simulation_marginals_uniform():
    rng = np.random.default_rng(263)
    table = _table(lambda x, y, z: 2 * x * x * y * z + x * y * z)
    box = FunctionalBox(table)
    reduction = reduce_to_pr(table)
    counts = np.zeros((3, 3))
    for _ in range(10_000):
        outputs = simulate_pr_from_functional(box, reduction, (2, 1, 2), rng)
        for i, a in enumerate(outputs):
            counts[i, a] += 1
    for i in range(3):
        assert stats.chisquare(counts[i]).pvalue > 0.001
