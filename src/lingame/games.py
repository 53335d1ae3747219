"""Linear games: each of n players answers with an element of a finite
Abelian group G, and the team wins on question tuple x when the answers
sum to f(x).

A game is the data (question counts, group, distribution p over question
tuples, predicate f).  Promise games keep the full question grid and put
probability zero on excluded rows, so matrix code never special-cases
them.  A game is two arrays over the grid, the element index of f(x) and
the integer weight p(x) * den, so probabilities stay exact.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from .algebra import AbelianGroup, FiniteField, as_int, as_int_tuple
from .errors import GameFormatError, ValidationError
from .tolerances import BEHAVIOR_ROW_TOL


def _as_fraction(value):
    """Exact rational from a rational number (Fraction, int or numpy
    integer, not bool), a "p/q" string or a float.  A float is read as its
    shortest round-tripping decimal, so 0.1 is exactly 1/10, not the
    binary double nearest to it."""
    if isinstance(value, numbers.Rational) and not isinstance(value, bool):
        return (value if isinstance(value, Fraction)
                else Fraction(int(value.numerator), int(value.denominator)))
    if isinstance(value, float):
        value = repr(float(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            raise ValidationError(f"bad rational probability: {value!r} ({e})") from None
    raise ValidationError(f"bad probability: {value!r}")


class LinearGame:
    """An n-player linear game over a finite Abelian group, built from
    ``f_index`` (the element index of f(x)) and integer ``weights``
    (p(x) * den), one entry per question tuple in lexicographic grid order.

    A game holds only ``weights`` (int64 below 2^53, where every sum is
    exact, else Python ints), ``den`` and the predicate indices, read-only.
    Every other array is a read-only view built on first read: ``grid``
    (the question tuples), ``residues`` (f(x) as residue tuples), the float
    probabilities, the exact tuples ``distribution`` and ``predicate``,
    ``histogram[x_1, ..., x_n, r]`` (the weight of x where f(x) has index
    r), ``win_weights`` and ``player_classes``.
    """

    def __init__(self, group, question_counts, f_index, weights, den,
                 field=None):
        if not isinstance(group, AbelianGroup):
            raise ValidationError("group must be an AbelianGroup")
        question_counts = _question_counts(question_counts)
        self.group = group
        self.question_counts = question_counts
        self.field = field
        n_inputs = math.prod(question_counts)

        weights, den = _int_array(weights, "weights"), as_int(den, "denominator")
        f_index = _int_array(f_index, "predicate indices")
        if weights.shape != (n_inputs,):
            raise ValidationError(
                f"distribution covers {weights.size} inputs, grid has {n_inputs}")
        for i in np.flatnonzero(weights < 0)[:1]:
            raise ValidationError(
                f"negative probability {Fraction(int(weights[i]), den)} at "
                f"input {_question_tuple(i, question_counts)}")
        total = Fraction(int(weights.sum()), den)
        if total != 1:
            raise ValidationError(
                f"distribution sums to {total} ({float(total)!r}), not exactly "
                f"1; give probabilities as Fractions or \"p/q\" strings")
        if f_index.shape != (n_inputs,):
            raise ValidationError(
                f"predicate defined on {f_index.size} inputs, grid has "
                f"{n_inputs} (the predicate must be total)")
        for i in np.flatnonzero((f_index < 0) | (f_index >= group.size))[:1]:
            raise ValidationError(
                f"predicate index {f_index[i]} at input "
                f"{_question_tuple(i, question_counts)} is not in "
                f"range({group.size})")

        common = int(np.gcd.reduce(weights))  # den: the lcm of p's denominators
        self.den = den // common
        self.weights = _frozen((weights // common).astype(
            np.int64 if self.den < 2**53 else object, copy=False))
        # a read-only index array (a shared builtin predicate) is held as is
        self._f_index = _frozen(f_index.astype(np.intp, copy=f_index.flags.writeable))

    @cached_property
    def grid(self):
        return _frozen(np.indices(self.question_counts).reshape(self.players, -1).T)

    @cached_property
    def residues(self):
        return _frozen(np.array(self.group.elements(), dtype=np.intp)[self._f_index])

    @cached_property
    def _probabilities(self):
        # float(p) for every p: below 2^53 both operands are exact doubles
        # and the division rounds once; above, int / int rounds once.
        return _frozen((self.weights / self.den).astype(float, copy=False))

    @cached_property
    def distribution(self):
        return tuple(Fraction(w, self.den) for w in self.weights.tolist())

    @cached_property
    def predicate(self):
        return tuple(map(tuple, self.residues.tolist()))

    @cached_property
    def histogram(self):
        hist = (self._f_index[:, None] == np.arange(self.group.size)) * self.weights[:, None]
        return _frozen(hist.reshape(self.question_counts + (self.group.size,)))

    @cached_property
    def win_weights(self):
        """W[x, a] = p(x) where sum_i a_i = f(x), else 0, laid out as a
        behavior table, so a success is one dot product.  Read-only."""
        wins = answer_sums(self.group, self.players) == self._f_index[:, None]
        return _frozen(np.where(wins, self._probabilities[:, None], 0.0))

    @cached_property
    def player_classes(self):
        """classes[i], the first player interchangeable with player i:
        swapping their question axes leaves ``weights`` and
        ``predicate_indices`` unchanged.  If (a b) and (a c) are such
        swaps, so is (b c), so each player is compared only with the first
        member of each class, and only when their question counts agree;
        every permutation within a class leaves the game unchanged."""
        shape = self.question_counts
        a = np.stack([self._f_index, self.weights]).reshape((2,) + shape)
        classes = []
        for i, q in enumerate(shape):
            classes.append(next(
                (c for c in dict.fromkeys(classes) if shape[c] == q
                 and (a == a.swapaxes(c + 1, i + 1)).all()), i))
        return tuple(classes)

    @property
    def players(self):
        return len(self.question_counts)

    @property
    def n_inputs(self):
        return len(self._f_index)

    @property
    def is_uniform(self):
        """True when every question tuple has probability 1/n_inputs."""
        return bool((self.weights == self.weights[0]).all())

    def inputs(self):
        """All question tuples in lexicographic order."""
        return [tuple(x) for x in self.grid.tolist()]

    def input_index(self, x):
        return _position(x, self.question_counts, "question tuple")

    def probability(self, x):
        return Fraction(int(self.weights[self.input_index(x)]), self.den)

    def predicate_value(self, x):
        return tuple(self.residues[self.input_index(x)].tolist())

    def probabilities_float(self):
        return self._probabilities

    def predicate_indices(self):
        """Group-element index of f(x) for every input, in grid order."""
        return self._f_index

    def support(self):
        return [tuple(x) for x in self.grid[self.weights > 0].tolist()]

    def __eq__(self, other):
        return (isinstance(other, LinearGame)
                and self.group == other.group
                and self.question_counts == other.question_counts
                and self.den == other.den
                and np.array_equal(self.weights, other.weights)
                and np.array_equal(self._f_index, other._f_index))

    def __hash__(self):
        # The bytes of an object array are pointers: hash its ints instead.
        weights = (self.weights.tobytes() if self.weights.dtype == np.int64
                   else tuple(self.weights.tolist()))
        return hash((self.group, self.question_counts, self.den, weights,
                     self._f_index.tobytes()))

    def __repr__(self):
        return (f"LinearGame(players={self.players}, "
                f"questions={list(self.question_counts)}, group={self.group!r})")


def _frozen(arr):
    """``arr``, made read-only."""
    arr.setflags(write=False)
    return arr


def _question_tuple(position, questions):
    """The question tuple at a grid position, as Python ints."""
    return tuple(int(q) for q in np.unravel_index(position, questions))


def _question_counts(questions):
    """The question counts as a tuple of ints, at least two, each >= 1."""
    counts = as_int_tuple(questions, "question counts")
    if len(counts) < 2:
        raise ValidationError("a game needs at least two players")
    if any(q < 1 for q in counts):
        raise ValidationError("every player needs at least one question")
    return counts


def _position(x, questions, what):
    """Grid position of the question tuple x."""
    position = as_int_tuple(x, what)
    try:
        return int(np.ravel_multi_index(position, questions))
    except ValueError:
        raise ValidationError(f"{what} {x!r} is off the grid") from None


def _side(players, s, what):
    """The side ``s`` of a split of ``players`` players as a sorted tuple
    of Python ints: a nonempty proper subset of range(players)."""
    side = tuple(sorted(set(as_int_tuple(s, what))))
    if not side or side[0] < 0 or side[-1] >= players or len(side) == players:
        raise ValidationError(f"{what} {s!r} is not a nonempty proper subset "
                              f"of the players 0..{players - 1}")
    return side


def _int_array(values, what):
    """``values`` as an integer array, read by ``as_int_tuple`` unless numpy's."""
    a = np.asarray(values)
    return a if a.dtype.kind in "iu" else np.array(
        as_int_tuple(a.ravel().tolist(), what), dtype=object).reshape(a.shape)


def _weights(distribution, questions):
    """(weights, den) of a ``make_game`` distribution."""
    n_inputs = math.prod(questions)
    if isinstance(distribution, str):
        if distribution != "uniform":
            raise ValidationError(f"unknown distribution {distribution!r}")
        return np.ones(n_inputs, dtype=np.int64), n_inputs
    if isinstance(distribution, dict) and set(distribution) == {"support"}:
        support = [tuple(x) for x in distribution["support"]]
        if not support:
            raise ValidationError("distribution support is empty")
        positions = set()
        for x in support:
            i = _position(x, questions, "support input")
            if i in positions:
                raise ValidationError(f"support input {x!r} listed twice")
            positions.add(i)
        return _support_weights(positions, n_inputs)
    if isinstance(distribution, dict):
        table = {_position(tuple(x), questions, "distribution input"): _as_fraction(p)
                 for x, p in distribution.items()}
    else:
        table = dict(enumerate(map(_as_fraction, distribution)))
        n_inputs = len(table)
    return _table_weights(table, n_inputs)


def _support_weights(positions, n_inputs):
    """(weights, den) of the uniform distribution on a set of grid
    positions."""
    return _table_weights(dict.fromkeys(positions, Fraction(1, len(positions))),
                          n_inputs)


def _table_weights(table, n_inputs):
    """(weights, den) of a {grid position: Fraction} table, zero off it:
    int64 when the weights' absolute sum fits, so every sum is exact, else
    Python ints."""
    den = math.lcm(*(p.denominator for p in table.values()))
    values = [p.numerator * (den // p.denominator) for p in table.values()]
    fits = sum(map(abs, values)) < 2**63
    weights = np.zeros(n_inputs, dtype=np.int64 if fits else object)
    weights[list(table)] = values
    return weights, den


def make_game(group, questions, predicate, distribution="uniform", field=None):
    """Build a validated LinearGame from flexible pieces, checking each
    predicate value question by question: predicate may be a callable on
    question tuples, a dict keyed by them, or a full-grid list in
    lexicographic order; distribution may be "uniform", a dict
    {"support": [...]} for uniform-over-support, a dict keyed by question
    tuples (missing entries are zero), or a full-grid list."""
    questions = _question_counts(questions)
    grid = itertools.product(*map(range, questions))
    if callable(predicate):
        values = [predicate(x) for x in grid]
    elif isinstance(predicate, dict):
        try:
            values = [predicate[x] for x in grid]
        except KeyError as e:
            raise ValidationError(f"predicate missing input {e.args[0]!r}")
    else:
        values = list(predicate)
    weights, den = _weights(distribution, questions)
    f_index = []
    for i, a in enumerate(values):
        try:
            f_index.append(group.index(group.coerce(a)))
        except ValueError:
            x = _question_tuple(i, questions) if i < math.prod(questions) else i
            raise ValidationError(f"predicate value {a!r} at input {x} is "
                                  f"not in {group!r}") from None
    return LinearGame(group, questions, f_index, weights, den, field=field)


def _prime_power(d):
    """Return (p, r) with d = p**r, or raise."""
    if d < 2:
        raise ValidationError(f"alphabet size must be >= 2, got {d}")
    p = next(q for q in range(2, d + 1) if d % q == 0)
    r = round(math.log(d, p))
    if p ** r != d:
        raise ValidationError(f"alphabet size {d} is not a prime power")
    return p, r


@lru_cache(maxsize=32)  # bounded: a key holds |F|^players entries
def _chsh_indices(field, players):
    """Element index of f(x) = sum_{i<j} x_i * x_j in the field, in grid order,
    one gather per pair of players; field and additive group share indices.
    The array is shared between callers and read-only."""
    add = answer_sums(field.additive_group(), 2).reshape(field.size, field.size)
    x = np.ix_(*[np.arange(field.size)] * players)
    total = 0
    for i, j in itertools.combinations(range(players), 2):
        total = add[total, field.mul_table[x[i], x[j]]]
    return _frozen(total.ravel())


def chsh_game(players, outcomes):
    """The n-player, GF(d)-output game with predicate
    f(x) = sum_{i<j} x_i * x_j, all products in GF(d), uniform questions.

    Every player gets d questions identified with the field elements in
    enumeration order.
    """
    players = as_int(players, "players")
    if players < 2:
        raise ValidationError("the quadratic game needs at least 2 players")
    p, r = _prime_power(as_int(outcomes, "outcomes"))
    field = FiniteField(p, r)
    questions = (field.size,) * players
    return LinearGame(field.additive_group(), questions,
                      _chsh_indices(field, players),
                      *_weights("uniform", questions), field=field)


@lru_cache(maxsize=1)
def _ghz3_indices():
    """Element index of f(x, y, z) = x*y*z mod 3 in Z_3, in grid order.  The
    array is shared between callers and read-only."""
    x, y, z = np.ix_(*[np.arange(3)] * 3)
    return _frozen((x * y * z % 3).ravel().astype(np.intp))


def mermin_ghz3_game():
    """The ternary GHZ game: questions x, y, z in Z_3 promised to satisfy
    x + y + z = 0 mod 3 (uniform over the nine such tuples), win when
    a + b + c = x*y*z mod 3."""
    x, y, z = np.ix_(*[np.arange(3)] * 3)
    support = ((x + y + z) % 3 == 0).astype(np.int64)
    return LinearGame(AbelianGroup((3,)), (3, 3, 3), _ghz3_indices(),
                      support.ravel(), 9)


@lru_cache(maxsize=32)  # bounded: a key holds |G|^players entries
def answer_sums(group, players):
    """Group-element index of a_1 + ... + a_n for every answer tuple, in
    the lexicographic column order of behaviors.  The array is shared
    between callers and read-only."""
    residues = np.array(group.elements())
    orders = np.array(group.orders)
    total = np.zeros((1, len(orders)), dtype=np.intp)
    for _ in range(players):
        total = ((total[:, None, :] + residues[None, :, :]) % orders).reshape(
            -1, len(orders))
    # Elements enumerate lexicographically: an index is row-major.
    return _frozen(np.ravel_multi_index(tuple(total.T), group.orders))


def _check_rows(table):
    """Refuse a behavior table with an entry below -BEHAVIOR_ROW_TOL, a row
    whose sum is off 1 by more than BEHAVIOR_ROW_TOL, or a NaN entry."""
    low, sums = table.min(), table.sum(axis=1)
    if low < -BEHAVIOR_ROW_TOL:
        raise ValidationError(f"behavior has a negative probability {low!r}")
    if max(np.fmax.reduce(sums) - 1,  # fmax/fmin skip NaN rows, refused below
           1 - np.fmin.reduce(sums)) > BEHAVIOR_ROW_TOL:
        bad = np.flatnonzero(np.abs(sums - 1) > BEHAVIOR_ROW_TOL)
        raise ValidationError(
            f"behavior rows {bad.tolist()} are not normalized "
            f"(sums {sums[bad].tolist()})")
    if np.isnan(low):
        rows = np.flatnonzero(np.isnan(sums)).tolist()
        raise ValidationError(f"behavior rows {rows} have NaN entries")


class Behavior:
    """Conditional answer distributions P(a | x), one row per question
    tuple, columns indexed by answer tuples in lexicographic order."""

    def __init__(self, group, question_counts, table):
        self.group = group
        self.question_counts = as_int_tuple(question_counts, "question counts")
        n_inputs = math.prod(self.question_counts)
        n_outputs = group.size ** len(self.question_counts)
        table = np.asarray(table, dtype=float)
        if table.shape != (n_inputs, n_outputs):
            raise ValidationError(
                f"behavior table has shape {table.shape}, expected "
                f"{(n_inputs, n_outputs)}")
        _check_rows(table)
        self.table = table

    @classmethod
    def _of_checked(cls, group, question_counts, table):
        """A behavior on a table of the grid's shape that ``_check_rows``
        accepted when it was built, such as a strategy's own read-only
        table: not checked again."""
        behavior = cls.__new__(cls)
        behavior.group, behavior.question_counts = group, question_counts
        behavior.table = table
        return behavior

    @property
    def players(self):
        return len(self.question_counts)

    def prob(self, answers, x):
        answers = [self.group.index(a) for a in answers]
        return self.table[_position(x, self.question_counts, "question tuple"),
                          np.ravel_multi_index(answers, (self.group.size,) * self.players)]


def target_behavior(group, question_counts, targets):
    """The behavior that answers uniformly over the |G|^(n-1) answer
    tuples summing to the element of index ``targets[x]``, for every
    question tuple x in grid order."""
    n = len(question_counts)
    wins = answer_sums(group, n) == np.asarray(targets)[:, None]
    return Behavior(group, question_counts,
                    np.where(wins, 1.0 / group.size ** (n - 1), 0.0))


@dataclass(frozen=True)
class DeterministicStrategy:
    """One answer per question per player: outputs[i][x_i] is player i's
    group element on question x_i."""

    outputs: tuple

    def answer(self, player, question):
        return self.outputs[player][question]

    def behavior(self, group, question_counts):
        grid = np.indices(question_counts).reshape(len(question_counts), -1)
        answers = [np.array([group.index(a) for a in out])[x]
                   for out, x in zip(self.outputs, grid)]
        table = np.zeros((grid.shape[1], group.size ** len(grid)))
        table[np.arange(grid.shape[1]),
              np.ravel_multi_index(answers, (group.size,) * len(grid))] = 1.0
        return Behavior(group, question_counts, table)


def success_probability(game, behavior):
    """Winning probability sum_x p(x) * P(sum_i a_i = f(x) | x), one dot
    product of the game's ``win_weights`` with the behavior table."""
    if behavior.group != game.group:
        raise ValidationError("behavior and game use different groups")
    if behavior.question_counts != game.question_counts:
        raise ValidationError("behavior and game have different question grids")
    return float(np.dot(game.win_weights.ravel(), behavior.table.ravel()))


# ---------------------------------------------------------------------------
# Game files


_GAME_KEYS = {"players", "questions", "group", "distribution", "predicate"}


def _is_int(value):
    """Whether a decoded JSON value is an integer: json.loads gives plain
    ints, and a bool is of its own type."""
    return type(value) is int


def _expect_keys(obj, required, path="document"):
    if not isinstance(obj, dict):
        raise GameFormatError(f"{path}: expected an object")
    keys = set(obj)
    missing = required - keys
    if missing:
        raise GameFormatError(f"{path}: missing key(s) {sorted(missing)}")
    unknown = keys - required
    if unknown:
        raise GameFormatError(f"{path}: unknown key(s) {sorted(unknown)}")


def _decode(text):
    """The JSON value in ``text``; invalid JSON raises GameFormatError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise GameFormatError(f"invalid JSON: {e}") from None


def _read_document(text, keys):
    """The JSON object in ``text``, with exactly the keys ``keys``: the
    reader of the game, strategy and function file formats."""
    doc = _decode(text)
    _expect_keys(doc, keys)
    return doc


def _nonempty_list(raw, path, what):
    if not isinstance(raw, list) or not raw:
        raise GameFormatError(f"{path}: expected {what}")
    return raw


def _load(path, parse):
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _parse_element(raw, group, path):
    """Element index of ``raw``, an integer (one cyclic factor) or a list
    of integers naming an element of ``group``."""
    if isinstance(raw, bool):
        raise GameFormatError(f"{path}: expected a group element, got {raw!r}")
    if isinstance(raw, int):
        raw = [raw]
    if not isinstance(raw, list) or not all(map(_is_int, raw)):
        raise GameFormatError(f"{path}: expected a group element, got {raw!r}")
    try:
        return group.index(tuple(raw))
    except ValueError as e:
        raise GameFormatError(f"{path}: {e}") from None


def _parse_probability(raw, path):
    if not _is_int(raw) and not isinstance(raw, str):
        raise GameFormatError(
            f'{path}: expected "num/den" or an integer, got {raw!r}')
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as e:
        raise GameFormatError(f"{path}: {e}") from None


def _parse_position(raw, questions, path):
    """Grid position of the question tuple ``raw``: a Horner sum over its
    entries, each checked to be an integer on its player's range."""
    if (not isinstance(raw, list) or len(raw) != len(questions)
            or not all(map(_is_int, raw))):
        raise GameFormatError(
            f"{path}: expected a question tuple of length {len(questions)}")
    position = 0
    for q, n in zip(raw, questions):
        if not 0 <= q < n:
            raise GameFormatError(f"{path}: question tuple {raw} out of range")
        position = position * n + q
    return position


def _parse_table(entries, questions, path, key, parse_value):
    """{grid position: value} from a list of {"x": ..., key: ...} entries,
    each question tuple on the grid and listed once."""
    if not isinstance(entries, list):
        raise GameFormatError(f"{path}: expected a list")
    table = {}
    for i, entry in enumerate(entries):
        where = f"{path}[{i}]"
        _expect_keys(entry, {"x", key}, path=where)
        x = entry["x"]
        position = _parse_position(x, questions, f"{where}.x")
        if position in table:
            raise GameFormatError(f"{where}: duplicate input {x}")
        table[position] = parse_value(entry[key], f"{where}.{key}")
    return table


def _parse_group(raw):
    """(group, field) from the "group" entry; field is None for the
    cyclic form."""
    if not isinstance(raw, dict) or len(raw) != 1:
        raise GameFormatError(
            'group: expected exactly one of {"cyclic": [...]} or '
            '{"field": {"p": ..., "r": ...}}')
    if "cyclic" in raw:
        orders = raw["cyclic"]
        if (not isinstance(orders, list) or not orders
                or not all(_is_int(d) and d >= 2 for d in orders)):
            raise GameFormatError(f"group.cyclic: bad factor list {orders!r}")
        return AbelianGroup(orders), None
    if "field" in raw:
        _expect_keys(raw["field"], {"p", "r"}, path="group.field")
        p, r = raw["field"]["p"], raw["field"]["r"]
        if not _is_int(p) or not _is_int(r):
            raise GameFormatError("group.field: p and r must be integers")
        try:
            field = FiniteField(p, r)
        except ValueError as e:
            raise GameFormatError(f"group.field: {e}") from None
        return field.additive_group(), field
    raise GameFormatError(f"group: unknown form {sorted(raw)}")


def _parse_builtin(builtin, group, field, questions):
    """(element index of f(x) in grid order, field) of a builtin
    predicate."""
    if builtin == "chsh":
        if field is None:
            if len(group.orders) != 1:
                raise GameFormatError(
                    "predicate.builtin chsh: multi-factor groups need the "
                    '{"field": ...} group form')
            try:
                field = FiniteField(group.orders[0], 1)
            except ValueError as e:
                raise GameFormatError(f"predicate.builtin chsh: {e}") from None
        if any(q != field.size for q in questions):
            raise GameFormatError(
                f"predicate.builtin chsh: every player needs {field.size} "
                f"questions")
        return _chsh_indices(field, len(questions)), field
    if builtin == "ghz3":
        if questions != (3, 3, 3) or group != AbelianGroup((3,)):
            raise GameFormatError(
                "predicate.builtin ghz3: needs players=3, questions "
                "[3,3,3] and group {\"cyclic\": [3]}")
        return _ghz3_indices(), field
    raise GameFormatError(f"predicate.builtin: unknown builtin {builtin!r}")


def parse_game_file(text):
    """Parse the JSON game-file format into a LinearGame.

    Only the file format is checked here: JSON types, field paths, ranges
    and duplicates.  Each table entry is read once, its question tuple
    turned into a grid position by ``_parse_position``: the predicate
    becomes element indices in grid order, from its table or a builtin;
    the distribution ("uniform", {"support": [...]} or a {x: Fraction}
    table) becomes weights as in ``make_game``, and the game is built
    from both."""
    doc = _read_document(text, _GAME_KEYS)

    players = doc["players"]
    if not _is_int(players) or players < 2:
        raise GameFormatError(f"players: expected an integer >= 2, got {players!r}")
    questions = doc["questions"]
    if (not isinstance(questions, list) or len(questions) != players
            or not all(_is_int(q) and q >= 1 for q in questions)):
        raise GameFormatError(
            f"questions: expected {players} integers >= 1, got {questions!r}")
    questions = tuple(questions)
    group, field = _parse_group(doc["group"])

    n_inputs = math.prod(questions)
    raw_dist = doc["distribution"]
    if raw_dist == "uniform":
        weights, den = _weights(raw_dist, questions)
    elif isinstance(raw_dist, dict) and set(raw_dist) == {"support"}:
        support = _nonempty_list(raw_dist["support"], "distribution.support",
                                 "a non-empty list")
        seen = set()
        for i, raw_x in enumerate(support):
            position = _parse_position(raw_x, questions,
                                       f"distribution.support[{i}]")
            if position in seen:
                raise GameFormatError(
                    f"distribution.support[{i}]: duplicate input {raw_x}")
            seen.add(position)
        weights, den = _support_weights(seen, n_inputs)
    elif isinstance(raw_dist, dict) and set(raw_dist) == {"table"}:
        weights, den = _table_weights(_parse_table(
            raw_dist["table"], questions, "distribution.table", "p",
            _parse_probability), n_inputs)
    else:
        raise GameFormatError(
            'distribution: expected "uniform", {"support": ...} or {"table": ...}')

    raw_pred = doc["predicate"]
    if isinstance(raw_pred, dict) and set(raw_pred) == {"table"}:
        predicate = _parse_table(
            raw_pred["table"], questions, "predicate.table", "f",
            lambda raw, path: _parse_element(raw, group, path))
        if len(predicate) < n_inputs:
            first = itertools.islice(
                (i for i in range(n_inputs) if i not in predicate), 5)
            xs = np.transpose(np.unravel_index(list(first), questions))
            raise GameFormatError(
                f"predicate.table: missing input(s) {xs.tolist()}"
                f"{' ...' if n_inputs - len(predicate) > 5 else ''} "
                f"(the predicate must be total)")
        f_index = np.empty(n_inputs, dtype=np.intp)
        f_index[list(predicate)] = list(predicate.values())
    elif isinstance(raw_pred, dict) and set(raw_pred) == {"builtin"}:
        f_index, field = _parse_builtin(raw_pred["builtin"], group, field,
                                        questions)
    else:
        raise GameFormatError(
            'predicate: expected {"table": ...} or {"builtin": ...}')

    try:
        return LinearGame(group, questions, f_index, weights, den, field=field)
    except ValidationError as e:
        raise GameFormatError(str(e)) from None


def json_text(value, sort_keys=False):
    """``json.dumps(value, sort_keys=sort_keys, indent=2)`` with every float
    first rounded to 10 significant digits, in one recursive walk.  Values
    are dicts with string keys, lists, tuples, strings, ints, floats, bools,
    None and ``Records``; anything else raises TypeError.  A ``Records``
    table is written as the list of objects its rows make, each row's keys
    in column order (sorted with ``sort_keys``), from one template."""
    out = []
    _write_json(value, "\n", sort_keys, out)
    return "".join(out)


class Records:
    """A list of JSON objects given by columns, written by ``json_text``
    without a dict per row.  ``columns`` maps each key to a column of one
    entry per row: an integer array of shape (rows,) (each entry an int) or
    (rows, w) (each entry a list of w ints), or a sequence of strings.
    Integer arrays have an integer dtype or hold Python ints in an object
    array; other dtypes, non-string keys and non-string cells raise
    TypeError, and no columns, columns of unequal length or of another
    shape raise ValueError."""

    def __init__(self, columns):
        self._columns = {}  # key: 1-D (one value per row) or 2-D array
        for key, column in columns.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            if not isinstance(column, np.ndarray):
                column = np.array([encode_basestring_ascii(v) for v in column],
                                  dtype=object)
            elif not (column.dtype.kind in "iu" or (
                    column.dtype == object
                    and all(type(v) is int for v in column.flat))):
                raise TypeError(f"column {key!r}: expected integers, got "
                                f"dtype {column.dtype}")
            elif column.ndim not in (1, 2):
                raise ValueError(f"column {key!r}: expected 1 or 2 "
                                 f"dimensions, got shape {column.shape}")
            self._columns[key] = column
        lengths = {len(column) for column in self._columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"expected columns of one length, got lengths "
                             f"{sorted(lengths)}")
        (self.rows,) = lengths

    def _text(self, newline, sort_keys):
        """The table at indent ``newline``: one row template with a %s per
        int or string, repeated and filled from every cell at once."""
        if not self.rows:
            return "[]"
        inner, field = newline + "  ", newline + "    "
        parts, cells = [], []
        for key, column in (sorted(self._columns.items()) if sort_keys
                            else self._columns.items()):
            head = f"{field}{encode_basestring_ascii(key).replace('%', '%%')}: "
            if column.ndim == 1:
                parts.append(head + "%s")
                column = column[:, None]
            elif column.shape[1]:
                items = ",".join([field + "  %s"] * column.shape[1])
                parts.append(f"{head}[{items}{field}]")
            else:
                parts.append(head + "[]")
            cells.append(column)
        row = "{" + ",".join(parts) + inner + "}"
        values = np.concatenate(cells, axis=1, dtype=object).ravel().tolist()
        return (f"[{inner}{(row + ',' + inner) * (self.rows - 1)}{row}"
                f"{newline}]") % tuple(values)


def _float_text(value):
    text = float.__repr__(float(f"{value:.10g}"))
    return _NON_FINITE.get(text, text)


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
                 float: _float_text, bool: lambda v: "true" if v else "false",
                 type(None): lambda v: "null"}


def _write_json(value, newline, sort_keys, out):
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        out.append(scalar(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if all(type(v) is int for v in value):
            out.append(f"[{inner}{(',' + inner).join(map(str, value))}"
                       f"{newline}]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, sort_keys, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()) if sort_keys else value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            out.append(f"{sep}{encode_basestring_ascii(key)}: ")
            _write_json(item, inner, sort_keys, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, Records):
        out.append(value._text(newline, sort_keys))
    else:
        # subclasses: an int enum is written as its int, numpy's float64
        # as its rounded float
        base = next((t for t in (str, int, float) if isinstance(value, t)),
                    None)
        if base is None:
            raise TypeError(f"cannot serialize {type(value)!r}")
        out.append(_JSON_SCALARS[base](value))


def _game_document(game):
    if game.field is not None:
        group_doc = {"field": {"p": game.field.p, "r": game.field.r}}
    else:
        group_doc = {"cyclic": list(game.group.orders)}

    if game.is_uniform:
        dist_doc = "uniform"
    else:
        support = game.weights > 0
        dist_doc = {"table": Records({
            "x": game.grid[support],
            "p": [f"{w // g}/{game.den // g}"
                  for w in game.weights[support].tolist()
                  for g in (math.gcd(w, game.den),)]})}

    # f is an int for a one-factor group, else a list
    residues = (game.residues[:, 0] if len(game.group.orders) == 1
                else game.residues)
    return {
        "players": game.players,
        "questions": list(game.question_counts),
        "group": group_doc,
        "distribution": dist_doc,
        "predicate": {"table": Records({"x": game.grid, "f": residues})},
    }


def serialize_game(game):
    """Canonical JSON for a game: fixed key order, explicit tables in grid
    order, rational probabilities as "num/den" strings."""
    return json_text(_game_document(game)) + "\n"


def game_hash(game):
    """Stable identifier: SHA-256 of the canonical serialization."""
    return hashlib.sha256(serialize_game(game).encode()).hexdigest()


def load_game(path):
    return _load(path, parse_game_file)
