"""Independent reference implementations used only by the test suite.

Each routine here recomputes a quantity the library computes some other
way, by a deliberately different algorithm, so agreement is meaningful:

* jacobi_eigenvalues: cyclic Jacobi diagonalization of a Hermitian matrix
  (checks the SVD singular values).
* oracle_quantum_bound / oracle_biseparable_bound: game matrices filled
  entry by entry, one Jacobi norm per matrix, and a Python loop over every
  partition and every lone-player assignment (checks the game tensor and
  the batched contraction in qbounds and diew).
* oracle_game_tensor / oracle_kernel_norms / oracle_bipartition_norms /
  oracle_pair_norms: the spectral kernel before conjugate pairs, one
  tensor slice and one complex SVD per nontrivial character (checks
  qbounds.character_norms, its one norm per pair {k, -k} and its real SVD
  for k = -k, on bipartitions and on the lone-player pair matrices).
* oracle_fold_pair_matrices / oracle_lone_tables: the lone player's pair
  matrices as a character sum over a block of the answer histogram's
  fold, the way the biseparable search built them before it read them
  off the game tensor, and the tables in itertools order (checks the
  matrices of diew._phase_blocks, table by table).
* oracle_table_blocks / oracle_table_matrices / oracle_table_search: the
  biseparable search that took one SVD per character per table, its
  blocks of tables and its one batched product of the gathered phases
  with the lone player's tensor slices (checks that the search scoring
  each phase vector once reports the same table, raw bound and norms).
* oracle_left_to_right_matrices / oracle_biseparable_search: the search
  for one split that builds each table's matrices alone, summed one lone
  question at a time from question 0, keeps the norms of every table and
  reads the winner's column at the end (checks, bit for bit, that the
  search scoring phase vectors in blocks and keeping only the tables near
  the running maximum reports the same partition at every block size,
  and that biseparable_matrix builds the matrices it scored; both
  searches take their norms from diew.character_norms).
* oracle_first_optimum / oracle_bipartition_stack / oracle_partition_bound
  / oracle_bound_report: quantum_bound as it was built one split at a
  time, the split layout rebuilt for every split, one PartitionBound per
  split from its own norms dict, and the tie rule run in numpy on the
  array of raws (checks, with ==, the cached split layouts, the one
  report loop and the plain-Python tie rule of qbounds; since every split
  takes its own norms, also that splits sharing a key of
  qbounds.shared_sides share one stack without changing the report).
* oracle_three_searches / oracle_three_folds: biseparable_bound and
  svetlichny_value(lone=None) as they were, one search or fold for each of
  the three lone players (check, with ==, that lone players sharing a key
  share one search or fold).
* naive_classical_value: full enumeration over every player's strategy
  table, no greedy decomposition (checks classical_value).
* oracle_classical_result: the pre-engine classical_value, one Python
  iteration per table of players 2..n with a greedy player 1 and no shift
  reduction (checks the value and the witness of the chunked engine).
* oracle_best_tables: the chunked engine that preceded the histogram
  fold, which decodes every reduced assignment and scatters the weights
  of every question with np.add.at (checks the value, the fixed tables
  and the free answers of values._best_tables on every split).
* oracle_table_digits: a table index decoded by np.unravel_index
  (checks the integer divmod decoding of values.table_digits).
* brute_svetlichny_value: enumeration over the joint pair's sum tables
  (checks the per-question greedy in svetlichny_value).
* behavior_from_full_correlators: inverse Fourier transform from character
  orthogonality (checks the forward correlator transform).
* reconstruct_separable: axis reconstruction of a candidate offset
  decomposition (checks the difference-relation separability test).
* oracle_separability_check: the pre-vectorization separability_check,
  one difference relation at a time over every question tuple (checks
  the offsets, constant and strategy of the array version).
* oracle_behavior_table / oracle_noisy_success: the Born rule cell by
  cell, by vector contraction or a Kronecker product and trace, with
  white noise mixed into a rebuilt density matrix (checks the per-player
  tensordot loop of strategy_behavior and the closed-form noise of
  noisy_success).
* oracle_masked_success / oracle_noise_path_success: success_probability
  as a masked copy of the table summed row by row against p(x), and
  noisy success through a validated noise_behavior, the paths that
  preceded the games' win weights (checks the one dot product of
  success_probability and the marginal noise of noisy_success and
  visibility_threshold).
* oracle_tensordot_behavior / oracle_einsum_noise /
  oracle_tensordot_correlators: the Born-rule kernels that preceded the
  stored operator layouts, one np.tensordot per player over the stacked
  projectors, white noise by a trace and an einsum per call, and one
  np.tensordot per answer axis (checks, bit for bit, the one np.dot per
  player of strategy_behavior, the stored marginals of noise_behavior and
  the one np.dot per answer axis of correlators).
* oracle_dot_behavior / oracle_noise_table / oracle_success_pair: the
  Born rule and the white-noise table run afresh on every call, over the
  game's grid, the way strategy_behavior, noise_behavior and
  _success_pair ran them before each strategy held its Born and
  white-noise tables (checks, bit for bit, the shared read-only tables,
  noisy_success and visibility_threshold).
* oracle_projector_check: the question-by-question projector check that
  preceded the stacked one, one Python product per pair of outcomes
  (checks the (questions, outcomes, d, d) check of QuantumStrategy).
* modular_inverse_matrix: Gauss-Jordan inversion modulo a prime (checks
  the closed-form inverse Vandermonde matrix of boxworld).
* oracle_cc_protocol / oracle_simulate_pr / oracle_reduce_to_pr /
  oracle_check_reduction / oracle_box_behavior_table: the pre-batching boxworld
  loops, one box_sample call per box, one derivative order at a time and
  one table cell at a time (checks the batched kernel, its random stream
  and the einsum reduction search).
* oracle_block_reduce_to_pr: the reduction search that scored the
  derivative orders in doubling blocks, each order's coefficients from
  the inverse Vandermonde times a power of the difference matrix (checks
  the one Newton transform of boxworld.reduce_to_pr at d = 11 and 13,
  where oracle_reduce_to_pr is too slow).
* oracle_additive_table: the pow loop that evaluated the additive rows g,
  h, s of a reduction at every point of Z_d (checks the Fermat fold of
  boxworld._additive_table on long rows and huge or negative
  coefficients).
* oracle_round_floats: the float rounding pass that ran before
  json.dumps in the CLI (with json.dumps, checks games.json_text, the one
  writer of reports, game files and function files).
* oracle_game_document: the game document built one dict per question
  (with json.dumps, checks serialize_game and game_hash, whose tables
  json_text writes from columns).
* oracle_fraction_game_document: the game document with its
  probabilities written from one Fraction per grid entry (checks, byte
  for byte, serialize_game writing "num/den" from the integer weights).
* oracle_boxes_runs: the shot-by-shot report loop of ``lingame boxes
  run`` (checks protocol_runs, its one draw for all shots, and the
  report built from it).
* oracle_protocol_totals: the protocol kernel that gathered every box's
  PR target at its exponent tuple and summed all n outputs of every box,
  the last one closing the box's sum (checks, with ==, the outer-product
  targets and the last party's total closed by linearity in
  boxworld._protocol_totals).
* parse_report / quantum_bound_partition / evaluate_polynomial /
  polynomial_table / serialize_function: former public helpers that
  nothing but the tests used, a --json report parsed back into a dict,
  the norm bound of one bipartition, an interpolated polynomial evaluated
  at one point or on the whole grid, and a function table written in the
  function-file format (check the CLI's reports, quantum_bound's
  partitions, interpolate_polynomial and parse_function_file).
* oracle_make_game / oracle_chsh_predicate / oracle_deterministic_table:
  the per-question game builder that preceded the array constructor, one
  Fraction per question tuple, their lcm and one coerce per predicate
  value, with the chsh predicate in FiniteField.add/mul and the
  deterministic behavior filled row by row (checks make_game, the builtin
  gathers, LinearGame equality and hashing, and
  DeterministicStrategy.behavior).
* oracle_parse_game_file: the game-file reader that kept question
  tuples as dict keys, sent its distribution through make_game's weights
  (one np.ravel_multi_index and one Fraction per entry) and sorted its
  predicate back into grid order (checks, with == and game_hash, the
  reader that turns each entry into a grid position in one walk).
"""

import itertools
import math
from fractions import Fraction
from functools import reduce
from types import SimpleNamespace

import numpy as np

from lingame import cli, diew, games, qbounds, values
from lingame.algebra import AbelianGroup, as_int_tuple
from lingame.boxworld import (FunctionTable, PRBox, ProtocolTranscript,
                              Reduction, box_sample, interpolate_polynomial,
                              partial_derivative, _flatten_inputs,
                              _vandermonde, _vandermonde_inverse)
from lingame.errors import GameFormatError, ResourceLimitError, ValidationError
from lingame.games import (Behavior, DeterministicStrategy, Records,
                           answer_sums, success_probability)
from lingame.strategies import (QuantumStrategy, _as_projector,
                                _check_compatible, noise_behavior,
                                strategy_behavior)
from lingame.qbounds import first_optimum
from lingame.tolerances import (BISEPARABLE_ASSIGNMENT_CAP, PROJECTOR_TOL,
                                TIE_TOL)
from lingame.values import SeparabilityReport


def _jacobi_rotation(a, p, q):
    """Unitary zeroing A[p,q] of a Hermitian matrix, applied in place."""
    gamma = a[p, q]
    mod = abs(gamma)
    if mod == 0.0:
        return
    phase = gamma / mod
    alpha = a[p, p].real
    beta = a[q, q].real
    theta = 0.5 * math.atan2(2.0 * mod, beta - alpha)
    c = math.cos(theta)
    s = math.sin(theta)
    n = a.shape[0]
    j = np.eye(n, dtype=complex)
    j[p, p] = c
    j[p, q] = s
    j[q, p] = -s * np.conj(phase)
    j[q, q] = c * np.conj(phase)
    a[:, :] = j.conj().T @ a @ j


def jacobi_eigenvalues(h, *, sweeps=100, tol=1e-14):
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi sweeps,
    ascending."""
    a = np.array(h, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"expected a square matrix, got {a.shape}")
    if not np.allclose(a, a.conj().T, atol=1e-12):
        raise ValueError("Jacobi oracle expects a Hermitian matrix")
    scale = max(np.abs(a).max(), 1.0)
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(sweeps):
        off = math.sqrt(float((np.abs(a[off_mask]) ** 2).sum()))
        if off <= tol * scale * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _jacobi_rotation(a, p, q)
    else:
        raise RuntimeError("Jacobi sweeps did not converge")
    return np.sort(np.diag(a).real)


def oracle_max_singular_value(m):
    """Largest singular value via the Jacobi eigensolver on the Gram
    matrix, assembled entry by entry."""
    m = np.asarray(m, dtype=complex)
    rows, cols = m.shape
    if rows <= cols:
        gram = np.empty((rows, rows), dtype=complex)
        for i in range(rows):
            for j in range(rows):
                gram[i, j] = sum(m[i, t] * np.conj(m[j, t]) for t in range(cols))
    else:
        gram = np.empty((cols, cols), dtype=complex)
        for i in range(cols):
            for j in range(cols):
                gram[i, j] = sum(np.conj(m[t, i]) * m[t, j] for t in range(rows))
    eig = jacobi_eigenvalues(gram)
    return math.sqrt(max(float(eig[-1]), 0.0))


def _first_within_tie(raws, largest):
    """Index of the first raw within TIE_TOL of the optimum, and the
    optimum, by a plain scan."""
    best = max(raws) if largest else min(raws)
    for i, raw in enumerate(raws):
        if abs(raw - best) <= TIE_TOL:
            return i, best


def oracle_game_matrix(game, s_players, k):
    """Phi_k^S[x_S, x_{S^c}] = p(x) chi_k(f(x)), one entry per input."""
    s = tuple(s_players)
    comp = tuple(i for i in range(game.players) if i not in s)
    sides = [list(itertools.product(*(range(game.question_counts[i])
                                      for i in side))) for side in (s, comp)]
    out = np.zeros((len(sides[0]), len(sides[1])), dtype=complex)
    for x in game.inputs():
        row = sides[0].index(tuple(x[i] for i in s))
        col = sides[1].index(tuple(x[i] for i in comp))
        out[row, col] = (float(game.probability(x))
                         * game.group.character(k, game.predicate_value(x)))
    return out


def oracle_game_tensor(game):
    """The character-weighted tensor as the spectral kernel built it before
    conjugate pairs: A[k, x] = p(x) chi_k(f(x)) for every nontrivial k in
    group order, from the exp-built character table."""
    chi = game.group.character_table()[1:]
    a = game.probabilities_float() * chi[:, game.predicate_indices()]
    return a.reshape((len(chi),) + game.question_counts)


def oracle_kernel_norms(stack):
    """One complex SVD per character: the largest singular value of each
    matrix of a stack (k, ..., r, c), whatever pairs the characters form."""
    return np.array([np.linalg.svd(np.asarray(m, dtype=complex),
                                   compute_uv=False)[..., 0] for m in stack])


def oracle_first_optimum(raws, largest):
    """qbounds.first_optimum in numpy: the first index where |raw - best|
    <= TIE_TOL by argmax over the array of raws, and the optimum."""
    raws = np.asarray(raws, dtype=float)
    best = raws.max() if largest else raws.min()
    return int(np.argmax(np.abs(raws - best) <= TIE_TOL)), float(best)


def oracle_bipartition_stack(tensor, game, s):
    """The matrices Phi_k^S for every slice k of a tensor, stacked along
    axis 0, the layout of S built afresh."""
    comp = tuple(i for i in range(game.players) if i not in s)
    rows = math.prod(game.question_counts[i] for i in s)
    axes = (0,) + tuple(1 + i for i in s + comp)
    return tensor.transpose(axes).reshape(len(tensor), rows, -1)


def oracle_partition_bound(tensor, game, s):
    """One split's PartitionBound from its own stack and norms dict."""
    norms = dict(zip(game.group.elements()[1:], qbounds.character_norms(
        oracle_bipartition_stack(tensor, game, s), game.group).tolist()))
    scale = math.sqrt(math.prod(game.question_counts))
    raw = (1.0 + scale * sum(norms.values())) / game.group.size
    return qbounds.PartitionBound(players=s, norms=norms, raw=raw,
                                  value=min(raw, 1.0))


def oracle_bound_report(game):
    """quantum_bound one split at a time, over the subsets containing
    player 0 in bitmask order, the best read by oracle_first_optimum."""
    tensor = qbounds.game_tensor(game)
    partitions = tuple(
        oracle_partition_bound(tensor, game, tuple(
            i for i in range(game.players) if mask >> i & 1))
        for mask in range(1, 2**game.players - 1) if mask & 1)
    best, raw = oracle_first_optimum([p.raw for p in partitions],
                                     largest=False)
    return qbounds.BoundReport(partitions=partitions, raw_bound=raw,
                               bound=min(raw, 1.0),
                               best_partition=partitions[best].players)


def oracle_three_searches(game):
    """biseparable_bound with one search per lone player, the best read by
    oracle_first_optimum."""
    partitions = tuple(diew.biseparable_bound_partition(game, lone)
                       for lone in range(3))
    best, raw = oracle_first_optimum([p.raw for p in partitions], largest=True)
    return diew.BiseparableReport(partitions=partitions, raw_bound=raw,
                                  bound=min(raw, 1.0), best_lone=best)


def oracle_three_folds(game):
    """svetlichny_value(lone=None) with one fold per lone player."""
    return max(values.svetlichny_value(game, lone) for lone in range(3))


def oracle_bipartition_norms(game, s):
    """||Phi_k^S|| for every nontrivial k, one complex SVD each."""
    return oracle_kernel_norms(
        oracle_bipartition_stack(oracle_game_tensor(game), game, s))


def oracle_fold_pair_matrices(game, lone, block):
    """Phi_k^B(c_t)[x_i, x_j] = sum_s chi_k(s) F[s, t, (x_i, x_j)] / den at
    [k, t, x_i, x_j], for every representative k of ``character_pairs``
    and every table t of a block F of ``values.fold_tables``: the pair
    matrices of the biseparable search when it folded the answer
    histogram (checks diew._pair_matrices, which reads them off the game
    tensor)."""
    g, tables, _ = block.shape
    chi = game.group.character_pairs.table
    b = chi @ np.asarray(block.reshape(g, -1) / game.den, dtype=complex)
    return b.reshape((len(chi), tables) + tuple(
        q for i, q in enumerate(game.question_counts) if i != lone))


def oracle_lone_tables(game, lone):
    """Every table of the lone player answering the identity on question
    0, as element indices, in lexicographic order."""
    return np.array([(0,) + c for c in itertools.product(
        range(game.group.size), repeat=game.question_counts[lone] - 1)])


def oracle_pair_norms(game, lone, block):
    """||Phi_k^B(c)|| at [k, t] for every nontrivial k and every table t of
    a block of ``values.fold_tables``, one complex SVD per character."""
    g, tables, _ = block.shape
    chi = game.group.character_table()[1:]
    b = chi @ np.asarray(block.reshape(g, -1) / game.den, dtype=complex)
    return oracle_kernel_norms(b.reshape((g - 1, tables) + tuple(
        q for i, q in enumerate(game.question_counts) if i != lone)))


def oracle_quantum_bound(game):
    """(raw bound, best partition) over every bipartition containing
    player 0, in the order of their player bitmasks."""
    group = game.group
    ks = [k for k in group.elements() if k != group.identity]
    scale = math.sqrt(math.prod(game.question_counts))
    parts, raws = [], []
    for mask in range(1, 2**game.players - 1):
        if mask & 1:
            s = tuple(i for i in range(game.players) if mask >> i & 1)
            total = sum(oracle_max_singular_value(oracle_game_matrix(game, s, k))
                        for k in ks)
            parts.append(s)
            raws.append((1.0 + scale * total) / group.size)
    best, raw = _first_within_tie(raws, largest=False)
    return raw, parts[best]


def oracle_biseparable_matrix(game, lone, k, assignment):
    """Pair matrix sum_{x_lone} p(x) chi_k(f(x) - c(x_lone)), entry by
    entry."""
    group = game.group
    pair = [i for i in range(3) if i != lone]
    out = np.zeros((game.question_counts[pair[0]],
                    game.question_counts[pair[1]]), dtype=complex)
    for x in game.inputs():
        shifted = group.sub(game.predicate_value(x), assignment[x[lone]])
        out[x[pair[0]], x[pair[1]]] += (float(game.probability(x))
                                        * group.character(k, shifted))
    return out


def oracle_biseparable_partition(game, lone):
    """(raw bound, assignment) maximized by looping over every lone-player
    assignment in lexicographic order."""
    group = game.group
    ks = [k for k in group.elements() if k != group.identity]
    pair = [i for i in range(3) if i != lone]
    factor = math.sqrt(game.question_counts[pair[0]]
                       * game.question_counts[pair[1]])
    assignments = list(itertools.product(group.elements(),
                                         repeat=game.question_counts[lone]))
    raws = []
    for c in assignments:
        total = sum(oracle_max_singular_value(
            oracle_biseparable_matrix(game, lone, k, c)) for k in ks)
        raws.append((1.0 + factor * total) / group.size)
    best, raw = _first_within_tie(raws, largest=True)
    return raw, assignments[best]


def oracle_biseparable_bound(game):
    """(raw bound, best lone player, its assignment) over the three
    splits."""
    parts = [oracle_biseparable_partition(game, lone) for lone in range(3)]
    best, raw = _first_within_tie([p[0] for p in parts], largest=True)
    return raw, best, parts[best][1]


def oracle_table_blocks(game, lone):
    """The lone player's tables answering the identity on question 0, as
    element indices, in lexicographic order, in blocks of at most
    ``values._CHUNK_ENTRIES`` complex entries in ``oracle_table_matrices``."""
    g, q = game.group.size, game.question_counts[lone]
    tables = g ** (q - 1)
    step = max(1, values._CHUNK_ENTRIES // (
        len(game.group.character_pairs.reps) * (q + game.n_inputs // q)))
    for start in range(0, tables, step):
        index = np.arange(start, min(start + step, tables))
        yield index[:, None] // g ** np.arange(q - 1, -1, -1) % g


def oracle_table_matrices(game, lone, tables):
    """Phi_k^B(c)[x_i, x_j] at [k, t, x_i, x_j], for every representative
    k of ``character_pairs`` and every table c = ``tables[t]``, one
    element index per lone question; i < j is the pair."""
    m = np.moveaxis(qbounds.game_tensor(game), 1 + lone, 1)
    phases = game.group.character_pairs.table.conj()[:, tables]
    b = phases @ m.reshape(m.shape[:2] + (-1,))
    return b.reshape(b.shape[:2] + m.shape[2:])


def oracle_table_search(game, lone, cap=BISEPARABLE_ASSIGNMENT_CAP):
    """biseparable_bound_partition as it was when it scored every table:
    one SVD per representative per table, in the blocks of
    ``oracle_table_blocks``, and the records of the tables within TIE_TOL
    of the running maximum."""
    values.check_cap(game, (lone,), cap)
    g = game.group.size
    factor = math.sqrt(game.n_inputs // game.question_counts[lone])
    tables = g ** (game.question_counts[lone] - 1)
    records, top, start = [], -math.inf, 0
    for block in oracle_table_blocks(game, lone):
        sigma = qbounds.character_norms(
            oracle_table_matrices(game, lone, block), game.group)
        total = reduce(np.add, sigma) if tables > 1 else sigma.sum(axis=0)
        for t, raw in enumerate(((1.0 + factor * total) / g).tolist()):
            if raw > top:
                top = raw
                records = [r for r in records if top - r[0] <= TIE_TOL]
                records.append((raw, start + t, sigma[:, t].tolist()))
        start += len(block)
    _, best, norms = records[0]
    assignment = oracle_table_digits(game, (lone,), best)[0]
    return diew.BiseparablePartition(
        lone=lone, assignment=tuple(map(game.group.element, assignment)),
        norms=dict(zip(game.group.elements()[1:], norms)),
        raw=top, value=min(top, 1.0))


def oracle_left_to_right_matrices(game, lone, table):
    """Phi_k^B(c)[x_i, x_j] at [k, x_i, x_j], for every representative k
    of ``character_pairs`` and one table c (one element index per lone
    question): the term conj chi_k(c_l) M[k, l] of each lone question l,
    from 0 up, added to the sum of the terms before it."""
    m = np.moveaxis(qbounds.game_tensor(game), 1 + lone, 1)
    conj = game.group.character_pairs.table.conj()
    total = conj[:, table[0], None, None] * m[:, 0]
    for l in range(1, len(table)):
        total = total + conj[:, table[l], None, None] * m[:, l]
    return total


def oracle_biseparable_search(game, lone):
    """The search for one split, one table at a time: every table's
    matrices summed left to right by ``oracle_left_to_right_matrices``,
    its norms from diew.character_norms (so a test may script them for
    both searches) summed character by character, all tables' norms kept,
    and the winner read through ``first_optimum`` at the end."""
    g = game.group.size
    sigma = np.stack([diew.character_norms(
        oracle_left_to_right_matrices(game, lone, c)[:, None], game.group)[:, 0]
        for c in oracle_lone_tables(game, lone)], axis=1)
    factor = math.sqrt(game.n_inputs // game.question_counts[lone])
    raws = (1.0 + factor * reduce(np.add, sigma)) / g
    best, raw = first_optimum(raws, largest=True)
    assignment = oracle_table_digits(game, (lone,), best)[0]
    return diew.BiseparablePartition(
        lone=lone, assignment=tuple(map(game.group.element, assignment)),
        norms=dict(zip(game.group.elements()[1:], sigma[:, best].tolist())),
        raw=raw, value=min(raw, 1.0))


def naive_classical_value(game):
    """Exact classical value by enumerating every deterministic strategy
    of every player.  Exponential; use on small games only."""
    group = game.group
    elements = group.elements()
    tables = [list(itertools.product(elements, repeat=q))
              for q in game.question_counts]
    inputs = game.inputs()
    best = Fraction(0)
    for combo in itertools.product(*tables):
        value = Fraction(0)
        for x, p, f in zip(inputs, game.distribution, game.predicate):
            if p == 0:
                continue
            total = group.identity
            for i, xi in enumerate(x):
                total = group.add(total, combo[i][xi])
            if total == f:
                value += p
        if value > best:
            best = value
    return best


def oracle_classical_result(game):
    """(value, outputs) by looping over every table of players 2..n in
    lexicographic order, player 1 answering greedily per question; ties
    keep the first table and the smallest answer."""
    group = game.group
    g = group.size
    den = math.lcm(*[p.denominator for p in game.distribution])
    weights = [int(p * den) for p in game.distribution]
    w = np.array(weights, dtype=np.int64 if max(weights) < 2**53 else object)
    elements = group.elements()
    add_idx = np.array([[group.index(group.add(a, b)) for b in elements]
                        for a in elements])
    sub_idx = np.array([[group.index(group.sub(a, b)) for b in elements]
                        for a in elements])
    f_idx = game.predicate_indices()
    grid = np.array(game.inputs(), dtype=np.intp)
    rows_by_q1 = [np.nonzero(grid[:, 0] == q)[0]
                  for q in range(game.question_counts[0])]

    best_total, best_combo, best_player1 = -1, None, None
    rest_tables = [itertools.product(range(g), repeat=q)
                   for q in game.question_counts[1:]]
    for combo in itertools.product(*rest_tables):
        rest = np.zeros(len(grid), dtype=np.intp)
        for i, table in enumerate(combo, start=1):
            rest = add_idx[rest, np.asarray(table, dtype=np.intp)[grid[:, i]]]
        target = sub_idx[f_idx, rest]
        total, player1 = 0, []
        for rows in rows_by_q1:
            wins = np.zeros(g, dtype=w.dtype)
            np.add.at(wins, target[rows], w[rows])
            a1 = int(np.argmax(wins))
            player1.append(a1)
            total += int(wins[a1])
        if total > best_total:
            best_total, best_combo, best_player1 = total, combo, player1
    outputs = (tuple(elements[a] for a in best_player1),)
    outputs += tuple(tuple(elements[a] for a in table) for table in best_combo)
    return Fraction(best_total, den), outputs


def oracle_best_tables(game, fixed, cap):
    """(value, digits, answers) of the best deterministic play with the
    players in ``fixed`` enumerating their tables, each answering the
    identity on question 0, and the other players' answer sum chosen per
    free row: every assignment decoded in lexicographic chunks, its
    answers gathered input by input and scattered with np.add.at.  The
    digits are the fixed players' tables in one row; ties keep the first
    assignment and the smallest answer."""
    group, g = game.group, game.group.size
    questions = [game.question_counts[i] for i in fixed]
    required = g ** sum(questions)
    if required > cap:
        raise ResourceLimitError(
            f"enumerating the tables of players {list(fixed)} needs "
            f"{required} assignments, cap is {cap}",
            required=required, cap=cap)

    grid = game.grid.T
    free = [i for i in range(game.players) if i not in fixed]
    shape = [game.question_counts[i] for i in free]
    rows = np.ravel_multi_index(tuple(grid[free]), shape)
    n_rows = math.prod(shape)
    elements = np.array(group.elements(), dtype=np.intp)
    strides = [math.prod(group.orders[j + 1:])
               for j in range(len(group.orders))]
    # cols[j, x]: digit column of fixed player j's answer on input x.
    offsets = np.cumsum([0] + questions[:-1])
    cols = offsets[:, None] + grid[list(fixed)]
    unpinned = [o + x for o, q in zip(offsets, questions) for x in range(1, q)]
    radix = g ** np.arange(len(unpinned) - 1, -1, -1)

    chunk = max(1, (1 << 18) // max(cols.size * len(strides), n_rows * g))
    count = g ** len(unpinned)
    best_total, best = -1, None
    for start in range(0, count, chunk):
        index = np.arange(start, min(start + chunk, count))
        digits = np.zeros((len(index), sum(questions)), dtype=np.intp)
        digits[:, unpinned] = index[:, None] // radix % g
        answer = elements[digits[:, cols]].sum(axis=1)
        rest = ((game.residues - answer) % group.orders) @ strides
        scores = np.zeros((len(index), n_rows, g), dtype=game.weights.dtype)
        np.add.at(scores, (np.arange(len(index))[:, None], rows, rest),
                  game.weights)
        totals = scores.max(axis=2).sum(axis=1)
        i = int(np.argmax(totals))
        if totals[i] > best_total:
            best_total = int(totals[i])
            best = digits[i], scores[i].argmax(axis=1)
    return Fraction(best_total, game.den), best[0], best[1]


def oracle_table_digits(game, fixed, index):
    """values.table_digits as np.unravel_index decoded it: the fixed
    players' tables at position ``index`` of the enumeration, each
    answering the identity on question 0."""
    questions = [game.question_counts[i] for i in fixed]
    digits = iter(np.unravel_index(
        index, (game.group.size,) * (sum(questions) - len(questions))))
    return [[0] + [int(next(digits)) for _ in range(q - 1)] for q in questions]


def brute_svetlichny_value(game, lone):
    """Hybrid value for the bipartition that leaves ``lone`` alone, by
    enumerating the pair's joint sum tables outright (no greedy step)."""
    group = game.group
    g = group.size
    pair = [i for i in range(3) if i != lone]
    q_pair = (game.question_counts[pair[0]], game.question_counts[pair[1]])
    q_lone = game.question_counts[lone]
    joint_questions = list(itertools.product(range(q_pair[0]), range(q_pair[1])))
    n_joint = len(joint_questions)
    denominator = math.lcm(*[p.denominator for p in game.distribution])

    # weight[c_index][joint question][s] = score if the pair answers sum s.
    best = 0
    for c in itertools.product(range(g), repeat=q_lone):
        weight = np.zeros((n_joint, g),
                          dtype=np.int64 if denominator < 2**62 else object)
        for x, p, f in zip(game.inputs(), game.distribution, game.predicate):
            if p == 0:
                continue
            jq = joint_questions.index((x[pair[0]], x[pair[1]]))
            target = group.sub(f, group.element(c[x[lone]]))
            weight[jq, group.index(target)] += int(p * denominator)
        # All joint tables at once: value(table) = sum_jq weight[jq, table[jq]].
        tables = np.array(list(itertools.product(range(g), repeat=n_joint)),
                          dtype=np.int64)
        scores = weight[np.arange(n_joint), tables].sum(axis=1)
        best = max(best, int(scores.max()))
    return Fraction(best, denominator)


def behavior_from_full_correlators(full, group, question_counts):
    """Invert the full correlator tensor back to P(a | x) using character
    orthogonality: P = |G|^-n * sum_k prod_i chi_{k_i}(a_i) * T[k]."""
    g = group.size
    n = len(question_counts)
    n_inputs = int(np.prod(question_counts))
    chi = group.character_table()  # chi[k, a]
    k_tuples = list(itertools.product(range(g), repeat=n))
    a_tuples = list(itertools.product(range(g), repeat=n))
    table = np.empty((n_inputs, g**n))
    for col, a_vec in enumerate(a_tuples):
        # phases[k_flat] = prod_i chi_{k_i}(a_i)
        phases = np.array([np.prod([chi[k, a] for k, a in zip(k_vec, a_vec)])
                           for k_vec in k_tuples])
        table[:, col] = (full.T @ phases).real / g**n
    return table


def reconstruct_separable(game):
    """Try to write f(x) = sum_i theta_i(x_i) + f(0) by reading offsets off
    the axes and verifying on the whole grid.  Returns the offset tables
    (group-element tuples) or None."""
    group = game.group
    n = game.players
    zero = (0,) * n
    f0 = game.predicate_value(zero)
    thetas = []
    for i in range(n):
        theta = []
        for q in range(game.question_counts[i]):
            x = list(zero)
            x[i] = q
            theta.append(group.sub(game.predicate_value(tuple(x)), f0))
        thetas.append(theta)
    for x in game.inputs():
        expected = f0
        for i, xi in enumerate(x):
            expected = group.add(expected, thetas[i][xi])
        if expected != game.predicate_value(x):
            return None
    return thetas


def oracle_separability_check(game):
    """SeparabilityReport by checking, for each player i and question
    x_i, that f with x_i substituted minus f with 0 substituted is the
    same for every choice of the other players' questions."""
    uniform = Fraction(1, game.n_inputs)
    if any(p != uniform for p in game.distribution):
        raise ValidationError(
            "separability analysis applies to uniform total-function games")

    group = game.group
    n = game.players
    offsets = []
    separable = True
    for i in range(n):
        others = [range(q) for j, q in enumerate(game.question_counts) if j != i]
        theta = [group.identity]
        for xi in range(1, game.question_counts[i]):
            delta = None
            for rest in itertools.product(*others):
                x_hi = rest[:i] + (xi,) + rest[i:]
                x_lo = rest[:i] + (0,) + rest[i:]
                d = group.sub(game.predicate_value(x_hi),
                              game.predicate_value(x_lo))
                if delta is None:
                    delta = d
                elif d != delta:
                    separable = False
                    break
            if not separable:
                break
            theta.append(delta)
        if not separable:
            break
        offsets.append(tuple(theta))

    if not separable:
        return SeparabilityReport(False, None, None, None)

    constant = game.predicate_value((0,) * n)
    # Base answers summing to f(0,...,0): give it all to player 1.
    tables = []
    for i in range(n):
        base = constant if i == 0 else group.identity
        tables.append(tuple(group.add(base, t) for t in offsets[i]))
    return SeparabilityReport(True, tuple(offsets), constant,
                              DeterministicStrategy(tuple(tables)))


def oracle_behavior_table(strategy, game):
    """Born rule cell by cell, the first path of strategy_behavior:
    for a pure state with rank-one projectors, contract the state with one
    measurement vector per player; otherwise take tr(rho Pi^1 x ... x
    Pi^n) with the Kronecker product of the projectors."""
    n = game.players
    g = game.group.size
    table = np.empty((game.n_inputs, g**n))
    rank_one = all(strategy.vector(i, x, a) is not None
                   for i in range(n)
                   for x in range(strategy.questions(i))
                   for a in range(strategy.outcomes(i, x)))
    pure_fast = strategy.is_pure and rank_one
    if pure_fast:
        psi = strategy.state.reshape(strategy.dims)
    else:
        rho = strategy.density()
    for row, x in enumerate(game.inputs()):
        for col, answers in enumerate(itertools.product(range(g), repeat=n)):
            if pure_fast:
                amp = psi
                for i in range(n):
                    v = strategy.vector(i, x[i], answers[i])
                    amp = np.tensordot(v.conj(), amp, axes=(0, 0))
                p = abs(complex(amp))**2
            else:
                op = strategy.projector(0, x[0], answers[0])
                for i in range(1, n):
                    op = np.kron(op, strategy.projector(i, x[i], answers[i]))
                p = float(np.trace(rho @ op).real)
            table[row, col] = max(p, 0.0)
    return table


def oracle_success(game, table):
    """sum_x p(x) P(sum_i a_i = f(x) | x), with each answer tuple's sum
    folded through the group's addition."""
    group = game.group
    total = 0.0
    for row, (x, p) in enumerate(zip(game.inputs(), game.distribution)):
        for col, answers in enumerate(
                itertools.product(group.elements(), repeat=game.players)):
            s = group.identity
            for a in answers:
                s = group.add(s, a)
            if s == game.predicate_value(x):
                total += float(p) * table[row, col]
    return total


def oracle_noisy_success(game, strategy, visibility):
    """Success of the strategy rebuilt around the mixed density matrix
    V * rho + (1 - V) * I / D, evaluated by the cell-by-cell Born rule."""
    total = math.prod(strategy.dims)
    rho = (visibility * strategy.density()
           + (1.0 - visibility) * np.eye(total) / total)
    noisy = QuantumStrategy(strategy.dims, rho, strategy.measurements())
    return oracle_success(game, oracle_behavior_table(noisy, game))


def oracle_masked_success(game, table):
    """Winning probability as success_probability computed it before the
    win weights: the answer tuples that sum to f(x) masked in a copy of
    the table, each row summed and weighted by p(x)."""
    wins = (answer_sums(game.group, game.players)
            == game.predicate_indices()[:, None])
    return float(game.probabilities_float()
                 @ np.where(wins, table, 0.0).sum(axis=1))


def oracle_noise_path_success(game, strategy, visibility):
    """Noisy success as noisy_success computed it before the marginal
    noise: V * omega(P) + (1 - V) * omega(P_noise), the noise success
    read from a validated noise_behavior, both by oracle_masked_success."""
    ideal = oracle_masked_success(game, strategy_behavior(strategy, game).table)
    noise = oracle_masked_success(game, noise_behavior(strategy, game).table)
    return visibility * ideal + (1.0 - visibility) * noise


def oracle_tensordot_behavior(strategy, game):
    """The per-player tensordot loop that strategy_behavior ran before
    its operators were laid out at construction: the state, viewed as
    (ket_i, later kets, bra_i, later bras, earlier (question, answer)
    axes), contracted with player i's (questions, outcomes, d_i, d_i)
    stack; a pure state enters as conj(psi) and psi in player 0's step."""
    n, dims = game.players, strategy.dims
    stacks = strategy.measurements()
    if strategy.is_pure:
        psi = strategy.state.reshape(dims[0], -1)
        t = np.tensordot(psi.conj(), stacks[0], ([0], [2]))
        t, first = np.tensordot(psi, t, ([0], [3])), 1
    else:
        t, first = strategy.density(), 0
    for i in range(first, n):
        t = t.reshape(dims[i], math.prod(dims[i + 1:]), dims[i], -1)
        t = np.tensordot(t, stacks[i], ([0, 2], [3, 2]))
    p = np.maximum(t.real.reshape([s for stack in stacks
                                   for s in stack.shape[:2]]), 0.0)
    p = p.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)])
    return p.reshape(game.n_inputs, -1)


def oracle_einsum_noise(strategy, game):
    """White noise as noise_behavior computed it before the marginals were
    stored: tr(Pi)/d_i per call, combined by one einsum."""
    n = game.players
    operands = []
    for i, (stack, d) in enumerate(zip(strategy.measurements(), strategy.dims)):
        operands += [np.trace(stack, axis1=2, axis2=3).real / d, [i, n + i]]
    return np.einsum(*operands, list(range(2 * n))).reshape(game.n_inputs, -1)


def oracle_dot_behavior(strategy, game):
    """strategy_behavior as it ran before each strategy held its Born
    table: the one np.dot per player over operators laid out from the
    measurements as construction once stored them, the clamp, the
    transpose and the reshape over the game's grid, on every call."""
    _check_compatible(strategy, game)
    n, dims = game.players, strategy.dims
    # C-ordered (d_i d_i, questions outcomes), rows (column, row) of Pi;
    # a pure state's player 0 takes conj(psi) against the rows of Pi
    ops = [s.transpose(3, 2, 0, 1).reshape(d * d, -1)
           for s, d in zip(strategy.measurements(), dims)]
    if strategy.is_pure:
        ops[0] = strategy.measurements()[0].transpose(2, 0, 1, 3).reshape(
            dims[0], -1)
        psi = strategy.state.reshape(dims[0], -1)
        t = np.dot(psi.conj().T, ops[0]).reshape(-1, dims[0]).T
        t, first = np.dot(psi.T, t), 1
    else:
        t, first = strategy.density(), 0
    for i in range(first, n):
        t = t.reshape(dims[i], math.prod(dims[i + 1:]), dims[i], -1)
        t = np.dot(t.transpose(1, 3, 0, 2).reshape(-1, dims[i]**2), ops[i])
    p = t.real.reshape([s for m in strategy._marginals for s in m.shape])
    np.maximum(p, 0.0, out=p)
    p = p.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)])
    return Behavior(game.group, game.question_counts,
                    p.reshape(game.n_inputs, -1))


def oracle_noise_table(strategy, game):
    """The white-noise table as noise_behavior and noisy_success built it
    on every call: the outer product of the stored marginals."""
    n, p = game.players, 1.0
    for i, marginal in enumerate(strategy._marginals):
        shape = [1] * (2 * n)
        shape[i], shape[n + i] = marginal.shape
        p = p * marginal.reshape(shape)
    return p.reshape(game.n_inputs, -1)


def oracle_success_pair(game, strategy):
    """(omega, omega_noise) as _success_pair computed them on every call:
    one Born-rule behavior through success_probability, and the win
    weights dotted with a white-noise table built afresh."""
    ideal = success_probability(game, oracle_dot_behavior(strategy, game))
    noise = np.dot(game.win_weights.ravel(),
                   oracle_noise_table(strategy, game).ravel())
    return ideal, float(noise)


def oracle_tensordot_correlators(behavior, group):
    """The full correlator tensor as correlators computed it before: one
    tensordot of each answer axis with conj(chi).T."""
    g, n = group.size, behavior.players
    conj_chi = group.character_table().conj()
    tensor = behavior.table.reshape((-1,) + (g,) * n)
    for _ in range(n):
        tensor = np.tensordot(tensor, conj_chi.T, axes=([1], [0]))
    return tensor.reshape(-1, g**n).T.copy()


def oracle_projector_check(dims, measurements):
    """(player, question) pairs whose outcomes, normalized as
    QuantumStrategy reads them, miss completeness, Hermiticity,
    idempotence or pairwise orthogonality by more than PROJECTOR_TOL,
    one question and one outcome pair at a time; NaN fails."""
    bad = []
    for i, per_player in enumerate(measurements):
        for x, outcomes in enumerate(per_player):
            mats = [_as_projector(raw, dims[i], "")[0] for raw in outcomes]
            errors = [np.abs(sum(mats) - np.eye(dims[i])).max()]
            errors += [np.abs(m - m.conj().T).max() for m in mats]
            errors += [np.abs(m @ m - m).max() for m in mats]
            errors += [np.abs(p @ q).max()
                       for p, q in itertools.combinations(mats, 2)]
            if not np.max(errors) <= PROJECTOR_TOL:
                bad.append((i, x))
    return bad


def _eval_coeff_vector(coeffs, x, d):
    return sum(c * pow(x, e, d) for e, c in enumerate(coeffs)) % d


def oracle_additive_table(rows, d):
    """Each coefficient row evaluated at every x in Z_d by pow, at [row, x]."""
    return np.array([[_eval_coeff_vector(row, x, d) for x in range(d)]
                     for row in rows])


def oracle_round_floats(value):
    """``value`` with every float rounded to 10 significant digits and
    tuples as lists, ready for json.dumps."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {k: oracle_round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [oracle_round_floats(v) for v in value]
    raise TypeError(f"cannot serialize {type(value)!r}")


def oracle_game_document(game):
    """The document of serialize_game with one dict per question: x as a
    list, f as an int for a one-factor group and a list otherwise, p as
    "num/den" on the support only."""
    if game.field is not None:
        group_doc = {"field": {"p": game.field.p, "r": game.field.r}}
    else:
        group_doc = {"cyclic": list(game.group.orders)}
    if game.is_uniform:
        dist_doc = "uniform"
    else:
        dist_doc = {"table": [
            {"x": x, "p": f"{p.numerator}/{p.denominator}"}
            for x, p in zip(game.grid.tolist(), game.distribution) if p > 0]}
    return {
        "players": game.players,
        "questions": list(game.question_counts),
        "group": group_doc,
        "distribution": dist_doc,
        "predicate": {"table": [
            {"x": x, "f": a[0] if len(a) == 1 else list(a)}
            for x, a in zip(game.grid.tolist(), game.predicate)]},
    }


def oracle_fraction_game_document(game):
    """The document of serialize_game as it was built before the
    probabilities were written from the integer weights: one Fraction per
    grid entry through ``game.distribution``, the nonzero ones written."""
    if game.field is not None:
        group_doc = {"field": {"p": game.field.p, "r": game.field.r}}
    else:
        group_doc = {"cyclic": list(game.group.orders)}

    if game.is_uniform:
        dist_doc = "uniform"
    else:
        dist_doc = {"table": Records({
            "x": game.grid[game.weights > 0],
            "p": [f"{p.numerator}/{p.denominator}"
                  for p in game.distribution if p]})}

    residues = (game.residues[:, 0] if len(game.group.orders) == 1
                else game.residues)
    return {
        "players": game.players,
        "questions": list(game.question_counts),
        "group": group_doc,
        "distribution": dist_doc,
        "predicate": {"table": Records({"x": game.grid, "f": residues})},
    }


def oracle_cc_protocol(table, inputs, rng):
    """The protocol with one PR box draw per exponent tuple."""
    d = table.d
    n = table.players
    flat = _flatten_inputs(table.arities, inputs, d)
    mu = interpolate_polynomial(table).coeffs.reshape(-1)
    box = PRBox(n, d)
    totals = [0] * n
    boxes_used = 0
    for exponents in itertools.product(range(d), repeat=table.variables):
        pos = 0
        local = []
        for m in table.arities:
            value = 1
            for j in range(m):
                value = value * pow(flat[pos + j], exponents[pos + j], d) % d
            local.append(value)
            pos += m
        outputs = box_sample(box, tuple(local), rng)
        weight = int(mu[boxes_used])  # same lexicographic order
        for i in range(n):
            totals[i] = (totals[i] + weight * outputs[i]) % d
        boxes_used += 1
    return ProtocolTranscript(boxes_used=boxes_used,
                              local_outputs=tuple(totals),
                              dits=tuple(totals[1:]),
                              result=sum(totals) % d)


def oracle_boxes_runs(table, shots, rng):
    """The report loop of ``lingame boxes run`` before batching: each shot
    draws its inputs, runs oracle_cc_protocol and reads table.value.
    Returns the report's runs and whether every result was correct."""
    runs, correct = [], True
    for _ in range(shots):
        flat = tuple(int(v) for v in rng.integers(0, table.d,
                                                  size=table.variables))
        transcript = oracle_cc_protocol(table, flat, rng)
        expected = table.value(flat)
        correct = correct and transcript.result == expected
        runs.append({"inputs": list(flat), "expected": expected,
                     **transcript.as_dict()})
    return runs, correct


def oracle_protocol_totals(table, inputs, draws):
    """Local totals at [shot, party]: each box's PR target gathered from
    the powers at its exponent tuple, its last output closing its sum, and
    the mu-weighted sum of all n outputs of every box."""
    d, m = table.d, table.variables
    exponents = np.indices((d,) * m).reshape(m, -1)
    targets = _vandermonde(d)[inputs[:, :, None], exponents].prod(axis=1) % d
    last = (targets - draws.sum(axis=2)) % d
    mu = interpolate_polynomial(table).coeffs.reshape(-1)
    return mu @ np.concatenate([draws, last[:, :, None]], axis=2) % d


def serialize_function(table):
    """A function table in the function-file format, the inverse of
    parse_function_file."""
    doc = {"d": table.d, "arities": list(table.arities),
           "table": list(table.values)}
    return games.json_text(doc) + "\n"


def _derive(table, order):
    for variable, times in enumerate(order):
        for _ in range(times):
            table = partial_derivative(table, variable)
    return table


def oracle_reduce_to_pr(table):
    """One interpolation per derivative order, in (total, lex) order."""
    d = table.d
    orders = sorted(itertools.product(range(d), repeat=3),
                    key=lambda o: (sum(o), o))
    for order in orders:
        mu = interpolate_polynomial(_derive(table, order)).coeffs
        lam = int(mu[1, 1, 1])
        if lam == 0:
            continue
        if any(mu[idx] and idx != (1, 1, 1) and sum(1 for e in idx if e) > 1
               for idx in np.ndindex(mu.shape)):
            continue
        g = tuple(int(mu[e, 0, 0]) for e in range(d))
        h = tuple(int(mu[0, e, 0]) if e else 0 for e in range(d))
        s = tuple(int(mu[0, 0, e]) if e else 0 for e in range(d))
        return Reduction(d=d, order=order, lam=lam, g=g, h=h, s=s)
    return None


def oracle_block_reduce_to_pr(table):
    """The orders in (total, lex) order, scored in blocks that double up to
    2^16 coefficients; order o's coefficients are M[p] (M[q] (M[r] f))
    along the three axes, M[o] = W Delta^o mod d."""
    d = table.d
    delta = np.roll(np.eye(d, dtype=int), 1, axis=1) - np.eye(d, dtype=int)
    m = [_vandermonde_inverse(d)]
    for _ in range(d - 1):
        m.append(m[-1] @ delta % d)
    m = np.array(m)
    flat = table.as_array().reshape(d, -1)
    e = np.indices((d, d, d))
    mixed = ((e > 0).sum(axis=0) > 1) & ((e != 1).any(axis=0))
    orders = e.reshape(3, -1)
    orders = orders[:, np.lexsort((*orders[::-1], orders.sum(axis=0)))]
    j, block = 0, 1
    while j < d**3:
        p, q, r = orders[:, j:j + block]
        mu = (m[p].reshape(-1, d) @ flat % d).reshape(-1, d, d, d)
        mu = m[q][:, None] @ mu % d
        mu = mu @ m[r].transpose(0, 2, 1)[:, None] % d
        ok = (mu[:, 1, 1, 1] != 0) & ~((mu != 0) & mixed).any(axis=(1, 2, 3))
        if ok.any():
            c, k = mu[ok.argmax()], j + ok.argmax()
            return Reduction(d, orders[:, k].tolist(), c[1, 1, 1],
                             c[:, 0, 0].tolist(), (0, *c[0, 1:, 0].tolist()),
                             (0, *c[0, 0, 1:].tolist()))
        j, block = j + block, min(2 * block, max(1, 2**16 // d**3))
    return None


def oracle_check_reduction(box, reduction):
    """Cell-by-cell comparison of the derivative table with the form."""
    if box.d != reduction.d:
        raise ValidationError("reduction was computed for a different d")
    derived = _derive(box.table, reduction.order)
    d = box.d
    for x, y, z in itertools.product(range(d), repeat=3):
        expected = (reduction.lam * x * y * z
                    + _eval_coeff_vector(reduction.g, x, d)
                    + _eval_coeff_vector(reduction.h, y, d)
                    + _eval_coeff_vector(reduction.s, z, d)) % d
        if derived.value((x, y, z)) != expected:
            raise ValidationError(
                "reduction does not match the box's derivative table")


def oracle_simulate_pr(box, reduction, inputs, rng):
    """One functional-box draw per derivative bit pattern."""
    oracle_check_reduction(box, reduction)
    d = box.d
    x, y, z = _flatten_inputs(box.arities, inputs, d)
    o1, o2, o3 = reduction.order
    total = o1 + o2 + o3
    shares = [0, 0, 0]
    for bits in itertools.product((0, 1), repeat=total):
        shifts = (sum(bits[:o1]), sum(bits[o1:o1 + o2]), sum(bits[o1 + o2:]))
        sign = 1 if (total - sum(bits)) % 2 == 0 else d - 1
        outputs = box_sample(box, ((x + shifts[0]) % d, (y + shifts[1]) % d,
                                   (z + shifts[2]) % d), rng)
        for i in range(3):
            shares[i] = (shares[i] + sign * outputs[i]) % d
    lam_inv = pow(reduction.lam, -1, d)
    a = lam_inv * (shares[0] - _eval_coeff_vector(reduction.g, x, d)) % d
    b = lam_inv * (shares[1] - _eval_coeff_vector(reduction.h, y, d)) % d
    c = lam_inv * (shares[2] - _eval_coeff_vector(reduction.s, z, d)) % d
    k = int(rng.integers(0, d))
    return ((a + k) % d, (b + k) % d, (c - 2 * k) % d)


def oracle_box_behavior_table(box):
    """The box's behavior table from one box.target call per input."""
    d, n = box.d, box.players
    targets = np.array([box.target(flat) for flat in
                        itertools.product(range(d), repeat=sum(box.arities))])
    wins = answer_sums(AbelianGroup((d,)), n) == targets[:, None]
    return np.where(wins, 1.0 / d**(n - 1), 0.0)


def modular_inverse_matrix(mat, p):
    """Gauss-Jordan inverse of an integer matrix modulo a prime."""
    n = len(mat)
    a = [[int(v) % p for v in row] for row in mat]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] % p), None)
        if pivot is None:
            raise ValidationError("matrix is singular modulo p")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = pow(a[col][col], -1, p)
        a[col] = [v * scale % p for v in a[col]]
        inv[col] = [v * scale % p for v in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [(v - factor * w) % p for v, w in zip(a[r], a[col])]
                inv[r] = [(v - factor * w) % p for v, w in zip(inv[r], inv[col])]
    return np.array(inv, dtype=np.int64)


def _oracle_fraction(value):
    return Fraction(repr(value)) if isinstance(value, float) else Fraction(value)


def oracle_make_game(group, questions, predicate, distribution="uniform"):
    """The game data as the per-question builder made it: the question
    grid from itertools.product, one Fraction per question tuple, den the
    lcm of their denominators, and every predicate value coerced on its
    own.  Inputs are assumed valid."""
    grid = list(itertools.product(*(range(q) for q in questions)))
    if callable(predicate):
        f_values = [predicate(x) for x in grid]
    elif isinstance(predicate, dict):
        f_values = [predicate[x] for x in grid]
    else:
        f_values = list(predicate)
    if isinstance(distribution, str):
        dist = [Fraction(1, len(grid))] * len(grid)
    elif isinstance(distribution, dict) and set(distribution) == {"support"}:
        support = {tuple(x) for x in distribution["support"]}
        dist = [Fraction(int(x in support), len(support)) for x in grid]
    elif isinstance(distribution, dict):
        table = {tuple(x): _oracle_fraction(v) for x, v in distribution.items()}
        dist = [table.get(x, Fraction(0)) for x in grid]
    else:
        dist = [_oracle_fraction(p) for p in distribution]
    den = math.lcm(*(p.denominator for p in dist))
    weights = [p.numerator * (den // p.denominator) for p in dist]
    predicate = tuple(group.coerce(a) for a in f_values)
    return SimpleNamespace(
        grid=np.array(grid, dtype=np.intp), residues=np.array(predicate, dtype=np.intp),
        weights=np.array(weights, dtype=np.int64 if den < 2**53 else object),
        den=den, distribution=tuple(dist), predicate=predicate)


def oracle_chsh_predicate(field):
    """f(x) = sum_{i<j} x_i * x_j by FiniteField.add and FiniteField.mul,
    questions read as field elements in enumeration order."""
    def f(x):
        elems = [field.element(q) for q in x]
        total = field.zero
        for i in range(len(elems)):
            for j in range(i + 1, len(elems)):
                total = field.add(total, field.mul(elems[i], elems[j]))
        return total
    return f


def oracle_deterministic_table(strategy, group, question_counts):
    """The behavior table of a deterministic strategy, one row per question
    tuple, the answer column found by a base-|G| loop."""
    n = len(question_counts)
    table = np.zeros((math.prod(question_counts), group.size**n))
    for row, x in enumerate(itertools.product(*(range(q) for q in question_counts))):
        column = 0
        for i in range(n):
            column = column * group.size + group.index(strategy.outputs[i][x[i]])
        table[row, column] = 1.0
    return table


def parse_report(text):
    """Parse a --json report back into a dict."""
    doc = games._decode(text)
    if not isinstance(doc, dict) or doc.get("schema") != cli.SCHEMA:
        raise GameFormatError(f"not a {cli.SCHEMA} report")
    return doc


def quantum_bound_partition(game, s_players):
    """The norm bound for one bipartition (raw, not clamped)."""
    s = games._side(game.players, s_players, "partition")
    return oracle_partition_bound(qbounds.game_tensor(game), game, s).raw


def evaluate_polynomial(coeffs, variables):
    """Value of an interpolated polynomial at one point."""
    variables = as_int_tuple(variables, "input symbols")
    if len(variables) != sum(coeffs.arities):
        raise ValidationError(
            f"expected {sum(coeffs.arities)} variables, got {len(variables)}")
    v = _vandermonde(coeffs.d)
    acc = coeffs.coeffs
    for x in variables:
        if not 0 <= x < coeffs.d:
            raise ValidationError(f"input symbol {x} outside Z_{coeffs.d}")
        acc = np.tensordot(acc, v[x], axes=([0], [0])) % coeffs.d
    return int(acc)


def polynomial_table(coeffs):
    """Evaluate a polynomial on the whole grid, back into a table."""
    v = _vandermonde(coeffs.d)
    arr = coeffs.coeffs
    for _ in range(sum(coeffs.arities)):
        arr = np.tensordot(arr, v, axes=([0], [1])) % coeffs.d
    return FunctionTable(coeffs.d, coeffs.arities, arr.reshape(-1))


def _oracle_is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _oracle_weights(distribution, questions):
    """(weights, den) of a make_game distribution, Python ints off the
    uniform and support forms."""
    n_inputs = math.prod(questions)
    if isinstance(distribution, str):
        if distribution != "uniform":
            raise ValidationError(f"unknown distribution {distribution!r}")
        return np.ones(n_inputs, dtype=np.int64), n_inputs
    if isinstance(distribution, dict) and set(distribution) == {"support"}:
        support = [tuple(x) for x in distribution["support"]]
        if not support:
            raise ValidationError("distribution support is empty")
        weights = np.zeros(n_inputs, dtype=np.int64)
        for x in support:
            i = games._position(x, questions, "support input")
            if weights[i]:
                raise ValidationError(f"support input {x!r} listed twice")
            weights[i] = 1
        return weights, len(support)
    if isinstance(distribution, dict):
        table = {games._position(tuple(x), questions, "distribution input"):
                 games._as_fraction(p) for x, p in distribution.items()}
    else:
        table = dict(enumerate(map(games._as_fraction, distribution)))
        n_inputs = len(table)
    den = math.lcm(*(p.denominator for p in table.values()))
    weights = np.zeros(n_inputs, dtype=object)
    for i, p in table.items():
        weights[i] = p.numerator * (den // p.denominator)
    return weights, den


def _oracle_parse_input(raw, questions, path):
    if (not isinstance(raw, list) or len(raw) != len(questions)
            or not all(_oracle_is_int(q) for q in raw)):
        raise GameFormatError(
            f"{path}: expected a question tuple of length {len(questions)}")
    x = tuple(raw)
    if any(not 0 <= q < n for q, n in zip(x, questions)):
        raise GameFormatError(f"{path}: question tuple {list(x)} out of range")
    return x


def _oracle_parse_element(raw, group, path):
    if isinstance(raw, bool):
        raise GameFormatError(f"{path}: expected a group element, got {raw!r}")
    if isinstance(raw, int):
        raw = [raw]
    if not isinstance(raw, list) or not all(_oracle_is_int(c) for c in raw):
        raise GameFormatError(f"{path}: expected a group element, got {raw!r}")
    try:
        return group.coerce(tuple(raw))
    except ValueError as e:
        raise GameFormatError(f"{path}: {e}") from None


def _oracle_parse_table(entries, questions, path, key, parse_value):
    if not isinstance(entries, list):
        raise GameFormatError(f"{path}: expected a list")
    table = {}
    for i, entry in enumerate(entries):
        where = f"{path}[{i}]"
        games._expect_keys(entry, {"x", key}, path=where)
        x = _oracle_parse_input(entry["x"], questions, f"{where}.x")
        if x in table:
            raise GameFormatError(f"{where}: duplicate input {list(x)}")
        table[x] = parse_value(entry[key], f"{where}.{key}")
    return table


def oracle_parse_game_file(text):
    """The game-file reader with question-tuple dicts: the distribution
    goes through ``_oracle_weights``, make_game's former conversion, and
    the predicate is sorted back into grid order."""
    doc = games._read_document(text, games._GAME_KEYS)
    players = doc["players"]
    if not _oracle_is_int(players) or players < 2:
        raise GameFormatError(f"players: expected an integer >= 2, got {players!r}")
    questions = doc["questions"]
    if (not isinstance(questions, list) or len(questions) != players
            or not all(_oracle_is_int(q) and q >= 1 for q in questions)):
        raise GameFormatError(
            f"questions: expected {players} integers >= 1, got {questions!r}")
    questions = tuple(questions)
    group, field = games._parse_group(doc["group"])

    raw_dist = doc["distribution"]
    if raw_dist == "uniform":
        dist = raw_dist
    elif isinstance(raw_dist, dict) and set(raw_dist) == {"support"}:
        support = games._nonempty_list(raw_dist["support"], "distribution.support",
                                       "a non-empty list")
        seen = {}
        for i, raw_x in enumerate(support):
            x = _oracle_parse_input(raw_x, questions, f"distribution.support[{i}]")
            if x in seen:
                raise GameFormatError(
                    f"distribution.support[{i}]: duplicate input {list(x)}")
            seen[x] = None
        dist = {"support": list(seen)}
    elif isinstance(raw_dist, dict) and set(raw_dist) == {"table"}:
        dist = _oracle_parse_table(raw_dist["table"], questions,
                                   "distribution.table", "p",
                                   games._parse_probability)
    else:
        raise GameFormatError(
            'distribution: expected "uniform", {"support": ...} or {"table": ...}')

    raw_pred = doc["predicate"]
    if isinstance(raw_pred, dict) and set(raw_pred) == {"table"}:
        predicate = _oracle_parse_table(
            raw_pred["table"], questions, "predicate.table", "f",
            lambda raw, path: _oracle_parse_element(raw, group, path))
        if len(predicate) < math.prod(questions):
            missing = [x for x in itertools.product(*map(range, questions))
                       if x not in predicate]
            raise GameFormatError(
                f"predicate.table: missing input(s) {[list(x) for x in missing[:5]]}"
                f"{' ...' if len(missing) > 5 else ''} (the predicate must be total)")
        f_index = [group.index(predicate[x]) for x in sorted(predicate)]
    elif isinstance(raw_pred, dict) and set(raw_pred) == {"builtin"}:
        f_index, field = games._parse_builtin(raw_pred["builtin"], group, field,
                                              questions)
    else:
        raise GameFormatError(
            'predicate: expected {"table": ...} or {"builtin": ...}')

    try:
        return games.LinearGame(group, questions, f_index,
                                *_oracle_weights(dist, questions), field=field)
    except ValidationError as e:
        raise GameFormatError(str(e)) from None
