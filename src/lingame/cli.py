"""Command-line front end.

Subcommands:

    lingame analyze <game> [--strategy S]     full value/bound report
    lingame chsh --players N --outcomes D     analytic vs numeric bound
    lingame diew <game> [--strategy S]        entanglement witness report
    lingame separable <game>                  additive-separability check
    lingame boxes run <function> [--shots K] [--seed S]
    lingame boxes reduce <function>

Flags: every subcommand takes --json (machine-readable report);
analyze and diew take --cap N (enumeration cap); analyze, chsh and diew
take --tolerance EPS (agreement/witness margin).  A flag that a
subcommand does not read is a usage error.  Exit codes: 0 success, 1
validation or usage error, 2 enumeration cap exceeded.

JSON reports carry a versioned ``schema`` field, sorted keys, and floats
rounded to 10 significant digits; they contain no timings, so identical
inputs and seeds give byte-identical output.  Human-readable output
rounds to 6 significant digits and includes wall-clock timings.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

import numpy as np

from . import boxworld, diew, games, qbounds, values
from .errors import (GameFormatError, NoThresholdError, ResourceLimitError,
                     ValidationError)
from .strategies import _success_pair, load_strategy
from .tolerances import SANDWICH_TOL, WITNESS_MARGIN

SCHEMA = "lingame/1"


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _non_negative(convert, what):
    """An argparse type: ``convert(text)`` when it is finite and at least
    0, else a usage error naming ``what``."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not 0 <= value < math.inf:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


def _emit(args, doc, human_lines):
    if args.json:
        text = games.json_text({**doc, "schema": SCHEMA}, sort_keys=True)
        sys.stdout.write(text + "\n")
    else:
        for line in human_lines:
            sys.stdout.write(line + "\n")
    return 0


def _fraction_fields(frac):
    return {"rational": str(frac), "value": float(frac)}


def _element_str(element):
    return ",".join(str(v) for v in element)


def _witness_json(strategy):
    return [[list(e) for e in per_player] for per_player in strategy.outputs]


def _group_label(game):
    label = "x".join(f"Z{d}" for d in game.group.orders)
    if game.field is not None and game.field.r > 1:
        label += f" (GF({game.field.p}^{game.field.r}))"
    return label


def _game_json(game):
    return {"hash": games.game_hash(game), "players": game.players,
            "group": list(game.group.orders),
            "questions": list(game.question_counts)}


def _part_json(part, **fields):
    return {**fields, "raw": part.raw, "value": part.value,
            "norms": {_element_str(k): v for k, v in part.norms.items()}}


def _partition_json(report):
    return [_part_json(part, players=list(part.players))
            for part in report.partitions]


def _biseparable_json(report):
    rows = [_part_json(part, lone=part.lone,
                       assignment=[list(a) for a in part.assignment])
            for part in report.partitions]
    return {"bound": report.bound, "raw": report.raw_bound,
            "best_lone": report.best_lone, "partitions": rows}


def _cap_kw(args):
    # None means each operation keeps its own default cap
    return {} if args.cap is None else {"cap": args.cap}


def _strategy_section(game, strategy, report, margin):
    """The --strategy section of a report and its human lines.  The
    verdict and the visibility threshold compare the observed success,
    clamped to 1, with the biseparable ``report``; without one (the game
    is not tripartite) only the success is given."""
    observed, base = _success_pair(game, strategy)
    section = {"success": observed}
    human = [f"strategy        success {observed:.6g}"]
    if report is not None:
        result = diew.witness_verdict(game, min(observed, 1.0), margin=margin,
                                      report=report)
        try:
            threshold = diew._threshold(observed, base, report.bound)
        except NoThresholdError:
            threshold = None
        section.update(verdict=result.verdict.name, gap=result.gap,
                       visibility_threshold=threshold)
        human.append(f"verdict         {result.verdict.value} "
                     f"(gap {result.gap:.6g})")
        if threshold is not None:
            human.append(f"visibility      threshold {threshold:.6g}")
    return section, human


def _read(load, path):
    """``load(path)``, with an unreadable file as a ValidationError."""
    try:
        return load(path)
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e.strerror}") from None


def _timed(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the wall-clock seconds it took."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def cmd_analyze(args):
    game = _read(games.load_game, args.game)
    timings, cap = {}, _cap_kw(args)

    classical, timings["classical"] = _timed(values.classical_value, game, **cap)
    ns_value = values.NO_SIGNALING_VALUE
    bound, timings["quantum_bound"] = _timed(qbounds.quantum_bound, game)

    doc = {
        "command": "analyze",
        "game": _game_json(game),
        "classical": {**_fraction_fields(classical.value),
                      "witness": _witness_json(classical.strategy)},
        "no_signaling": float(ns_value),
        "quantum_bound": {
            "value": bound.bound,
            "raw": bound.raw_bound,
            "best_partition": list(bound.best_partition),
            "partitions": _partition_json(bound),
        },
    }
    human = [
        f"game            {args.game}",
        f"hash            {doc['game']['hash'][:16]}",
        f"players         {game.players}   group {_group_label(game)}   "
        f"questions {','.join(map(str, game.question_counts))}",
        f"classical       {float(classical.value):.6g} "
        f"({classical.value})   [{timings['classical']:.3f} s]",
        f"no-signaling    {float(ns_value):.6g}",
        f"quantum bound   {bound.bound:.6g} (raw {bound.raw_bound:.6g}, "
        f"partition {{{','.join(map(str, bound.best_partition))}}})   "
        f"[{timings['quantum_bound']:.3f} s]",
    ]

    sandwich_ok = float(classical.value) <= bound.bound + SANDWICH_TOL
    bisep = None
    if game.players == 3:
        svet, timings["svetlichny"] = _timed(values.svetlichny_value, game, **cap)
        bisep, timings["biseparable"] = _timed(diew.biseparable_bound, game, **cap)
        doc["svetlichny"] = _fraction_fields(svet)
        doc["biseparable"] = _biseparable_json(bisep)
        sandwich_ok = (sandwich_ok
                       and float(classical.value) <= bisep.bound + SANDWICH_TOL
                       and bisep.bound <= bound.bound + SANDWICH_TOL)
        human.append(f"svetlichny      {float(svet):.6g} ({svet})   "
                     f"[{timings['svetlichny']:.3f} s]")
        human.append(f"biseparable     {bisep.bound:.6g} "
                     f"(lone player {bisep.best_lone})   "
                     f"[{timings['biseparable']:.3f} s]")
    doc["sandwich_ok"] = bool(sandwich_ok)
    human.append(f"sandwich        {'ok' if sandwich_ok else 'VIOLATED'}")

    if args.strategy:
        doc["strategy"], lines = _strategy_section(
            game, _read(load_strategy, args.strategy), bisep, args.tolerance)
        human += lines
    return _emit(args, doc, human)


def cmd_chsh(args):
    analytic = qbounds.chsh_bound_analytic(args.players, args.outcomes)
    game = games.chsh_game(args.players, args.outcomes)
    bound, elapsed = _timed(qbounds.quantum_bound, game)
    agreement = abs(bound.bound - analytic) <= args.tolerance
    doc = {
        "command": "chsh",
        "players": args.players,
        "outcomes": args.outcomes,
        "analytic_bound": analytic,
        "numeric_bound": bound.bound,
        "agreement": bool(agreement),
        "game_hash": games.game_hash(game),
        "partitions": _partition_json(bound),
    }
    human = [
        f"players         {args.players}   outcomes {args.outcomes}",
        f"analytic bound  {analytic:.6g}",
        f"numeric bound   {bound.bound:.6g}   [{elapsed:.3f} s]",
        f"agreement       {'ok' if agreement else 'MISMATCH'} "
        f"(tolerance {args.tolerance:g})",
    ]
    return _emit(args, doc, human)


def cmd_diew(args):
    game = _read(games.load_game, args.game)
    report, elapsed = _timed(diew.biseparable_bound, game, **_cap_kw(args))
    doc = {
        "command": "diew",
        "game": _game_json(game),
        "biseparable": _biseparable_json(report),
    }
    human = [
        f"game            {args.game}",
        f"biseparable     {report.bound:.6g} (raw {report.raw_bound:.6g}, "
        f"lone player {report.best_lone})   [{elapsed:.3f} s]",
    ]
    if args.strategy:
        doc["strategy"], lines = _strategy_section(
            game, _read(load_strategy, args.strategy), report, args.tolerance)
        human += lines
    return _emit(args, doc, human)


def cmd_separable(args):
    game = _read(games.load_game, args.game)
    report, elapsed = _timed(values.separability_check, game)
    doc = {"command": "separable",
           "game": _game_json(game),
           "separable": report.separable}
    human = [f"game            {args.game}",
             f"separable       {'yes' if report.separable else 'no'}   "
             f"[{elapsed:.3f} s]"]
    if report.separable:
        doc["offsets"] = [[list(report.offsets[i][x])
                           for x in range(game.question_counts[i])]
                          for i in range(game.players)]
        doc["constant"] = list(report.constant)
        doc["witness"] = _witness_json(report.strategy)
        human.append("                a winning classical strategy exists")
    return _emit(args, doc, human)


def cmd_boxes_run(args):
    table = _read(boxworld.load_function, args.function)
    rng = np.random.default_rng(args.seed)
    (inputs, totals), elapsed = _timed(boxworld.protocol_runs, table, args.shots, rng)
    expected = table.as_array()[tuple(inputs.T)]
    results = totals.sum(axis=1) % table.d
    correct = bool((results == expected).all())
    boxes, dits = table.d ** table.variables, table.players - 1
    runs = games.Records({"inputs": inputs, "expected": expected,
                          "boxes_used": np.full(args.shots, boxes),
                          "local_outputs": totals, "dits": totals[:, 1:],
                          "dits_communicated": np.full(args.shots, dits),
                          "result": results})
    doc = {"command": "boxes run",
           "d": table.d,
           "arities": list(table.arities),
           "seed": args.seed,
           "shots": args.shots,
           "boxes_per_run": boxes,
           "dits_per_run": dits,
           "all_correct": correct,
           "runs": runs}
    human = [
        f"function        {args.function} (d={table.d}, "
        f"arities {','.join(map(str, table.arities))})",
        f"shots           {args.shots} (seed {args.seed})",
        f"boxes per run   {doc['boxes_per_run']}",
        f"dits per run    {doc['dits_per_run']}",
        f"all correct     {'yes' if correct else 'NO'}   [{elapsed:.3f} s]",
    ]
    return _emit(args, doc, human)


def cmd_boxes_reduce(args):
    table = _read(boxworld.load_function, args.function)
    reduction, elapsed = _timed(boxworld.reduce_to_pr, table)
    doc = {"command": "boxes reduce",
           "d": table.d,
           "arities": list(table.arities),
           "reducible": reduction is not None}
    human = [f"function        {args.function}",
             f"reducible       {'yes' if reduction else 'no'}   "
             f"[{elapsed:.3f} s]"]
    if reduction is not None:
        doc["reduction"] = {"order": list(reduction.order),
                            "lambda": reduction.lam,
                            **{k: list(getattr(reduction, k)) for k in "ghs"}}
        human += [f"derivative      order {','.join(map(str, reduction.order))}",
                  f"lambda          {reduction.lam}"]
        human += [f"{k} coefficients  {','.join(map(str, doc['reduction'][k]))}"
                  for k in "ghs"]
    return _emit(args, doc, human)


@functools.lru_cache(maxsize=1)
def _build_parser():
    common, cap, tolerance = (_Parser(add_help=False) for _ in range(3))
    common.add_argument("--json", action="store_true",
                        help="machine-readable report on stdout")
    cap.add_argument("--cap", default=None,
                     type=_non_negative(int, "a non-negative integer"),
                     help="enumeration cap override")
    tolerance.add_argument("--tolerance", default=WITNESS_MARGIN,
                           type=_non_negative(float,
                                              "a finite non-negative number"),
                           help="agreement/witness margin (default %(default)g)")

    parser = _Parser(prog="lingame",
                     description="Linear nonlocal games over finite "
                                 "Abelian groups: values, bounds, "
                                 "witnesses and box protocols.")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("analyze", parents=[common, cap, tolerance],
                       help="full value and bound report for a game file")
    p.add_argument("game")
    p.add_argument("--strategy", default=None,
                   help="strategy file to evaluate against the game")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("chsh", parents=[common, tolerance],
                       help="analytic vs numeric bound for the additive "
                            "pairwise-product game")
    p.add_argument("--players", type=int, required=True)
    p.add_argument("--outcomes", type=int, required=True)
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("diew", parents=[common, cap, tolerance],
                       help="biseparable bound and witness verdict")
    p.add_argument("game")
    p.add_argument("--strategy", default=None)
    p.set_defaults(func=cmd_diew)

    p = sub.add_parser("separable", parents=[common],
                       help="additive-separability check")
    p.add_argument("game")
    p.set_defaults(func=cmd_separable)

    boxes = sub.add_parser("boxes", help="nonlocal box protocols")
    boxes_sub = boxes.add_subparsers(dest="boxcommand", required=True,
                                     parser_class=_Parser)
    p = boxes_sub.add_parser("run", parents=[common],
                             help="run the communication protocol")
    p.add_argument("function")
    p.add_argument("--shots", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_boxes_run)
    p = boxes_sub.add_parser("reduce", parents=[common],
                             help="search for a PR-box reduction")
    p.add_argument("function")
    p.set_defaults(func=cmd_boxes_reduce)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as e:
        print(f"lingame: resource cap exceeded: {e}", file=sys.stderr)
        return 2
    except (GameFormatError, ValidationError, NoThresholdError) as e:
        print(f"lingame: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
