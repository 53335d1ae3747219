"""Per-layer tracing from outside the program.

For the traced run the benchmark replaces lingame's public functions with
timing wrappers, in every module namespace where a caller looks them up
(``max_singular_value`` is called from ``qbounds`` and from ``diew``, so
it is wrapped in both).  No file of lingame changes.  A function that a
later version deletes is reported as absent.

Each layer records calls, inclusive time and self time (inclusive minus
the time spent in nested wrapped calls), both scaled to reference speed,
plus work counts computed from the arguments and results.
"""

from __future__ import annotations

import importlib
import math
import time


def _classical_assignments(args, kwargs, result):
    game = args[0]
    return math.prod(game.group.size ** q for q in game.question_counts[1:])


def _lone_assignments(args, kwargs, result):
    """Sum over the lone players examined of |G|^Q_lone."""
    game = args[0]
    lone = kwargs.get("lone", args[1] if len(args) > 1 else None)
    lones = range(game.players) if lone is None else (lone,)
    return sum(game.group.size ** game.question_counts[i] for i in lones)


# metric prefix -> (namespaces "module" or "module:Class", attribute,
#                   work counts {name: fn(args, kwargs, result)})
LAYERS = {
    "games.build": (["lingame.games:LinearGame"], "__init__", {}),
    "games.success": (["lingame.games", "lingame.strategies", "lingame.values"],
                      "success_probability", {}),
    "algebra.character_table": (["lingame.algebra:AbelianGroup"],
                                "character_table", {}),
    "values.classical": (["lingame.values"], "classical_value",
                         {"assignments": _classical_assignments}),
    "values.svetlichny": (["lingame.values"], "svetlichny_value",
                          {"assignments": _lone_assignments}),
    "values.separability": (["lingame.values"], "separability_check", {}),
    "qbounds.quantum_bound": (["lingame.qbounds"], "quantum_bound", {}),
    "qbounds.game_matrix": (["lingame.qbounds"], "game_matrix",
                            {"entries": lambda a, k, r: r.size}),
    "linalg.max_singular_value": (
        ["lingame.linalg", "lingame.qbounds", "lingame.diew"],
        "max_singular_value",
        {"entries": lambda a, k, r: getattr(a[0], "size", 0)}),
    "diew.biseparable_bound": (["lingame.diew"], "biseparable_bound",
                               {"assignments": lambda a, k, r:
                                   _lone_assignments(a[:1], {}, r)}),
    "diew.biseparable_matrix": (["lingame.diew"], "biseparable_matrix", {}),
    "diew.visibility_threshold": (["lingame.diew"], "visibility_threshold", {}),
    "strategies.behavior": (["lingame.strategies", "lingame.cli"],
                            "strategy_behavior",
                            {"entries": lambda a, k, r: r.table.size}),
    "strategies.noisy_success": (["lingame.strategies"], "noisy_success", {}),
    "strategies.correlators": (["lingame.strategies"], "correlators", {}),
    "boxworld.cc_protocol": (["lingame.boxworld"], "cc_protocol",
                             {"box_uses": lambda a, k, r: a[0].d ** a[0].variables}),
    "boxworld.box_sample": (["lingame.boxworld"], "box_sample", {}),
    "boxworld.interpolate": (["lingame.boxworld"], "interpolate_polynomial", {}),
    "boxworld.reduce_to_pr": (["lingame.boxworld"], "reduce_to_pr", {}),
    "boxworld.simulate_pr": (["lingame.boxworld"], "simulate_pr_from_functional", {}),
    "boxworld.box_behavior": (["lingame.boxworld"], "box_behavior", {}),
    "cli.main": (["lingame.cli"], "main", {}),
}

# Metrics reported per layer, beyond calls and ms.
EXTRA = {
    "games.build": ["setup_calls", "setup_ms"],
    "qbounds.quantum_bound": ["self_ms"],
    "qbounds.game_matrix": ["entries"],
    "linalg.max_singular_value": ["entries", "failed"],
    "values.classical": ["assignments"],
    "values.svetlichny": ["assignments"],
    "diew.biseparable_bound": ["self_ms", "assignments"],
    "strategies.behavior": ["entries"],
    "boxworld.cc_protocol": ["box_uses"],
    "cli.main": ["self_ms"],
}
UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms", "entries": "count",
         "failed": "count", "assignments": "count", "box_uses": "count",
         "setup_calls": "count", "setup_ms": "ms"}


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for prefix in LAYERS:
        for what in ["calls", "ms"] + EXTRA.get(prefix, []):
            out.append((f"{prefix}.{what}", UNITS[what]))
    out += [("cli.report_bytes", "bytes"), ("bench.trace_overhead_ms", "ms"),
            ("bench.reference_ms", "ms")]
    return out


def _owner(spec):
    module, _, cls = spec.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


TIMES = ("ms", "self_ms")


class Tracer:
    """Installs wrappers while active and accumulates per-layer figures.
    Figures of the running job are kept apart until ``end_job`` scales its
    times to reference speed and adds them to the totals."""

    def __init__(self):
        self.counts = {}
        self._job = {}
        self._stack = []
        self._installed = []
        self.present = set()
        self._plan = []
        for prefix, (owners, attr, work) in LAYERS.items():
            originals = {}
            for spec in owners:
                owner = _owner(spec)
                if owner is not None and attr in vars(owner):
                    originals[spec] = (owner, vars(owner)[attr])
            if originals:
                self.present.add(prefix)
                self._plan.append((prefix, attr, work, originals))

    def _wrap(self, prefix, fn, work):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]                    # wall time of nested wrapped calls
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            failed = False
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                failed = True
                raise
            finally:
                wall = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += wall
                j = tracer._job
                j[f"{prefix}.calls"] = j.get(f"{prefix}.calls", 0) + 1
                j[f"{prefix}.ms"] = j.get(f"{prefix}.ms", 0.0) + 1e3 * wall
                j[f"{prefix}.self_ms"] = (j.get(f"{prefix}.self_ms", 0.0)
                                          + 1e3 * (wall - frame[0]))
                j[f"{prefix}.failed"] = j.get(f"{prefix}.failed", 0) + failed
                if not failed:
                    for name, count in work.items():
                        j[f"{prefix}.{name}"] = (j.get(f"{prefix}.{name}", 0)
                                                 + count(args, kwargs, result))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for prefix, attr, work, originals in self._plan:
            wrappers = {}
            for spec, (owner, fn) in originals.items():
                # One wrapper per function object, shared by its namespaces.
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(prefix, fn, work)
                setattr(owner, attr, wrappers[id(fn)])
                self._installed.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def end_job(self, factor):
        for key, value in self._job.items():
            if key.rsplit(".", 1)[1] in TIMES:
                value *= factor
            self.counts[key] = self.counts.get(key, 0) + value
        self._job = {}

    def take(self):
        """Figures accumulated since the last call, and reset."""
        counts, self.counts = self.counts, {}
        return counts
