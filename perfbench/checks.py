"""Output checks, computed before and after the timed passes.

A checker builds its references from ``independent`` (never from lingame)
before timing starts, then checks every job result of every pass.  The
seed-independent classical values that need long enumerations (the chsh
grid and GHZ3) are cached in ``references.json``; rebuild them with

    python3 perfbench/checks.py --rebuild

Results that must hold as properties of the method (a witness strategy
replays to its value, classical <= biseparable <= quantum bound, a
simulated PR sample satisfies a + b + c = xyz) are checked as well.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import independent as ind

REFERENCE_FILE = Path(__file__).with_name("references.json")
BOUND_TOL = 1e-9        # bounds vs numpy SVD and the closed form
PROB_TOL = 1e-12        # Born-rule probabilities and success identities


def load_references():
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _classical(refs, name, gd):
    """The cached classical value of a game, or a full enumeration."""
    entry = refs["classical"].get(name)
    if entry is None:
        return ind.classical_full(gd)
    if entry["fingerprint"] != gd.fingerprint():
        raise ValueError(f"cached classical reference for {name} is stale; "
                         f"rebuild references.json")
    return Fraction(entry["value"])


class Checker:
    """Checks for one workload.  ``check`` returns a list of problems for
    one job result; a CLI report is also compared with the same call's
    report from earlier passes."""

    def __init__(self, workload):
        self.workload = workload
        self.pass_inputs = {}
        self._texts = {}
        getattr(self, f"_prepare_{workload.name}")()

    def check(self, job, result):
        return getattr(self, f"_check_{job.kind}")(job, result)

    def _same_bytes(self, job, text):
        first = self._texts.setdefault(job.label, text)
        return [] if first == text else [
            f"{job.label}: --json report differs between two calls"]

    # -- exact ---------------------------------------------------------

    def _prepare_exact(self):
        refs = load_references()
        self.data = {}
        self.classical = {}
        self.svetlichny = {}
        for name, game in self.workload.inputs["games"].items():
            gd = ind.GameData.of(game)
            self.data[id(game)] = gd
            self.classical[id(game)] = _classical(refs, name, gd)
            if gd.n == 3:
                self.svetlichny[id(game)] = ind.svetlichny_full(gd)

    def _replay(self, gd, strategy):
        index = {a: i for i, a in enumerate(gd.elements)}
        return ind.replay(gd, strategy.outputs, lambda a: index[tuple(a)])

    def _check_classical(self, job, result):
        gd = self.data[id(job.subject)]
        ref = self.classical[id(job.subject)]
        out = []
        if result.value != ref:
            out.append(f"{job.label}: value {result.value} != enumeration {ref}")
        replayed = self._replay(gd, result.strategy)
        if replayed != result.value:
            out.append(f"{job.label}: witness replays to {replayed}, "
                       f"not {result.value}")
        if result.value > 1:
            out.append(f"{job.label}: value {result.value} exceeds 1")
        return out

    def _check_svetlichny(self, job, result):
        ref = self.svetlichny[id(job.subject)]
        out = []
        if result != ref:
            out.append(f"{job.label}: value {result} != enumeration {ref}")
        if not self.classical[id(job.subject)] <= result <= 1:
            out.append(f"{job.label}: value {result} outside [classical, 1]")
        return out

    def _check_separability(self, job, result):
        gd = self.data[id(job.subject)]
        expected = ind.is_separable(gd)
        built = job.extra.get("built_separable")
        out = []
        if result.separable != expected or (built is not None
                                            and built != expected):
            out.append(f"{job.label}: separable={result.separable}, "
                       f"difference test {expected}, built {built}")
        if result.separable and self._replay(gd, result.strategy) != 1:
            out.append(f"{job.label}: separable strategy does not always win")
        return out

    # -- spectral ------------------------------------------------------

    def _prepare_spectral(self):
        refs = load_references()
        self.data, self.qref, self.bref, self.classical = {}, {}, {}, {}
        bisep = {id(job.subject) for job in self.workload.jobs
                 if job.kind == "biseparable_bound"}
        for name, game in self.workload.inputs["games"].items():
            gd = ind.GameData.of(game)
            self.data[id(game)] = gd
            self.qref[id(game)] = ind.quantum_bound(gd)
            if name.startswith("chsh"):
                n, d = map(int, name[5:-1].split(","))
                if not np.array_equal(gd.f, ind.chsh_predicate(n, d)):
                    raise ValueError(f"{name}: predicate is not sum x_i x_j")
                self.qref[id(game)] += (ind.chsh_closed_form(d),)
            if id(game) in bisep:
                self.bref[id(game)] = ind.biseparable_bound(gd)
                self.classical[id(game)] = float(_classical(refs, name, gd))

    def _check_quantum_bound(self, job, result):
        ref = self.qref[id(job.subject)]
        out = []
        if (abs(result.bound - ref[1]) > BOUND_TOL
                or abs(result.raw_bound - ref[0]) > BOUND_TOL):
            out.append(f"{job.label}: bound {result.bound!r} (raw "
                       f"{result.raw_bound!r}) != SVD {ref[1]!r} (raw {ref[0]!r})")
        if len(ref) == 3 and abs(result.bound - ref[2]) > BOUND_TOL:
            out.append(f"{job.label}: bound {result.bound!r} != closed form "
                       f"{ref[2]!r}")
        return out

    def _check_biseparable_bound(self, job, result):
        key = id(job.subject)
        out = []
        if abs(result.bound - self.bref[key][1]) > BOUND_TOL:
            out.append(f"{job.label}: bound {result.bound!r} != SVD "
                       f"{self.bref[key][1]!r}")
        classical, quantum = self.classical[key], self.qref[key][1]
        if not (classical <= result.bound + BOUND_TOL
                and result.bound <= quantum + BOUND_TOL):
            out.append(f"{job.label}: classical {classical} <= biseparable "
                       f"{result.bound} <= quantum {quantum} fails")
        return out

    def _cli_doc(self, job, result):
        code, text = result
        if code != 0:
            return None, [f"{job.label}: exit code {code}"]
        return json.loads(text), self._same_bytes(job, text)

    def _check_cli_chsh(self, job, result):
        doc, out = self._cli_doc(job, result)
        if doc is not None:
            closed = ind.chsh_closed_form(job.extra["outcomes"])
            if (not doc["agreement"]
                    or abs(doc["numeric_bound"] - closed) > BOUND_TOL
                    or abs(doc["analytic_bound"] - closed) > BOUND_TOL):
                out.append(f"{job.label}: report disagrees with {closed!r}")
        return out

    def _check_cli_diew(self, job, result):
        doc, out = self._cli_doc(job, result)
        if doc is not None:
            bound = doc["biseparable"]["bound"]
            if abs(bound - self.bref[id(job.subject)][1]) > BOUND_TOL:
                out.append(f"{job.label}: bound {bound!r} != SVD "
                           f"{self.bref[id(job.subject)][1]!r}")
        return out

    # -- witness -------------------------------------------------------

    def _prepare_witness(self):
        self.refs = {}
        ghz_bound = None
        for name, (game, strategy, above) in self.workload.inputs["cases"].items():
            gd = ind.GameData.of(game)
            vectors = [np.array([[strategy.vector(i, x, o)
                                  for o in range(strategy.outcomes(i, x))]
                                 for x in range(strategy.questions(i))])
                       for i in range(strategy.players)]
            table = ind.born_table(strategy.state, vectors)
            if above and ghz_bound is None:
                ghz_bound = ind.biseparable_bound(gd)[1]
            self.refs[name] = (gd, table, ind.success(gd, table))
        self.bound = ghz_bound
        self.pass_inputs["ghz3_bound"] = ghz_bound

    def _check_behavior(self, job, result):
        table = self.refs[job.subject[0]][1]
        err = float(np.abs(result.table - table).max())
        return [] if err <= PROB_TOL else [
            f"{job.label}: Born rule differs from einsum by {err:.3g}"]

    def _check_success(self, job, result):
        name = job.subject[0]
        omega = self.refs[name][2]
        out = []
        if abs(result - omega) > PROB_TOL:
            out.append(f"{job.label}: {result!r} != einsum {omega!r}")
        if name == "ghz3.reference" and abs(result - 1.0) > PROB_TOL:
            out.append(f"{job.label}: reference strategy wins with {result!r}")
        if name.startswith("ghz3") and not self.bound < result <= 1 + PROB_TOL:
            out.append(f"{job.label}: {result!r} not between the biseparable "
                       f"bound {self.bound!r} and 1")
        return out

    def _check_correlators(self, job, result):
        gd, table, _ = self.refs[job.subject[0]]
        sums = np.zeros(1, dtype=np.intp)
        for _ in range(gd.n):
            sums = gd.add[sums[:, None], np.arange(gd.g)[None, :]].ravel()
        diagonal = gd.chi.conj()[:, sums] @ table.T
        err = float(np.abs(result.diagonal - diagonal).max())
        return [] if err <= PROB_TOL else [
            f"{job.label}: diagonal correlators differ by {err:.3g}"]

    def _check_success_from_correlators(self, job, result):
        omega = self.refs[job.subject[0]][2]
        return [] if abs(result - omega) <= PROB_TOL else [
            f"{job.label}: {result!r} != direct success {omega!r}"]

    def _check_noisy_success(self, job, result):
        gd, _, omega = self.refs[job.subject[0]]
        v = job.extra["visibility"]
        expected = v * omega + (1 - v) / gd.g
        return [] if abs(result - expected) <= PROB_TOL else [
            f"{job.label}: {result!r} != V*omega + (1-V)/|G| = {expected!r}"]

    def _check_visibility_threshold(self, job, result):
        gd, _, omega = self.refs[job.subject[0]]
        at = result * omega + (1 - result) / gd.g
        return [] if 0 < result < 1 and abs(at - self.bound) <= PROB_TOL else [
            f"{job.label}: threshold {result!r} gives {at!r}, bound "
            f"{self.bound!r}"]

    # -- boxes ---------------------------------------------------------

    def _prepare_boxes(self):
        self.orders = {}
        for name, f in self.workload.inputs["functions"].items():
            if f.players == 3 and f.arities == (1, 1, 1):
                self.orders[name] = ind.reduction_orders(
                    np.array(f.values).reshape((f.d,) * 3), f.d)

    @staticmethod
    def _lookup(f, inputs):
        return int(np.array(f.values).reshape((f.d,) * f.variables)[tuple(inputs)])

    def _check_cc_protocol(self, job, result):
        f = job.subject
        expected = self._lookup(f, job.extra["inputs"])
        if (result.result != expected
                or result.boxes_used != f.d ** f.variables
                or len(result.dits) != f.players - 1
                or sum(result.local_outputs) % f.d != result.result):
            return [f"{job.label}: transcript {result.as_dict()} for F = {expected}"]
        return []

    def _check_reduce_to_pr(self, job, result):
        name, f = job.extra["name"], job.subject
        if result is None:
            if self.orders[name] or name.startswith(("xyz", "reducible")):
                return [f"{job.label}: no reduction found, orders "
                        f"{self.orders[name]} work"]
            return []
        arr = np.array(f.values).reshape((f.d,) * 3)
        derived = ind.derivative(arr, result.order, f.d)
        form = ind.reduced_form(f.d, result.lam, result.g, result.h, result.s)
        if result.lam % f.d == 0 or not np.array_equal(derived, form):
            return [f"{job.label}: reduction {result} does not match the "
                    f"derivative table"]
        return []

    def _check_simulate_pr(self, job, result):
        x, y, z = job.extra["inputs"]
        d = job.subject.d
        return [] if sum(result) % d == x * y * z % d else [
            f"{job.label}: outputs {result} for inputs {(x, y, z)}"]

    def _check_box_behavior(self, job, result):
        box = job.subject
        d, n = box.d, box.players
        table = np.asarray(result.table)
        answers = np.array(np.unravel_index(np.arange(d ** n), (d,) * n)).sum(axis=0) % d
        rows = np.array(np.unravel_index(np.arange(table.shape[0]),
                                         (d,) * sum(box.arities))).T
        if hasattr(box, "table"):
            targets = np.array([self._lookup(box.table, r) for r in rows])
        else:
            targets = rows.prod(axis=1) % d
        expected = (answers[None, :] == targets[:, None]) / d ** (n - 1)
        err = float(np.abs(table - expected).max())
        return [] if err <= PROB_TOL else [
            f"{job.label}: rows are not uniform over the tuples summing to F"]

    def _check_cli_boxes(self, job, result):
        doc, out = self._cli_doc(job, result)
        if doc is None:
            return out
        f = job.subject
        for run in doc["runs"]:
            expected = self._lookup(f, run["inputs"])
            if (run["expected"] != expected or run["result"] != expected
                    or run["boxes_used"] != f.d ** f.variables
                    or run["dits_communicated"] != f.players - 1):
                out.append(f"{job.label}: run {run} for F = {expected}")
                break
        if not doc["all_correct"] or len(doc["runs"]) != doc["shots"]:
            out.append(f"{job.label}: report not all correct")
        return out


def rebuild(path=REFERENCE_FILE):
    """Enumerate the classical values of the seed-independent games in
    full and write the cache."""
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from lingame import games
    import workloads
    todo = {f"chsh({n},{d})": games.chsh_game(n, d)
            for n, d in sorted(set(workloads.EXACT_CHSH) | {(3, 4)})}
    todo["ghz3"] = games.load_game(str(root / "fixtures" / "ghz3.game"))
    out = {"classical": {}}
    for name, game in todo.items():
        gd = ind.GameData.of(game)
        out["classical"][name] = {"value": str(ind.classical_full(gd)),
                                  "fingerprint": gd.fingerprint()}
        print(name, out["classical"][name]["value"], flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--rebuild"]:
        sys.exit("usage: python3 perfbench/checks.py --rebuild")
    rebuild()
