"""Every function that the benchmark's per-layer tracer wraps is defined.

A layer whose function is gone still reports its calls and times, as 0
and marked ``absent``, in the last line of a traced benchmark run.
perfbench/layers.py is read and run without writing bytecode next to it.
"""

import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_PATH = ROOT / "perfbench" / "layers.py"
layers = types.ModuleType("perfbench_layers")
layers.__file__ = str(_PATH)
exec(compile(_PATH.read_text(), str(_PATH), "exec"), vars(layers))


def test_every_traced_layer_is_present():
    assert layers.Tracer().present == set(layers.LAYERS)
