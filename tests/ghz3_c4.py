"""The ternary GHZ reference strategy with each player's qutrit embedded
in C^4.  The state is |GHZ3> on the first three levels, and the fourth
level joins outcome 0's projector on every question, which then has rank
two.  The Born behavior is the reference one (success 1), but white noise
I/64 wins the GHZ3 game with 49/144 instead of 1/3: each player answers
0, 1, 2 with probabilities 1/2, 1/4, 1/4."""

import json
from pathlib import Path

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "ghz3.strategy"

NOISE_SUCCESS = 49 / 144
# (0.8960197525 - 49/144) / (1 - 49/144): where the noisy success crosses
# the GHZ3 biseparable bound
THRESHOLD = 0.8423878354


def document():
    """The embedded strategy in the JSON strategy-file format."""
    doc = json.loads(FIXTURE.read_text())
    zero = [0.0, 0.0]
    amplitudes = [zero] * 64
    for index, amp in enumerate(doc["state"]["amplitudes"]):
        i, j, k = index // 9, index // 3 % 3, index % 3
        amplitudes[16 * i + 4 * j + k] = amp
    fourth = [zero, zero, zero, [1.0, 0.0]]
    measurements = [
        [[[vector + [zero], fourth] if outcome == 0 else vector + [zero]
          for outcome, vector in enumerate(basis)]
         for basis in per_player]
        for per_player in doc["measurements"]]
    return {"dims": [4, 4, 4], "state": {"amplitudes": amplitudes},
            "measurements": measurements}
