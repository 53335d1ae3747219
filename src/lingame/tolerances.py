"""Numeric tolerances used across the package and its test suite.

All comparisons against analytic values go through the constants below so
that the tolerance story lives in one place.  Library code imports the
runtime constants; the test suite additionally references the acceptance
tolerances when checking frozen expected values.
"""

# Choice among candidate bounds (partitions, lone players, assignments):
# the first candidate within this distance of the optimum wins, so values
# that tie in exact arithmetic but differ by rounding pick a fixed winner.
TIE_TOL = 1e-12

# Validation of probabilistic objects.
BEHAVIOR_ROW_TOL = 1e-9  # |sum_a P(a|x) - 1| per behavior row
PROJECTOR_TOL = 1e-9  # orthogonality / completeness of measurements

# Cross-checks between independently computed quantities.
CHAR_ORTHOGONALITY_TOL = 1e-9  # character orthogonality sums
CORRELATOR_CONSISTENCY_TOL = 1e-10  # direct success vs correlator form
FOURIER_ROUNDTRIP_TOL = 1e-10  # behavior -> correlators -> behavior
REPLAY_TOL = 1e-12  # exact value vs float replay of a witness
BOUND_MATCH_TOL = 1e-9  # numeric bound vs analytic bound

# Witness margins.
WITNESS_MARGIN = 1e-9  # achieved value must beat the bound by this
DOMINANCE_SLACK = 1e-9  # strategy success may exceed a bound by fp noise
SEPARABLE_GAP = 1e-6  # non-trivial games sit at least this far below 1

# Default enumeration caps.
CLASSICAL_ENUMERATION_CAP = 10**8
BISEPARABLE_ASSIGNMENT_CAP = 10**6
