"""Numeric tolerances and enumeration caps of the package, in one place."""

# Choice among candidate bounds (partitions, lone players, assignments):
# the first candidate within this distance of the optimum wins, so values
# that tie in exact arithmetic but differ by rounding pick a fixed winner.
TIE_TOL = 1e-12

# Validation of probabilistic objects.
BEHAVIOR_ROW_TOL = 1e-9  # |sum_a P(a|x) - 1| per behavior row
PROJECTOR_TOL = 1e-9  # orthogonality / completeness of measurements
STATE_TOL = 1e-9  # norm, trace, Hermiticity and eigenvalues of a state
SANDWICH_TOL = 1e-9  # classical <= biseparable <= quantum bound in reports

# Witness margin.
WITNESS_MARGIN = 1e-9  # achieved value must beat the bound by this

# Default enumeration caps.
CLASSICAL_ENUMERATION_CAP = 10**8
BISEPARABLE_ASSIGNMENT_CAP = 10**6
