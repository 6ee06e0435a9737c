"""Option values shared by the library and the command line.

Kept apart from :mod:`ideals` and :mod:`marked`, which read them, so that the
command-line parser can offer them without loading either layer.
"""

ESCALIER = "escalier"
IDEAL_SLICE = "ideal-slice"
SIGMA_MODES = (ESCALIER, IDEAL_SLICE)

DEFAULT_STEP_CAP = 100_000
