"""Names and physical units of the 13 features, and the magnitude bound of
the numbers the CLI reads.

A leaf module: it imports nothing from batcap, so code that only needs the
feature count or names (loading and serving a model) does not load the
feature-extraction and data layers. ``features`` documents what each
feature measures.
"""

# Largest magnitude of a number in a float column of a CSV file, a float
# field of a config and a ``predict --input`` feature; NaN and +-inf lie
# beyond it too. Every sum of squares of fewer than 1e107 such numbers stays
# finite.
MAX_MAGNITUDE = 1e100

FEATURE_NAMES = tuple(f"F{i}" for i in range(1, 14))

# Physical unit of each feature; consumers that need distances across the
# feature space (fusion) scale columns per unit group rather than per column.
FEATURE_UNITS = (
    "volt", "volt", "second", "volt_per_second", "volt",
    "second", "second", "second", "second", "second",
    "volt", "second", "volt",
)
