"""Exact computation of Stirling, Lah, Whitney and Dowling number families,
their r- and unified generalizations, and the Bell-type row sums.

The package exports four names.  Every family and sum is streamed by one
engine: `families.rows`, `scaled_rows` and `row_sum`, which the CLI and the
registry read; `families.triangle` gathers rows into one container,
`Triangle`, for the tests and `perfbench/pin.py`.  The six Bell-type sums
are one table, `families.SUMS`: each sum's family and the paper's explicit
formula for it, read by `explicit_sequence` and `explicit_sum`.  The
connection solve and the EGF rows are `basis`'s; every other verification
route sits next to the identity that runs it in `dowling.identities`, the
registry that checks each route against the engine, with the paper's
reference tables.  Both are imported on demand, so the CLI loads neither
before `verify` or `paper-tables`.  `classic`, `whitney`, `rnumbers` and
`unified` keep only the names `perfbench/pin.py` calls.
"""

from . import families
from .families import explicit_sequence, explicit_sum
from .triangles import Triangle

__all__ = ["families", "Triangle", "explicit_sum", "explicit_sequence"]
__version__ = "0.1.0"
