"""Exact computation of Stirling, Lah, Whitney and Dowling number families,
their r- and unified generalizations, and the Bell-type row sums.

The package exports four names.  Every family and sum is built by one
engine, `families.triangle(name, params, nmax)` and `families.row_sum(name,
params, n)`, into one container, `Triangle`.  The six Bell-type sums are one
table, `families.SUMS`: each sum's family and the paper's explicit formula
for it, read by `explicit_sequence` and `explicit_sum`.  The other
verification routes live in their modules (`classic`, `whitney`, `rnumbers`,
`unified`, `basis`), each an independent way to the same numbers, and the
identity registry that checks them against the engine, with the paper's
reference tables, is `dowling.identities`; all are imported on demand, so
the CLI loads none of them before `verify` or `paper-tables`.
"""

from . import families
from .families import explicit_sequence, explicit_sum
from .triangles import Triangle

__all__ = ["families", "Triangle", "explicit_sum", "explicit_sequence"]
__version__ = "0.1.0"
