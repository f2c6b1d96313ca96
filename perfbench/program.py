"""The benchmark's only way into orthorank1.

Every name the benchmark calls is imported here, from the module the README
documents it in, and nowhere else; `manifest.json` lists the same names and
`run.py --self-test` checks the two against each other and against the
package.  Underscore-prefixed helpers are never imported, so a refactor that
hides or deletes them cannot break the benchmark.
"""

import sys
from pathlib import Path

# the benchmark runs from a source checkout, not an installed package
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from orthorank1.cli import main as cli_main  # noqa: E402
from orthorank1.closed_form import (  # noqa: E402
    full_svd,
    mixing_coefficients,
    special_eigenpairs,
    special_eigenvalues,
    spectrum,
)
from orthorank1.core import invariant_scalars, materialize, validate_orthogonal  # noqa: E402
from orthorank1.harness import CampaignConfig, run_verify  # noqa: E402
from orthorank1.instance_io import dump_instance, load_instance  # noqa: E402
from orthorank1.oracle import InstanceDistribution, jacobi_svd, sample_instance  # noqa: E402

__all__ = [
    "CampaignConfig",
    "InstanceDistribution",
    "cli_main",
    "dump_instance",
    "full_svd",
    "invariant_scalars",
    "jacobi_svd",
    "load_instance",
    "materialize",
    "mixing_coefficients",
    "run_verify",
    "sample_instance",
    "special_eigenpairs",
    "special_eigenvalues",
    "spectrum",
    "validate_orthogonal",
]
