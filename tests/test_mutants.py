"""Mutation harness: what the verify checks can see.

Each catalogue entry is a one-line change to the package (a mutant) and
the checks expected to kill it. For each mutant the test copies
``src/lgwigner`` to a temporary directory, applies the change there and
runs ``run_suite("all", seed=7)`` on the copy in a subprocess. The mutant
is killed when one of its expected checks fails, or when the report's
``(name, samples)`` rows differ from those of the unmutated package, as
they do when two check bodies trade places. A mutant no check kills is a
survivor; ``EXPECTED_SURVIVORS`` lists them, so a new survivor fails here
and a killed one must leave the set.

Reference: DeMillo, Lipton & Sayward, "Hints on test data selection",
IEEE Computer 11(4), 34 (1978).
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from lgwigner.verify import SUITE_CHECKS, run_suite

SRC = Path(__file__).resolve().parent.parent / "src" / "lgwigner"
SEED = 7


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    killers: tuple[str, ...]


CATALOGUE = {
    # the ladder relation h_n' = sqrt(n/2) h_{n-1} - sqrt((n+1)/2) h_{n+1}
    # feeds every intertwining check through the derivative stack
    "derivative_ladder_sign": Mutant(
        "specfun.py",
        "table[n - 1, columns] - rise",
        "table[n - 1, columns] + rise",
        SUITE_CHECKS["intertwine"],
    ),
    "shift_ramp_conjugated": Mutant(
        "wigner.py",
        "np.exp(1j * (dk * m) * shift)",
        "np.exp(-1j * (dk * m) * shift)",
        ("rotfft_maps_hg_to_lg",),
    ),
    # the marginals take different sample counts, so a swap shows in the rows
    "marginal_body_swap": Mutant(
        "verify.py",
        "return hermiticity, xi_marginal, x_marginal, total_integral",
        "return hermiticity, x_marginal, xi_marginal, total_integral",
        ("xi_marginal", "x_marginal"),
    ),
    # no check propagates the beam off the waist, and |field| drops the carrier
    "beam_carrier_sign": Mutant("beam.py", "- params.k * z", "+ params.k * z", SUITE_CHECKS["beam"]),
    # no verify check reaches _LGField's Wirtinger partials
    "lg_field_d_other_sign": Mutant(
        "modes.py",
        "d_other = coeff * pw * power_base",
        "d_other = -coeff * pw * power_base",
        (),
    ),
    # the diagonal pair draws equal counts, and each form agrees with itself
    "product_diagonal_swap": Mutant(
        "verify.py",
        "        lambda: diagonal(wigner_lg_closed, wigner_lg_diag),\n"
        "        lambda: diagonal(wigner_hg_closed, wigner_hg_diag),\n",
        "        lambda: diagonal(wigner_hg_closed, wigner_hg_diag),\n"
        "        lambda: diagonal(wigner_lg_closed, wigner_lg_diag),\n",
        ("lg_diag_consistency", "hg_diag_consistency"),
    ),
}

#: Mutants that no check kills today. Shrink it as checks learn to see
#: them; never grow it to land a change.
EXPECTED_SURVIVORS = {"beam_carrier_sign", "lg_field_d_other_sign", "product_diagonal_swap"}

_REPORT = (
    "import json, lgwigner; from lgwigner.verify import run_suite; "
    f"report = run_suite('all', seed={SEED}); "
    "print(json.dumps([lgwigner.__file__, [[c.name, c.samples, c.passed] for c in report.checks]]))"
)


def _rows(checks) -> list:
    return [(name, samples) for name, samples, _ in checks]


@pytest.fixture(scope="module")
def unmutated():
    checks = [(c.name, c.samples, c.passed) for c in run_suite("all", seed=SEED).checks]
    assert all(passed for *_, passed in checks)
    return checks


def test_catalogue_names_known_checks():
    known = {check for checks in SUITE_CHECKS.values() for check in checks}
    assert EXPECTED_SURVIVORS <= set(CATALOGUE)
    for mutant in CATALOGUE.values():
        assert set(mutant.killers) <= known


@pytest.mark.parametrize("name", list(CATALOGUE))
def test_mutant_killed_unless_listed_survivor(tmp_path, unmutated, name):
    mutant = CATALOGUE[name]
    package = tmp_path / "lgwigner"
    shutil.copytree(SRC, package, ignore=shutil.ignore_patterns("__pycache__"))
    target = package / mutant.file
    text = target.read_text(encoding="utf-8")
    # drift in the code fails here rather than skipping the mutant
    assert text.count(mutant.old) == 1, f"{name}: old text occurs {text.count(mutant.old)} times in {mutant.file}"
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")

    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    run = subprocess.run(
        [sys.executable, "-c", _REPORT], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    module, checks = json.loads(run.stdout.splitlines()[-1])
    assert Path(module).parent == package

    failed = {check for check, _, passed in checks if not passed}
    # a failure the catalogue does not name means the entry is out of date
    assert failed <= set(mutant.killers), f"{name} also fails {sorted(failed - set(mutant.killers))}"
    killed = bool(failed) or _rows(checks) != _rows(unmutated)
    assert killed == (name not in EXPECTED_SURVIVORS), (name, sorted(failed))
