"""Mutation harness: what the verify checks can see.

Each catalogue entry is a one-line change to the package (a mutant) and
the checks expected to kill it. For each mutant the test copies
``src/lgwigner`` to a temporary directory, applies the change there and
runs ``run_suite("all", seed=7)`` on the copy in a subprocess; the
subprocesses run concurrently, at most one per usable CPU, each with one
BLAS thread. The mutant is killed when one of its expected checks fails,
or when the report's ``(name, samples)`` rows differ from those of the
unmutated package, as they do when two check bodies trade places. A
mutant no check kills is a survivor; ``EXPECTED_SURVIVORS`` lists them,
so a new survivor fails here and a killed one must leave the set.

Reference: DeMillo, Lipton & Sayward, "Hints on test data selection",
IEEE Computer 11(4), 34 (1978).
"""

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import pytest

from lgwigner.cli import _usable_cpus
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
    # feeds every intertwining check through the HG partials kernel
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
    # the beam checks compare the waist plane, the Gouy angle at +-zR and
    # the norm of |field| on a grid scaled by w(z) itself: none sees the
    # curvature phase, the Gouy factor or the width law
    "beam_curvature_sign": Mutant(
        "beam.py", "+ (r / w) ** 2 * (z / params.zR)", "- (r / w) ** 2 * (z / params.zR)", SUITE_CHECKS["beam"]
    ),
    "beam_gouy_factor": Mutant(
        "beam.py",
        "(2 * index.p + index.ell + 1) * geom.gouy",
        "(2 * index.p + index.ell + 2) * geom.gouy",
        SUITE_CHECKS["beam"],
    ),
    "beam_width_law": Mutant(
        "beam.py", "np.sqrt(1.0 + (z / zr) ** 2)", "np.sqrt(1.0 + abs(z / zr))", SUITE_CHECKS["beam"]
    ),
    # the LG amplitude's sign, against the HG -> LG map (the pair lg_mode
    # vs wigner_hermite_closed, and the closed forms vs rotate-plus-FFT)
    "lg_amplitude_sign": Mutant(
        "modes.py",
        "_SQRT_FACTORIAL_RATIO[lo, lo + alpha] * (-1.0) ** lo",
        "_SQRT_FACTORIAL_RATIO[lo, lo + alpha] * (-1.0) ** (lo + 1)",
        (
            "lg_mode_equals_hermite_closed",
            "extended_wigner_maps_hg_to_lg",
            "polarization_identity",
            "rotfft_fixed_point",
            "rotfft_maps_hg_to_lg",
        ),
    ),
    # the closed Wigner form's sign, against the 1D quadrature oracle
    "closed_scale_sign": Mutant(
        "wigner.py",
        "(-1.0) ** _DEGREES",
        "(-1.0) ** (_DEGREES + 1)",
        ("hermite_closed_vs_quadrature", "lg_mode_equals_hermite_closed"),
    ),
    # no verify check reaches the LG partials kernel, _lg_partial
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
    # the j <-> k-transposed contraction passes every check; only
    # wtilde_inner_products' error moves
    "superposition_2d_transposed": Mutant(
        "verify.py", "coeffs @ tv, tu", "coeffs @ tu, tv", ("wtilde_inner_products",)
    ),
}

#: Mutants that no check kills today. Shrink it as checks learn to see
#: them; never grow it to land a change.
EXPECTED_SURVIVORS = {
    "beam_carrier_sign",
    "beam_curvature_sign",
    "beam_gouy_factor",
    "beam_width_law",
    "lg_field_d_other_sign",
    "product_diagonal_swap",
    "superposition_2d_transposed",
}

_REPORT = (
    "import json, lgwigner; from lgwigner.verify import run_suite; "
    f"report = run_suite('all', seed={SEED}); "
    "print(json.dumps([lgwigner.__file__, [[c.name, c.samples, c.passed] for c in report.checks]]))"
)


def _rows(checks) -> list:
    return [(name, samples) for name, samples, _ in checks]


class MutantRun(NamedTuple):
    package: Path
    occurrences: int  # of the old text in the unmutated file
    run: subprocess.CompletedProcess | None  # None unless it occurs once


def _run_mutant(root: Path, name: str) -> MutantRun:
    """Copy the package under ``root``, apply mutant ``name`` and run the
    report script on the copy."""
    mutant = CATALOGUE[name]
    package = root / name / "lgwigner"
    shutil.copytree(SRC, package, ignore=shutil.ignore_patterns("__pycache__"))
    target = package / mutant.file
    text = target.read_text(encoding="utf-8")
    occurrences = text.count(mutant.old)
    if occurrences != 1:
        return MutantRun(package, occurrences, None)
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    # one BLAS thread per process: two-thread BLAS pools in concurrent
    # processes oversubscribe the CPUs and run slower than one at a time
    env = dict(os.environ, PYTHONPATH=str(package.parent), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, "-c", _REPORT], cwd=package.parent, env=env, capture_output=True, text=True, timeout=120
    )
    return MutantRun(package, occurrences, run)


@pytest.fixture(scope="module")
def mutant_runs(tmp_path_factory):
    """Every mutant's run, started together, at most one per usable CPU at
    a time; each test reads the future of its own mutant."""
    root = tmp_path_factory.mktemp("mutants")
    with ThreadPoolExecutor(max_workers=_usable_cpus()) as pool:
        return {name: pool.submit(_run_mutant, root, name) for name in CATALOGUE}


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
def test_mutant_killed_unless_listed_survivor(mutant_runs, unmutated, name):
    mutant = CATALOGUE[name]
    package, occurrences, run = mutant_runs[name].result()
    # drift in the code fails here rather than skipping the mutant
    assert occurrences == 1, f"{name}: old text occurs {occurrences} times in {mutant.file}"
    assert run.returncode == 0, run.stderr
    module, checks = json.loads(run.stdout.splitlines()[-1])
    assert Path(module).parent == package

    failed = {check for check, _, passed in checks if not passed}
    # a failure the catalogue does not name means the entry is out of date
    assert failed <= set(mutant.killers), f"{name} also fails {sorted(failed - set(mutant.killers))}"
    killed = bool(failed) or _rows(checks) != _rows(unmutated)
    assert killed == (name not in EXPECTED_SURVIVORS), (name, sorted(failed))
