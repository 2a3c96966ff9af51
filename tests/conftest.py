"""Shared fixtures: species load once, radial solutions cache in-process."""

import numpy as np
import pytest

from rydtherm import load_species
from rydtherm.radial import default_solver


@pytest.fixture(scope="session")
def sr():
    return load_species("sr")


@pytest.fixture(scope="session")
def yb():
    return load_species("yb")


@pytest.fixture(scope="session")
def hydrogen():
    return load_species("hydrogen")


@pytest.fixture(scope="session")
def sr_n_max_60(tmp_path_factory):
    """A copy of the bundled Sr file whose one bound on n is 60, not 80."""
    from rydtherm.species import bundled_species_path

    text = open(bundled_species_path("sr"), encoding="utf-8").read()
    assert text.count("rydberg_n_max = 80") == 1
    path = tmp_path_factory.mktemp("sr60") / "sr.species"
    path.write_text(text.replace("rydberg_n_max = 80", "rydberg_n_max = 60"))
    return load_species(str(path))


@pytest.fixture(scope="session")
def solver():
    return default_solver()


@pytest.fixture(scope="session")
def moment():
    """moment(solver, a, b, p) = <a| r^p |b> from the two solutions of
    ``solver``: trapezoid rule over their common mesh x_j = j h, r = x^2."""

    def integral(solver, a, b, power):
        sa, sb = solver.solve(a), solver.solve(b)
        j0, j1 = max(sa.j_in, sb.j_in), min(sa.j_out, sb.j_out)
        va = sa.v[j0 - sa.j_in : j1 - sa.j_in + 1]
        vb = sb.v[j0 - sb.j_in : j1 - sb.j_in + 1]
        x = solver.h * np.arange(j0, j1 + 1)
        return 2.0 * solver.h * float(np.trapezoid(va * vb * x ** (2 * power + 2)))

    return integral
