import pytest

from hyposym import Su2DiagPoly, TorusPoly, build_symbol
from hyposym.symbols import Coefficient


@pytest.fixture(autouse=True)
def table_cache(tmp_path_factory, monkeypatch):
    """A cache directory of parsed matrix tables for each test, empty at its
    start: table parses start cold, and no test writes the user's cache."""
    cache = tmp_path_factory.mktemp("xdg_cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    return cache


def torus_translation(c) -> TorusPoly:
    """The operator d_t + c d_x with symbol i(xi + c eta)."""
    return TorusPoly.make([(Coefficient.make(1), 1, 0), (coeff(c), 0, 1)])


def coeff(value) -> Coefficient:
    if isinstance(value, Coefficient):
        return value
    if isinstance(value, complex):
        return Coefficient.from_complex(value)
    return Coefficient.make(value)


def constant_one(model) -> TorusPoly | Su2DiagPoly:
    """The identity operator of a model: the constant polynomial 1."""
    poly = TorusPoly if model.kind == "torus2" else Su2DiagPoly
    return poly.make([(Coefficient.make(1), 0, 0)])


def su2_neutral_plus(q) -> Su2DiagPoly:
    """The operator a d0 + q with block entries i m + q."""
    return Su2DiagPoly.make([(Coefficient.make(1), 1, 0), (coeff(q), 0, 0)])


def su2_laplace_minus_axis_sq() -> Su2DiagPoly:
    """Block entries l(l+1) - m^2 (tokens negLap + d0^2)."""
    return Su2DiagPoly.make(
        [(Coefficient.make(1), 0, 1), (Coefficient.make(1), 2, 0)]
    )


def su2_pell_operator() -> Su2DiagPoly:
    """Block entries l(l+1) - 2 m^2 (tokens negLap + 2 d0^2)."""
    return Su2DiagPoly.make(
        [(Coefficient.make(1), 0, 1), (Coefficient.make(2), 2, 0)]
    )


@pytest.fixture
def torus_resonant_symbol():
    return build_symbol(torus_translation(1))


@pytest.fixture
def su2_gap_symbol():
    return build_symbol(su2_laplace_minus_axis_sq())


@pytest.fixture
def su2_pell_symbol():
    return build_symbol(su2_pell_operator())
