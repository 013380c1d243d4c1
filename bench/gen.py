"""Seeded inputs for the benchmark workloads.

Everything here is plain numpy and does not import ``agedist``: the
program only ever sees what these functions return. One seed always gives
the same bytes.

* ``wpp_csv``: long-format CSV shaped like the World Population Prospects
  2019 file (21 five-year groups, 0-4 .. 95-99 and 100+). The shape mix is
  fixed by count: 28% monotone pyramids (WPP has 57 of 201), the rest split
  between youth humps and flat ageing plateaus.
* ``fine_grid_targets``: non-monotone hump targets on WPP's single-year grid
  (101 groups, 0 .. 99 and 100+).
* ``population_params``: one plain survival vector (its steady state is a
  pyramid) and one survival/activation pair whose steady state is a hump.
"""

from __future__ import annotations

import io

import numpy as np

WPP_GROUPS = 21
FINE_GROUPS = 101
PYRAMID_SHARE = 0.28

WPP_LABELS = tuple(f"{5 * i}-{5 * i + 4}" for i in range(WPP_GROUPS - 1)) + ("100+",)
FINE_LABELS = tuple(str(i) for i in range(FINE_GROUPS - 1)) + ("100+",)


def is_monotone(counts) -> bool:
    """The closed-form eligibility rule: non-increasing over groups 1..n-1
    (the last group is free)."""
    return bool(np.all(np.diff(np.asarray(counts)[:-1]) <= 0))


def shape_mix(n_countries: int) -> dict:
    pyramids = round(PYRAMID_SHARE * n_countries)
    humps = (n_countries - pyramids) // 2
    return {"pyramid": pyramids, "hump": humps,
            "plateau": n_countries - pyramids - humps}


def _latin_hypercube(rng, count: int, dims: int) -> np.ndarray:
    """``count`` points in [0, 1)^dims, one per stratum along every axis, so
    each dataset covers the shape parameters evenly and the route mix moves
    little from seed to seed."""
    strata = np.column_stack([rng.permutation(count) for _ in range(dims)])
    return (strata + rng.random((count, dims))) / count


def _lerp(u, low, high):
    return low + u * (high - low)


def _mortality(u, x):
    """Gompertz-like decline over relative age x in [0, 1]: flat early,
    steep at old age, never below 1e-3 of the youngest group."""
    h, k = _lerp(u[0], 0.004, 0.02), _lerp(u[1], 5.0, 7.0)
    return np.exp(-h * np.expm1(k * x)).clip(1e-3)


def _pyramid(u, x):
    counts = np.exp(-_lerp(u[2], 1.0, 4.0) * x) * _mortality(u, x)
    return np.minimum.accumulate(counts)


def _hump(u, x):
    # Falling births: cohorts grow up to a peak age, then decline.
    rise, peak = _lerp(u[2], 1.5, 4.0), _lerp(u[3], 0.08, 0.3)
    tilt = _lerp(u[4], 0.0, 0.5)
    return np.exp(rise * np.minimum(x - peak, 0.0) - tilt * x) * _mortality(u, x)


def _plateau(u, x):
    # Ageing society: fewer young than middle-aged, a broad plateau with
    # baby-boom echoes, then the old-age decline.
    wave = _lerp(u[2], 0.02, 0.08) * np.sin(_lerp(u[3], 8.0, 20.0) * x + 6.3 * u[4])
    return (1.0 + wave) * np.exp(_lerp(u[5], 0.3, 0.8) * x) * _mortality(u, x)


_SHAPES = {"pyramid": _pyramid, "hump": _hump, "plateau": _plateau}
_DIMS = 7  # six shape parameters and the population size


def _country(rng, u, shape: str, n_groups: int) -> np.ndarray:
    """Counts in thousands, rounded to whole persons (3 decimals). A draw
    that breaks the shape class (rare) is replaced by a fresh one."""
    x = np.linspace(0.0, 1.0, n_groups)
    while True:
        counts = _SHAPES[shape](u, x)
        counts = np.round(10 ** _lerp(u[6], 3.0, 6.0) * counts / counts.sum(), 3)
        if counts.min() > 0 and is_monotone(counts) == (shape == "pyramid"):
            return counts
        u = rng.random(_DIMS)


def _draw(rng, shape: str, count: int, n_groups: int) -> list:
    return [_country(rng, u, shape, n_groups)
            for u in _latin_hypercube(rng, count, _DIMS)]


def wpp_csv(seed: int, n_countries: int) -> bytes:
    """Long-format CSV (country, age_group, population) of ``n_countries``."""
    rng = np.random.default_rng([seed, 1])
    countries = [(shape, counts)
                 for shape, k in shape_mix(n_countries).items()
                 for counts in _draw(rng, shape, k, WPP_GROUPS)]
    out = io.StringIO()
    out.write("country,age_group,population\n")
    for i in rng.permutation(n_countries):
        shape, counts = countries[i]
        name = f"{shape}-{i:03d}"
        for label, value in zip(WPP_LABELS, counts):
            out.write(f"{name},{label},{value:.3f}\n")
    return out.getvalue().encode("utf-8")


def parse_csv(data: bytes) -> dict:
    """country -> counts, in file order (the benchmark's own reader)."""
    countries: dict = {}
    for line in data.decode("utf-8").splitlines()[1:]:
        name, _, value = line.split(",")
        countries.setdefault(name, []).append(float(value))
    return {name: np.array(v) for name, v in countries.items()}


def fine_grid_targets(seed: int, count: int) -> list:
    """``count`` single-year hump targets as raw counts (101 groups)."""
    rng = np.random.default_rng([seed, 2])
    return _draw(rng, "hump", count, FINE_GROUPS)


def population_params(seed: int) -> dict:
    """Plain and activated parameter sets on the 21-group grid.

    Plain: survival 0.80-0.99 per group, so the steady state is a pyramid.
    Activated: activation falls over the first groups faster than survival
    does, so the steady state rises before it declines (a hump).
    """
    rng = np.random.default_rng([seed, 3])
    n = WPP_GROUPS
    plain = rng.uniform(0.80, 0.99, n)
    plain[-1] = rng.uniform(0.3, 0.7)
    survival = rng.uniform(0.90, 0.99, n)
    survival[-1] = rng.uniform(0.3, 0.7)
    fall = rng.integers(3, 7)
    activation = np.ones(n)
    activation[:fall] = np.geomspace(1.0, rng.uniform(0.2, 0.5), fall)
    activation[fall:] = activation[fall - 1] * rng.uniform(0.9, 1.0)
    return {"plain": (plain, None), "activated": (survival, activation)}


def stationary(survival, activation=None) -> np.ndarray:
    """Analytic steady state by the forward recursion, written independently
    of the program so the benchmark can check it."""
    p = np.asarray(survival, dtype=float)
    a = np.ones_like(p) if activation is None else np.asarray(activation, dtype=float)
    flow = a * p
    w = np.ones(p.size)
    for i in range(p.size - 2):
        w[i + 1] = w[i] * flow[i] / a[i + 1]
    w[-1] = w[-2] * flow[-2] / (a[-1] * (1.0 - p[-1]))
    return w / w.sum()
