"""Fixtures that the law tests here and the engine pins in ``engine/``
share."""

import pytest

from agedist import parallel
from agedist.distributions import AgeDistribution
from agedist.simulator import SimConfig


@pytest.fixture
def pyramid():
    return AgeDistribution(("a", "b", "c"), [0.5, 0.3, 0.2])


@pytest.fixture
def sim_config():
    return SimConfig(seed=0)


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "data.csv"
    rows = [
        ("Pyramid", [("0-4", 500), ("5-9", 300), ("10-14", 150), ("15+", 50)]),
        ("Hump", [("0-4", 300), ("5-9", 400), ("10-14", 300)]),
        ("Tail", [("0-4", 60), ("5-9", 30), ("10-14", 10), ("15+", 0)]),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("country,age_group,population\n")
        for name, groups in rows:
            for label, count in groups:
                fh.write(f"{name},{label},{count}\n")
    return path


@pytest.fixture
def split(monkeypatch):
    """``split(count)`` makes every later search run in ``count`` row
    shares, whatever its size, its tile count and the machine's CPU count."""

    def use(count):
        monkeypatch.setattr(parallel, "shares",
                            lambda units, per=1: parallel.split(slice(0, units), count))

    return use
