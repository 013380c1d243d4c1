import ast

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from agedist import parallel

from test_distributions import source_trees


def generator(state=None):
    rng = np.random.Generator(np.random.PCG64(0))
    if state is not None:
        rng.bit_generator.state = state
    return rng


class TestPosition:
    """``position`` jumps each share's generator to its first double and
    moves the stream past them all, as drawing the doubles would."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           halves=st.integers(0, 3),
           total=st.integers(0, 300),
           data=st.data())
    def test_positioned_streams_read_the_drawn_doubles(self, seed, halves, total, data):
        starts = data.draw(st.lists(st.integers(0, total), max_size=4))
        rng = np.random.default_rng(seed)
        # A range of 2**16 never rejects a 32-bit draw, so an odd number of
        # draws leaves the upper half of the last 64-bit output buffered.
        rng.integers(0, 2**16, size=halves)
        assert rng.bit_generator.state["has_uint32"] == halves % 2
        reference = generator(rng.bit_generator.state)
        doubles = reference.random(total)

        streams = [generator() for _ in starts]
        parallel.position(rng, streams, starts, total)

        for stream, start in zip(streams, starts):
            assert np.array_equal(stream.random(total - start), doubles[start:])
        after, drawn = rng.bit_generator.state, reference.bit_generator.state
        assert (after["state"], after["has_uint32"]) == (drawn["state"], drawn["has_uint32"])
        assert np.array_equal(rng.integers(0, 2**16, size=3), reference.integers(0, 2**16, size=3))
        assert np.array_equal(rng.random(3), reference.random(3))


def jump_ahead_sites(tree) -> list:
    """Lines that set a ``bit_generator.state`` or call an ``.advance``."""
    sites = []
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else []
        sets_state = any(
            isinstance(target, ast.Attribute) and target.attr == "state"
            and isinstance(target.value, ast.Attribute) and target.value.attr == "bit_generator"
            for target in targets)
        advances = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "advance")
        if sets_state or advances:
            sites.append(node.lineno)
    return sites


class TestTheJumpAheadRuleHasOneHome:
    def test_only_parallel_sets_or_advances_a_generator(self):
        homes = {module for module, tree in source_trees().items() if jump_ahead_sites(tree)}
        assert homes == {"parallel.py"}
