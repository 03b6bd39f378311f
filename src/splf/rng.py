"""Counter-based random streams.

Every draw in a simulation is produced by a Philox generator whose key is
(seed, path) and whose 256-bit counter block encodes (purpose, step).  A
stream is therefore a pure function of those labels: paths and steps can be
generated in any order, on any number of workers, with bit-identical output.
Within one stream the draws come out in the fixed basis order.
"""

from __future__ import annotations

import numpy as np

PURPOSE_INCREMENT = 0
PURPOSE_INIT = 1

_LABEL_LIMIT = 1 << 64   # each label fills one 64-bit word of key or counter


def _check_labels(seed: int, path_index: int, step_index: int) -> None:
    if seed < 0 or path_index < 0 or step_index < 0:
        raise ValueError("seed, path and step labels must be nonnegative")
    if max(seed, path_index, step_index) >= _LABEL_LIMIT:
        raise ValueError(
            "seed, path and step labels must be below 2**64, got "
            f"seed={seed}, path={path_index}, step={step_index}")


def stream(seed: int, path_index: int, step_index: int = 0,
           purpose: int = PURPOSE_INCREMENT) -> np.random.Generator:
    """Generator for one (seed, path, step, purpose) label."""
    _check_labels(seed, path_index, step_index)
    # explicit uint64: numpy converts a list holding an int >= 2**63 through
    # float64, which would round the label
    bitgen = np.random.Philox(
        counter=np.array([0, 0, purpose, step_index], dtype=np.uint64),
        key=np.array([seed, path_index], dtype=np.uint64))
    return np.random.Generator(bitgen)


class Streams:
    """The streams of one (seed, purpose), served by a single generator.

    `at(path, step)` rewinds the generator to the start of that label's
    stream, so its draws equal those of `stream(seed, path, step, purpose)`
    without building a new Philox generator for every label.
    """

    def __init__(self, seed: int, purpose: int = PURPOSE_INCREMENT):
        _check_labels(seed, 0, 0)
        self.seed = seed
        self._bitgen = np.random.Philox(
            counter=np.array([0, 0, purpose, 0], dtype=np.uint64),
            key=np.array([seed, 0], dtype=np.uint64))
        self._generator = np.random.Generator(self._bitgen)
        self._start = self._bitgen.state   # fresh: empty buffer, no spare word

    def at(self, path_index: int, step_index: int) -> np.random.Generator:
        _check_labels(self.seed, path_index, step_index)
        state = self._start
        state["state"]["counter"][3] = step_index
        state["state"]["key"][1] = path_index
        self._bitgen.state = state
        return self._generator
