"""Branch-direction prediction models.

:class:`GsharePredictor` is an explicit global-history XOR-indexed
two-bit-counter predictor — the simulation ground truth. The runtime
timing model uses :class:`BranchPredictorModel`, which *measures* a
misprediction rate for a (taken-rate, transition-rate) population by
running synthetic outcome streams through a gshare instance and caching
the result; aliasing pressure from large static-branch populations (§4.4.3:
"instruction locality and the number of static branch instructions
significantly contribute to the branch prediction accuracy") is applied by
sharing predictor tables across the static sites.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np

from repro.hw.ir import BranchSpec
from repro.util.errors import ConfigurationError
from repro.util.rng import make_rng


def generate_branch_outcomes(
    taken_rate: float,
    transition_rate: float,
    length: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate a boolean outcome stream with the §4.4.3 statistics.

    The stream is a two-state Markov chain whose stationary taken
    probability is ``taken_rate`` and whose probability of changing
    direction between consecutive executions is ``transition_rate``.
    Transition probabilities are solved from:

        p_stationary(T) = p, with P(T->N) = a, P(N->T) = b
        stationarity:  p*a = (1-p)*b
        transitions:   p*a + (1-p)*b = t  =>  a = t/(2p), b = t/(2(1-p))

    Rates near 0 or 1 are clamped so the chain stays well-defined; this
    mirrors how real branches with extreme taken ratios have almost no
    transitions.
    """
    if length <= 0:
        raise ConfigurationError("stream length must be positive")
    if not 0.0 <= taken_rate <= 1.0 or not 0.0 <= transition_rate <= 1.0:
        raise ConfigurationError("rates must be within [0, 1]")
    p = min(max(taken_rate, 1e-6), 1.0 - 1e-6)
    # Transition rate is bounded by the stationary mix: a chain that is
    # taken with probability p cannot switch direction more often than
    # 2*min(p, 1-p) on average.
    t = min(transition_rate, 2.0 * min(p, 1.0 - p))
    a = min(1.0, t / (2.0 * p))            # P(taken -> not taken)
    b = min(1.0, t / (2.0 * (1.0 - p)))    # P(not taken -> taken)
    # Identical RNG consumption to the original sequential loop: one
    # draw for the initial state, then one per step.
    state = bool(rng.random() < p)
    randoms = rng.random(length)
    outcomes = np.empty(length, dtype=bool)
    outcomes[0] = state
    if length == 1:
        return outcomes
    # Vectorized closed form: step i applies one of three transfer
    # functions to the state, selected by randoms[i] against the two
    # flip thresholds (a when taken, b when not):
    #   r < min(a, b)          -> flip either way   (swap)
    #   min <= r < max(a, b)   -> both states land on the same side
    #                             (constant: taken iff a < b)
    #   r >= max(a, b)         -> no flip           (identity)
    # A state is then the last constant's value XOR the parity of swaps
    # since it (or the initial state XOR the total swap parity).
    steps = randoms[: length - 1]
    lo, hi = min(a, b), max(a, b)
    swaps = steps < lo
    constants = (steps >= lo) & (steps < hi)
    constant_value = a < b
    indices = np.arange(length - 1, dtype=np.int64)
    last_constant = np.where(constants, indices, -1)
    np.maximum.accumulate(last_constant, out=last_constant)
    swap_cumsum = np.cumsum(swaps)
    swaps_since = swap_cumsum - np.where(
        last_constant >= 0, swap_cumsum[np.maximum(last_constant, 0)], 0)
    base = np.where(last_constant >= 0, constant_value, state)
    outcomes[1:] = base ^ (swaps_since & 1).astype(bool)
    return outcomes


class GsharePredictor:
    """Global-history two-bit-counter predictor with a shared table."""

    def __init__(self, history_bits: int, table_bits: int = 12) -> None:
        if history_bits < 1 or table_bits < 1:
            raise ConfigurationError("history and table bits must be >= 1")
        self.history_bits = history_bits
        self.table_bits = table_bits
        self._mask = (1 << table_bits) - 1
        self._history = 0
        self._table = np.full(1 << table_bits, 2, dtype=np.int8)  # weakly taken
        self.predictions = 0
        self.mispredictions = 0

    def _index(self, pc: int) -> int:
        return (pc ^ self._history) & self._mask

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict branch at ``pc``; update with the actual outcome.

        Returns True when the prediction was correct.
        """
        index = self._index(pc)
        predicted_taken = self._table[index] >= 2
        correct = predicted_taken == taken
        self.predictions += 1
        if not correct:
            self.mispredictions += 1
        if taken and self._table[index] < 3:
            self._table[index] += 1
        elif not taken and self._table[index] > 0:
            self._table[index] -= 1
        history_mask = (1 << self.history_bits) - 1
        self._history = ((self._history << 1) | int(taken)) & history_mask
        return correct

    def predict_and_update_many(
        self, pcs: np.ndarray, takens: np.ndarray
    ) -> np.ndarray:
        """Batch :meth:`predict_and_update`; bit-identical to the loop.

        Returns a boolean array, True where the prediction was correct.
        The global history before each branch depends only on earlier
        outcomes (all known up front), so every table index is computed
        vectorized; the genuinely sequential part — two-bit counters
        seeing every earlier branch's update — runs as a lean loop over
        plain Python ints.
        """
        pcs = np.asarray(pcs, dtype=np.int64)
        takens = np.asarray(takens, dtype=bool)
        n = pcs.shape[0]
        if n == 0:
            return np.zeros(0, dtype=bool)
        history_bits = self.history_bits
        outcomes = takens.astype(np.int64)
        initial = self._history
        history = np.zeros(n, dtype=np.int64)
        for bit in range(1, history_bits + 1):
            # Bit (bit-1) of the history before branch i is outcome
            # i-bit, or a carried-in initial-history bit for the head.
            column = np.empty(n, dtype=np.int64)
            if n > bit:
                column[bit:] = outcomes[: n - bit]
            head = min(bit, n)
            column[:head] = (
                initial >> np.arange(bit - 1, bit - 1 - head, -1)) & 1
            history |= column << (bit - 1)
        indices = ((pcs ^ history) & self._mask).tolist()
        table = self._table.tolist()
        takens_list = takens.tolist()
        correct: List[bool] = [False] * n
        misses = 0
        for i in range(n):
            index = indices[i]
            counter = table[index]
            taken = takens_list[i]
            ok = (counter >= 2) == taken
            correct[i] = ok
            if not ok:
                misses += 1
            if taken:
                if counter < 3:
                    table[index] = counter + 1
            elif counter > 0:
                table[index] = counter - 1
        self._table = np.asarray(table, dtype=np.int8)
        self.predictions += n
        self.mispredictions += misses
        history_mask = (1 << history_bits) - 1
        final = initial
        for taken in takens_list[max(0, n - history_bits):]:
            final = (final << 1) | taken
        self._history = final & history_mask
        return np.asarray(correct, dtype=bool)

    @property
    def misprediction_rate(self) -> float:
        """Fraction of mispredicted branches so far."""
        if self.predictions == 0:
            return 0.0
        return self.mispredictions / self.predictions


class BranchPredictorModel:
    """Misprediction-rate oracle for branch populations.

    ``rate_for(spec, alias_pressure)`` returns the expected misprediction
    fraction of a :class:`BranchSpec` under a given table-aliasing
    pressure (0 = private tables, 1 = fully saturated BTB/PHT). Rates are
    measured once per quantised parameter tuple by Monte-Carlo simulation
    of a gshare predictor and memoised.
    """

    #: length of the measured outcome stream per parameter tuple
    STREAM_LENGTH = 4096
    #: resolution at which (taken, transition, alias) tuples are memoised
    QUANTUM = 0.02

    def __init__(self, history_bits: int, seed: int = 1234) -> None:
        self.history_bits = history_bits
        self.seed = seed

    def _quantise(self, value: float) -> float:
        return round(value / self.QUANTUM) * self.QUANTUM

    def rate_for(self, spec: BranchSpec, alias_pressure: float = 0.0) -> float:
        """Expected misprediction fraction for ``spec``."""
        if not 0.0 <= alias_pressure <= 1.0:
            raise ConfigurationError("alias_pressure must be in [0, 1]")
        key = (
            self._quantise(spec.taken_rate),
            self._quantise(spec.transition_rate),
            self._quantise(alias_pressure),
            self.history_bits,
            self.seed,
        )
        return _measured_rate(key)


@lru_cache(maxsize=4096)
def _measured_rate(
    key: Tuple[float, float, float, int, int]
) -> float:
    taken_rate, transition_rate, alias_pressure, history_bits, seed = key
    rng = make_rng(seed, "branch", f"{taken_rate:.3f}", f"{transition_rate:.3f}",
                   f"{alias_pressure:.3f}")
    outcomes = generate_branch_outcomes(
        taken_rate, transition_rate, BranchPredictorModel.STREAM_LENGTH, rng
    )
    # Aliasing: shrink the effective table so unrelated branches collide.
    # Pressure degrades gradually (13 bits of PHT down to 8): real
    # predictors lose accuracy with large static populations but never
    # fall to chance for well-biased branches.
    table_bits = max(8, int(round(13 - 5 * alias_pressure)))
    predictor = GsharePredictor(history_bits, table_bits=table_bits)
    pc = int(rng.integers(0, 1 << 30))
    # Interleave noise branches proportional to aliasing pressure so the
    # shared counters experience destructive updates, as they would with
    # a large static branch population.
    noise_every = None
    if alias_pressure > 0.0:
        noise_every = max(1, int(round(4 / alias_pressure)))
    noise_rng = make_rng(seed, "branch-noise", f"{alias_pressure:.3f}")
    noise_pcs = noise_rng.integers(0, 1 << 30, size=64)
    noise_outcomes = noise_rng.random(size=64) < 0.5
    total = len(outcomes)
    if noise_every is None:
        sequence_pcs = np.full(total, pc, dtype=np.int64)
        sequence_takens = outcomes
        is_target = np.ones(total, dtype=bool)
    else:
        # Alien branches sharing the (shrunken) tables corrupt the
        # target's counters and history — only the target's own
        # mispredictions are counted. Interleaving is built up front
        # (one noise branch after targets 0, ne, 2ne, ...) so the whole
        # stream goes through one batch predictor pass.
        noise_count = -(-total // noise_every)
        before = (np.arange(total, dtype=np.int64) + noise_every - 1) \
            // noise_every
        target_positions = np.arange(total, dtype=np.int64) + before
        noise_indices = np.arange(noise_count, dtype=np.int64)
        noise_positions = target_positions[noise_indices * noise_every] + 1
        length = total + noise_count
        sequence_pcs = np.empty(length, dtype=np.int64)
        sequence_takens = np.empty(length, dtype=bool)
        is_target = np.zeros(length, dtype=bool)
        is_target[target_positions] = True
        sequence_pcs[target_positions] = pc
        sequence_takens[target_positions] = outcomes
        sequence_pcs[noise_positions] = noise_pcs[noise_indices % 64]
        sequence_takens[noise_positions] = noise_outcomes[noise_indices % 64]
    correct = predictor.predict_and_update_many(sequence_pcs, sequence_takens)
    target_misses = int(np.count_nonzero(~correct[is_target]))
    rate = target_misses / max(1, total)
    return float(min(1.0, max(0.0, rate)))
