"""Gumbel-max SCM mechanism, posterior noise inference, and the time-layered
counterfactual MDP built from Monte-Carlo posterior samples.

The mechanism draws one standard Gumbel per state per time step and picks the
next state as argmax over log-probability-shifted noise. A standard Gumbel is
`0.0 - log(-log(1 - U))` over a row-major `rng.random` stream, numpy's own
formula with numpy's vectorised log: within 1 ulp of `rng.gumbel`, and
bit-identical under the same numpy on the same CPU features. Conditioning on
an observed transition is exact top-down sampling (Maddison, Tarlow & Minka,
2014): the maximum is placed at the observed state and the rest of the row is
truncated below it, in one pass. States outside the observed row's support
keep their prior noise, which is exactly why disjoint supports make
counterfactual and interventional rows coincide.

Each time step draws its noise from its own RNG stream, so a step's layer of
posterior noise is the same whenever, and in whatever order, it is drawn. A
posterior therefore draws one layer at a time when it is first needed and
holds only that layer: the dense (T, N, |S|) noise tensor is never in memory.
A layer is column-major, so the mechanism of a row reads each of its
successors' N scores contiguously. Its artifact stores the recipe (MDP hash,
path, N, seed), not the noise.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from dataclasses import InitVar, dataclass, field
from functools import partial

import numpy as np

from .errors import (
    InvariantViolated,
    OutOfMemory,
    ValidationFailed,
    ZeroProbabilityObservation,
)
from .mdp import (Mdp, ObservedPath, gather_rows, json_values, path_from_json, path_to_json,
                  read_json)

FILL_ROWS = 128  # rows of a noise layer drawn at a time


def _gumbel(rng: np.random.Generator, shape) -> np.ndarray:
    """`rng.gumbel(size=shape)` within 1 ulp of max(|g|, 1): numpy's formula
    `0.0 - log(-log(1 - U))` in place with numpy's vectorised log, and its
    stream, a U of exactly 0.0 drawn again."""
    u = rng.random(size=shape)
    while not u.all():
        kept = u[u != 0]
        u = np.concatenate([kept, rng.random(size=u.size - kept.size)]).reshape(shape)
    np.negative(np.log(np.subtract(1.0, u, out=u), out=u), out=u)
    return np.subtract(0.0, np.log(u, out=u), out=u)


def _prior_layer(rng: np.random.Generator, n: int, num_states: int) -> np.ndarray:
    """n prior Gumbel vectors as a column-major (n, |S|) array.

    It is filled FILL_ROWS rows at a time, so it holds the values of one
    `_gumbel(rng, (n, |S|))` draw and leaves `rng` where that draw would,
    without a second, row-major copy of the layer in memory.
    """
    out = np.empty((n, num_states), order="F")
    for i in range(0, n, FILL_ROWS):
        out[i:i + FILL_ROWS] = _gumbel(rng, (min(FILL_ROWS, n - i), num_states))
    return out


def _conditioned_row(mdp: Mdp, p: int, pos: int):
    """The nominal row of pair p, whose position `pos` is the observed
    successor; a position outside the row has probability zero."""
    row = mdp.row(p)
    if not 0 <= pos < len(row[0]):
        s, a = mdp.states[mdp.source[p]], mdp.actions[mdp.action[p]]
        raise ZeroProbabilityObservation(
            f"position {pos} is outside the row of ({s}, {a}); cannot condition on it")
    return row


def topdown_noise(mdp: Mdp, p: int, pos: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n exact posterior noise vectors in one pass (top-down construction),
    as a column-major (n, |S|) array, given that pair p moved to position
    `pos` of its nominal row.

    The maximum of the probability-shifted Gumbels is sampled first and
    assigned to the observed state; the remaining support states get Gumbels
    truncated below that maximum; off-support states keep fresh priors.
    """
    idx, _, logp = _conditioned_row(mdp, p, pos)
    # Prior draws double as the off-support posterior (it equals the prior).
    out = _prior_layer(rng, n, mdp.num_states)
    top = _gumbel(rng, n) + float(np.logaddexp.reduce(logp))
    shifted = logp[None, :] + _gumbel(rng, (n, idx.shape[0]))
    trunc = -np.logaddexp(-shifted, -top[:, None])
    out[:, idx] = trunc - logp[None, :]
    out[:, idx[pos]] = top - logp[pos]
    return out


class _Layers(Sequence):
    """The T noise layers of a posterior, each a read-only column-major
    (n, |S|) array.

    Layer t is `make(t)`, made when it is read; only the layer read last is
    kept, so reading the layers in ascending t makes each one once and holds
    one at a time. `make` must return equal layers on every call, as a draw
    from the step's own RNG stream does.
    """

    def __init__(self, count: int, make: Callable[[int], np.ndarray]):
        self._count, self._make = count, make
        self._t, self._layer = -1, None

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, t: int) -> np.ndarray:
        if not 0 <= t < self._count:
            raise IndexError(f"noise layer {t} outside 0..{self._count - 1}")
        if t != self._t:
            self._t, self._layer = -1, None  # free the held layer before making the next
            layer = self._make(t)
            layer.flags.writeable = False
            self._t, self._layer = t, layer
        return self._layer


@dataclass(frozen=True)
class GumbelPosterior:
    """Per-time-step posterior noise samples conditioned on an observed path.

    `noise` is a sequence of T layers; noise[t] is a column-major (n, |S|)
    array. Steps t < T-1 are conditioned on the observed transition
    (s_t, a_t, s_{t+1}); the final step has no observed successor and
    carries prior samples. Per-step RNG streams are derived from (seed, t),
    so a layer drawn late, or drawn again, is bit-identical to one drawn up
    front in any order. Hence `noise` draws a layer when it is read and
    keeps only the layer read last: one layer is resident, never the dense
    (T, n, |S|) tensor. The posterior's MDP is its path's, `path.mdp_digest`.
    """

    noise: Sequence[np.ndarray]
    n: int
    seed: int
    path: ObservedPath

    @property
    def T(self) -> int:
        return len(self.noise)


def _step_rng(seed: int, t: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))


def _draw_layer(mdp: Mdp, path: ObservedPath, n: int, seed: int, t: int) -> np.ndarray:
    """Posterior noise of step t from its stream `_step_rng(seed, t)`:
    conditioned on the observed transition at t < T-1, the prior at T-1.
    Every sample of a conditioned step is checked to replay the observation,
    and a layer numpy cannot allocate raises OutOfMemory."""
    rng = _step_rng(seed, t)
    try:
        if t == path.T - 1:
            return _prior_layer(rng, n, mdp.num_states)
        p, pos = int(path.pair[t]), int(path.next_pos[t])
        g = topdown_noise(mdp, p, pos, n, rng)
        idx, _, logp = mdp.row(p)
        replays = np.all(np.argmax(logp + g[:, idx], axis=1) == pos)
    except MemoryError:
        raise OutOfMemory(f"out of memory drawing the noise layer at t={t} "
                          f"({n}x{mdp.num_states} float64)") from None
    if not replays:
        raise InvariantViolated(f"posterior sample at t={t} fails to replay the observation")
    return g


def build_posterior(mdp: Mdp, path: ObservedPath, n: int, seed: int = 0) -> GumbelPosterior:
    """Posterior noise for every step of the path (Markov factorization).

    Each step is conditioned independently on its own observed transition.
    The path must be one of `mdp`, so no observation has probability zero
    (`ObservedPath` refuses one); `n` and `seed` are checked here. Each layer
    is drawn by `_draw_layer` when first read, and every sample it returns
    provably replays the observed successor.
    """
    if path.mdp_digest != mdp.digest:
        raise ValidationFailed("path was built against a different MDP")
    if n < 1:
        raise ValidationFailed(f"posterior sample count must be >= 1, got {n}")
    if n * mdp.num_states * 8 > np.iinfo(np.intp).max:
        raise ValidationFailed(f"posterior sample count {n} is too large: a noise layer of "
                               f"{n}x{mdp.num_states} float64 cannot be addressed")
    if seed < 0:
        raise ValidationFailed(f"posterior seed must be >= 0, got {seed}")
    return GumbelPosterior(_Layers(path.T, partial(_draw_layer, mdp, path, n, seed)), n, seed, path)


def cf_transition(posterior: GumbelPosterior, mdp: Mdp, t: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Counterfactual row of pair p at time t: the mechanism's empirical law
    over the posterior samples, as (successor indices, probabilities).

    Successor indices are ascending and probabilities non-zero; the support is
    always contained in the nominal support of pair p. Prefer CfMdp.layer_rows
    for repeated queries; it builds each (t, nominal row) once.

    A successor's count is the number of samples whose score equals the
    sample's maximum score, a reduction down each column of the column-major
    scores. When the counts sum to N, every sample has exactly one maximum
    and they equal the counts of the mechanism's argmax; otherwise (an exact
    tie, or a NaN) the argmax decides, the first maximum winning.
    """
    if not 0 <= t < posterior.T:
        raise ValidationFailed(f"time {t} outside posterior horizon {posterior.T}")
    idx, _, logp = mdp.row(p)
    if idx.shape[0] == 1:  # every sample picks the one successor: counts / N == 1.0
        return idx, np.ones(1)
    scores = posterior.noise[t][:, idx]  # a column-major copy
    scores += logp
    top = scores.max(axis=1, keepdims=True)
    counts = (scores == top).sum(axis=0)
    if counts.sum() != posterior.n or np.isnan(top).any():
        counts = np.bincount(scores.argmax(axis=1), minlength=idx.shape[0])
    hit = counts > 0
    return idx[hit], counts[hit] / posterior.n


@dataclass(eq=False)
class CfMdp:
    """Time-layered counterfactual MDP over nodes (state, t), t = 0..T.

    Initial mass sits entirely on (s_0, 0). Pruning and dynamic programming
    only touch a small fraction of the (t, pair) rows, so `layer_rows` builds
    rows when first asked for and keeps them: from the posterior, or with
    posterior=None from the exact nominal kernel (the interventional MDP,
    useful for structural analysis and baselines). A row depends on its
    pair's nominal row only, so pairs with one `mdp.row_id` share one row,
    built once; `rows_built` counts the rows built.
    """

    mdp: Mdp
    path: ObservedPath
    posterior: GumbelPosterior | None
    # A pruned artifact's rows, with posterior=None and not counted as built:
    # layer t's (ids, size, succ, prob), as `_add_rows` takes them.
    stored: InitVar[Sequence] = ()
    rows_built: int = field(default=0, init=False)
    # Per layer: the entry count of each nominal row (0 while it is not
    # built) and the built rows' (succ, prob) entries, by nominal row.
    _rows: list = field(init=False, repr=False)

    def __post_init__(self, stored):
        if self.path.mdp_digest != self.mdp.digest:
            raise ValidationFailed("path was built against a different MDP")
        if self.posterior is not None and self.posterior.path != self.path:
            raise ValidationFailed("posterior was built from a different path")
        empty = np.zeros(len(self.mdp.row_start) - 1, dtype=np.int64)
        self._rows = [(empty, empty[:0], np.zeros(0))] * self.horizon
        for t, layer in enumerate(stored):
            self._add_rows(t, *layer)

    @property
    def horizon(self) -> int:
        return self.path.T

    def layer_rows(self, t: int, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The counterfactual rows of the pair index array `pairs` at time t,
        in the order asked, as (size, succ, prob): the row of pairs[i] is the
        size[i] entries after those of pairs[:i], successor indices ascending
        and probabilities non-zero. The rows not yet built are built in this
        call, once per distinct nominal row: a `cf_transition` call, or the
        nominal row sliced from the MDP's row table."""
        if not 0 <= t < self.horizon:
            raise ValidationFailed(f"time {t} outside horizon {self.horizon}")
        rows = self.mdp.row_id[pairs]
        miss = self._rows[t][0][rows] == 0
        if miss.any():
            new, first = np.unique(rows[miss], return_index=True)
            got = [self.mdp.row(p)[:2] if self.posterior is None else
                   cf_transition(self.posterior, self.mdp, t, p) for p in pairs[miss][first].tolist()]
            self._add_rows(t, new, np.array([len(succ) for succ, _ in got]),
                           *(np.concatenate(a) for a in zip(*got)))
            self.rows_built += len(new)
        size, succ, prob = self._rows[t]
        _, at = gather_rows(size, rows)
        return size[rows], succ[at], prob[at]

    def _add_rows(self, t: int, ids: np.ndarray, size: np.ndarray, succ: np.ndarray,
                  prob: np.ndarray) -> None:
        """Add to layer t the nominal rows `ids`, none of them built yet, with
        `size[i]` (succ, prob) entries each, row after row."""
        held, held_succ, held_prob = self._rows[t]
        sizes = held.copy()
        sizes[ids] = size
        owner = np.concatenate([np.repeat(np.arange(len(held)), held), np.repeat(ids, size)])
        order = np.argsort(owner, kind="stable")
        self._rows[t] = (sizes, np.concatenate([held_succ, succ])[order],
                         np.concatenate([held_prob, prob])[order])


def build_cf_mdp(posterior: GumbelPosterior, mdp: Mdp) -> CfMdp:
    """Counterfactual MDP backed by the given posterior, on its observed path."""
    return CfMdp(mdp, posterior.path, posterior)


def nominal_cf_mdp(mdp: Mdp, path: ObservedPath) -> CfMdp:
    """Interventional layered MDP: nominal rows at every layer, no posterior."""
    return CfMdp(mdp, path, None)


# ---------------------------------------------------------------------------
# Posterior persistence: the recipe (MDP hash, path, N, seed)
# ---------------------------------------------------------------------------

def save_posterior(posterior: GumbelPosterior, file) -> None:
    """Write the recipe of `posterior` to the path `file`: one line of JSON
    {"mdp_hash", "n", "path", "seed"}. No noise is drawn; the recipe fixes
    every layer, which `load_posterior` draws again from its own stream,
    bit-identically under the same numpy on the same CPU features (numpy
    picks its vectorised log by CPU).
    """
    recipe = {
        "mdp_hash": posterior.path.mdp_digest,
        "n": posterior.n,
        "path": path_to_json(posterior.path),
        "seed": posterior.seed,
    }
    with open(file, "w") as fh:
        fh.write(json.dumps(recipe, sort_keys=True) + "\n")


def load_posterior(file, mdp: Mdp) -> GumbelPosterior:
    """The posterior whose recipe `save_posterior` wrote to `file`, built
    for `mdp` by `build_posterior`.

    A missing file, one that is not a JSON object with every recipe key, an
    `n` or `seed` that is not an integer, another MDP's hash (as in every
    recipe of a build old enough to name a sampler), a path that is not one
    of `mdp`, or a recipe `build_posterior` refuses raises ValidationFailed.
    Each layer is drawn by `_draw_layer` when it is read, and every sample
    is checked to replay the observation.
    """
    recipe = read_json(file)
    if not isinstance(recipe, dict):
        raise ValidationFailed(f"posterior artifact {file} is not a JSON object")
    missing = [key for key in ("mdp_hash", "n", "path", "seed") if key not in recipe]
    if missing:
        raise ValidationFailed(f"posterior artifact {file} has no {', '.join(missing)}")
    for key in ("n", "seed"):  # JSON integers; build_posterior checks their range
        try:
            json_values([recipe[key]], f"posterior artifact {key}", int)
        except OverflowError:  # beyond int64: an n too large, or a seed of more words
            pass
    if recipe["mdp_hash"] != mdp.digest:
        raise ValidationFailed("posterior artifact was built from a different MDP")
    path = path_from_json(recipe["path"], mdp)
    return build_posterior(mdp, path, recipe["n"], recipe["seed"])
