"""Built-in MDPs: grid world, hypergeometric epidemic, and a documented
sepsis-lite patient model, and the observation presets: the sub-optimal
policies observed on them, with frozen seeds and horizons.

Sepsis-lite is an original model honoring the published constraints (four
three-level vitals, three binary treatments in the state, 8 actions, death at
three abnormal vitals, rewards scaled to [-1000, 1000]); it does not claim
equivalence to any other simulator.
"""

from __future__ import annotations

import inspect
import math
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidConfig, UnknownEnvironment
from .mdp import Action, Mdp, ObservedPath, State, json_values, sample_path


# ---------------------------------------------------------------------------
# Grid world
# ---------------------------------------------------------------------------

MOVES = {"up": (-1, 0), "down": (1, 0), "left": (0, -1), "right": (0, 1)}
_PERP = {"up": ("left", "right"), "down": ("left", "right"),
         "left": ("up", "down"), "right": ("up", "down")}
GRID_SIZE = 4  # cells per side
START_CELL, GOAL_CELL, DANGER_CELL = (0, 0), (3, 3), (1, 2)
GOAL_REWARD = 100.0  # for entering the goal cell
DANGER_PENALTY = 100.0  # for entering the danger cell
# Per-step penalty per Manhattan distance unit to the goal. Steep enough that
# loitering next to the danger cell never beats heading for the goal.
SHAPING_SCALE = 4.0


def _cell_label(r: int, c: int) -> State:
    return f"r{r}c{c}"


def _parse_cell(label: State) -> tuple[int, int]:
    r, c = label[1:].split("c")
    return int(r), int(c)


def _dist_to_goal(cell: tuple[int, int]) -> int:
    return abs(cell[0] - GOAL_CELL[0]) + abs(cell[1] - GOAL_CELL[1])


def build_gridworld(slip: float = 0.0) -> Mdp:
    """4x4 grid: shaping toward the goal, +goal/-danger entry bonuses.

    Movement is deterministic by default; with slip > 0 the agent deviates
    to a perpendicular direction with probability slip (split evenly).
    Goal and danger cells are absorbing with a dedicated no-op action and zero
    post-terminal reward. Entry bonuses are folded into R(s, a) in expectation
    over the slip outcomes. Cell (r, c) has state index r * GRID_SIZE + c;
    each pair has its own row, whose slip shares are summed per destination
    in outcome order.
    """
    if not (0.0 <= slip < 1.0):
        raise InvalidConfig(f"slip must be in [0, 1), got {slip}")

    cells = list(product(range(GRID_SIZE), repeat=2))
    states = tuple(_cell_label(r, c) for r, c in cells)
    actions = (*MOVES, "stay")
    start, goal, danger = (r * GRID_SIZE + c for r, c in (START_CELL, GOAL_CELL, DANGER_CELL))

    def step(cell, direction) -> int:
        r, c = cell
        dr, dc = MOVES[direction]
        if 0 <= r + dr < GRID_SIZE and 0 <= c + dc < GRID_SIZE:
            return (r + dr) * GRID_SIZE + c + dc
        return r * GRID_SIZE + c  # bump against the wall

    def move_row(cell, move) -> tuple[dict[int, float], float]:
        """The row and reward of moving `move` from `cell`."""
        outcomes = [(step(cell, move), 1.0 - slip)]
        outcomes += [(step(cell, perp), slip / 2.0) for perp in _PERP[move]]
        row: dict[int, float] = {}
        bonus = 0.0
        for dest, p in outcomes:
            if p > 0.0:
                row[dest] = row.get(dest, 0.0) + p
            if dest == goal:
                bonus += p * GOAL_REWARD
            elif dest == danger:
                bonus -= p * DANGER_PENALTY
        return row, -SHAPING_SCALE * _dist_to_goal(cell) + bonus

    source, action, reward, owner, succ, prob = [], [], [], [], [], []
    for s, cell in enumerate(cells):
        rows = ({len(MOVES): ({s: 1.0}, 0.0)} if s in (goal, danger)  # "stay" only
                else {a: move_row(cell, move) for a, move in enumerate(MOVES)})
        for a, (row, r) in rows.items():
            owner += [len(source)] * len(row)
            succ += row
            prob += row.values()
            source.append(s)
            action.append(a)
            reward.append(r)
    return Mdp.from_arrays(states, actions, source, action, reward, np.arange(len(source)), owner,
                           succ, prob, [start], [1.0], name=MDP_NAMES["gridworld"])


def gridworld_observed_policy(s: State, t: int) -> Action:
    """Scripted walk that enters the danger cell at step 3, then idles.

    Off-script states fall back to a greedy move toward the goal so the policy
    is defined wherever slippage might lead.
    """
    cell = _parse_cell(s)
    if cell in (GOAL_CELL, DANGER_CELL):
        return "stay"
    if t < 3:
        return ("right", "right", "down")[t]
    (gr, gc), (r, c) = GOAL_CELL, cell
    if r < gr:
        return "down"
    if c < gc:
        return "right"
    return "up" if r > gr else "left"


def gridworld_features():
    return {"dist_to_goal": lambda s: float(_dist_to_goal(_parse_cell(s))),
            "in_danger": lambda s: 1.0 if _parse_cell(s) == DANGER_CELL else 0.0}


# ---------------------------------------------------------------------------
# Epidemic (hypergeometric infection model)
# ---------------------------------------------------------------------------

NIL, V_I, V_S = "NIL", "V_I", "V_S"


def _hypergeom_pmf(k: int, M: int, n: int, N: int) -> float:
    """P[X = k] for X ~ Hypergeometric(M, n, N); exact integer arithmetic."""
    if k < 0 or k > n or N - k > M - n or N - k < 0:
        return 0.0
    return math.comb(n, k) * math.comb(M - n, N - k) / math.comb(M, N)


def _epi_label(s: int, i: int, v: int) -> State:
    return f"S{s}I{i}V{v}"


def epidemic_counts(label: State) -> tuple[int, int, int]:
    s, rest = label[1:].split("I")
    i, v = rest.split("V")
    return int(s), int(i), int(v)


def build_epidemic(population: int = 10, initial_infected: int = 1) -> Mdp:
    """Exact transition rows of the vaccination MDP of `population`
    individuals, `initial_infected` of them infected at the start.

    Doing nothing keeps the vaccine stock and infects k ~ Hypergeom(S+I,
    min(S, I), S) susceptibles; vaccinating removes the vaccinated individual
    from the population permanently and draws infections from the reduced
    pool. Vaccination actions exist only while stock and targets remain.
    Reward is -I for every action.

    Vaccinating an infected at (S, I+1, V+1), or a susceptible at (S+1, I,
    V+1), moves as doing nothing at (S, I, V), so the row table holds one
    row per state, its NIL row, computed once per (S, I) and shifted to each
    of the 2P+1 vaccine stocks V; each pair names the row of the state it
    moves as. State (S, I, V) and its row have index block(S, I) * (2P+1) +
    V, the blocks numbered in (S, I) order.
    """
    P = population
    if P < 1 or not (0 <= initial_infected <= P):
        raise InvalidConfig("population must be >= 1 and 0 <= I0 <= population")
    stocks = 2 * P + 1
    block = {(s, i): b for b, (s, i) in
             enumerate((s, i) for s in range(P + 1) for i in range(P + 1 - s))}
    states = tuple(_epi_label(s, i, v) for s, i in block for v in range(stocks))
    every = np.arange(stocks)
    source, action, row, lengths, succ, prob = [], [], [], [], [], []
    for (S, I), b in block.items():
        entries = [(block[(S - k, I + k)], p) for k in range(S + 1)
                   if (p := _hypergeom_pmf(k, S + I, min(S, I), S)) > 0.0]
        dest = np.array([d for d, _ in entries], dtype=np.int64) * stocks
        lengths.append(np.full(stocks, len(entries)))
        succ.append((every[:, None] + dest).ravel())
        prob.append(np.tile([p for _, p in entries], stocks))
        # Per action, the block its pairs move as: NIL as (S, I), and with a
        # vaccine left, V_I as (S, I-1) and V_S as (S-1, I), one vaccine less.
        for a, target in enumerate(((S, I), (S, I - 1), (S - 1, I))):
            if target in block:
                vs = every[1:] if a else every
                source.append(b * stocks + vs)
                action.append(np.full(len(vs), a))
                row.append(block[target] * stocks + vs - (1 if a else 0))
    source = np.concatenate(source)
    s0 = block[(P - initial_infected, initial_infected)] * stocks + 2 * P
    return Mdp.from_arrays(states, (NIL, V_I, V_S), source, np.concatenate(action),
                           np.repeat([float(-I) for _, I in block], stocks)[source],
                           np.concatenate(row),
                           np.repeat(np.arange(len(states)), np.concatenate(lengths)),
                           np.concatenate(succ), np.concatenate(prob), [s0], [1.0],
                           name=MDP_NAMES["epidemic"])


def epidemic_features():
    return {
        "infected": lambda s: float(epidemic_counts(s)[1]),
        "susceptible": lambda s: float(epidemic_counts(s)[0]),
        "vaccines": lambda s: float(epidemic_counts(s)[2]),
    }


# ---------------------------------------------------------------------------
# Sepsis-lite
# ---------------------------------------------------------------------------

LOW, NORMAL, HIGH = 0, 1, 2
_LEVEL_CHARS = "lnh"
TREATMENTS = ("abx", "vaso", "vent")  # treatment j targets vital j; glucose drifts
START_VITALS = (NORMAL, LOW, NORMAL, NORMAL)  # hr, bp, o2, glu
REWARD_SCALE = 1000.0  # a full trajectory's reward lies in [-REWARD_SCALE, REWARD_SCALE]


def _sepsis_label(vitals, flags) -> State:
    return "".join(_LEVEL_CHARS[v] for v in vitals) + "-" + "".join(str(b) for b in flags)


def sepsis_state_parts(label: State) -> tuple[tuple[int, ...], tuple[int, ...]]:
    vit_s, flag_s = label.split("-")
    return (tuple(_LEVEL_CHARS.index(ch) for ch in vit_s),
            tuple(int(b) for b in flag_s))


def abnormal_vitals(label: State) -> int:
    vitals, _ = sepsis_state_parts(label)
    return sum(1 for v in vitals if v != NORMAL)


def _action_label(bits) -> Action:
    return "t" + "".join(str(b) for b in bits)


def build_sepsis_lite(treat_effect: tuple[float, float, float] = (0.8, 0.8, 0.8),
                      flux: float = 0.22, death_threshold: int = 3, horizon: int = 10) -> Mdp:
    """Patient model over (4 vitals x 3 levels, 3 treatment flags); 8 actions.

    An action sets the treatment flags for the next state and its active
    treatments act on their target vitals immediately: treatment j moves
    vital j one level toward normal with probability `treat_effect[j]` in a
    step, and holds a normal vital normal. An untreated normal vital leaves
    normal with probability `flux` (split evenly between low and high);
    abnormal untreated vitals do not recover. Death (>= `death_threshold`
    abnormal vitals) and discharge (all normal, all treatments off) are
    absorbing under every action. Per-step reward is the end-scale divided
    by the horizon, so a full trajectory spans exactly [-1000, 1000]:
    constant death pays -1000, constant discharge +1000.

    A living state's row depends on (vitals, action) only: it is computed
    once, with each entry the product of its four vitals' probabilities in
    `itertools.product` order, and named by all 8 flag settings' pairs. State
    (vitals, flags) has index 8 * (vitals in base 3) + (flags in base 2), and
    action bits b lead to flags b, so action index a leads to flags index a.
    """
    if len(treat_effect) != len(TREATMENTS):
        raise InvalidConfig(f"treat_effect needs one effect per treatment {TREATMENTS}, "
                            f"got {len(treat_effect)}")
    if not all(0.0 < p <= 1.0 for p in treat_effect):
        raise InvalidConfig("treatment effects must lie in (0, 1]")
    if horizon < 1:
        raise InvalidConfig(f"horizon must be >= 1, got {horizon}")
    if not (0.0 <= flux < 1.0):
        raise InvalidConfig("flux must lie in [0, 1)")
    if sum(1 for v in START_VITALS if v != NORMAL) >= death_threshold:
        raise InvalidConfig("start state would be dead on arrival")

    all_vitals = list(product((LOW, NORMAL, HIGH), repeat=4))
    all_flags = list(product((0, 1), repeat=3))
    states = tuple(_sepsis_label(v, f) for v in all_vitals for f in all_flags)
    action_bits = list(product((0, 1), repeat=3))
    actions = tuple(_action_label(b) for b in action_bits)
    nf, na = len(all_flags), len(actions)

    def vital_dist(level: int, treated: bool, p_treat: float) -> dict[int, float]:
        if treated:
            if level == NORMAL:
                return {NORMAL: 1.0}
            return {NORMAL: p_treat, level: 1.0 - p_treat}
        if level == NORMAL and flux > 0.0:
            return {NORMAL: 1.0 - flux, LOW: flux / 2.0, HIGH: flux / 2.0}
        return {level: 1.0}

    def step_reward(vitals) -> float:
        abn = sum(1 for v in vitals if v != NORMAL)
        if abn >= death_threshold:
            return -REWARD_SCALE / horizon
        return (REWARD_SCALE - 500.0 * abn) / horizon

    # Each distinct row once, as (successor, probability) entries, and per
    # vitals the rows its 8 x 8 pairs name, pair by pair.
    row, table = [], []
    for v, vitals in enumerate(all_vitals):
        abn = sum(1 for x in vitals if x != NORMAL)
        first = len(table)
        if abn >= death_threshold:  # dead: each flag setting's own absorbing row
            named = np.repeat(np.arange(nf), na)
            table += [[(v * nf + f, 1.0)] for f in range(nf)]
        else:  # action a's row, named by the 8 flag settings
            named = np.tile(np.arange(na), nf)
            for a, bits in enumerate(action_bits):
                dists = [vital_dist(x, i < 3 and bits[i] == 1,
                                    treat_effect[i] if i < 3 else 0.0)
                         for i, x in enumerate(vitals)]
                table.append([((((l0 * 3 + l1) * 3 + l2) * 3 + l3) * nf + a,
                               math.prod((p0, p1, p2, p3)))
                              for (l0, p0), (l1, p1), (l2, p2), (l3, p3) in
                              product(*(d.items() for d in dists))])
            if abn == 0:  # discharged with all flags off: absorbing under every action
                named[:na] = na
                table.append([(v * nf, 1.0)])
        row.append(first + named)
    n = len(states)
    succ, prob = zip(*(entry for r in table for entry in r))
    s0 = sum(x * 3 ** (3 - i) for i, x in enumerate(START_VITALS)) * nf
    return Mdp.from_arrays(states, actions, np.repeat(np.arange(n), na), np.tile(np.arange(na), n),
                           np.repeat([step_reward(vitals) for vitals in all_vitals], nf * na),
                           np.concatenate(row),
                           np.repeat(np.arange(len(table)), [len(r) for r in table]), succ, prob,
                           [s0], [1.0], name=MDP_NAMES["sepsis"])


def sepsis_features():
    return {"abnormal_vitals": lambda s: float(abnormal_vitals(s))}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

# Per environment: its builder, whose keyword arguments are its config
# fields, and its rollout features.
ENVIRONMENTS = {
    "gridworld": (build_gridworld, gridworld_features),
    "epidemic": (build_epidemic, epidemic_features),
    "sepsis": (build_sepsis_lite, sepsis_features),
}

# The `Mdp.name` of every MDP an environment builds, whatever its config: an
# observation preset of that environment applies only to MDPs of this name.
MDP_NAMES = {"gridworld": "gridworld", "epidemic": "epidemic", "sepsis": "sepsis-lite"}


class Preset(NamedTuple):
    """An observation: the environment, the deliberately sub-optimal policy
    observed on it, as a (state, t) -> action callable, and the frozen seed
    and horizon of the shipped observed path."""

    env: str
    policy: Callable[[State, int], Action | None]
    seed: int
    horizon: int


# Seeds frozen so the shipped observed paths match the documented trajectories
# (epidemic: infected counts 1,2,3,6,8,9,9; sepsis: one dead-end path and one
# surviving suboptimal path). Epidemic does nothing; sepsis "catastrophic"
# withholds all treatment, so the patient usually dies, and "suboptimal"
# applies antibiotics only, which keeps the patient alive but untreated on the
# failing vital, ending neither dead nor discharged.
PRESETS = {
    "gridworld": Preset("gridworld", gridworld_observed_policy, 0, 11),
    "epidemic": Preset("epidemic", lambda s, t: NIL, 10, 7),
    "sepsis-catastrophic": Preset("sepsis", lambda s, t: "t000", 0, 10),
    "sepsis-suboptimal": Preset("sepsis", lambda s, t: "t100", 3, 10),
}


def _lookup(table: dict, kind: str, name: str):
    if name not in table:
        raise UnknownEnvironment(f"unknown {kind} {name!r}; choose from {sorted(table)}")
    return table[name]


def build_environment(name: str, **overrides) -> Mdp:
    """The environment `name` built with `overrides`, each a keyword of its
    builder given as a JSON value of its default's kind (`mdp.json_values`):
    a number for a float, an integer for an int, and an array of numbers,
    or a tuple of them, for a tuple. An integer that int64 or float64 cannot
    hold is an InvalidConfig naming its field."""
    build, _ = _lookup(ENVIRONMENTS, "environment", name)
    fields = inspect.signature(build).parameters
    config = {}
    for key, value in overrides.items():
        if key not in fields:
            raise InvalidConfig(f"{name} has no config field {key}; its fields are "
                                f"{', '.join(fields)}")
        default, field = fields[key].default, f"config field {key}"
        try:
            if isinstance(default, tuple):
                values = list(value) if isinstance(value, tuple) else value
                config[key] = tuple(json_values(values, field, float).tolist())
            else:
                config[key] = json_values([value], field, type(default)).item()
        except OverflowError:
            raise InvalidConfig(f"{field} {value!r:.80} does not fit in 64 bits") from None
    return build(**config)


def environment_features(env: str) -> dict:
    return _lookup(ENVIRONMENTS, "environment", env)[1]()


def demo_observation(preset: str) -> tuple[Mdp, ObservedPath, Callable]:
    """A preset's default environment, observed policy and frozen-seed path."""
    env, policy, seed, horizon = _lookup(PRESETS, "observation preset", preset)
    mdp = build_environment(env)
    return mdp, sample_path(mdp, policy, horizon, seed), policy
