"""Walk-to-circuit compiler: coin layers, increment/decrement cascades,
bounded-rank CkX decomposition, and movement markers.

Wire layout is fixed: position qubits x1..xn first (x1 is the most
significant position bit), then the coin qubit(s), then any ancillas the
decomposition needs. The compiler works on target tuples: a gate is its
wires (controls first, target last), None a move marker, and its label
follows from its length (X, else C{len - 1}X). A Circuit holds the
step's coin angles and its shift in that form. This module holds no gate
matrices: the executor takes each gate's from gates.ckx by its rank,
len(targets). Gate objects (GateApplication, MoveMarker) are built only
when Circuit.ops is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Iterable

MAX_POSITION_QUBITS = 20  # the largest ring the compiler and the census take is 2^20 nodes


@dataclass(frozen=True)
class GateApplication:
    """One gate: a label, target wires (controls first, target last), and
    for RY the rotation angle."""

    label: str
    targets: tuple[int, ...]
    theta: float | None = None


@dataclass(frozen=True)
class MoveMarker:
    """Atom rearrangement point; every qubit waits out tau_move_seconds here."""


ShiftOp = tuple[int, ...] | None  # a gate's target wires, or None for a move marker


def _label(targets: tuple[int, ...]) -> str:
    """X on one wire, else C{k}X with k = len(targets) - 1 controls."""
    return "X" if len(targets) == 1 else f"C{len(targets) - 1}X"


@dataclass(frozen=True)
class Circuit:
    """One compiled step: the coin's RY angles, on the coin wires, then the shift.

    The coin wires are the last len(coin_angles) data wires, just below
    the ancillas. ops is the step as gate objects, built on first read.
    """

    qubit_count: int
    shift: tuple[ShiftOp, ...]
    coin_angles: tuple[float, ...] = ()
    ancilla_indices: tuple[int, ...] = ()

    @cached_property
    def ops(self) -> tuple[GateApplication | MoveMarker, ...]:
        first = self.qubit_count - len(self.ancilla_indices) - len(self.coin_angles)
        coin = tuple(GateApplication("RY", (first + i,), theta=theta) for i, theta in enumerate(self.coin_angles))
        return coin + tuple(MoveMarker() if t is None else GateApplication(_label(t), t) for t in self.shift)


@dataclass(frozen=True)
class WalkSpec:
    """A coined walk on a ring of 2**position_qubits nodes.

    coin_qubits=1 is the standard walk (coin 0 steps down, 1 steps up);
    coin_qubits=2 is the lazy walk whose second coin qubit gates movement
    (c2=0 rests, then c1 picks the direction). Schedules give the coin
    angles per step; phi_schedule exists exactly for the lazy walk.
    """

    position_qubits: int
    coin_qubits: int
    theta_schedule: tuple[float, ...]
    phi_schedule: tuple[float, ...] | None

    def __post_init__(self) -> None:
        for name in ("position_qubits", "coin_qubits"):
            if not isinstance(getattr(self, name), int):
                raise ValueError(f"{name} = {getattr(self, name)!r} is not an integer")
        if not 2 <= self.position_qubits <= MAX_POSITION_QUBITS:
            raise ValueError(f"position_qubits {self.position_qubits} outside [2, {MAX_POSITION_QUBITS}]")
        if self.coin_qubits not in (1, 2):
            raise ValueError(f"coin_qubits must be 1 or 2, got {self.coin_qubits}")
        if not self.theta_schedule:
            raise ValueError("theta_schedule is empty; a walk needs at least one step")
        if self.coin_qubits == 2:
            if self.phi_schedule is None or len(self.phi_schedule) != self.steps:
                raise ValueError("phi_schedule must cover every step of a 2q-coin walk")
        elif self.phi_schedule is not None:
            raise ValueError("phi_schedule is only meaningful for a 2q-coin walk")
        for name in ("theta_schedule", "phi_schedule"):
            for t, angle in enumerate(getattr(self, name) or ()):
                if not math.isfinite(angle):
                    raise ValueError(f"{name} entry {t} is {angle}, not a finite angle")

    @property
    def steps(self) -> int:
        return len(self.theta_schedule)

    @property
    def node_count(self) -> int:
        return 2**self.position_qubits

    @property
    def data_qubit_count(self) -> int:
        return self.position_qubits + self.coin_qubits

    @property
    def coin_indices(self) -> tuple[int, ...]:
        return tuple(range(self.position_qubits, self.data_qubit_count))

    @property
    def coin_schedules(self) -> tuple[tuple[float, ...], ...]:
        """One angle schedule per coin qubit: theta's, then for the lazy walk phi's."""
        return (self.theta_schedule, self.phi_schedule)[: self.coin_qubits]


def uniform_spec(position_qubits: int, coin_qubits: int, steps: int = 21) -> WalkSpec:
    """WalkSpec of the default experiment: every coin angle pi/2."""
    angles = (math.pi / 2,) * steps
    return WalkSpec(position_qubits, coin_qubits, angles, angles if coin_qubits == 2 else None)


@dataclass(frozen=True)
class NativeGateSet:
    """Hardware gate menu: multiqubit gates up to max_rank.

    With param_a unset, CZ/CCZ/C3Z use the published effective matrices.
    With param_a set, CZ and CCZ come from the tunable family at that
    effort; rank 4 has no published tuning curve and keeps its fixed
    matrix. gates.ckx builds each of them.
    """

    max_rank: int = 3
    param_a: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.max_rank, int) or self.max_rank not in (3, 4):
            raise ValueError(f"max_rank must be 3 or 4, got {self.max_rank}")
        if self.param_a is not None and not (math.isfinite(self.param_a) and self.param_a >= 0):
            raise ValueError(f"param_a = {self.param_a} must be finite and nonnegative")


def build_shift_abstract(position_qubits: int, coin_qubits: int) -> tuple[tuple[int, ...], ...]:
    """Coin-conditioned shift, before rank bounding, as each gate's target
    wires: an increment cascade for the step-up coin value followed by its
    X-conjugated mirror for the step-down value.

    Increment: for j = 1..n a CkX onto x_j controlled on every lower
    position bit x_{j+1}..x_n plus the coin (both coin qubits for the lazy
    walk), widest gate first so each gate still sees pre-carry bits.
    Decrement: flip c1 and x_2..x_n, run the same cascade with each x_j
    restored just before the gate that targets it, then restore c1. The
    rest branch of the lazy walk needs nothing: c2 stays an ordinary
    control, so c2=0 blocks both cascades.
    """
    n = position_qubits
    coins = tuple(range(n, n + coin_qubits))
    c1 = coins[0]
    cascade = [tuple(range(j, n)) + coins + (j - 1,) for j in range(1, n + 1)]
    ops = cascade + [(c1,)] + [(j - 1,) for j in range(2, n + 1)] + cascade[:1]
    for j in range(2, n + 1):
        ops += [(j - 1,), cascade[j - 1]]
    ops.append((c1,))
    return tuple(ops)


def _ladder_shape(k: int, max_rank: int) -> tuple[int, int]:
    """Ladder size (m, q) for a CkX above max_rank: m rungs of rank
    max_rank, each carrying onto its own ancilla, and a deepest rung with
    q controls."""
    width = max_rank - 2  # controls consumed per rung beyond the carried ancilla
    m = math.ceil((k - (max_rank - 1)) / width)
    return m, k - width * m


def decompose_ckx(k: int, max_rank: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Rewrite a CkX as a ladder of gates of rank <= max_rank, each given
    by its target wires.

    Local wire convention: controls 0..k-1, target k, ancillas k+1 onward.
    The ladder zig-zags carries down a chain of ancillas and runs twice, so
    every ancilla is returned to its incoming value (dirty ancillas are
    fine) and no phase is left behind. A CkX above max_rank costs 4m gates
    and m ancillas, with m from _ladder_shape.
    """
    if k < 1:
        raise ValueError("need at least one control")
    if max_rank < 3:
        raise ValueError("decomposition needs native rank >= 3")
    if k + 1 <= max_rank:
        return (tuple(range(k + 1)),), 0

    width = max_rank - 2
    m, q = _ladder_shape(k, max_rank)
    anc = range(k + 1, k + 1 + m)
    sinks = (k,) + tuple(anc[:-1])  # rung 0 carries onto the target, rung j onto ancilla j - 1
    rungs = [tuple(range(width * j, width * (j + 1))) + (anc[j], sinks[j]) for j in range(m)]
    deep_controls = tuple(range(width * m, k))
    assert len(deep_controls) == q and 2 <= q <= max_rank - 1
    rungs.append(deep_controls + (anc[m - 1],))

    # Compute the ancilla chain from the deepest rung up, fire onto the
    # target, then unwind; running the half twice cancels the garbage each
    # rung left on its carried ancilla.
    half = rungs[::-1] + rungs[1:-1]  # gm..g0 then g1..gm-1
    return tuple(half + half), m


def ancilla_requirement(position_qubits: int, coin_qubits: int, max_rank: int) -> int:
    """Scratch qubits needed to compile one step (ancillas are pooled)."""
    worst_k = position_qubits - 1 + coin_qubits
    if worst_k + 1 <= max_rank:
        return 0
    return _ladder_shape(worst_k, max_rank)[0]


def _with_move_markers(ops: Iterable[tuple[int, ...]]) -> tuple[ShiftOp, ...]:
    """Insert a move marker (None) before each multiqubit gate whose wires
    are not already covered by the previous multiqubit gate. The first
    multiqubit gate of a step starts from the layout the previous step
    left behind, so it gets no marker."""
    out: list[ShiftOp] = []
    previous: frozenset[int] | None = None
    for targets in ops:
        if len(targets) >= 2:
            wires = frozenset(targets)
            if previous is not None and not wires <= previous:
                out.append(None)
            previous = wires
        out.append(targets)
    return tuple(out)


# Bounded, though the compiler takes rings up to 2^20: simulation admits the 16
# shapes whose step fits in 9 qubits, and a tolerance run compiles 12 of them once each.
@lru_cache(maxsize=16)
def _compiled_shift(position_qubits: int, coin_qubits: int, max_rank: int) -> tuple[int, tuple, tuple]:
    """(qubit count, shift, ancillas) shared by every step of every walk of this shape and rank bound."""
    n_data = position_qubits + coin_qubits
    ancillas = tuple(range(n_data, n_data + ancilla_requirement(position_qubits, coin_qubits, max_rank)))
    compiled: list[tuple[int, ...]] = []
    for targets in build_shift_abstract(position_qubits, coin_qubits):
        if len(targets) <= max_rank:
            compiled.append(targets)
            continue
        local_ops, used = decompose_ckx(len(targets) - 1, max_rank)
        wires = targets + ancillas[:used]  # local wire i is wires[i]
        # Every ladder gate has 3 or more wires, so its itemgetter returns a tuple.
        compiled += [itemgetter(*local)(wires) for local in local_ops]
    return n_data + len(ancillas), _with_move_markers(compiled), ancillas


def build_step_circuit(spec: WalkSpec, gates: NativeGateSet, step_index: int) -> Circuit:
    """Compile one full walk step (coin + shift) to the native gate set; the shift is cached per shape."""
    if not 0 <= step_index < spec.steps:
        raise ValueError(f"step_index {step_index} outside schedule")
    qubit_count, shift, ancillas = _compiled_shift(spec.position_qubits, spec.coin_qubits, gates.max_rank)
    return Circuit(qubit_count, shift, tuple(s[step_index] for s in spec.coin_schedules), ancillas)


@lru_cache(maxsize=8)  # one table per rank bound: composite asks for 3 to 5
def _census_prefix(max_rank: int) -> tuple[dict[int, int], ...]:
    """Prefix sums of the census: row i counts, by rank in ascending order,
    the multiqubit gates of one CkX for each k = 1 .. i - 1, after rank
    bounding and in both cascades. Rows run to i = MAX_POSITION_QUBITS + 2,
    the 2q-coin walk on the largest ring."""
    counts: dict[int, int] = {}
    rows = [{}, {}]
    for k in range(1, MAX_POSITION_QUBITS + 2):
        # Each CkX appears once in the increment and once in the decrement.
        if k + 1 <= max_rank:
            counts[k + 1] = counts.get(k + 1, 0) + 2
        else:
            m, q = _ladder_shape(k, max_rank)
            counts[max_rank] = counts.get(max_rank, 0) + 2 * (2 + 4 * (m - 1))
            counts[q + 1] = counts.get(q + 1, 0) + 2 * 2
        rows.append(dict(sorted(counts.items())))
    return tuple(rows)


def count_multiqubit_gates(position_qubits: int, coin_qubits: int, max_rank: int) -> dict[int, int]:
    """Per-step census of multiqubit gates (rank >= 2) after rank bounding, by rank in ascending order.

    max_rank may be 5, above any NativeGateSet, for the forward-looking
    gate-set comparison. The shift's CkX gates have k = coin_qubits to
    position_qubits + coin_qubits - 1, so the census is the difference of
    two rows of the rank bound's prefix table (_census_prefix), and ring
    exponents up to MAX_POSITION_QUBITS cost nothing. Each call returns a
    fresh dict.
    """
    if max_rank < 3:
        raise ValueError("native rank must be at least 3")
    if not (0 <= position_qubits <= MAX_POSITION_QUBITS and coin_qubits in (1, 2)):
        raise ValueError(f"no census for {position_qubits} position and {coin_qubits} coin qubits")
    table = _census_prefix(max_rank)
    high, low = table[position_qubits + coin_qubits], table[coin_qubits]
    return {rank: count - low.get(rank, 0) for rank, count in high.items() if count > low.get(rank, 0)}
