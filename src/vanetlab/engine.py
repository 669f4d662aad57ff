"""Deterministic discrete-event core.

Virtual time is integer nanoseconds. Events are totally ordered by
(fire_time, insertion seq), so two runs with the same inputs execute the
same trace. Radio delivery is an ideal unit disk: a frame reaches every
node within range, with latency floor(size*8/bandwidth) plus propagation.
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Optional

from .errors import SchedulingInPast, UnknownNode

SimTime = int  # nanoseconds of virtual time

NS_PER_S = 1_000_000_000

#: transmit() destination meaning "all nodes in range"
BROADCAST = -1


def seconds(s: float) -> SimTime:
    """Convert seconds to integer nanoseconds (floor)."""
    return int(s * NS_PER_S)


def mix64(*parts: int) -> int:
    """Mix integers into one 64-bit value (splitmix64 avalanche per part).

    Used to derive independent substream seeds from (master seed, key...)
    tuples; identical inputs give identical outputs on every platform.
    """
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h = (h + (p & 0xFFFFFFFFFFFFFFFF)) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 31
    return h


def substream(seed: int, *keys: int) -> random.Random:
    """Deterministic per-purpose RNG derived from a master seed."""
    return random.Random(mix64(seed, *keys))


@dataclass
class RadioConfig:
    """Unit-disk radio: in-range frames always arrive, others never do."""

    range_m: float = 250.0
    bandwidth_bps: int = 6_000_000
    prop_delay_s_per_m: float = 3.336e-9

    def validate(self) -> None:
        # chained comparisons are False for NaN, so NaN is rejected too
        if not 0 < self.range_m < math.inf:
            raise ValueError("range_m must be finite and > 0")
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be > 0")
        if not 0 <= self.prop_delay_s_per_m < math.inf:
            raise ValueError("prop_delay_s_per_m must be finite and >= 0")


@dataclass
class _NodeState:
    position: tuple[float, float]
    velocity: tuple[float, float]
    receiver: Callable[[int, Any], None]


def _discard(src: int, payload: Any) -> None:
    """Receiver of a node registered without one: frames still arrive
    (and count as events) but go nowhere."""


class Engine:
    """Single-threaded event loop plus node registry and radio model."""

    def __init__(self, radio: RadioConfig | None = None):
        self.radio = radio or RadioConfig()
        self.radio.validate()
        self.clock: SimTime = 0
        # (fire_time, seq, action); seq is unique, so actions never compare
        self._queue: list[tuple[SimTime, int, Callable[[], None]]] = []
        self._seq = 0
        self._nodes: dict[int, _NodeState] = {}
        self._ids: list[int] = []  # registered ids, ascending
        # called as drop_hook(src, dst, payload) when a unicast has no
        # in-range receiver; wired to the flow monitor by the scenario
        self.drop_hook: Optional[Callable[[int, int, Any], None]] = None

    # -- node registry -------------------------------------------------

    def register_node(
        self,
        node_id: int,
        position: tuple[float, float],
        velocity: tuple[float, float] = (0.0, 0.0),
        receiver: Optional[Callable[[int, Any], None]] = None,
    ) -> None:
        if node_id not in self._nodes:
            bisect.insort(self._ids, node_id)
        self._nodes[node_id] = _NodeState(position, velocity, receiver or _discard)

    def _state(self, node_id: int) -> _NodeState:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNode(f"node {node_id} is not registered") from None

    # -- scheduling ----------------------------------------------------

    def schedule_at(self, fire_time: SimTime, action: Callable[[], None]) -> None:
        if fire_time < self.clock:
            raise SchedulingInPast(f"event at t={fire_time} but clock is {self.clock}")
        self._seq += 1
        heapq.heappush(self._queue, (fire_time, self._seq, action))

    def schedule_in(self, delay: SimTime, action: Callable[[], None]) -> None:
        self.schedule_at(self.clock + delay, action)

    def run_until(self, t_end: SimTime) -> int:
        """Execute every event with fire_time <= t_end; returns the count."""
        if t_end < self.clock:
            raise ValueError(f"t_end {t_end} is before clock {self.clock}")
        queue = self._queue
        pop = heapq.heappop
        executed = 0
        while queue and queue[0][0] <= t_end:
            self.clock, _, action = pop(queue)
            action()
            executed += 1
        self.clock = t_end
        return executed

    # -- positions and connectivity -------------------------------------

    def position_at(self, node_id: int, t: SimTime) -> tuple[float, float]:
        st = self._state(node_id)
        dt = t / NS_PER_S
        return (st.position[0] + st.velocity[0] * dt, st.position[1] + st.velocity[1] * dt)

    def distance(self, a: int, b: int, t: SimTime) -> float:
        # position_at's arithmetic, inlined: this is the radio's inner loop
        sa, sb = self._state(a), self._state(b)
        dt = t / NS_PER_S
        (ax, ay), (avx, avy) = sa.position, sa.velocity
        (bx, by), (bvx, bvy) = sb.position, sb.velocity
        return math.hypot((ax + avx * dt) - (bx + bvx * dt), (ay + avy * dt) - (by + bvy * dt))

    def _reach(self, src: int, candidates: Iterable[int], t: SimTime):
        """(node, distance) for each candidate inside src's unit disk at t,
        in candidate order: one distance per pair, src itself excluded."""
        range_m = self.radio.range_m
        for other in candidates:
            if other != src:
                d = self.distance(src, other, t)
                if d <= range_m:
                    yield other, d

    def neighbors(self, node_id: int, t: SimTime) -> list[int]:
        """All other nodes within radio range at time t, ascending id."""
        self._state(node_id)
        return [other for other, _ in self._reach(node_id, self._ids, t)]

    # -- radio -----------------------------------------------------------

    def latency_ns(self, size_bytes: int, distance_m: float) -> SimTime:
        """Serialization plus propagation delay, floored to whole ns, >= 1."""
        tx = (size_bytes * 8 * NS_PER_S) // self.radio.bandwidth_bps
        prop = int(self.radio.prop_delay_s_per_m * distance_m * NS_PER_S)
        return max(1, tx + prop)

    def transmit(self, src: int, dst: int, size_bytes: int, payload: Any) -> None:
        """Schedule delivery of one frame.

        dst == BROADCAST reaches every in-range node, scheduled in
        ascending id order; a unicast to an out-of-range destination (or
        to src itself) is silently lost, reported through drop_hook.
        """
        self._state(src)
        if size_bytes <= 0:
            raise ValueError("size_bytes must be > 0")
        clock = self.clock
        if dst == BROADCAST:
            reached = self._reach(src, self._ids, clock)
        else:
            self._state(dst)
            reached = list(self._reach(src, (dst,), clock))
            if not reached and self.drop_hook is not None:
                self.drop_hook(src, dst, payload)
        for rcv, dist in reached:
            self.schedule_at(
                clock + self.latency_ns(size_bytes, dist),
                partial(self._nodes[rcv].receiver, src, payload),
            )
