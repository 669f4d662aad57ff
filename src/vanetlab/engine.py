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
from typing import Any, Callable, Optional

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
        # no receiver is farther than range_m, so this bounds every delay
        if not math.isfinite(self.prop_delay_s_per_m * self.range_m * NS_PER_S):
            raise ValueError("prop_delay_s_per_m * range_m must be finite in ns")


def _discard(src: int, payload: Any) -> None:
    """Receiver of a node registered without one: frames still arrive
    (and count as events) but go nowhere."""


def _call(action: Callable[[], None], _: None) -> None:
    """Heap callee of a schedule_at timer."""
    action()


#: Verlet skin as a fraction of the radio range: a broadcast's candidate
#: list holds every node within range_m * (1 + SKIN_FRACTION) at build time
SKIN_FRACTION = 0.25


class Engine:
    """Single-threaded event loop plus node registry and radio model."""

    def __init__(self, radio: RadioConfig | None = None):
        self.radio = radio or RadioConfig()
        self.radio.validate()
        self.clock: SimTime = 0
        # (fire_time, seq, fn, a, b), run as fn(a, b); seq is unique, so
        # the comparison never reaches fn
        self._queue: list[tuple[SimTime, int, Callable[[Any, Any], None], Any, Any]] = []
        self._seq = 0
        # node id -> (x, y, vx, vy) at t = 0, and node id -> receiver
        self._kin: dict[int, tuple[float, float, float, float]] = {}
        self._receivers: dict[int, Callable[[int, Any], None]] = {}
        self._ids: list[int] = []  # registered ids, ascending
        # Verlet lists: node id -> (valid until, candidate ids ascending).
        # No pair closes in faster than 2 * v_max, so a node beyond
        # range + skin at build time stays out of range for skin / (2 v_max);
        # a list lives 0.99 of that, a margin for rounding.
        self._verlet: dict[int, tuple[float, list[int]]] = {}
        self._v_max = 0.0
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
        if node_id not in self._kin:
            bisect.insort(self._ids, node_id)
        (x, y), (vx, vy) = position, velocity
        self._kin[node_id] = (x, y, vx, vy)
        self._receivers[node_id] = receiver or _discard
        self._verlet.clear()
        # a re-registered node keeps the old maximum: the lists then
        # expire early, which is safe
        self._v_max = max(self._v_max, math.hypot(vx, vy))

    def _require(self, node_id: int) -> None:
        if node_id not in self._kin:
            raise UnknownNode(f"node {node_id} is not registered")

    # -- scheduling ----------------------------------------------------

    def schedule_at(self, fire_time: SimTime, action: Callable[[], None]) -> None:
        if fire_time < self.clock:
            raise SchedulingInPast(f"event at t={fire_time} but clock is {self.clock}")
        self._seq += 1
        heapq.heappush(self._queue, (fire_time, self._seq, _call, action, None))

    def schedule_in(self, delay: SimTime, action: Callable[[], None]) -> None:
        self.schedule_at(self.clock + delay, action)

    def schedule_series(
        self, start: SimTime, interval: SimTime, count: int, action: Callable[[int], None]
    ) -> None:
        """Run action(i) at start + i * interval for i in range(count).

        The series reserves `count` consecutive sequence numbers now, so it
        interleaves with other events exactly as `count` schedule_at calls
        made here would; but the heap holds only its next event.
        """
        if start < self.clock:
            raise SchedulingInPast(f"event at t={start} but clock is {self.clock}")
        if interval < 0 or count <= 0:
            raise ValueError("a series needs interval >= 0 and count > 0")
        first_seq = self._seq + 1
        self._seq += count
        queue = self._queue

        def fire(i: int, _: None) -> None:
            nxt = i + 1
            if nxt < count:
                heapq.heappush(queue, (start + nxt * interval, first_seq + nxt, fire, nxt, None))
            action(i)

        heapq.heappush(queue, (start, first_seq, fire, 0, None))

    def run_until(self, t_end: SimTime) -> int:
        """Execute every event with fire_time <= t_end; returns the count."""
        if t_end < self.clock:
            raise ValueError(f"t_end {t_end} is before clock {self.clock}")
        queue = self._queue
        pop = heapq.heappop
        executed = 0
        while queue and queue[0][0] <= t_end:
            self.clock, _, fn, a, b = pop(queue)
            fn(a, b)
            executed += 1
        self.clock = t_end
        return executed

    # -- positions and connectivity -------------------------------------

    def position_at(self, node_id: int, t: SimTime) -> tuple[float, float]:
        self._require(node_id)
        x, y, vx, vy = self._kin[node_id]
        dt = t / NS_PER_S
        return (x + vx * dt, y + vy * dt)

    def distance(self, a: int, b: int, t: SimTime) -> float:
        # position_at's arithmetic, inlined: this is the radio's inner loop
        try:
            ax, ay, avx, avy = self._kin[a]
            bx, by, bvx, bvy = self._kin[b]
        except KeyError as e:
            raise UnknownNode(f"node {e.args[0]} is not registered") from None
        dt = t / NS_PER_S
        return math.hypot((ax + avx * dt) - (bx + bvx * dt), (ay + avy * dt) - (by + bvy * dt))

    def neighbors(self, node_id: int, t: SimTime) -> list[int]:
        """All other nodes within radio range at time t, ascending id."""
        self._require(node_id)
        range_m = self.radio.range_m
        return [
            other for other in self._ids
            if other != node_id and self.distance(node_id, other, t) <= range_m
        ]

    def _candidates(self, src: int, t: SimTime) -> list[int]:
        """Src's Verlet list at t: ascending ids of every other node that
        can be in range until the list expires, rebuilt once it has."""
        entry = self._verlet.get(src)
        if entry is not None and t <= entry[0]:
            return entry[1]
        skin = self.radio.range_m * SKIN_FRACTION
        reach = self.radio.range_m + skin
        life_ns = 0.99 * skin / (2 * self._v_max) * NS_PER_S if self._v_max > 0 else math.inf
        dt = t / NS_PER_S
        kin = self._kin
        x, y, vx, vy = kin[src]
        px, py = x + vx * dt, y + vy * dt
        out = []
        for other in self._ids:
            ox, oy, ovx, ovy = kin[other]
            if other != src and math.hypot(px - (ox + ovx * dt), py - (oy + ovy * dt)) <= reach:
                out.append(other)
        self._verlet[src] = (t + life_ns, out)
        return out

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
        Each receiver is confirmed with one scalar distance() and its
        arrival time follows latency_ns(); its heap entry carries the
        receiver and its (src, payload) arguments.
        """
        if src not in self._kin:
            raise UnknownNode(f"node {src} is not registered")
        if size_bytes <= 0:
            raise ValueError("size_bytes must be > 0")
        clock, radio = self.clock, self.radio
        range_m = radio.range_m
        tx = (size_bytes * 8 * NS_PER_S) // radio.bandwidth_bps
        prop = radio.prop_delay_s_per_m
        if dst != BROADCAST:
            if dst != src and (d := self.distance(src, dst, clock)) <= range_m:
                lat = tx + int(prop * d * NS_PER_S)
                self._seq += 1
                heapq.heappush(self._queue, (clock + (lat if lat > 0 else 1), self._seq,
                                             self._receivers[dst], src, payload))
            elif self.drop_hook is not None:
                self.drop_hook(src, dst, payload)
            return
        queue, receivers, seq, distance = self._queue, self._receivers, self._seq, self.distance
        for other in self._candidates(src, clock):
            if (d := distance(src, other, clock)) <= range_m:
                lat = tx + int(prop * d * NS_PER_S)
                seq += 1
                heapq.heappush(queue, (clock + (lat if lat > 0 else 1), seq,
                                       receivers[other], src, payload))
        self._seq = seq
