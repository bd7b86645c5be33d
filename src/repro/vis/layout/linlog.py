"""LinLog energy-model graph layout (Noack 2003) with delta handlers.

Section VII-B of the paper: "We use the Edge LinLog algorithm of Noack
which is among the very best for social networks... What makes EdgeLinLog
even more interesting in our context is that it allows for effective
delta handlers."

The node-repulsion LinLog energy of a layout ``p`` is

    U(p) = sum_{(u,v) in E} w_uv * ||p_u - p_v||
         - sum_{u < v} ln ||p_u - p_v||

Minimizing attraction (linear) against repulsion (logarithmic) separates
clusters; we minimize with damped force iterations, vectorized with
numpy and chunked so the O(n^2) repulsion never materializes an n x n
matrix for large graphs.

Incremental relayout mirrors the paper exactly: keep old positions,
place new nodes near the barycenter of their already-laid-out neighbors
(random positions for disconnected ones), and iterate -- "it terminates
much faster since most of the nodes will only move slightly".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ...obs.runtime import OBS
from .graph import Graph, NodeId

#: Called after every iteration with (iteration, positions-by-node, energy).
#: EdiFlow uses it to stream positions to the database "at any rate until
#: the algorithm stops", keeping the system reactive (Section VII-B).
IterationCallback = Callable[[int, dict[NodeId, tuple[float, float]], float], None]


@dataclass
class LayoutResult:
    """Outcome of one layout run."""

    positions: dict[NodeId, tuple[float, float]]
    iterations: int
    energy: float
    converged: bool
    energy_trace: list[float] = field(default_factory=list)


class LinLogLayout:
    """Stateful LinLog layout engine.

    Keeps positions between runs so :meth:`update` (the delta handler
    path) can relayout incrementally.  Deterministic given ``seed``.
    """

    def __init__(
        self,
        graph: Optional[Graph] = None,
        seed: int = 42,
        repulsion: float = 1.0,
        step: float = 0.05,
        tolerance: float = 1e-3,
        chunk_size: int = 512,
    ) -> None:
        self.graph = graph or Graph()
        self.rng = np.random.default_rng(seed)
        self.repulsion = repulsion
        self.step = step
        self.tolerance = tolerance
        self.chunk_size = chunk_size
        self.positions: dict[NodeId, tuple[float, float]] = {}
        self.total_iterations = 0

    # ------------------------------------------------------------------
    # Position management
    def _random_position(self) -> tuple[float, float]:
        xy = self.rng.uniform(-1.0, 1.0, size=2)
        return (float(xy[0]), float(xy[1]))

    def seed_positions(self) -> None:
        """Assign a random position to every node lacking one."""
        for node in self.graph.nodes():
            if node not in self.positions:
                self.positions[node] = self._random_position()

    def place_near_neighbors(self, nodes: Sequence[NodeId], jitter: float = 0.05) -> None:
        """Place new nodes at the barycenter of their laid-out neighbors.

        Disconnected additions get random positions -- both behaviors
        straight from Section VII-B.
        """
        for node in nodes:
            placed_neighbors = [
                self.positions[m]
                for m in self.graph.neighbors(node)
                if m in self.positions
            ]
            if placed_neighbors:
                cx = sum(p[0] for p in placed_neighbors) / len(placed_neighbors)
                cy = sum(p[1] for p in placed_neighbors) / len(placed_neighbors)
                dx, dy = self.rng.uniform(-jitter, jitter, size=2)
                self.positions[node] = (cx + float(dx), cy + float(dy))
            else:
                self.positions[node] = self._random_position()

    def discard_missing(self) -> None:
        """Drop positions of nodes no longer in the graph."""
        live = set(self.graph.nodes())
        for node in list(self.positions):
            if node not in live:
                del self.positions[node]

    # ------------------------------------------------------------------
    # Core iteration (vectorized)
    def _prepare_arrays(
        self,
    ) -> tuple[list[NodeId], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        nodes = self.graph.nodes()
        index = {node: i for i, node in enumerate(nodes)}
        pos = np.array([self.positions[n] for n in nodes], dtype=np.float64)
        sources, targets, weights = [], [], []
        for u, v, w in self.graph.edges():
            sources.append(index[u])
            targets.append(index[v])
            weights.append(w)
        return (
            nodes,
            pos,
            np.asarray(sources, dtype=np.intp),
            np.asarray(targets, dtype=np.intp),
            np.asarray(weights, dtype=np.float64),
        )

    @staticmethod
    def _attraction(pos: np.ndarray, src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
        """Force and energy of the linear attraction term."""
        forces = np.zeros_like(pos)
        if len(src) == 0:
            return forces, 0.0
        delta = pos[dst] - pos[src]
        dist = np.sqrt((delta**2).sum(axis=1))
        dist = np.maximum(dist, 1e-9)
        # d/dp ||p_u - p_v|| = unit vector; attraction pulls together.
        unit = delta / dist[:, None]
        pull = unit * w[:, None]
        np.add.at(forces, src, pull)
        np.add.at(forces, dst, -pull)
        energy = float((w * dist).sum())
        return forces, energy

    def _repulsion_chunked(self, pos: np.ndarray) -> tuple[np.ndarray, float]:
        """Force and energy of the logarithmic repulsion, O(n^2) chunked."""
        n = len(pos)
        forces = np.zeros_like(pos)
        energy = 0.0
        if n < 2:
            return forces, energy
        chunk = max(1, self.chunk_size)
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            block = pos[start:stop]  # (b, 2)
            delta = block[:, None, :] - pos[None, :, :]  # (b, n, 2)
            dist2 = (delta**2).sum(axis=2)
            # Ignore self-pairs.
            rows = np.arange(start, stop) - start
            cols = np.arange(start, stop)
            dist2[rows, cols] = np.inf
            dist2 = np.maximum(dist2, 1e-12)
            # grad of -ln||d|| wrt block position: -delta / dist^2.
            push = (delta / dist2[:, :, None]).sum(axis=1)
            forces[start:stop] += self.repulsion * push
            with np.errstate(divide="ignore"):
                logs = 0.5 * np.log(dist2)
            logs[rows, cols] = 0.0
            energy -= 0.5 * self.repulsion * float(logs.sum())
        return forces, energy

    def _iterate_once(
        self,
        pos: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        w: np.ndarray,
        step: float,
    ) -> tuple[np.ndarray, float, float]:
        """One damped force step; returns (new_pos, energy, max_move)."""
        attraction, e_att = self._attraction(pos, src, dst, w)
        repulsion, e_rep = self._repulsion_chunked(pos)
        force = attraction + repulsion
        # Cap per-node displacement for stability.
        move = force * step
        norms = np.sqrt((move**2).sum(axis=1))
        cap = 0.5
        too_fast = norms > cap
        if too_fast.any():
            move[too_fast] *= (cap / norms[too_fast])[:, None]
        new_pos = pos + move
        max_move = float(norms.clip(max=cap).max()) if len(norms) else 0.0
        return new_pos, e_att + e_rep, max_move

    # ------------------------------------------------------------------
    # Public entry points
    def run(
        self,
        max_iterations: int = 200,
        on_iteration: Optional[IterationCallback] = None,
        step: Optional[float] = None,
    ) -> LayoutResult:
        """Initial computation: random seed positions, iterate to
        convergence (energy change below tolerance) or ``max_iterations``."""
        self.seed_positions()
        self.discard_missing()
        return self._minimize(max_iterations, on_iteration, step or self.step)

    def update(
        self,
        added_nodes: Sequence[NodeId] = (),
        removed_nodes: Sequence[NodeId] = (),
        max_iterations: int = 200,
        on_iteration: Optional[IterationCallback] = None,
        step: Optional[float] = None,
    ) -> LayoutResult:
        """Delta-handler path: incremental relayout after a graph change.

        The caller has already applied the change to ``self.graph``;
        ``added_nodes``/``removed_nodes`` tell the engine which positions
        to create/discard.  Existing positions are kept, so convergence
        "will be much faster" (Section VII-B).
        """
        for node in removed_nodes:
            self.positions.pop(node, None)
        self.discard_missing()
        fresh = [n for n in added_nodes if n in self.graph]
        self.place_near_neighbors(fresh)
        self.seed_positions()  # catch nodes added without being listed
        return self._minimize(max_iterations, on_iteration, step or self.step)

    def _minimize(
        self,
        max_iterations: int,
        on_iteration: Optional[IterationCallback],
        step: float,
    ) -> LayoutResult:
        traced = OBS.enabled
        with OBS.span("vis.layout", {"algo": "linlog", "nodes": len(self.graph)}) as span:
            result = self._descend(max_iterations, on_iteration, step)
            span.set_tag("iterations", result.iterations)
            span.set_tag("converged", result.converged)
        if traced:
            OBS.metrics.histogram("vis.layout_ms", algo="linlog").observe(
                span.duration_ms
            )
        return result

    def _descend(
        self,
        max_iterations: int,
        on_iteration: Optional[IterationCallback],
        step: float,
    ) -> LayoutResult:
        """Gradient descent on the LinLog energy, step halved on overshoot."""
        if len(self.graph) == 0:
            return LayoutResult({}, 0, 0.0, True)
        nodes, pos, src, dst, w = self._prepare_arrays()
        energy_trace: list[float] = []
        previous_energy: Optional[float] = None
        converged = False
        iterations = 0
        current_step = step
        for iteration in range(1, max_iterations + 1):
            iterations = iteration
            new_pos, energy, max_move = self._iterate_once(pos, src, dst, w, current_step)
            if previous_energy is not None and energy > previous_energy:
                # Overshoot: damp the step and retry direction next round.
                current_step *= 0.5
            pos = new_pos
            # The energy is translation-invariant; pin the centroid so the
            # layout does not drift (keeps incremental updates stable).
            pos = pos - pos.mean(axis=0, keepdims=True)
            energy_trace.append(energy)
            self.total_iterations += 1
            if on_iteration is not None:
                snapshot = {
                    node: (float(pos[i, 0]), float(pos[i, 1]))
                    for i, node in enumerate(nodes)
                }
                on_iteration(iteration, snapshot, energy)
            if previous_energy is not None:
                denominator = max(abs(previous_energy), 1e-9)
                if abs(previous_energy - energy) / denominator < self.tolerance:
                    converged = True
                    break
            if max_move < self.tolerance * 0.1:
                converged = True
                break
            previous_energy = energy
        self.positions = {
            node: (float(pos[i, 0]), float(pos[i, 1])) for i, node in enumerate(nodes)
        }
        final_energy = energy_trace[-1] if energy_trace else 0.0
        return LayoutResult(dict(self.positions), iterations, final_energy, converged, energy_trace)

    # ------------------------------------------------------------------
    def energy(self) -> float:
        """Current LinLog energy of the stored positions."""
        if len(self.graph) == 0:
            return 0.0
        _nodes, pos, src, dst, w = self._prepare_arrays()
        _f, e_att = self._attraction(pos, src, dst, w)
        _f2, e_rep = self._repulsion_chunked(pos)
        return e_att + e_rep
