"""Fruchterman-Reingold force-directed layout (baseline).

The classical spring-embedder: attraction ``d^2 / k`` along edges,
repulsion ``k^2 / d`` between all pairs, with a cooling schedule.  Serves
as the comparison algorithm for the LinLog layout benches (LinLog is the
paper's choice "among the very best for social networks").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...obs.runtime import OBS
from .graph import Graph, NodeId
from .linlog import IterationCallback, LayoutResult


class FruchtermanReingold:
    """Deterministic FR layout over a :class:`Graph`."""

    def __init__(
        self,
        graph: Optional[Graph] = None,
        seed: int = 42,
        area: float = 4.0,
        chunk_size: int = 512,
    ) -> None:
        self.graph = graph or Graph()
        self.rng = np.random.default_rng(seed)
        self.area = area
        self.chunk_size = chunk_size
        self.positions: dict[NodeId, tuple[float, float]] = {}

    def seed_positions(self) -> None:
        for node in self.graph.nodes():
            if node not in self.positions:
                xy = self.rng.uniform(-1.0, 1.0, size=2)
                self.positions[node] = (float(xy[0]), float(xy[1]))

    def run(
        self,
        max_iterations: int = 100,
        on_iteration: Optional[IterationCallback] = None,
    ) -> LayoutResult:
        traced = OBS.enabled
        with OBS.span("vis.layout", {"algo": "fr", "nodes": len(self.graph)}) as span:
            result = self._anneal(max_iterations, on_iteration)
            span.set_tag("iterations", result.iterations)
            span.set_tag("converged", result.converged)
        if traced:
            OBS.metrics.histogram("vis.layout_ms", algo="fr").observe(span.duration_ms)
        return result

    def _anneal(
        self, max_iterations: int, on_iteration: Optional[IterationCallback]
    ) -> LayoutResult:
        """The force iterations, displacement capped by a cooling temperature."""
        self.seed_positions()
        nodes = self.graph.nodes()
        n = len(nodes)
        if n == 0:
            return LayoutResult({}, 0, 0.0, True)
        index = {node: i for i, node in enumerate(nodes)}
        pos = np.array([self.positions[node] for node in nodes], dtype=np.float64)
        sources, targets = [], []
        for u, v, _w in self.graph.edges():
            sources.append(index[u])
            targets.append(index[v])
        src = np.asarray(sources, dtype=np.intp)
        dst = np.asarray(targets, dtype=np.intp)
        k = float(np.sqrt(self.area / n))
        temperature = 0.1 * float(np.sqrt(self.area))
        cooling = temperature / max(max_iterations, 1)
        displacement_trace: list[float] = []
        iterations = 0
        for iteration in range(1, max_iterations + 1):
            iterations = iteration
            disp = np.zeros_like(pos)
            # Repulsion, chunked to bound memory.
            chunk = max(1, self.chunk_size)
            for start in range(0, n, chunk):
                stop = min(start + chunk, n)
                delta = pos[start:stop, None, :] - pos[None, :, :]
                dist2 = (delta**2).sum(axis=2)
                rows = np.arange(start, stop) - start
                cols = np.arange(start, stop)
                dist2[rows, cols] = np.inf
                dist = np.sqrt(np.maximum(dist2, 1e-12))
                repulse = (delta / dist[:, :, None]) * (k * k / dist)[:, :, None]
                disp[start:stop] += repulse.sum(axis=1)
            # Attraction along edges.
            if len(src):
                delta = pos[src] - pos[dst]
                dist = np.sqrt((delta**2).sum(axis=1))
                dist = np.maximum(dist, 1e-9)
                attract = (delta / dist[:, None]) * (dist * dist / k)[:, None]
                np.add.at(disp, src, -attract)
                np.add.at(disp, dst, attract)
            lengths = np.sqrt((disp**2).sum(axis=1))
            lengths = np.maximum(lengths, 1e-9)
            capped = np.minimum(lengths, temperature)
            pos += disp / lengths[:, None] * capped[:, None]
            displacement_trace.append(float(capped.max()))
            temperature = max(temperature - cooling, 1e-4)
            if on_iteration is not None:
                snapshot = {
                    node: (float(pos[i, 0]), float(pos[i, 1]))
                    for i, node in enumerate(nodes)
                }
                on_iteration(iteration, snapshot, float(capped.max()))
            if capped.max() < 1e-4:
                break
        self.positions = {
            node: (float(pos[i, 0]), float(pos[i, 1])) for i, node in enumerate(nodes)
        }
        converged = bool(displacement_trace and displacement_trace[-1] < 1e-3)
        return LayoutResult(
            dict(self.positions),
            iterations,
            displacement_trace[-1] if displacement_trace else 0.0,
            converged,
            displacement_trace,
        )
