"""The US-elections application (Section III-a, Figure 1).

"A dynamic visualisation of elections outcome, varying as new election
results become available...  This very simple example uses a process of
two activities: computing some aggregates over the votes, and visualizing
the results."

We build the whole pipeline: a synthetic incremental returns feed, the
two-activity EdiFlow process, the aggregate procedure with an incremental
delta handler, and the TreeMap visual mapping (state area proportional to
population, shade proportional to the leading party's margin).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

from ..db.database import Database
from ..db.schema import Column
from ..db.types import FLOAT, INTEGER, TEXT
from ..ivm.delta import Delta
from ..vis.attributes import VisualItem
from ..vis.color import SequentialScale
from ..vis.treemap import squarify
from ..workflow.model import (
    CallProcedure,
    ProcessDefinition,
    RelationDecl,
    UpdatePropagation,
    seq,
)
from ..workflow.procedures import Procedure, ProcessEnv, Tables

#: The 50 states plus DC ("the 51 states are shown", Section III).
STATES: tuple[tuple[str, int], ...] = (
    ("AL", 5), ("AK", 1), ("AZ", 7), ("AR", 3), ("CA", 39), ("CO", 6),
    ("CT", 4), ("DE", 1), ("DC", 1), ("FL", 22), ("GA", 11), ("HI", 1),
    ("ID", 2), ("IL", 13), ("IN", 7), ("IA", 3), ("KS", 3), ("KY", 5),
    ("LA", 5), ("ME", 1), ("MD", 6), ("MA", 7), ("MI", 10), ("MN", 6),
    ("MS", 3), ("MO", 6), ("MT", 1), ("NE", 2), ("NV", 3), ("NH", 1),
    ("NJ", 9), ("NM", 2), ("NY", 19), ("NC", 11), ("ND", 1), ("OH", 12),
    ("OK", 4), ("OR", 4), ("PA", 13), ("RI", 1), ("SC", 5), ("SD", 1),
    ("TN", 7), ("TX", 30), ("UT", 3), ("VT", 1), ("VA", 9), ("WA", 8),
    ("WV", 2), ("WI", 6), ("WY", 1),
)

PARTIES = ("DEM", "REP")

#: Census-style regions for the hierarchical treemap view.
REGIONS: dict[str, tuple[str, ...]] = {
    "northeast": ("CT", "ME", "MA", "NH", "NJ", "NY", "PA", "RI", "VT"),
    "midwest": ("IL", "IN", "IA", "KS", "MI", "MN", "MO", "NE", "ND", "OH",
                "SD", "WI"),
    "south": ("AL", "AR", "DE", "DC", "FL", "GA", "KY", "LA", "MD", "MS",
              "NC", "OK", "SC", "TN", "TX", "VA", "WV"),
    "west": ("AK", "AZ", "CA", "CO", "HI", "ID", "MT", "NV", "NM", "OR",
             "UT", "WA", "WY"),
}

T_VOTES = "election_votes"
T_AGG = "election_agg"


def install_schema(database: Database) -> None:
    """Create the application tables (idempotent)."""
    if not database.has_table(T_VOTES):
        database.create_table(
            T_VOTES,
            [
                Column("id", INTEGER, nullable=False),
                Column("state", TEXT, nullable=False),
                Column("party", TEXT, nullable=False),
                Column("votes", INTEGER, nullable=False),
            ],
            primary_key="id",
        )
    if not database.has_table(T_AGG):
        database.create_table(
            T_AGG,
            [
                Column("state", TEXT, nullable=False),
                Column("population", INTEGER, nullable=False),
                Column("dem", INTEGER, nullable=False, default=0),
                Column("rep", INTEGER, nullable=False, default=0),
                Column("margin", FLOAT),  # (dem-rep)/(dem+rep), None = no data
                Column("winner_last3", TEXT),
            ],
            primary_key="state",
        )


@dataclass
class ReturnsBatch:
    """One precinct-report batch of the election-night feed."""

    rows: list[dict[str, Any]]
    minute: int


class ReturnsFeed:
    """Synthetic election-night returns.

    Each state has a hidden true lean; precinct batches arrive in random
    state order over ``total_minutes``, so early in the night many states
    have no data ("distinguishing the areas where not enough data is
    available yet").
    """

    def __init__(self, seed: int = 2008, total_minutes: int = 120, batch_size: int = 8) -> None:
        self.rng = random.Random(seed)
        self.total_minutes = total_minutes
        self.batch_size = batch_size
        self.lean = {
            state: self.rng.uniform(0.32, 0.68) for state, _pop in STATES
        }
        self._next_id = 1

    def batches(self) -> Iterator[ReturnsBatch]:
        """Yield batches until the night is over."""
        reports = []
        for state, population in STATES:
            # Population scales how many precinct reports a state emits.
            for _ in range(max(2, population)):
                reports.append(state)
        self.rng.shuffle(reports)
        per_minute = max(1, len(reports) // self.total_minutes)
        minute = 0
        while reports:
            chunk, reports = reports[:per_minute], reports[per_minute:]
            rows = []
            for state in chunk:
                dem_share = self.lean[state] + self.rng.uniform(-0.05, 0.05)
                total = self.rng.randint(2_000, 30_000)
                dem = int(total * dem_share)
                rows.append(
                    {
                        "id": self._next_id,
                        "state": state,
                        "party": "DEM",
                        "votes": dem,
                    }
                )
                self._next_id += 1
                rows.append(
                    {
                        "id": self._next_id,
                        "state": state,
                        "party": "REP",
                        "votes": total - dem,
                    }
                )
                self._next_id += 1
            minute += 1
            yield ReturnsBatch(rows=rows, minute=minute)


class AggregateVotes(Procedure):
    """Activity 1: aggregate raw returns per state.

    Distributive in spirit but implemented with explicit handlers, since
    the output is an upsert into ``election_agg``: the running/finished
    handlers fold a delta's counts in without rescanning the votes table
    ("the corresponding aggregated values are recomputed").
    """

    name = "aggregate_votes"

    def run(self, env: ProcessEnv, inputs: Tables, read_write: list[str]) -> Tables:
        votes = inputs[0]
        totals: dict[str, dict[str, int]] = {}
        for row in votes:
            per_state = totals.setdefault(row["state"], {"DEM": 0, "REP": 0})
            per_state[row["party"]] += row["votes"]
        self._upsert(env.database, totals)
        return []

    def _upsert(self, database: Database, totals: dict[str, dict[str, int]]) -> None:
        populations = dict(STATES)
        for state, counts in sorted(totals.items()):
            existing = database.table(T_AGG).by_key(state)
            dem = counts.get("DEM", 0)
            rep = counts.get("REP", 0)
            if existing is not None:
                dem += existing["dem"]
                rep += existing["rep"]
            margin = (dem - rep) / (dem + rep) if dem + rep > 0 else None
            values = {
                "state": state,
                "population": populations.get(state, 1),
                "dem": dem,
                "rep": rep,
                "margin": margin,
            }
            if existing is None:
                database.insert(T_AGG, values)
            else:
                database.execute(
                    f"UPDATE {T_AGG} SET dem = ?, rep = ?, margin = ? WHERE state = ?",
                    [dem, rep, margin, state],
                )

    def _fold_delta(self, env: ProcessEnv, delta: Delta) -> None:
        totals: dict[str, dict[str, int]] = {}
        for row in delta.inserted:
            per_state = totals.setdefault(row["state"], {"DEM": 0, "REP": 0})
            per_state[row["party"]] += row["votes"]
        for row in delta.deleted:
            per_state = totals.setdefault(row["state"], {"DEM": 0, "REP": 0})
            per_state[row["party"]] -= row["votes"]
        self._upsert(env.database, totals)

    def on_delta_running(self, env: ProcessEnv, delta: Delta) -> Optional[Tables]:
        self._fold_delta(env, delta)
        return None

    def on_delta_finished(self, env: ProcessEnv, delta: Delta) -> Optional[Tables]:
        self._fold_delta(env, delta)
        return None


class TreemapVotes(Procedure):
    """Activity 2: map the aggregate table to TreeMap visual items.

    Area encodes population; shade encodes the selected party's share
    ("the more the states vote for the respective party, the darker the
    color"); states without data render in neutral gray.
    """

    name = "treemap_votes"

    def __init__(self, width: float = 800.0, height: float = 500.0) -> None:
        self.width = width
        self.height = height
        self.last_items: list[VisualItem] = []

    def run(self, env: ProcessEnv, inputs: Tables, read_write: list[str]) -> Tables:
        agg = inputs[0]
        party = env.lookup("party") if _has_var(env, "party") else "DEM"
        items = compute_treemap(agg, party, self.width, self.height)
        self.last_items = items
        return [[item.to_row(0) for item in items]]

    def on_delta_running(self, env: ProcessEnv, delta: Delta) -> Optional[Tables]:
        # Re-derive the picture from the (already-folded) aggregate table.
        agg = env.database.query(f"SELECT * FROM {T_AGG}")
        party = env.lookup("party") if _has_var(env, "party") else "DEM"
        self.last_items = compute_treemap(agg, party, self.width, self.height)
        return None

    def on_delta_finished(self, env: ProcessEnv, delta: Delta) -> Optional[Tables]:
        return self.on_delta_running(env, delta)


def _has_var(env: ProcessEnv, name: str) -> bool:
    return name in env.variables or name in env.constants


def compute_treemap(
    agg_rows: Sequence[dict[str, Any]],
    party: str,
    width: float = 800.0,
    height: float = 500.0,
) -> list[VisualItem]:
    """Pure mapping: aggregate rows -> treemap visual items."""
    by_state = {row["state"]: row for row in agg_rows}
    cells = squarify(
        [(state, float(population)) for state, population in STATES],
        0.0,
        0.0,
        width,
        height,
    )
    neutral = "#cccccc"
    ramp = SequentialScale(
        (0.3, 0.7), low="#f7fbff", high="#08306b" if party == "DEM" else "#67000d"
    )
    items = []
    for cell in cells:
        row = by_state.get(cell.key)
        if row is None or row["margin"] is None:
            color = neutral  # not enough data yet
            label = f"{cell.key}"
        else:
            total = row["dem"] + row["rep"]
            share = (row["dem"] if party == "DEM" else row["rep"]) / total
            color = ramp(share)
            label = f"{cell.key} {share:.0%}"
        items.append(
            VisualItem(
                obj_id=cell.key,
                x=cell.x,
                y=cell.y,
                width=cell.width,
                height=cell.height,
                color=color,
                label=label,
            )
        )
    return items


def compute_nested_treemap(
    agg_rows: Sequence[dict[str, Any]],
    party: str,
    width: float = 800.0,
    height: float = 500.0,
    padding: float = 3.0,
) -> list[VisualItem]:
    """Hierarchical variant: states nested inside census regions.

    Region cells render as neutral group frames; state leaves carry the
    same population-area / share-shade encoding as the flat treemap.
    """
    from ..vis.treemap import squarify_nested

    populations = dict(STATES)
    tree: dict[str, dict[str, float]] = {
        region: {
            state: float(populations[state])
            for state in states
            if state in populations
        }
        for region, states in REGIONS.items()
    }
    by_state = {row["state"]: row for row in agg_rows}
    ramp = SequentialScale(
        (0.3, 0.7), low="#f7fbff", high="#08306b" if party == "DEM" else "#67000d"
    )
    items: list[VisualItem] = []
    for cell in squarify_nested(tree, 0.0, 0.0, width, height, padding=padding):
        if not cell.is_leaf:
            items.append(
                VisualItem(
                    obj_id=f"region:{cell.key}",
                    x=cell.x,
                    y=cell.y,
                    width=cell.width,
                    height=cell.height,
                    color="#eeeeee",
                    label=str(cell.key),
                )
            )
            continue
        row = by_state.get(cell.key)
        if row is None or row["margin"] is None:
            color = "#cccccc"
            label = str(cell.key)
        else:
            total = row["dem"] + row["rep"]
            share = (row["dem"] if party == "DEM" else row["rep"]) / total
            color = ramp(share)
            label = f"{cell.key} {share:.0%}"
        items.append(
            VisualItem(
                obj_id=cell.key,
                x=cell.x,
                y=cell.y,
                width=cell.width,
                height=cell.height,
                color=color,
                label=label,
            )
        )
    return items


def build_process(detached_visualization: bool = True) -> ProcessDefinition:
    """The two-activity EdiFlow process, wired for reactivity.

    UP statements route vote deltas to both activities: running instances
    (``ra``) refresh live; terminated ones (``ta-rp``) keep their stored
    results fresh while the process instance is still open.
    """
    return ProcessDefinition(
        name="us-elections",
        body=seq(
            CallProcedure(
                "aggregate",
                "aggregate_votes",
                inputs=[T_VOTES],
                outputs=[],
            ),
            CallProcedure(
                "visualize",
                "treemap_votes",
                inputs=[T_AGG],
                outputs=["election_visual"],
                detached=detached_visualization,
                fresh_snapshot=True,
            ),
        ),
        relations=[
            RelationDecl(T_VOTES),
            RelationDecl(T_AGG),
            RelationDecl(
                "election_visual",
                columns=(
                    ("component_id", "INTEGER"),
                    ("obj_id", "ANY"),
                    ("x", "FLOAT"),
                    ("y", "FLOAT"),
                    ("width", "FLOAT"),
                    ("height", "FLOAT"),
                    ("color", "TEXT"),
                    ("label", "TEXT"),
                    ("selected", "BOOLEAN"),
                ),
            ),
        ],
        procedures=["aggregate_votes", "treemap_votes"],
        propagations=[
            UpdatePropagation(T_VOTES, "aggregate", "ra"),
            UpdatePropagation(T_VOTES, "aggregate", "ta-rp"),
            UpdatePropagation(T_VOTES, "visualize", "ra"),
        ],
    )
