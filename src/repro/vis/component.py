"""Visualizations and their components.

"A Visualization consists of one or more VisualisationComponents.  Each
component offers an individual perspective over a set of entity
instances... Components of a same visualisation correspond to different
ways of rendering the same objects" (Section IV-A).
"""

from __future__ import annotations

from typing import Any, Optional

from ..core import datamodel
from ..db.database import Database
from ..errors import VisError
from .attributes import VisualAttributesStore, VisualItem


class VisualizationManager:
    """Creates and looks up visualizations and components."""

    def __init__(self, database: Database) -> None:
        self.database = database
        datamodel.install_core_schema(database)
        self._allocator = datamodel.IdAllocator(database)
        self.attributes = VisualAttributesStore(database)

    # ------------------------------------------------------------------
    def create_visualization(self, name: str) -> int:
        vis_id = self._allocator.next_id(datamodel.T_VISUALIZATION)
        self.database.insert(
            datamodel.T_VISUALIZATION, {"id": vis_id, "name": name}
        )
        return vis_id

    def create_component(
        self, visualization_id: int, component_type: str, label: Optional[str] = None
    ) -> int:
        if self.database.table(datamodel.T_VISUALIZATION).by_key(visualization_id) is None:
            raise VisError(f"no visualization with id {visualization_id}")
        comp_id = self._allocator.next_id(datamodel.T_VIS_COMPONENT)
        self.database.insert(
            datamodel.T_VIS_COMPONENT,
            {
                "id": comp_id,
                "visualization_id": visualization_id,
                "label": label,
                "type": component_type,
            },
        )
        return comp_id

    def components_of(self, visualization_id: int) -> list[dict[str, Any]]:
        return [
            dict(row)
            for row in self.database.table(datamodel.T_VIS_COMPONENT).rows()
            if row["visualization_id"] == visualization_id
        ]

    def visualization_named(self, name: str) -> Optional[int]:
        for row in self.database.table(datamodel.T_VISUALIZATION).scan():
            if row["name"] == name:
                return row["id"]
        return None

    # ------------------------------------------------------------------
    def selected_objects(self, component_id: int) -> list[Any]:
        """Which objects are currently selected in a component -- the
        paper's example catalog query: "which is the R tuple currently
        selected by the user from the visualization component VC1"."""
        return self.attributes.selected_ids(component_id)

    def write_items(self, component_id: int, items: list[VisualItem]) -> int:
        return self.attributes.write(component_id, items)
