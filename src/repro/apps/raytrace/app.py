"""Framework adapter for parallel ray tracing (paper §5.1.2).

"The 600×600 image plane was divided into rectangular slices of 25×600
thus creating 24 independent tasks.  The input for each task consisted of
the four coordinates describing the region of computation.  The output
produced by each task was relatively large, consisting of an array of
pixel values."

Calibration: compute-dominated coarse tasks, constant ≈500 ms total
planning (Fig. 7's flat planning curve), aggregation that follows the
max worker time.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.apps.raytrace.camera import Camera
from repro.apps.raytrace.render import render_rows
from repro.apps.raytrace.scene import Scene, default_scene
from repro.core.application import Application, ClassLoadProfile, Task

__all__ = ["RayTracingApplication"]


class RayTracingApplication(Application):
    """600×600 frame in 24 scanline strips of 25 rows."""

    app_id = "ray-tracing"

    #: Calibrated cost model (reference ms, see DESIGN.md §5): a 25-row
    #: strip task, planning one task, aggregating one strip.
    TASK_COST = 2500.0
    PLANNING_COST = 20.0
    AGGREGATION_COST = 30.0

    def __init__(
        self,
        scene: Optional[Scene] = None,
        width: int = 600,
        height: int = 600,
        strip_rows: int = 25,
        max_depth: int = 3,
    ) -> None:
        if height % strip_rows != 0:
            raise ValueError("strip_rows must divide height evenly")
        self.scene = scene if scene is not None else default_scene()
        self.camera = Camera()
        self.width = width
        self.height = height
        self.strip_rows = strip_rows
        self.max_depth = max_depth

    @property
    def n_strips(self) -> int:
        return self.height // self.strip_rows

    # -- functional behaviour --------------------------------------------------------

    def plan(self) -> list[Task]:
        tasks = []
        for index in range(self.n_strips):
            y0 = index * self.strip_rows
            # "four coordinates describing the region of computation"
            region = (0, y0, self.width, y0 + self.strip_rows)
            tasks.append(Task(task_id=index, payload={"region": region}))
        return tasks

    def execute(self, payload: Any) -> np.ndarray:
        x0, y0, x1, y1 = payload["region"]
        assert x0 == 0 and x1 == self.width, "strips span full width"
        return render_rows(
            self.scene, self.camera, y0, y1, self.width, self.height, self.max_depth
        )

    def aggregate(self, results: dict[int, Any]) -> Optional[np.ndarray]:
        """Compose the image from the scanline strips."""
        if any(strip is None for strip in results.values()):
            return None  # compute_real=False run
        strips = [results[i] for i in sorted(results)]
        return np.vstack(strips)

    # -- cost model ----------------------------------------------------------------------

    def task_cost_ms(self, task: Task) -> float:
        return self.TASK_COST

    def planning_cost_ms(self, task: Task) -> float:
        # 24 tasks × ~20 ms ≈ the constant 500 ms planning line of Fig. 7.
        return self.PLANNING_COST

    def aggregation_cost_ms(self, task_id: int, result: Any) -> float:
        return self.AGGREGATION_COST

    def classload_profile(self) -> ClassLoadProfile:
        # Fig. 10(a): the startup spike reaches ~42 % CPU.
        return ClassLoadProfile(work_ref_ms=850.0, demand_percent=42.0,
                                bundle_bytes=350_000)
