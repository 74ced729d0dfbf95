"""Multi-robot mutual 6-DOF relative pose estimation.

Layers, bottom up:

- `geom` / `camera`: rotation algebra and the Double Sphere fisheye model.
- `codec`: LED duty-cycle ID encoding/decoding and spot tracking.
- `trajectory` / `world`: deterministic seeded simulator.
- `rawpose`: closed-form relative pose from one frame of mutual bearings,
  UWB range, and gravity-referenced roll/pitch.
- `eskf`: error-state Kalman filter in the observer's moving frame.
- `pgo`: pose-graph optimization over a team, many graphs solved as one stack.
- `metrics`: ATE and error-series evaluation.
- `scenario` / `runner` / `cli`: config-driven scenario execution.
"""

__version__ = "0.1.0"

from .geom import Pose  # noqa: F401
from .rawpose import raw_estimate  # noqa: F401
from .eskf import FilterBank  # noqa: F401
