"""RL004 negative fixture: engines reached through the sanctioned seams."""

from __future__ import annotations

from repro.core import sup_comp_compressed  # re-exported name: fine
from repro.core.engine import COMPRESSED_ENGINE, FULL_LANDMARK_ENGINE  # the seam: fine

__all__ = ["COMPRESSED_ENGINE", "FULL_LANDMARK_ENGINE", "sup_comp_compressed"]
