"""The finish phases.

A finish phase takes the partial forest a sampling phase left in π and
drives it to the exact component labeling: union-find settle (Afforest's
final phase), Shiloach–Vishkin tree hooking, or synchronous label
propagation.  BFS and DOBFS are *whole-graph* finishes — self-contained
traversal pipelines that own their sentinel initialisation.

The plan table (:data:`repro.engine.plan.CANONICAL_PLANS`) names each
finish it runs.
"""

from __future__ import annotations

from repro.engine.finish.hooking import SV, sv_finish, sv_pipeline_edges
from repro.engine.finish.propagation import LP, lp_finish
from repro.engine.finish.settle import SETTLE, settle_finish
from repro.engine.finish.traversal import (
    BFS_FINISH,
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DOBFS_FINISH,
    bfs_pipeline,
    dobfs_pipeline,
)

__all__ = [
    "SV",
    "LP",
    "SETTLE",
    "BFS_FINISH",
    "DOBFS_FINISH",
    "DEFAULT_ALPHA",
    "DEFAULT_BETA",
    "sv_finish",
    "lp_finish",
    "settle_finish",
    "sv_pipeline_edges",
    "bfs_pipeline",
    "dobfs_pipeline",
]
