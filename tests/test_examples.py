"""Every example script must run to completion and tell its story.

Examples are executed in-process (runpy) with stdout captured, so they
stay green as the library evolves; a broken example is a broken tutorial.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

EXPECTED_SNIPPETS = {
    "quickstart.py": ["components: 4", "agrees", "kron scale 14"],
    "social_network_analysis.py": ["giant covers", "speedup over SV", "work profile"],
    "road_network_resilience.py": ["progressive closures", "reachable"],
    "sampling_strategies.py": ["linkage by % of edges", "neighbour rounds"],
    "simulated_machine_tour.py": ["afforest phases", "modeled scaling"],
    "distributed_solve.py": [
        "supersteps",
        "traffic vs density",
        "block edge balance (8 ranks",
    ],
    "streaming_connectivity.py": [
        "edges_seen",
        "merges",
        "serving layer",
        "epochs published",
        "identical to batch re-solve? True",
    ],
}


def test_every_example_has_expectations():
    scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert scripts == set(EXPECTED_SNIPPETS), (
        "examples and EXPECTED_SNIPPETS out of sync"
    )


@pytest.mark.parametrize("script", sorted(EXPECTED_SNIPPETS))
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    out = capsys.readouterr().out
    for snippet in EXPECTED_SNIPPETS[script]:
        assert snippet in out, f"{script}: missing {snippet!r} in output"
