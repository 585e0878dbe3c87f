"""The README's "Library use" examples run as written, in one namespace as a reader runs them."""

import re
from pathlib import Path

from socbid import DispatchDecision, SimulationResult

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_blocks_run():
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # the second block reuses the first one's ``params``
        exec(compile(block, str(README), "exec"), namespace)
    assert isinstance(namespace["result"], SimulationResult)
    assert round(namespace["result"].total_profit, 1) == 28.3
    assert isinstance(namespace["decision"], DispatchDecision)
