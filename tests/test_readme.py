"""The README's library tour runs as written and shows the values its comments quote."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    ns = {}
    exec(compile(block, str(README), "exec"), ns)
    c, d8 = ns["c"], ns["d8"]
    assert c.centralizer_mask(d8, 0b10010) == 0b101
    assert c.moebius(ns["poset"]).mu == (1, -1, -1, -1)
    assert c.commuting_graph(d8).degrees() == (1,) * 6
