"""README's library examples run and give the values they document."""

import re
from pathlib import Path

from skewdiv.scenarios import parse_scenario_file

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_give_their_documented_values():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    ns: dict = {}
    exec(blocks[0], ns)
    ev, frame = ns["ev"], ns["frame"]
    assert ev.nabla_p_norm_sq == 1 / 64
    assert ev.violation == -1 / 64
    assert ev.sharp_margin == 0.0
    assert frame.u == 0.25
    an = ns["PointAnalysis"](ns["spec"], (0.3, 0.2, 0.5))
    assert ns["bochner_residual"](an).rel_residual < 1e-14
    exec(blocks[1], ns)
    assert ns["ev"].violation.shape == (2,)
    assert ns["ev"].violation[0] == -1 / 64


def test_readme_scenario_file_parses_with_the_values_it_sets():
    section = README.read_text().split("## Scenario files", 1)[1]
    text = re.search(r"```\n(.*?)```", section, re.S).group(1)
    sc = parse_scenario_file(text)
    assert (sc.name, sc.dim, sc.lam_src, sc.is_static) == ("warped-demo", 3, "f", False)
    assert [axis.count for axis in sc.grid] == [3, 2, 1]
