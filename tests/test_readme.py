"""The README's python examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from tristep import RhsField, advance_one_step

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace: dict[str, object] = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
        # a field's text is checked on first use, so step every field the block left
        for value in namespace.values():
            if isinstance(value, RhsField):
                y = np.full(value.dim, 0.5)
                assert np.isfinite(advance_one_step(value, 0.0, y, 0.1)).all()
    capsys.readouterr()
