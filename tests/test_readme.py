"""The README's python blocks, run as written."""

import re
from pathlib import Path

import numpy as np

import ttno

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    # a public name the example uses that is renamed or removed fails here,
    # not in the reader's hands
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library example\n+```python\n(.*?)^```",
                      text, re.S | re.M)
    assert block, "README has no python block under '## Library example'"
    ns = {}
    exec(compile(block.group(1), str(README), "exec"), ns)
    assert np.abs(ns["dense"] - ttno.to_dense(ns["h"])).max() <= 1e-12
    dims = ns["diagram"].bond_dimensions()
    assert all(ns["opt"][e] <= dims[e] for e in dims)


def test_every_python_block_runs():
    # the conventions' examples assert what they state
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) >= 2, "README lost a python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
