"""The benchmark's traced run wraps qdfit functions by module and name.

`perfbench/spans.py:WRAPPED` lists them; a name that disappears from its
module makes `perfbench/run.py --trace 1` fail when it installs the
wrappers, so every entry must stay defined.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_wrapped_name_is_defined():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"qdfit.{module_name}.{name}"
        for module_name, names in spans.WRAPPED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"qdfit.{module_name}"), name, None))
    ]
    assert spans.WRAPPED and missing == []
