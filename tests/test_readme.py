"""The README's library example runs as printed, and every module name and
test it points to exists."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("rng", "device", "characterize", "extract", "sts", "special", "throughput", "cli", "parallel")


def _code_spans() -> list[str]:
    return re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out == "1001984 conditioned bits\n"


def test_readme_names_resolve():
    """Every backticked `module.name` of a package module is an attribute
    of mramtrng.<module>, and every `tests/<file>.py::<test>` (with or
    without `tests/`) names a test function in that file."""
    pattern = rf"(?<![\w./])({'|'.join(MODULES)})\.([A-Za-z_]\w*)"
    names = {ref for span in _code_spans() for ref in re.findall(pattern, span)}
    assert names, "no module references found"
    missing = [f"{m}.{n}" for m, n in sorted(names) if not hasattr(importlib.import_module(f"mramtrng.{m}"), n)]
    assert not missing, missing

    tests = {ref for span in _code_spans() for ref in re.findall(r"(?<![\w.])(?:tests/)?(test_\w+)\.py::(\w+)", span)}
    assert tests, "no test references found"
    here = Path(__file__).resolve().parent
    missing = [
        f"{f}.py::{t}"
        for f, t in sorted(tests)
        if not (here / f"{f}.py").exists()
        or not re.search(rf"^def {t}\(", (here / f"{f}.py").read_text(encoding="utf-8"), flags=re.M)
    ]
    assert not missing, missing
