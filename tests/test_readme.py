"""Every `python` code block in README.md runs as written, and every name
the package and its modules export resolves, so an example or an export
that names a removed or renamed API fails here."""

import importlib
import pkgutil
import re
from pathlib import Path

import svdgrad

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), {"__name__": "__readme__"})


def test_every_exported_name_resolves():
    names = ["svdgrad"] + [f"svdgrad.{m.name}" for m in pkgutil.iter_modules(svdgrad.__path__)
                           if m.name != "__main__"]
    for name in names:
        module = importlib.import_module(name)
        missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        assert not missing, (name, missing)
