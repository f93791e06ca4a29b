"""README's Library snippet runs as written and gives what its comments say."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def library_snippet() -> str:
    """The ```python block under README's "## Library" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_snippet_runs_as_documented(monkeypatch):
    source = library_snippet()
    lines = source.splitlines()
    # the `eval` line's value, which the snippet only shows in a comment
    (at,) = [i for i, line in enumerate(lines) if line.startswith("ev.eval(")]
    lines[at] = "evaluated = " + lines[at]
    monkeypatch.chdir(ROOT)  # the snippet's model path is relative to it
    scope = {}
    exec(compile("\n".join(lines), "README.md", "exec"), scope)
    assert "# True" in source.splitlines()[at]
    assert scope["evaluated"] is True
    verdict = scope["verdict"]
    assert verdict.truth
    assert verdict.witness_choice and verdict.witness_formula is not None
    assert scope["ev"].certificates.ok
    assert scope["ev"].certificates.checked > 0
