"""The documentation stays true: doctests run, intra-repo links resolve.

Two enforcement planes for ``docs/`` and the README:

* every ``>>>`` example in ``docs/*.md`` and in the public testing API's
  docstrings executes and produces the documented output (the CI docs
  job additionally runs ``python -m doctest docs/*.md`` directly);
* every intra-repo markdown link in ``docs/*.md`` and ``README.md``
  points at a file that exists (external ``http(s)`` links and pure
  anchors are out of scope).
"""

import doctest
import importlib
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
DOCS = sorted((REPO_ROOT / "docs").glob("*.md"))
LINKED_SOURCES = DOCS + [REPO_ROOT / "README.md"]

#: Modules whose docstring ``>>>`` examples are part of the public API's
#: documentation; each is doctested on its own, so one failing module
#: does not hide the others.
DOCTESTED_MODULES = (
    "repro.core.regions",
    "repro.runtime.faults",
    "repro.service.client",
    "repro.swarm.protocol",
    "repro.swarm.tester",
    "repro.testing.coverage",
    "repro.testing.explorer",
    "repro.testing.parallel",
    "repro.testing.population",
    "repro.testing.scenarios",
    "repro.testing.strategies",
)

#: Markdown inline links: [text](target).  Images ![alt](target) match too.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _doc_ids(paths):
    return [str(path.relative_to(REPO_ROOT)) for path in paths]


class TestDocs:
    def test_docs_exist_and_are_linked_from_readme(self):
        names = {path.name for path in DOCS}
        assert {
            "architecture.md", "exploration.md", "scenarios.md", "swarm.md",
            "service.md",
        } <= names
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for name in (
            "architecture.md", "exploration.md", "scenarios.md", "swarm.md",
            "service.md",
        ):
            assert f"docs/{name}" in readme, f"README does not link docs/{name}"

    @pytest.mark.parametrize("path", DOCS, ids=_doc_ids(DOCS))
    def test_doc_code_blocks_pass_doctest(self, path):
        results = doctest.testfile(
            str(path),
            module_relative=False,
            optionflags=doctest.NORMALIZE_WHITESPACE,
            verbose=False,
        )
        assert results.attempted > 0, f"{path.name} has no executable examples"
        assert results.failed == 0, f"{results.failed} doctest failure(s) in {path.name}"

    @pytest.mark.parametrize("name", DOCTESTED_MODULES)
    def test_public_testing_api_docstrings_pass_doctest(self, name):
        module = importlib.import_module(name)
        results = doctest.testmod(module, verbose=False)
        assert results.failed == 0, f"doctest failure(s) in {name}"
        # The docstring pass is part of the contract: losing a module's
        # examples (e.g. a refactor stripping docstrings) fails loudly.
        assert results.attempted > 0, f"{name} has no examples"

    @pytest.mark.parametrize("path", LINKED_SOURCES, ids=_doc_ids(LINKED_SOURCES))
    def test_intra_repo_links_resolve(self, path):
        text = path.read_text(encoding="utf-8")
        broken = []
        for target in _LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = (path.parent / relative).resolve()
            if not resolved.exists():
                broken.append(target)
        assert not broken, f"broken intra-repo link(s) in {path.name}: {broken}"
