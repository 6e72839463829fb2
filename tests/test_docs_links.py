"""The docs tree must exist, be linked from README, and have no broken links.

Runs the same offline link checker CI's ``docs`` job runs
(``tools/check_links.py``) over README.md and every page under docs/, so
a broken relative link or anchor fails tier-1 locally, not just in CI.
The python examples in those pages must also import only names the
package still exports.
"""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_links", REPO / "tools" / "check_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_links", module)
    spec.loader.exec_module(module)
    return module


def _doc_paths():
    return [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]


def test_docs_tree_exists():
    names = {path.name for path in _doc_paths()}
    assert {"README.md", "ARCHITECTURE.md", "OPERATIONS.md", "BENCHMARKS.md"} <= names


def test_readme_links_every_docs_page():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    for page in ("docs/ARCHITECTURE.md", "docs/OPERATIONS.md", "docs/BENCHMARKS.md"):
        assert page in readme, f"README.md does not link {page}"


_REPRO_IMPORT = re.compile(r"^from\s+(repro(?:\.\w+)*)\s+import\s+(.+)$")


def _python_fence_imports():
    """``(page:line, module, names)`` of every ``from repro… import …`` in a python fence."""
    found = []
    for path in _doc_paths():
        fence = None
        lines = iter(enumerate(path.read_text(encoding="utf-8").splitlines(), 1))
        for number, line in lines:
            stripped = line.strip()
            if stripped.startswith("```"):
                fence = None if fence else (stripped[3:].strip().lower() or "text")
                continue
            match = _REPRO_IMPORT.match(stripped) if fence in ("python", "py") else None
            if match is None:
                continue
            names = match.group(2)
            while names.startswith("(") and ")" not in names:
                names += " " + next(lines)[1].strip()
            names = names.strip("()").split("#")[0]
            found.append(
                (
                    f"{path.name}:{number}",
                    match.group(1),
                    [name.split(" as ")[0].strip() for name in names.split(",") if name.strip()],
                )
            )
    return found


def test_doc_examples_import_existing_names():
    """A renamed or deleted public name must not survive in a doc example."""
    imports = _python_fence_imports()
    assert imports, "no python examples found in README.md / docs/"
    problems = []
    for where, module_name, names in imports:
        module = importlib.import_module(module_name)
        problems += [
            f"{where}: {module_name} has no {name}" for name in names if not hasattr(module, name)
        ]
    assert not problems, "\n".join(problems)


def test_no_broken_relative_links():
    checker = _load_checker()
    problems = checker.check_files(_doc_paths())
    assert not problems, "\n".join(problems)


def test_checker_catches_broken_link(tmp_path):
    """The checker itself must actually detect a broken target."""
    checker = _load_checker()
    page = tmp_path / "page.md"
    page.write_text("see [missing](nope.md) and [anchor](#nowhere)\n", encoding="utf-8")
    problems = checker.check_file(page)
    assert len(problems) == 2


def test_checker_numbers_duplicate_headings_like_github(tmp_path):
    """Two identical headings expose 'slug' and 'slug-1'; linking the
    suffixed form must pass and an out-of-range suffix must fail."""
    checker = _load_checker()
    page = tmp_path / "page.md"
    page.write_text(
        "## Example\n\n## Example\n\n"
        "good [first](#example), good [second](#example-1), bad [third](#example-2)\n",
        encoding="utf-8",
    )
    problems = checker.check_file(page)
    assert len(problems) == 1
    assert "example-2" in problems[0]


def test_checker_accepts_setext_headings_and_html_anchors(tmp_path):
    checker = _load_checker()
    page = tmp_path / "page.md"
    page.write_text(
        "Big Title\n=========\n\nSub Part\n--------\n\n"
        '<a id="pinned"></a>\n\n'
        "good [t](#big-title), good [s](#sub-part), good [p](#pinned), bad [x](#nope)\n",
        encoding="utf-8",
    )
    problems = checker.check_file(page)
    assert len(problems) == 1
    assert "#nope" in problems[0]


def test_checker_ignores_headings_inside_code_fences(tmp_path):
    """A '# heading' inside a fenced block renders as code, not an anchor."""
    checker = _load_checker()
    page = tmp_path / "page.md"
    page.write_text(
        "# Real\n\n```bash\n# fake heading\n```\n\n"
        "good [r](#real), bad [f](#fake-heading)\n",
        encoding="utf-8",
    )
    problems = checker.check_file(page)
    assert len(problems) == 1
    assert "fake-heading" in problems[0]


def test_checker_validates_cross_file_fragments(tmp_path):
    """A fragment on a markdown target must match the target's anchors,
    not merely the target file's existence."""
    checker = _load_checker()
    page = tmp_path / "page.md"
    page.write_text(
        "good [ok](other.md#there), bad [missing](other.md#not-there)\n",
        encoding="utf-8",
    )
    (tmp_path / "other.md").write_text("## There\n", encoding="utf-8")
    problems = checker.check_file(page)
    assert len(problems) == 1
    assert "not-there" in problems[0]


def test_checker_compares_raw_fragments_like_github(tmp_path):
    """'#v1.0-release' must NOT match the 'v10-release' anchor of
    '## v1.0 release' — GitHub compares raw fragments against slugs."""
    checker = _load_checker()
    page = tmp_path / "page.md"
    page.write_text(
        "## v1.0 release\n\nbad [in-page](#v1.0-release), good [in-page](#v10-release),\n"
        "bad [cross](other.md#v1.0-release), good [cross](other.md#v10-release)\n",
        encoding="utf-8",
    )
    (tmp_path / "other.md").write_text("## v1.0 release\n", encoding="utf-8")
    problems = checker.check_file(page)
    assert len(problems) == 2
    assert all("v1.0-release" in problem for problem in problems)
