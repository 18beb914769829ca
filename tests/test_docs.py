"""The documentation tier: docstrings, doctests, links, CLI reference.

Five enforcement layers keep the docs from rotting:

* **docstring audit** — every public symbol exported from ``repro``,
  ``repro.serve``, ``repro.index``, and ``repro.cluster`` must carry a
  docstring, and every exported callable/class an executable
  ``>>>`` example.
* **doctest tier** — those examples (plus the package quickstarts)
  actually run, module by module.
* **link check** — every relative link in ``README.md`` and
  ``docs/*.md`` must point at an existing file, and every anchor at a
  real heading in its target.
* **CLI reference check** — every flag of every
  ``python -m repro.serve`` / ``repro.index`` / ``repro.bench``
  subcommand must be documented in ``docs/operations.md``, and every
  flag its tables list must be accepted by that subcommand (so help
  text and the runbook cannot drift apart).
* **metric catalog check** — every series a running service exposes
  at ``/metrics`` must be named in ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import doctest
import importlib
import inspect
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Namespaces whose exports must be documented with examples.
AUDITED_MODULES = (
    "repro",
    "repro.serve",
    "repro.index",
    "repro.cluster",
    "repro.approx",
    "repro.obs",
)

#: Modules whose doctests make up the executable-example tier.
DOCTEST_MODULES = (
    "repro",
    "repro.cliopts",
    "repro.graph.digraph",
    "repro.engine.config",
    "repro.engine.engine",
    "repro.engine.registry",
    "repro.engine.results",
    "repro.core.iterative",
    "repro.core.exponential",
    "repro.core.memo",
    "repro.core.queries",
    "repro.core.multi_source",
    "repro.measures",
    "repro.index.artifacts",
    "repro.index.store",
    "repro.index.delta",
    "repro.serve.broker",
    "repro.serve.cache",
    "repro.serve.chaos",
    "repro.serve.guard",
    "repro.serve.http",
    "repro.serve.service",
    "repro.serve.snapshot",
    "repro.cluster.router",
    "repro.cluster.thread_pool",
    "repro.cluster.blas",
    "repro.cluster",
    "repro.approx",
    "repro.approx.walks",
    "repro.approx.estimator",
    "repro.datasets.scale_free",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.trace",
    "repro.bench.signal",
)

MARKDOWN_FILES = sorted(
    [REPO / "README.md", *(REPO / "docs").glob("*.md")]
)


# ---------------------------------------------------------------------------
# docstring audit
# ---------------------------------------------------------------------------
def _exports():
    for module_name in AUDITED_MODULES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            yield module_name, name, getattr(module, name)


@pytest.mark.parametrize(
    "module_name, name, obj",
    list(_exports()),
    ids=[f"{m}.{n}" for m, n, _ in _exports()],
)
def test_public_symbol_has_docstring(module_name, name, obj):
    doc = inspect.getdoc(obj)
    assert doc and doc.strip(), (
        f"{module_name}.{name} is exported but has no docstring"
    )


@pytest.mark.parametrize(
    "module_name, name, obj",
    [
        (m, n, o)
        for m, n, o in _exports()
        if inspect.isclass(o) or inspect.isroutine(o)
    ],
    ids=[
        f"{m}.{n}"
        for m, n, o in _exports()
        if inspect.isclass(o) or inspect.isroutine(o)
    ],
)
def test_public_symbol_has_executable_example(module_name, name, obj):
    doc = inspect.getdoc(obj) or ""
    assert ">>>" in doc, (
        f"{module_name}.{name} has no executable (>>>) example in its "
        "docstring; examples are what the doctest tier runs, and what "
        "keeps the documentation honest"
    )


# ---------------------------------------------------------------------------
# doctest tier
# ---------------------------------------------------------------------------
@pytest.fixture()
def _pristine_measure_registry():
    """Doctests may register demo measures; undo that afterwards.

    The measure registry is process-global (like entry points), so
    the ``register_measure`` example would otherwise leak its demo
    measure into every later test that iterates ``MEASURES``.
    """
    from repro.engine import registry

    before = dict(registry._REGISTRY)
    yield
    registry._REGISTRY.clear()
    registry._REGISTRY.update(before)


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_module_doctests_pass(module_name, _pristine_measure_registry):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, (
        f"{module_name} contributes no doctest examples"
    )
    assert result.failed == 0, (
        f"{result.failed} of {result.attempted} doctest examples "
        f"failed in {module_name} (run python -m doctest -v on it)"
    )


# ---------------------------------------------------------------------------
# markdown link check
# ---------------------------------------------------------------------------
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#+\s+(.*)$", re.MULTILINE)


def _anchor_slug(heading: str) -> str:
    """GitHub-style anchor: lowercase, punctuation out, spaces to -."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def _anchors(path: Path) -> set[str]:
    return {
        _anchor_slug(m.group(1))
        for m in _HEADING.finditer(path.read_text())
    }


@pytest.mark.parametrize(
    "markdown", MARKDOWN_FILES, ids=[p.name for p in MARKDOWN_FILES]
)
def test_markdown_links_resolve(markdown):
    problems = []
    for match in _LINK.finditer(markdown.read_text()):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue  # external: not checked offline
        path_part, _, anchor = target.partition("#")
        if path_part:
            resolved = (markdown.parent / path_part).resolve()
            if not resolved.exists():
                problems.append(f"{target}: file does not exist")
                continue
        else:
            resolved = markdown
        if anchor and resolved.suffix == ".md":
            if anchor not in _anchors(resolved):
                problems.append(
                    f"{target}: no heading for anchor #{anchor} "
                    f"in {resolved.name}"
                )
    assert not problems, (
        f"broken links in {markdown.name}:\n  " + "\n  ".join(problems)
    )


def test_docs_tree_exists():
    for name in (
        "architecture.md", "operations.md", "tuning.md",
        "observability.md",
    ):
        assert (REPO / "docs" / name).exists(), f"docs/{name} missing"


def test_readme_links_every_docs_page():
    readme = (REPO / "README.md").read_text()
    for name in (
        "architecture.md", "operations.md", "tuning.md",
        "observability.md",
    ):
        assert f"docs/{name}" in readme, (
            f"README.md does not link docs/{name}"
        )


def test_every_metrics_series_is_documented():
    """Every series ``/metrics`` exposes is in the metric catalog."""
    from repro.graph.generators import random_digraph
    from repro.serve import ServingService

    service = ServingService(
        random_digraph(60, 300, seed=3), workers=2, num_iterations=5
    )
    service.start_background()
    try:
        service.top_k_sync(1, k=3)
        service.mutate(add=[(0, 0)])
        text = service.metrics_text()
    finally:
        service.close()
    names = re.findall(r"^# TYPE (\S+) ", text, re.MULTILINE)
    assert "repro_worker_shards_total" in names
    catalog = (REPO / "docs" / "observability.md").read_text()
    missing = [name for name in names if f"`{name}`" not in catalog]
    assert not missing, (
        "series missing from docs/observability.md: "
        + ", ".join(missing)
    )


# ---------------------------------------------------------------------------
# CLI reference check (help text vs docs/operations.md)
# ---------------------------------------------------------------------------
def _cli_surface():
    """``(cli, subcommand, flag)`` triples for every accepted option."""
    from repro.bench.__main__ import build_parser as bench_parser
    from repro.index.__main__ import build_parser as index_parser
    from repro.serve.__main__ import build_parser as serve_parser

    for cli, parser in (
        ("repro.serve", serve_parser()),
        ("repro.index", index_parser()),
        ("repro.bench", bench_parser()),
    ):
        subparsers = [
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        if not subparsers:
            for action in parser._actions:
                for opt in action.option_strings:
                    if opt.startswith("--") and opt != "--help":
                        yield cli, "(top level)", opt
            continue
        for name, sub in subparsers[0].choices.items():
            for action in sub._actions:
                for opt in action.option_strings:
                    if opt.startswith("--") and opt != "--help":
                        yield cli, name, opt


def test_every_cli_flag_is_documented_in_operations():
    """docs/operations.md must name every flag each CLI accepts.

    This is the anti-drift direction that matters operationally: a
    flag that exists but is undocumented is invisible to operators.
    The reverse, a documented flag that no parser accepts, is
    :func:`test_every_documented_flag_is_accepted`.
    """
    operations = (REPO / "docs" / "operations.md").read_text()
    missing = sorted(
        {
            f"{cli} {sub}: {flag}"
            for cli, sub, flag in _cli_surface()
            if flag not in operations
        }
    )
    assert not missing, (
        "CLI flags accepted by the parsers but absent from "
        "docs/operations.md:\n  " + "\n  ".join(missing)
    )


def _documented_flags():
    """``(cli, subcommand, flag)`` for every flag a row of a flag table
    under a ``### `python -m repro.X``` heading in docs/operations.md
    names (subcommand ``"(top level)"`` for a table without a
    subcommand column)."""
    cli, header = None, None
    for line in (REPO / "docs" / "operations.md").read_text().splitlines():
        if line.startswith("#"):
            heading = re.match(r"#+ `python -m (repro\.\w+)`$", line)
            cli = heading.group(1) if heading else None
            continue
        if not line.startswith("|"):
            header = None
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if header is None:
            header = cells
            continue
        if cli is None or header[0] != "flag":
            continue
        subs = ["(top level)"]
        if "subcommand" in header:
            column = cells[header.index("subcommand")]
            subs = [sub.strip() for sub in column.split(",")]
        for flag in re.findall(r"`(--[\w-]+)", cells[0]):
            for sub in subs:
                yield cli, sub, flag


def test_every_documented_flag_is_accepted():
    """Every flag docs/operations.md lists must exist in its parser."""
    accepted = set(_cli_surface())
    documented = set(_documented_flags())
    assert {cli for cli, _, _ in documented} == {
        "repro.serve", "repro.index", "repro.bench"
    }
    stale = sorted(
        f"{cli} {sub}: {flag}"
        for cli, sub, flag in documented - accepted
    )
    assert not stale, (
        "flags documented in docs/operations.md that the parsers do "
        "not accept:\n  " + "\n  ".join(stale)
    )


def test_cli_subcommands_documented():
    operations = (REPO / "docs" / "operations.md").read_text()
    subcommands = {
        (cli, sub) for cli, sub, _ in _cli_surface()
        if sub != "(top level)"
    }
    for cli, sub in sorted(subcommands):
        assert f"`{sub}`" in operations, (
            f"subcommand {cli} {sub} not documented in "
            "docs/operations.md"
        )


def test_help_output_renders_for_every_cli():
    """``--help`` must build cleanly (argparse exits 0) for each CLI."""
    from repro.bench.__main__ import main as bench_main
    from repro.index.__main__ import main as index_main
    from repro.serve.__main__ import main as serve_main

    for main in (serve_main, index_main, bench_main):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
