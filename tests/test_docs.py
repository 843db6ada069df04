"""The documentation must not rot: README code runs, docs reference real
files, and the claimed numbers stay truthful."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestReadmeQuickstart:
    def test_quickstart_block_executes(self):
        readme = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        assert blocks, "README lost its quickstart block"
        namespace: dict = {}
        exec(compile(blocks[0], "<README quickstart>", "exec"), namespace)

    def test_example_scripts_listed_exist(self):
        readme = (ROOT / "README.md").read_text()
        for name in re.findall(r"`(\w+\.py)`", readme):
            assert (ROOT / "examples" / name).exists(), name


class TestDesignDoc:
    def test_bench_targets_exist(self):
        design = (ROOT / "DESIGN.md").read_text()
        for target in re.findall(r"benchmarks/(bench_\w+\.py)", design):
            assert (ROOT / "benchmarks" / target).exists(), target

    def test_package_inventory_exists(self):
        design = (ROOT / "DESIGN.md").read_text()
        for module in re.findall(r"`repro\.(\w+)`", design):
            assert (ROOT / "src" / "repro" / module).exists() or \
                (ROOT / "src" / "repro" / ("%s.py" % module)).exists(), \
                module


class TestCommandNames:
    DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md",
            ".github/workflows/ci.yml")

    def test_docs_and_ci_name_real_subcommands(self):
        import argparse

        from repro.cli import build_parser
        subcommands = next(
            action.choices for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
        for doc in self.DOCS:
            text = (ROOT / doc).read_text()
            named = re.findall(r"python -m repro\s+([a-z][\w-]*)", text)
            named += re.findall(r"`repro ([a-z][\w-]*)", text)
            for braces in re.findall(r"python -m repro\s+\{([^}]*)\}",
                                     text):
                named += re.findall(r"[a-z][\w-]*", braces)
            for word in named:
                assert word in subcommands, (doc, word)


class TestExperimentsDoc:
    def test_every_figure_has_a_section(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for figure in ("Fig 1", "Fig 2", "Fig 4", "Fig 5", "Fig 9",
                       "Fig 10", "Fig 11", "Fig 12", "Fig 13", "Fig 14",
                       "Fig 15", "Fig 16a", "Fig 16b", "Fig 16c",
                       "Fig 17"):
            assert "## %s" % figure in text, figure

    def test_headline_claims_still_hold(self):
        """Re-measure the two headline numbers the docs quote."""
        from repro.core import Host
        from repro.guests import DAYTIME_UNIKERNEL, NOOP_UNIKERNEL
        host = Host(variant="lightvm")
        host.warmup(500)
        noop = host.create_vm(NOOP_UNIKERNEL)
        assert abs(noop.total_ms - 2.25) < 0.3
        daytime = host.create_vm(DAYTIME_UNIKERNEL)
        assert abs(daytime.total_ms - 4.4) < 0.5
