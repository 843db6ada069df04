"""Tests for the determinism linter (repro.analysis.lint)."""

import pathlib
import textwrap

from repro.analysis import lint_paths, lint_source, render_findings
from repro.analysis.lint import RULES, LintRule, register


def ids(source, path="mod.py"):
    return [f.rule_id for f in lint_source(textwrap.dedent(source), path)]


class TestAmbientRandomness:
    def test_import_random_flagged(self):
        assert ids("import random\n") == ["RPR001"]

    def test_from_random_flagged(self):
        assert ids("from random import choice\n") == ["RPR001"]

    def test_secrets_and_uuid_flagged(self):
        assert ids("import secrets\nimport uuid\n") == ["RPR001",
                                                        "RPR001"]

    def test_os_urandom_flagged(self):
        assert ids("import os\nx = os.urandom(8)\n") == ["RPR001"]

    def test_rng_stream_usage_clean(self):
        assert ids("from repro.sim.rng import RngStream\n"
                   "x = RngStream(0, 'a').random()\n") == []


class TestWallClock:
    def test_import_time_flagged(self):
        assert ids("import time\n") == ["RPR002"]

    def test_datetime_now_flagged(self):
        found = ids("import datetime\nt = datetime.now()\n")
        assert found == ["RPR002", "RPR002"]

    def test_sim_now_clean(self):
        assert ids("def f(sim):\n    return sim.now\n") == []


class TestSetIteration:
    def test_for_over_set_literal(self):
        assert ids("for x in {1, 2}:\n    pass\n") == ["RPR003"]

    def test_for_over_set_call(self):
        assert ids("for x in set([1, 2]):\n    pass\n") == ["RPR003"]

    def test_for_over_name_assigned_set(self):
        assert ids("s = set()\nfor x in s:\n    pass\n") == ["RPR003"]

    def test_name_inferred_from_add_calls(self):
        src = """
        def f(s):
            s.add(1)
            for x in s:
                pass
        """
        assert ids(src) == ["RPR003"]

    def test_set_difference_flagged(self):
        src = "a = set()\nb = set()\nfor x in a - b:\n    pass\n"
        assert ids(src) == ["RPR003"]

    def test_comprehension_over_set(self):
        assert ids("xs = [x for x in {1, 2}]\n") == ["RPR003"]

    def test_list_materialisation_flagged(self):
        assert ids("xs = list({1, 2})\n") == ["RPR003"]

    def test_sorted_wrapper_clean(self):
        assert ids("for x in sorted({1, 2}):\n    pass\n") == []

    def test_membership_checks_clean(self):
        src = """
        def f(items):
            seen = set()
            for item in items:
                if item in seen:
                    continue
                seen.add(item)
        """
        assert ids(src) == []


class TestDictViewIteration:
    def test_view_feeding_sim_sink_flagged(self):
        src = """
        def f(sim, d):
            for key in d.keys():
                sim.schedule(1.0, print, key)
        """
        assert ids(src) == ["RPR004"]

    def test_view_with_yield_in_body_flagged(self):
        src = """
        def f(sim, d):
            for key, value in d.items():
                yield sim.timeout(1.0)
        """
        assert ids(src) == ["RPR004"]

    def test_plain_view_iteration_clean(self):
        src = """
        def f(d):
            total = 0
            for value in d.values():
                total += value
            return total
        """
        assert ids(src) == []


class TestIdOrdering:
    def test_sorted_key_id_flagged(self):
        assert ids("xs = sorted(ys, key=id)\n") == ["RPR005"]

    def test_id_in_lambda_key_flagged(self):
        assert ids("xs = sorted(ys, key=lambda y: id(y))\n") == ["RPR005"]

    def test_id_comparison_flagged(self):
        assert ids("flag = id(a) < id(b)\n") == ["RPR005"]

    def test_id_in_repr_format_clean(self):
        src = """
        def __repr__(self):
            return "<obj at {:#x}>".format(id(self))
        """
        assert ids(src) == []


class TestClockDrift:
    def test_now_augassign_flagged(self):
        src = """
        class Sim:
            def advance(self, delta):
                self._now += delta
        """
        assert ids(src) == ["RPR006"]

    def test_plain_counter_clean(self):
        assert ids("count = 0\ncount += 1\n") == []

    def test_absolute_assignment_clean(self):
        src = """
        class Sim:
            def advance(self, when):
                self._now = when
        """
        assert ids(src) == []


class TestMutableDefaults:
    def test_list_default_flagged(self):
        assert ids("def f(x=[]):\n    return x\n") == ["RPR007"]

    def test_dict_and_set_call_defaults_flagged(self):
        assert ids("def f(a={}, b=set()):\n    pass\n") == ["RPR007",
                                                            "RPR007"]

    def test_none_default_clean(self):
        assert ids("def f(x=None, y=()):\n    pass\n") == []


class TestKernelClosure:
    KERNEL = "src/repro/sim/engine.py"

    def test_lambda_to_add_callback_flagged(self):
        src = "def f(event):\n" \
              "    event.add_callback(lambda _evt: None)\n"
        assert ids(src, self.KERNEL) == ["RPR008"]

    def test_lambda_to_schedule_flagged(self):
        src = "def f(sim, cb):\n" \
              "    sim.schedule(1.0, lambda: cb())\n"
        assert ids(src, self.KERNEL) == ["RPR008"]

    def test_lambda_appended_to_callbacks_flagged(self):
        src = "def f(event, cb):\n" \
              "    event.callbacks.append(lambda _evt: cb())\n"
        assert ids(src, self.KERNEL) == ["RPR008"]

    def test_tuple_protocol_clean(self):
        src = "def f(event, cb, args):\n" \
              "    event.callbacks.append((cb, args))\n"
        assert ids(src, self.KERNEL) == []

    def test_non_kernel_module_out_of_scope(self):
        src = "def f(event):\n" \
              "    event.add_callback(lambda _evt: None)\n"
        assert ids(src, "src/repro/core/host.py") == []

    def test_justified_noqa_silences(self):
        src = ("def f(event):\n"
               "    event.add_callback(lambda _evt: None)"
               "  # noqa: RPR008 -- cold path, runs once per sim\n")
        assert ids(src, self.KERNEL) == []


class TestSuppression:
    def test_justified_noqa_silences(self):
        assert ids("import random  # noqa: RPR001 -- test fixture\n") == []

    def test_unjustified_noqa_becomes_rpr000(self):
        assert ids("import random  # noqa: RPR001\n") == ["RPR000"]

    def test_bare_noqa_with_reason_silences_all(self):
        assert ids("import random  # noqa -- vendored helper\n") == []

    def test_noqa_for_other_rule_does_not_silence(self):
        assert ids("import random  # noqa: RPR003 -- wrong code\n") \
            == ["RPR001"]


class TestDrivers:
    def test_syntax_error_reported_not_raised(self):
        findings = lint_source("def broken(:\n", "bad.py")
        assert [f.rule_id for f in findings] == ["RPR999"]

    def test_lint_paths_recurses_directories(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "clean.py").write_text("x = 1\n")
        (package / "dirty.py").write_text("import random\n")
        findings = lint_paths([package])
        assert [f.rule_id for f in findings] == ["RPR001"]
        assert findings[0].path.endswith("dirty.py")

    def test_render_includes_summary(self):
        findings = lint_source("import random\nimport time\n", "m.py")
        text = render_findings(findings)
        assert "RPR001 x1" in text
        assert "RPR002 x1" in text
        assert "2 finding(s)" in text

    def test_render_clean(self):
        assert render_findings([]) == "0 findings"

    def test_rules_are_pluggable(self):
        class NoTodoRule(LintRule):
            id = "RPRTST"
            severity = "warning"
            synopsis = "test-only rule"

            def check(self, module):
                for index, line in enumerate(module.lines):
                    if "TODO" in line:
                        yield self.finding(module, module.tree,
                                           "todo found")

        rule = NoTodoRule()
        findings = lint_source("x = 1  # TODO later\n", "m.py",
                               rules=[rule])
        assert [f.rule_id for f in findings] == ["RPRTST"]

    def test_register_decorator_appends(self):
        before = len(RULES)

        @register
        class Temporary(LintRule):
            id = "RPRTMP"

            def check(self, module):
                return iter(())

        try:
            assert len(RULES) == before + 1
        finally:
            RULES.pop()

    def test_repo_package_is_clean(self):
        """The shipped tree must lint clean — the CI gate's guarantee."""
        package = pathlib.Path(__file__).resolve().parents[1] / "src" / \
            "repro"
        assert render_findings(lint_paths([package])) == "0 findings"


class TestRealConcurrency:
    def test_import_threading_flagged(self):
        assert ids("import threading\n") == ["RPR010"]

    def test_from_multiprocessing_flagged(self):
        assert ids("from multiprocessing import Pool\n") == ["RPR010"]

    def test_asyncio_and_futures_flagged(self):
        found = ids("import asyncio\nimport concurrent.futures\n")
        assert found == ["RPR010", "RPR010"]

    def test_worker_pool_exempt(self):
        # The one sanctioned real-concurrency site: the worker pool both
        # process runners (procs backend, sweep runner) are built on.
        assert ids("import multiprocessing\n",
                   path="src/repro/pool.py") == []

    @staticmethod
    def _runner_ids(relpath):
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / relpath
        return ids(src.read_text(), path=str(src))

    def test_cluster_procs_backend_exempt(self):
        # The procs backend keeps its process fan-out by delegating it to
        # the pool: it imports the pool, never multiprocessing, and so
        # lints clean without an allowlist entry of its own.
        assert ids("from ..pool import WorkerPool\n",
                   path="src/repro/cluster/procs.py") == []
        assert "RPR010" not in self._runner_ids("repro/cluster/procs.py")

    def test_stdlib_sweep_runner_exempt(self):
        # Same for the multi-seed sweep runner, which fans whole
        # (spec, seed) scenario runs out through the pool.
        assert ids("from ..pool import WorkerPool, clamp\n",
                   path="src/repro/stdlib/sweep.py") == []
        assert "RPR010" not in self._runner_ids("repro/stdlib/sweep.py")

    def test_cluster_scenario_modules_still_banned(self):
        # The exemption is the pool alone — the procs runner, cluster
        # coordination and scenario code stay under the rule.
        for path in ("src/repro/cluster/procs.py",
                     "src/repro/cluster/node.py",
                     "src/repro/cluster/cluster.py",
                     "src/repro/cluster/controller.py"):
            assert ids("import multiprocessing\n", path=path) == \
                ["RPR010"], path

    def test_stdlib_scenario_modules_still_banned(self):
        # Same narrowing for the stdlib: the sweep runner goes through
        # the pool, and spec resolution and the scenario runner execute
        # inside the DES timeline.
        for path in ("src/repro/stdlib/sweep.py",
                     "src/repro/stdlib/spec.py",
                     "src/repro/stdlib/runner.py",
                     "src/repro/stdlib/library.py"):
            assert ids("import threading\n", path=path) == \
                ["RPR010"], path

    def test_sim_modules_still_banned(self):
        # Regression pin for the allowlist narrowing: the DES kernel must
        # never regain access to real concurrency.
        for path in ("src/repro/sim/engine.py",
                     "src/repro/sim/process.py"):
            assert ids("import threading\n", path=path) == ["RPR010"], path

    def test_justified_noqa_suppresses(self):
        assert ids("import threading  # noqa: RPR010 -- artifact "
                   "post-processing only, never touches the timeline\n"
                   ) == []

    def test_des_primitives_clean(self):
        assert ids("def f(sim):\n"
                   "    return sim.process(worker(sim))\n") == []


class TestRuleRegistry:
    def test_find_rule_returns_registered_rule(self):
        from repro.analysis.lint import find_rule
        assert find_rule("RPR010").id == "RPR010"

    def test_find_rule_unknown_id_raises(self):
        import pytest

        from repro.analysis.lint import find_rule
        with pytest.raises(KeyError):
            find_rule("RPR404")

    def test_duplicate_id_rejected_loudly(self):
        import pytest

        from repro.analysis.lint import DuplicateRuleError
        before = len(RULES)
        with pytest.raises(DuplicateRuleError):
            @register
            class Shadow(LintRule):
                id = "RPR001"

                def check(self, module):
                    return iter(())
        assert len(RULES) == before  # nothing half-registered


class TestOutputFormats:
    def test_json_format_round_trips(self):
        import json

        from repro.analysis.lint import format_findings
        findings = lint_source("import random\n", "m.py")
        payload = json.loads(format_findings(findings, "json"))
        assert payload[0]["rule_id"] == "RPR001"
        assert payload[0]["path"] == "m.py"
        assert payload[0]["line"] == 1

    def test_github_format_annotations(self):
        from repro.analysis.lint import format_findings
        findings = lint_source("import random\n", "m.py")
        text = format_findings(findings, "github")
        assert text.startswith("::error file=m.py,line=1,col=1,"
                               "title=RPR001::")
        assert "1 finding(s)" in text

    def test_github_format_escapes_newlines(self):
        import dataclasses

        from repro.analysis.lint import Finding, findings_to_github
        finding = Finding(rule_id="RPR001", severity="error", path="m.py",
                          line=1, col=0, message="two\nlines")
        assert "%0A" in findings_to_github([finding])

    def test_text_format_is_default(self):
        from repro.analysis.lint import format_findings
        assert format_findings([], "text") == "0 findings"

    def test_unknown_format_rejected(self):
        import pytest

        from repro.analysis.lint import format_findings
        with pytest.raises(ValueError):
            format_findings([], "yaml")
