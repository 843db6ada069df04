"""Tests for the host-wide stats view, ``collect_host_metrics``."""

import pytest

from repro.core import Host
from repro.guests import DAYTIME_UNIKERNEL
from repro.trace import collect_host_metrics


def _value(registry, name):
    metric = registry.get(name)
    return metric.value if metric is not None else 0


class TestSnapshot:
    def test_idle_host(self):
        registry = collect_host_metrics(Host(variant="chaos+noxs"))
        assert not [name for name in registry.names()
                    if name.startswith("domains/")]
        assert _value(registry, "memory/guest_kb") == 0
        assert _value(registry, "cpu/utilization") == 0.0
        assert _value(registry, "xenstore/ops") == 0

    def test_counts_running_guests(self):
        host = Host(variant="chaos+noxs")
        for _ in range(3):
            host.create_vm(DAYTIME_UNIKERNEL)
        registry = collect_host_metrics(host)
        assert _value(registry, "domains/running") == 3
        assert _value(registry, "memory/guest_kb") == pytest.approx(
            3 * DAYTIME_UNIKERNEL.memory_kb, rel=0.01)
        assert _value(registry, "noxs/devices_created") >= 3

    def test_shells_reported_separately(self):
        host = Host(variant="lightvm", pool_target=4)
        host.warmup(1000)
        registry = collect_host_metrics(host)
        assert _value(registry, "domains/shell") == 4
        assert _value(registry, "memory/guest_kb") == 0  # shells excluded
        assert _value(registry, "memory/shell_kb") > 0

    def test_xenstore_counters(self):
        host = Host(variant="xl")
        host.create_vm(DAYTIME_UNIKERNEL)
        registry = collect_host_metrics(host)
        assert _value(registry, "xenstore/ops") > 0
        assert _value(registry, "xenstore/nodes") > 0
        assert _value(registry, "xenstore/watches") > 0
        assert _value(registry, "hypervisor/hypercalls/domctl_create") == 1

    def test_render_is_readable(self):
        host = Host(variant="xl")
        host.create_vm(DAYTIME_UNIKERNEL)
        lines = collect_host_metrics(host).render().splitlines()
        assert lines[0].split() == ["metric", "kind", "value"]
        assert ["domains/running", "gauge", "1"] in \
            [line.split() for line in lines]
        assert any(line.startswith("xenstore/ops ") for line in lines)

    def test_cli_metrics_command(self, tmp_path, capsys):
        import json

        from repro.cli import main
        spec = tmp_path / "storm.json"
        spec.write_text(json.dumps({
            "name": "stats", "mode": "host", "host": "chaos+noxs@1",
            "guest": "daytime@1", "traffic": "boot-storm@1",
            "guests": 2}))
        assert main(["run", str(spec), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "noxs/devices_created" in out
        assert "domains/running" in out
