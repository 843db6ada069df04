"""Ablations on LightVM's individual mechanisms.

§5's three mechanisms each attack a different bottleneck; these runs
isolate them:

* hotplug: bash scripts vs the xendevd daemon (§5.3) — a fixed ~30-40 ms
  per device either way you slice the rest of the stack;
* split toolstack: prepare/execute split vs inline creation (§5.2) —
  removes the per-create hypervisor+memory work;
* shell pool sizing: a burst larger than the pool falls back to the
  prepare-rate, so the pool must cover the expected burst.
"""

from repro.core import Host
from repro.core.metrics import mean
from repro.guests import DAYTIME_UNIKERNEL
from repro.toolstack import BashHotplug, ChaosToolstack, Xendevd

from _support import fmt, paper_vs_measured, report, run_once, scaled

BURST = scaled(200, 100)


def hotplug_comparison():
    """chaos+noxs with bash hotplug vs xendevd."""
    out = {}
    for label, hotplug_cls in (("bash", BashHotplug),
                               ("xendevd", Xendevd)):
        host = Host(variant="chaos+noxs")
        host.toolstack = ChaosToolstack(host.sim, host.hypervisor,
                                        noxs=host.noxs, sysctl=host.sysctl,
                                        hotplug=hotplug_cls(host.sim))
        out[label] = host.create_vm(DAYTIME_UNIKERNEL).create_ms
    return out


def split_comparison():
    """Same control plane (noxs), with and without the split toolstack."""
    with_split = Host(variant="lightvm", pool_target=BURST + 16)
    with_split.warmup(20.0 * (BURST + 16))
    without = Host(variant="chaos+noxs")
    return {
        "split": mean([with_split.create_vm(DAYTIME_UNIKERNEL).create_ms
                       for _ in range(20)]),
        "inline": mean([without.create_vm(DAYTIME_UNIKERNEL).create_ms
                        for _ in range(20)]),
    }


def pool_burst(pool_target):
    """Create a burst with a given pool size; return the mean create."""
    host = Host(variant="lightvm", pool_target=pool_target,
                shell_memory_kb=DAYTIME_UNIKERNEL.memory_kb)
    host.warmup(20.0 * (pool_target + 16))
    return mean([host.create_vm(DAYTIME_UNIKERNEL).create_ms
                 for _ in range(BURST)])


def run_experiment():
    return (hotplug_comparison(), split_comparison(),
            {"small-pool": pool_burst(4),
             "big-pool": pool_burst(BURST + 16)})


def test_ablation_mechanisms(benchmark):
    hotplug, split, pools = run_once(benchmark, run_experiment)

    rows = [
        ("create w/ bash hotplug (ms)", "+~30-40", fmt(hotplug["bash"])),
        ("create w/ xendevd (ms)", "baseline", fmt(hotplug["xendevd"])),
        ("split-toolstack create (ms)", "~1-2", fmt(split["split"], 2)),
        ("inline create (ms)", "~8-15", fmt(split["inline"], 2)),
        ("burst of %d, pool=4 (ms)" % BURST, "prepare-rate bound",
         fmt(pools["small-pool"], 2)),
        ("burst of %d, pool=%d (ms)" % (BURST, BURST + 16), "flat fast",
         fmt(pools["big-pool"], 2)),
    ]
    report("ABLATION-MECHANISMS hotplug / split / pool",
           paper_vs_measured(rows),
           data={
               "burst": BURST,
               "hotplug_create_ms": hotplug,
               "split_create_ms": split,
               "pool_burst_mean_ms": pools,
           })

    assert hotplug["bash"] - hotplug["xendevd"] > 25
    assert split["split"] < split["inline"] / 2
    # An undersized pool degrades bursts toward the prepare rate.
    assert pools["small-pool"] > pools["big-pool"] * 1.5


if __name__ == "__main__":
    import sys

    from _support import bench_main
    sys.exit(bench_main(__file__))
