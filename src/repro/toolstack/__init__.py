"""Virtualization toolstacks: the standard xl/libxl and LightVM's chaos.

* :class:`XlToolstack` — nine-step creation over the XenStore (Fig 8 left).
* :class:`ChaosToolstack` — lean toolstack over the XenStore or noxs.
* :class:`ChaosDaemon` — the split toolstack's prepare phase + shell pool.
* :class:`Checkpointer` / :func:`migrate` — save/restore and migration.
* :class:`BashHotplug` / :class:`Xendevd` — user-space device plumbing.

All of them survive injected control-plane faults (:mod:`repro.faults`)
via pluggable retry policies and clean rollback of failed operations.
"""

from .chaos import ChaosCosts, ChaosToolstack
from .config import ConfigError, VMConfig, parse_config_text
from .devices import (DeviceSetupError, MAX_TX_RETRIES, TX_RETRY_POLICY,
                      XsDeviceManager)
from .hotplug import (BashHotplug, HotplugCosts, HotplugError, NullBridge,
                      Xendevd)
from .migration import Checkpointer, MigrationCosts, SavedImage, migrate
from .phases import PHASES, CreationRecord, PhaseRecorder
from .power import PowerCosts, PowerManager
from .shellpool import ChaosDaemon, Shell, ShellPoolCosts
from .xl import ToolstackError, XlCosts, XlToolstack

__all__ = [
    "BashHotplug",
    "ChaosCosts",
    "ChaosDaemon",
    "ChaosToolstack",
    "Checkpointer",
    "ConfigError",
    "CreationRecord",
    "DeviceSetupError",
    "HotplugCosts",
    "HotplugError",
    "MAX_TX_RETRIES",
    "MigrationCosts",
    "NullBridge",
    "PHASES",
    "PhaseRecorder",
    "PowerCosts",
    "PowerManager",
    "SavedImage",
    "Shell",
    "ShellPoolCosts",
    "TX_RETRY_POLICY",
    "ToolstackError",
    "VMConfig",
    "XlCosts",
    "XlToolstack",
    "XsDeviceManager",
    "Xendevd",
    "migrate",
    "parse_config_text",
]
