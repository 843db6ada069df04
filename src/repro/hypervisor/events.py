"""Event channels — Xen's software interrupts.

Event channels are the notification primitive of the split-driver model:
netback/netfront (and noxs's sysctl back/front) signal each other through
them.  The XenStore protocol's cost is dominated by these notifications —
"a single read or write thus triggers at least two, and most often four,
software interrupts" (§4.2) — so the table counts every notification for
the benchmark breakdowns.
"""

from __future__ import annotations

import typing


class EventChannelError(RuntimeError):
    """Invalid event-channel operation (bad port, wrong state...)."""


class Channel:
    """One end-to-end event channel."""

    __slots__ = ("port", "owner_domid", "remote_domid", "remote_port",
                 "state", "handlers", "notifications")

    def __init__(self, port: int, owner_domid: int):
        self.port = port
        self.owner_domid = owner_domid
        self.remote_domid: typing.Optional[int] = None
        self.remote_port: typing.Optional[int] = None
        self.state = "unbound"  # unbound | interdomain | closed
        #: Callbacks invoked (synchronously) on notification delivery.
        self.handlers: typing.List[typing.Callable] = []
        self.notifications = 0


class EventChannelTable:
    """Hypervisor-wide event channel state, one port table per domain.

    As in Xen, each domain owns its event-channel buckets (owner domid →
    port → channel), so tearing a domain down touches only its own ports.
    Other modules read the tables through :meth:`channel` and :meth:`items`.
    """

    def __init__(self):
        self._channels: typing.Dict[int, typing.Dict[int, Channel]] = {}
        self._next_port: typing.Dict[int, int] = {}
        #: Total notifications sent, for the software-interrupt accounting.
        self.total_notifications = 0

    def _alloc_port(self, domid: int) -> int:
        port = self._next_port.get(domid, 1)
        self._next_port[domid] = port + 1
        return port

    def channel(self, domid: int, port: int) -> Channel:
        """Look up a channel; raises if it does not exist."""
        try:
            return self._channels[domid][port]
        except KeyError:
            raise EventChannelError(
                "no channel (domid=%d, port=%d)" % (domid, port)) from None

    def alloc_unbound(self, owner_domid: int,
                      remote_domid: int) -> int:
        """EVTCHNOP_alloc_unbound: create a port awaiting a peer bind."""
        port = self._alloc_port(owner_domid)
        channel = Channel(port, owner_domid)
        channel.remote_domid = remote_domid
        self._channels.setdefault(owner_domid, {})[port] = channel
        return port

    def bind_interdomain(self, domid: int, remote_domid: int,
                         remote_port: int) -> int:
        """EVTCHNOP_bind_interdomain: connect to a peer's unbound port."""
        remote = self.channel(remote_domid, remote_port)
        if remote.state != "unbound":
            raise EventChannelError("remote port %d not unbound"
                                    % remote_port)
        if remote.remote_domid != domid:
            raise EventChannelError(
                "port %d reserved for domain %s, not %d"
                % (remote_port, remote.remote_domid, domid))
        port = self._alloc_port(domid)
        local = Channel(port, domid)
        local.state = remote.state = "interdomain"
        local.remote_domid, local.remote_port = remote_domid, remote_port
        remote.remote_domid, remote.remote_port = domid, port
        self._channels.setdefault(domid, {})[port] = local
        return port

    def notify(self, domid: int, port: int) -> None:
        """EVTCHNOP_send: deliver a software interrupt to the peer."""
        channel = self.channel(domid, port)
        if channel.state != "interdomain":
            raise EventChannelError("port %d not connected" % port)
        peer = self.channel(channel.remote_domid, channel.remote_port)
        peer.notifications += 1
        self.total_notifications += 1
        for handler in list(peer.handlers):
            handler()

    def on_notify(self, domid: int, port: int,
                  handler: typing.Callable) -> None:
        """Register a delivery handler on the local end of a channel."""
        self.channel(domid, port).handlers.append(handler)

    def close(self, domid: int, port: int) -> None:
        """EVTCHNOP_close: tear down both ends."""
        channel = self.channel(domid, port)
        if channel.state == "interdomain":
            peer = self._channels.get(channel.remote_domid, {}).get(
                channel.remote_port)
            if peer is not None:
                peer.state = "closed"
        channel.state = "closed"
        del self._channels[domid][port]

    def close_all_for(self, domid: int) -> int:
        """Close every channel owned by ``domid``; returns the count."""
        ports = list(self._channels.get(domid, ()))
        for port in ports:
            self.close(domid, port)
        self._channels.pop(domid, None)
        return len(ports)

    def count_for(self, domid: int) -> int:
        """Number of open channels owned by ``domid``."""
        return len(self._channels.get(domid, ()))

    def items(self) -> typing.List[typing.Tuple[typing.Tuple[int, int],
                                                Channel]]:
        """Every channel as ``((owner, port), channel)``, in key order."""
        result = []
        for owner in sorted(self._channels):
            channels = self._channels[owner]
            for port in sorted(channels):
                result.append(((owner, port), channels[port]))
        return result
