"""TCP-10 [Dukkipati et al., CCR 2010] — "an argument for increasing
TCP's initial congestion window".

One of Table 1's reactive baselines: standard loss-based TCP whose only
startup improvement is IW=10.  It does not use ECN (classic NewReno
response: halve on loss) and does not schedule flows — the paper's point
is that raising the initial window only helps the *first* RTT of small
flows and ignores the queue-buildup spare bandwidth entirely.
"""

from __future__ import annotations

from .base import Scheme
from .window import WindowReceiver, WindowSender


class Tcp10Sender(WindowSender):
    """NewReno with IW=10 (the windowing defaults of WindowSender) and
    no ECN reaction."""

    def ecn_capable(self) -> bool:
        return False


class Tcp10(Scheme):
    name = "tcp10"

    sender_cls = Tcp10Sender
    receiver_cls = WindowReceiver
