"""Transport schemes: the paper's baselines and the window machinery."""

from .. import _lazy_exports

__all__ = _lazy_exports(__name__, {
    ".base": ("Flow", "Scheme", "TransportConfig", "TransportContext"),
    ".dctcp": ("Dctcp", "DctcpSender"),
    ".pias": ("Pias", "PiasSender"),
    ".rc3": ("Rc3", "Rc3Sender"),
    ".swift": ("Swift", "SwiftSender"),
    ".hpcc": ("Hpcc", "HpccSender"),
    ".homa": ("Homa", "HomaSender"),
    ".aeolus": ("Aeolus",),
    ".ndp": ("Ndp", "NdpSender"),
    ".tcp10": ("Tcp10",),
    ".halfback": ("Halfback",),
    ".expresspass": ("ExpressPass",),
    ".timely": ("Timely",),
    ".dcqcn": ("Dcqcn",),
    ".window": ("WindowSender", "WindowReceiver"),
})
