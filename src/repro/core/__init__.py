"""PPT: the paper's primary contribution."""

from .. import _lazy_exports

__all__ = _lazy_exports(__name__, {
    ".ppt": ("Ppt", "PptSender", "PptReceiver"),
    ".ppt_swift": ("PptSwift", "PptSwiftSender"),
    ".ppt_hpcc": ("PptHpcc", "PptHpccSender"),
    ".lcp": ("LcpController",),
    ".tagging": ("MirrorTagger",),
    ".identification": ("identify_large", "identification_accuracy",
                        "AppWriteModel", "MEMCACHED_APP", "WEB_SERVER_APP"),
    ".hypothetical": ("HypotheticalDctcp", "MwRecordingDctcp"),
})
