"""Buffer-aware flow identification (§4.1).

The mechanism: applications copy data into the kernel send buffer via
``send()`` syscalls; with an adequately sized buffer, a flow whose *first*
syscall injects more than a threshold is identified as large at the very
start of transmission.  Identification can miss flows whose applications
write a small framing chunk first (protocol headers, chunked encoders) —
the paper measures 86.7% accuracy for Memcached (>1KB flows, 1KB
threshold) and 84.3% for a web server (>10KB flows, 10KB threshold).

This module provides:

* :func:`identify_large` — the kernel-side check itself,
* application *write models* reproducing the first-syscall behaviour of
  Memcached-style and HTTP-server-style applications, used by the §4.1
  accuracy experiment (claims ``sec41-*`` of
  :mod:`repro.experiments.claims`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Tuple


def identify_large(first_syscall_bytes: int, threshold: int) -> bool:
    """Kernel check: did the first ``send()`` exceed the threshold?"""
    return first_syscall_bytes >= threshold


@dataclass
class AppWriteModel:
    """How an application chops a message into ``send()`` syscalls.

    ``framing_probability`` is the chance the application writes a small
    protocol-framing chunk (header, length prefix) as its *first* syscall
    before the body — the behaviour that defeats buffer-aware
    identification.  ``framing_bytes`` bounds that first chunk.
    """

    name: str
    framing_probability: float
    framing_bytes: Tuple[int, int]  # uniform range for the framing chunk

    def first_syscall(self, message_bytes: int, send_buffer: int,
                      rng: random.Random) -> int:
        if rng.random() < self.framing_probability:
            low, high = self.framing_bytes
            return min(message_bytes, rng.randint(low, high))
        return min(message_bytes, send_buffer)


# Memcached responses are assembled and written in (nearly) one syscall;
# a minority go out with the protocol header flushed first.
MEMCACHED_APP = AppWriteModel("memcached", framing_probability=0.13,
                              framing_bytes=(24, 100))

# HTTP servers frequently write status-line + headers before the body.
WEB_SERVER_APP = AppWriteModel("web-server", framing_probability=0.16,
                               framing_bytes=(200, 800))


def identification_accuracy(
    sizes: List[int],
    app: AppWriteModel,
    *,
    threshold: int,
    send_buffer: int,
    seed: int = 1,
) -> float:
    """Fraction of >threshold flows correctly identified as large.

    Reproduces the §4.1 validation: replay a trace of message sizes
    through the app's write model and check the first-syscall test.
    """
    rng = random.Random(seed)
    large = [s for s in sizes if s > threshold]
    if not large:
        return 1.0
    hits = 0
    for size in large:
        first = app.first_syscall(size, send_buffer, rng)
        if identify_large(first, threshold):
            hits += 1
    return hits / len(large)
