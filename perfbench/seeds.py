"""Seeded random streams shared by the benchmark and its load generator.

Kept free of ``repro`` imports so the load-generator process starts fast.
"""

from __future__ import annotations

import random
from typing import Any, Iterator


def rng(*parts: Any) -> random.Random:
    """A generator seeded by ``parts``; string seeds hash through SHA-512,
    so streams are stable across processes and interpreter runs."""
    return random.Random(":".join(str(part) for part in parts))


def request_stream(seed: int, client: int, distinct: int) -> Iterator[int]:
    """Indexes of the specs one serve-repeat client requests, in order."""
    generator = rng("serve-repeat", seed, client)
    while True:
        yield generator.randrange(distinct)
