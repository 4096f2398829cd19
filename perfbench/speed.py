"""Correct pass times for a host whose CPU speed changes while the pass runs.

On a shared machine the same pure-Python work can take twice as long while a
neighbour keeps the sibling hardware thread busy, and that state flips every
few seconds. Raw wall times of a ten-second pass then spread by 20-30 % from
run to run, far more than any change worth measuring.

``SpeedSampler`` interrupts the measured process every ``interval_s`` (a
``SIGALRM`` timer, handled in the main thread) and times a fixed probe: a
caption-like split/strip/count loop that shares no code with captionkit,
chosen because its slowdown tracks the program's. The probe's
duration against ``REFERENCE_PROBE_S`` gives the current speed. For each
interval between probes, the share of it the process spent on a CPU (from
``time.process_time``) is scaled by that speed and the rest (sleeping,
waiting) is kept as measured. ``corrected(start, end)`` sums this over an
interval: the time the work would take at reference speed. Probe time itself
is left out of both the raw and the corrected figure.
"""

from __future__ import annotations

import random
import signal
import statistics
import time


def _probe_texts() -> list[str]:
    rng = random.Random(20240601)
    vocab = ["".join(rng.choice("abcdefghijklmnop") for _ in range(rng.randint(3, 10)))
             for _ in range(20_000)]
    return [" ".join(rng.choice(vocab) for _ in range(12)) for _ in range(3_000)]


PROBE_TEXTS = _probe_texts()
PROBE_BATCH = 120
# Median probe duration inside a pass on a quiet host (2-vCPU x86-64 VM,
# CPython 3.11.7), so that there a pass's corrected time equals its raw wall
# time. Only ratios to it matter when comparing two commits.
REFERENCE_PROBE_S = 0.00069


def probe(offset: int = 0) -> dict:
    """Split, strip and count words of a batch of texts, building tuples and pairs:
    the same kind of work as caption processing, over a working set of about a
    megabyte, so the probe slows down about as much as the program does."""
    counts: dict[str, int] = {}
    start = offset % (len(PROBE_TEXTS) - PROBE_BATCH)
    for text in PROBE_TEXTS[start:start + PROBE_BATCH]:
        tokens = tuple(word.strip(".,") for word in text.lower().split())
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        counts[" ".join(tokens[:2])] = len(list(zip(tokens, tokens[1:])))
    return counts


class SpeedSampler:
    """Context manager that probes host speed while the block runs."""

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        # (wall start, cpu start, wall duration, cpu duration) per probe
        self.samples: list[tuple[float, float, float, float]] = []
        self._previous = None
        self._segments: list[tuple[float, float, float, float]] = []

    def _sample(self, signum, frame) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        probe(len(self.samples) * 7919)
        self.samples.append((wall, cpu, time.perf_counter() - wall, time.process_time() - cpu))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(signal.SIGALRM, None)
        self._segments = list(self._between_probes())

    def speeds(self) -> list[float]:
        """Speed at each probe, as a median over it and its two neighbours."""
        durations = [s[2] for s in self.samples]
        smooth = [statistics.median(durations[max(0, i - 1):i + 2]) for i in range(len(durations))]
        return [REFERENCE_PROBE_S / d for d in smooth]

    def _between_probes(self):
        """(wall start, wall end, busy share, speed) between consecutive probes."""
        speeds = self.speeds()
        for (w0, c0, dw0, dc0), (w1, c1, _, _), s0, s1 in zip(
                self.samples, self.samples[1:], speeds, speeds[1:]):
            start, cpu_start = w0 + dw0, c0 + dc0
            wall = w1 - start
            busy = min(1.0, max(0.0, (c1 - cpu_start) / wall)) if wall > 0 else 0.0
            yield start, w1, busy, (s0 + s1) / 2

    def raw(self, start: float, end: float) -> float:
        """Wall time in [start, end] with probe time left out."""
        return sum(max(0.0, min(b, end) - max(a, start)) for a, b, _, _ in self._segments)

    def corrected(self, start: float, end: float) -> float:
        """Time the work in [start, end] would take at reference speed."""
        total = 0.0
        for a, b, busy, speed in self._segments:
            overlap = min(b, end) - max(a, start)
            if overlap > 0:
                total += overlap * (1 - busy + busy * speed)
        return total
