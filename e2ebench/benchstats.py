"""Arithmetic of the end-to-end benchmark: percentiles, self time,
ratios with their bases, failure fractions and run-to-run spread.

Pure functions over plain lists, so test_e2ebench.py checks them
without building or running the program.
"""

import math
import statistics
from fractions import Fraction

# A tail percentile is reported only when at least this many samples
# lie beyond it; fewer would make it the reading of one or two frames.
MIN_BEYOND = 10


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least
    pct % of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def _rank(n, pct):
    # Exact arithmetic: 99.9 * 1000 / 100 must be 999, not 999.0000001.
    return math.ceil(Fraction(str(pct)) * n / 100)


def samples_beyond(n, pct):
    """Samples strictly above the nearest-rank pct-th percentile."""
    return n - _rank(n, pct)


def tail_percentile(n, candidates=(99.9, 99, 95, 90, 75, 50)):
    """Highest candidate percentile with MIN_BEYOND samples beyond it,
    or None when even the lowest has fewer."""
    for pct in sorted(candidates, reverse=True):
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def self_time(span, children):
    """A span's duration minus the part of its interval that its child
    spans cover. Children may overlap each other or reach outside the
    parent; only their union inside the parent counts."""
    start, end = span
    clipped = sorted((max(s, start), min(e, end)) for s, e in children
                     if min(e, end) > max(s, start))
    covered = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return (end - start) - covered


def frame_self_times(spans, frame_name="frame"):
    """Self time of every frame span; spans are (name, frame, start,
    end) and children share the frame id of their parent."""
    frames = {}
    children = {}
    for name, frame, start, end in spans:
        if name == frame_name:
            frames[frame] = (start, end)
        else:
            children.setdefault(frame, []).append((start, end))
    return [self_time(frames[f], children.get(f, [])) for f in sorted(frames)]


def ratio_pct(part, base):
    """(part / base as a percentage, base); 0 % over an empty base."""
    if part < 0 or base < 0 or part > base:
        raise ValueError("ratio needs 0 <= part <= base")
    return (100.0 * part / base if base else 0.0), base


def failed_frac(offered, failed):
    """Share of offered frames that were dropped, failed, abandoned or
    mismatched the oracle."""
    if offered < 1:
        raise ValueError("no frames offered")
    if not 0 <= failed <= offered:
        raise ValueError("failed frames must be within the offered ones")
    return failed / offered


def max_over_mean(counts):
    """Load imbalance: the busiest bucket over the mean bucket."""
    if not counts or sum(counts) <= 0:
        raise ValueError("no load")
    return max(counts) / (sum(counts) / len(counts))


def spread(values):
    """Distance between the first and third quartiles, as a share of
    the median (statistics.quantiles, exclusive method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
