"""L2 hardware prefetchers.

The paper (§8, "The impact of H/W prefetching") notes that Intel's L2
prefetchers — the *adjacent cache line* prefetcher and the *streamer* —
are built for contiguous access patterns, so slice-aware management
(whose allocations are deliberately non-contiguous) can lose their
benefit.  The streamer model lets the prefetch ablation quantify that
trade-off; machine configs disable it by default because every
workload in the paper is random-access.

A prefetcher's :meth:`observe` is fed each demand line that missed L2
and returns the lines to prefetch into L2.
"""

from __future__ import annotations

from typing import Dict, List

from repro.mem.address import CACHE_LINE, PAGE_4K


class StreamerPrefetcher:
    """Ascending-stride stream detector within 4 KiB pages.

    Tracks the last line seen per page; after ``trigger`` consecutive
    +1-line accesses in a page it prefetches the next ``degree`` lines
    (never crossing the page boundary, as the real streamer does not).
    """

    def __init__(self, degree: int = 2, trigger: int = 2, max_pages: int = 64) -> None:
        if degree <= 0 or trigger <= 0:
            raise ValueError("degree and trigger must be positive")
        self.degree = degree
        self.trigger = trigger
        self.max_pages = max_pages
        self._streams: Dict[int, List[int]] = {}  # page -> [last_line, run_len]

    def observe(self, line: int) -> List[int]:
        """Update stream state; return lines to prefetch."""
        page = line // PAGE_4K
        state = self._streams.get(page)
        if state is None:
            if len(self._streams) >= self.max_pages:
                self._streams.pop(next(iter(self._streams)))
            self._streams[page] = [line, 1]
            return []
        last_line, run = state
        if line == last_line + CACHE_LINE:
            run += 1
        elif line == last_line:
            return []
        else:
            run = 1
        state[0] = line
        state[1] = run
        if run < self.trigger:
            return []
        page_end = (page + 1) * PAGE_4K
        targets = []
        for i in range(1, self.degree + 1):
            candidate = line + i * CACHE_LINE
            if candidate >= page_end:
                break
            targets.append(candidate)
        return targets

    def reset(self) -> None:
        """Forget all tracked streams."""
        self._streams.clear()
