"""Two earlier normal forms of the right-angled group, as oracles.

Nothing in this module imports the package under test.

`normal_form` is the restart-and-search form the library used first: delete
an equal pair separated only by letters commuting with it, restart the scan,
and when no pair is left emit the least letter that commutes with every
letter before it, one letter at a time.  It is slow (quadratic and worse)
and plain.

`heap_normal_form` is the two-pass form that replaced it: push the letters
onto a reduced word, cancelling or appending after a back-scan over
commuting letters, then read the lexicographically least commutation shuffle
off the dependence graph with a heap.
"""

import heapq


def normal_form(word, M):
    n = len(M)
    w = list(word)
    for x in w:
        if not isinstance(x, int) or not 0 <= x < n:
            raise ValueError(f"letter out of range for S: {x!r}")
    changed = True
    while changed:
        changed = False
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                if w[j] == w[i]:
                    del w[j]
                    del w[i]
                    changed = True
                    break
                if M[w[i]][w[j]] != 2:
                    break
            if changed:
                break
    out = []
    while w:
        best = None
        for p in range(len(w)):
            if (best is None or w[p] < w[best]) and all(
                M[w[q]][w[p]] == 2 for q in range(p)
            ):
                best = p
        out.append(w.pop(best))
    return tuple(out)


def _push(w, x, M):
    row = M[x]
    for i in range(len(w) - 1, -1, -1):
        y = w[i]
        if y == x:
            del w[i]
            return
        if row[y] != 2:
            break
    w.append(x)


def _lex(w, M):
    # position p follows the last earlier occurrence of each letter that
    # does not commute with w[p]; the heap emits the least available letter
    waiting = [0] * len(w)
    after = [[] for _ in w]
    last = {}
    for p, x in enumerate(w):
        row = M[x]
        for y, q in last.items():
            if row[y] != 2:  # also y == x: the diagonal of M is 1
                after[q].append(p)
                waiting[p] += 1
        last[x] = p
    heap = [(x, p) for p, x in enumerate(w) if not waiting[p]]
    heapq.heapify(heap)
    out = []
    while heap:
        x, p = heapq.heappop(heap)
        out.append(x)
        for r in after[p]:
            waiting[r] -= 1
            if not waiting[r]:
                heapq.heappush(heap, (w[r], r))
    return tuple(out)


def heap_normal_form(word, M):
    n = len(M)
    w = []
    for x in word:
        if not isinstance(x, int) or not 0 <= x < n:
            raise ValueError(f"letter out of range for S: {x!r}")
        _push(w, x, M)
    return _lex(w, M)
