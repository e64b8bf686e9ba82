"""The restart-and-search normal form of the right-angled group, as an oracle.

Nothing in this module imports the package under test.  This is the normal
form the library used before the incremental one: delete an equal pair
separated only by letters commuting with it, restart the scan, and when no
pair is left emit the least letter that commutes with every letter before it,
one letter at a time.  It is slow (quadratic and worse) and plain.
"""


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
