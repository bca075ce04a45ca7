"""The witness search's last slot without pruning by failed subgroups: the
reference the engine's scan is tested against.

``ReferenceSearch`` is ``gen32.gens._Search`` with a last slot that does
not skip candidates lying in a proper subgroup <P, x> found earlier in
its scan.  Every final candidate that passes the two filters costs a
Schreier-Sims build of <P, x>, so the witness, the per-level ``tests``
count and the truncation point are those of the plain canonical-order
scan.
"""

from gen32 import gens
from gen32.gens import _Search


class ReferenceSearch(_Search):
    def _extend(self, prefix, sub, remaining, limit):
        keyed = self._keyed
        keys = keyed.keys
        ab = self._ab
        span = None
        if ab is not None and prefix:
            span = ab.span(sorted({ab.phi[keys[i]] for i in prefix}))
            if ab.gens_needed(span) > remaining:
                return None
        slots = self._rep_ids if not prefix else range(len(keys))
        if remaining == 1:
            good = ab.good_last(span) if span is not None else None
            perms = tuple(keyed.perm(i) for i in prefix)
            P = None
            for i in slots:
                key = keys[i]
                if sub is not None and key in sub:
                    continue
                if limit is not None and self.tests >= limit:
                    self.truncated = True
                    return None
                self.tests += 1
                if good is not None and ab.phi[key] not in good:
                    continue
                x = keyed.perm(i)
                if P is None:
                    P = self.G.subgroup(perms)
                if self._joins_orbits(P, x) and self.G.subgroup(perms + (x,)).order() == self.n:
                    return perms + (x,)
            return None
        for i in slots:
            if sub is not None and keys[i] in sub:
                continue
            longer = prefix + (i,)
            closure = keyed.closure([keyed.perm(j) for j in longer], gens.PREFIX_SET_LIMIT)
            got = self._extend(longer, closure, remaining - 1, limit)
            if got is not None:
                return got
            if self.truncated:
                return None
        return None
