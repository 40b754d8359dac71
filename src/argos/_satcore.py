"""Conflict-driven clause-learning SAT kernel with an assumption interface.

MiniSat-style two-watched-literal propagation, first-UIP clause learning,
activity-based decisions taken from a heapq decision order with lazy deletion
(highest activity first, the lowest variable index among equals), phase
saving and Luby restarts. There is no randomness anywhere: identical clause
streams and identical assumption lists always produce identical behaviour.

External literals are signed 1-indexed ints (DIMACS convention); internally
a literal is ``2*v`` (positive) or ``2*v + 1`` (negative).
"""

from heapq import heapify, heappop, heappush

SAT = 1
UNSAT = 0
UNKNOWN = -1

_RESCALE = 1e100
_INV_RESCALE = 1e-100
_VAR_DECAY = 1.0 / 0.95
_RESTART_BASE = 100
_HEAP_SLACK = 4  # rebuild the heap once it holds more entries than this per variable


def _luby(i):
    # Luby et al. restart sequence: 1 1 2 1 1 2 4 ...
    k = 1
    while (1 << k) - 1 < i:
        k += 1
    while (1 << k) - 1 != i:
        k -= 1
        i -= (1 << k) - 1
    return 1 << (k - 1)


class Solver:
    """One solver instance owns mutable state; reuse keeps learned clauses."""

    def __init__(self, num_vars=0):
        self.ok = True
        self.num_vars = 0
        self.clauses = []
        self.watches = [[], []]
        self.assigns = [-1]
        self.level = [0]
        self.reason = [-1]
        self.phase = [0]
        self.activity = [0.0]
        self.seen = [0]
        self.heap = []  # (-activity, variable) entries, some of them stale
        self.in_heap = [False]  # whether the variable's current entry is in heap
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.var_inc = 1.0
        self.conflict_count = 0
        self.model = None
        if num_vars:
            self.ensure_vars(num_vars)

    def ensure_vars(self, n):
        while self.num_vars < n:
            self.num_vars += 1
            self.assigns.append(-1)
            self.level.append(0)
            self.reason.append(-1)
            self.phase.append(0)
            self.activity.append(0.0)
            self.seen.append(0)
            self.in_heap.append(True)
            heappush(self.heap, (-0.0, self.num_vars))
            self.watches.append([])
            self.watches.append([])

    # -- literal helpers ---------------------------------------------------

    def _lit_value(self, l):
        va = self.assigns[l >> 1]
        if va < 0:
            return -1
        return va ^ (l & 1)

    def _enqueue(self, l, reason_ci):
        v = l >> 1
        self.assigns[v] = (l & 1) ^ 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason_ci
        self.trail.append(l)

    # -- clause management ---------------------------------------------------

    def add_clauses(self, clauses):
        """Add clauses of signed external literals, in order; call only at
        level 0, where every assigned literal is fixed for good.

        A tautology, or a clause with a literal already true, is left out; a
        literal already false or repeated is dropped; a unit is enqueued for
        the next propagation; an empty clause makes the solver unsatisfiable
        and ends the load. Returns ``ok``.
        """
        assigns = self.assigns
        watches = self.watches
        stored = self.clauses
        for lits in clauses:
            if not self.ok:
                return False
            internal = []
            for l in lits:
                v = l if l > 0 else -l
                if v > self.num_vars:
                    self.ensure_vars(v)
                il = (v << 1) | (l < 0)
                va = assigns[v]
                if va >= 0:
                    if va ^ (il & 1):
                        break  # already true
                    continue  # already false
                if il ^ 1 in internal:
                    break  # tautology
                if il not in internal:
                    internal.append(il)
            else:
                if len(internal) > 1:
                    ci = len(stored)
                    stored.append(internal)
                    watches[internal[0]].append(ci)
                    watches[internal[1]].append(ci)
                elif internal:
                    self._enqueue(internal[0], -1)
                else:
                    self.ok = False
                continue
            # a clause left out still declares its variables
            top = max(l if l > 0 else -l for l in lits)
            if top > self.num_vars:
                self.ensure_vars(top)
        return self.ok

    # -- propagation ---------------------------------------------------------

    def _propagate(self):
        # _lit_value is inlined: this loop makes most of the kernel's calls.
        assigns = self.assigns
        clauses = self.clauses
        watches = self.watches
        trail = self.trail
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            false_lit = p ^ 1
            ws = watches[false_lit]
            new_ws = []
            n = len(ws)
            i = 0
            confl = -1
            while i < n:
                ci = ws[i]
                i += 1
                clause = clauses[ci]
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                va = assigns[first >> 1]
                v0 = -1 if va < 0 else va ^ (first & 1)
                if v0 == 1:
                    new_ws.append(ci)
                    continue
                found = 0
                k = 2
                m = len(clause)
                while k < m:
                    lk = clause[k]
                    va = assigns[lk >> 1]
                    if va < 0 or va ^ (lk & 1):
                        clause[1] = lk
                        clause[k] = false_lit
                        watches[lk].append(ci)
                        found = 1
                        break
                    k += 1
                if found:
                    continue
                new_ws.append(ci)
                if v0 == 0:
                    confl = ci
                    while i < n:
                        new_ws.append(ws[i])
                        i += 1
                    self.qhead = len(trail)
                    break
                self._enqueue(first, ci)
            watches[false_lit] = new_ws
            if confl >= 0:
                return confl
        return -1

    # -- conflict analysis -----------------------------------------------------

    def _bump(self, v):
        self.activity[v] += self.var_inc
        if self.activity[v] > _RESCALE:
            for u in range(1, self.num_vars + 1):
                self.activity[u] *= _INV_RESCALE
            self.var_inc *= _INV_RESCALE
            self._heap_rebuild()  # rounding can tie activities that differed
        elif self.in_heap[v]:
            heappush(self.heap, (-self.activity[v], v))

    def _analyze(self, confl):
        learnt = [0]
        counter = 0
        p = -1
        idx = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        while True:
            clause = self.clauses[confl]
            start = 0 if p == -1 else 1
            for j in range(start, len(clause)):
                q = clause[j]
                v = q >> 1
                if not self.seen[v] and self.level[v] > 0:
                    self.seen[v] = 1
                    self._bump(v)
                    if self.level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not self.seen[self.trail[idx] >> 1]:
                idx -= 1
            p = self.trail[idx]
            idx -= 1
            v = p >> 1
            self.seen[v] = 0
            counter -= 1
            if counter == 0:
                break
            confl = self.reason[v]
        learnt[0] = p ^ 1
        for q in learnt:
            self.seen[q >> 1] = 0
        if len(learnt) == 1:
            return learnt, 0
        # move the max-level literal into the second watch position
        max_i = 1
        max_lv = self.level[learnt[1] >> 1]
        for j in range(2, len(learnt)):
            lv = self.level[learnt[j] >> 1]
            if lv > max_lv:
                max_lv = lv
                max_i = j
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, max_lv

    def _cancel_until(self, lvl):
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        heap = self.heap
        in_heap = self.in_heap
        activity = self.activity
        for i in range(len(self.trail) - 1, bound - 1, -1):
            v = self.trail[i] >> 1
            self.phase[v] = self.assigns[v]
            self.assigns[v] = -1
            self.reason[v] = -1
            if not in_heap[v]:
                in_heap[v] = True
                heappush(heap, (-activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = len(self.trail)
        if len(heap) > _HEAP_SLACK * self.num_vars:
            self._heap_rebuild()

    # -- decision order ------------------------------------------------------------
    # The smallest entry (-activity[v], v) is the most active variable, the
    # lowest index among equals: the variable a full scan for the most active
    # one (first found among equals) would pick. A bump leaves the variable's
    # older entries behind as stale; a pop clears the flag, so an entry of an
    # unflagged variable is stale too. Assigned variables are dropped lazily.

    def _heap_rebuild(self):
        act = self.activity
        in_heap = self.in_heap
        heap = self.heap
        heap[:] = [(-act[v], v) for v in range(1, self.num_vars + 1) if in_heap[v]]
        heapify(heap)

    def _pick_branch(self):
        heap = self.heap
        act = self.activity
        in_heap = self.in_heap
        assigns = self.assigns
        while heap:
            neg, v = heappop(heap)
            if -neg != act[v] or not in_heap[v]:
                continue
            in_heap[v] = False
            if assigns[v] < 0:
                return v
        return -1

    # -- main search -------------------------------------------------------------

    def solve(self, assumptions=(), conflict_budget=-1):
        """Return SAT/UNSAT/UNKNOWN; UNKNOWN means the budget ran out.

        ``assumptions`` are signed external literals treated as temporary
        decisions: UNSAT means unsatisfiable under them (or globally when
        they are empty). Learned clauses are kept across calls.
        """
        if not self.ok:
            return UNSAT
        self._cancel_until(0)
        self.model = None
        conflicts = 0
        restart_idx = 1
        restart_limit = _RESTART_BASE * _luby(1)
        since_restart = 0
        n_assumps = len(assumptions)
        internal_assumps = []
        for l in assumptions:
            v = l if l > 0 else -l
            self.ensure_vars(v)
            internal_assumps.append((l << 1) if l > 0 else (((-l) << 1) | 1))
        while True:
            confl = self._propagate()
            if confl >= 0:
                conflicts += 1
                since_restart += 1
                self.conflict_count += 1
                if len(self.trail_lim) == 0:
                    self.ok = False
                    return UNSAT
                if conflict_budget >= 0 and conflicts > conflict_budget:
                    self._cancel_until(0)
                    return UNKNOWN
                learnt, bt = self._analyze(confl)
                self._cancel_until(bt)
                if len(learnt) == 1:
                    if self._lit_value(learnt[0]) == 0:
                        self.ok = False
                        return UNSAT
                    if self._lit_value(learnt[0]) == -1:
                        self._enqueue(learnt[0], -1)
                else:
                    ci = len(self.clauses)
                    self.clauses.append(learnt)
                    self.watches[learnt[0]].append(ci)
                    self.watches[learnt[1]].append(ci)
                    self._enqueue(learnt[0], ci)
                self.var_inc *= _VAR_DECAY
                if since_restart >= restart_limit:
                    since_restart = 0
                    restart_idx += 1
                    restart_limit = _RESTART_BASE * _luby(restart_idx)
                    self._cancel_until(0)
            else:
                lvl = len(self.trail_lim)
                if lvl < n_assumps:
                    p = internal_assumps[lvl]
                    val = self._lit_value(p)
                    if val == 1:
                        self.trail_lim.append(len(self.trail))
                    elif val == 0:
                        self._cancel_until(0)
                        return UNSAT
                    else:
                        self.trail_lim.append(len(self.trail))
                        self._enqueue(p, -1)
                else:
                    v = self._pick_branch()
                    if v < 0:
                        self.model = self.assigns[:]
                        self._cancel_until(0)
                        return SAT
                    self.trail_lim.append(len(self.trail))
                    self._enqueue((v << 1) | (self.phase[v] ^ 1), -1)

    def model_value(self, var):
        """Truth of an external variable in the last satisfying model."""
        return self.model[var] == 1

    def propagated(self, assumptions=()):
        """Signed external literals that unit propagation sets from the
        clauses and ``assumptions``, each assumption on its own level, or
        None when propagation meets a conflict.

        The clauses and the assumptions entail every one of them; with no
        assumptions they are the literals fixed at decision level 0.
        """
        if not self.ok:
            return None
        self._cancel_until(0)
        confl = self._propagate()
        for l in assumptions:
            if confl >= 0:
                break
            v = l if l > 0 else -l
            self.ensure_vars(v)
            p = (l << 1) if l > 0 else ((v << 1) | 1)
            val = self._lit_value(p)
            if val == 0:
                self._cancel_until(0)
                return None
            self.trail_lim.append(len(self.trail))
            if val < 0:
                self._enqueue(p, -1)
                confl = self._propagate()
        if confl >= 0:
            if not self.trail_lim:
                self.ok = False
            self._cancel_until(0)
            return None
        out = [-(l >> 1) if l & 1 else l >> 1 for l in self.trail]
        self._cancel_until(0)
        return out

    def set_phases(self, lits):
        """Save each signed external literal as its variable's phase, so the
        next decision on that variable makes the literal true."""
        phase = self.phase
        for l in lits:
            if l > 0:
                phase[l] = 1
            else:
                phase[-l] = 0
