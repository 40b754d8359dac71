"""Conflict-driven clause-learning SAT kernel with an assumption interface.

MiniSat-style two-watched-literal propagation, first-UIP clause learning,
activity-based decisions (highest activity first, the lowest variable index
among equals), phase saving and Luby restarts. The decision order has three
zones: a heapq of the bumped variables with lazy deletion, then the
never-bumped variables of the caller's ``prefer`` sequence in its order,
then an index scan of the rest that no conflict has bumped. There is no
randomness anywhere: identical clause streams, assumption lists and
``prefer`` sequences always produce identical behaviour.

External literals are signed 1-indexed ints (DIMACS convention); internally
a literal is ``2*v`` (positive) or ``2*v + 1`` (negative), and ``l ^ 1`` is its
negation.

The layout is flat, after MiniSat (Eén & Sörensson 2003, "An Extensible
SAT-solver"), so the hot loops do little interpreter work per step:

- ``value`` is indexed by internal literal: 1 true, 0 false, -1 unassigned.
  Assigning a literal writes it and its negation; ``value[0::2]`` is the
  value of each variable, variable 0 unused.
- ``clauses`` stores every clause of two or more literals, original and
  learnt, as a list of internal literals whose first two are watched.
  ``watches[l]`` holds the clauses watching ``l`` and ``reason[v]`` the clause
  that implied ``v`` (None for a decision, an assumption or a level-0
  unit): both hold the clause lists themselves, not indices.
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
        self.value = [-1, -1]
        self.level = [0]
        self.reason = [None]
        self.phase = [0]
        self.activity = [0.0]
        self.seen = [0]
        self.heap = []  # (-activity, variable) entries of bumped variables, some stale
        self.in_heap = [False]  # False from a pick until an unassignment pushes it back
        self.next_var = 1  # every variable of activity 0.0 below it is assigned
        self.prefer = ()  # the solve's preferred variables
        self.prefer_at = 0  # every preferred variable before it is assigned or bumped
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.var_inc = 1.0
        self.conflict_count = 0
        self.model = None
        if num_vars:
            self.ensure_vars(num_vars)

    def ensure_vars(self, n):
        k = n - self.num_vars
        if k <= 0:
            return
        self.num_vars = n
        # every array grows in place: the hot loops hold them in locals
        self.value += [-1] * (2 * k)
        self.level += [0] * k
        self.reason += [None] * k
        self.phase += [0] * k
        self.activity += [0.0] * k
        self.seen += [0] * k
        self.in_heap += [True] * k
        # the new variables are unbumped and above every old one, so at or
        # above next_var: the scan decides them, after a complete assignment too
        self.watches += [[] for _ in range(2 * k)]

    def _enqueue(self, l, reason):
        value = self.value
        value[l] = 1
        value[l ^ 1] = 0
        v = l >> 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
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
        value = self.value
        watches = self.watches
        stored = self.clauses
        for lits in clauses:
            if not self.ok:
                return False
            internal = []
            for l in lits:
                il = (l << 1) if l > 0 else ((-l << 1) | 1)
                if il >= len(value):
                    self.ensure_vars(il >> 1)
                va = value[il]
                if va >= 0:
                    if va:
                        break  # already true
                    continue  # already false
                if il ^ 1 in internal:
                    break  # tautology
                if il not in internal:
                    internal.append(il)
            else:
                if len(internal) > 1:
                    stored.append(internal)
                    watches[internal[0]].append(internal)
                    watches[internal[1]].append(internal)
                elif internal:
                    self._enqueue(internal[0], None)
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
        """Propagate the trail from ``qhead``; return a conflicting clause or None.

        ``_enqueue`` is inlined, and each watch list is compacted in place:
        ``ws[:j]`` keeps the clauses still watching ``false_lit``, and
        ``moved`` counts those that now watch another literal.
        """
        value = self.value
        watches = self.watches
        trail = self.trail
        level = self.level
        reason = self.reason
        lvl = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            ws = watches[false_lit]
            if not ws:
                continue
            j = moved = 0
            for clause in ws:
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                v0 = value[first]
                if v0 == 1:
                    ws[j] = clause
                    j += 1
                    continue
                k = 2
                m = len(clause)
                while k < m:
                    lk = clause[k]
                    if value[lk]:  # unassigned or true: the new watch
                        clause[1] = lk
                        clause[k] = false_lit
                        watches[lk].append(clause)
                        moved += 1
                        break
                    k += 1
                else:
                    ws[j] = clause
                    j += 1
                    if v0 == 0:
                        del ws[j : j + moved]
                        self.qhead = len(trail)
                        return clause
                    value[first] = 1
                    value[first ^ 1] = 0
                    v = first >> 1
                    level[v] = lvl
                    reason[v] = clause
                    trail.append(first)
            del ws[j:]
        self.qhead = qhead
        return None

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
        seen = self.seen
        level = self.level
        trail = self.trail
        reason = self.reason
        activity = self.activity
        heap = self.heap
        in_heap = self.in_heap
        var_inc = self.var_inc
        learnt = [0]
        counter = 0
        idx = len(trail) - 1
        cur_level = len(self.trail_lim)
        start = 0  # a reason clause's first literal is the one it implied
        while True:
            for q in confl[start:]:
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    # _bump inlined; it runs whole only to rescale
                    bumped = activity[v] + var_inc
                    if bumped > _RESCALE:
                        self._bump(v)
                        var_inc = self.var_inc
                    else:
                        activity[v] = bumped
                        if in_heap[v]:
                            heappush(heap, (-bumped, v))
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            v = p >> 1
            seen[v] = 0
            counter -= 1
            if counter == 0:
                break
            confl = reason[v]
            start = 1
        learnt[0] = p ^ 1
        for q in learnt:
            seen[q >> 1] = 0
        if len(learnt) == 1:
            return learnt, 0
        # move the max-level literal into the second watch position
        max_i = 1
        max_lv = level[learnt[1] >> 1]
        for j in range(2, len(learnt)):
            lv = level[learnt[j] >> 1]
            if lv > max_lv:
                max_lv = lv
                max_i = j
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, max_lv

    def _cancel_until(self, lvl):
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        trail = self.trail
        value = self.value
        phase = self.phase
        reason = self.reason
        heap = self.heap
        in_heap = self.in_heap
        activity = self.activity
        next_var = self.next_var
        for i in range(len(trail) - 1, bound - 1, -1):
            l = trail[i]
            v = l >> 1
            phase[v] = (l & 1) ^ 1
            value[l] = value[l ^ 1] = -1
            reason[v] = None
            # in_heap first: after conflicts most variables still have an entry
            if not in_heap[v]:
                act = activity[v]
                if act:
                    in_heap[v] = True
                    heappush(heap, (-act, v))
                elif v < next_var:
                    next_var = v
            elif v < next_var and not activity[v]:
                next_var = v
        self.next_var = next_var
        self.prefer_at = 0
        del trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = len(self.trail)
        if len(heap) > _HEAP_SLACK * self.num_vars:
            self._heap_rebuild()

    # -- decision order ------------------------------------------------------------
    # The order is the most active variable first: the variable a full scan
    # for the most active one would pick. Among the variables of activity
    # 0.0, all equal, the solve's prefer sequence goes first, then the lowest
    # index. It has three zones.
    # - The heap holds (-activity[v], v) for the variables of activity above
    #   0, its smallest entry first, so the lowest index among equals. A bump
    #   leaves the variable's older entries behind as stale; a pick clears
    #   in_heap, so an entry of an unflagged variable is stale too, and a
    #   variable bumped while it is a decision is pushed once, at its
    #   unassignment. Assigned variables are dropped lazily.
    # - Once the heap holds no unassigned variable, the unassigned variables
    #   of prefer that no conflict has bumped, in prefer's order: a cursor
    #   from prefer_at, which every backjump resets to 0.
    # - The rest of activity 0.0, in index order: a scan from next_var,
    #   which an unassignment lowers. A solve that meets no conflict pushes
    #   no heap entry at all.

    def _heap_rebuild(self):
        # a rescale can underflow an activity to 0.0: that variable leaves the
        # heap for the scan, which starts over
        act = self.activity
        in_heap = self.in_heap
        heap = self.heap
        heap[:] = [
            (-act[v], v) for v in range(1, self.num_vars + 1) if act[v] and in_heap[v]
        ]
        heapify(heap)
        self.next_var = 1

    def _pick_branch(self):
        heap = self.heap
        act = self.activity
        in_heap = self.in_heap
        value = self.value
        while heap:
            neg, v = heappop(heap)
            if -neg != act[v] or not in_heap[v]:
                continue
            in_heap[v] = False
            if value[v << 1] < 0:
                return v
        prefer = self.prefer
        i = self.prefer_at
        while i < len(prefer):
            v = prefer[i]
            i += 1
            if value[v << 1] < 0 and not act[v]:
                in_heap[v] = False
                self.prefer_at = i  # the caller assigns v
                return v
        self.prefer_at = i
        v = self.next_var
        n = self.num_vars
        while v <= n:
            if value[v << 1] < 0 and not act[v]:
                in_heap[v] = False
                self.next_var = v + 1  # the caller assigns v
                return v
            v += 1
        self.next_var = v
        return -1

    # -- main search -------------------------------------------------------------

    def solve(self, assumptions=(), conflict_budget=-1, prefer=()):
        """Return SAT/UNSAT/UNKNOWN; UNKNOWN means the budget ran out.

        ``assumptions`` are signed external literals treated as temporary
        decisions: UNSAT means unsatisfiable under them (or globally when
        they are empty). Learned clauses are kept across calls. ``prefer``
        is a sequence of declared variables that are decided, in its order,
        before the other variables that no conflict has bumped.
        """
        if not self.ok:
            return UNSAT
        self._cancel_until(0)
        self.prefer = prefer
        self.prefer_at = 0
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
            if confl is not None:
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
                    if self.value[learnt[0]] == 0:
                        self.ok = False
                        return UNSAT
                    if self.value[learnt[0]] == -1:
                        self._enqueue(learnt[0], None)
                else:
                    self.clauses.append(learnt)
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                    self._enqueue(learnt[0], learnt)
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
                    val = self.value[p]
                    if val == 1:
                        self.trail_lim.append(len(self.trail))
                    elif val == 0:
                        self._cancel_until(0)
                        return UNSAT
                    else:
                        self.trail_lim.append(len(self.trail))
                        self._enqueue(p, None)
                else:
                    v = self._pick_branch()
                    if v < 0:
                        self.model = self.value[0::2]
                        self._cancel_until(0)
                        return SAT
                    self.trail_lim.append(len(self.trail))
                    self._enqueue((v << 1) | (self.phase[v] ^ 1), None)

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
            if confl is not None:
                break
            v = l if l > 0 else -l
            self.ensure_vars(v)
            p = (l << 1) if l > 0 else ((v << 1) | 1)
            val = self.value[p]
            if val == 0:
                self._cancel_until(0)
                return None
            self.trail_lim.append(len(self.trail))
            if val < 0:
                self._enqueue(p, None)
                confl = self._propagate()
        if confl is not None:
            if not self.trail_lim:
                self.ok = False
            self._cancel_until(0)
            return None
        out = [-(l >> 1) if l & 1 else l >> 1 for l in self.trail]
        self._cancel_until(0)
        return out

    def restore_phases(self, saved):
        """Make ``saved``, an earlier copy of ``phase``, the saved phases of
        the variables it covers."""
        self.phase[: len(saved)] = saved

    def set_phases(self, lits):
        """Save each signed external literal as its variable's phase, so the
        next decision on that variable makes the literal true."""
        phase = self.phase
        for l in lits:
            if l > 0:
                phase[l] = 1
            else:
                phase[-l] = 0
