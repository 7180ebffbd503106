"""Independent oracles for the benchmark's checks.

Nothing here imports statecover: the answers the benchmark compares the
program's outputs against are computed from the service's rules directly.

A lifecycle state is (players, tournaments, enrolments, final) where
players is a frozenset of (pid, frozenset of tids), tournaments a frozenset
of (tid, frozenset of pids, capacity) and enrolments a frozenset of
(eid, pid, tid). The initial state is empty with final False; an action
that empties everything leads to the distinct final state, which has no
successors.
"""

from __future__ import annotations

import itertools

EMPTY = (frozenset(), frozenset(), frozenset(), False)

# Parameter order of each action's label, e.g. postEnrolment(e1,p1,t1).
PARAMS = {
    "postPlayer": ("pid",), "deletePlayer": ("pid",),
    "postTournament": ("tid",), "deleteTournament": ("tid",),
    "postEnrolment": ("eid", "pid", "tid"), "deleteEnrolment": ("eid",),
}
# Updates are not model actions: enabled while their resource exists, they
# leave the lifecycle state as it is.
UPDATES = {"putPlayer": ("pid", 0), "putTournament": ("tid", 1)}


def step(state, action, args, caps):
    """Successor states of action(args) from state; empty when disabled."""
    players, tours, enrols, final = state
    if final:
        return []
    p = dict(players)
    t = {tid: (ps, c) for tid, ps, c in tours}
    e = {eid: (pid, tid) for eid, pid, tid in enrols}
    if action == "postPlayer" and args[0] not in p:
        p[args[0]] = frozenset()
    elif action == "deletePlayer" and not p.get(args[0], "x"):
        del p[args[0]]
    elif action == "postTournament" and args[0] not in t:
        return [_freeze(p, {**t, args[0]: (frozenset(), c)}, e) for c in caps]
    elif action == "deleteTournament" and not t.get(args[0], ("x",))[0]:
        del t[args[0]]
    elif action == "postEnrolment":
        eid, pid, tid = args
        ps, c = t.get(tid, (frozenset(), 0))
        if eid in e or pid not in p or tid not in t or pid in ps or len(ps) >= c:
            return []
        e[eid] = (pid, tid)
        p[pid] = p[pid] | {tid}
        t[tid] = (ps | {pid}, c)
    elif action == "deleteEnrolment" and args[0] in e:
        pid, tid = e.pop(args[0])
        p[pid] = p[pid] - {tid}
        ps, c = t[tid]
        t[tid] = (ps - {pid}, c)
    else:
        return []
    return [_freeze(p, t, e)]


def _freeze(p, t, e):
    return (frozenset(p.items()),
            frozenset((tid, ps, c) for tid, (ps, c) in t.items()),
            frozenset((eid, pid, tid) for eid, (pid, tid) in e.items()),
            not p and not t and not e)


def labels(players, tournaments, enrolments):
    """Every (action, args) the model can label an edge with."""
    domains = {"pid": players, "tid": tournaments, "eid": enrolments}
    for action, names in PARAMS.items():
        for args in itertools.product(*(domains[n] for n in names)):
            yield action, args


def enumerate_lifecycle(players, tournaments, enrolments, caps):
    """Breadth-first enumeration: (states, transitions) where transitions is
    the set of distinct (state, label, state) triples."""
    states, queue, edges = {EMPTY}, [EMPTY], set()
    all_labels = list(labels(players, tournaments, enrolments))
    for state in queue:
        for action, args in all_labels:
            label = f"{action}({','.join(args)})"
            for nxt in step(state, action, args, caps):
                edges.add((state, label, nxt))
                if nxt not in states:
                    states.add(nxt)
                    queue.append(nxt)
    return states, edges


def _call_step(state, op, params, caps):
    """(successors, label) of one suite call; updates are self-steps."""
    if op in UPDATES:
        key, slot = UPDATES[op]
        present = {item[0] for item in state[slot]}
        return ([state] if not state[3] and params.get(key) in present else []), None
    if op not in PARAMS:
        return [], None
    args = tuple(params.get(name) for name in PARAMS[op])
    return step(state, op, args, caps), f"{op}({','.join(map(str, args))})"


def replay(suite, caps):
    """Replay every call sequence of a written suite against the model.

    A call's capacity choice is not in the call, so each sequence is replayed
    as the set of model paths it can stand for: forward over the calls, then
    backward from the final states. Returns (problems, covered states,
    covered transitions); a problem names a call that is enabled on no path,
    a sequence that cannot end final, or an update outside the lifetime of
    its resource.
    """
    problems, covered_states, covered_edges = [], set(), set()
    for n, calls in enumerate(suite):
        layers, steps = [{EMPTY}], []
        for k, call in enumerate(calls):
            succ = {}
            for state in layers[-1]:
                nexts, label = _call_step(state, call["op"], call["params"], caps)
                for nxt in nexts:
                    succ.setdefault(nxt, set()).add((state, label))
            if not succ:
                problems.append(f"sequence {n} call {k} {call['op']}"
                                f"{call['params']} is not enabled")
                break
            layers.append(set(succ))
            steps.append(succ)
        else:
            live = {s for s in layers[-1] if s[3]}
            if not live:
                problems.append(f"sequence {n} does not end in the final state")
                continue
            covered_states |= live
            for succ in reversed(steps):
                before = set()
                for nxt in live:
                    for state, label in succ[nxt]:
                        before.add(state)
                        if label is not None:
                            covered_edges.add((state, label, nxt))
                live = before
                covered_states |= live
    return problems, covered_states, covered_edges
