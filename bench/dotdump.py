"""Seeded DOT dumps in the style a model checker writes, and a reader for
the one-statement-per-line DOT that `statecover clean` emits.

Nothing here imports statecover. The generator keeps its own list of
distinct statements in first-occurrence order, which is what the cleaned
graph must equal.

Every dump of a given size has exactly the same byte count whatever the
seed: ids are 19-character fingerprints, half of them negative, and labels are
built from fixed-width fields. Only the values move with the seed, so every
run parses the same amount of text.
"""

from __future__ import annotations

import random
import re

ACTIONS = ("Send", "Recv", "Drop", "Tick")
VARIABLES = ("inbox", "round", "votes", "phase")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def make_dump(seed: int, states: int, out_degree: int):
    """Return (dot_text, distinct_nodes, distinct_edges).

    distinct_nodes holds (id, label) and distinct_edges (src, dst, label), each
    in first-occurrence order, with labels as the DOT reader sees them: `\\\\`
    and `\\"` decoded, every other escape (the `\\n` line breaks) kept as
    written. Every statement is written exactly twice, so half of the
    statements in the dump are duplicates.
    """
    rng = random.Random(seed)
    signs = [-1] * (states // 2) + [1] * (states - states // 2)
    rng.shuffle(signs)
    ids, taken = [], set()
    while len(ids) < states:
        digits = 18 if signs[len(ids)] < 0 else 19
        fp = signs[len(ids)] * rng.randrange(10 ** (digits - 1), 10 ** digits)
        if fp not in taken:
            taken.add(fp)
            ids.append(str(fp))
    statements, seen = [], set()
    for i, sid in enumerate(ids):
        # written as TLC writes them: `/\\ var = value` lines joined by `\n`
        lines = [f"/\\\\ {v} = {rng.randrange(10 ** 4):04d}" for v in VARIABLES]
        lines.append(f'/\\\\ pc = \\"w{rng.randrange(1000):03d}\\"')
        statements.append(("node", sid, "\\n".join(lines)))
        # one edge into every later state keeps the dump connected
        targets = [ids[i + 1]] if i + 1 < states else []
        while len(targets) < out_degree:
            targets.append(ids[rng.randrange(states)])
        for dst in targets:
            label = f"{rng.choice(ACTIONS)}(p{rng.randrange(10)})"
            while ("edge", sid, dst, label) in seen:
                label = f"{rng.choice(ACTIONS)}(p{rng.randrange(10)})"
            seen.add(("edge", sid, dst, label))
            statements.append(("edge", sid, dst, label))
    lines = ["digraph DiskGraph {"]
    pending: list = []
    for st in statements:
        lines.append(_render(st))
        pending.append(st)
        if rng.random() < 0.5:
            lines.append(_render(pending.pop(rng.randrange(len(pending)))))
    rng.shuffle(pending)
    lines.extend(_render(st) for st in pending)
    lines.append("}")
    nodes = [(st[1], _decode(st[2])) for st in statements if st[0] == "node"]
    edges = [st[1:] for st in statements if st[0] == "edge"]
    return "\n".join(lines) + "\n", nodes, edges


def _render(st) -> str:
    if st[0] == "node":
        return f'{st[1]} [label="{st[2]}",style = filled];'
    _, src, dst, label = st
    color = "black" if label.startswith(("Send", "Recv")) else "green"
    return f'{src} -> {dst} [label={_quote(label)},color="{color}",fontcolor="{color}"];'


_ID = r'(-?\d+|"(?:[^"\\]|\\.)*")'
_NODE = re.compile(_ID + r'(?: \[label="((?:[^"\\]|\\.)*)"\])?;')
_EDGE = re.compile(_ID + " -> " + _ID + r'(?: \[label="((?:[^"\\]|\\.)*)"\])?;')
_ESCAPE = re.compile(r'\\(.)')


def _decode(text: str) -> str:
    return _ESCAPE.sub(lambda m: m.group(1) if m.group(1) in '"\\' else m.group(0), text)


def _id(token: str) -> str:
    return _decode(token[1:-1]) if token.startswith('"') else token


def read_clean_dot(text: str):
    """(nodes, edges) of a DOT file written one statement per line.

    Raises ValueError on any line that is not a node or edge statement
    between `digraph NAME {` and `}`.
    """
    lines = text.split("\n")
    if not re.fullmatch(r"digraph \w+ \{", lines[0]) or lines[-2:] != ["}", ""]:
        raise ValueError("not a one-statement-per-line digraph")
    nodes, edges = [], []
    for line in lines[1:-2]:
        m = _EDGE.fullmatch(line)
        if m:
            label = None if m.group(3) is None else _decode(m.group(3))
            edges.append((_id(m.group(1)), _id(m.group(2)), label))
            continue
        m = _NODE.fullmatch(line)
        if m is None:
            raise ValueError(f"unreadable statement {line[:80]!r}")
        nodes.append((_id(m.group(1)), None if m.group(2) is None else _decode(m.group(2))))
    return nodes, edges
