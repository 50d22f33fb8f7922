"""Graph algorithms on nodes 0..n-1, shared by fusion and diagrams.

A digraph is a successor list: succ[v] lists the heads of the edges leaving v.
"""

from __future__ import annotations


def scc(succ) -> list[int]:
    """Strongly connected component id of each node (iterative Tarjan).

    Ids number the components in the order they complete, so every edge
    between two components leads to a smaller id.
    """
    n = len(succ)
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    comp_of = [-1] * n
    count = 0

    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index_of[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(succ[v]):
                w = succ[v][pi]
                pi += 1
                if index_of[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index_of[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp_of[w] = count
                    if w == v:
                        break
                count += 1
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return comp_of


def distances(succ, start: int) -> list[int | None]:
    """Breadth-first edge counts from start; None where start cannot reach."""
    dist: list[int | None] = [None] * len(succ)
    dist[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in succ[v]:
                if dist[w] is None:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist

