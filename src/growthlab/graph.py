"""Graph algorithms on nodes 0..n-1, shared by fusion and diagrams.

A digraph is a successor list: succ[v] lists the heads of the edges leaving v.
"""

from __future__ import annotations


def scc(succ) -> list[int]:
    """Strongly connected component id of each node (iterative Tarjan).

    Tarjan, "Depth-first search and linear graph algorithms", SIAM J.
    Comput. 1(2), 1972.  The search keeps one (node, iterator over its
    successors) frame per level, so its depth is not bounded by recursion;
    a node is on Tarjan's stack while it is visited and has no component
    yet.  Ids number the components in the order they complete, so every
    edge between two components leads to a smaller id.
    """
    n = len(succ)
    index_of = [-1] * n
    low = [0] * n
    comp_of = [-1] * n
    stack: list[int] = []
    counter = count = 0
    for root in range(n):
        if index_of[root] >= 0:
            continue
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index_of[w] < 0:
                    index_of[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp_of[w] < 0 and index_of[w] < low[v]:
                    low[v] = index_of[w]
            else:
                work.pop()
                if low[v] == index_of[v]:
                    w = -1
                    while w != v:
                        w = stack.pop()
                        comp_of[w] = count
                    count += 1
                elif low[v] < low[work[-1][0]]:  # v is no root, so it has a parent
                    low[work[-1][0]] = low[v]
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

