"""Topological order of a small dependency DAG held as plain dicts."""

from typing import Iterable, List, Mapping


def topological_order(successors: Mapping[str, Iterable[str]]) -> List[str]:
    """Kahn's order by generations, over keys and callees in order.

    Every callee must be a key. Nodes on a cycle are never freed, so a
    cyclic graph yields fewer nodes than it holds.
    """
    indegree = dict.fromkeys(successors, 0)
    for callees in successors.values():
        for callee in callees:
            indegree[callee] += 1
    order = [node for node, degree in indegree.items() if not degree]
    for node in order:  # grows as callees are freed
        for callee in successors[node]:
            indegree[callee] -= 1
            if not indegree[callee]:
                order.append(callee)
    return order
