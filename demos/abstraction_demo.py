#!/usr/bin/env python3
"""Walk through neighbourhood abstraction on a small world.

Builds a concrete graph of two locations holding packets, abstracts it
into a shape, and shows how the bounded node multiplicities summarise
any number of packets with a handful of values.  Finally demonstrates
that a larger concrete graph is covered by the same shape.
"""

from shapespace import Graph, Label, abstract, covered, graph_dot, shape_dot

L = Label("L", "unary")    # location
P = Label("P", "unary")    # packet
at = Label("at", "binary")
conn = Label("conn", "binary")


def world(packets_left, packets_right):
    labels = {"l1": frozenset({L}), "l2": frozenset({L})}   # node -> label set
    edges = {("l1", conn, "l2")}                             # binary edges
    for i in range(packets_left):
        labels[f"p{i}"] = frozenset({P})
        edges.add((f"p{i}", at, "l1"))
    for i in range(packets_right):
        labels[f"q{i}"] = frozenset({P})
        edges.add((f"q{i}", at, "l2"))
    return Graph(labels, frozenset(edges))


def main():
    g = world(3, 1)
    print("concrete graph: 2 locations, 3 + 1 packets")
    print(graph_dot(g))

    s = abstract(g)
    print("abstraction groups nodes by labels and local connectivity:")
    print(shape_dot(s))
    print(f"shape has {len(s.nodes)} nodes for "
          f"{len(g.nodes)} concrete nodes")
    for v in sorted(s.nodes):
        labels = ",".join(sorted(l.text for l in s.labels[v]))
        print(f"  node {v} [{labels}]  multiplicity {s.node_mult[v]}")

    # The same shape covers any world with >= 2 packets on the left,
    # because 2+ is the top of the bounded multiplicity scale.
    for n in (2, 5, 40):
        big = world(n, 1)
        print(f"world with {n} left packets covered by the shape: "
              f"{covered(big, [s])}")


if __name__ == "__main__":
    main()
