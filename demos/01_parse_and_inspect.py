"""Load the sample grid network and poke at its basic structure."""

from pathlib import Path

from efgtp import build_oracle, load_network

DATA = Path(__file__).resolve().parent.parent / "data"


def main():
    net = load_network(str(DATA / "sample-graph.txt"), str(DATA / "sample-coords.txt"))
    print(f"vertices: {net.vertex_count}")
    print(f"edges:    {net.edge_count}")
    print(f"labels:   {' '.join(net.external_ids)}")

    print("\nneighbors of vertex 5 (grid center):")
    row = net.csgraph[5]
    for v, w in zip(row.indices, row.data):
        print(f"  5 -> {net.external_ids[v]}  weight {w}")

    # single-source distances fan out along the cheap horizontal edges first
    oracle = build_oracle(net)
    dist = oracle.row(0)
    print("\ndistances from vertex 0:")
    for v in range(net.vertex_count):
        print(f"  0 -> {net.external_ids[v]:>2}  {dist[v]:.1f}")

    print("\noracle spot checks (symmetry and the triangle through vertex 5):")
    print(f"  d(0, 11) = {oracle.dist(0, 11)}  d(11, 0) = {oracle.dist(11, 0)}")
    print(f"  d(0, 5) + d(5, 11) = {oracle.dist(0, 5) + oracle.dist(5, 11)}")


if __name__ == "__main__":
    main()
