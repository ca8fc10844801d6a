"""Print the geometry catalog with the bound each lattice inherits."""

from asdimlab import lattice_bound, list_geometries

for dim in (3, 4):
    facts = list_geometries(dim)
    print(f"dim {dim}: {len(facts)} geometries")
    for f in facts:
        flags = []
        if f.aspherical_model:
            flags.append("aspherical")
        if f.compact_model:
            flags.append("compact model")
        suffix = f"  ({', '.join(flags)})" if flags else ""
        print(f"  {f.name:<8} lattice asdim {lattice_bound(f)}  via {f.lattice_rule}{suffix}")
    print()
