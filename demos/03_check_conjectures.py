"""Machine-check the two conjectures behind the construction.

Conjecture 1 (closure completeness): iterating the reselection step from
any one cover reaches every even cycle cover of the map.

Conjecture 2 (shared cycle): any two edges on a common face lie on a
common cycle of some cover; this is what guarantees an insertion target
always has a compatible cover.

The checkers compare against brute-force oracles.  Conjecture 2 has never
produced a witness here, but conjecture 1 is refuted by a 12-vertex map
this toolkit found during random growth: its eight covers split into two
reselection classes, so no single seed reaches them all.  The bundled
fixtures pin that map and a genuinely non-Hamiltonian 16-vertex map.
"""

from cubicmaps import (
    all_even_cycle_covers,
    check_closure_completeness,
    check_cover,
    check_shared_cycle,
    cover_closure,
)
from cubicmaps.fixtures import (
    cube_map,
    cube_seed,
    fixture_path,
    tetrahedron_map,
    tetrahedron_seed,
    theta_map,
    theta_seed,
)
from cubicmaps.serialize import load_map


def report(name, m, seed):
    r1 = check_closure_completeness(m, seed)
    r2 = check_shared_cycle(m, all_even_cycle_covers(m))
    print(f"{name}: closure completeness {r1.verdict}, shared cycle {r2.verdict}")
    return r1


for name, m, seed in [
    ("theta", theta_map(), theta_seed()),
    ("cube", cube_map(), cube_seed()),
    ("tetrahedron", tetrahedron_map(), tetrahedron_seed()),
]:
    report(name, m, check_cover(m, seed))

print()
m, cycles = load_map(fixture_path("two_kempe_classes.json"))
seed = check_cover(m, cycles)
r = report("two_kempe_classes (12 vertices)", m, seed)
closure = cover_closure(m, seed)
missing = [check_cover(m, c) for c in r.witness["missing_from_closure"]]
print(f"  covers reachable from the bundled seed: {len(closure)}")
print(f"  covers no reselection sequence reaches: {len(missing)}")
print(f"  the unreachable class is itself closed: "
      f"{set(cover_closure(m, missing[0])) == set(missing)}")

print()
m, cycles = load_map(fixture_path("non_hamiltonian_16.json"))
covers = all_even_cycle_covers(m)
print(f"non_hamiltonian_16 (16 vertices): {len(covers)} covers, "
      f"smallest cycle count per cover "
      f"{min(len(c) for c in covers)} -> no Hamiltonian cycle exists")
