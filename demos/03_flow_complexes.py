"""Flows described by periodic orbits, and the homology of their foliations.

A non-singular Morse-Smale flow on a closed orientable n-manifold has
finitely many periodic orbits, each with an index in 0..n-1 counting its
expanding directions.  Attaching the corresponding round handles filters the
manifold, and the orbits generate a chain complex: degree k is free on the
index-k orbits, and the boundary matrices hold one integer per orbit pair of
adjacent index.  Its homology is that of the one-dimensional oriented
foliation the flow defines, not of the manifold: the complex stops at
degree n-1.  This demo builds such descriptions in the nmsflow text format
and reads that homology off them.

Run me directly:  python3 demos/03_flow_complexes.py
"""

from nmshom import parse_flow_complex

# --- The simplest flow in dimension 2 --------------------------------------
# One attracting orbit, one repelling orbit, net incidence zero.  Gluing the
# two round handles (two annuli) along their circle boundaries with no net
# wrapping closes up into the torus; the foliation's homology has degrees 0
# and 1 only, so it is not the torus's.
torus = parse_flow_complex(
    """
    format nmsflow 1
    dim 2
    orbit south index 0
    orbit north index 1
    incidence north south 0
    """
)
print("torus:", ", ".join(f"H_{g.degree} = {g}" for g in torus.to_chain_complex().homology()))

# --- A three-dimensional example with torsion ------------------------------
# Two attracting orbits tied together by one index-1 orbit with weights 2
# and -4: the cokernel of [[2], [-4]] contributes Z/2 to H_0.
lens_like = parse_flow_complex(
    """
    format nmsflow 1
    dim 3
    orbit a1 index 0
    orbit a2 index 0
    orbit saddle index 1
    orbit top index 2
    incidence saddle a1 2
    incidence saddle a2 -4
    """
)
print("lens-like:", ", ".join(f"H_{g.degree} = {g}" for g in lens_like.to_chain_complex().homology()))

# --- Validation is a report, not an exception ------------------------------
# Orbits of equal index never connect, incidences must drop the index by
# exactly one, endpoints must exist, and a nonempty flow needs both an
# attracting (index 0) and a repelling (index n-1) orbit.
bad = parse_flow_complex(
    """
    format nmsflow 1
    dim 3
    orbit a index 0
    orbit b index 1
    orbit c index 1
    incidence b c 1
    incidence b ghost 5
    """
)
print()
print("problems found in a defective description:")
print(bad.validate().describe())

# --- Serialization round-trips ---------------------------------------------
print()
print("canonical text of the torus flow:")
print(torus.serialize())
assert parse_flow_complex(torus.serialize()) == torus
