"""Seifert fibrations: a family where the answer is known in closed form.

Circle fibrations over a genus-g orientable surface are classified by
unnormalized invariants (g; b1/a1, ..., bm/am) with every a_i >= 1 coprime
to b_i.  The total space carries a flow with m attracting orbits, a single
repelling orbit, and m + 2g - 1 orbits in between, and only m - 1 of the
incidences are nonzero.  That makes the family a sharp end-to-end test: the
homology of the flow's one-dimensional foliation, computed from its chain
complex, must agree with the closed form.  That is the base surface's
groups, H_2 = Z, H_1 = Z^2g, H_0 = Z, plus torsion in H_0 from the
exceptional fibers: the torsion of a known bidiagonal matrix.

Run me directly:  python3 demos/04_seifert_fibrations.py
"""

from nmshom import (
    boundary_matrix,
    format_invariant,
    format_matrix,
    parse_flow_complex,
    parse_invariant,
    seifert_equivalent,
)

# --- Closed form versus full pipeline ---------------------------------------
for text in ("2;1/2,1/3,1/5", "0;1/2,1/4", "0;1/6,1/10,1/15"):
    invariant = parse_invariant(text)
    closed = invariant.homology_closed_form()
    piped = invariant.to_flow_complex().to_chain_complex().homology()
    agree = "agree" if closed == piped else "DISAGREE"
    groups = ", ".join(f"H_{g.degree} = {g}" for g in closed)
    print(f"{text:22} -> {groups}   [pipeline and closed form {agree}]")

# Pairwise coprime alphas leave no torsion at all, so those foliations have
# the homology of the base surface alone... visible above for 2;1/2,1/3,1/5.
# Shared factors between alphas surface as torsion in H_0: 30 for the alphas
# 6, 10, 15, whose pairwise gcds multiply up.

# --- The matrix behind the torsion ------------------------------------------
print()
print("bidiagonal boundary matrix for 0;1/6,1/10,1/15:")
print(format_matrix(boundary_matrix(parse_invariant("0;1/6,1/10,1/15"))))

# --- Equivalence of invariant lists ------------------------------------------
# Different lists can name the same fibration.  Moving an integer from one
# fraction to another, padding with 0/1, and permuting all preserve the
# class; changing the rational sum does not.
a = parse_invariant("0;1/2,1/3")
b = parse_invariant("0;3/2,-2/3")   # 1/2+1 and 1/3-1: the sum is unchanged
c = parse_invariant("0;3/2,1/3")    # only the first moved: sum off by one
print("0;1/2,1/3 ~ 0;3/2,-2/3:", seifert_equivalent(a, b))
print("0;1/2,1/3 ~ 0;3/2,1/3: ", seifert_equivalent(a, c))
print("normal form of 0;3/2,-2/3:", format_invariant(b.normalized()))
print("normal form of 0;1/2,1/3: ", format_invariant(a.normalized()))

# --- Emitting a flow description ---------------------------------------------
# to_flow_complex + serialize produce nmsflow text that the generic tools
# consume; nothing downstream knows it came from a fibration.
document = parse_invariant("1;1/1,1/1").to_flow_complex().serialize()
print()
print("emitted nmsflow document for 1;1/1,1/1:")
print(document)
homology = parse_flow_complex(document).to_chain_complex().homology()
print("homology recovered from the text:", ", ".join(str(g) for g in homology))
