# The general problem: four families of pairs that one unitary U must
# satisfy at once -- similarity for S1, congruence for S2, and the same
# relations through conj(U) for S3 and S4.  The paper encodes which
# relation each pair must satisfy by placement parities inside one block
# gadget.  The decision itself runs on real 2n-by-2n letters: each pair sits
# at one block of a 2n-by-2n matrix on which U (+) conj(U) acts, and a
# change of basis makes that unitary real orthogonal.

from unieq import (
    build_general_gadget,
    build_real_letters,
    decision_letters,
    make_yes_instance,
    perturb_to_no,
    plan_layout,
    solve_general,
    verify_witness,
)

# Where each family may sit: row/column parity with a gap of at least two
layout = plan_layout(1, 1, 1, 1, n=2)
print(f"layout for one pair per family: k = {layout.k} blocks")
for p in layout.placements:
    parity = ("even", "odd")
    print(
        f"  family S{p.set_id} -> block ({p.i},{p.j})"
        f"  [{parity[p.i % 2]} row, {parity[p.j % 2]} column]"
    )

# A YES instance generated from a retained witness
gen = make_yes_instance(2, 1, 1, 1, 1, seed=42)
print("\nwitness verifies:", verify_witness(gen.inst, gen.witness))

ga, gb = build_general_gadget(gen.inst)
print("paper's gadget size:", ga.M.shape)
left, _ = build_real_letters(gen.inst)
print(f"real letters: {len(left)} of size {left[0].shape}")

verdict = solve_general(gen.inst)
print("decision:", verdict.result, "via", verdict.route)
if verdict.dimension is None:  # the eigenbasis check found the intertwiner
    print("no span built: an eigenbasis alignment found the intertwiner")
else:
    print("spanned dimension:", verdict.dimension)

# Perturbing one matrix breaks the equivalence, with a certificate that can
# be re-verified from scratch against the rebuilt decision letters.
bad = perturb_to_no(gen, epsilon=0.1, seed=43)
verdict = solve_general(bad.inst)
print("\nperturbed decision:", verdict.result)
cert = verdict.certificate
print("certificate kind:", cert.to_json()["kind"], "at word", cert.word)
scale, left, right = decision_letters(bad.inst)
print("certificate recheck:", cert.recheck(left, right, 1e-8))
