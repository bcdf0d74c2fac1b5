"""
Twisting shifts and what survives them
======================================

Shifting the coproduct by a biadditive alpha changes both Hopf algebras
and the pairing twist, but the double's structure constants stay put.
"""

from heisdouble.double import verify_shift_invariance
from heisdouble.expr import evaluate_text
from heisdouble.hopf import check_bialgebra
from heisdouble.instances import build_qheis, build_weyl, cartan_a, load_instance, shifted_instance
from heisdouble.twisting import dual_twisting

weyl = build_weyl()
print("weyl twistings")
print("  chi   =", weyl.plus.twisting)
print("  xi    =", weyl.minus.twisting)
print("  gamma =", weyl.pairing.gamma)
print("  xi equals the dual twisting:",
      dual_twisting(weyl.plus.twisting, weyl.pairing.gamma) == weyl.minus.twisting)

# shift the coproducts by the form alpha(m, n) = mn, given by its constant
# 1; every structure map gains q-powers
alpha = 1
shifted = shifted_instance(weyl, alpha)
print("\nafter the shift by alpha = [%d]" % alpha)
print("  chi   =", shifted.plus.twisting)
print("  gamma =", shifted.pairing.gamma)
print("  bialgebra axioms still hold:", check_bialgebra(shifted.plus, 5).status)

# same normal form in both doubles: the double does not see alpha
u = evaluate_text(weyl.double, "d^2 * x^2")
v = evaluate_text(shifted.double, "d^2 * x^2")
print("  d^2 x^2 normal forms agree:",
      weyl.double.element_str(u) == shifted.double.element_str(v))

# the systematic check: the cores (1#x)(b#1) of bounded degree, from which
# every smash product of bounded degree is built
print("\nshift invariance reports")
print(" ", verify_shift_invariance(weyl.double, alpha, 5))
a2 = build_qheis(cartan_a(2))
print(" ", verify_shift_invariance(a2.double, 2, 4))

# shifts can also come in through instance configs
cfg = {"type": "qheis", "cartan": [[2, -1], [-1, 2]],
       "shift": {"alpha": [[1]]}}
inst = load_instance(cfg)
print("\nloaded from config:", inst.name)
print("  plus twisting:", inst.plus.twisting)
