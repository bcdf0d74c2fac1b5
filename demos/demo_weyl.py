"""
The quantum Weyl algebra as a Heisenberg double
===============================================

k[x] with the q-binomial coproduct, its dual k[d], and the relation
d x = q x d + 1 recovered from the smash product.
"""

from heisdouble.double import fock_matrix
from heisdouble.expr import evaluate_text, pure_minus, pure_plus
from heisdouble.hopf import Element, antipode, check_bialgebra, comultiply, element_str
from heisdouble.instances import build_weyl

weyl = build_weyl()
H = weyl.plus
D = weyl.double

# the coproduct of x^n carries Gaussian binomial coefficients
print("coproduct of x^3:")
x3 = Element.from_label(H.basis(3)[0])
for (l1, l2), c in sorted(comultiply(H, x3).terms.items(),
                          key=lambda kv: kv[0][0].key):
    print("  %s (x) %s  :  %s" % (H.label_text(l1), H.label_text(l2), c))

# every bialgebra axiom, checked degree by degree
print("\nbialgebra axioms up to degree 8:", check_bialgebra(H, 8).status)

# the defining relation of the quantum Weyl algebra
print("\nnormal order of d*x:    ", D.element_str(evaluate_text(D, "d*x")))
print("normal order of d^2*x^2:", D.element_str(evaluate_text(D, "d^2 * x^2")))

# the pairing <d^m, x^n> is the q-factorial on the diagonal
print("\npairing table <d^m, x^n> for m, n <= 3:")
for m in range(4):
    row = []
    for n in range(4):
        dm = pure_minus(D, evaluate_text(D, "d^%d" % m))
        xn = pure_plus(D, evaluate_text(D, "x^%d" % n))
        row.append(str(weyl.pairing.pair(dm, xn)))
    print("  " + "   ".join("%-16s" % v for v in row))

# the antipode flips x^n up to a q-power
print()
for n in range(1, 4):
    a = pure_plus(D, evaluate_text(D, "x^%d" % n))
    print("S(x^%d) = %s" % (n, element_str(H, antipode(H, a))))

# d acts on the Fock space k[x] as the q-derivative
d = evaluate_text(D, "d")
print()
rows, cols, m = fock_matrix(D, d, 4)
print("matrix of d on 1, x, ..., x^4 (rows = outputs):")
for r, row in zip(rows, m):
    print("  %-4s | %s" % (H.label_text(r), "  ".join("%-14s" % v for v in row)))
