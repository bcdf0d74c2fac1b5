"""
Quantum Heisenberg algebras from symmetric Cartan matrices
==========================================================

Colored power sums p_{n,i} paired through [n<i,j>][n]/n, the resulting
p- and h-relations, and the Fock space with its vacuum.
"""

from heisdouble.double import (
    smash_multiply,
    verify_commutation,
    verify_faithful,
    verify_vacuum,
)
from heisdouble.expr import evaluate_text
from heisdouble.hopf import element_str
from heisdouble.instances import (build_qheis, cartan_a, h_element, q_factor,
                                  sym_pair)
from heisdouble.scalars import q_int_sym

A = cartan_a(2)
inst = build_qheis(A)
D = inst.double
print("instance:", inst.name, "with cartan matrix", A)

# the defining bilinear form on single power sums
print("\npairing of single power sums <p'_{n,i}, p_{n,j}>:")
for n in (1, 2):
    for i in (1, 2):
        for j in (1, 2):
            v = sym_pair(q_factor(A),
                         tuple((n,) if c == i else () for c in (1, 2)),
                         tuple((n,) if c == j else () for c in (1, 2)))
            print("  n=%d i=%d j=%d : %s" % (n, i, j, v))

# the p-relation: commutator is a scalar, delta on degrees
print("\np-relation commutators [p'_{m,i}, p_{n,j}]:")
for (m, i, n, j) in ((2, 1, 2, 1), (2, 1, 2, 2), (1, 1, 2, 1)):
    x = D.generator_element("p'", (m, i))
    a = D.generator_element("p", (n, j))
    comm = smash_multiply(D, x, a) - smash_multiply(D, a, x)
    print("  m=%d i=%d n=%d j=%d : %s" % (m, i, n, j, D.element_str(comm)))

# complete homogeneous elements, expressed in the power sum basis
print("\nh_{2,1} =", element_str(inst.plus, h_element(2, 2, 1)))

# a same-color h-relation instance: h'_2 h_2 = sum_k [k+1] h_{2-k} h'_{2-k}
lhs = smash_multiply(D, D.generator_element("h'", (2, 1)),
                     D.generator_element("h", (2, 1)))
rhs = D.unit().scale(0)
for k in range(3):
    term = smash_multiply(D, D.generator_element("h", (2 - k, 1)),
                          D.generator_element("h'", (2 - k, 1)))
    rhs = rhs + term.scale(q_int_sym(k + 1))
print("\nsame-color h-relation at n = m = 2 holds:", lhs == rhs)

# normal ordering straight from the text grammar
print("normal order of p'[1,1]*p[1,1]:",
      D.element_str(evaluate_text(D, "p'[1,1]*p[1,1]")))

# the verification suites at truncated degree
print("\ncommutation identity up to degree 3:", verify_commutation(D, 3).status)
print("vacuum uniqueness up to degree 3:   ", verify_vacuum(D, 3).status)
print("faithfulness on the zero stratum:   ",
      verify_faithful(D, 0, 2).status)
