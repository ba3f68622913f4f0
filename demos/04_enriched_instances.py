"""
Enriched instances: group algebras and matrix categories
========================================================

"""

import numpy as np

from spanv.hopfcat import (
    check_frobenius_vcat,
    check_hopf_vcat,
    frobcat_to_spanv,
    group_algebra_hopf,
    hopfcat_data_equal,
    hopfcat_to_spanv,
    mat_frobenius_example,
    spanv_to_hopfcat,
)
from spanv.structures import check_frobenius, check_oplax_hopf

# the group algebra of Z/2 over F_2, packaged as a one object enriched
# category with a two dimensional hom object
h = group_algebra_hopf(2, 2)
print("hom dimension:", h.homs[0][0])
print("multiplication component:", np.asarray(h.m[0][0][0]).tolist())
print("comultiplication component:", np.asarray(h.delta[0][0]).tolist())
report = check_hopf_vcat(h)
for line in report.lines():
    print(line)

# the same instance realized over the span layer passes the generic
# Hopf checker, and converting back reproduces the data exactly
bim, anti = hopfcat_to_spanv(h)
print("span layer Hopf:", check_oplax_hopf(bim, anti).ok)
print("roundtrip is the identity:", hopfcat_data_equal(spanv_to_hopfcat(bim, anti), h))

# a matrix category over F_3 with objects of sizes 1, 2, 3; composition
# multiplies basis cells, cocomposition sums over a middle index, and
# the coidentity reads off the trace
fc = mat_frobenius_example(3, 3)
print("hom dimensions:", fc.homs)
report = check_frobenius_vcat(fc)
for line in report.lines():
    print(line)
print("span layer Frobenius:", check_frobenius(frobcat_to_spanv(fc)).ok)
