"""
Finite sets, spans, and composition by pullback
===============================================

"""

import numpy as np

from spanv.finset import FinFn, FinSet, pullback
from spanv.span import Span, compose_spans, identity_span

# a finite set of shaped tuples, one stride per axis
x = FinSet((2, 3, 2))
print("size of the triple set:", x.size)
print("first five triples:", x.decode(np.arange(5)).tolist())

# two functions into a common codomain
y = FinSet((4,))
f = FinFn(FinSet((3,)), y, [0, 2, 2])
g = FinFn(FinSet((5,)), y, [2, 0, 2, 1, 0])

# their pullback: all pairs that agree in the codomain, in
# lexicographic order of positions
apex, p1, p2 = pullback(f, g)
pairs = list(zip(p1.table.tolist(), p2.table.tolist()))
print("agreeing pairs:", pairs)

# spans are composed by exactly this construction
a = FinSet((3,))
b = FinSet((3,))
s = Span(a, FinSet((4,)), b,
         FinFn(FinSet((4,)), a, [0, 0, 1, 2]),
         FinFn(FinSet((4,)), b, [1, 2, 2, 0]))
t = Span(b, FinSet((3,)), a,
         FinFn(FinSet((3,)), b, [2, 2, 0]),
         FinFn(FinSet((3,)), a, [0, 1, 1]))
st = compose_spans(s, t)
print("composite apex size:", st.apex.size)
print("composite as a multirelation:")
for i in range(st.apex.size):
    print("  %d -> %d" % (st.f.table[i], st.g.table[i]))

# identity spans are absorbed on the nose, not just up to isomorphism
assert compose_spans(identity_span(a), s) == s
assert compose_spans(s, identity_span(b)) == s
print("identity spans absorb exactly")

# and composition is associative on the nose as well, because both
# associations list the same atomic coordinates in the same order
u = Span(a, FinSet((2,)), b,
         FinFn(FinSet((2,)), a, [2, 1]),
         FinFn(FinSet((2,)), b, [0, 0]))
left = compose_spans(compose_spans(s, t), u)
right = compose_spans(s, compose_spans(t, u))
assert left == right
print("triple composites agree exactly")
