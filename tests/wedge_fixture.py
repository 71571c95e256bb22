"""The antisymmetrisation map from an exterior power into the tensor power
of the same degree, as the oracle for the exterior power model."""

from itertools import permutations

from twistedlie.linalg import SparseVector


def _sign(perm):
  inversions = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
                   if perm[a] > perm[b])
  return -1 if inversions % 2 else 1


def antisymmetrise(vec):
  """k_1 ^ ... ^ k_k to the sum over permutations p of
  sign(p) * k_p(1) (x) ... (x) k_p(k), extended linearly."""
  acc = {}
  for key, c in vec.items():
    for perm in permutations(range(len(key))):
      full = tuple(key[p] for p in perm)
      acc[full] = acc.get(full, 0) + _sign(perm) * c
  return SparseVector(acc)
