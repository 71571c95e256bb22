"""The subrepresentation build as it stood before it read the component's
columns and inlined the fiber solves, kept as the oracle for
``reps.subrepresentation``: the checked public crystal operators per
(element, node), one ``span_solver`` per weight fiber and one solve per
image."""

from linalg_fixture import span_solver
from twistedlie.linalg import SparseVector
from twistedlie.reps import TableRepresentation, highest_weight_check


def subrepresentation(ambient, hw_vec, component):
  """The subrepresentation generated by a highest weight vector, in the
  basis of canonical-path vectors of a highest weight crystal component.

  For each crystal element the basis vector is obtained by applying the
  lowering operators along its canonical path to hw_vec.  The vectors of
  each weight fiber must be linearly independent (their number equals the
  crystal fiber size); the E_i / F_i actions are re-expressed in this basis
  by exact solves, verifying invariance on the way.  Keys of the returned
  representation are the crystal element indices.
  """
  rank = ambient.rank
  hw_wt = component.wt(0)
  if not highest_weight_check(ambient, hw_vec, hw_wt):
    raise ValueError("hw_vec is not a highest weight vector of the "
                     "component weight")
  n_elts = len(component)
  vecs = [None] * n_elts
  vecs[0] = hw_vec
  for b in range(1, n_elts):
    path = component.paths[b]
    parent = component.e(b, path[0])
    vecs[b] = ambient.apply_f(path[0], vecs[parent])
    if not vecs[b]:
      raise ValueError("canonical path vector vanished at element %d" % b)
  fibers = {}
  for b in range(n_elts):
    fibers.setdefault(component.wt(b), []).append(b)
  solvers = {}
  shared = {}

  def scalar(c):
    """c, one object per value: the tables repeat few values.  The solver's
    coordinates are normalised already (ints where integral)."""
    return shared.setdefault(c, c)

  def solver_for(wt):
    if wt not in solvers:
      try:
        solvers[wt] = span_solver([vecs[b] for b in fibers[wt]])
      except ValueError:
        raise ValueError("fiber vectors are linearly dependent") from None
    return solvers[wt]

  weights = {b: component.wt(b) for b in range(n_elts)}
  # the ambient grading picks the fiber of an image; images share keys
  ambient_weights = {}
  e_act = {i: {} for i in range(1, rank + 1)}
  f_act = {i: {} for i in range(1, rank + 1)}
  depth = 0
  for b in range(n_elts):
    # The images of b lie one level above or below it, and elements come in
    # order of depth, so when a level starts the solvers two levels up are
    # done with; dropping them, and the exact inverses they hold, bounds
    # the memory (a dropped solver is rebuilt if needed again).
    if len(component.paths[b]) > depth:
      depth = len(component.paths[b])
      for done in [w for w in solvers
                   if len(component.paths[fibers[w][0]]) < depth - 1]:
        del solvers[done]
    for i in range(1, rank + 1):
      down = component.f(b, i)
      for op, table in (("e", e_act), ("f", f_act)):
        child = None
        if op == "f" and down is not None and component.paths[down][0] == i:
          # b is the canonical parent of down, so F_i vecs[b] is vecs[down]
          child = down
          img = vecs[down].entries
        else:
          img = ambient._act(op, i, vecs[b].entries)
        if not img:
          continue
        key = next(iter(img))
        img_wt = ambient_weights.get(key)
        if img_wt is None:
          img_wt = ambient_weights[key] = ambient.weight(key)
        if img_wt not in fibers:
          raise ValueError("action leaves the crystal weight support")
        # built even when no solve follows: it checks that the fiber's
        # vectors are independent
        solve = solver_for(img_wt)
        if child is not None and img_wt == weights[child]:
          # a vector of the fiber basis has the unit coordinates of itself
          table[i][b] = ((child, scalar(1)),)
          continue
        coords = solve(SparseVector._raw(img))
        if coords is None:
          raise ValueError("action leaves the span of the fiber basis")
        table[i][b] = tuple((bb, scalar(c))
                            for c, bb in zip(coords, fibers[img_wt]) if c)
  return TableRepresentation(rank, weights, e_act, f_act)
